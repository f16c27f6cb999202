from __future__ import annotations

import itertools
import os
import random
import sys
from fractions import Fraction
from math import factorial

import pytest

from hoalg import fmt, graded
from hoalg.cli import _example_period_data
from hoalg.coalg import (
    DgLieAlgebra, OoMorphism, OoStructure, check_morphism, check_structure,
    compose_morphisms, decalage_dgla, symmetrize_structure,
)
from hoalg.cocone import A_PRE, B_PRE, Splitting, fiber_product_model
from hoalg.fixtures import lambda_cartan_fixture
from hoalg.graded import (
    GradedMap, GradedSpace, MalformedInput, MultilinearMap, RejectedInput, SYMMETRIC, TENSOR,
    check_contraction, hom_space, lin_single, sign_pow,
)
from hoalg.hodge import (
    CartanHomotopy, FormalPeriodData, check_cartan, check_hodge_package,
    cartan_artin_maps, contraction_table_lines, derived_hom_structure,
    harmonic_quasi_inverse, hom_transfer_contraction, integrability_identity,
    minimal_period_map, perturbation_maps, psi_obstruction,
    split_period_coefficient_closed, split_period_map,
    strict_period_morphism, synthetic_package, torus_package, yukawa_mc_fiber_residual,
    yukawa_model, yukawa_model_v2, _harmonic_hom, _restrict_to_hom,
)
from hoalg.mc import ArtinElement, ArtinMap, ArtinRing, mc_check, mc_pushforward
from hoalg.transfer import transfer_structure
from fixture_helpers import is_strict
from pull_oracles import (
    psi_double_sum, pull_check_morphism, pull_derived_hom_structure,
    pull_harmonic_quasi_inverse, pull_minimal_period_map, pull_split_period_map,
    pull_symmetrized, pull_yukawa_model, pull_yukawa_model_v2, split_period_coefficient,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def one_section(cartan, ring, names_coeffs):
    xi = ArtinElement(ring, cartan.L.space)
    for name, mono, c in names_coeffs:
        xi.add(name, mono, c)
    return xi


# --- packages and Cartan identities ----------------------------------------------


def test_all_harmonic_package_passes():
    pkg, cartan, fpd = torus_package(1)
    assert check_hodge_package(pkg).ok


def test_acyclic_pair_propagator_sign():
    # h(delbar e) = -e passes; +e fails at the [delbar,h] identity
    A = GradedSpace([("e", 0, (0, 0)), ("de", 1, (0, 1))])
    delbar = GradedMap(A, A, 1)
    delbar.set("e", lin_single("de"))
    H = GradedSpace([])
    from hoalg.hodge import HodgePackage
    for coeff, expect in ((Fraction(-1), True), (Fraction(1), False)):
        h = GradedMap(A, A, -1)
        h.set("de", {"e": coeff})
        pkg = HodgePackage(A, GradedMap(A, A, 1), delbar, H,
                           GradedMap(H, A, 0), GradedMap(A, H, 0), h, 1)
        rep = check_hodge_package(pkg)
        assert rep.ok is expect
        if not expect:
            assert rep.first_failure()["label"] == "[delbar,h]=iota.pi-id"


@pytest.mark.parametrize("seed", range(4))
def test_synthetic_packages_valid(seed):
    pkg, cartan, fpd = synthetic_package(seed)
    assert check_hodge_package(pkg).ok
    assert check_cartan(cartan).ok
    assert fpd.check().ok


def test_zero_homotopy_passes_cartan():
    pkg, cartan, fpd = torus_package(1)
    zero = CartanHomotopy(cartan.L, cartan.V, cartan.d_V,
                          {x: GradedMap.zero(cartan.V, cartan.V,
                                             cartan.L.space.degree[x] - 1)
                           for x in cartan.L.space.names})
    assert check_cartan(zero).ok


def test_corrupted_contraction_fails_cartan_with_witness():
    pkg, cartan, fpd = synthetic_package(0)
    bad_i = dict(cartan.i)
    gm = GradedMap(cartan.V, cartan.V, 0, dict(bad_i["x1"].entries))
    # corrupt one structure constant: a degree-legal entry outside the pattern
    gm.set("c", lin_single("c"))
    bad_i["x1"] = gm
    bad = CartanHomotopy(cartan.L, cartan.V, cartan.d_V, bad_i)
    rep = check_cartan(bad)
    assert not rep.ok
    assert rep.first_failure()["witness"] is not None


def test_cartan_homotopy_rejects_an_i_key_outside_L():
    # x2's map passed as x3: x2 would silently get i = 0 and pass check_cartan
    pkg, cartan, fpd = synthetic_package(0)
    i = {"x1": cartan.i["x1"], "x3": cartan.i["x2"]}
    with pytest.raises(MalformedInput, match="'x3'"):
        CartanHomotopy(cartan.L, cartan.V, cartan.d_V, i)
    # the same misspelling in a cartan section of an input file
    L = cartan.L
    lines = fmt.space_lines("A", cartan.V) + fmt.space_lines("L", L.space)
    lines += fmt.map_lines("dA", cartan.d_V, "A", "A") + fmt.map_lines("dL", L.d, "L", "L")
    lines += fmt.multilinear_lines("brL", L.bracket, "L", "L")
    lines += ["dgla LL L", "  d dL", "  bracket brL"]
    for x in L.space.names:
        lines += fmt.map_lines("i_" + x, cartan.i[x], "A", "A")
    good = lines + ["cartan CC LL A dA", "  x1 -> i_x1", "  x2 -> i_x2"]
    assert check_cartan(fmt.parse("\n".join(good) + "\n").cartans["CC"]).ok
    with pytest.raises(MalformedInput, match="'x3'"):
        fmt.parse("\n".join(lines + ["cartan CC LL A dA", "  x1 -> i_x1", "  x3 -> i_x2"]))


def test_cartan_homotopy_rejects_a_non_dgla():
    # d^2 != 0 on L; with every i zero, each Cartan identity would still hold
    pkg, cartan, fpd = torus_package(1)
    Lsp = GradedSpace([("a", 0), ("b", 1), ("c", 2)])
    d = GradedMap(Lsp, Lsp, 1, {"a": lin_single("b"), "b": lin_single("c")})
    L = DgLieAlgebra(Lsp, d, MultilinearMap(Lsp, Lsp, 0, 2, TENSOR))
    with pytest.raises(RejectedInput, match=r"^input is not a DGLA: .*d\^2=0"):
        CartanHomotopy(L, cartan.V, cartan.d_V, {})


def test_cartan_homotopy_checks_its_dgla_once(monkeypatch):
    # L is checked when the homotopy is built, and the period builders read
    # its decalage without checking it again
    calls, check = [], DgLieAlgebra.check
    monkeypatch.setattr(DgLieAlgebra, "check", lambda self: calls.append(self) or check(self))
    pkg, cartan, fpd = synthetic_package(0)
    assert calls == [cartan.L]
    del calls[:]
    split_period_map(fpd, max_weight=3)
    minimal_period_map(pkg, cartan, max_weight=3)
    yukawa_model(pkg, cartan, max_weight=3)
    yukawa_model_v2(pkg, cartan, max_weight=3)
    strict_period_morphism(fpd, max_weight=2)
    assert calls == []


def test_torus_contraction_tables_match_golden():
    for n in (1, 2):
        pkg, cartan, fpd = torus_package(n)
        lines = contraction_table_lines(cartan)
        with open(os.path.join(GOLDEN, "torus_n%d.txt" % n)) as f:
            assert f.read().splitlines() == lines


def test_torus_spec_values():
    pkg, cartan, fpd = torus_package(1)
    assert cartan.i["t1b1"].value("dz1") == {"dzb1": Fraction(1)}
    assert cartan.i["t1b1"].value("dz1^dzb1") == {}
    pkg2, cartan2, _ = torus_package(2)
    chain = cartan2.i["t1b1"].compose(cartan2.i["t2b2"])
    assert chain.value("dz1^dz2") == {"dzb1^dzb2": Fraction(1)}


# --- integrability ------------------------------------------------------------------


def test_integrability_trivial_and_flat():
    pkg, cartan, fpd = torus_package(1)
    R = ArtinRing(1, 3)
    zero = ArtinElement(R, cartan.L.space)
    assert integrability_identity(cartan, zero).ok
    xi = one_section(cartan, R, [("t1b1", (1,), Fraction(1))])
    assert integrability_identity(cartan, xi).ok


@pytest.mark.parametrize("seed", range(3))
def test_integrability_nonflat(seed):
    pkg, cartan, fpd = synthetic_package(seed)
    R = ArtinRing(1, 3)
    xi = one_section(cartan, R, [("x1", (1,), Fraction(1)),
                                 ("x2", (1,), Fraction(2))])
    assert integrability_identity(cartan, xi).ok


def test_integrability_fails_for_mutated_homotopy():
    # drop the Cartan identities and the operator identity breaks
    pkg, cartan, fpd = synthetic_package(0)
    bad_i = dict(cartan.i)
    gm = GradedMap(cartan.V, cartan.V, 0, dict(bad_i["x1"].entries))
    gm.set("c", lin_single("c"))
    bad_i["x1"] = gm
    bad = CartanHomotopy(cartan.L, cartan.V, cartan.d_V, bad_i)
    R = ArtinRing(1, 4)
    xi = one_section(bad, R, [("x1", (1,), Fraction(1))])
    rep = integrability_identity(bad, xi)
    assert not rep.ok


def test_integrability_rejects_non_mc_section():
    cartan, fpd, model = lambda_cartan_fixture(1, 2, 2)
    R = ArtinRing(1, 3)
    bad = next(one_section(cartan, R, [(x, (1,), Fraction(1))])
               for x in cartan.L.space.names
               if cartan.L.space.degree[x] == 1 and cartan.L.d.value(x))
    with pytest.raises(RejectedInput):
        integrability_identity(cartan, bad)


# --- perturbation maps ---------------------------------------------------------------


def test_perturbation_maps_zero_section_recovers_package():
    pkg, cartan, fpd = synthetic_package(1)
    R = ArtinRing(1, 3)
    zero = ArtinElement(R, cartan.L.space)
    iota_xi, pi_xi, h_xi, delta_xi, rep = perturbation_maps(pkg, cartan, zero)
    assert rep.ok
    assert iota_xi == ArtinMap.from_graded(R, pkg.iota)
    assert pi_xi == ArtinMap.from_graded(R, pkg.pi)
    assert h_xi == ArtinMap.from_graded(R, pkg.h)
    assert delta_xi.is_zero()


def test_perturbation_maps_flat_package():
    pkg, cartan, fpd = torus_package(2)
    R = ArtinRing(1, 3)
    xi = one_section(cartan, R, [("t1b1", (1,), Fraction(1))])
    iota_xi, pi_xi, h_xi, delta_xi, rep = perturbation_maps(pkg, cartan, xi)
    assert rep.ok
    assert iota_xi == ArtinMap.from_graded(R, pkg.iota)  # h = 0 kills the series


@pytest.mark.parametrize("seed", range(4))
def test_perturbation_maps_nonflat(seed):
    pkg, cartan, fpd = synthetic_package(seed)
    R = ArtinRing(1, 3)
    xi = one_section(cartan, R, [("x1", (1,), Fraction(1)),
                                 ("x2", (1,), Fraction(-1))])
    iota_xi, pi_xi, h_xi, delta_xi, rep = perturbation_maps(pkg, cartan, xi)
    assert rep.ok
    # the correction series genuinely moves some map unless l_xi = 0
    l_xi = cartan.l_vec({"x1": Fraction(1), "x2": Fraction(-1)})
    unmoved = (iota_xi == ArtinMap.from_graded(R, pkg.iota)
               and pi_xi == ArtinMap.from_graded(R, pkg.pi)
               and h_xi == ArtinMap.from_graded(R, pkg.h))
    assert l_xi.is_zero() or not unmoved


class _CountedReads(dict):
    """An l table that records every name read through []."""

    def __init__(self, table, reads):
        super().__init__(table)
        self.reads = reads

    def __getitem__(self, x):
        self.reads.append(x)
        return super().__getitem__(x)


def _count_commutators(monkeypatch) -> list:
    """Every GradedMap.commutator call from now on appends to the returned list."""
    calls = []
    commutator = GradedMap.commutator

    def counted(self, other):
        calls.append(other)
        return commutator(self, other)

    monkeypatch.setattr(GradedMap, "commutator", counted)
    return calls


def test_perturbation_maps_build_each_series_and_l_once(monkeypatch):
    pkg, cartan, fpd = synthetic_package(0)
    R = ArtinRing(1, 3)
    xi = one_section(cartan, R, [("x1", (1,), Fraction(1)), ("x1", (2,), Fraction(2)),
                                 ("x2", (1,), Fraction(-1))])
    calls = {"series": 0}
    series = ArtinMap.geometric_series

    def counted_series(self):
        calls["series"] += 1
        return series(self)

    monkeypatch.setattr(ArtinMap, "geometric_series", counted_series)
    commutators = _count_commutators(monkeypatch)
    *_, rep = perturbation_maps(pkg, cartan, xi)
    assert rep.ok
    # (h l)^n and (l h)^n once each; every l_x comes from the table that the
    # homotopy built once, so no commutator is taken here
    assert calls == {"series": 2}
    assert commutators == []


# --- psi obstruction -----------------------------------------------------------------


def test_psi_zero_when_sections_agree():
    pkg, cartan, fpd = synthetic_package(0)
    R = ArtinRing(1, 3)
    xi = one_section(cartan, R, [("x1", (1,), Fraction(1))])
    psi = psi_obstruction(pkg, cartan, xi, xi)
    assert psi.is_zero()


def test_psi_single_contraction_on_torus_n1():
    # n = 1: psi(dz) = t dzb
    pkg, cartan, fpd = torus_package(1)
    R = ArtinRing(1, 3)
    xi = one_section(cartan, R, [("t1b1", (1,), Fraction(1))])
    psi = psi_obstruction(pkg, cartan, xi, ArtinElement(R, cartan.L.space))
    assert psi == ArtinMap(R, pkg.H, pkg.H, {
        (1,): GradedMap(pkg.H, pkg.H, 0, {"dz1": {"dzb1": 1}})})


def test_psi_torus_n2_quadratic_golden():
    pkg, cartan, fpd = torus_package(2)
    R = ArtinRing(1, 3)
    xi = one_section(cartan, R, [("t1b1", (1,), Fraction(1)),
                                 ("t2b2", (1,), Fraction(1))])
    psi = psi_obstruction(pkg, cartan, xi, ArtinElement(R, cartan.L.space))
    assert psi == ArtinMap(R, pkg.H, pkg.H, {
        (2,): GradedMap(pkg.H, pkg.H, 0, {"dz1^dz2": {"dzb1^dzb2": 2}})})


@pytest.mark.parametrize("seed", range(4))
def test_psi_double_sum_agrees_with_composed_series(seed):
    pkg, cartan, fpd = synthetic_package(seed)
    R = ArtinRing(2, 3)
    xi = one_section(cartan, R, [("x1", (1, 0), Fraction(1)),
                                 ("x2", (0, 1), Fraction(1))])
    eta = one_section(cartan, R, [("x2", (1, 0), Fraction(1, 2))])
    assert psi_obstruction(pkg, cartan, xi, eta) == \
        psi_double_sum(pkg, cartan, xi, eta)


def test_psi_builds_l_only_for_xi_and_eta(monkeypatch):
    # i_{xi - eta} needs no l; xi has two terms and eta one, so l is read three
    # times, from the table built with the homotopy, and no commutator is taken
    pkg, cartan, fpd = synthetic_package(0)
    R = ArtinRing(1, 3)
    xi = one_section(cartan, R, [("x1", (1,), Fraction(1)),
                                 ("x2", (1,), Fraction(1, 2))])
    eta = one_section(cartan, R, [("x1", (1,), Fraction(1))])
    reads = []
    cartan.l = _CountedReads(cartan.l, reads)
    commutators = _count_commutators(monkeypatch)
    psi = psi_obstruction(pkg, cartan, xi, eta)
    assert len(reads) <= 3, reads
    del reads[:]
    double = psi_double_sum(pkg, cartan, xi, eta)
    assert len(reads) <= 3, reads
    assert commutators == []
    assert psi == double


def test_period_builders_take_no_commutator_after_construction(monkeypatch):
    # l_x is built once per homotopy, so the four builders that read it take
    # no commutator of their own
    for pkg, cartan, fpd, w in ((*torus_package(2), 3), (*synthetic_package(0), 4)):
        commutators = _count_commutators(monkeypatch)
        split_period_map(fpd, max_weight=w)
        minimal_period_map(pkg, cartan, max_weight=w)
        yukawa_model(pkg, cartan, max_weight=w)
        yukawa_model_v2(pkg, cartan, max_weight=w)
        assert len(commutators) == 0
        monkeypatch.undo()


def _count_pushes(monkeypatch) -> tuple:
    """(pushes, compositions): from now on every vector push of the package's
    one walk (a lin_acc call made by graded.push) appends to pushes, and every
    GradedMap.compose call to compositions."""
    pushes, compositions = [], []
    acc, compose = graded.lin_acc, GradedMap.compose

    def counted_acc(*args):
        if sys._getframe(1).f_code.co_name == "push":
            pushes.append(1)
        return acc(*args)

    monkeypatch.setattr(graded, "lin_acc", counted_acc)
    monkeypatch.setattr(GradedMap, "compose",
                        lambda self, other: compositions.append(1) or compose(self, other))
    return pushes, compositions


def test_sorted_hodge_walks_push_from_rows_without_composing(monkeypatch):
    # every chain of the four builders is a table of vectors on W's basis,
    # pushed to the heads that read its rows: no builder composes a
    # GradedMap, and the pushes are pinned per builder (split, minimal,
    # yukawa, yukawa_v2)
    want = {"torus:2": [134, 68, 50, 34], "synthetic:0": [21, 24, 16, 7]}
    for (name, w), (pkg, cartan, fpd) in (
            (("torus:2", 3), torus_package(2)), (("synthetic:0", 4), synthetic_package(0))):
        counts = []
        for build in (lambda: split_period_map(fpd, max_weight=w),
                      lambda: minimal_period_map(pkg, cartan, max_weight=w),
                      lambda: yukawa_model(pkg, cartan, max_weight=w),
                      lambda: yukawa_model_v2(pkg, cartan, max_weight=w)):
            pushes, compositions = _count_pushes(monkeypatch)
            build()
            monkeypatch.undo()
            assert compositions == []
            counts.append(len(pushes))
        assert counts == want[name]


def test_yukawa_model_stores_each_arity_once(monkeypatch):
    # the gluing writes each arity of the pair space once, and no fiber
    # coefficient passes through a MultilinearMap of its own first: every
    # other store of the build is base q1 or q2 on L[1]
    stores, store = [], MultilinearMap.store

    def counted(self, words, factor=1):
        stores.append((self.source, self.target, self.arity))
        return store(self, words, factor)

    for (pkg, cartan, fpd), w in ((torus_package(2), 3), (synthetic_package(0), 4)):
        base = decalage_dgla(cartan.L, max_weight=w).space
        monkeypatch.setattr(MultilinearMap, "store", counted)
        Y = yukawa_model(pkg, cartan, max_weight=w)
        monkeypatch.undo()
        assert any(y.startswith(B_PRE) for q in Y.taylor.values() for vec in q.entries.values()
                   for y in vec)
        assert sorted(k for _, target, k in stores if target == Y.space) == \
            list(range(1, w + 1))
        assert sorted(k for source, target, k in stores if target != Y.space
                      and (source, target) == (base, base)) == [1, 2]
        assert len(stores) == w + 2
        del stores[:]


def _push_types(monkeypatch) -> list:
    """From now on the type of every coefficient that graded.push adds (a
    lin_acc call made by push, coeff times each entry) appends to a list."""
    added, acc = [], graded.lin_acc

    def typed_acc(target, vec, coeff=1):
        if sys._getframe(1).f_code.co_name == "push":
            added.extend(type(coeff * c) for c in vec.values())
        return acc(target, vec, coeff)

    monkeypatch.setattr(graded, "lin_acc", typed_acc)
    return added


def test_period_walks_push_ints(monkeypatch):
    # synthetic:0's i_x carry halves, yet every coefficient that graded.push
    # adds in split, minimal and Yukawa v1 is an int: each builder scales its
    # rows once to ints at one scale D and stores level k with its 1/D^k
    pkg, cartan, fpd = synthetic_package(0)
    assert any(type(c) is Fraction for gm in cartan.i.values()
               for vec in gm.entries.values() for c in vec.values())
    for build in (lambda: split_period_map(fpd, max_weight=4),
                  lambda: minimal_period_map(pkg, cartan, max_weight=4),
                  lambda: yukawa_model(pkg, cartan, max_weight=4)):
        added = _push_types(monkeypatch)
        build()
        monkeypatch.undo()
        assert added and set(added) == {int}


def test_split_reads_p_as_a_name_filter(monkeypatch):
    # P is the coordinate projection onto A's names, so split keeps those
    # names (graded.by_row) and applies no GradedMap
    fpd = synthetic_package(0)[2]
    applied, apply = [], GradedMap.apply
    monkeypatch.setattr(GradedMap, "apply",
                        lambda self, vec: applied.append(1) or apply(self, vec))
    Pi, _ = split_period_map(fpd, max_weight=4)
    assert Pi.taylor and applied == []


# --- split period map ----------------------------------------------------------------


def test_split_period_coefficient_table():
    # closed form vs partition sum, 1 <= j < k <= 5; j = 0 gives 1
    for k in range(1, 6):
        assert split_period_coefficient(k, 0) == 1
        for j in range(1, k):
            assert split_period_coefficient(k, j) == \
                split_period_coefficient_closed(k, j), (k, j)
    assert split_period_coefficient(2, 1) == -1  # 1 - binom(2,1)


def test_split_period_k1_is_projected_contraction():
    pkg, cartan, fpd = synthetic_package(0)
    Pi, target = split_period_map(fpd, max_weight=2)
    for x in cartan.L.space.names:
        word = fpd.P.compose(cartan.i[x]).compose(fpd.Pperp)
        from hoalg.hodge import _restrict_to_hom
        want = _restrict_to_hom(word.entries, fpd.w_names, fpd.a_names)
        assert Pi.taylor[1].value((x,)) == want


@pytest.mark.parametrize("fixture", ["torus", "synthetic", "lambda"])
def test_split_period_map_is_morphism(fixture):
    if fixture == "torus":
        pkg, cartan, fpd = torus_package(2)
    elif fixture == "synthetic":
        pkg, cartan, fpd = synthetic_package(2)
    else:
        cartan, fpd, model = lambda_cartan_fixture(0, 2, 1)
    Pi, target = split_period_map(fpd, max_weight=3)
    assert check_morphism(Pi, max_weight=3).ok


def test_split_period_component_collapses_on_torus():
    """On the flat torus with W = A^{>=1}, the A^{1+j} -> A^{1+j-k} component
    of pi_k is split_period_coefficient_closed(k, j) times the chain
    i_{w[0]} o .. o i_{w[k-1]} in word order, with no sign left over.

    The sign: pi_k(w) sums the orderings s of w with their Koszul signs
    eps(s), and on the torus every i_x has degree |x| in L[1] and the i's
    graded-commute ([i, i] = 0).  Each i_x lowers the holomorphic degree by
    one, so the projections between the contractions act alike on every
    ordering.  Reordering the chain of s back into word order passes i_x
    over i_y with the sign (-1)^{|x||y|}, the same sign eps(s) carries, so
    every ordering contributes the chain in word order with sign +1, and
    the partition sum leaves the closed coefficient.
    Every arity >= 3 vanishes: three contractions kill A^{<=2, *}.
    """
    pkg, cartan, fpd = torus_package(2, p=1)
    Pi, target = split_period_map(fpd, max_weight=5)
    assert set(Pi.taylor) == {1, 2}
    from hoalg.graded import elementary_to_graded_map
    k = 2
    nonzero = 0
    for x, y in Pi.source.basis_words(k):
        got = Pi.taylor[k].value((x, y))
        nonzero += bool(got)
        gm = elementary_to_graded_map(got, target.space, pkg.A, pkg.A) \
            if got else None
        chain = cartan.i[x].compose(cartan.i[y])
        for src in pkg.A.names:
            p, q = pkg.A.bidegree[src]
            if p < 1:
                continue
            j = p - 1
            coeff = split_period_coefficient_closed(k, j) if p - k < 1 else 0
            want = {t: c * coeff for t, c in chain.value(src).items() if coeff}
            have = gm.value(src) if gm is not None else {}
            assert have == want, (x, y, src)
    assert nonzero == 9


# --- minimal period map ---------------------------------------------------------------


def test_minimal_period_map_flat_torus_is_contraction_words():
    pkg, cartan, fpd = torus_package(2)
    P = minimal_period_map(pkg, cartan, max_weight=3)
    assert check_morphism(P, max_weight=3).ok
    # h = 0: only the j = k term survives: p_k = pi i..i iota
    x, y = "t1b1", "t2b2"
    from hoalg.hodge import _restrict_to_hom
    chain = pkg.pi.compose(cartan.i[x]).compose(cartan.i[y]).compose(pkg.iota)
    top = [n for n in pkg.H.names if pkg.H.bidegree[n][0] >= 2]
    low = [n for n in pkg.H.names if pkg.H.bidegree[n][0] < 2]
    want = _restrict_to_hom(chain.entries, top, low)
    got = P.taylor[2].value((x, y))
    assert got == want


def test_minimal_period_map_k_greater_than_n_vanishes_flat():
    pkg, cartan, fpd = torus_package(2)
    P = minimal_period_map(pkg, cartan, max_weight=3)
    q3 = P.taylor.get(3)
    if q3 is not None:
        for word, vec in q3.entries.items():
            assert not vec  # contraction arity bound: i^3 kills A^{2,*}


def _torus_minors(n: int, k: int, index: dict) -> dict:
    """{sorted word T: p_k(T)} for the flat n-torus, read off the k x k
    minors of xi, over the words of the degree-0 letters t_j b_a of L[1].

    For xi = sum_{j,a} xi_ja t_j b_a, i_xi is the even derivation that sends
    dz_j to eta_j = sum_a xi_ja dzb_a and kills every dzb, so e^{i_xi} is
    the algebra map 1 + i_xi on the generators, and for
    Omega = dz_1 ^ .. ^ dz_n

        e^{i_xi} Omega = (dz_1 + eta_1) ^ .. ^ (dz_n + eta_n).

    Take eta_j at the places j of J, |J| = k, and move those one-forms
    right, past the dz_i with i > j, i not in J; that costs
    eps(J) = (-1)^{sum_{j in J} #{i not in J: i > j}}.  Then
    eta_{j_1} ^ .. ^ eta_{j_k} = sum_{|A| = k} det xi[J, A] dzb_A, so the part
    of degree k in xi is sum_{J, A} eps(J) det xi[J, A] dz_{J^c} ^ dzb_A.
    The minor is expanded by Leibniz: the bijection sigma: J -> A gives the
    monomial prod_{j in J} xi_{j sigma(j)} with the sign of sigma, (-1) to
    its inversions.  On W = A^{n,*}, i_xi kills dzb_S, so Omega ^ dzb_S goes
    to that form wedge dzb_S, and dzb_A ^ dzb_S = (-1)^{#{a in A, s in S:
    a > s}} dzb_{A + S} for disjoint A and S (0 otherwise).  Names list the
    dz's, then the dzb's, each increasing, so dz_{J^c} ^ dzb_{A + S} is a
    basis name with sign 1.

    The letters have degree 0, so the part of degree k is
    (1/k!) p_k(xi, .., xi) = sum_T (xi^T / stab(T)) p_k(T), and p_k(T) is
    stab(T) times the coefficient of the monomial xi^T, the polarization.
    The monomials of a minor are squarefree, so stab(T) = 1 wherever that
    coefficient is nonzero, and every other word gets nothing."""
    places = range(1, n + 1)
    subsets = [S for r in range(n + 1) for S in itertools.combinations(places, r)]

    def name(dz, dzb):
        return "^".join(["dz%d" % i for i in dz] + ["dzb%d" % a for a in sorted(dzb)]) or "one"

    out: dict = {}
    for J in itertools.combinations(places, k):
        eps = (-1) ** sum(1 for j in J for i in places if i > j and i not in J)
        rest = [i for i in places if i not in J]
        for A in itertools.combinations(places, k):
            for image in itertools.permutations(A):
                det = (-1) ** sum(1 for p, q in itertools.combinations(image, 2) if p > q)
                word = tuple(sorted(("t%db%d" % ja for ja in zip(J, image)), key=index.get))
                vec = out.setdefault(word, {})
                for S in subsets:
                    if not set(A) & set(S):
                        sign = (-1) ** sum(1 for a in A for s in S if a > s)
                        vec["%s<-%s" % (name(rest, A + S), name(places, S))] = eps * det * sign
    return out


def _flat_torus(n: int, cache={}) -> tuple:
    """(package, homotopy, minimal period map at weight n) of the flat n-torus,
    built once per test session: torus:5's package and map take about a
    second, and the minors and Yukawa tests read them."""
    if n not in cache:
        pkg, cartan, fpd = torus_package(n)
        cache[n] = pkg, cartan, minimal_period_map(pkg, cartan, max_weight=n)
    return cache[n]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_minimal_period_map_of_the_flat_torus_is_its_minors(n):
    # p_k of the flat n-torus is the polarization of the k x k minors of xi
    # times the complementary forms (_torus_minors), on every sorted word of
    # degree-0 letters, for every k <= n
    pkg, cartan, P = _flat_torus(n)
    space = P.source.space
    for k in range(1, n + 1):
        got = {word: vec for word, vec in P.taylor[k].entries.items()
               if all(space.degree[x] == 0 for x in word)}
        assert got == _torus_minors(n, k, space.index), (n, k)
        assert got


def _yukawa_block_is_the_minimal_block(n: int, build) -> dict:
    """Check that the dzb1^..^dzbn<-dz1^..^dzn block of the fiber q_n of the
    Yukawa model `build` of torus:n equals that block of the minimal period
    map's p_n, which the minors test pins to the closed form, on every sorted
    word of degree-0 letters, and return the block {word: coefficient}."""
    pkg, cartan, P = _flat_torus(n)
    space = P.source.space
    block = "%s<-%s" % ("^".join("dzb%d" % i for i in range(1, n + 1)),
                        "^".join("dz%d" % i for i in range(1, n + 1)))

    def degree0(word):
        return all(space.degree[x] == 0 for x in word)

    want = {word: vec[block] for word, vec in P.taylor[n].entries.items()
            if degree0(word) and block in vec}
    # the block is the polarized n x n determinant: one word per permutation
    assert len(want) == factorial(n)
    Y = build(pkg, cartan, max_weight=n)
    fiber = {tuple(x[len(A_PRE):] for x in key): vec[B_PRE + block]
             for key, vec in Y.taylor[n].entries.items()
             if B_PRE + block in vec and all(x.startswith(A_PRE) for x in key)}
    assert {word: c for word, c in fiber.items() if degree0(word)} == want
    return want


def test_yukawa_cubic_of_the_three_torus():
    """For torus:3 the H^{3,0} -> H^{0,3} block of the weight-3 minimal period
    map on (t_a b_alpha, t_b b_beta, t_c b_gamma) is eps_{abc} eps_{alpha beta
    gamma}: the polarization of xi -> 6 det xi (Bryant-Griffiths 1983).
    The fiber q3 of both Yukawa models carries the same block."""
    want = _yukawa_block_is_the_minimal_block(3, yukawa_model)
    assert _yukawa_block_is_the_minimal_block(3, yukawa_model_v2) == want
    names = sorted(("t%db%d" % (a, al) for a in (1, 2, 3) for al in (1, 2, 3)),
                   key=_flat_torus(3)[2].source.space.index.get)

    def eps(p):
        if len(set(p)) < 3:
            return 0
        return sign_pow(sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3)))

    words = list(itertools.combinations_with_replacement(names, 3))
    assert len(words) == 165
    for word in words:
        assert want.get(word, 0) == eps([int(n[1]) for n in word]) * \
            eps([int(n[3]) for n in word]), word


@pytest.mark.parametrize("build", [yukawa_model, yukawa_model_v2], ids=["v1", "v2"])
@pytest.mark.parametrize("n", [4, 5])
def test_yukawa_n_linear_coupling_of_the_flat_torus(n, build):
    # the n-linear coupling on torus:4 and torus:5, as on torus:3 above
    _yukawa_block_is_the_minimal_block(n, build)


@pytest.mark.parametrize("fixture", ["torus", "synthetic0", "synthetic2"])
def test_minimal_equals_quasi_inverse_composed_with_split(fixture):
    if fixture == "torus":
        pkg, cartan, fpd = torus_package(2)
    else:
        pkg, cartan, fpd = synthetic_package(int(fixture[-1]))
    P = minimal_period_map(pkg, cartan, max_weight=3)
    assert check_morphism(P, max_weight=3).ok
    Pi, target = split_period_map(fpd, max_weight=3)
    big, contr = hom_transfer_contraction(pkg, pkg.n, max_weight=3)
    G = harmonic_quasi_inverse(pkg, pkg.n, symmetrize_structure(big), max_weight=3)
    assert check_morphism(G, max_weight=3).ok
    comp = compose_morphisms(G, Pi, max_weight=3)
    for k in set(comp.taylor) | set(P.taylor):
        assert comp.taylor.get(k) == P.taylor.get(k), k


def _seeded_section(cartan, ring, tag):
    """A seeded element of L^1 (x) m_B, about half of its (letter, monomial)
    cells filled.  L is abelian with d = 0 in the torus and synthetic
    packages, so every such element is Maurer-Cartan."""
    rng = random.Random("period point:%s" % tag)
    xi = ArtinElement(ring, cartan.L.space)
    for x in cartan.L.space.names:
        for mono in ring.monomials(min_total=1):
            if cartan.L.space.degree[x] == 1 and rng.random() < 0.5:
                xi.add(x, mono, Fraction(rng.choice((-2, -1, 1, 2, 3)), rng.choice((1, 2, 3))))
    return xi


def _period_point_block(pkg, cartan, xi) -> dict:
    """The H^n -> H^{<n} block of pi e^{i_xi} iota_xi as {(t<-s, monomial): c},
    from the operator series of cartan_artin_maps and perturbation_maps."""
    i_xi, _ = cartan_artin_maps(cartan, xi)
    iota_xi, *_, rep = perturbation_maps(pkg, cartan, xi)
    assert rep.ok
    top, low, _ = _harmonic_hom(pkg, pkg.n)
    op = ArtinMap.from_graded(xi.ring, pkg.pi).compose(i_xi.exp()).compose(iota_xi)
    return {(name, mono): c for mono, gm in op.coeffs.items()
            for name, c in _restrict_to_hom(gm.entries, top, low).items()}


@pytest.mark.parametrize("fixture", ["torus:2", "torus:3", "synthetic:0", "synthetic:1",
                                     "synthetic:2"])
def test_minimal_period_map_pushes_sections_to_their_period_points(fixture):
    """The paper's loop from a section to its period point: for
    P = minimal_period_map(pkg, c, N - 1), the MC pushforward of xi equals the
    H^n -> H^{<n} block of pi e^{i_xi} iota_xi, entry for entry.  The two
    sides share no code: one is mc._exp_series over P's Taylor maps, the
    other the Artin operator series of the Cartan homotopy.  The sections
    are seeded elements of L^1 (x) m_B, so letters of L outside degree 1
    are out of reach of this probe."""
    pkg, cartan, _ = _example_period_data(fixture)
    nonzero = 0
    for ring in (ArtinRing(1, 3), ArtinRing(1, 4), ArtinRing(2, 3)):
        P = minimal_period_map(pkg, cartan, ring.order - 1)
        for seed in range(3):
            xi = _seeded_section(cartan, ring, "%s:%r:%d" % (fixture, ring, seed))
            got = mc_pushforward(P, ArtinElement(ring, P.source.space, xi.terms))
            assert got.terms == _period_point_block(pkg, cartan, xi), (ring, seed)
            nonzero += not got.is_zero()
    assert nonzero >= 6  # the comparison is not between zeros only


def _graph_coordinate(fpd, xi) -> dict:
    """The graph coordinate P e^{i_xi} (P-perp e^{i_xi}|_W)^{-1}: W -> A of
    the subspace e^{i_xi} W over W along A, as {(a<-w, monomial): c}.  With
    E = e^{i_xi} = id + (terms in m_B) and N = P-perp (E - id) P-perp, the
    inverse of P-perp E on W is the geometric series of -N."""
    ring, P, Pperp = xi.ring, ArtinMap.from_graded(xi.ring, fpd.P), \
        ArtinMap.from_graded(xi.ring, fpd.Pperp)
    E = cartan_artin_maps(fpd.cartan, xi)[0].exp()
    N = Pperp.compose(E.plus(ArtinMap.identity(ring, fpd.cartan.V), -1)).compose(Pperp)
    op = P.compose(E).compose(Pperp).compose(N.scaled(-1).geometric_series())
    return {(name, mono): c for mono, gm in op.coeffs.items()
            for name, c in _restrict_to_hom(gm.entries, fpd.w_names, fpd.a_names).items()}


@pytest.mark.parametrize("fixture", ["torus:2:1", "torus:2:2", "synthetic:0"])
def test_split_period_map_pushes_sections_to_their_graph_coordinates(fixture):
    """The split map's loop from a section to its period point: for
    Pi = split_period_map(fpd, N - 1), the MC pushforward of xi equals the
    graph coordinate of e^{i_xi} W over W along A (_graph_coordinate), with
    this sign, entry for entry, and is Maurer-Cartan in the derived target.
    The two sides share no code: one is mc._exp_series over Pi's Taylor maps,
    the other the Artin operator series of the Cartan homotopy.  The sections
    are seeded elements of L^1 (x) m_B, so letters of L outside degree 1 are
    out of reach of this probe."""
    pkg, cartan, fpd = torus_package(2, int(fixture[-1])) if fixture.startswith("torus") \
        else synthetic_package(0)
    nonzero = 0
    for ring in (ArtinRing(1, 3), ArtinRing(1, 4), ArtinRing(2, 3)):
        Pi, target = split_period_map(fpd, ring.order - 1)
        for seed in range(3):
            xi = _seeded_section(cartan, ring, "split:%s:%r:%d" % (fixture, ring, seed))
            got = mc_pushforward(Pi, ArtinElement(ring, Pi.source.space, xi.terms))
            assert got.terms == _graph_coordinate(fpd, xi), (ring, seed)
            assert mc_check(target, got).is_zero(), (ring, seed)
            nonzero += not got.is_zero()
    assert nonzero >= 6  # the comparison is not between zeros only


@pytest.mark.parametrize("fixture", ["torus", "synthetic1"])
def test_prop75_transfer_is_trivial(fixture):
    if fixture == "torus":
        pkg, cartan, fpd = torus_package(2)
    else:
        pkg, cartan, fpd = synthetic_package(1)
    big, contr = hom_transfer_contraction(pkg, pkg.n, max_weight=3)
    assert check_contraction(contr).ok
    assert check_structure(big).ok
    small, F = transfer_structure(big, contr, max_weight=3)
    assert not small.taylor  # trivial transferred structure
    assert check_morphism(F).ok


# --- strict period morphism into the Lie cocone, generic fixtures ---------------------


@pytest.mark.parametrize("fixture", ["synthetic0", "lambda21", "lambda30"])
def test_strict_period_morphism_generic(fixture):
    if fixture == "synthetic0":
        pkg, cartan, fpd = synthetic_package(0)
    elif fixture == "lambda21":
        cartan, fpd, model = lambda_cartan_fixture(0, 2, 1)
        assert not cartan.L.d.is_zero()  # genuinely non-flat draw
    else:
        cartan, fpd, model = lambda_cartan_fixture(0, 3, 0)
        assert not cartan.L.bracket.is_zero()  # genuinely non-abelian draw
    F, cocone = strict_period_morphism(fpd, max_weight=2 if "30" in fixture else 3)
    assert is_strict(F)
    assert check_morphism(F).ok


# --- Yukawa models ---------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(3))
def test_yukawa_models_pass_structure_check(seed):
    pkg, cartan, fpd = synthetic_package(seed)
    assert check_structure(yukawa_model(pkg, cartan, max_weight=4)).ok
    assert check_structure(yukawa_model_v2(pkg, cartan, max_weight=4)).ok


def test_yukawa_torus_quadratic_cone():
    # flat n = 2: only q2 is nontrivial and its fiber part is pi i i iota
    pkg, cartan, fpd = torus_package(2)
    y1 = yukawa_model(pkg, cartan, max_weight=4)
    assert set(y1.taylor) == {2}
    assert check_structure(y1, max_weight=3).ok
    got = y1.taylor[2].value((A_PRE + "t1b1", A_PRE + "t2b2"))
    assert got == {B_PRE + "dzb1^dzb2<-dz1^dz2": Fraction(1)}


def test_yukawa_fiber_has_no_self_brackets():
    pkg, cartan, fpd = synthetic_package(0)
    y1 = yukawa_model(pkg, cartan, max_weight=4)
    for k, q in y1.taylor.items():
        for word in q.entries:
            assert not all(w.startswith(B_PRE) for w in word) or k == 1


def test_yukawa_v2_fiber_differential_and_degree_argument():
    pkg, cartan, fpd = synthetic_package(0)
    y2 = yukawa_model_v2(pkg, cartan, max_weight=4)
    # fiber-only words never appear beyond arity 1 (degree reasons: [sf1,sf2]=0)
    for k, q in y2.taylor.items():
        if k == 1:
            continue
        for word in q.entries:
            assert not all(w.startswith(B_PRE) for w in word)


def test_yukawa_mc_residual_equals_psi_over_factorial():
    pkg, cartan, fpd = torus_package(2)
    R = ArtinRing(1, 3)
    y1 = yukawa_model(pkg, cartan, max_weight=4)
    xi = one_section(cartan, R, [("t1b1", (1,), Fraction(1)),
                                 ("t2b2", (1,), Fraction(1))])
    res = yukawa_mc_fiber_residual(y1, xi)
    psi = psi_obstruction(pkg, cartan, xi, ArtinElement(R, cartan.L.space))
    translated = {}
    for m, gm in psi.coeffs.items():
        for s, img in gm.entries.items():
            for t, c in img.items():
                translated[(B_PRE + "%s<-%s" % (t, s), m)] = c / factorial(pkg.n)
    assert translated == res.terms


@pytest.mark.parametrize("seed", range(3))
def test_psi_vanishes_iff_yukawa_fiber_residual_vanishes(seed):
    pkg, cartan, fpd = synthetic_package(seed)
    R = ArtinRing(1, 3)
    y1 = yukawa_model(pkg, cartan, max_weight=4)
    xi = one_section(cartan, R, [("x1", (1,), Fraction(1)),
                                 ("x2", (1,), Fraction(1, 2))])
    res = yukawa_mc_fiber_residual(y1, xi)
    psi = psi_obstruction(pkg, cartan, xi, ArtinElement(R, cartan.L.space))
    assert res.is_zero() == psi.is_zero()
    translated = {}
    for m, gm in psi.coeffs.items():
        for s, img in gm.entries.items():
            for t, c in img.items():
                translated[(B_PRE + "%s<-%s" % (t, s), m)] = c / factorial(pkg.n)
    assert translated == res.terms


def yukawa_from_fiber_product(pkg, cartan, max_weight=4):
    """Specialize the generic model: M = the minimal target with zero
    structure, N = maps into middle columns, A = maps into the bottom row,
    F = the minimal period map."""
    from hoalg.coalg import DgLieAlgebra
    from hoalg.graded import MultilinearMap, TENSOR
    n = pkg.n
    hw = pkg.harmonic_names()
    top = [x for x in hw if pkg.H.bidegree[x][0] >= n]
    low = [x for x in hw if pkg.H.bidegree[x][0] < n]
    M_space = hom_space(low, top, pkg.H).shifted(-1)
    M = DgLieAlgebra(M_space, GradedMap(M_space, M_space, 1),
                     MultilinearMap(M_space, M_space, 0, 2, TENSOR))
    bottom_names = [nm for nm in M_space.names
                    if pkg.H.bidegree[nm.split("<-")[0]][0] == 0]
    split = Splitting(M, bottom_names)
    P = minimal_period_map(pkg, cartan, max_weight)
    target = decalage_dgla(M, max_weight)
    F = OoMorphism(P.source, target, dict(P.taylor))
    return fiber_product_model(cartan.L, split, F, max_weight)


@pytest.mark.parametrize("fixture", ["torus", "synthetic0"])
def test_yukawa_agrees_with_generic_fiber_product(fixture):
    if fixture == "torus":
        pkg, cartan, fpd = torus_package(2)
    else:
        pkg, cartan, fpd = synthetic_package(0)
    y1 = yukawa_model(pkg, cartan, max_weight=4)
    fp = yukawa_from_fiber_product(pkg, cartan, max_weight=4)
    # translation: yukawa words (a:x.., b:f) <-> fiber-product words (b:x.., a:f)
    def translate(word):
        return tuple((A_PRE + w[2:]) if w.startswith(B_PRE) else (B_PRE + w[2:])
                     for w in word)
    for k in set(y1.taylor) | set(fp.taylor):
        qy, qf = y1.taylor.get(k), fp.taylor.get(k)
        words = set((qy.entries if qy else {})) | \
            {tuple(sorted(translate(w), key=y1.space.index.get))
             for w in (qf.entries if qf else {})}
        for word in words:
            a = qy.value(word) if qy else {}
            b = qf.value(translate(word)) if qf else {}
            assert a == {translate((t,))[0]: c for t, c in b.items()}, (k, word)


def test_formal_graded_lie_model_from_flat_package():
    # the K3-style endpoint: a flat package's fiber-product model is a plain
    # graded Lie algebra (single quadratic bracket) passing the structure check
    pkg, cartan, fpd = torus_package(2)
    y1 = yukawa_model(pkg, cartan, max_weight=4)
    assert set(y1.taylor) == {2}
    assert check_structure(y1).ok


def test_v2_fiber_cohomology_matches_harmonic_dimensions():
    # H^* of (Hom*(A^{n,*}, A^{0,*}), -[delbar, -]) has the dimensions of
    # Hom*(H^{n,*}, H^{0,*}) on a non-flat synthetic package
    from hoalg.graded import map_kernel_basis
    pkg, cartan, fpd = synthetic_package(0)
    n = pkg.n
    top = pkg.a_names(lambda bp, bq: bp == n)
    bottom = pkg.a_names(lambda bp, bq: bp == 0)
    hom = hom_space(bottom, top, pkg.A)
    from hoalg.graded import GradedMap, elementary_to_graded_map, graded_map_to_elementary
    diff = GradedMap(hom, hom, 1)
    for name in hom.names:
        gm = elementary_to_graded_map({name: Fraction(1)}, hom, pkg.A, pkg.A,
                                      hom.degree[name])
        comm = pkg.delbar.commutator(gm).scale(-1)
        vec = {}
        for s, img in comm.entries.items():
            if s in set(top):
                for t, c in img.items():
                    if t in set(bottom):
                        vec["%s<-%s" % (t, s)] = c
        if vec:
            diff.set(name, vec)
    assert diff.compose(diff).is_zero()
    kers = map_kernel_basis(diff)
    # rank-nullity per degree: h^d = dim ker_d - rank(d_{d-1})
    htop = pkg.harmonic_names(p=n)
    hbot = [x for x in pkg.H.names if pkg.H.bidegree[x][0] == 0]
    harmonic_hom = hom_space(hbot, htop, pkg.H)
    for d in sorted(set(hom.degree.values())):
        dim_ker = sum(1 for v in kers if hom.vector_degree(v) == d)
        dim_below = sum(1 for nm in hom.names if hom.degree[nm] == d - 1)
        ker_below = sum(1 for v in kers if hom.vector_degree(v) == d - 1)
        rank_into = dim_below - ker_below
        hd = dim_ker - rank_into
        want = sum(1 for nm in harmonic_hom.names if harmonic_hom.degree[nm] == d)
        assert hd == want, d


def test_period_maps_on_nonabelian_nonflat_fixture():
    # both period-map models verify on a draw where the controlling algebra
    # has a genuine bracket AND a genuine differential
    cartan, fpd, model = lambda_cartan_fixture(3, 3, 1, p=2)
    assert not cartan.L.bracket.is_zero()
    assert not cartan.L.d.is_zero()
    Pi, target = split_period_map(fpd, max_weight=3)
    assert check_morphism(Pi, max_weight=3).ok
    F, cocone = strict_period_morphism(fpd, max_weight=2)
    assert check_morphism(F, max_weight=2).ok


# --- reference chain loops (every composition, every chain rebuilt) ---------------


def _reference_split_taylor(fpd, source, target_space, max_weight):
    """pi_k as the explicit double sum: every permutation, every composition of
    k, and the whole P i..i P ... P-perp chain recomposed for each term."""
    from hoalg.graded import (
        MultilinearMap, compositions, koszul_sign, lin_acc, unshuffles,
    )
    from hoalg.hodge import _restrict_to_hom
    c = fpd.cartan
    Lsh = source.space
    taylor = {}
    for k in range(1, max_weight + 1):
        pk = MultilinearMap(Lsh, target_space, 0, k, SYMMETRIC)
        for word in source.basis_words(k):
            degs = [Lsh.degree[w] for w in word]
            acc = {}
            for sigma in unshuffles(*([1] * k)):
                eps = koszul_sign(sigma, degs)
                perm = [word[s - 1] for s in sigma]
                for j in range(1, k + 1):
                    for part in compositions(k, j):
                        coeff = Fraction((-1) ** (k + j))
                        for size in part:
                            coeff /= factorial(size)
                        cur = fpd.Pperp
                        pos = k
                        for size in reversed(part):
                            for x in reversed(perm[pos - size:pos]):
                                cur = c.i[x].compose(cur)
                            cur = fpd.P.compose(cur)
                            pos -= size
                        lin_acc(acc, _restrict_to_hom(cur.entries, fpd.w_names, fpd.a_names),
                                eps * coeff)
            if acc:
                pk.add_entry(word, acc)
        if not pk.is_zero():
            taylor[k] = pk
    return taylor


def _reference_contraction_sum(pkg, cartan, word, head, w_names, a_names):
    """sum over (head, 1, .., 1)-unshuffles of eps * pi i_head (h l)_tail iota,
    with h o l_x recomposed for every factor."""
    from hoalg.graded import koszul_sign, lin_acc, unshuffles
    from hoalg.hodge import _restrict_to_hom
    k = len(word)
    degs = [cartan.L.space.degree[w] - 1 for w in word]
    acc = {}
    for sigma in unshuffles(*([head] + [1] * (k - head))):
        perm = [word[s - 1] for s in sigma]
        cur = pkg.iota
        for x in reversed(perm[head:]):
            cur = pkg.h.compose(cartan.l[x]).compose(cur)
        for x in reversed(perm[:head]):
            cur = cartan.i[x].compose(cur)
        cur = pkg.pi.compose(cur)
        lin_acc(acc, _restrict_to_hom(cur.entries, w_names, a_names), koszul_sign(sigma, degs))
    return acc


def _reference_minimal_taylor(pkg, cartan, source, small, max_weight):
    from hoalg.graded import MultilinearMap, lin_acc
    hw = pkg.harmonic_names()
    top = [x for x in hw if pkg.H.bidegree[x][0] >= pkg.n]
    low = [x for x in hw if pkg.H.bidegree[x][0] < pkg.n]
    taylor = {}
    for k in range(1, max_weight + 1):
        pk = MultilinearMap(source.space, small, 0, k, SYMMETRIC)
        for word in source.basis_words(k):
            acc = {}
            for j in range(1, k + 1):
                lin_acc(acc, _reference_contraction_sum(pkg, cartan, word, j, top, low))
            if acc:
                pk.add_entry(word, acc)
        if not pk.is_zero():
            taylor[k] = pk
    return taylor


def _reference_yukawa_fiber(pkg, cartan, max_weight):
    """The fiber components {(k, word): vec} of the Yukawa brackets."""
    from hoalg.graded import prefix_vector
    hw = pkg.harmonic_names()
    top = [x for x in hw if pkg.H.bidegree[x][0] == pkg.n]
    bottom = [x for x in hw if pkg.H.bidegree[x][0] == 0]
    base = decalage_dgla(cartan.L, max_weight)
    out = {}
    for k in range(pkg.n, max_weight + 1):
        for word in base.basis_words(k):
            fib = _reference_contraction_sum(pkg, cartan, word, pkg.n, top, bottom)
            if fib:
                out[k, tuple(A_PRE + w for w in word)] = prefix_vector(fib, B_PRE)
    return out


def _reference_derived_q2(V, d, w_names, a_names):
    """q2 entries of derived_hom_structure as P([d, f1] o f2), with one
    GradedMap.compose per pair of elementary hom maps."""
    from hoalg.graded import elementary_to_graded_map
    from hoalg.hodge import _restrict_to_hom
    hom = hom_space(a_names, w_names, V)
    realized = {n: elementary_to_graded_map(lin_single(n), hom, V, V, hom.degree[n])
                for n in hom.names}
    out = {}
    for n1 in hom.names:
        comm = d.commutator(realized[n1])
        for n2 in hom.names:
            vec = _restrict_to_hom(comm.compose(realized[n2]).entries, w_names, a_names)
            if vec:
                out[n1, n2] = vec
    return out


def _oracle_fixture(name):
    if name.startswith("torus"):
        return torus_package(int(name[-1]))
    if name.startswith("synthetic"):
        return synthetic_package(int(name[-1]))
    if name == "lambda021":
        cartan, fpd, _ = lambda_cartan_fixture(0, 2, 1)
    elif name == "lambda732":
        cartan, fpd, _ = lambda_cartan_fixture(7, 3, 2)
    else:
        cartan, fpd, _ = lambda_cartan_fixture(3, 3, 1, p=2)
    return None, cartan, fpd


def _entries(taylor):
    return {k: m.entries for k, m in taylor.items()}


@pytest.mark.parametrize("fixture,weight", [
    ("torus2", 3), ("synthetic0", 3), ("synthetic1", 3), ("synthetic2", 3),
    ("lambda021", 3), ("lambda331", 3), ("synthetic0", 4)])
def test_split_period_map_matches_reference_loops(fixture, weight):
    pkg, cartan, fpd = _oracle_fixture(fixture)
    Pi, target = split_period_map(fpd, max_weight=weight)
    ref = _reference_split_taylor(fpd, Pi.source, target.space, weight)
    assert Pi.taylor and _entries(Pi.taylor) == _entries(ref)


@pytest.mark.parametrize("fixture,weight", [
    ("torus2", 3), ("synthetic0", 3), ("synthetic1", 3), ("synthetic2", 3),
    ("synthetic0", 4)])
def test_minimal_period_map_and_yukawa_match_reference_loops(fixture, weight):
    pkg, cartan, fpd = _oracle_fixture(fixture)
    P = minimal_period_map(pkg, cartan, max_weight=weight)
    ref = _reference_minimal_taylor(pkg, cartan, P.source, P.target.space, weight)
    assert P.taylor and _entries(P.taylor) == _entries(ref)
    Y = yukawa_model(pkg, cartan, max_weight=weight)
    fib = {(k, word): {t: c for t, c in vec.items() if t.startswith(B_PRE)}
           for k, q in Y.taylor.items() for word, vec in q.entries.items()}
    fib = {key: vec for key, vec in fib.items() if vec}
    assert fib == _reference_yukawa_fiber(pkg, cartan, weight)


@pytest.mark.parametrize("fixture", [
    "torus2", "synthetic0", "synthetic1", "synthetic2", "lambda021", "lambda331"])
def test_derived_hom_q2_matches_composed_reference(fixture):
    _, cartan, fpd = _oracle_fixture(fixture)
    args = (cartan.V, cartan.d_V, fpd.w_names, fpd.a_names)
    q2 = derived_hom_structure(*args).taylor.get(2)
    ref = _reference_derived_q2(*args)
    assert (q2.entries if q2 is not None else {}) == ref
    assert bool(ref) == (fixture not in ("torus2", "lambda021"))


TARGET_FIXTURES = ["synthetic:%d" % n for n in range(24)] + \
    ["lambda:%d:%d" % (n, p) for n in range(20) for p in (1, 2)] + \
    ["torus:%d" % n for n in (1, 2, 3)]


def _typed(taylor) -> dict:
    return {k: {w: {y: (c, type(c)) for y, c in vec.items()} for w, vec in m.entries.items()}
            for k, m in taylor.items()}


@pytest.mark.parametrize("ref", TARGET_FIXTURES)
def test_split_target_is_the_symmetrized_tensor_structure(ref):
    """split_period_map builds its target in S(V), reading each tensor q2
    entry (e1, e2) through merge_words((e1,), (e2,)).  It must equal the
    test-only reference symmetrize_structure(derived_hom_structure(..)),
    entry for entry and coefficient type for type, at weights 2 to 5.

    This test and the perfbench digests are the only guards on the target's
    q2: check_morphism(Pi) does not see it, and it passed on each of 36
    single-entry bumps of that q2 on synthetic:0-5."""
    kind, n, *p = ref.split(":")
    if kind == "lambda":
        fpd = lambda_cartan_fixture(int(n), 2, 1, int(p[0]))[1]
    else:
        fpd = (synthetic_package if kind == "synthetic" else torus_package)(int(n))[2]
    c = fpd.cartan
    for weight in range(2, 6):
        _, target = split_period_map(fpd, max_weight=weight)
        want = symmetrize_structure(
            derived_hom_structure(c.V, c.d_V, fpd.w_names, fpd.a_names, weight))
        assert (target.flavor, target.max_weight) == (SYMMETRIC, weight)
        assert target.space == want.space and _typed(target.taylor) == _typed(want.taylor)
        assert (2 in target.taylor) == (kind == "synthetic")


HOM_EXAMPLES = ["torus:%d" % n for n in (1, 2, 3)] + \
    ["synthetic:%d" % n for n in range(6)] + ["lambda:%d" % n for n in range(3)]


@pytest.mark.parametrize("ref", HOM_EXAMPLES)
def test_derived_hom_structure_matches_commutator_oracle(ref):
    # the pushed structure against one GradedMap commutator per elementary
    # map, both on the period splitting and on hom_transfer_contraction's
    # input (the package complex split at A^{>=n})
    pkg, cartan, fpd = _example_period_data(ref)
    inputs = [(cartan.V, cartan.d_V, fpd.w_names, fpd.a_names)]
    if pkg is not None:
        inputs.append((pkg.A, pkg.d, pkg.a_names(lambda bp, bq: bp >= pkg.n),
                       pkg.a_names(lambda bp, bq: bp < pkg.n)))
    sizes = []
    for args in inputs:
        got = _entries(derived_hom_structure(*args, max_weight=3).taylor)
        assert got == _entries(pull_derived_hom_structure(*args, max_weight=3).taylor)
        sizes.append(tuple(len(got.get(k, {})) for k in (1, 2)))
    if ref == "synthetic:0":
        assert sizes[0] == (7, 30)
    if ref.startswith("torus"):
        assert sizes[0] == (0, 0)


def test_graded_space_equality_is_by_value():
    basis = [("a", 1, (1, 0)), ("b", 2, (1, 1)), ("c", 0)]
    U, V = GradedSpace(basis), GradedSpace(list(basis))
    assert U is not V and U == V and hash(U) == hash(V)
    assert U.data() == V.data() == tuple(basis[:2]) + (("c", 0, None),)
    assert U != GradedSpace([("a", 1, (1, 0)), ("b", 3, (1, 2)), ("c", 0)])
    assert U != GradedSpace([("a", 1, (0, 1)), ("b", 2, (1, 1)), ("c", 0)])
    assert U != GradedSpace([("a", 1), ("b", 2, (1, 1)), ("c", 0)])
    assert U != U.data()


# The sub-word builders against the k!-ordering pull builders they replaced:
# (fixture, weight, the letters its nonzero words exercise).  The torus and
# lambda draws have odd letters in L[1], and the synthetic ones words that
# repeat an even letter, so both the Koszul sign and the multiplicity weight
# of a cut are covered.  torus3 reaches words of three letters, and
# lambda021 (W = A^{>=2}, not all of V) a walk that reaches rows outside W.
PULL_FIXTURES = [
    ("torus2", 4, "odd"), ("torus3", 3, "odd"), ("lambda021", 4, "odd"),
    ("lambda331", 3, "odd"), ("lambda732", 3, "odd"),
    ("synthetic0", 4, "repeated even"), ("synthetic1", 4, "repeated even"),
    ("synthetic2", 4, "repeated even"),
]


@pytest.mark.parametrize("fixture,weight,letters", PULL_FIXTURES,
                         ids=["%s-%d" % case[:2] for case in PULL_FIXTURES])
def test_builders_match_pull_oracles(fixture, weight, letters):
    pkg, cartan, fpd = _oracle_fixture(fixture)
    Pi, target = split_period_map(fpd, max_weight=weight)
    ref, _ = pull_split_period_map(fpd, max_weight=weight)
    assert Pi.taylor and _entries(Pi.taylor) == _entries(ref.taylor)
    # the target is the pulled derived-hom structure, symmetrized
    c = fpd.cartan
    pulled = pull_derived_hom_structure(c.V, c.d_V, fpd.w_names, fpd.a_names, weight)
    sym = {k: pull_symmetrized(q).entries for k, q in pulled.taylor.items()}
    assert target.flavor == SYMMETRIC and _entries(target.taylor) == \
        {k: e for k, e in sym.items() if e}
    words = {w for f in Pi.taylor.values() for w in f.entries}
    if pkg is not None:
        P = minimal_period_map(pkg, cartan, max_weight=weight)
        assert _entries(P.taylor) == _entries(pull_minimal_period_map(pkg, cartan, weight).taylor)
        Y = yukawa_model(pkg, cartan, max_weight=weight)
        assert _entries(Y.taylor) == _entries(pull_yukawa_model(pkg, cartan, weight).taylor)
        words |= {w for f in P.taylor.values() for w in f.entries}
    deg = Pi.source.space.degree
    if letters == "odd":
        assert any(deg[x] % 2 for w in words for x in w)
    else:
        assert any(x == y and deg[x] % 2 == 0 for w in words for x, y in zip(w, w[1:]))


def _split_bumps(example, weight):
    """(k, word, name, unwritten) for each planted bump of the split map:
    f_k(word)[name] raised by 1, for the first name f_k(word) writes and for
    every name of the target's degree there that no coefficient writes."""
    F, target = split_period_map(_example_period_data(example)[2], max_weight=weight)
    written = set().union(*(v for f in F.taylor.values() for v in f.entries.values()))
    sdeg, tdeg = F.source.space.degree, target.space.degree
    for k, f in sorted(F.taylor.items()):
        for word, vec in sorted(f.entries.items()):
            want = sum(sdeg[x] for x in word)
            for y in [min(vec)] + [y for y in target.space.names
                                   if y not in written and tdeg[y] == want]:
                yield k, word, y, y not in written


@pytest.mark.parametrize("example", ["lambda:1", "synthetic:0", "torus:2"])
def test_split_map_bumps_check_like_pull_oracle(example):
    # a bump to a name F never wrote makes the target's keys on that letter
    # live in check_morphism, which skips every key with an unwritten letter.
    # Each bump gets a fresh map, since the pull oracle memoizes F^j_k on it.
    fails = unwritten = 0
    for k, word, y, new in _split_bumps(example, 3):
        F, _ = split_period_map(_example_period_data(example)[2], max_weight=3)
        vec = dict(F.taylor[k].entries[word])
        vec[y] = vec.get(y, 0) + 1
        F.taylor[k].store({word: vec})
        got = check_morphism(F)
        assert got.lines() == pull_check_morphism(F).lines(), (k, word, y)
        fails += not got.ok
        unwritten += new
    assert unwritten
    if example == "lambda:1":
        assert fails        # lambda:1 exercises FQ = RF
    if example == "torus:2":
        assert not fails    # both structures are zero, so FQ = RF is vacuous


@pytest.mark.parametrize("weight", [2, 3, 4])
@pytest.mark.parametrize("fixture", ["torus2", "torus3", "synthetic0", "synthetic1",
                                     "synthetic2"])
def test_yukawa_v2_matches_pull_oracle(fixture, weight):
    # torus:3 (n = 3) is the one fixture whose i-chain lands in q_n, n > 2
    pkg, cartan, fpd = torus_package(3) if fixture == "torus3" else _oracle_fixture(fixture)
    Y = yukawa_model_v2(pkg, cartan, max_weight=weight)
    ref = pull_yukawa_model_v2(pkg, cartan, weight)
    assert _entries(Y.taylor) == _entries(ref.taylor)
    chains = {w for q in Y.taylor.values() for w in q.entries
              if len(w) == pkg.n and all(x.startswith(A_PRE) for x in w)}
    assert bool(chains) == (pkg.n <= weight), (fixture, weight)


@pytest.mark.parametrize("fixture", ["torus2", "synthetic0", "synthetic1"])
def test_yukawa_v2_stores_no_arity_above_max_weight(fixture):
    # both models truncate at max_weight, as OoStructure says; the i-chain
    # of v2 lands in q2 from max_weight 2 on
    pkg, cartan, fpd = _oracle_fixture(fixture)
    assert set(yukawa_model_v2(pkg, cartan, max_weight=1).taylor) <= {1}
    assert set(yukawa_model(pkg, cartan, max_weight=1).taylor) <= {1}
    assert 2 in yukawa_model_v2(pkg, cartan, max_weight=2).taylor


@pytest.mark.parametrize("seed", range(3))
def test_harmonic_quasi_inverse_matches_pull_oracle(seed):
    # the symmetrized hom structure has odd letters and repeated even ones
    pkg, cartan, fpd = synthetic_package(seed)
    big, contr = hom_transfer_contraction(pkg, pkg.n, max_weight=3)
    source = symmetrize_structure(big)
    G = harmonic_quasi_inverse(pkg, pkg.n, source, max_weight=3)
    ref = pull_harmonic_quasi_inverse(pkg, pkg.n, source, max_weight=3)
    assert len(G.taylor) == 3 and _entries(G.taylor) == _entries(ref.taylor)
    deg = source.space.degree
    assert any(deg[x] % 2 for f in G.taylor.values() for w in f.entries for x in w)


# Vector pushes of graded's walk per builder: case -> (fixture, weight, bound).
# The comments give the GradedMap.compose calls of the chain-per-term loops,
# of the suffix-memo builders, of the builder whose target q2 reads [d, f1]
# without composing, and of the sub-word builders pushed from their nonzero
# memo entries, then the pushes of the walk from W's basis vectors, which
# composes nothing.  Work per ordering makes at least one push per chain
# term it composed, so "split torus2 at 5" would fail its bound by more than
# two orders of magnitude.
PUSH_BOUNDS = {
    "split synthetic0": ("synthetic0", 4, 25),    # 7,056 -> 418 -> 163 -> 82 -> 21 pushes
    "split torus2": ("torus2", 3, 150),           # 13,537 -> 4,405 -> 2,005 -> 461 -> 134
    "split torus2 at 5": ("torus2", 5, 150),      # 125,069 -> 511 -> 134
    "minimal torus2": ("torus2", 3, 80),          # 5,225 -> 1,773 -> 112 -> 68
    "yukawa torus2": ("torus2", 4, 60),           # 17,561 -> 4,131 -> 82 -> 50
}


@pytest.mark.parametrize("case", sorted(PUSH_BOUNDS))
def test_chain_builders_share_suffixes(case, monkeypatch):
    builder = case.split()[0]
    fixture, weight, bound = PUSH_BOUNDS[case]
    pkg, cartan, fpd = _oracle_fixture(fixture)
    pushes, compositions = _count_pushes(monkeypatch)
    if builder == "split":
        split_period_map(fpd, max_weight=weight)
    elif builder == "minimal":
        minimal_period_map(pkg, cartan, max_weight=weight)
    else:
        yukawa_model(pkg, cartan, max_weight=weight)
    assert compositions == [] and 0 < len(pushes) <= bound, len(pushes)
