"""Acceptance suite: one test per criterion, exact (zero-tolerance) arithmetic.

Each test prints `ACCEPTANCE <n>: PASS <summary>` when it completes; run with
`pytest tests/test_acceptance.py -v -s` to see the lines.
"""

from __future__ import annotations

import io
import time
from contextlib import redirect_stdout
from fractions import Fraction
from math import factorial

import pytest

from hoalg.coalg import (
    OoMorphism, check_morphism, check_structure, compose_morphisms,
    decalage_dga, decalage_dgla, decalage_dgla_morphism,
    end_preserving_sub_dgla, symmetrize_morphism, symmetrize_structure,
)
from hoalg.cocone import (
    A_PRE, B_PRE, CoderAction, Splitting, derived_products_model, exp_log_isos,
    fiber_product_model, fm_cocone_assoc, fm_cocone_lie,
    semidirect_product, voronov_brackets,
)
from hoalg.fixtures import (
    end_splitting, harmonic_contraction, lambda_cartan_fixture, random_dga_morphism,
    random_end_dga, random_filtered_inclusion,
)
from fixture_helpers import is_strict, random_artin_element
from hoalg.graded import GradedMap, check_contraction, lin_single
from hoalg.hodge import (
    harmonic_quasi_inverse, hom_transfer_contraction, integrability_identity,
    minimal_period_map, perturbation_maps, psi_obstruction,
    split_period_coefficient_closed, split_period_map,
    strict_period_morphism, synthetic_package, torus_package,
    yukawa_mc_fiber_residual, yukawa_model, yukawa_model_v2,
)
from hoalg.mc import (
    ArtinElement, ArtinRing, cocone_mc_correspondence, gauge_act, mc_check,
    mc_f_check,
)
from hoalg.transfer import transfer_quasi_inverse, transfer_structure

from powerseries import phi_compose_coefficients
from pull_oracles import split_period_coefficient


def _announce(n, text):
    print("ACCEPTANCE %d: PASS %s" % (n, text))


def test_acceptance_1_structure_equations():
    """Every construction passes the structure check at weight 4 on >= 20
    seeded fixtures each, dims <= 4, within the time budget."""
    t0 = time.time()
    counts = {}
    for seed in range(20):
        _, _, inc = random_filtered_inclusion(seed, 2)
        assert check_structure(fm_cocone_lie(inc, max_weight=4)).ok, seed
        counts["fm_cocone_lie"] = counts.get("fm_cocone_lie", 0) + 1

        m = random_dga_morphism(seed, 2)
        assert check_structure(fm_cocone_assoc(m, max_weight=4)).ok, seed
        counts["fm_cocone_assoc"] = counts.get("fm_cocone_assoc", 0) + 1

        V, d, M, comp, stable = end_splitting(seed, 2)
        split = Splitting(M, comp)
        phi, action = voronov_brackets(split, max_weight=4)
        assert check_structure(phi).ok, seed
        counts["voronov_brackets"] = counts.get("voronov_brackets", 0) + 1

        Mdec = decalage_dgla(M, max_weight=4)
        act = CoderAction(Mdec.space, phi.space)
        for (j, k), table in action.comps.items():
            for (mt, it), vec in table.items():
                act.set(mt, it, vec)
        sd = semidirect_product(phi, Mdec, act, max_weight=4, validate=False)
        assert check_structure(sd).ok, seed
        counts["semidirect_product"] = counts.get("semidirect_product", 0) + 1

        sub, _, inc2 = end_preserving_sub_dgla(V, d, stable)
        F = decalage_dgla_morphism(inc2, max_weight=4, target=Mdec)
        fp = fiber_product_model(sub, split, F, max_weight=4)
        assert check_structure(fp).ok, seed
        counts["fiber_product_model"] = counts.get("fiber_product_model", 0) + 1

        pkg, cartan, fpd = synthetic_package(seed)
        assert check_structure(yukawa_model(pkg, cartan, max_weight=4)).ok, seed
        counts["yukawa_model"] = counts.get("yukawa_model", 0) + 1
        assert check_structure(yukawa_model_v2(pkg, cartan, max_weight=4)).ok, seed
        counts["yukawa_model_v2"] = counts.get("yukawa_model_v2", 0) + 1
    elapsed = time.time() - t0
    assert all(v >= 20 for v in counts.values())
    assert elapsed < 60, "sweep took %.1fs" % elapsed
    _announce(1, "7 constructions x 20 fixtures at weight 4 in %.1fs" % elapsed)


def _is_identity(comp):
    one = comp.taylor.get(1)
    for nm in comp.source.space.names:
        if one is None or one.value((nm,)) != {nm: Fraction(1)}:
            return False
    return all(k == 1 or comp.taylor[k].is_zero() for k in comp.taylor)


def test_acceptance_2_exp_log_suite():
    """E.L = L.E = Id and both morphisms at weight <= 5; C_{i,j} closed forms
    for i + j <= 6 from the exact series expansion."""
    from test_cocone import truncated_polynomial_dga
    from hoalg.coalg import DgaMorphism
    A = truncated_polynomial_dga(4)
    fixtures = [DgaMorphism(A, A, GradedMap.identity(A.space)),
                random_dga_morphism(1, 2)]
    for f in fixtures:
        E, L = exp_log_isos(f, max_weight=5)
        assert check_morphism(E, max_weight=5).ok
        assert check_morphism(L, max_weight=5).ok
        assert _is_identity(compose_morphisms(E, L, max_weight=5))
        assert _is_identity(compose_morphisms(L, E, max_weight=5))
    C = phi_compose_coefficients(8)
    checked = 0
    for i in range(7):
        for j in range(7 - i):
            if i + j == 0:
                continue
            want = Fraction((-1) ** (j + 1), j + 1) if i == 0 else \
                Fraction((-1) ** (i + j + 1), i + j + 1) + \
                Fraction((-1) ** (i + j), i + j)
            assert C.get((i, j), Fraction(0)) == want, (i, j)
            checked += 1
    _announce(2, "weight-5 inverse pair on 2 fixtures; %d series coefficients"
              % checked)


def test_acceptance_3_derived_products_suite():
    """Derived-product structure, both commuting triangles, and the partition
    identity for i <= 8, all exact."""
    for seed in (0, 1):
        V, d, A, comp, stable = end_splitting(seed, lie=False)
        split = Splitting(A, comp)
        dp = derived_products_model(split, max_weight=4)
        assert check_contraction(dp.contraction).ok
        assert check_structure(dp.structure).ok
        for mor in (dp.F_as, dp.G_as, dp.F_inf, dp.G_inf):
            assert check_morphism(mor).ok
        E, L = exp_log_isos(dp.inclusion, max_weight=4)
        lhs = compose_morphisms(L, dp.F_as)
        assert all(lhs.taylor.get(k) == dp.F_inf.taylor.get(k)
                   for k in set(lhs.taylor) | set(dp.F_inf.taylor))
        rhs = compose_morphisms(dp.G_as, E)
        assert all(rhs.taylor.get(k) == dp.G_inf.taylor.get(k)
                   for k in set(rhs.taylor) | set(dp.G_inf.taylor))
    # sum over compositions of i of (-1)^{p+i}/prod h! is 1/i!
    assert all(split_period_coefficient(i, 0) == 1 for i in range(1, 9))
    _announce(3, "triangles on 2 splittings; partition identity i <= 8")


def test_acceptance_4_transfer_suite():
    """Transferred structures and morphisms pass; G.F = Id at weight <= 4;
    transfer commutes with symmetrization at weight <= 4."""
    done = 0
    for seed in range(4):
        big = decalage_dga(random_end_dga(seed, 2), max_weight=4)
        d = GradedMap(big.space, big.space, 1)
        if 1 in big.taylor:
            for (nm,), vec in big.taylor[1].entries.items():
                d.set(nm, vec)
        c = harmonic_contraction(big.space, d)
        small, F = transfer_structure(big, c, max_weight=4)
        assert check_structure(small).ok
        assert check_morphism(F).ok
        G = transfer_quasi_inverse(big, c, F, max_weight=4)
        comp = compose_morphisms(G, F, max_weight=4)
        if small.space.dim:
            assert _is_identity(comp)
        sym_small, sym_F = transfer_structure(symmetrize_structure(big), c,
                                              max_weight=4)
        sym_of = symmetrize_structure(small)
        assert all(sym_small.taylor.get(k) == sym_of.taylor.get(k)
                   for k in set(sym_small.taylor) | set(sym_of.taylor))
        symF_of = symmetrize_morphism(F, sym_source=sym_small,
                                      sym_target=symmetrize_structure(big))
        assert all(sym_F.taylor.get(k) == symF_of.taylor.get(k)
                   for k in set(sym_F.taylor) | set(symF_of.taylor))
        done += 1
    _announce(4, "%d transfers with quasi-inverse and symmetrization" % done)


def test_acceptance_5_cocone_mc_correspondence():
    """(x, m) Maurer-Cartan in the cocone iff (x, e^m) in the two-equation
    set, over Q[t1,t2]/m^3 and Q[t]/t^4, >= 10 fixtures, independently."""
    rings = [ArtinRing(2, 3), ArtinRing(1, 4)]
    agree = 0
    true_members = 0
    for seed in range(12):
        sub, amb, inc = random_filtered_inclusion(seed % 4, 2)
        ring = rings[seed % 2]
        x = random_artin_element(seed + 100, ring, sub.space, 1, density=0.4)
        m = random_artin_element(seed + 200, ring, amb.space, 0, density=0.4)
        rep = cocone_mc_correspondence(inc, x, m)
        ok = [c for c in rep.checks if c["label"] == "memberships agree"]
        assert ok and ok[0]["ok"], seed
        agree += 1
        # engineered true member: x = e^a * 0, m = -a
        a = random_artin_element(seed + 300, ring, sub.space, 0, density=0.5)
        x2 = gauge_act(sub, a, ArtinElement(ring, sub.space))
        a_amb = ArtinElement(ring, amb.space, dict(a.terms))
        assert mc_f_check(inc, x2, a_amb.scaled(-1)).ok
        rep2 = cocone_mc_correspondence(inc, x2, a_amb.scaled(-1))
        assert rep2.ok, seed
        true_members += 1
    _announce(5, "%d random + %d engineered-member fixtures over two rings"
              % (agree, true_members))


def test_acceptance_6_hodge_identity_suite():
    """Lemma-1.1(2) operator identity, the perturbation maps with all their
    identities, and the chain-iso statement, over rings with N <= 4."""
    cases = 0
    for seed in range(3):
        pkg, cartan, fpd = synthetic_package(seed)
        for ring in (ArtinRing(1, 4), ArtinRing(2, 3)):
            xi = ArtinElement(ring, cartan.L.space)
            mono = tuple([1] + [0] * (ring.generators - 1))
            xi.add("x1", mono, Fraction(1))
            xi.add("x2", mono, Fraction(-2))
            assert integrability_identity(cartan, xi).ok
            _, _, _, _, rep = perturbation_maps(pkg, cartan, xi)
            assert rep.ok, (seed, ring)
            cases += 1
    pkg, cartan, fpd = torus_package(2)
    ring = ArtinRing(1, 3)
    xi = ArtinElement(ring, cartan.L.space)
    xi.add("t1b1", (1,), Fraction(1))
    assert integrability_identity(cartan, xi).ok
    _, _, _, _, rep = perturbation_maps(pkg, cartan, xi)
    assert rep.ok
    cases += 1
    _announce(6, "%d (package, ring) cases, all identities exact" % cases)


def test_acceptance_7_period_map_suite():
    """Strict period morphisms on generic Cartan fixtures; the two-route
    splitting coefficient table for k <= 5; trivial transferred brackets;
    minimal map equals the composite at weight <= 3."""
    # strict period morphisms: synthetic (non-flat), lambda (non-abelian)
    pkg0, cartan0, fpd0 = synthetic_package(0)
    F, _ = strict_period_morphism(fpd0, max_weight=3)
    assert is_strict(F) and check_morphism(F).ok
    cartan1, fpd1, _ = lambda_cartan_fixture(0, 3, 0)
    assert not cartan1.L.bracket.is_zero()
    F1, _ = strict_period_morphism(fpd1, max_weight=2)
    assert check_morphism(F1).ok
    # Example-7.4 coefficients two ways
    pairs = 0
    for k in range(1, 6):
        for j in range(0, k):
            assert split_period_coefficient(k, j) == \
                split_period_coefficient_closed(k, j), (k, j)
            pairs += 1
    # harmonic transfer: transferred brackets vanish
    for fixture in (torus_package(2), synthetic_package(1)):
        pkg, cartan, fpd = fixture
        big, contr = hom_transfer_contraction(pkg, pkg.n, max_weight=3)
        small, _ = transfer_structure(big, contr, max_weight=3)
        assert not small.taylor
    # minimal map equals the composite G o Pi at weight <= 3
    for fixture in (torus_package(2), synthetic_package(2)):
        pkg, cartan, fpd = fixture
        P = minimal_period_map(pkg, cartan, max_weight=3)
        assert check_morphism(P, max_weight=3).ok
        Pi, target = split_period_map(fpd, max_weight=3)
        assert check_morphism(Pi, max_weight=3).ok
        big, contr = hom_transfer_contraction(pkg, pkg.n, max_weight=3)
        G = harmonic_quasi_inverse(pkg, pkg.n, symmetrize_structure(big),
                                   max_weight=3)
        comp = compose_morphisms(G, Pi, max_weight=3)
        assert all(comp.taylor.get(k) == P.taylor.get(k)
                   for k in set(comp.taylor) | set(P.taylor))
    _announce(7, "strict morphisms, %d coefficient pairs, trivial transfer, "
              "minimal = composite" % pairs)


def test_acceptance_8_yukawa_consistency():
    """The fiber Maurer-Cartan residual equals the obstruction-map value on
    the torus over Q[t]/t^3; the model agrees with the generic fiber product
    bracket-by-bracket at weight <= 4."""
    from test_hodge import yukawa_from_fiber_product
    pkg, cartan, fpd = torus_package(2)
    ring = ArtinRing(1, 3)
    y1 = yukawa_model(pkg, cartan, max_weight=4)
    xi = ArtinElement(ring, cartan.L.space)
    xi.add("t1b1", (1,), Fraction(1))
    xi.add("t2b2", (1,), Fraction(1))
    res = yukawa_mc_fiber_residual(y1, xi)
    psi = psi_obstruction(pkg, cartan, xi, ArtinElement(ring, cartan.L.space))
    translated = {}
    for m, gm in psi.coeffs.items():
        for s, img in gm.entries.items():
            for t, c in img.items():
                translated[(B_PRE + "%s<-%s" % (t, s), m)] = c / factorial(pkg.n)
    assert translated == res.terms and not res.is_zero()
    compared = 0
    for fixture in (torus_package(2), synthetic_package(0)):
        pkg, cartan, fpd = fixture
        y1 = yukawa_model(pkg, cartan, max_weight=4)
        fp = yukawa_from_fiber_product(pkg, cartan, max_weight=4)

        def translate(word):
            return tuple((A_PRE + w[2:]) if w.startswith(B_PRE)
                         else (B_PRE + w[2:]) for w in word)
        for k in set(y1.taylor) | set(fp.taylor):
            qy, qf = y1.taylor.get(k), fp.taylor.get(k)
            words = set(qy.entries if qy else {}) | \
                {tuple(sorted(translate(w), key=y1.space.index.get))
                 for w in (qf.entries if qf else {})}
            for word in words:
                a = qy.value(word) if qy else {}
                b = qf.value(translate(word)) if qf else {}
                assert a == {translate((t,))[0]: c for t, c in b.items()}, (k, word)
                compared += 1
    _announce(8, "residual = obstruction/n! on the torus; %d bracket entries "
              "match the generic model" % compared)


def test_acceptance_9_determinism():
    """CLI invocations are byte-identical across runs."""
    from hoalg.cli import run as cli_run
    for argv in (["--max-weight", "3", "--artin", "1,3", "yukawa", "v1",
                  "--example", "torus:2", "mc"],
                 ["--max-weight", "4", "cocone", "explog", "--example", "r:0"],
                 ["example", "torus", "--n", "2"],
                 ["--max-weight", "3", "verify", "cartan",
                  "--example", "synthetic:3"]):
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli_run(list(argv))
            outs.append((code, buf.getvalue()))
        assert outs[0] == outs[1], argv
    _announce(9, "4 CLI invocations byte-identical")
