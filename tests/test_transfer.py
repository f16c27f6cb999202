from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hoalg.coalg import (
    DgAlgebra, OoMorphism, OoStructure, check_morphism, check_structure, compose_morphisms,
    decalage_dga, end_dga, symmetrize_morphism, symmetrize_structure,
)
from hoalg.cocone import Splitting, derived_products_model
from hoalg.fixtures import (
    _rand_coeff, end_splitting, harmonic_contraction, random_complex, random_end_dga,
)
from hoalg.graded import (
    Contraction, GradedMap, GradedSpace, MultilinearMap, RejectedInput, TENSOR,
    UnsupportedOperation, check_contraction, lin_single, map_right_inverse,
    multilinear_from_graded_map,
)
from hoalg.transfer import transfer_quasi_inverse, transfer_structure
from fixture_helpers import dense_harmonic_contraction, filiform_dga
from pull_oracles import pull_transfer_quasi_inverse, pull_transfer_structure


def q1_as_map(big):
    """Read the arity-1 Taylor coefficient back as the big differential."""
    q1 = big.taylor.get(1)
    d = GradedMap(big.space, big.space, 1)
    if q1 is not None:
        for (n,), vec in q1.entries.items():
            d.set(n, vec)
    return d


def _identity_contraction(big, d_big):
    sp = big.space
    return Contraction(sp, d_big, sp, d_big, GradedMap.identity(sp), GradedMap.identity(sp),
                       GradedMap.zero(sp, sp, -1))


def test_trivial_contraction_transfers_identically():
    big = decalage_dga(random_end_dga(0, 2), max_weight=4)
    c = _identity_contraction(big, q1_as_map(big))
    small, F = transfer_structure(big, c)
    for k, q in big.taylor.items():
        assert small.taylor.get(k) == q
    for k in range(2, 5):
        assert F.taylor.get(k) is None
    G = transfer_quasi_inverse(big, c, F)
    comp = compose_morphisms(G, F)
    for k in range(2, 5):
        assert comp.taylor.get(k) is None or comp.taylor[k].is_zero()


@pytest.mark.parametrize("case", ["q1 differs", "no q1, d nonzero", "no q1, d zero"])
def test_transfer_checks_q1_against_the_contraction_differential(case):
    # random_end_dga(2, 2) has a nonzero differential, random_end_dga(0, 2) none
    big = decalage_dga(random_end_dga(0 if case == "no q1, d zero" else 2, 2), max_weight=3)
    d_big = q1_as_map(big)
    taylor = dict(big.taylor)
    if case == "q1 differs":
        taylor[1] = multilinear_from_graded_map(d_big.scale(2), TENSOR)
    else:
        taylor.pop(1, None)
    structure = OoStructure(big.space, TENSOR, taylor, 3)
    c = _identity_contraction(big, d_big)
    if case == "no q1, d zero":
        small, F = transfer_structure(structure, c)
        assert 1 not in small.taylor and small.taylor[2] == big.taylor[2]
    else:
        with pytest.raises(RejectedInput, match="differs from the contraction differential"):
            transfer_structure(structure, c)
        with pytest.raises(RejectedInput, match="differs from the contraction differential"):
            transfer_quasi_inverse(structure, c, transfer_structure(big, c)[1])


def conjugated_complex(seed: int, dim: int):
    """A standard complex (seeded pairs d(c) = b, the other names harmonic)
    conjugated by a seeded unipotent change of basis within each degree, so
    that its differential, kernel and image are dense."""
    rng = random.Random("conjugated:%d" % seed)
    V = GradedSpace([("v%d" % i, rng.randint(0, 2)) for i in range(dim)])
    d = GradedMap(V, V, 1)
    used = set()
    for n in V.names:
        up = [m for m in V.names if m not in used and V.degree[m] == V.degree[n] + 1]
        if n not in used and up and rng.random() < 0.6:
            m = rng.choice(up)
            d.set(n, lin_single(m))
            used |= {n, m}
    U = GradedMap(V, V, 0, {n: {**{m: _rand_coeff(rng, 0.2) for m in V.names[:j]
                                   if V.degree[m] == V.degree[n]}, n: 1}
                            for j, n in enumerate(V.names)})
    return V, U.compose(d).compose(map_right_inverse(U))


def _contraction_inputs():
    for dim in range(1, 6):
        for seed in range(200):
            yield random_complex(seed, dim)
    for dim in range(1, 4):
        for seed in range(40):
            big = decalage_dga(random_end_dga(seed, dim), max_weight=1)
            yield big.space, q1_as_map(big)
    for dim in range(2, 9):
        for seed in range(100):
            yield conjugated_complex(seed, dim)


def _typed_entries(gm):
    return [(n, [(m, c, type(c)) for m, c in vec.items()]) for n, vec in gm.entries.items()]


def test_harmonic_contraction_matches_dense_reference():
    # the sparse forward elimination gives the dense reference's contraction:
    # the same harmonic basis (unreduced where the dense one is, which the
    # conjugated complexes reach), every entry equal in value, int/Fraction
    # type and order
    unreduced = 0
    for V, d in _contraction_inputs():
        c, ref = harmonic_contraction(V, d), dense_harmonic_contraction(V, d)
        assert c.small == ref.small and c.d_small == ref.d_small
        for got, want in [(c.inject, ref.inject), (c.project, ref.project),
                          (c.homotopy, ref.homotopy)]:
            assert _typed_entries(got) == _typed_entries(want)
        assert check_contraction(c).ok
        rows = {h: c.inject.value(h) for h in c.small.names}
        pivots = {h: min(row, key=V.index.__getitem__) for h, row in rows.items()}
        unreduced += any(pivots[g] in row for h, row in rows.items() for g in rows if g != h)
    assert unreduced >= 50


def test_single_term_recursion_hand_expandable():
    # big = DG algebra on an acyclic pair (e, de) and closed generators w, v
    # with w*w = v + de: transferred r2 = g1 q2 (f1 (x) f1) and f2 = K q2 (f1 (x) f1)
    sp = GradedSpace([("w", 0), ("v", 0), ("e", -1), ("de", 0)])
    d = GradedMap(sp, sp, 1)
    d.set("e", lin_single("de"))
    prod = MultilinearMap(sp, sp, 0, 2, TENSOR)
    prod.set_entry(("w", "w"), {"v": Fraction(1), "de": Fraction(1)})
    from hoalg.coalg import DgAlgebra
    A = DgAlgebra(sp, d, prod)
    assert A.check().ok
    big = decalage_dga(A, max_weight=3)
    bigd = q1_as_map(big)
    c = harmonic_contraction(big.space, bigd)
    small = c.small
    small_s, F = transfer_structure(big, c)
    # hand expansion on the harmonic generator h representing [w]
    h = next(n for n in small.names
             if c.inject.value(n).get("w"))
    want = c.project.apply(big.taylor[2].apply_vectors(
        [c.inject.value(h), c.inject.value(h)]))
    assert want  # the closed part v survives projection
    got = small_s.taylor[2].value((h, h)) if 2 in small_s.taylor else {}
    assert got == want
    # f2 = K q2 (f1 (x) f1): the exact part de pulls back to -e under K
    wantf = c.homotopy.apply(big.taylor[2].apply_vectors(
        [c.inject.value(h), c.inject.value(h)]))
    assert wantf
    gotf = F.taylor[2].value((h, h)) if 2 in F.taylor else {}
    assert gotf == wantf


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_transferred_structure_and_morphism_check(seed):
    big = decalage_dga(random_end_dga(seed, 2), max_weight=4)
    bigd = q1_as_map(big)
    c0 = harmonic_contraction(big.space, bigd)
    c = Contraction(c0.small, c0.d_small, big.space, bigd, c0.inject,
                    c0.project, c0.homotopy)
    small, F = transfer_structure(big, c)
    assert check_structure(small).ok
    assert check_morphism(F).ok
    G = transfer_quasi_inverse(big, c, F)
    assert check_morphism(G).ok
    comp = compose_morphisms(G, F)
    id1 = comp.taylor.get(1)
    for n in small.space.names:
        assert id1.value((n,)) == {n: Fraction(1)}
    for k in range(2, 5):
        assert comp.taylor.get(k) is None or comp.taylor[k].is_zero()


@pytest.mark.parametrize("seed", [0, 5])
def test_transfer_commutes_with_symmetrization(seed):
    big = decalage_dga(random_end_dga(seed, 2), max_weight=4)
    bigd = q1_as_map(big)
    c0 = harmonic_contraction(big.space, bigd)
    c = Contraction(c0.small, c0.d_small, big.space, bigd, c0.inject,
                    c0.project, c0.homotopy)
    small_a, F_a = transfer_structure(big, c)
    big_l = symmetrize_structure(big)
    small_l, F_l = transfer_structure(big_l, c)
    sym_small = symmetrize_structure(small_a)
    for k in set(small_l.taylor) | set(sym_small.taylor):
        assert small_l.taylor.get(k) == sym_small.taylor.get(k), k
    sym_F = symmetrize_morphism(F_a, sym_source=small_l, sym_target=big_l)
    for k in set(F_l.taylor) | set(sym_F.taylor):
        assert F_l.taylor.get(k) == sym_F.taylor.get(k), k


def massey_dga():
    """Closed a, b, c of degree 1 with ab = dx and bc = dy, so that xc + ay
    represents the Massey product <a, b, c>; z bounds it.  The transfer onto
    cohomology then has f_2(a, b) ~ K(ab) and f_3(a, b, c) ~ K(xc + ay)."""
    sp = GradedSpace([("a", 1), ("b", 1), ("c", 1), ("x", 1), ("y", 1), ("z", 1),
                      ("ab", 2), ("bc", 2), ("xc", 2), ("ay", 2), ("abc", 3)])
    d = GradedMap(sp, sp, 1)
    d.set("x", lin_single("ab"))
    d.set("y", lin_single("bc"))
    d.set("xc", lin_single("abc"))
    d.set("ay", lin_single("abc", -1))
    d.set("z", {"xc": Fraction(1), "ay": Fraction(1)})
    prod = MultilinearMap(sp, sp, 0, 2, TENSOR)
    for left, right in [("a", "b"), ("b", "c"), ("x", "c"), ("a", "y"),
                        ("ab", "c"), ("a", "bc")]:
        prod.set_entry((left, right), lin_single(left + right))
    A = DgAlgebra(sp, d, prod)
    assert A.check().ok
    return A


def entries_of(obj):
    return {k: t.entries for k, t in obj.taylor.items()}


def canonical_coefficients(*objs):
    stored = [c for obj in objs for t in obj.taylor.values()
              for vec in t.entries.values() for c in vec.values()]
    return stored and all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
                          for c in stored)


@pytest.mark.parametrize("symmetric", [False, True])
def test_transfer_memo_matches_fresh_morphism(symmetric):
    # transfer_structure grows F.taylor weight by weight while it pushes from
    # the supports of the lower weights: the structure and F equal the
    # word-by-word pull build (whose F^j_k memo is live while F grows)
    # coefficient for coefficient, with canonical coefficients only
    big = decalage_dga(massey_dga(), max_weight=5)
    c = harmonic_contraction(big.space, q1_as_map(big))
    if symmetric:
        big = symmetrize_structure(big)
    small, F = transfer_structure(big, c)
    assert F.max_weight == 5 and max(F.taylor) >= 3
    small_o, F_o = pull_transfer_structure(big, c)
    assert entries_of(small) == entries_of(small_o)
    assert entries_of(F) == entries_of(F_o)
    assert canonical_coefficients(small, F)


@pytest.mark.parametrize("case", [0, 3, "filiform:3", "filiform:4"])
def test_pushed_transfer_matches_pull_build(case):
    # transfer_structure and transfer_quasi_inverse against the word-by-word
    # pull builds (K_k expanded word by word) on derived-product cocones,
    # where the quasi-inverse has a coefficient in every arity up to 4, and
    # onto the cohomology of the filiform algebras n = 3 (Heisenberg) and 4,
    # where K_k's transpose grows f1 g1 tails
    if isinstance(case, int):
        _, _, ambient, comp, _ = end_splitting(case, lie=False)
        dp = derived_products_model(Splitting(ambient, comp), max_weight=4)
        big, c = dp.cocone_as, dp.contraction
    else:
        big = decalage_dga(filiform_dga(int(case.split(":")[1])), max_weight=4)
        c = harmonic_contraction(big.space, q1_as_map(big))
    small, F = transfer_structure(big, c)
    small_o, F_o = pull_transfer_structure(big, c)
    assert entries_of(small) == entries_of(small_o)
    assert entries_of(F) == entries_of(F_o)
    G = transfer_quasi_inverse(big, c, F)
    if isinstance(case, int):
        assert set(G.taylor) == {1, 2, 3, 4}
    else:
        assert 2 in G.taylor
    assert entries_of(G) == entries_of(pull_transfer_quasi_inverse(big, c, F))
    assert canonical_coefficients(small, F, G)
    assert check_morphism(G).ok


def test_quasi_inverse_rejects_symmetric_flavor():
    big = symmetrize_structure(decalage_dga(random_end_dga(0, 2), max_weight=3))
    sp = big.space
    d_big = GradedMap(sp, sp, 1)
    c = Contraction(sp, d_big, sp, d_big, GradedMap.identity(sp),
                    GradedMap.identity(sp), GradedMap.zero(sp, sp, -1))
    with pytest.raises(UnsupportedOperation):
        transfer_quasi_inverse(big, c, None)
