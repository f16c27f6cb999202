"""Canonical coefficients: every stored coefficient is an int when integral
and a Fraction (denominator > 1) otherwise, never a float; the sparse kernels
agree with plain Fraction arithmetic, and the rational solvers agree with
sympy on rectangular maps that mix ints and Fractions."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hoalg.coalg import (
    DgLieAlgebra, OoStructure, check_structure, decalage_dga, decalage_dgla,
    push_insertion, push_product,
)
from hoalg.cocone import fm_cocone_assoc, fm_cocone_lie
from hoalg.fixtures import (
    harmonic_contraction, random_dga_morphism, random_end_dga,
    random_filtered_inclusion,
)
from fixture_helpers import random_artin_element, random_end_dgla
from hoalg.graded import (
    Contraction, GradedMap, GradedSpace, MalformedInput, MultilinearMap, SYMMETRIC,
    TENSOR, exact, lin_acc, lin_add, lin_scale, lin_single, map_kernel_basis, map_right_inverse,
    map_solve, sym_normalize,
)
from hoalg.hodge import split_period_map, torus_package
from hoalg.mc import ArtinElement, ArtinMap, ArtinRing, gauge_act, mc_check
from hoalg.transfer import transfer_quasi_inverse, transfer_structure

COEFFS = st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=4))
NAMES = st.sampled_from("abcd")
VECS = st.dictionaries(NAMES, COEFFS, max_size=4)
VECS_WITH_ZEROS = st.dictionaries(NAMES, st.one_of(st.just(0), COEFFS), max_size=4)


def canonical(c) -> bool:
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def as_fractions(vec: dict) -> dict:
    return {n: Fraction(c) for n, c in vec.items() if c}


def as_exact(vec: dict) -> dict:
    return {n: exact(c) for n, c in vec.items() if c}


def assert_canonical(vec: dict):
    bad = {n: c for n, c in vec.items() if not c or not canonical(c)}
    assert bad == {}


# --- the kernels against plain Fraction arithmetic --------------------------------

@settings(max_examples=200, deadline=None)
@given(COEFFS)
def test_exact_is_the_canonical_form(c):
    got = exact(c)
    assert canonical(got) and got == Fraction(c) and hash(got) == hash(Fraction(c))
    assert str(got) == str(Fraction(c))
    assert exact(got) is got


def test_exact_rejects_floats_and_reads_other_rationals():
    with pytest.raises(MalformedInput):
        exact(0.5)
    with pytest.raises(MalformedInput):
        lin_acc({"a": 1}, {"a": 0.5})
    assert exact(True) == 1 and type(exact(True)) is int
    assert exact("6/4") == Fraction(3, 2)
    assert type(exact(Fraction(4, 2))) is int


@settings(max_examples=150, deadline=None)
@given(VECS, VECS_WITH_ZEROS, COEFFS)
@example({}, {"a": 0}, 1)
def test_lin_acc_matches_fraction_arithmetic(acc, vec, coeff):
    # vec may hold explicit zeros, also on names the accumulator lacks
    want = {n: Fraction(acc.get(n, 0)) + Fraction(coeff) * Fraction(vec.get(n, 0))
            for n in set(acc) | set(vec)}
    got = lin_acc(as_exact(acc), {n: Fraction(c) for n, c in vec.items()}, coeff)
    assert got == {n: c for n, c in want.items() if c}
    assert_canonical(got)


@settings(max_examples=150, deadline=None)
@given(VECS, NAMES, COEFFS)
def test_lin_add_scale_single_match_fraction_arithmetic(vec, key, coeff):
    base = as_fractions(vec)
    got = lin_add(as_exact(vec), key, coeff)
    want = dict(base)
    want[key] = want.get(key, Fraction(0)) + Fraction(coeff)
    assert got == {n: c for n, c in want.items() if c}
    assert_canonical(got)
    scaled = lin_scale(base, coeff)
    assert scaled == {n: Fraction(coeff) * c for n, c in base.items() if coeff}
    assert_canonical(scaled)
    single = lin_single(key, coeff)
    assert single == ({key: Fraction(coeff)} if coeff else {})
    assert_canonical(single)


SPACE = GradedSpace([("a", 0), ("b", 0), ("c", 1), ("d", 1)])


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.sampled_from("ab"), COEFFS, max_size=2), st.data())
def test_set_and_set_entry_store_canonical_values(vec, data):
    gm = GradedMap(SPACE, SPACE, 0)
    gm.set("a", vec)
    assert gm.value("a") == as_fractions(vec)
    assert_canonical(gm.value("a"))
    # a symmetric word of two odd letters lands in degree 2: read into "a" and
    # "b" of a target shifted to match, so the stored sign is exercised
    target = SPACE.shifted(-2)
    q = MultilinearMap(SPACE, target, 0, 2, SYMMETRIC)
    word = data.draw(st.sampled_from([("c", "d"), ("d", "c")]))
    q.set_entry(word, vec)
    key, sign = sym_normalize(word, SPACE.index, SPACE.degree)
    assert q.entries.get(key, {}) == {n: sign * c for n, c in as_fractions(vec).items()}
    assert_canonical(q.entries.get(key, {}))
    with pytest.raises(MalformedInput):
        gm.set("b", {"a": 1.0})
    with pytest.raises(MalformedInput):
        q.set_entry(word, {"a": 0.0})


# --- rational solvers against sympy ---------------------------------------------

@st.composite
def _rectangular_maps(draw):
    """A degree-1 GradedMap between spaces of mixed degrees: each block, from
    the source names of one degree into the target names one above, is
    rectangular of any shape, empty on either side included."""
    src = GradedSpace([("s%d" % i, draw(st.integers(0, 1))) for i in range(draw(st.integers(1, 6)))])
    tgt = GradedSpace([("t%d" % i, draw(st.integers(1, 2))) for i in range(draw(st.integers(1, 6)))])
    gm = GradedMap(src, tgt, 1)
    for n in src.names:
        gm.set(n, {t: draw(st.one_of(st.just(0), COEFFS)) for t in tgt.names
                   if tgt.degree[t] == src.degree[n] + 1})
    return gm


def _to_sympy(sympy, rows, ncols=None):
    ncols = len(rows[0]) if ncols is None else ncols
    return sympy.Matrix(len(rows), ncols, [sympy.Rational(Fraction(x).numerator,
                                                          Fraction(x).denominator)
                                           for row in rows for x in row])


def _block(sympy, gm, deg):
    """(matrix, source names, target names) of gm on the degree-deg source names."""
    cols = [n for n in gm.source.names if gm.source.degree[n] == deg]
    rows = [t for t in gm.target.names if gm.target.degree[t] == deg + gm.degree]
    return _to_sympy(sympy, [[gm.value(n).get(t, 0) for n in cols] for t in rows],
                     len(cols)), cols, rows


@settings(max_examples=150, deadline=None)
@given(_rectangular_maps(), st.data())
def test_map_solve_matches_sympy(gm, data):
    sympy = pytest.importorskip("sympy")
    deg = data.draw(st.sampled_from(gm.target.degrees_present()))
    A, cols, rows = _block(sympy, gm, deg - gm.degree)
    if data.draw(st.booleans()):
        rhs = gm.apply({n: data.draw(COEFFS) for n in cols})   # an image: solvable
    else:
        rhs = {t: data.draw(st.one_of(st.just(0), COEFFS)) for t in rows}
    rhs = {t: c for t, c in rhs.items() if c}
    sol = map_solve(gm, rhs)
    b = _to_sympy(sympy, [[rhs.get(t, 0)] for t in rows])
    if A.rank() != A.row_join(b).rank():
        assert sol is None
        return
    assert_canonical(sol)
    assert A * _to_sympy(sympy, [[sol.get(n, 0)] for n in cols], 1) == b
    _, pivots = A.rref()
    assert set(sol) <= {cols[j] for j in pivots}


@settings(max_examples=150, deadline=None)
@given(_rectangular_maps())
def test_map_kernel_and_right_inverse_match_sympy(gm):
    sympy = pytest.importorskip("sympy")
    kernel = map_kernel_basis(gm)
    for deg in gm.source.degrees_present():
        M, cols, _ = _block(sympy, gm, deg)
        got = [v for v in kernel if gm.source.vector_degree(v) == deg]
        assert [_to_sympy(sympy, [[v.get(n, 0)] for n in cols]) for v in got] == M.nullspace()
    for v in kernel:
        assert_canonical(v)
    inv = map_right_inverse(gm)
    blocks = [_block(sympy, gm, deg - gm.degree) for deg in gm.target.degrees_present()]
    assert (inv is None) == any(A.rank() < len(rows) for A, _, rows in blocks)
    if inv is not None:
        assert gm.compose(inv) == GradedMap.identity(gm.target)
        for t in gm.target.names:
            assert_canonical(inv.value(t))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_kernel_and_solves_of_int_graded_maps_match_sympy(data):
    # GradedMap entries are ints wherever integral, so an int / int in the
    # solvers would show here as a float or as a wrong (truncated) value
    sympy = pytest.importorskip("sympy")
    sp = GradedSpace([("x%d" % i, i % 2) for i in range(5)])
    gm = GradedMap(sp, sp, 0)
    for n in sp.names:
        same = [t for t in sp.names if sp.degree[t] == sp.degree[n]]
        gm.set(n, {t: data.draw(st.one_of(st.integers(-4, 4), COEFFS)) for t in same})
    kernel = map_kernel_basis(gm)
    for deg in (0, 1):
        names = [n for n in sp.names if sp.degree[n] == deg]
        M = _to_sympy(sympy, [[gm.value(s).get(t, 0) for s in names] for t in names])
        got = [[v.get(n, 0) for n in names] for v in kernel
               if sp.vector_degree(v) == deg]
        assert [_to_sympy(sympy, [row]).T for row in got] == M.nullspace()
    for v in kernel:
        assert gm.apply(v) == {}
        assert_canonical(v)
    inv = map_right_inverse(gm)
    if inv is None:
        assert kernel
        return
    assert not kernel
    for n in sp.names:
        assert gm.apply(inv.value(n)) == lin_single(n)
        assert_canonical(inv.value(n))
        assert map_solve(gm, gm.value(n)) == lin_single(n)


# --- every stored coefficient of built objects ----------------------------------

def _coefficients(obj):
    """Every coefficient a built object stores, and for a structure or
    morphism every coefficient its pushed sums hold at each weight."""
    if isinstance(obj, GradedMap):
        for vec in obj.entries.values():
            yield from vec.values()
    elif isinstance(obj, MultilinearMap):
        for vec in obj.entries.values():
            yield from vec.values()
    elif isinstance(obj, Contraction):
        for gm in (obj.d_small, obj.d_big, obj.inject, obj.project, obj.homotopy):
            yield from _coefficients(gm)
    elif isinstance(obj, ArtinElement):
        yield from obj.terms.values()
    elif isinstance(obj, ArtinMap):
        for gm in obj.coeffs.values():
            yield from _coefficients(gm)
    else:  # OoStructure / OoMorphism
        for q in obj.taylor.values():
            yield from _coefficients(q)
        for k in range(1, obj.max_weight + 1):
            if isinstance(obj, OoStructure):
                sums = [push_insertion(obj.taylor, obj.taylor, k)]
            else:
                sums = [push_insertion(obj.taylor, obj.source.taylor, k),
                        push_product(obj.target.taylor, obj.taylor, k)]
            for pushed in sums:
                for vec in pushed.values():
                    yield from vec.values()


def assert_all_canonical(*objs):
    seen = 0
    for obj in objs:
        for c in _coefficients(obj):
            assert canonical(c), (obj, c)
            seen += 1
    assert seen  # the walk is not over empty objects


def test_fm_cocones_store_canonical_coefficients():
    for seed in range(3):
        _, _, inc = random_filtered_inclusion(seed, 2)
        lie = fm_cocone_lie(inc, max_weight=4)
        assoc = fm_cocone_assoc(random_dga_morphism(seed, 2), max_weight=3)
        assert check_structure(lie).ok and check_structure(assoc).ok
        assert_all_canonical(lie, assoc)


def test_passing_checks_do_no_per_term_fraction_arithmetic(monkeypatch):
    # the push kernels sum ints scaled by the lcm of the denominators and
    # divide once per output coefficient; a passing check has a zero residual
    # on every word, so it divides nothing and builds no Fraction per term
    lie = fm_cocone_lie(random_filtered_inclusion(0, 2)[2], max_weight=6)
    assoc = fm_cocone_assoc(random_dga_morphism(0, 2), max_weight=4)
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    for s in (lie, assoc):
        built.clear()
        assert check_structure(s).ok
        assert len(built) <= 8, len(built)


def test_transfer_and_quasi_inverse_store_canonical_coefficients():
    for seed in range(3):
        big = decalage_dga(random_end_dga(seed, 2), max_weight=4)
        d = GradedMap(big.space, big.space, 1)
        if 1 in big.taylor:
            for (n,), vec in big.taylor[1].entries.items():
                d.set(n, vec)
        c = harmonic_contraction(big.space, d)
        small, F = transfer_structure(big, c, max_weight=4)
        G = transfer_quasi_inverse(big, c, F, max_weight=4)
        assert_all_canonical(c, big, small, F, G)


def test_split_period_map_stores_canonical_coefficients():
    _, _, fpd = torus_package(2)
    Pi, target = split_period_map(fpd, max_weight=3)
    assert_all_canonical(Pi, target)


def test_artin_terms_are_canonical():
    # residual of xi = c t x on [x, x] = y, dx = y: -(c t + c^2 t^2 / 2) y
    sp = GradedSpace([("x", 1), ("y", 2)])
    d = GradedMap(sp, sp, 1, {"x": lin_single("y")})
    br = MultilinearMap(sp, sp, 0, 2, TENSOR)
    br.set_entry(("x", "x"), lin_single("y"))
    s = decalage_dgla(DgLieAlgebra(sp, d, br), max_weight=3)
    R1 = ArtinRing(1, 3)
    for c in (Fraction(2), Fraction(3, 2)):
        xi = ArtinElement(R1, s.space, {("x", (1,)): c})
        res = mc_check(s, xi)
        assert res.terms == {("y", (1,)): -c, ("y", (2,)): -c * c / 2}
        assert_all_canonical(xi, res)
    R = ArtinRing(2, 3)
    L = random_end_dgla(2, 2)
    a = random_artin_element(2, R, L.space, 0)
    y = random_artin_element(3, R, L.space, 1)
    assert_all_canonical(a, y, gauge_act(L, a, y))
    op = ArtinMap(R, L.space, L.space, {(0, 1): GradedMap.identity(L.space).scale(Fraction(6, 3))})
    assert_all_canonical(op, op.compose(op).plus(op, Fraction(1, 2)))
