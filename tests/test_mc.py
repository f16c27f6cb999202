from __future__ import annotations

import importlib.util
import itertools
import random
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from hoalg.coalg import (
    DgLieAlgebra, DglaMorphism, OoMorphism, OoStructure, decalage_dgla,
    decalage_dgla_morphism,
)
from hoalg.cocone import _fm_cocone_lie, exp_log_isos, fm_cocone_lie
from hoalg.fixtures import random_dga_morphism, random_filtered_inclusion
from fixture_helpers import (
    abelian_dgla, commutator_dgla_morphism, is_strict, random_artin_element, random_end_dgla,
    sl2_dgla, zero_dgla,
)
from hoalg.graded import (
    GradedMap, GradedSpace, MalformedInput, MultilinearMap, SYMMETRIC, TENSOR,
    lin_single,
)
from hoalg.mc import (
    ArtinElement, ArtinMap, ArtinRing, artin_apply, artin_bracket, cocone_element,
    cocone_mc_correspondence, dgla_mc_residual, gauge_act, mc_check,
    mc_extend, mc_f_check, mc_pushforward,
)
from pull_oracles import pull_eval_taylor, pull_exp_series


def t_ring(order=3):
    return ArtinRing(1, order)


# --- rings and elements --------------------------------------------------------

def test_ring_monomials_and_multiplication():
    R = ArtinRing(2, 3)
    monos = R.monomials()
    assert monos[0] == (0, 0)
    assert (1, 1) in monos and (2, 1) not in monos
    assert R.mul((1, 0), (0, 1)) == (1, 1)
    assert R.mul((1, 1), (1, 0)) is None  # truncated at m^3
    assert R.mono_str((2, 1)) == "t1^2*t2"
    assert ArtinRing(2, 4).parse_mono("t1^2*t2") == (2, 1)
    with pytest.raises(MalformedInput):
        R.parse_mono("t1^2*t2")  # total degree 3 is zero in m^3 = 0
    # a negative power, a non-numeric power or index, or an index out of range
    for bad in ("t1^-1", "t1^x", "tx", "t", "t3", "t0", "t1^", "t1^2^3", "s1", "t1**2"):
        with pytest.raises(MalformedInput):
            R.parse_mono(bad)


def test_element_must_be_in_max_ideal():
    R = t_ring()
    sp = GradedSpace([("x", 0)])
    with pytest.raises(MalformedInput):
        ArtinElement(R, sp, {("x", (0,)): Fraction(1)})
    x = ArtinElement(R, sp, {("x", (1,)): Fraction(1)})
    assert x.lines() == ["x t1 -> 1"]


def test_element_refuses_monomials_off_the_ring():
    # a monomial has one nonnegative exponent per generator, so a short or
    # long one, or one with a negative exponent, is refused, not stored
    sp = GradedSpace([("x", 0)])
    for ring, mono in ((ArtinRing(0, 3), (1,)), (ArtinRing(1, 3), (1, 0)),
                       (ArtinRing(2, 3), (1,)), (ArtinRing(2, 3), (2, -1))):
        with pytest.raises(MalformedInput):
            ArtinElement(ring, sp).add("x", mono, 1)
    x = ArtinElement(ArtinRing(2, 3), sp)
    x.add("x", (1, 1), 1)
    assert x.terms == {("x", (1, 1)): 1}


def test_operator_refuses_monomials_off_the_ring():
    # ArtinMap.add checks its monomial as ArtinElement.add does: a short or
    # long one, or one with a negative exponent, is refused, not stored
    sp = GradedSpace([("x", 0)])
    ident = GradedMap.identity(sp)
    for ring, mono in ((ArtinRing(0, 3), (1,)), (ArtinRing(1, 3), (1, 0)),
                       (ArtinRing(2, 3), (1,)), (ArtinRing(2, 3), (2, -1))):
        op = ArtinMap(ring, sp, sp)
        with pytest.raises(MalformedInput, match="nonnegative exponents"):
            op.add(mono, ident)
        with pytest.raises(MalformedInput, match="nonnegative exponents"):
            ArtinMap(ring, sp, sp, {mono: ident})
        assert op.coeffs == {}
    op = ArtinMap(ArtinRing(2, 3), sp, sp)
    op.add([1, 1], ident)
    assert op.coeffs == {(1, 1): ident}


def test_element_sums_stay_canonical_and_refuse_other_rings_or_spaces():
    R = t_ring()
    sp = GradedSpace([("x", 0), ("y", 0)])
    x = ArtinElement(R, sp, {("x", (1,)): Fraction(1, 2), ("y", (2,)): 3})
    y = ArtinElement(R, sp, {("x", (1,)): Fraction(1, 2), ("y", (1,)): -1})
    total = x.plus(y)
    assert total.terms == {("x", (1,)): 1, ("y", (2,)): 3, ("y", (1,)): -1}
    assert type(total.terms["x", (1,)]) is int
    assert x.plus(x.scaled(-1)).terms == {} and x.scaled(0).terms == {}
    assert x.scaled(2).terms == {("x", (1,)): 1, ("y", (2,)): 6}
    assert x.component(2).terms == {("y", (2,)): 3}
    assert x.truncated(ArtinRing(1, 2)).terms == {("x", (1,)): Fraction(1, 2)}
    with pytest.raises(MalformedInput):
        x.scaled(0.5)
    # a sum over another ring or space is refused, not truncated or filtered
    with pytest.raises(MalformedInput):
        x.plus(ArtinElement(ArtinRing(1, 4), sp, {("x", (3,)): 1}))
    with pytest.raises(MalformedInput):
        x.plus(ArtinElement(R, GradedSpace([("x", 0)]), {("x", (1,)): 1}))


# --- mc_check --------------------------------------------------------------------

def test_mc_zero_element_and_abelian():
    s = decalage_dgla(sl2_dgla(), max_weight=3)
    R = t_ring()
    zero = ArtinElement(R, s.space)
    assert mc_check(s, zero).is_zero()
    ab = OoStructure(s.space, SYMMETRIC, {}, 3)
    x = random_artin_element(1, R, s.space, 0)
    assert mc_check(ab, x).is_zero()


def test_mc_residual_matches_classical_equation():
    # decalage residual = -s^{-1}(d xi + [xi,xi]/2) on a 2-dim DGLA over Q[t]/t^3
    sp = GradedSpace([("x", 1), ("y", 2)])
    d = GradedMap(sp, sp, 1)
    d.set("x", lin_single("y"))
    br = MultilinearMap(sp, sp, 0, 2, __import__("hoalg.graded", fromlist=["TENSOR"]).TENSOR)
    br.set_entry(("x", "x"), lin_single("y"))  # [x,x] = y, x odd: allowed
    from hoalg.coalg import DgLieAlgebra
    L = DgLieAlgebra(sp, d, br)
    assert L.check().ok
    s = decalage_dgla(L, max_weight=3)
    R = t_ring(3)
    xi = ArtinElement(R, s.space, {("x", (1,)): Fraction(2)})
    xiL = ArtinElement(R, L.space, {("x", (1,)): Fraction(2)})
    res = mc_check(s, xi)
    classical = dgla_mc_residual(L, xiL)
    # identify via the name-preserving shift: residual = -(classical)
    assert {k: -v for k, v in classical.terms.items()} == res.terms


def test_mc_check_rejects_structure_truncated_below_ring_order():
    # over Q[t]/t^5 the residual needs q_1..q_4; a weight-3 truncation would
    # silently drop the q_4 term
    s = decalage_dgla(random_end_dgla(0, 2), max_weight=3)
    x = random_artin_element(0, ArtinRing(1, 5), s.space, 0)
    with pytest.raises(MalformedInput, match="truncated at arity 3"):
        mc_check(s, x)
    assert mc_check(s, x.truncated(ArtinRing(1, 4))) is not None


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mc_residual_natural_in_the_ring(seed):
    s = decalage_dgla(random_end_dgla(seed, 2), max_weight=4)
    R5 = ArtinRing(1, 5)
    R3 = ArtinRing(1, 3)
    x = random_artin_element(seed, R5, s.space, 0)
    lhs = mc_check(s, x).truncated(R3)
    rhs = mc_check(s, x.truncated(R3))
    assert lhs == rhs


# --- gauge action ----------------------------------------------------------------

def test_gauge_identity_and_abelian():
    L = random_end_dgla(0, 2)
    R = t_ring(4)
    x = random_artin_element(3, R, L.space, 1)
    zero = ArtinElement(R, L.space)
    assert gauge_act(L, zero, x) == x
    sp = GradedSpace([("a", 0), ("b", 1)])
    d = GradedMap(sp, sp, 1)
    d.set("a", lin_single("b"))
    A = abelian_dgla(sp, d)
    a = ArtinElement(R, sp, {("a", (1,)): Fraction(3)})
    got = gauge_act(A, a, ArtinElement(R, sp))
    want = artin_apply(A.d, a).scaled(-1)
    assert got == want


def test_gauge_rejects_constant_parameter():
    # [h, e] = e: a constant h-term makes ad_a the identity on e, never nilpotent,
    # so the series e^a * x cannot be summed in V (x) m_B
    sp = GradedSpace([("h", 0), ("e", 1)])
    br = MultilinearMap(sp, sp, 0, 2, TENSOR)
    br.set_entry(("h", "e"), lin_single("e"))
    br.set_entry(("e", "h"), {"e": Fraction(-1)})
    L = DgLieAlgebra(sp, GradedMap(sp, sp, 1), br)
    R = t_ring(3)
    a = ArtinElement(R, sp, {("h", (0,)): Fraction(1)}, allow_constant=True)
    x = ArtinElement(R, sp, {("e", (1,)): Fraction(1)})
    with pytest.raises(MalformedInput):
        gauge_act(L, a, x)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_gauge_preserves_mc(seed):
    L = random_end_dgla(seed, 2)
    R = ArtinRing(1, 4)
    a = random_artin_element(seed + 10, R, L.space, 0)
    x = gauge_act(L, a, ArtinElement(R, L.space))  # e^a * 0 is Maurer-Cartan
    assert dgla_mc_residual(L, x).is_zero()
    b = random_artin_element(seed + 20, R, L.space, 0)
    y = gauge_act(L, b, x)
    assert dgla_mc_residual(L, y).is_zero()


# --- mc_f and the cocone correspondence --------------------------------------------

def test_mc_f_trivial_and_reduction_to_plain_mc():
    sub, amb, inc = random_filtered_inclusion(0, 2)
    R = t_ring(3)
    zero_l = ArtinElement(R, sub.space)
    zero_m = ArtinElement(R, amb.space)
    assert mc_f_check(inc, zero_l, zero_m).ok
    # M = 0 reduces to the plain Maurer-Cartan condition on L
    Z = zero_dgla()
    to_zero = DglaMorphism(sub, Z, GradedMap(sub.space, Z.space, 0))
    l = random_artin_element(5, R, sub.space, 1)
    rep = mc_f_check(to_zero, l, ArtinElement(R, Z.space))
    assert rep.ok == dgla_mc_residual(sub, l).is_zero()


def test_mc_f_injective_simpler_description():
    # for an inclusion: e^m in MC_chi iff e^{-m} * 0 lands in L^1 (+) m_A,
    # checked against the direct two-equation definition
    sub, amb, inc = random_filtered_inclusion(0, 2)
    R = t_ring(3)
    sub_names = set(sub.space.names)
    for seed in range(6):
        m = random_artin_element(seed + 40, R, amb.space, 0)
        w = gauge_act(amb, m.scaled(-1), ArtinElement(R, amb.space))  # e^{-m} * 0
        inside = all(n in sub_names for (n, mono), c in w.terms.items() if c)
        if not inside:
            direct_ok = False
            # no candidate l: the direct definition cannot hold for any l with
            # f(l) = e^{-m}*0; verify the defining equation fails for w itself
            # only when w is not even in the subalgebra
        else:
            l = ArtinElement(R, sub.space,
                             {k: v for k, v in w.terms.items()})
            rep = mc_f_check(inc, l, m)
            direct_ok = rep.ok
            assert direct_ok  # inverse gauge pair: e^m * (e^{-m} * 0) = 0
        # membership in the simpler description agrees with the direct check
        # whenever the candidate exists
        if inside:
            assert direct_ok


def test_cocone_correspondence_trivial_and_central():
    sub, amb, inc = random_filtered_inclusion(1, 2)
    R = t_ring(3)
    rep = cocone_mc_correspondence(inc, ArtinElement(R, sub.space),
                                   ArtinElement(R, amb.space))
    assert rep.ok


def _random_pair(seed):
    # seeds 2, 3 and 5 are those of 0-5 whose L has a degree-1 part, so that
    # the degree-1 x can be nonzero
    sub, amb, inc = random_filtered_inclusion((2, 3, 5)[seed % 3], 2)
    ring = ArtinRing(2, 3) if seed % 2 else ArtinRing(1, 4)
    x = random_artin_element(seed + 100, ring, sub.space, 1, density=0.4)
    m = random_artin_element(seed + 200, ring, amb.space, 0, density=0.4)
    return inc, x, m


@pytest.mark.parametrize("seed", list(range(10)))
def test_cocone_correspondence_random(seed):
    rep = cocone_mc_correspondence(*_random_pair(seed))
    agree = [c for c in rep.checks if c["label"] == "memberships agree"]
    assert agree and agree[0]["ok"]


def test_cocone_correspondence_random_draws_nonzero_x():
    # the random cases above are not mostly x = 0
    assert sum(not _random_pair(seed)[1].is_zero() for seed in range(10)) >= 8


def test_cocone_correspondence_on_true_mc_pairs():
    # engineered members: x = e^a * 0 inside L, m = -a: (x, e^m) is in MC_f,
    # hence (x, m) must satisfy the cocone Maurer-Cartan equation as well.
    # x = -da + O(a^2) is nonzero only when da is: of seeds 2, 3 and 5, only
    # seed 2 has a degree-0 letter that d moves, so seeds 3 and 5 give x = 0
    # and check the m half alone
    R = t_ring(3)
    nonzero = 0
    for seed in (2, 3, 5):
        sub, amb, inc = random_filtered_inclusion(seed, 2)
        moved = any(sub.space.degree[n] == 0 and sub.d.entries.get(n) for n in sub.space.names)
        for draw in range(4 if moved else 1):
            a = random_artin_element(draw + 300, R, sub.space, 0, density=0.5)
            assert artin_apply(sub.d, a).is_zero() != moved
            x = gauge_act(sub, a, ArtinElement(R, sub.space))
            nonzero += not x.is_zero()
            a_amb = ArtinElement(R, amb.space, dict(a.terms))
            rep = mc_f_check(inc, x, a_amb.scaled(-1))
            assert rep.ok
            rep2 = cocone_mc_correspondence(inc, x, a_amb.scaled(-1))
            assert rep2.ok
    assert nonzero == 4  # most of the 6 pairs


# the cocone correspondence grows the cocone only over the letters of (x, m).
# Seeds 2, 3 and 5 are those of 0-5 whose L has a degree-1 part, so that x
# can be nonzero; random x and m of varied density, up to full support
SUPPORT_RINGS = ((1, 6), (2, 4), (3, 3))
SUPPORT_DENSITIES = ((0.4, 0.4), (0.4, 1.0), (1.0, 0.4), (0.7, 0.7), (1.0, 1.0))
SUPPORT_CASES = [(seed, ring, dx, dm) for seed in (2, 3, 5) for ring in SUPPORT_RINGS
                 for dx, dm in SUPPORT_DENSITIES]


def _support_case(seed, ring, dx, dm):
    sub, amb, inc = random_filtered_inclusion(seed, 2)
    R = ArtinRing(*ring)
    tag = 1000 * seed + 100 * R.generators + int(10 * dx) + int(dm)
    x = random_artin_element(tag, R, sub.space, 1, density=dx)
    m = random_artin_element(tag + 7, R, amb.space, 0, density=dm)
    return inc, x, m


def test_cocone_correspondence_residual_matches_the_full_cocone():
    # the residual over the cut-down cocone is the one over fm_cocone_lie
    nonzero = 0
    for case in SUPPORT_CASES:
        inc, x, m = _support_case(*case)
        full = fm_cocone_lie(inc, max_weight=x.ring.order - 1)
        want = mc_check(full, cocone_element(full.space, x, m))
        got = cocone_mc_correspondence(inc, x, m).checks[0]
        assert got["label"] == "cocone residual zero"
        assert got["lhs"] == ("0" if want.is_zero() else ";".join(want.lines())), case
        nonzero += not want.is_zero()
    assert len(SUPPORT_CASES) >= 40 and nonzero >= 40


def test_cocone_support_cut_drops_no_letter_the_series_reads():
    # planted: growing the cocone without one letter of (x, m) changes a residual
    changed = 0
    for case in SUPPORT_CASES[::3]:
        inc, x, m = _support_case(*case)
        mw = x.ring.order - 1
        full = fm_cocone_lie(inc, max_weight=mw)
        pair = cocone_element(full.space, x, m)
        want = mc_check(full, pair).terms
        xs, ms = {n for n, _ in x.terms}, {n for n, _ in m.terms}
        sources = [n for n in inc.source.space.names if n in xs]
        targets = [n for n in inc.target.space.names if n in ms]
        assert mc_check(_fm_cocone_lie(inc, mw, sources, targets), pair).terms == want
        for i in range(len(sources)):
            cut = _fm_cocone_lie(inc, mw, sources[:i] + sources[i + 1:], targets)
            changed += mc_check(cut, pair).terms != want
        for i in range(len(targets)):
            cut = _fm_cocone_lie(inc, mw, sources, targets[:i] + targets[i + 1:])
            changed += mc_check(cut, pair).terms != want
    assert changed


# --- pushforward ------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1])
def test_strict_pushforward_of_mc_is_mc(seed):
    sub, amb, inc = random_filtered_inclusion(seed, 2)
    F = decalage_dgla_morphism(inc, max_weight=3)
    R = t_ring(4)
    a = random_artin_element(seed + 7, R, sub.space, 0)
    x = gauge_act(sub, a, ArtinElement(R, sub.space))
    xs = ArtinElement(R, F.source.space, dict(x.terms))
    push = mc_pushforward(F, xs)
    amb_el = ArtinElement(R, F.target.space, dict(push.terms), allow_constant=True)
    assert mc_check(F.target, amb_el).is_zero()


def test_pushforward_rejects_truncation_and_foreign_space():
    # over Q[t]/t^5 the pushforward needs f_1..f_4; a weight-2 E would
    # silently drop half the terms, and an element on another space
    # would read no coefficient at all
    R = ArtinRing(1, 5)
    E2, E4 = (exp_log_isos(random_dga_morphism(0, 2), w)[0] for w in (2, 4))
    sp = E4.source.space
    x = ArtinElement(R, sp, {(a, (1,)): Fraction(1) for a in sp.names if sp.degree[a] == 0})
    assert len(mc_pushforward(E4, x).terms) == 8
    with pytest.raises(MalformedInput, match="morphism truncated at arity 2"):
        mc_pushforward(E2, x)
    z = GradedSpace([("z", 0)])
    with pytest.raises(MalformedInput, match="wrong space"):
        mc_pushforward(E4, ArtinElement(R, z, {("z", (1,)): Fraction(1)}))


# --- extension --------------------------------------------------------------------

def test_mc_extend_abelian_always_lifts():
    sp = GradedSpace([("x", 0), ("y", 1)])
    s = OoStructure(sp, SYMMETRIC, {}, 3)
    R = t_ring(4)
    x = ArtinElement(R, sp, {("x", (1,)): Fraction(1)})
    rep, obs, lift = mc_extend(s, x, 2)
    assert rep.ok and obs.is_zero() and lift == x


def test_mc_extend_quadratic_obstruction():
    # q2 only, q1 = 0: obstruction at order 2 is (1/2) q2(x . x)
    sp = GradedSpace([("x", 0), ("y", 1)])
    q2 = MultilinearMap(sp, sp, 1, 2, SYMMETRIC)
    q2.set_entry(("x", "x"), lin_single("y"))
    s = OoStructure(sp, SYMMETRIC, {2: q2}, 3)
    R = t_ring(4)
    x = ArtinElement(R, sp, {("x", (1,)): Fraction(1)})
    rep, obs, lift = mc_extend(s, x, 2)
    assert obs.terms == {("y", (2,)): Fraction(1, 2)}
    assert lift is None  # q1 = 0 cannot kill it
    assert not rep.ok
    assert rep.first_failure()["witness"] == "t1^2"


def test_mc_extend_lifts_through_exact_obstruction():
    # q1(z) = y makes the quadratic obstruction exact: the lift adds -t^2 z / 2
    sp = GradedSpace([("x", 0), ("z", 0), ("y", 1)])
    q1 = MultilinearMap(sp, sp, 1, 1, SYMMETRIC)
    q1.set_entry(("z",), lin_single("y"))
    q2 = MultilinearMap(sp, sp, 1, 2, SYMMETRIC)
    q2.set_entry(("x", "x"), lin_single("y"))
    s = OoStructure(sp, SYMMETRIC, {1: q1, 2: q2}, 4)
    R = t_ring(4)
    x = ArtinElement(R, sp, {("x", (1,)): Fraction(1)})
    rep, obs, lift = mc_extend(s, x, 2)
    assert rep.ok and lift is not None
    assert lift.terms[("z", (2,))] == Fraction(-1, 2)
    res = mc_check(s, lift)
    assert all(sum(m) >= 3 for (n, m), c in res.terms.items() if c)


def test_nonstrict_pushforward_of_mc_is_mc():
    # push an engineered cocone Maurer-Cartan pair through the symmetrized
    # exponential isomorphism (a genuinely non-strict morphism)
    from hoalg.coalg import symmetrize_morphism, check_morphism
    from hoalg.cocone import exp_log_isos, fm_cocone_lie, A_PRE, B_PRE
    from hoalg.fixtures import random_dga_morphism
    from hoalg.mc import cocone_element
    m = random_dga_morphism(1, 2)
    E, Lm = exp_log_isos(m, max_weight=3)
    Es = symmetrize_morphism(E)
    assert not is_strict(Es)
    assert check_morphism(Es, max_weight=3).ok
    lie = commutator_dgla_morphism(m)
    R = t_ring(4)
    a = random_artin_element(77, R, lie.source.space, 0, density=0.5)
    x = gauge_act(lie.source, a, ArtinElement(R, lie.source.space))
    a_t = ArtinElement(R, lie.target.space, dict(a.terms))
    pair = cocone_element(Es.source.space, x, a_t.scaled(-1))
    assert mc_check(Es.source, pair).is_zero()
    push = mc_pushforward(Es, pair)
    lifted = ArtinElement(R, Es.target.space, dict(push.terms))
    assert mc_check(Es.target, lifted).is_zero()


# --- independent oracles for the Artin kernels ------------------------------------

def _eval_taylor_reference(q, args):
    """Term-by-term expansion over every tuple of terms (brute force)."""
    ring = args[0].ring
    out = ArtinElement(ring, q.target, allow_constant=True)
    for combo in itertools.product(*[list(a.terms.items()) for a in args]):
        coeff = Fraction(1)
        names = []
        mono = ring.one
        for (n, m), c in combo:
            coeff *= c
            names.append(n)
            mono = ring.mul(mono, m)
            if mono is None:
                break
        if mono is None or not coeff:
            continue
        for t, cv in q.value(tuple(names)).items():
            out.add(t, mono, coeff * cv)
    return out


def _rand_fraction(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))


def _random_multilinear(rng, space, arity, flavor):
    """Arity-k map into one target line per total degree, random on every
    (canonical) word."""
    top = max(space.degree.values()) * arity
    target = GradedSpace([("y%d" % d, d) for d in range(top + 1)])
    q = MultilinearMap(space, target, 0, arity, flavor)
    words = itertools.product(space.names, repeat=arity) if flavor == TENSOR else \
        itertools.combinations_with_replacement(space.names, arity)
    for word in words:
        if q.normalize(word)[0] is not None and rng.random() < 0.7:
            deg = sum(space.degree[n] for n in word)
            q.set_entry(word, {"y%d" % deg: _rand_fraction(rng)})
    return q


def _random_element(rng, ring, space):
    """Two terms on linear monomials (so long products survive) and two on
    any monomial of m_B."""
    cells = [(n, m) for n in space.names for m in ring.monomials(min_total=1)]
    linear = [c for c in cells if sum(c[1]) == 1]
    picked = rng.sample(linear, 2)
    picked += rng.sample([c for c in cells if c not in picked], 2)
    return ArtinElement(ring, space, {cell: _rand_fraction(rng) for cell in picked})


@pytest.mark.parametrize("gens,order", [(1, 6), (2, 5), (3, 4)])
@pytest.mark.parametrize("flavor", [TENSOR, SYMMETRIC])
def test_eval_taylor_matches_brute_force_expansion(gens, order, flavor):
    rng = random.Random("eval_taylor:%d:%d:%s" % (gens, order, flavor))
    R = ArtinRing(gens, order)
    V = GradedSpace([("a", 0), ("b", 0), ("c", 1)])
    nonzero = 0
    for arity in range(1, order + 1):
        q = _random_multilinear(rng, V, arity, flavor)
        args = [_random_element(rng, R, V) for _ in range(arity)]
        got = pull_eval_taylor(q, args)
        assert got.terms == _eval_taylor_reference(q, args).terms
        if arity >= order:
            assert got.is_zero()  # a product of `order` elements of m_B
        nonzero += not got.is_zero()
    assert nonzero >= 2  # the comparison is not between zeros only


@pytest.mark.parametrize("gens,order", [(1, 6), (2, 5), (3, 4)])
def test_artin_bracket_matches_brute_force_expansion(gens, order):
    rng = random.Random("artin_bracket:%d:%d" % (gens, order))
    R = ArtinRing(gens, order)
    nonzero = 0
    for L in (sl2_dgla(), random_end_dgla(gens, 2)):
        for _ in range(3):
            x, y = _random_element(rng, R, L.space), _random_element(rng, R, L.space)
            got = artin_bracket(L, x, y)
            assert got.terms == _eval_taylor_reference(L.bracket, [x, y]).terms
            assert got.terms == pull_eval_taylor(L.bracket, [x, y]).terms
            nonzero += not got.is_zero()
    assert nonzero >= 3


# --- the exponential series, pushed from the stored keys --------------------------

def _series_reference(taylor, x, target):
    """sum_{n < ring order} (1/n!) q_n(x, .., x), each q_n expanded over every
    tuple of terms of x."""
    out = ArtinElement(x.ring, target, allow_constant=True)
    for n, q in sorted(taylor.items()):
        if n < x.ring.order:
            out = out.plus(_eval_taylor_reference(q, [x] * n).scaled(Fraction(1, factorial(n))))
    return out


def _random_family(rng, source, target, degree, top, flavor):
    """{n: arity-n map of the given degree} for n <= top, random on the
    (canonical) words whose image degree occurs in target."""
    family = {}
    for n in range(1, top + 1):
        q = MultilinearMap(source, target, degree, n, flavor)
        words = itertools.product(source.names, repeat=n) if flavor == TENSOR else \
            itertools.combinations_with_replacement(source.names, n)
        for word in words:
            want = sum(source.degree[a] for a in word) + degree
            if q.normalize(word)[0] is not None and rng.random() < 0.7:
                q.set_entry(word, {y: _rand_fraction(rng) for y in target.names
                                   if target.degree[y] == want and rng.random() < 0.7})
        family[n] = q
    return family


@pytest.mark.parametrize("gens,order", [(1, 6), (2, 5), (3, 4)])
@pytest.mark.parametrize("flavor", [TENSOR, SYMMETRIC])
def test_exp_series_matches_brute_force_expansion(gens, order, flavor):
    # mc_check sums c(K) q_n(K) prod_i x_{K_i} over the stored keys K, and
    # mc_pushforward does the same for f, also when x carries odd letters
    rng = random.Random("exp_series:%d:%d:%s" % (gens, order, flavor))
    R = ArtinRing(gens, order)
    V = GradedSpace([("a", 0), ("b", 0), ("c", 0), ("u", 1), ("v", 1)])
    even = V.subspace(["a", "b", "c"])
    s = OoStructure(V, flavor, _random_family(rng, V, V, 1, order - 1, flavor), order - 1)
    W = GradedSpace([("y0", 0), ("y1", 1), ("y2", 2)])
    F = OoMorphism(OoStructure(V, flavor, {}, order - 1), OoStructure(W, flavor, {}, order - 1),
                   _random_family(rng, V, W, 0, order - 1, flavor))
    t = (1,) + (0,) * (gens - 1)
    odd = ArtinElement(R, V, {("u", t): Fraction(1, 2), ("v", t): -3})
    nonzero = 0
    for _ in range(3):
        x = ArtinElement(R, V, _random_element(rng, R, even).terms)
        got = mc_check(s, x)
        assert got.terms == _series_reference(s.taylor, x, V).terms
        assert got.terms == pull_exp_series(s.taylor, x, V).terms
        for y in (x, x.plus(odd)):
            got = mc_pushforward(F, y)
            assert got.terms == _series_reference(F.taylor, y, W).terms
            assert got.terms == pull_exp_series(F.taylor, y, W).terms
            nonzero += not got.is_zero()
    assert nonzero >= 4  # the comparison is not between zeros only


@pytest.mark.parametrize("flavor,c_ab", [(SYMMETRIC, 1), (TENSOR, Fraction(1, 2))])
def test_exp_series_weight_of_a_key_in_closed_form(flavor, c_ab):
    """c(K) = 1/stab(K) in S(V) and 1/n! in T(V): q_2(a, a) = y at x = t a
    gives (1/2) t^2 y in both flavors, and q_2(a, b) = y at x = t a + t b
    gives t^2 y in S(V), where (a, b) stands for both orderings, but
    (1/2) t^2 y in T(V).  In a copy of mc._exp_series that weighs symmetric
    keys by 1/n! instead of 1/stab(K), the (a, b) case of S(V) fails."""
    V = GradedSpace([("a", 0), ("b", 0), ("y", 1)])
    R = t_ring(3)
    for word, x, want in ((("a", "a"), {("a", (1,)): 1}, Fraction(1, 2)),
                          (("a", "b"), {("a", (1,)): 1, ("b", (1,)): 1}, c_ab)):
        q2 = MultilinearMap(V, V, 1, 2, flavor)
        q2.set_entry(word, lin_single("y"))
        s = OoStructure(V, flavor, {2: q2}, 2)
        assert mc_check(s, ArtinElement(R, V, x)).terms == {("y", (2,)): want}


@pytest.mark.parametrize("key", ["2", "17", "81"])
def test_exp_series_matches_pull_oracle_on_benchmark_inputs(key):
    # the mc-artin inputs of perfbench: random elements of the cocone, and an
    # engineered Maurer-Cartan pair, over the rings (1,6), (2,5) and (3,4);
    # these keys draw random elements with a nonzero residual (most keys do not)
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    wl = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wl)
    sub, amb, inc, rings = wl.mc_artin_inputs(key)
    nonzero = 0
    for ring, randoms, a in rings:
        s = fm_cocone_lie(inc, ring.order - 1)
        x = gauge_act(sub, a, ArtinElement(ring, sub.space))
        pair = cocone_element(s.space, x, ArtinElement(ring, amb.space, dict(a.terms)).scaled(-1))
        for el in randoms + [pair]:
            got = mc_check(s, el)
            assert got.terms == pull_exp_series(s.taylor, el, s.space).terms
            nonzero += not got.is_zero()
    assert nonzero >= 3


def _random_artin_map(rng, ring, V, min_total):
    op = ArtinMap(ring, V, V)
    for mono in ring.monomials(min_total=min_total):
        gm = GradedMap(V, V, 0)
        for n in V.names:
            gm.set(n, {t: _rand_fraction(rng) for t in V.names if rng.random() < 0.5})
        op.add(mono, gm)
    return op


def _sympy_matrix(sympy, op):
    """op as a square Q-matrix on V (x) B, basis (name, monomial)."""
    ring = op.ring
    basis = [(n, m) for m in ring.monomials() for n in op.source.names]
    index = {b: i for i, b in enumerate(basis)}
    M = sympy.zeros(len(basis), len(basis))
    for (n, m), j in index.items():
        for mu, gm in op.coeffs.items():
            prod = ring.mul(m, mu)
            if prod is not None:
                for t, c in gm.value(n).items():
                    M[index[(t, prod)], j] += sympy.Rational(c.numerator, c.denominator)
    return M


@pytest.mark.parametrize("gens,order", [(1, 4), (2, 3)])
def test_artin_map_kernels_match_sympy_matrices(gens, order):
    sympy = pytest.importorskip("sympy")
    rng = random.Random("artin_map:%d:%d" % (gens, order))
    R = ArtinRing(gens, order)
    V = GradedSpace([("a", 0), ("b", 0), ("c", 0)])
    A = _random_artin_map(rng, R, V, 0)
    B = _random_artin_map(rng, R, V, 0)
    assert _sympy_matrix(sympy, A.compose(B)) == \
        _sympy_matrix(sympy, A) * _sympy_matrix(sympy, B)
    N = _random_artin_map(rng, R, V, 1)
    M = _sympy_matrix(sympy, N)
    eye = sympy.eye(M.rows)
    assert _sympy_matrix(sympy, N.geometric_series()) == (eye - M).inv()
    exp, power, k = eye, eye, 0
    while not power.is_zero_matrix:
        k += 1
        power = power * M
        exp += power / sympy.factorial(k)
    assert k <= order  # M is nilpotent: M^order = 0
    assert _sympy_matrix(sympy, N.exp()) == exp
    with pytest.raises(MalformedInput):
        A.geometric_series()  # constant coefficient: not in m_B
