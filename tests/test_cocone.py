from __future__ import annotations

import io
import itertools
import math
import random
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from hoalg import cocone, graded
from hoalg.cli import run
from hoalg.coalg import (
    DgAlgebra, DgLieAlgebra, DgaMorphism, DglaMorphism, OoMorphism, OoStructure,
    check_morphism, check_structure, compose_morphisms, decalage_dgla,
    decalage_dgla_morphism, in_basis_order, invert_morphism, push_insertion,
    symmetrize_morphism, symmetrize_structure,
)
from hoalg.cocone import (
    B_PRE, CoderAction, Splitting, cocone_associative, derived_products_model,
    exp_log_isos, fiber_product_model, fm_cocone_assoc, fm_cocone_lie,
    semidirect_product, strictify_fibration, voronov_brackets,
)
from hoalg.fixtures import (
    end_splitting, lambda_cartan_fixture, random_complex, random_dga_morphism,
    random_filtered_inclusion,
)
from hoalg.coalg import (
    end_dga, end_dgla, end_preserving_sub, end_preserving_sub_dgla, sub_algebra,
)
from fixture_helpers import (
    abelian_dgla, bracket_vec, commutator_dgla_morphism, is_strict, zero_dgla,
)
from hoalg.graded import (
    GradedMap, GradedSpace, MalformedInput, MultilinearMap, RejectedInput, SYMMETRIC, TENSOR,
    bernoulli, check_contraction, lin_acc, lin_single, map_kernel_basis,
    sign_pow, sym_words,
)
from hoalg.hodge import split_period_map, torus_package
from powerseries import phi_compose_coefficients
from pull_oracles import (
    morph_component, nested, pull_check_morphism, pull_check_structure, pull_compose,
    pull_derived_brackets, pull_end_dga, pull_end_dgla, pull_exp_log_isos,
    pull_fiber_product_model, pull_fm_cocone_assoc, pull_g_taylor, pull_invert,
    pull_semidirect_product, pull_symmetrized, pull_voronov_action, signed_orderings,
    split_period_coefficient, square_residual,
)


def _reference_end_splitting(seed, lie, dim):
    """The end-splitting loop as the test modules and the CLI each once wrote
    it, on the End(V) loops of pull_oracles, kept as the oracle for
    fixtures.end_splitting."""
    V, d = random_complex(seed, dim)
    rng = random.Random("endsplit:%d" % seed)
    stable = []
    for n in V.names:
        if all(t in stable for t in d.value(n)) and rng.random() < 0.6:
            stable.append(n)
    if not stable:
        stable = [next(n for n in V.names if not d.value(n))]
    if len(stable) == len(V.names):
        stable = stable[:-1]
    ambient = pull_end_dgla(V, d) if lie else pull_end_dga(V, d)
    comp = [n for n in ambient.space.names
            if n.split("<-")[1] in stable and n.split("<-")[0] not in stable]
    return V, d, ambient, comp, stable


@pytest.mark.parametrize("dim", (2, 3))
@pytest.mark.parametrize("lie", (True, False))
def test_end_splitting_matches_reference_loop(dim, lie):
    for seed in range(40):
        V, d, amb, comp, stable = end_splitting(seed, dim, lie)
        V0, d0, amb0, comp0, stable0 = _reference_end_splitting(seed, lie, dim)
        assert (V, d, amb.space, amb.d, comp, stable) == \
            (V0, d0, amb0.space, amb0.d, comp0, stable0), seed
        assert type(amb) is type(amb0)
        op, op0 = (amb.bracket, amb0.bracket) if lie else (amb.product, amb0.product)
        assert op.entries == op0.entries, seed


def test_end_of_end_builds_from_names_holding_arrows():
    # the names of End(End(V)) are t<-s with t and s themselves maps u<-v
    V, d = random_complex(2, 2)     # d(v1) = -v0
    E = end_dga(V, d)
    for EE in (end_dga(E.space, E.d), end_dgla(E.space, E.d)):
        assert EE.space.dim == E.space.dim ** 2
        assert EE.d and EE.check().ok
    # End(End(V); End(V; W)) for the d-stable W of closed names
    W = [n for n in V.names if not d.value(n)]
    sub, _ = end_preserving_sub(E, V, W)
    inner, inc = end_preserving_sub(end_dga(E.space, E.d), E.space, sub.space.names)
    assert inner.check().ok and inc.check().ok


# --- fm_cocone_lie ------------------------------------------------------------


def test_cocone_lie_with_zero_target_is_decalage():
    from fixture_helpers import random_end_dgla
    L = random_end_dgla(0, 2)
    Z = zero_dgla()
    f = DglaMorphism(L, Z, GradedMap(L.space, Z.space, 0))
    s = fm_cocone_lie(f, max_weight=4)
    dec = decalage_dgla(L, max_weight=4)
    for k in set(s.taylor) | set(dec.taylor):
        a, b = s.taylor.get(k), dec.taylor.get(k)
        for word in (b or a).entries:
            want = {"a:" + n: c for n, c in b.value(tuple(w for w in word)).items()} \
                if b else {}
            got = a.value(tuple("a:" + w.replace("a:", "") for w in word)) if a else {}
    # same arities, entries agree under the a: prefix
    assert set(s.taylor) == set(dec.taylor)
    for k, q in dec.taylor.items():
        for word, vec in q.entries.items():
            assert s.taylor[k].value(tuple("a:" + n for n in word)) == \
                {"a:" + n: c for n, c in vec.items()}


def test_cocone_lie_first_mixed_bracket_is_half_bracket():
    # q2(x (x) m) = -B_1 [f(x), m] = 1/2 [f(x), m]
    sub, amb, inc = random_filtered_inclusion(1, 2)
    s = fm_cocone_lie(inc, max_weight=3)
    x = sub.space.names[0]
    m = amb.space.names[0]
    want = {"b:" + n: c / 2 for n, c in
            bracket_vec(amb)(inc.map.value(x), lin_single(m)).items()}
    assert s.taylor[2].value(("a:" + x, "b:" + m)) == want


def _reference_cocone_lie_brackets(f, max_weight):
    """The mixed brackets q_{k+1}(x, m_1..m_k) summed one ordering at a time,
    -(B_k/k!) sum_sigma eps(sigma) [..[f(x), m_s1].., m_sk]: the oracle for
    the sub-word recursion in fm_cocone_lie.  Returns {key: vector}."""
    M = f.target
    mdeg = M.space.degree
    out = {}
    for k in range(1, max_weight):
        if k >= 2 and bernoulli(k) == 0:
            continue
        coeff = -bernoulli(k) / math.factorial(k)
        for x in f.source.space.names:
            fx = f.map.value(x)
            if not fx:
                continue
            for ms in sym_words(M.space.names, mdeg, k):
                acc: dict = {}
                for perm, eps in signed_orderings(ms, mdeg, (1,) * k):
                    lin_acc(acc, nested(bracket_vec(M), fx, perm), eps)
                if acc:
                    out[("a:" + x,) + tuple("b:" + m for m in ms)] = \
                        {"b:" + n: coeff * c for n, c in acc.items()}
    return out


def _mixed_entries(s):
    """The Taylor entries q_{k+1}(a:x, b:m_1..b:m_k), k >= 1, of a Lie cocone."""
    return {key: vec for q in s.taylor.values() for key, vec in q.entries.items()
            if key[0].startswith("a:") and key[-1].startswith("b:")}


# seeds 2, 3 and 5 give M odd letters; every seed repeats an even letter
@pytest.mark.parametrize("seed,weight,has_odd", [
    (0, 6, False), (1, 6, False), (2, 6, True), (3, 6, True), (4, 6, False),
    (5, 6, True), (3, 7, True),
])
def test_cocone_lie_recursion_matches_ordering_sum(seed, weight, has_odd):
    sub, amb, inc = random_filtered_inclusion(seed, 2)
    mixed = _mixed_entries(fm_cocone_lie(inc, max_weight=weight))
    assert mixed == _reference_cocone_lie_brackets(inc, weight)
    # the top arity with a nonzero Bernoulli coefficient is reached
    assert max(len(key) for key in mixed) == weight - (weight % 2 == 0)
    # the fixture covers the letters the recursion must sign and count
    deg = amb.space.degree
    assert any(deg[n[2:]] % 2 for key in mixed for n in key[1:]) == has_odd
    assert any(a == b for key in mixed for a, b in zip(key[1:], key[2:]))


def test_cocone_lie_brackets_once_per_last_letter(monkeypatch):
    # the brackets are the head terms of graded's one walk through the push
    # table of graded.right_products(M.bracket): each pushes one coefficient
    # of a grown word to all the letters whose bracket reads it
    sub, amb, inc = random_filtered_inclusion(0, 2)
    pushes = []
    acc = graded.lin_acc

    def counted_acc(*args):
        if sys._getframe(1).f_code.co_name == "push":
            pushes.append(1)
        return acc(*args)

    monkeypatch.setattr(graded, "lin_acc", counted_acc)
    fm_cocone_lie(inc, max_weight=6)
    # 166 head terms; one ordering at a time makes 5,721 brackets
    assert 0 < len(pushes) <= 170


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cocone_lie_passes_structure_check(seed):
    sub, amb, inc = random_filtered_inclusion(seed, 2)
    assert check_structure(fm_cocone_lie(inc, max_weight=4)).ok


# --- associative cocone ---------------------------------------------------------


def test_cocone_associative_is_dga_and_examples():
    m = random_dga_morphism(3, 2)
    cas = cocone_associative(m)
    assert cas.check().ok
    # (0, sb1) * (0, sb2) = 0
    b1 = "b:" + m.target.space.names[0]
    b2 = "b:" + m.target.space.names[-1]
    assert cas.product.value((b1, b2)) == {}
    # a-components multiply by the source product
    x, y = m.source.space.names[0], m.source.space.names[0]
    want = {"a:" + n: c for n, c in m.source.product.value((x, y)).items()}
    assert cas.product.value(("a:" + x, "a:" + y)) == want


# --- FM A-infinity cocone -------------------------------------------------------


def test_cocone_assoc_low_coefficients():
    m = random_dga_morphism(0, 2)
    s = fm_cocone_assoc(m, max_weight=3)
    A, B = m.source, m.target
    a = A.space.names[0]
    b = B.space.names[0]
    fa = m.map.value(a)
    # i=0, j=1: q2(a (x) b) = 1/2 f(a) b
    want = {"b:" + n: c / 2 for n, c in B.mul(fa, lin_single(b)).items()}
    assert s.taylor[2].value(("a:" + a, "b:" + b)) == want
    # i=1, j=0: q2(b (x) a) = -1/2 (-1)^{|b|} b f(a)
    sgn = Fraction(-1, 2) * ((-1) ** B.space.degree[b])
    want = {"b:" + n: c * sgn for n, c in B.mul(lin_single(b), fa).items()}
    assert s.taylor[2].value(("b:" + b, "a:" + a)) == want


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cocone_assoc_symmetrizes_to_cocone_lie(seed):
    m = random_dga_morphism(seed, 2)
    sym = symmetrize_structure(fm_cocone_assoc(m, max_weight=4))
    lie = fm_cocone_lie(commutator_dgla_morphism(m), max_weight=4)
    for k in set(sym.taylor) | set(lie.taylor):
        assert sym.taylor.get(k) == lie.taylor.get(k), k


# --- exp/log ---------------------------------------------------------------------


def truncated_polynomial_dga(top=7):
    """Non-unital Q[u]/(u^{top+1}) in degree 0 with zero differential."""
    sp = GradedSpace([("u%d" % i, 0) for i in range(1, top + 1)])
    prod = MultilinearMap(sp, sp, 0, 2, TENSOR)
    for i in range(1, top + 1):
        for j in range(1, top + 1):
            if i + j <= top:
                prod.set_entry(("u%d" % i, "u%d" % j), lin_single("u%d" % (i + j)))
    return DgAlgebra(sp, GradedMap(sp, sp, 1), prod)


def test_dga_morphism_product_failure_names_first_pair():
    # 2*id is a chain map but not multiplicative: u1*u1 = u2 is the first
    # nonzero product in basis order
    A = truncated_polynomial_dga(3)
    rep = DgaMorphism(A, A, GradedMap.identity(A.space).scale(2)).check()
    assert [c["ok"] for c in rep.checks] == [True, False]
    fail = rep.first_failure()
    assert fail["label"] == "multiplicative"
    assert fail["witness"] == ("u1", "u1")
    assert fail["weight"] is None
    assert rep.lines()[1] == ("RELATION multiplicative weight=- tuple=(u1,u1) "
                              "lhs=- rhs=- status=FAIL")


def test_exp_log_unit_coefficients():
    A = truncated_polynomial_dga(4)
    m = DgaMorphism(A, A, GradedMap.identity(A.space))
    E, L = exp_log_isos(m, max_weight=4)
    # e1 = l1 = id
    for n in E.source.space.names:
        assert E.taylor[1].value((n,)) == {n: Fraction(1)}
        assert L.taylor[1].value((n,)) == {n: Fraction(1)}
    # e2 = 1/2 b1 b2, l2 = -1/2 b1 b2
    assert E.taylor[2].value(("b:u1", "b:u1")) == {"b:u2": Fraction(1, 2)}
    assert L.taylor[2].value(("b:u1", "b:u1")) == {"b:u2": Fraction(-1, 2)}


def is_identity_morphism(comp):
    for n in comp.source.space.names:
        if comp.taylor[1].value((n,)) != {n: Fraction(1)}:
            return False
    return all(k == 1 or comp.taylor[k].is_zero() for k in comp.taylor)


@pytest.mark.parametrize("seed", [0, 1])
def test_exp_log_mutually_inverse_and_morphisms(seed):
    m = random_dga_morphism(seed, 2)
    E, L = exp_log_isos(m, max_weight=5)
    assert check_morphism(E).ok
    assert check_morphism(L).ok
    assert is_identity_morphism(compose_morphisms(E, L, max_weight=5))
    assert is_identity_morphism(compose_morphisms(L, E, max_weight=5))


def _bumped(family, k, rng):
    """A copy of a Taylor family with one stored coefficient of arity k raised
    by 1 (a planted fault)."""
    word = rng.choice(sorted(family[k].entries))
    return _bumped_at(family, k, word, rng.choice(sorted(family[k].entries[word])))


def _bumped_at(family, k, word, name):
    """A copy of a Taylor family with the coefficient of `name` in t_k(word)
    raised by 1."""
    out = dict(family)
    src = family[k]
    t = MultilinearMap(src.source, src.target, src.degree, src.arity, src.flavor)
    for w, vec in src.entries.items():
        t.set_entry(w, vec)
    t.add_entry(word, {name: 1})
    out[k] = t
    return out


def _entries(F):
    return {n: q.entries for n, q in F.taylor.items()}


def _assert_reports_equal(pushed, pulled, where):
    assert not pushed.ok, where
    assert pushed.lines() == pulled.lines(), where


@pytest.mark.parametrize("seed", range(6))
def test_planted_faults_pushed_reports_equal_pulled(seed):
    # one bumped coefficient at a time: the pushed checks report every weight
    # exactly as the word-by-word pull does, witness and lhs included, and the
    # pushed composites and inverses equal the pulled ones, in both flavors
    rng = random.Random("planted:%d" % seed)
    E, L = exp_log_isos(random_dga_morphism(seed, 2), max_weight=4)
    sE = symmetrize_morphism(E)
    assert _entries(invert_morphism(sE)) == _entries(pull_invert(sE))
    for k in range(1, 5):
        bad = OoMorphism(L.source, L.target, _bumped(L.taylor, k, rng))
        _assert_reports_equal(check_morphism(bad), pull_check_morphism(bad), k)
        assert _entries(compose_morphisms(E, bad)) == _entries(pull_compose(E, bad)), k
        sbad = symmetrize_morphism(bad, sE.target, sE.source)
        assert check_morphism(sbad).lines() == pull_check_morphism(sbad).lines(), k
        assert _entries(compose_morphisms(sE, sbad)) == _entries(pull_compose(sE, sbad)), k
        if k > 1:
            assert _entries(invert_morphism(sbad)) == _entries(pull_invert(sbad)), k
    cinf = fm_cocone_assoc(random_dga_morphism(seed, 2), max_weight=4)
    bad = OoStructure(cinf.space, TENSOR, _bumped(cinf.taylor, 3, rng), 4)
    _assert_reports_equal(check_structure(bad), pull_check_structure(bad), "assoc")
    # the FM Lie cocone has odd letters and keys that repeat an even letter,
    # so the symmetric push meets Koszul signs and multiplicity weights; its
    # pushed residuals equal the pulled ones on every word, not only the witness
    _, _, inc = random_filtered_inclusion(seed, 2)
    lie = fm_cocone_lie(inc, max_weight=5)
    deg = lie.space.degree
    assert any(deg[n] % 2 for n in lie.space.names)
    assert any(len(set(K)) < len(K) for q in lie.taylor.values() for K in q.entries)
    for k in sorted(lie.taylor):
        bad = OoStructure(lie.space, SYMMETRIC, _bumped(lie.taylor, k, rng), 5)
        _assert_reports_equal(check_structure(bad), pull_check_structure(bad), ("lie", k))
        for n in range(1, 6):
            pulled = {w: square_residual(bad, w) for w in bad.basis_words(n)}
            assert in_basis_order(bad.space, push_insertion(bad.taylor, bad.taylor, n)) == \
                [(w, v) for w, v in pulled.items() if v], ("lie", k, n)
    # every single bumped f_k of the split period map, on the torus and a
    # lambda fixture: on the torus L and Hom*(W, A) carry zero structures, so
    # no bump shows in either check; on the lambda fixtures some f_1 bumps do
    fpd = torus_package(2)[2] if seed % 2 else lambda_cartan_fixture(seed // 2, 2, 1)[1]
    Pi, _ = split_period_map(fpd, max_weight=3)
    caught = 0
    for k, fk in Pi.taylor.items():
        for word, vec in fk.entries.items():
            for name in vec:
                bad = OoMorphism(Pi.source, Pi.target, _bumped_at(Pi.taylor, k, word, name))
                pushed = check_morphism(bad)
                assert pushed.lines() == pull_check_morphism(bad).lines(), (k, word, name)
                caught += not pushed.ok
    assert (caught == 0) == (seed % 2 == 1)


def test_exp_log_series_coefficients_closed_form():
    # C_{0,j} = (-1)^{j+1}/(j+1); C_{i,j} = (-1)^{i+j+1}/(i+j+1)+(-1)^{i+j}/(i+j)
    C = phi_compose_coefficients(8)
    for i in range(0, 7):
        for j in range(0, 7 - i):
            if i + j == 0:
                continue
            got = C.get((i, j), Fraction(0))
            if i == 0:
                want = Fraction((-1) ** (j + 1), j + 1)
            else:
                want = Fraction((-1) ** (i + j + 1), i + j + 1) + \
                    Fraction((-1) ** (i + j), i + j)
            assert got == want, (i, j)


def test_exp_log_relation_coefficient_matches_series_on_polynomial_fixture():
    # extract the coefficient of the composite relation sum_i q_i L^i_k on a
    # word b^i (x) a (x) b^j over Q[u]/(u^8) and compare with the series C_{i,j}
    A = truncated_polynomial_dga(7)
    m = DgaMorphism(A, A, GradedMap.identity(A.space))
    E, L = exp_log_isos(m, max_weight=6)
    cinf = L.target
    C = phi_compose_coefficients(8)
    from hoalg.graded import lin_acc
    for i, j in [(0, 1), (1, 0), (1, 1), (0, 3), (2, 1), (2, 2)]:
        k = i + j + 1
        word = tuple(["b:u1"] * i + ["a:u1"] + ["b:u1"] * j)
        acc = {}
        for arity in range(1, k + 1):
            q = cinf.taylor.get(arity)
            if q is None:
                continue
            for tup, c in morph_component(L, arity, k, word).items():
                lin_acc(acc, q.value(tup), c)
        # all b-degrees are 0, so acc = C_{i,j} * b:(u1^i f(u1) u1^j) = C_{i,j} b:u_k
        want = C.get((i, j), Fraction(0))
        assert acc.get("b:u%d" % k, Fraction(0)) == want, (i, j)


# --- derived products -------------------------------------------------------------


def end_dga_splitting(seed, dim=3):
    V, d, M, comp, stable = end_splitting(seed, dim)
    return Splitting(end_dga(V, d), comp)


def test_nested_projection_example_g21():
    # g^{2,1}(b1 (x) b2 (x) b3) = P(b1 b2 P(b3)) shows up inside g_{As,3}
    sp = end_dga_splitting(0, 3)
    dp = derived_products_model(sp, max_weight=3)
    amb = sp.ambient
    # pick b's so that the nested product is nonzero where possible
    g3 = dp.G_as.taylor.get(3)
    total_parts = list(_compositions(3))
    assert len(total_parts) == 4  # 2^{k-1} ordered partitions of k = 3
    if g3 is not None:
        word = next(iter(g3.entries))
        bs = [w.split(":", 1)[1] for w in word]
        acc = {}
        from hoalg.graded import lin_acc
        for part in total_parts:
            val = nested_projection(amb, sp.P, bs, part)
            lin_acc(acc, val, (-1) ** (3 + len(part)))
        assert acc == g3.value(word)


def _compositions(k):
    out = []
    for j in range(1, k + 1):
        def rec(total, parts):
            if parts == 1:
                yield (total,)
                return
            for first in range(1, total - parts + 2):
                for rest in rec(total - first, parts - 1):
                    yield (first,) + rest
        out.extend(rec(k, j))
    return out


def nested_projection(amb, P, names, part):
    acc = None
    pos = len(names)
    for size in reversed(part):
        block = names[pos - size:pos]
        pos -= size
        vec = lin_single(block[0])
        for b in block[1:]:
            vec = amb.mul(vec, lin_single(b))
            if not vec:
                return {}
        if acc is not None:
            vec = amb.mul(vec, acc)
            if not vec:
                return {}
        acc = P.apply(vec)
        if not acc:
            return {}
    return acc


def test_partition_identity_exact():
    # sum over compositions of i of (-1)^{p+i}/prod h! is 1/i!
    for i in range(1, 9):
        assert split_period_coefficient(i, 0) == 1


def reference_g(split, word, coeff):
    """g_k on an unprefixed word as the sum over all compositions of k of
    coeff(part) * P(block_1 . P(block_2 . ... P(block_j))): the oracle for
    the first-block recursion of derived_products_model."""
    acc = {}
    for part in _compositions(len(word)):
        lin_acc(acc, nested_projection(split.ambient, split.P, word, part), coeff(part))
    return acc


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_derived_g_recursion_matches_composition_sum(seed):
    V, d, ambient, comp, _ = end_splitting(seed, lie=False)
    split = Splitting(ambient, comp)
    dp = derived_products_model(split, max_weight=4)
    k_sign = lambda part: (-1) ** (sum(part) + len(part))
    coeffs = ((dp.G_as, k_sign),
              (dp.G_inf, lambda part: Fraction(k_sign(part),
                                               math.prod(map(math.factorial, part)))))
    nonzero = 0
    for k in range(1, 5):
        for word in itertools.product(ambient.space.names, repeat=k):
            bword = tuple(B_PRE + n for n in word)
            for G, coeff in coeffs:
                got = G.taylor[k].value(bword) if k in G.taylor else {}
                assert got == reference_g(split, word, coeff), (k, word)
                nonzero += bool(got)
    assert nonzero


@pytest.mark.parametrize("seed", [0, 1])
def test_derived_products_full_suite(seed):
    sp = end_dga_splitting(seed, 3)
    dp = derived_products_model(sp, max_weight=4)
    assert check_contraction(dp.contraction).ok
    assert check_structure(dp.structure).ok
    for mor in (dp.F_as, dp.F_inf, dp.G_as, dp.G_inf):
        assert check_morphism(mor).ok
    E, L = exp_log_isos(dp.inclusion, max_weight=4)
    lhs = compose_morphisms(L, dp.F_as)
    for k in set(lhs.taylor) | set(dp.F_inf.taylor):
        assert lhs.taylor.get(k) == dp.F_inf.taylor.get(k)
    rhs = compose_morphisms(dp.G_as, E)
    for k in set(rhs.taylor) | set(dp.G_inf.taylor):
        assert rhs.taylor.get(k) == dp.G_inf.taylor.get(k)


def test_exp_log_isos_reuses_the_cocones_it_is_given():
    dp = derived_products_model(end_dga_splitting(0, 3), max_weight=4)
    shared = exp_log_isos(dp.inclusion, 4, cocones=(dp.cocone_inf, dp.cocone_as))
    assert shared[0].source is dp.cocone_inf and shared[0].target is dp.cocone_as
    for got, want in zip(shared, exp_log_isos(dp.inclusion, 4)):
        assert _entries(got) == _entries(want)
        assert _entries(got.source) == _entries(want.source)


def test_cocone_derived_builds_the_fm_cocone_once(monkeypatch):
    # exp_log_isos reads the cocones derived_products_model returned
    calls = []
    build = cocone.fm_cocone_assoc

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(cocone, "fm_cocone_assoc", counting)
    with redirect_stdout(io.StringIO()) as out:
        code = run(["--max-weight", "4", "cocone", "derived", "--example", "r:1"])
    assert code == 0 and out.getvalue().endswith("result: PASS\n")
    assert len(calls) == 1


def test_derived_products_rejects_bad_complement():
    V, d = random_complex(0, 2)
    A = end_dga(V, d)
    # complement = everything: not square-zero unless the algebra is
    with pytest.raises(RejectedInput):
        derived_products_model(Splitting(A, A.space.names), max_weight=3)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fm_cocone_transfer_gives_the_derived_model(seed):
    # the model is transferred from the associative cocone; transferring the
    # Bernoulli cocone along the same contraction, validated, gives the same
    # structure, F_inf's coefficients and the closed-form nested projections
    # of G_inf
    from hoalg.transfer import transfer_quasi_inverse, transfer_structure
    dp = derived_products_model(end_dga_splitting(seed, 3), max_weight=5)
    small, F = transfer_structure(dp.cocone_inf, dp.contraction, max_weight=5)
    assert small.taylor.keys() == dp.structure.taylor.keys()
    assert all(small.taylor[k] == dp.structure.taylor[k] for k in small.taylor)
    assert F.taylor.keys() == dp.F_inf.taylor.keys()
    assert all(F.taylor[k] == dp.F_inf.taylor[k] for k in F.taylor)
    G = transfer_quasi_inverse(dp.cocone_inf, dp.contraction, F, max_weight=5)
    assert G.taylor.keys() == dp.G_inf.taylor.keys() and len(G.taylor) > 2
    assert all(G.taylor[k] == dp.G_inf.taylor[k] for k in G.taylor)


# --- voronov ---------------------------------------------------------------------


def test_voronov_action_zero_component_is_projection():
    V, d, M, comp, stable = end_splitting(0, 3)
    sp = Splitting(M, comp)
    _, action = voronov_brackets(sp, max_weight=3)
    for m in M.space.names:
        assert action.value((m,), ()) == sp.P.value(m)


def test_voronov_hand_example_phi2():
    # M = <n (deg 1)> + <a1, a2 (deg 0), b (deg 1)>, d a_i = n, [n, a_i] = b:
    # Leibniz on [a1, a2] = 0 forces [n, a1] = [n, a2]; then
    # Phi(d)_2(a1 . a2) = P[d a1, a2] = P[n, a2] = b by hand expansion.
    sp_space = GradedSpace([("n", 1), ("a1", 0), ("a2", 0), ("b", 1)])
    d = GradedMap(sp_space, sp_space, 1)
    d.set("a1", lin_single("n"))
    d.set("a2", lin_single("n"))
    br = MultilinearMap(sp_space, sp_space, 0, 2, TENSOR)
    for a in ("a1", "a2"):
        br.set_entry(("n", a), lin_single("b"))
        br.set_entry((a, "n"), {"b": Fraction(-1)})
    from hoalg.coalg import DgLieAlgebra
    M = DgLieAlgebra(sp_space, d, br)
    assert M.check().ok
    split = Splitting(M, ["a1", "a2", "b"])
    assert split.check("abelian").ok
    phi, action = voronov_brackets(split, max_weight=3)
    assert phi.taylor[2].value(("a1", "a2")) == {"b": Fraction(1)}
    assert check_structure(phi).ok


def test_voronov_flat_case_no_higher_brackets():
    # d(A) <= A and [dA, A] <= N: Phi(d)_k = 0 for k >= 2
    sp_space = GradedSpace([("n", 1), ("a", 0), ("b", 1)])
    d = GradedMap(sp_space, sp_space, 1)
    d.set("a", lin_single("b"))
    br = MultilinearMap(sp_space, sp_space, 0, 2, TENSOR)
    from hoalg.coalg import DgLieAlgebra
    M = DgLieAlgebra(sp_space, d, br)
    split = Splitting(M, ["a", "b"])
    phi, _ = voronov_brackets(split, max_weight=4)
    assert all(k == 1 for k in phi.taylor)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_voronov_structure_checks(seed):
    V, d, M, comp, stable = end_splitting(seed, 3)
    phi, _ = voronov_brackets(Splitting(M, comp), max_weight=4)
    assert check_structure(phi).ok


# --- two-block gluing -------------------------------------------------------------


def test_glued_structure_sums_overlaps_and_drops_high_terms():
    # a mixed term on a word of a block's own structure is summed with that
    # entry, down to nothing where they cancel, and a term above max_weight
    # is dropped, not stored
    X = GradedSpace([("x", 0), ("y", 1)])
    U = GradedSpace([("u", 0), ("v", 1)])
    space = graded.pair_space(X, U)
    first = {1: MultilinearMap(X, X, 1, 1, SYMMETRIC).store({("x",): {"y": 2}})}
    second = {2: MultilinearMap(U, U, 1, 2, SYMMETRIC).store({("u", "u"): {"v": 3}})}
    terms = [(1, ("a:x",), {"a:y": 1, "b:v": 5}, Fraction(1, 2)),
             (2, ("b:u", "b:u"), {"b:v": 1}, -3),
             (2, ("a:x", "b:u"), {"b:v": 2}, 2),
             (3, ("a:x", "a:x", "b:u"), {"b:v": 1}, 1)]
    glued = cocone.glued_structure(space, first, second, terms, 2)
    assert glued.space == space and glued.flavor == SYMMETRIC and glued.max_weight == 2
    assert sorted(glued.taylor) == [1, 2]
    assert glued.taylor[1].entries == {("a:x",): {"a:y": Fraction(5, 2), "b:v": Fraction(5, 2)}}
    assert glued.taylor[2].entries == {("a:x", "b:u"): {"b:v": 4}}
    assert type(glued.taylor[2].entries[("a:x", "b:u")]["b:v"]) is int
    # the blocks' own maps are read, not changed
    assert first[1].entries == {("x",): {"y": 2}} and second[2].entries == {("u", "u"): {"v": 3}}


# --- semidirect products ----------------------------------------------------------


def test_semidirect_zero_action_is_product():
    from fixture_helpers import random_end_dgla, sl2_dgla
    I = decalage_dgla(random_end_dgla(0, 2), max_weight=3)
    M = decalage_dgla(sl2_dgla(), max_weight=3)
    action = CoderAction(M.space, I.space)
    sd = semidirect_product(I, M, action, max_weight=3)
    assert check_structure(sd).ok
    for k, q in sd.taylor.items():
        for word in q.entries:
            kinds = {w[:2] for w in word}
            assert len(kinds) == 1  # no mixed brackets


def test_semidirect_classical_action_matches_bracket_table():
    # abelian ideal Q^2 acted on by a 1-dim Lie algebra t: t.e1 = e2:
    # semidirect product = the classical one, all at degree-0-in-L level
    Isp = GradedSpace([("e1", -1), ("e2", -1)])
    I = abelian_dgla(Isp.shifted(-1), GradedMap(Isp.shifted(-1), Isp.shifted(-1), 1))
    from hoalg.coalg import OoStructure
    Idec = OoStructure(Isp, SYMMETRIC, {}, 3)
    Msp = GradedSpace([("t", -1)])
    Mdec = OoStructure(Msp, SYMMETRIC, {}, 3)
    action = CoderAction(Msp, Isp)
    action.set(("t",), ("e1",), lin_single("e2"))
    sd = semidirect_product(Idec, Mdec, action, max_weight=3)
    assert check_structure(sd).ok
    # mixed bracket: q2(e1 . t) = (s phi(t)(e1), 0); canonical order (a:e1, b:t)
    got = sd.taylor[2].value(("a:e1", "b:t"))
    # block swap from (m; i) formula order to (i, m) word: (-1)^{|e1||t|} = -1
    assert got == {"a:e2": Fraction(-1)}
    # and the classical Jacobi/compatibility is exactly check_structure passing


def test_semidirect_with_voronov_action_checks():
    V, d, M, comp, stable = end_splitting(1, 3)
    sp = Splitting(M, comp)
    phi, action = voronov_brackets(sp, max_weight=4)
    Mdec = decalage_dgla(M, max_weight=4)
    act = CoderAction(Mdec.space, phi.space)
    for (j, k), table in action.comps.items():
        for (mt, it), vec in table.items():
            act.set(mt, it, vec)
    sd = semidirect_product(phi, Mdec, act, max_weight=4)
    assert check_structure(sd).ok


@pytest.mark.parametrize("seed", range(3))
def test_voronov_action_lives_on_the_decalage(seed):
    # the action feeds semidirect_product without re-keying its m-symbols
    V, d, M, comp, stable = end_splitting(seed, 3)
    phi, action = voronov_brackets(Splitting(M, comp), max_weight=4)
    Mdec = decalage_dgla(M, max_weight=4)
    assert action.m_space == Mdec.space
    sd = semidirect_product(phi, Mdec, action, max_weight=4, validate=False)
    assert check_structure(sd).ok


def test_semidirect_rejects_bad_action():
    # I carries a differential; the action of the closed generator t fails to
    # intertwine with it, so the would-be product violates [Q,Q] = 0
    Isp = GradedSpace([("e", 0), ("de", 1)])
    dI = MultilinearMap(Isp, Isp, 1, 1, SYMMETRIC)
    dI.set_entry(("e",), lin_single("de"))
    from hoalg.coalg import OoStructure
    I = OoStructure(Isp, SYMMETRIC, {1: dI}, 3)
    Msp = GradedSpace([("t", -1)])
    M = OoStructure(Msp, SYMMETRIC, {}, 3)
    action = CoderAction(Msp, Isp)
    action.set(("t",), ("e",), lin_single("e"))
    with pytest.raises(RejectedInput):
        semidirect_product(I, M, action, max_weight=3)


def test_semidirect_and_fiber_reject_what_they_cannot_read_off():
    # the mixed words are read off the stored keys, so the action must live
    # on I's and M's spaces, and f_j on sorted words
    V, d, M, comp, stable = end_splitting(1, 3)
    sp = Splitting(M, comp)
    phi, action = voronov_brackets(sp, max_weight=3)
    Mdec = decalage_dgla(M, max_weight=3)
    with pytest.raises(MalformedInput):
        semidirect_product(phi, Mdec, CoderAction(phi.space, Mdec.space), max_weight=3)
    sub, _, _ = end_preserving_sub_dgla(V, d, stable)
    tensor_F = OoMorphism(OoStructure(sub.space.shifted(1), TENSOR, {}, 3),
                          OoStructure(Mdec.space, TENSOR, {}, 3), {})
    with pytest.raises(MalformedInput):
        fiber_product_model(sub, sp, tensor_F, max_weight=3)


# --- strictification ---------------------------------------------------------------


def test_strictify_already_strict_is_identity_factorization():
    sub, amb, inc = random_filtered_inclusion(0, 2)
    # projection fibration: M -> M is trivially strict; use sym transfer G below
    F = decalage_dgla_morphism(inc, max_weight=3)
    # not surjective; build a surjective strict one instead: identity
    dec = F.target
    ident = OoMorphism(dec, dec, {1: F.taylor[1] and
                                  _identity_taylor(dec.space)})
    G, tilde, strict = strictify_fibration(ident)
    assert all(k == 1 for k in G.taylor)
    for k in set(tilde.taylor) | set(dec.taylor):
        assert tilde.taylor.get(k) == dec.taylor.get(k)


def _identity_taylor(space):
    m = MultilinearMap(space, space, 0, 1, SYMMETRIC)
    for n in space.names:
        m.set_entry((n,), lin_single(n))
    return m


def test_strictify_invertible_linear_part_forced_choice():
    # f1 invertible: g_k = f1^{-1} f_k and the factorization is exact
    from fixture_helpers import random_end_dgla
    L = decalage_dgla(random_end_dgla(2, 2), max_weight=4)
    sp = L.space
    f1 = MultilinearMap(sp, sp, 0, 1, SYMMETRIC)
    for n in sp.names:
        f1.set_entry((n,), {n: Fraction(2)})
    # a nonzero f2 compatible as a morphism into the same structure is hard to
    # guess; instead factor F = 2*id as an iso composed with itself
    F = OoMorphism(L, L, {1: f1})
    G, tilde, strict = strictify_fibration(F)
    comp = compose_morphisms(strict, G)
    for k in set(comp.taylor) | set(F.taylor):
        assert comp.taylor.get(k) == F.taylor.get(k)


def test_strictify_genuine_fibration_from_transfer():
    # the symmetrized transfer quasi-inverse G: big -> small is a fibration
    # with nontrivial higher coефficients; its factorization must compose back
    from hoalg.transfer import transfer_quasi_inverse, transfer_structure
    from hoalg.coalg import decalage_dga
    from hoalg.fixtures import harmonic_contraction, random_end_dga
    big = decalage_dga(random_end_dga(0, 2), max_weight=3)
    bigd = GradedMap(big.space, big.space, 1)
    if 1 in big.taylor:
        for (n,), vec in big.taylor[1].entries.items():
            bigd.set(n, vec)
    c = harmonic_contraction(big.space, bigd)
    small, F = transfer_structure(big, c, max_weight=3)
    G = transfer_quasi_inverse(big, c, F, max_weight=3)
    if small.space.dim == 0:
        pytest.skip("acyclic fixture")
    Gl = symmetrize_morphism(G)
    has_higher = any(k >= 2 for k in Gl.taylor)
    iso, tilde, strict = strictify_fibration(Gl)
    comp = compose_morphisms(strict, iso)
    for k in set(comp.taylor) | set(Gl.taylor):
        assert comp.taylor.get(k) == Gl.taylor.get(k), k
    assert check_structure(tilde).ok
    if has_higher:
        assert any(k >= 2 for k in iso.taylor)


def test_strictify_rejects_non_surjective():
    sub, amb, inc = random_filtered_inclusion(6, 2)
    F = decalage_dgla_morphism(inc, max_weight=3)
    if sub.space.dim == amb.space.dim:
        pytest.skip("inclusion is onto")
    with pytest.raises(RejectedInput):
        strictify_fibration(F)


# --- fiber products -----------------------------------------------------------------


def test_fiber_product_zero_morphism_is_voronov_times_base():
    V, d, M, comp, stable = end_splitting(0, 3)
    sp = Splitting(M, comp)
    sub, amb2, inc = end_preserving_sub_dgla(V, d, stable)
    Mdec = decalage_dgla(M, max_weight=4)
    Ldec = decalage_dgla(sub, max_weight=4)
    F0 = OoMorphism(Ldec, Mdec, {})
    fp = fiber_product_model(sub, sp, F0, max_weight=4)
    assert check_structure(fp).ok
    phi, _ = voronov_brackets(sp, max_weight=4)
    for k, q in phi.taylor.items():
        for word, vec in q.entries.items():
            assert fp.taylor[k].value(tuple("a:" + n for n in word)) == \
                {"a:" + n: c for n, c in vec.items()}


def test_fiber_product_q1_formula():
    V, d, M, comp, stable = end_splitting(1, 3)
    sp = Splitting(M, comp)
    sub, _, inc = end_preserving_sub_dgla(V, d, stable)
    F = decalage_dgla_morphism(inc, max_weight=4,
                               target=decalage_dgla(M, max_weight=4))
    fp = fiber_product_model(sub, sp, F, max_weight=4)

    def q1_of(word):
        q = fp.taylor.get(1)
        return q.value(word) if q is not None else {}

    # q1(a) = (P(da), 0); q1(s^{-1}x) = (P(f1 x), -s^{-1} d x)
    for a in comp:
        want = {"a:" + n: c for n, c in sp.P.apply(M.d.value(a)).items()}
        assert q1_of(("a:" + a,)) == want
    for x in sub.space.names:
        want = {"a:" + n: c for n, c in sp.P.apply(inc.map.value(x)).items()}
        for n, c in sub.d.value(x).items():
            want["b:" + n] = -c
        assert q1_of(("b:" + x,)) == want


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fiber_product_passes_structure_check(seed):
    V, d, M, comp, stable = end_splitting(seed, 3)
    sp = Splitting(M, comp)
    sub, _, inc = end_preserving_sub_dgla(V, d, stable)
    F = decalage_dgla_morphism(inc, max_weight=4,
                               target=decalage_dgla(M, max_weight=4))
    assert check_structure(fiber_product_model(sub, sp, F, max_weight=4)).ok


def test_fiber_product_nonstrict_morphism():
    # abelian L with f1 = 0 and f2 valued in a closed square-zero degree-1
    # endomorphism: an honest non-strict morphism into M[1]
    from hoalg.graded import elementary_to_graded_map
    V, d, M, comp, stable = end_splitting(1, 3)
    sp = Splitting(M, comp)
    Lsp = GradedSpace([("p", 1), ("q", 1)])
    Label = abelian_dgla(Lsp, GradedMap(Lsp, Lsp, 1))
    Ldec = decalage_dgla(Label, max_weight=4)
    Mdec = decalage_dgla(M, max_weight=4)
    vee = None
    for v in map_kernel_basis(M.d):
        if M.space.vector_degree(v) != 1:
            continue
        gm = elementary_to_graded_map(v, M.space, V, V, 1)
        if gm.compose(gm).is_zero():
            vee = v
            break
    assert vee is not None
    f2 = MultilinearMap(Ldec.space, Mdec.space, 0, 2, SYMMETRIC)
    f2.set_entry(("p", "q"), vee)
    F2 = OoMorphism(Ldec, Mdec, {2: f2})
    assert not is_strict(F2)
    assert check_morphism(F2).ok
    fp = fiber_product_model(Label, sp, F2, max_weight=4)
    assert check_structure(fp).ok
    assert fp.taylor  # the mixed [s f_2, a]-family survives


def test_fiber_product_a_restriction_is_voronov_for_any_morphism():
    # the pure-complement brackets agree with the derived brackets even when
    # the morphism is nonzero
    V, d, M, comp, stable = end_splitting(1, 3)
    sp = Splitting(M, comp)
    sub, _, inc = end_preserving_sub_dgla(V, d, stable)
    F = decalage_dgla_morphism(inc, max_weight=4,
                               target=decalage_dgla(M, max_weight=4))
    fp = fiber_product_model(sub, sp, F, max_weight=4)
    phi, _ = voronov_brackets(sp, max_weight=4)
    for k in range(1, 5):
        q = phi.taylor.get(k)
        qq = fp.taylor.get(k)
        words = set(q.entries) if q else set()
        if qq is not None:
            words |= {tuple(n[2:] for n in w) for w in qq.entries
                      if all(n.startswith("a:") for n in w)}
        for word in words:
            want = {"a:" + n: c for n, c in (q.value(word) if q else {}).items()}
            got = {n: c for n, c in
                   (qq.value(tuple("a:" + w for w in word)) if qq else {}).items()
                   if True}
            assert got == want, (k, word)


# --- every builder against its word-by-word loop ------------------------------------


def _taylor_entries(taylor: dict) -> dict:
    return {k: dict(q.entries) for k, q in taylor.items() if not q.is_zero()}


def _with_arbitrary_f2(F, seed):
    """F with an f_2 that sends each sorted pair of letters, where the degrees
    allow, to a seeded vector: not a morphism, but the j = 2 words of
    fiber_product_model then read a nonzero f_2."""
    src, tgt = F.source.space, F.target.space
    rng = random.Random("f2:%d" % seed)
    f2 = MultilinearMap(src, tgt, 0, 2, SYMMETRIC)
    for word in sym_words(src.names, src.degree, 2):
        outs = [n for n in tgt.names if tgt.degree[n] == src.degree[word[0]] + src.degree[word[1]]]
        if outs:
            f2.set_entry(word, {n: rng.choice((-2, -1, 1, 2))
                                for n in rng.sample(outs, min(2, len(outs)))})
    return OoMorphism(F.source, F.target, {1: F.taylor[1], 2: f2})


def _letters(structure) -> tuple:
    """(some key has an odd letter, some key repeats a letter) over the
    stored keys of a symmetric structure; a repeated letter is even."""
    degree = structure.space.degree
    keys = [key for q in structure.taylor.values() for key in q.entries]
    return (any(degree[n] % 2 for key in keys for n in key),
            any(a == b for key in keys for a, b in zip(key, key[1:])))


# (seed, dim) with a degree-0 f_2 possible; odd: some stored key of the
# semidirect or fiber product has an odd letter; repeat: some key repeats a
# (necessarily even) letter
@pytest.mark.parametrize("seed,dim,odd,repeat", [
    (1, 3, True, True), (2, 2, True, False), (2, 3, True, True), (3, 2, True, False),
    (3, 3, True, True), (5, 2, True, False), (7, 3, True, True), (10, 2, True, False),
])
def test_cocone_builders_match_pull_oracles(seed, dim, odd, repeat):
    weight = 5 if dim == 2 else 4
    # the tensor cocone, exp/log and (on dim 2, where the k! loop is quick)
    # their symmetrizations
    f = random_dga_morphism(seed, dim)
    assert _taylor_entries(fm_cocone_assoc(f, weight).taylor) == \
        _taylor_entries(pull_fm_cocone_assoc(f, weight).taylor)
    for got, want in zip(exp_log_isos(f, weight), pull_exp_log_isos(f, weight)):
        assert _taylor_entries(got.taylor) == _taylor_entries(want.taylor)
        for q in got.taylor.values() if dim == 2 else ():
            assert q.symmetrized() == pull_symmetrized(q)
    V, d, ambient, comp, _ = end_splitting(seed, dim, lie=False)
    split = Splitting(ambient, comp)
    dp = derived_products_model(split, weight - 1)
    for G, c in ((dp.G_as, lambda m: sign_pow(m + 1)),
                 (dp.G_inf, lambda m: Fraction(sign_pow(m + 1), math.factorial(m)))):
        assert _taylor_entries(G.taylor) == _taylor_entries(pull_g_taylor(
            split, dp.contraction, dp.cocone_inf.space, weight - 1, c))
    # the symmetric builders on one abelian splitting of End(V)
    V, d, M, comp, stable = end_splitting(seed, dim)
    split = Splitting(M, comp)
    phi, action = voronov_brackets(split, weight)
    assert _taylor_entries(phi.taylor) == _taylor_entries(
        {k: pull_derived_brackets(split, k) for k in range(1, weight + 1)})
    assert {jk: c for jk, c in action.comps.items() if c} == \
        {jk: c for jk, c in pull_voronov_action(split, weight).comps.items() if c}
    Mdec = decalage_dgla(M, max_weight=weight)
    sd = semidirect_product(phi, Mdec, action, weight, validate=False)
    assert _taylor_entries(sd.taylor) == \
        _taylor_entries(pull_semidirect_product(phi, Mdec, action, weight).taylor)
    sub, _, inc = end_preserving_sub_dgla(V, d, stable)
    F = _with_arbitrary_f2(decalage_dgla_morphism(inc, max_weight=weight, target=Mdec), seed)
    assert 2 in F.taylor
    fp = fiber_product_model(sub, split, F, weight)
    assert _taylor_entries(fp.taylor) == \
        _taylor_entries(pull_fiber_product_model(sub, split, F, weight).taylor)
    flags = [_letters(s) for s in (sd, fp)]
    assert (any(o for o, _ in flags), any(r for _, r in flags)) == (odd, repeat)


def _rescaling(space, shift):
    """x -> lam[x] x, cycling lam through 1/2, 3, 2/3 along the basis from shift."""
    cycle = (Fraction(1, 2), Fraction(3), Fraction(2, 3))
    return {x: cycle[(i + shift) % 3] for i, x in enumerate(space.names)}


def _rescaled(alg, lam):
    """alg in the basis x' = lam[x] x: the isomorphic DG (Lie) algebra on the
    same names, whose d and product or bracket carry lam's denominators."""
    sp = alg.space
    op = alg.bracket if isinstance(alg, DgLieAlgebra) else alg.product
    d = GradedMap(sp, sp, 1, {x: {z: lam[x] * c / lam[z] for z, c in vec.items()}
                              for x, vec in alg.d.entries.items()})
    new = MultilinearMap(sp, sp, 0, 2, TENSOR)
    for (x, y), vec in op.entries.items():
        new.set_entry((x, y), {z: lam[x] * lam[y] * c / lam[z] for z, c in vec.items()})
    out = type(alg)(sp, d, new)
    assert out.check().ok
    return out


def _rescaled_morphism(f):
    """f conjugated by diagonal rescalings of its source and target bases
    (v -> v/2, w -> 3w, ..): an isomorphic morphism with denominators in
    the product or bracket and in f."""
    lam, mu = _rescaling(f.source.space, 0), _rescaling(f.target.space, 1)
    gmap = GradedMap(f.map.source, f.map.target, 0,
                     {x: {z: lam[x] * c / mu[z] for z, c in vec.items()}
                      for x, vec in f.map.entries.items()})
    out = type(f)(_rescaled(f.source, lam), _rescaled(f.target, mu), gmap)
    assert out.check().ok
    return out


def _scales(*maps):
    """The lcm of the denominators of each map's coefficients."""
    return [math.lcm(*(Fraction(c).denominator for vec in m.entries.values()
                       for c in vec.values())) for m in maps]


# Every random_filtered_inclusion and random_dga_morphism key has integral
# brackets, products and f, so the builders' scale D is 1 on all of them;
# rescaled, the walks run at D > 1 and the stored factors divide by it.
@pytest.mark.parametrize("seed", [0, 2, 3, 5])
def test_cocone_builders_at_scale_above_one_match_the_oracles(seed):
    f = _rescaled_morphism(random_filtered_inclusion(seed, 2)[2])
    assert min(_scales(f.target.bracket, f.map)) > 1
    assert _mixed_entries(fm_cocone_lie(f, max_weight=6)) == \
        _reference_cocone_lie_brackets(f, 6)
    assert check_structure(fm_cocone_lie(f, max_weight=4)).ok
    m = _rescaled_morphism(random_dga_morphism(seed, 2))
    assert min(_scales(m.target.product, m.map)) > 1
    assert _taylor_entries(fm_cocone_assoc(m, 5).taylor) == \
        _taylor_entries(pull_fm_cocone_assoc(m, 5).taylor)
    for got, want in zip(exp_log_isos(m, 5), pull_exp_log_isos(m, 5)):
        assert _taylor_entries(got.taylor) == _taylor_entries(want.taylor)


# the other readers of graded.right_products divide their walks by D^n
@pytest.mark.parametrize("seed,dim", [(2, 2), (3, 3), (29, 3)])
def test_walk_builders_at_scale_above_one_match_the_oracles(seed, dim):
    weight = 5 if dim == 2 else 4
    V, d, ambient, comp, _ = end_splitting(seed, dim, lie=False)
    amb = _rescaled(ambient, _rescaling(ambient.space, 0))
    assert _scales(amb.product) > [1]
    split = Splitting(amb, comp)
    dp = derived_products_model(split, weight - 1)
    q2 = dp.structure.taylor.get(2)
    for c1, c2 in itertools.product(comp, repeat=2):
        prod = amb.mul(amb.d.value(c1), lin_single(c2))
        assert (q2.value((c1, c2)) if q2 else {}) == split.P.apply(prod)
    for G, c in ((dp.G_as, lambda m: sign_pow(m + 1)),
                 (dp.G_inf, lambda m: Fraction(sign_pow(m + 1), math.factorial(m)))):
        assert _taylor_entries(G.taylor) == _taylor_entries(pull_g_taylor(
            split, dp.contraction, dp.cocone_inf.space, weight - 1, c))
    V, d, M, comp, _ = end_splitting(seed, dim)
    M = _rescaled(M, _rescaling(M.space, 0))
    assert _scales(M.bracket) > [1]
    split = Splitting(M, comp)
    phi, action = voronov_brackets(split, weight)
    assert _taylor_entries(phi.taylor) == _taylor_entries(
        {k: pull_derived_brackets(split, k) for k in range(1, weight + 1)})
    assert {jk: c for jk, c in action.comps.items() if c} == \
        {jk: c for jk, c in pull_voronov_action(split, weight).comps.items() if c}
    sub, inc = sub_algebra(M, [n for n in M.space.names if n not in comp])
    F = _with_arbitrary_f2(decalage_dgla_morphism(
        inc, max_weight=weight, target=decalage_dgla(M, max_weight=weight)), seed)
    fp = fiber_product_model(sub, split, F, weight)
    assert _taylor_entries(fp.taylor) == \
        _taylor_entries(pull_fiber_product_model(sub, split, F, weight).taylor)


def test_transfer_double_run_bit_identical():
    from hoalg.transfer import transfer_structure
    from hoalg.fixtures import harmonic_contraction, random_end_dga
    from hoalg.coalg import decalage_dga
    big = decalage_dga(random_end_dga(3, 2), max_weight=4)
    d = GradedMap(big.space, big.space, 1)
    if 1 in big.taylor:
        for (n,), vec in big.taylor[1].entries.items():
            d.set(n, vec)
    c = harmonic_contraction(big.space, d)
    runs = []
    for _ in range(2):
        small, F = transfer_structure(big, c, max_weight=4)
        runs.append((
            {k: dict(q.entries) for k, q in small.taylor.items()},
            {k: dict(f.entries) for k, f in F.taylor.items()}))
    assert runs[0] == runs[1]
