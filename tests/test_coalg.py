from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from functools import partial

import pytest

from hoalg import coalg
from hoalg.coalg import (
    DgAlgebra, DgLieAlgebra, DglaMorphism, check_morphism, check_structure, compose_morphisms,
    decalage_dga, decalage_dgla, decalage_dgla_morphism, end_preserving_sub,
    end_preserving_sub_dgla, identity_morphism, invert_morphism, OoMorphism, OoStructure, push_insertion,
    push_product, Scaled, sub_algebra, symmetrize_morphism, symmetrize_structure,
    transport_structure,
)
from hoalg.cocone import exp_log_isos
from hoalg.fixtures import (
    end_splitting, lambda_cartan_fixture, random_complex, random_dga_morphism, random_end_dga,
    random_filtered_inclusion,
)
from fixture_helpers import (
    abelian_dgla, commutator_dgla_morphism, filiform_dga, heisenberg_dgla, is_strict,
    random_end_dgla, sl2_dgla,
)
from hoalg.graded import (
    GradedMap, GradedSpace, MalformedInput, MultilinearMap, RejectedInput, SYMMETRIC, TENSOR,
    koszul_sign, lin_acc, lin_add, lin_single, lin_scale, merge_words, scaled_ints, stabilizer,
    sym_normalize, sym_words, unshuffles,
)
from pull_oracles import (
    coder_component, morph_component, prolong_coderivation, prolong_morphism,
    pull_check_morphism, pull_check_structure, pull_compose, pull_dg_check,
    pull_dg_morphism_check, pull_invert, pull_transport, taylor_after,
)


def simple_space():
    return GradedSpace([("x", 0), ("y", 1), ("z", 1)])


def q1_only(space):
    q1 = MultilinearMap(space, space, 1, 1, TENSOR)
    q1.set_entry(("x",), lin_single("y"))
    return {1: q1}


# --- coderivation prolongation ----------------------------------------------

def test_tensor_Q22_inserts_q1_with_sign():
    # Q^2_2(v1 (x) v2) = q1(v1) (x) v2 + (-1)^{|v1|} v1 (x) q1(v2)
    V = simple_space()
    comp = prolong_coderivation(V, q1_only(V), TENSOR, 2, 2)
    assert comp.value(("x", "x")) == {("y", "x"): Fraction(1), ("x", "y"): Fraction(1)}
    # odd first slot flips the second term; q1(y) = 0 so only chase x in slot 2
    assert comp.value(("y", "x")) == {("y", "y"): Fraction(-1)}


def test_prolong_zero_beyond_arity():
    V = simple_space()
    comp = prolong_coderivation(V, q1_only(V), TENSOR, 4, 2)
    assert comp.value(("x", "x")) == {}


def test_symmetric_Q12_is_q2_via_unshuffles():
    V = GradedSpace([("a", 0), ("b", 1), ("c", 2)])
    q2 = MultilinearMap(V, V, 1, 2, SYMMETRIC)
    q2.set_entry(("a", "b"), lin_single("c"))
    comp = prolong_coderivation(V, {2: q2}, SYMMETRIC, 1, 2)
    # brute force: S(2,0) has a single unshuffle, the identity
    assert unshuffles(2, 0) == [(1, 2)]
    assert comp.value(("a", "b")) == {("c",): Fraction(1)}
    assert comp.value(("b", "a")) == {("c",): Fraction(1)}  # koszul: |a| even


# --- morphism prolongation ----------------------------------------------------

def test_F1k_is_fk():
    V = simple_space()
    f2 = MultilinearMap(V, V, 0, 2, TENSOR)
    f2.set_entry(("x", "y"), lin_single("z"))
    comp = prolong_morphism(V, V, {2: f2}, TENSOR, 1, 2)
    assert comp.value(("x", "y")) == {("z",): Fraction(1)}


def test_tensor_F22_is_f1_tensor_f1():
    V = simple_space()
    f1 = MultilinearMap(V, V, 0, 1, TENSOR)
    f1.set_entry(("x",), {"x": Fraction(2)})
    f1.set_entry(("y",), lin_single("z"))
    comp = prolong_morphism(V, V, {1: f1}, TENSOR, 2, 2)
    assert comp.value(("x", "y")) == {("x", "z"): Fraction(2)}


def brute_force_F_jk(taylor, space, j, k, names, flavor=SYMMETRIC):
    """Independent oracle: the sum over ordered partitions (compositions) of
    the word, and in the symmetric flavor over their unshuffles, times 1/j!."""
    from math import factorial

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(1, total - parts + 2):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    degs = [space.degree[n] for n in names]
    acc = {}
    for part in compositions(k, j):
        sigmas = unshuffles(*part) if flavor == SYMMETRIC else [tuple(range(1, k + 1))]
        for sigma in sigmas:
            eps = koszul_sign(sigma, degs)
            pieces = [{(): Fraction(1)}]
            pos = 0
            dead = False
            vals = []
            for size in part:
                f = taylor.get(size)
                if f is None:
                    dead = True
                    break
                block = tuple(names[sigma[pos + t] - 1] for t in range(size))
                v = f.value(block)
                if not v:
                    dead = True
                    break
                vals.append(v)
                pos += size
            if dead:
                continue
            cur = {(): Fraction(1)}
            for v in vals:
                nxt = {}
                for tup, c in cur.items():
                    for n, cv in v.items():
                        nxt[tup + (n,)] = nxt.get(tup + (n,), 0) + c * cv
                cur = nxt
            for tup, c in cur.items():
                acc[tup] = acc.get(tup, 0) + c * eps
    scale = factorial(j) if flavor == SYMMETRIC else 1
    return {t: Fraction(c, 1) / scale for t, c in acc.items() if c}


def test_symmetric_F23_matches_brute_force():
    V = GradedSpace([("a", 0), ("b", 1)])
    f1 = MultilinearMap(V, V, 0, 1, SYMMETRIC)
    f1.set_entry(("a",), lin_single("a"))
    f1.set_entry(("b",), {"b": Fraction(3)})
    f2 = MultilinearMap(V, V, 0, 2, SYMMETRIC)
    f2.set_entry(("a", "b"), lin_single("b"))
    f2.set_entry(("a", "a"), {"a": Fraction(1, 2)})
    taylor = {1: f1, 2: f2}
    comp = prolong_morphism(V, V, taylor, SYMMETRIC, 2, 3)
    for names in [("a", "a", "b"), ("a", "b", "a"), ("a", "a", "a")]:
        got = comp.value(names)
        want = brute_force_F_jk(taylor, V, 2, 3, names)
        assert sym_combination(got, V) == sym_combination(want, V), names


def sym_combination(combo, space):
    """A combination of tuples read in S(V): every tuple normalized to its
    sorted form with its Koszul sign, zero words and zero sums dropped."""
    out = {}
    for tup, c in combo.items():
        res = sym_normalize(tup, space.index, space.degree)
        if res is None:
            continue
        key, sign = res
        out[key] = out.get(key, 0) + sign * c
    return {k: v for k, v in out.items() if v}


ORACLE_SPACE = GradedSpace([("a", 0), ("b", 1), ("c", 0), ("e", 1), ("g", 2), ("h", -1)])


def random_taylor_family(seed, flavor):
    """Seeded degree-0 coefficients f_1..f_4 on ORACLE_SPACE: about half the
    words get one or two targets of the right degree, small rational weights."""
    V = ORACLE_SPACE
    rng = random.Random("oracle:%s:%d" % (flavor, seed))
    taylor = {}
    for i in range(1, 5):
        f = MultilinearMap(V, V, 0, i, flavor)
        words = itertools.product(V.names, repeat=i) if flavor == TENSOR \
            else sym_words(V.names, V.degree, i)
        for word in words:
            targets = [n for n in V.names if V.degree[n] == sum(V.degree[x] for x in word)]
            if not targets or rng.random() < 0.5:
                continue
            vec = {}
            for n in rng.sample(targets, min(len(targets), rng.randint(1, 2))):
                vec[n] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
            f.set_entry(word, vec)
        taylor[i] = f
    return taylor


@pytest.mark.parametrize("flavor", [TENSOR, SYMMETRIC])
@pytest.mark.parametrize("seed", [0, 1])
def test_F_jk_recursion_matches_partition_oracle(flavor, seed):
    # the first-block recursion against the compositions x unshuffles x 1/j!
    # sum on random families f_1..f_4, every j <= k <= 5; symmetric words are
    # also read in reversed order, which moves odd symbols past each other
    V = ORACLE_SPACE
    taylor = random_taylor_family(seed, flavor)
    rng = random.Random("oracle-words:%s:%d" % (flavor, seed))
    for k in range(1, 6):
        if flavor == TENSOR:
            words = list(itertools.product(V.names, repeat=k))
        else:
            words = list(sym_words(V.names, V.degree, k))
            words += [w[::-1] for w in words]
        if len(words) > 80:
            words = rng.sample(words, 80)
        for j in range(1, k + 1):
            comp = prolong_morphism(V, V, taylor, flavor, j, k)
            for word in words:
                got = comp.value(word)
                want = brute_force_F_jk(taylor, V, j, k, word, flavor)
                if flavor == TENSOR:
                    assert got == want, (j, word)
                else:
                    assert sym_combination(got, V) == sym_combination(want, V), (j, word)


# --- pushed sums against brute-force tensor-coalgebra matrices ---------------

BRUTE_SPACE = GradedSpace([("a", 0), ("b", 1), ("h", -1)])
BRUTE_TOP = 4


def brute_family(degree, seed):
    """Seeded tensor-flavor maps t_1..t_4 of the given degree on BRUTE_SPACE."""
    V = BRUTE_SPACE
    rng = random.Random("brute:%d:%d" % (degree, seed))
    family = {}
    for n in range(1, BRUTE_TOP + 1):
        t = MultilinearMap(V, V, degree, n, TENSOR)
        for word in itertools.product(V.names, repeat=n):
            want = sum(V.degree[x] for x in word) + degree
            targets = [y for y in V.names if V.degree[y] == want]
            if targets and rng.random() < 0.8:
                t.set_entry(word, {y: Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 2))
                                   for y in targets})
        family[n] = t
    return family


def matrix_of(t):
    """A Taylor coefficient as a sparse matrix {(row word, column word): c}."""
    return {((y,), word): c for word, vec in t.entries.items() for y, c in vec.items()}


def identity_matrix(n):
    return {(w, w): 1 for w in itertools.product(BRUTE_SPACE.names, repeat=n)}


def kron(A, B, degree_b):
    """A (x) B with the Koszul rule (A (x) B)(x (x) y) = (-1)^{|B||x|} Ax (x) By."""
    deg = BRUTE_SPACE.degree
    out = {}
    for (r1, c1), a in A.items():
        sign = -1 if degree_b % 2 and sum(deg[x] for x in c1) % 2 else 1
        for (r2, c2), b in B.items():
            key = (r1 + r2, c1 + c2)
            out[key] = out.get(key, 0) + sign * a * b
    return out


def matmul(A, B):
    out = {}
    for (r, m), a in A.items():
        for (m2, c), b in B.items():
            if m == m2:
                out[r, c] = out.get((r, c), 0) + a * b
    return out


def coder_matrix(q, j, k):
    """Q^j_k = sum over a + 1 + b = j of id^{(x)a} (x) q_{k-j+1} (x) id^{(x)b}."""
    out = {}
    m = k - j + 1
    if m < 1:
        return out
    for a in range(j):
        term = kron(kron(identity_matrix(a), matrix_of(q[m]), 1), identity_matrix(j - 1 - a), 0)
        for key, c in term.items():
            out[key] = out.get(key, 0) + c
    return out


def morph_matrix(f, j, k):
    """F^j_k = sum over compositions i_1 + .. + i_j = k of f_{i_1} (x) .. (x) f_{i_j}."""
    out = {}
    for parts in itertools.product(range(1, k + 1), repeat=j):
        if sum(parts) == k:
            term = {((), ()): 1}
            for i in parts:
                term = kron(term, matrix_of(f[i]), 0)
            for key, c in term.items():
                out[key] = out.get(key, 0) + c
    return out


def as_pushed(matrix):
    """A matrix from words to letters read as {column word: vector}."""
    out = {}
    for ((y,), word), c in matrix.items():
        if c:
            out.setdefault(word, {})[y] = c
    return out


def nonzero(pushed):
    return {w: vec for w, vec in pushed.items() if vec}


@pytest.mark.parametrize("seed", range(3))
def test_pushed_sums_match_brute_force_matrices(seed):
    # sum_j t_j Q^j_k and sum_j t_j F^j_k as products of explicit matrices on
    # T^{<=4}V, dim V = 3 with the odd letters b (degree 1) and h (degree -1)
    q = brute_family(1, seed)
    f = brute_family(0, seed + 10)
    for k in range(1, BRUTE_TOP + 1):
        for outer in (q, f):
            want = {}
            for j in range(1, k + 1):
                for key, c in matmul(matrix_of(outer[j]), coder_matrix(q, j, k)).items():
                    want[key] = want.get(key, 0) + c
            got = push_insertion(outer, q, k)
            assert nonzero(got) == as_pushed(want), (k, outer is q)
        want = {}
        for j in range(1, k + 1):
            for key, c in matmul(matrix_of(q[j]), morph_matrix(f, j, k)).items():
                want[key] = want.get(key, 0) + c
        assert nonzero(push_product(q, f, k)) == as_pushed(want), k
        # lo drops the j < lo terms, as the builders that grow F need
        want = {}
        for j in range(2, k + 1):
            for key, c in matmul(matrix_of(q[j]), morph_matrix(f, j, k)).items():
                want[key] = want.get(key, 0) + c
        assert nonzero(push_product(q, f, k, 2)) == as_pushed(want), k


# --- scaled push kernels on unfriendly denominators -------------------------

SCALE_SPACE = GradedSpace([("x", 0), ("y", 0), ("b", 1), ("h", -1)])
SCALE_TOP = 4
# the coprime denominators 7, 11, 13 and B_6/6! = 1/30240, or ints only (D = 1)
UNFRIENDLY = (Fraction(1, 7), Fraction(-1, 11), Fraction(3, 13), Fraction(1, 30240), 2, -1)
INTS = (1, -1, 2, -3)


def scale_family(flavor, degree, pool, seed):
    """Seeded maps t_1..t_4 of the given flavor and degree on SCALE_SPACE,
    each coefficient drawn from pool.  In S(V) the keys repeat the even
    letters x and y."""
    V = SCALE_SPACE
    rng = random.Random("scale:%s:%d:%d:%d" % (flavor, degree, seed, len(pool)))
    family = {}
    for n in range(1, SCALE_TOP + 1):
        t = MultilinearMap(V, V, degree, n, flavor)
        words = itertools.product(V.names, repeat=n) if flavor == TENSOR else \
            sym_words(V.names, V.degree, n)
        for word in words:
            want = sum(V.degree[x] for x in word) + degree
            targets = [y for y in V.names if V.degree[y] == want]
            if targets and rng.random() < 0.6:
                t.set_entry(word, {y: rng.choice(pool) for y in targets})
        family[n] = t
    return family


def _rescaled(family, lam):
    """t_k -> lam^(k-1) t_k, which keeps [Q,Q] = 0 and FQ = RF: every term of
    weight k carries lam^(k-1)."""
    out = {}
    for k, t in family.items():
        r = MultilinearMap(t.source, t.target, t.degree, k, t.flavor)
        for w, vec in t.entries.items():
            r.set_entry(w, lin_scale(vec, lam ** (k - 1)))
        out[k] = r
    return out


def _bump(family, k, coeff):
    """A copy of a Taylor family with its first stored coefficient of arity k
    raised by coeff (a planted fault)."""
    out = _rescaled(family, 1)     # a copy
    word = min(out[k].entries)
    out[k].add_entry(word, {min(out[k].entries[word]): coeff})
    return out


def _taylor_entries(F):
    return {k: t.entries for k, t in F.taylor.items() if not t.is_zero()}


def _pulled(words, total):
    return {w: vec for w in words for vec in [total(w)] if vec}


@pytest.mark.parametrize("pool", (UNFRIENDLY, INTS), ids=("unfriendly", "ints"))
@pytest.mark.parametrize("flavor", (TENSOR, SYMMETRIC))
def test_scaled_kernels_match_the_pull_oracles(flavor, pool):
    # the kernels sum ints scaled by the lcm D of each family's denominators
    # (times D_inner^(k-j) k!/stab(K) for a product term with j < k inner
    # factors) and divide once per output coefficient; every sum, report and
    # composite equals the word-by-word one, coefficient for coefficient
    V = SCALE_SPACE
    s = OoStructure(V, flavor, scale_family(flavor, 1, pool, 0), SCALE_TOP)
    t = OoStructure(V, flavor, scale_family(flavor, 1, pool, 1), SCALE_TOP)
    F = OoMorphism(s, t, scale_family(flavor, 0, pool, 2))
    G = OoMorphism(t, s, scale_family(flavor, 0, pool, 3))
    for family in (s.taylor, F.taylor, G.taylor):
        scale = scaled_ints(family, SCALE_TOP)[0]
        assert scale == (1 if pool is INTS else math.lcm(7, 11, 13, 30240)), scale
    if flavor == SYMMETRIC:
        assert any(len(set(K)) < len(K) for f in F.taylor.values() for K in f.entries)
    coder = partial(coder_component, s)
    for k in range(1, SCALE_TOP + 1):
        for outer in (t.taylor, F.taylor):
            want = _pulled(s.basis_words(k), lambda w: taylor_after(outer, coder, w, 1))
            assert nonzero(push_insertion(outer, s.taylor, k)) == want, k
        for lo in (1, 2):
            want = _pulled(s.basis_words(k),
                           lambda w: taylor_after(t.taylor, partial(morph_component, F), w, lo))
            got = nonzero(push_product(t.taylor, F.taylor, k, lo))
            assert got == want, (k, lo)
            assert all(type(c) is int or c.denominator > 1
                       for vec in got.values() for c in vec.values())
    # the random families fail the equations; reports match weight by weight
    assert check_structure(s).lines() == pull_check_structure(s).lines()
    assert check_morphism(F).lines() == pull_check_morphism(F).lines()
    assert _taylor_entries(compose_morphisms(G, F)) == _taylor_entries(pull_compose(G, F))
    assert _taylor_entries(compose_morphisms(F, G)) == _taylor_entries(pull_compose(F, G))


def _per_key_product(outer, inner, k, lo):
    """The product kernel at one weight, each key expanded on its own block
    by block with no shared prefix, as ({w: int vector}, scale): the
    reference that the prefix stack of coalg._products must reproduce."""
    symmetric, inv, top = inner.symmetric, inner.inv, max(inner.inv, default=0)
    fact = math.factorial(k) if symmetric else 1
    out = {}
    for j, entries in outer.entries.items():
        for key, vec in entries.items() if lo <= j <= k else ():
            words = {(): 1}
            for i, y in enumerate(key):
                left, nxt = len(key) - i - 1, {}
                for w, c in words.items():
                    room = k - len(w)
                    for n in range(max(1, room - left * top), room - left + 1):
                        for u, cu in inv.get(n, {}).get(y, ()):
                            got = merge_words(w, u, inner.space.index, inner.space.degree) \
                                if symmetric else (w + u, 1)
                            if got is not None:
                                lin_add(nxt, got[0], c * cu * got[1])
                words = nxt
            m = inner.scale ** (k - j) * fact // (stabilizer(key) if symmetric else 1)
            for w, c in words.items():
                lin_acc(out.setdefault(w, {}), vec, c * m)
    return nonzero(out), outer.scale * inner.scale ** k * fact


@pytest.mark.parametrize("lo", (1, 2))
@pytest.mark.parametrize("flavor", (TENSOR, SYMMETRIC))
def test_range_kernel_equals_the_per_weight_kernel(flavor, lo):
    # one walk over the sorted keys of every arity, popping the prefix stack
    # to the shared prefix, fills every weight of a range with the same raw
    # ints and scales as one call per weight and as the per-key expansion;
    # the keys repeat letters (odd ones in T(V), even ones in S(V)), so
    # stab(K) > 1 in S(V), and sorted neighbours share prefixes of every length
    V = SCALE_SPACE
    for seed, pool in ((0, UNFRIENDLY), (1, INTS), (2, UNFRIENDLY)):
        outer = Scaled(scale_family(flavor, 1, pool, seed), SCALE_TOP)
        inner = Scaled(scale_family(flavor, 0, pool, seed + 10), SCALE_TOP)
        keys = [K for entries in outer.entries.values() for K in entries]
        repeated = [K for K in keys if len(set(K)) < len(K)]
        assert any(V.degree[x] % 2 != (flavor == SYMMETRIC) for K in repeated
                   for x, y in zip(K, K[1:]) if x == y)
        whole = coalg._products(outer, inner, 1, SCALE_TOP, lo)
        assert set(whole) == set(range(1, SCALE_TOP + 1))
        for k in range(1, SCALE_TOP + 1):
            words, scale = whole[k]
            assert all(vec and all(vec.values()) and len(w) == k for w, vec in words.items())
            assert whole[k] == coalg._products(outer, inner, k, k, lo)[k], (seed, k)
            assert whole[k] == _per_key_product(outer, inner, k, lo), (seed, k)
        assert coalg._products(outer, inner, 2, 3, lo) == {k: whole[k] for k in (2, 3)}


@pytest.mark.parametrize("which", ("E", "L"))
def test_product_callers_match_the_pull_oracles_on_explog(which):
    # compose, invert, check and transport on the r:1 explog E and L agree
    # entry for entry with the word-by-word oracles at weight 4, the highest
    # these oracles afford in the suite (about 0.7 s per morphism; weight 5
    # takes about 10 s); the checks also meet a fault planted at weight 4
    mw = 4
    E, L = exp_log_isos(random_dga_morphism(1, 2), max_weight=mw)
    F, G = (E, L) if which == "E" else (L, E)
    assert _taylor_entries(compose_morphisms(F, G, mw)) == \
        _taylor_entries(pull_compose(F, G, mw))
    assert _taylor_entries(invert_morphism(F, mw)) == _taylor_entries(pull_invert(F, mw))
    assert _taylor_entries(transport_structure(F, mw)) == \
        _taylor_entries(pull_transport(F, mw))
    for H in (F, OoMorphism(F.source, F.target, _bump(F.taylor, mw, Fraction(1, 13)))):
        assert check_morphism(H, mw).lines() == pull_check_morphism(H, mw).lines()
    assert not check_morphism(H, mw).ok


@pytest.mark.parametrize("flavor", (TENSOR, SYMMETRIC))
def test_product_skips_keys_on_names_the_inner_family_never_writes(flavor):
    # F writes no b, so the product kernel skips every key of t and of G
    # with a b in check_morphism and compose_morphisms; the pull oracles
    # read every basis word
    V = SCALE_SPACE
    s = OoStructure(V, flavor, scale_family(flavor, 1, UNFRIENDLY, 0), SCALE_TOP)
    t = OoStructure(V, flavor, scale_family(flavor, 1, UNFRIENDLY, 1), SCALE_TOP)
    G = OoMorphism(t, s, scale_family(flavor, 0, UNFRIENDLY, 3))
    F = OoMorphism(s, t, {k: MultilinearMap(V, V, 0, k, flavor).store(
        {w: {y: c for y, c in vec.items() if y != "b"} for w, vec in f.entries.items()})
        for k, f in scale_family(flavor, 0, UNFRIENDLY, 2).items()})
    written = set().union(*(vec for f in F.taylor.values() for vec in f.entries.values()))
    assert written < set(V.names)
    assert any(not written.issuperset(key)
               for q in (*t.taylor.values(), *G.taylor.values()) for key in q.entries)
    assert check_morphism(F).lines() == pull_check_morphism(F).lines()
    assert _taylor_entries(compose_morphisms(G, F)) == _taylor_entries(pull_compose(G, F))


@pytest.mark.parametrize("symmetric", (False, True))
def test_scaled_checks_report_planted_faults_like_the_pull(symmetric):
    # E, L and their cocones rescaled by lam = 1/11 still pass and stay
    # inverse, with denominators 11^(k-1) k! and the Bernoulli ones; one
    # coefficient bumped by 1/13 or by 1 fails at the weight the pull finds,
    # with the same witness and lhs
    E, L = exp_log_isos(random_dga_morphism(1, 2), max_weight=4)
    if symmetric:
        E = symmetrize_morphism(E)
        L = symmetrize_morphism(L, E.target, E.source)
    lam = Fraction(1, 11)
    s = OoStructure(E.source.space, E.flavor, _rescaled(E.source.taylor, lam), 4)
    t = OoStructure(E.target.space, E.flavor, _rescaled(E.target.taylor, lam), 4)
    F = OoMorphism(s, t, _rescaled(E.taylor, lam))
    G = OoMorphism(t, s, _rescaled(L.taylor, lam))
    assert check_structure(s).ok and check_morphism(F).ok and check_morphism(G).ok
    assert _taylor_entries(compose_morphisms(G, F)) == \
        _taylor_entries(identity_morphism(s))
    for k, coeff in ((2, Fraction(1, 13)), (3, 1)):
        bad = OoMorphism(s, t, _bump(F.taylor, k, coeff))
        assert not check_morphism(bad).ok
        assert check_morphism(bad).lines() == pull_check_morphism(bad).lines(), k
        assert _taylor_entries(compose_morphisms(G, bad)) == \
            _taylor_entries(pull_compose(G, bad)), k
    bad = OoStructure(s.space, s.flavor, _bump(s.taylor, 3, Fraction(1, 13)), 4)
    assert not check_structure(bad).ok
    assert check_structure(bad).lines() == pull_check_structure(bad).lines()


def test_brute_force_matrices_match_the_pull_evaluators():
    # the matrices themselves against Q^j_k and F^j_k evaluated word by word
    q = brute_family(1, 0)
    f = brute_family(0, 10)
    for k in range(1, BRUTE_TOP + 1):
        for j in range(1, k + 1):
            Q = prolong_coderivation(BRUTE_SPACE, q, TENSOR, j, k)
            F = prolong_morphism(BRUTE_SPACE, BRUTE_SPACE, f, TENSOR, j, k)
            for mat, comp in ((coder_matrix(q, j, k), Q), (morph_matrix(f, j, k), F)):
                cols = {}
                for (row, col), c in mat.items():
                    if c:
                        cols.setdefault(col, {})[row] = c
                for word in itertools.product(BRUTE_SPACE.names, repeat=k):
                    assert comp.value(word) == cols.get(word, {}), (j, k, word)


# --- structure / morphism checks ---------------------------------------------

def test_decalage_of_dgla_passes_structure_check():
    for L in [sl2_dgla(), heisenberg_dgla(), random_end_dgla(3, 2)]:
        s = decalage_dgla(L, max_weight=4)
        assert check_structure(s).ok


def test_decalage_signs_two_dim():
    # d(x) = y: q1(s^{-1}x) = -s^{-1}y
    sp = GradedSpace([("x", 0), ("y", 1)])
    d = GradedMap(sp, sp, 1)
    d.set("x", lin_single("y"))
    L = abelian_dgla(sp, d)
    s = decalage_dgla(L)
    assert s.taylor[1].value(("x",)) == {"y": Fraction(-1)}


def test_decalage_abelian_zero_d_is_trivial():
    sp = GradedSpace([("x", 0), ("y", 1)])
    L = abelian_dgla(sp, GradedMap(sp, sp, 1))
    s = decalage_dgla(L)
    assert not s.taylor


def test_decalage_rejects_jacobi_violation():
    sp = GradedSpace([("x", 0), ("y", 0), ("z", 0)])
    br = MultilinearMap(sp, sp, 0, 2, TENSOR)
    # antisymmetric table violating Jacobi: [x,[y,z]] = 0 but [[x,y],z]+[y,[x,z]] = -z
    for (a, b), out in [(("x", "y"), "z"), (("x", "z"), "x"), (("y", "z"), "x")]:
        br.set_entry((a, b), lin_single(out))
        br.set_entry((b, a), {out: Fraction(-1)})
    L = DgLieAlgebra(sp, GradedMap(sp, sp, 1), br)
    assert not L.check().ok
    with pytest.raises(RejectedInput):
        decalage_dgla(L)


def test_structure_check_fails_with_witness_on_bad_jacobi():
    # a q2 on a 3-dim degree-(-1) space that breaks the weight-3 relation:
    # residual on (u,v,w) is -w by direct unshuffle expansion
    sp = GradedSpace([("u", -1), ("v", -1), ("w", -1)])
    q2 = MultilinearMap(sp, sp, 1, 2, SYMMETRIC)
    q2.set_entry(("u", "v"), lin_single("w"))
    q2.set_entry(("u", "w"), lin_single("u"))
    broken = OoStructure(sp, SYMMETRIC, {2: q2}, 3)
    rep = check_structure(broken)
    assert not rep.ok
    fail = rep.first_failure()
    assert fail["weight"] == 3
    assert fail["witness"] == ("u", "v", "w")
    assert fail["lhs"] == "-1*w"


def test_identity_morphism_passes():
    s = decalage_dgla(sl2_dgla(), max_weight=3)
    assert check_morphism(identity_morphism(s)).ok


def test_strict_non_chain_map_fails_at_weight_one():
    s = decalage_dgla(random_end_dgla(2, 2), max_weight=3)
    q1 = s.taylor[1]
    assert q1 is not None and not q1.is_zero()
    pivot = next(n for n in s.space.names if q1.value((n,)))
    # rescale one non-closed basis element: q1 f1 = 2 q1 != q1 = f1 q1 there
    f1 = MultilinearMap(s.space, s.space, 0, 1, SYMMETRIC)
    for n in s.space.names:
        f1.set_entry((n,), {n: Fraction(2 if n == pivot else 1)})
    F = OoMorphism(s, s, {1: f1})
    rep = check_morphism(F, max_weight=1)
    assert not rep.ok
    assert rep.first_failure()["weight"] == 1


def test_dgla_morphism_decalage_is_strict_and_checks():
    from hoalg.fixtures import random_filtered_inclusion
    sub, amb, inc = random_filtered_inclusion(5, 2)
    F = decalage_dgla_morphism(inc, max_weight=3)
    assert is_strict(F)
    assert check_morphism(F).ok


# --- symmetrization -----------------------------------------------------------

def test_symmetrize_structure_preserves_structure_equation():
    for seed in (0, 1, 2):
        A = random_end_dga(seed, 2)
        sA = decalage_dga(A, max_weight=4)
        assert check_structure(sA).ok
        sL = symmetrize_structure(sA)
        assert check_structure(sL).ok


def test_symmetrize_decalage_dga_equals_decalage_of_commutator_dgla():
    for seed in (0, 3):
        A = random_end_dga(seed, 2)
        lhs = symmetrize_structure(decalage_dga(A, max_weight=4))
        rhs = decalage_dgla(A.commutator_dgla(), max_weight=4)
        assert lhs.taylor.get(1, None) == rhs.taylor.get(1, None)
        assert lhs.taylor.get(2, None) == rhs.taylor.get(2, None)


def test_symmetrize_functoriality_on_composites():
    # sym(G o F) = sym(G) o sym(F) for decalage morphisms composed with identity-like maps
    from hoalg.fixtures import random_dga_morphism
    m = random_dga_morphism(2, 2)
    src = decalage_dga(m.source, max_weight=3)
    tgt = decalage_dga(m.target, max_weight=3)
    f1 = MultilinearMap(src.space, tgt.space, 0, 1, TENSOR)
    for n in m.source.space.names:
        val = m.map.value(n)
        if val:
            f1.set_entry((n,), val)
    F = OoMorphism(src, tgt, {1: f1})
    # take G = doubling automorphism of the target
    g1 = MultilinearMap(tgt.space, tgt.space, 0, 1, TENSOR)
    for n in tgt.space.names:
        g1.set_entry((n,), {n: Fraction(2)})
    G = OoMorphism(tgt, tgt, {1: g1})
    lhs = symmetrize_morphism(compose_morphisms(G, F))
    rhs = compose_morphisms(symmetrize_morphism(G), symmetrize_morphism(F))
    for k in set(lhs.taylor) | set(rhs.taylor):
        assert lhs.taylor.get(k) == rhs.taylor.get(k)


def test_sym_of_odd_square_cancels():
    # antisymmetric-in-the-Koszul-sense q2 on a single odd generator symmetrizes to 0
    V = GradedSpace([("t", 1), ("u", 3)])
    q = MultilinearMap(V, V, 1, 2, TENSOR)
    q.set_entry(("t", "t"), lin_single("u"))
    q.set_entry(("u", "t"), {})
    s = q.symmetrized()
    assert s.value(("t", "t")) == {}


# --- inverse / transport -------------------------------------------------------

def test_invert_morphism_roundtrip():
    s = decalage_dgla(heisenberg_dgla((0, 1, 1)), max_weight=4)
    f1 = MultilinearMap(s.space, s.space, 0, 1, SYMMETRIC)
    for n in s.space.names:
        f1.set_entry((n,), {n: Fraction(1)})
    f2 = MultilinearMap(s.space, s.space, 0, 2, SYMMETRIC)
    # x has shifted degree -1, y degree 0: f2(x,y) lands in degree -1
    f2.set_entry(("x", "y"), {"x": Fraction(1, 3)})
    F = OoMorphism(s, s, {1: f1, 2: f2})
    H = invert_morphism(F)
    comp = compose_morphisms(F, H)
    assert comp.taylor[1] == f1
    for k in range(2, 4):
        assert comp.taylor.get(k) is None or comp.taylor[k].is_zero()


def test_invert_morphism_grows_one_live_inverse():
    # the inverse is pushed from the supports while H grows weight by weight:
    # in both flavors it equals the word-by-word pull build coefficient for
    # coefficient
    E, L = exp_log_isos(random_dga_morphism(3, 2), max_weight=4)
    H = invert_morphism(E, 4)
    assert all(H.taylor.get(k) == L.taylor.get(k) for k in range(1, 5))
    sE = symmetrize_morphism(E)
    sH = invert_morphism(sE, 4)
    for F, G in ((E, H), (sE, sH)):
        oracle = pull_invert(F, 4)
        assert set(G.taylor) == set(oracle.taylor) == {1, 2, 3, 4}
        for k, gk in G.taylor.items():
            assert gk.entries == oracle.taylor[k].entries, (F.flavor, k)
    assert all(sH.taylor.get(k) == L.taylor[k].symmetrized() for k in range(1, 5))
    # every stored coefficient is an int or a non-integral Fraction
    stored = [c for m in (E, L, H, sH) for q in m.taylor.values()
              for vec in q.entries.values() for c in vec.values()]
    assert stored and all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
                          for c in stored)


@pytest.mark.parametrize("seed", range(3))
def test_transport_structure_matches_pull(seed):
    # the two pushes (P_b = sum_j g_j Q^j_b, then sum_b P_b H^b_k) against the
    # word-by-word G Q G^{-1}, along the non-strict E and L and their
    # symmetrizations; transporting along E lands on L's source structure
    E, L = exp_log_isos(random_dga_morphism(seed, 2), max_weight=4)
    sE, sL = symmetrize_morphism(E), symmetrize_morphism(L)
    for G in (E, L, sE, sL):
        assert not is_strict(G)
        got = transport_structure(G, 4)
        want = pull_transport(G, 4)
        assert {k: q.entries for k, q in got.taylor.items()} == \
            {k: q.entries for k, q in want.taylor.items()}, G.flavor
        assert all(got.taylor.get(k) == G.target.taylor.get(k) for k in range(1, 5))


def test_decalage_roundtrip_degree_shifted_jacobi():
    # the shifted q2 satisfies the L-infinity[1] relation at weight 3 exactly
    # when the original bracket satisfies Jacobi: both directions on sl2/random
    for L in (sl2_dgla(), random_end_dgla(7, 2)):
        s = decalage_dgla(L, max_weight=3)
        rep = check_structure(s, max_weight=3)
        assert rep.ok


def test_composite_prolongation_identity():
    # (G o F)^j_k = sum_i G^j_i F^i_k at weight <= 4 on random instances, the
    # components read through the word-by-word oracle; the pushed composite
    # equals the pulled one entry for entry
    m = random_dga_morphism(3, 2)
    E, L = exp_log_isos(m, max_weight=4)
    GF = compose_morphisms(E, L, max_weight=4)
    assert {k: q.entries for k, q in GF.taylor.items()} == \
        {k: q.entries for k, q in pull_compose(E, L, 4).taylor.items()}
    src = L.source
    for k in (2, 3, 4):
        for word in list(src.basis_words(k))[:12]:
            for j in (1, 2):
                direct = morph_component(GF, j, k, word)
                summed = {}
                for i in range(j, k + 1):
                    for tup, c in morph_component(L, i, k, word).items():
                        for tup2, c2 in morph_component(E, j, i, tup).items():
                            lin_add(summed, tup2, c * c2)
                assert direct == summed, (k, j, word)


def test_prolongation_with_even_coderivation_degree_drops_signs():
    # the insertion sign (-1)^{|Q| * jumped degrees} vanishes for even |Q|
    V = GradedSpace([("x", 1), ("y", 2)])
    q1 = MultilinearMap(V, V, 1, 1, TENSOR)
    q1.set_entry(("x",), lin_single("y"))
    odd = prolong_coderivation(V, {1: q1}, TENSOR, 2, 2, coder_degree=1)
    even = prolong_coderivation(V, {1: q1}, TENSOR, 2, 2, coder_degree=0)
    assert odd.value(("x", "x")) == {("y", "x"): Fraction(1),
                                     ("x", "y"): Fraction(-1)}
    assert even.value(("x", "x")) == {("y", "x"): Fraction(1),
                                      ("x", "y"): Fraction(1)}


def test_prolongation_of_degree_zero_coderivation():
    # a degree-0 coderivation is prolonged from degree-0 coefficients, unsigned
    V = GradedSpace([("x", 1), ("y", 1)])
    q1 = MultilinearMap(V, V, 0, 1, TENSOR)
    q1.set_entry(("x",), lin_single("y"))
    comp = prolong_coderivation(V, {1: q1}, TENSOR, 2, 2, coder_degree=0)
    assert comp.value(("x", "x")) == {("y", "x"): Fraction(1),
                                      ("x", "y"): Fraction(1)}
    assert comp.value(("y", "y")) == {}


def test_dgla_morphism_bracket_failure_names_first_pair():
    # 2*id on sl2 doubles [x,y] but quadruples [2x,2y]; (e,e) has zero bracket,
    # so (e,h) is the first failing pair in basis order
    L = sl2_dgla()
    rep = DglaMorphism(L, L, GradedMap.identity(L.space).scale(2)).check()
    fail = rep.first_failure()
    assert fail["label"] == "bracket_compatible"
    assert fail["witness"] == ("e", "h")
    assert fail["weight"] is None
    assert rep.lines()[1] == ("RELATION bracket_compatible weight=- tuple=(e,h) "
                              "lhs=- rhs=- status=FAIL")


# --- DG axioms from the supports ---------------------------------------------


def _dg_fixtures(seed):
    """DGLAs and DGAs with and without differential, bracket or product: an
    abelian one (empty bracket), a non-abelian lambda draw, the filiform
    algebras n = 4 and 5, and the Heisenberg Lie and associative (x.y = z
    only) algebras with an extra degree -1 letter u, first or last, where a
    planted d(u) meets the operation's support, on either side, at words
    outside it."""
    V = random_end_dgla(seed, 2).space
    L331 = lambda_cartan_fixture(3, 3, 1, p=2)[0].L
    H = heisenberg_dgla()
    with_u = []
    for basis in ([("u", -1)] + list(H.space.data()), list(H.space.data()) + [("u", -1)]):
        sp = GradedSpace(basis)
        for algebra, table in ((DgLieAlgebra, H.bracket.entries),
                               (DgAlgebra, {("x", "y"): {"z": 1}})):
            op = MultilinearMap(sp, sp, 0, 2, TENSOR)
            for w, vec in table.items():
                op.set_entry(w, vec)
            with_u.append(algebra(sp, GradedMap(sp, sp, 1), op))
    return [random_end_dgla(seed, 2), random_end_dga(seed, 2), sl2_dgla(),
            heisenberg_dgla((0, 1, 1)), abelian_dgla(V, GradedMap(V, V, 1)),
            random_end_dga(seed + 10, 3), L331, filiform_dga(4), filiform_dga(5)] + with_u


def _planted(alg, rng, kind, count=3):
    """Copies of a DGLA or DGA, each with one coefficient of its operation
    (kind "op") or of its differential (kind "d") raised by 1, at up to
    `count` cells drawn by rng."""
    sp = alg.space
    lie = isinstance(alg, DgLieAlgebra)
    table = alg.bracket if lie else alg.product
    if kind == "op":
        cells = [(x, y, z) for x, y, z in itertools.product(sp.names, repeat=3)
                 if sp.degree[z] == sp.degree[x] + sp.degree[y]]
    else:
        cells = [(x, z) for x, z in itertools.product(sp.names, repeat=2)
                 if sp.degree[z] == sp.degree[x] + 1]
    out = []
    for cell in rng.sample(cells, min(count, len(cells))):
        op = MultilinearMap(sp, sp, 0, 2, TENSOR)
        for w, vec in table.entries.items():
            op.set_entry(w, vec)
        d = GradedMap(sp, sp, 1, alg.d.entries)
        if kind == "op":
            op.add_entry(cell[:2], {cell[2]: 1})
        else:
            d.set(cell[0], lin_acc(dict(d.value(cell[0])), {cell[1]: 1}))
        out.append((DgLieAlgebra if lie else DgAlgebra)(sp, d, op))
    return out


@pytest.mark.parametrize("seed", range(4))
def test_planted_dg_faults_pushed_reports_equal_pulled(seed):
    # one bumped bracket, product or d entry at a time: the axioms read off
    # the decalage residual and the pushed Lie tables report exactly what the
    # closures over every basis word report, witness included
    rng = random.Random("dg-faults:%d" % seed)
    fixtures = _dg_fixtures(seed)
    planted = [b for alg in fixtures for kind in ("op", "d") for b in _planted(alg, rng, kind)]
    pushed = [alg.check() for alg in fixtures + planted]
    pulled = [pull_dg_check(alg) for alg in fixtures + planted]
    assert [r.lines() for r in pushed] == [r.lines() for r in pulled]
    assert [r.checks for r in pushed] == [r.checks for r in pulled]
    assert all(r.ok for r in pushed[:len(fixtures)])
    failing = sum(not r.ok for r in pushed[len(fixtures):])
    assert failing >= len(planted) * 2 // 3, (failing, len(planted))


def _dg_morphisms(seed):
    """DGA and DGLA morphisms: a random DGA morphism and its commutator DGLA
    morphism, a filtered End(V; F) -> End(V) inclusion, and the inclusion of
    End(V; W) into End(V) as DG algebras."""
    m = random_dga_morphism(seed)
    _, _, ambient, comp, _ = end_splitting(seed, 2, lie=False)
    return [m, commutator_dgla_morphism(m), random_filtered_inclusion(seed)[2],
            sub_algebra(ambient, [n for n in ambient.space.names if n not in comp])[1]]


def _bumped(m, rng):
    """A copy of a DG morphism with one coefficient of its map raised by 1,
    at a cell (x, y) with |y| = |x| drawn by rng."""
    g = m.map
    cells = [(x, y) for x in g.source.names for y in g.target.names
             if g.target.degree[y] == g.source.degree[x]]
    x, y = rng.choice(cells)
    bumped = GradedMap(g.source, g.target, 0, g.entries)
    bumped.set(x, lin_acc(dict(g.value(x)), {y: 1}))
    return type(m)(m.source, m.target, bumped)


@pytest.mark.parametrize("seed", range(4))
def test_planted_dg_morphism_faults_pushed_reports_equal_pulled(seed):
    # chain_map and the compatibility read off check_morphism between the
    # tensor decalages report what two compositions and the scan of every
    # ordered pair report, witness included, on clean and bumped maps
    rng = random.Random("dg-morphism-faults:%d" % seed)
    clean = _dg_morphisms(seed)
    bumped = [_bumped(m, rng) for m in clean for _ in range(3)]
    pushed = [m.check() for m in clean + bumped]
    pulled = [pull_dg_morphism_check(m) for m in clean + bumped]
    assert [r.checks for r in pushed] == [r.checks for r in pulled]
    assert all(r.ok for r in pushed[:len(clean)])
    assert {type(m).__name__ for m in clean} == {"DgaMorphism", "DglaMorphism"}
    assert sum(not r.ok for r in pushed[len(clean):]) >= len(bumped) // 2


def test_dg_check_of_an_empty_bracket_reads_no_word(monkeypatch):
    # an abelian DGLA with d = 0 pushes no residual term for any axiom
    V = random_end_dgla(0, 3).space
    L = abelian_dgla(V, GradedMap(V, V, 1))
    seen = []
    order = coalg.in_basis_order
    monkeypatch.setattr(coalg, "in_basis_order",
                        lambda sp, pushed: seen.append(pushed) or order(sp, pushed))
    assert L.check().ok and seen == [{}] * 4


# --- sub-algebras -----------------------------------------------------------


@pytest.mark.parametrize("lie", (True, False))
@pytest.mark.parametrize("seed", range(4))
def test_sub_algebra_is_a_checked_subalgebra(seed, lie):
    V, d, amb, comp, stable = end_splitting(seed, 3, lie)
    names = [n for n in amb.space.names if n not in comp]
    sub, inc = sub_algebra(amb, names)
    assert type(sub) is type(amb)
    assert sub.space.names == tuple(names)
    assert sub.check().ok and inc.check().ok
    assert inc.target is amb and inc.source is sub
    # End(V; W) is that subalgebra
    sub2, inc2 = end_preserving_sub(amb, V, stable)
    assert sub2.space == sub.space and inc2.map == inc.map


def test_end_preserving_sub_needs_a_d_stable_subspace():
    V, d = random_complex(2, 2)     # d(v1) = -v0
    assert end_preserving_sub_dgla(V, d, ["v0"])[0].check().ok
    with pytest.raises(RejectedInput):
        end_preserving_sub_dgla(V, d, ["v1"])
    with pytest.raises(MalformedInput):
        end_preserving_sub_dgla(V, d, ["v9"])


@pytest.mark.parametrize("kind", [DgLieAlgebra, DgAlgebra])
def test_dg_algebras_refuse_an_operation_on_another_space(kind):
    # a bracket or product stored on {p, q} does not act on the algebra's
    # {x, y}: it is refused on construction, not left for check() to report
    # as a non-canonical word
    V = GradedSpace([("x", 0), ("y", 0)])
    U = GradedSpace([("p", 0), ("q", 0)])
    d = GradedMap(V, V, 1)
    for source, target in ((U, U), (U, V), (V, U)):
        op = MultilinearMap(source, target, 0, 2, TENSOR)
        op.entries[(source.names[0], source.names[1])] = {target.names[0]: 1}
        with pytest.raises(MalformedInput, match="on the algebra's space"):
            kind(V, d, op)
    assert kind(V, d, MultilinearMap(V, V, 0, 2, TENSOR)).check().ok
