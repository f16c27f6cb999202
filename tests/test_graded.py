from __future__ import annotations

import importlib
import itertools
import math
import pkgutil
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoalg.graded import (
    Contraction, GradedMap, GradedSpace, MalformedInput, MultilinearMap,
    SYMMETRIC, TENSOR, bernoulli, check_contraction, compositions,
    elementary_to_graded_map, hom_differential, hom_space, koszul_sign, lin_scale, lin_single,
    linear_part, map_kernel_basis, map_right_inverse, map_solve,
    basis_rows, by_row, concat, coordinate_projections, merge_words,
    multilinear_from_graded_map, pair_space, push, right_products, scaled_rows, sorted_join,
    stabilizer, sym_normalize, sym_words, unshuffles, walk,
)
from hoalg import graded
from hoalg.fixtures import random_complex, random_end_dga
from fixture_helpers import heisenberg_dgla, sl2_dgla
from pull_oracles import nested, prefix_products


# --- koszul signs -----------------------------------------------------------

def test_koszul_identity_permutation():
    assert koszul_sign((1, 2, 3), (1, 5, 2)) == 1


def test_koszul_swap_two_odds():
    assert koszul_sign((2, 1), (1, 1)) == -1


def test_koszul_swap_odd_even():
    assert koszul_sign((2, 1), (1, 2)) == 1


def test_koszul_rejects_non_bijection():
    with pytest.raises(MalformedInput):
        koszul_sign((1, 1), (0, 0))


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 6), st.data())
def test_koszul_composition_cocycle(k, data):
    # reordering by sigma then by tau composes: L(sigma tau) = L(tau) o L(sigma),
    # so eps(sigma tau; v) = eps(sigma; v) * eps(tau; L(sigma) v).
    degrees = data.draw(st.lists(st.integers(-2, 3), min_size=k, max_size=k))
    sigma = tuple(data.draw(st.permutations(range(1, k + 1))))
    tau = tuple(data.draw(st.permutations(range(1, k + 1))))
    comp = tuple(sigma[tau[i] - 1] for i in range(k))
    permuted = [degrees[sigma[i] - 1] for i in range(k)]
    assert koszul_sign(comp, degrees) == \
        koszul_sign(sigma, degrees) * koszul_sign(tau, permuted)


# --- unshuffles -------------------------------------------------------------

def test_unshuffle_counts_small():
    assert len(unshuffles(1, 1)) == 2
    assert len(unshuffles(2, 1)) == 3


def test_unshuffles_2_2_brute_force():
    # filter all of S_4 for monotonicity on both blocks
    brute = [p for p in itertools.permutations(range(1, 5))
             if p[0] < p[1] and p[2] < p[3]]
    assert unshuffles(2, 2) == sorted(brute)
    assert len(unshuffles(2, 2)) == 6


def test_unshuffles_returns_a_fresh_list():
    first = unshuffles(1, 2)
    first.append("junk")
    first[0] = None
    assert unshuffles(1, 2) == [(1, 2, 3), (2, 1, 3), (3, 1, 2)]
    assert unshuffles(1, 2) is not unshuffles(1, 2)
    with pytest.raises(MalformedInput):
        unshuffles(2, -1)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=3).filter(lambda s: sum(s) <= 7))
def test_unshuffle_count_is_multinomial(sizes):
    total = sum(sizes)
    count = 1
    import math
    rem = total
    for s in sizes:
        count *= math.comb(rem, s)
        rem -= s
    got = unshuffles(*sizes)
    assert len(got) == count
    assert len(set(got)) == count
    for perm in got:
        pos = 0
        for s in sizes:
            block = perm[pos:pos + s]
            assert list(block) == sorted(block)
            pos += s


@pytest.mark.parametrize("k", range(7))
def test_signed_orderings_match_unshuffles_and_koszul_sign(k):
    """The one sort rule counts signed orderings: for a sorted word T cut into
    sorted blocks B and S, each repeating no odd letter, merge_words(B, S) is
    (T, the sum of koszul_sign over the (|B|, |S|)-unshuffles of T whose
    blocks read B and S), and None when T repeats an odd letter.  A
    one-letter S is one of these splits."""
    rng = random.Random(k)
    for _ in range(6):
        V = GradedSpace([(x, rng.randint(-3, 3)) for x in "abcdefg"])
        word = tuple(sorted(rng.choice("abcdefg") for _ in range(k)))
        degs = [V.degree[x] for x in word]
        zero = sym_normalize(word, V.index, V.degree) is None
        for p in range(k + 1):
            for pick in dict.fromkeys(itertools.combinations(range(k), p)):
                B = tuple(word[i] for i in pick)
                S = tuple(word[i] for i in range(k) if i not in pick)
                if any(sym_normalize(X, V.index, V.degree) is None for X in (B, S)):
                    continue
                count = sum(koszul_sign(sigma, degs) for sigma in unshuffles(p, k - p)
                            if tuple(word[i - 1] for i in sigma) == B + S)
                got = merge_words(B, S, V.index, V.degree)
                assert got == (None if zero else (word, count))


def test_stabilizer_counts_the_orderings_that_fix_a_word():
    for word in ((), ("a",), ("a", "a"), ("a", "a", "b", "c", "c", "c")):
        want = sum(1 for perm in itertools.permutations(range(len(word)))
                   if tuple(word[i] for i in perm) == word)
        assert stabilizer(word) == want


# --- compositions and symmetric words ---------------------------------------

@pytest.mark.parametrize("k", range(1, 8))
def test_compositions_count_order_and_parts(k):
    for j in range(1, k + 2):
        parts = list(compositions(k, j))
        assert len(parts) == math.comb(k - 1, j - 1)
        assert parts == sorted(set(parts))
        assert all(len(p) == j and sum(p) == k and min(p) >= 1 for p in parts)


@pytest.mark.parametrize("k", range(0, 5))
def test_sym_words_are_the_nonzero_sorted_words(k):
    V = GradedSpace([("x", 1), ("y", 0), ("z", 1), ("w", 2)])
    want = [w for w in itertools.combinations_with_replacement(V.names, k)
            if sym_normalize(w, V.index, V.degree) is not None]
    assert list(sym_words(V.names, V.degree, k)) == want


# --- bernoulli --------------------------------------------------------------

def test_bernoulli_series_values():
    # t/(e^t-1) = 1 - t/2 + t^2/12 - t^4/720 + ...
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(2) / 2 == Fraction(1, 12)
    assert bernoulli(3) == 0
    assert bernoulli(4) / 24 == Fraction(-1, 720)


def test_bernoulli_defining_recursion():
    import math
    for k in range(1, 12):
        assert sum(math.comb(k + 1, j) * bernoulli(j) for j in range(k + 1)) == 0


def test_bernoulli_rejects_negative():
    with pytest.raises(MalformedInput):
        bernoulli(-1)


# --- spaces and maps --------------------------------------------------------

def two_dim_acyclic():
    V = GradedSpace([("e", 0), ("de", 1)])
    d = GradedMap(V, V, 1)
    d.set("e", lin_single("de"))
    return V, d


def test_space_bidegree_consistency():
    with pytest.raises(MalformedInput):
        GradedSpace([("x", 1, (1, 1))])
    V = GradedSpace([("x", 2, (1, 1))])
    assert V.bidegree["x"] == (1, 1)


def test_shift_convention():
    V = GradedSpace([("x", 1)])
    assert V.shifted(1).degree["x"] == 0


def test_graded_map_degree_validation():
    V, d = two_dim_acyclic()
    bad = GradedMap(V, V, 0)
    with pytest.raises(MalformedInput):
        bad.set("e", lin_single("de"))


def test_graded_map_composition_associative_random():
    import random
    rng = random.Random(7)
    for _ in range(20):
        dims = [rng.randint(1, 3) for _ in range(4)]
        spaces = [GradedSpace([("v%d_%d" % (i, j), rng.randint(-1, 1))
                               for j in range(dims[i])]) for i in range(4)]
        maps = []
        for i in range(3):
            deg = rng.randint(-1, 1)
            gm = GradedMap(spaces[i], spaces[i + 1], deg)
            for n in spaces[i].names:
                want = spaces[i].degree[n] + deg
                img = {m: Fraction(rng.randint(-2, 2))
                       for m in spaces[i + 1].names
                       if spaces[i + 1].degree[m] == want and rng.random() < 0.7}
                gm.set(n, img)
            maps.append(gm)
        f, g, h = maps
        assert h.compose(g).compose(f) == h.compose(g.compose(f))
        assert h.compose(g).degree == g.degree + h.degree


def test_sym_normalize_repeated_odd_is_zero():
    V = GradedSpace([("x", 1), ("y", 2)])
    assert sym_normalize(("x", "x"), V.index, V.degree) is None
    assert sym_normalize(("y", "x"), V.index, V.degree) == (("x", "y"), 1)


def test_maps_with_structural_equality_are_unhashable():
    V = GradedSpace([("x", 1), ("y", 2)])
    with pytest.raises(TypeError):
        hash(GradedMap.identity(V))
    with pytest.raises(TypeError):
        hash(MultilinearMap(V, V, 0, 2, TENSOR))


def test_every_exported_name_resolves():
    import hoalg
    checked = 0
    for info in pkgutil.iter_modules(hoalg.__path__):
        mod = importlib.import_module("hoalg." + info.name)
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), (info.name, name)
            checked += 1
    assert checked


@pytest.mark.parametrize("flavor", (TENSOR, SYMMETRIC))
def test_linear_part_reads_back_an_arity_one_map(flavor):
    V = GradedSpace([("x", 0), ("y", 1), ("z", 1)])
    W = GradedSpace([("u", 1), ("w", 2)])
    gm = GradedMap(V, W, 1, {"x": {"u": Fraction(2)}, "z": {"w": Fraction(-1, 3)}})
    assert linear_part(multilinear_from_graded_map(gm, flavor), V, W, 1) == gm
    zero = linear_part(None, V, W, 1)
    assert zero == GradedMap.zero(V, W, 1) and zero.is_zero()


def _word_op(vec, a):
    """A nilpotent test product on words: v.a appends the letter a to every
    word of v, scaled by a letter-pair weight that is zero for the pairs xz
    and zy."""
    out = {}
    for n, c in vec.items():
        w = {"xz": 0, "zy": 0}.get(n[-1:] + a, 1 + "xyz".index(a))
        if w:
            out[n + a] = c * w
    return out


def _letter_op(vec, single):
    """_word_op on the letter of a one-letter vector, as the nested oracle
    passes it."""
    (a,) = single
    return _word_op(vec, a)


def _word_heads(letters, top: int) -> dict:
    """The row index of _word_op on the words of length <= top over letters:
    {n: [((a,), n.a)]}, the nonzero products only, as graded.walk reads it."""
    names = ["".join(w) for k in range(top + 1) for w in itertools.product(letters, repeat=k)]
    return {n: hs for n in names
            if (hs := [((a,), v) for a in letters if (v := _word_op({n: 1}, a))])}


def _words(level: dict) -> dict:
    """A walk level {S: {first letter: vector}} as {word: vector}, the
    vectors that cancelled dropped."""
    return {(a,) + S: vec for S, rows in level.items() for a, vec in rows.items() if vec}


@pytest.mark.parametrize("top", range(5))
def test_prefix_products_match_nested_products(top):
    letters = ("x", "y", "z")
    heads = _word_heads(letters, top)
    levels = walk([{(): {a: {a: 2} for a in letters}}], heads, concat, top)
    assert len(levels) == top + 1
    for n, level in enumerate(levels):
        want = {}
        for word in itertools.product(letters, repeat=n + 1):
            vec = nested(_letter_op, {word[0]: 2}, word[1:])
            if vec:
                want[word] = vec
        assert _words(level) == want
    # sorted mode: the sym_words of each length, from the empty word
    V = GradedSpace([("x", 0), ("y", 1), ("z", 2)])
    levels = walk([{(): {"": {"": 1}}}], heads, sorted_join(V, right=True), top)
    for n, level in enumerate(levels):
        want = {}
        for word in sym_words(V.names, V.degree, n):
            vec = nested(_letter_op, {"": 1}, word)
            if vec:
                want[word] = vec
        assert {S: rows[""] for S, rows in level.items()} == want
        assert all(rows[""] for rows in level.values())


def _count_pushes(monkeypatch) -> list:
    """From now on every head term of graded.push (one lin_acc call) appends
    to the returned list."""
    pushes, acc = [], graded.lin_acc

    def counted_acc(*args):
        if sys._getframe(1).f_code.co_name == "push":
            pushes.append(args[1])
        return acc(*args)

    monkeypatch.setattr(graded, "lin_acc", counted_acc)
    return pushes


def test_prefix_products_stop_at_a_vanishing_prefix(monkeypatch):
    # v.x and v.y append the letter and every product by z vanishes, so z
    # has no head and no word grows past it
    names = ["a" + "".join(w) for k in range(3) for w in itertools.product("xy", repeat=k)]
    heads = {n: [((b,), {n + b: 1}) for b in "xy"] for n in names}
    pushes = _count_pushes(monkeypatch)
    levels = walk([{(): {"a": {"a": 2}}}], heads, concat, 3)
    assert levels[1] == {("x",): {"a": {"ax": 2}}, ("y",): {"a": {"ay": 2}}}
    assert all("z" not in S for level in levels for S in level)
    # 2 heads pushed from each of 1, 2 and 4 surviving prefixes
    assert len(pushes) == 2 * (1 + 2 + 4)
    assert all("z" not in name for vec in pushes for name in vec)
    assert walk([{}], heads, concat, 2) == [{}, {}, {}]


def _reference_grow(op, D):
    """prefix_products' grow for D op, one apply_vectors call per letter."""
    def grow(u, allowed):
        return [(b, v) for b in allowed if (v := {
            n: D * c for n, c in op.apply_vectors([u, lin_single(b)]).items()})]

    return grow


def _cancelling_op():
    """x z = y and w z = -y, so (x + w) z = 0; w y = x/2, so D = 2."""
    V = GradedSpace([("x", 0), ("w", 0), ("y", 0), ("z", 0)])
    return MultilinearMap(V, V, 0, 2, TENSOR).store({
        ("x", "z"): {"y": 1}, ("w", "z"): {"y": -1}, ("w", "y"): {"x": Fraction(1, 2)}})


@pytest.mark.parametrize("seed", range(4))
def test_by_row_name_filter_is_the_coordinate_projection(seed):
    # a set of names as by_row's left gives the rows that the coordinate
    # projection onto their span gives through GradedMap.apply, vectors that
    # the filter empties included (they are dropped)
    rng = random.Random("by-row:%d" % seed)
    V = GradedSpace([("n%d" % i, 0) for i in range(6)])
    keep = [n for n in V.names if rng.random() < 0.5]
    table = {(b,): {y: {n: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                        for n in rng.sample(V.names, rng.randint(1, 3))}
                    for y in rng.sample(V.names, 3)} for b in "abc"}
    table = {B: {y: {n: c for n, c in vec.items() if c} for y, vec in rows.items()}
             for B, rows in table.items()}
    P, _ = coordinate_projections(V, keep)
    assert by_row(table, set(keep)) == by_row(table, P)
    assert by_row(table, set()) == {} and by_row(table, set(V.names)) == by_row(table)


def test_scaled_rows_are_ints_at_one_scale():
    heads = {"y": [(("a",), {"u": Fraction(1, 2), "v": 3})]}
    tails = {"u": [(("b",), {"y": Fraction(-2, 3)})], "v": []}
    D, (h, t) = scaled_rows(heads, tails)
    assert D == 6 and h == {"y": [(("a",), {"u": 3, "v": 18})]}
    assert t == {"u": [(("b",), {"y": -4})], "v": []}
    assert all(type(c) is int for index in (h, t) for hs in index.values()
               for _, vec in hs for c in vec.values())
    assert scaled_rows({"y": [((), {"y": 2})]}) == (1, [{"y": [((), {"y": 2})]}])


@pytest.mark.parametrize("case", ["every letter", "letter subset", "vanishing prefix",
                                  "cancellation"])
def test_walk_matches_prefix_products(case):
    # graded.walk against the prefix-by-prefix reference, on the seeded
    # products and brackets of RIGHT_PRODUCT_OPS
    rng = random.Random(case)
    if case == "every letter":
        # tensor words from every basis letter, on every op
        for make, _ in RIGHT_PRODUCT_OPS.values():
            op = make()
            D, heads, _ = right_products(op)
            names = op.source.names
            levels = walk([basis_rows(names)], heads, concat, 3)
            want = prefix_products(_reference_grow(op, D), {(b,): {b: 1} for b in names},
                                   names, 3)
            assert [_words(level) for level in levels] == want
    elif case == "letter subset":
        # sorted words over a seeded subset of the letters, from every name,
        # on the brackets (odd letters in heisenberg-odd)
        for key in ("sl2", "heisenberg", "heisenberg-odd", "sl2*2/3"):
            op = RIGHT_PRODUCT_OPS[key][0]()
            sub = [n for n in op.source.names if rng.random() < 0.7]
            D, heads, _ = right_products(op, sub)
            levels = walk([basis_rows(op.source.names)], heads,
                          sorted_join(op.source.subspace(sub), right=True), 4)
            for m in op.source.names:
                want = prefix_products(_reference_grow(op, D), {(): lin_single(m)}, sub, 4,
                                       op.source.degree)
                assert [{S: rows[m] for S, rows in level.items() if rows.get(m)}
                        for level in levels] == want
    elif case == "vanishing prefix":
        # in the heisenberg bracket every product of two letters dies by the
        # third, so the walk's levels empty out with the reference's
        op = RIGHT_PRODUCT_OPS["heisenberg"][0]()
        D, heads, _ = right_products(op)
        names = op.source.names
        levels = walk([basis_rows(names)], heads, concat, 3)
        want = prefix_products(_reference_grow(op, D), {(b,): {b: 1} for b in names}, names, 3)
        assert [_words(level) for level in levels] == want
        assert want[1] and want[3] == {} and levels[3] == {}
    else:
        # (x + w) z cancels: the walk keeps the empty vector, which pushes
        # nothing, and the reference drops the word
        op = _cancelling_op()
        D, heads, _ = right_products(op)
        seed = {"x": 1, "w": 1}
        levels = walk([{(): {"s": seed}}], heads, concat, 3)
        want = prefix_products(_reference_grow(op, D), {(): seed}, op.source.names, 3)
        assert levels[1][("z",)] == {"s": {}}
        assert [{S: rows["s"] for S, rows in level.items() if rows["s"]}
                for level in levels] == want
        assert not any(S[0] == "z" for level in levels[2:] for S in level)


def _scaled_op(op, coeff):
    """coeff times the arity-2 map op, so its entries carry coeff's denominator."""
    out = MultilinearMap(op.source, op.target, op.degree, 2, op.flavor)
    for key, vec in op.entries.items():
        out.set_entry(key, {n: coeff * c for n, c in vec.items()})
    return out


# the ops, each with the lcm D of its denominators, by which every step is
# multiplied
RIGHT_PRODUCT_OPS = {
    "sl2": (lambda: sl2_dgla().bracket, 1),
    "heisenberg": (lambda: heisenberg_dgla().bracket, 1),
    "heisenberg-odd": (lambda: heisenberg_dgla((1, 1, 2)).bracket, 1),
    "end0": (lambda: random_end_dga(0, 2).product, 1),
    "end1": (lambda: random_end_dga(1, 2).product, 1),
    "end2": (lambda: random_end_dga(2, 3).product, 1),
    "sl2*2/3": (lambda: _scaled_op(sl2_dgla().bracket, Fraction(2, 3)), 3),
    "end2*5/6": (lambda: _scaled_op(random_end_dga(2, 3).product, Fraction(5, 6)), 6),
}


@pytest.mark.parametrize("case", list(RIGHT_PRODUCT_OPS))
def test_right_products_match_apply_vectors(case):
    op, scale = RIGHT_PRODUCT_OPS[case][0](), RIGHT_PRODUCT_OPS[case][1]
    D, heads, times = right_products(op)
    assert D == scale
    rng = random.Random(case)
    names = op.source.names

    def products(u):
        return {b: {n: D * c for n, c in op.apply_vectors([u, lin_single(b)]).items()}
                for b in names}

    # the row index: every nonzero D op(n, b) on the row n, and only those
    assert {n: dict(hs) for n, hs in heads.items()} == {
        n: row for n in names if (row := {(b,): w for b, w in products({n: 1}).items() if w})}
    assert all(c.__class__ is int for hs in heads.values() for _, w in hs for c in w.values())

    def draw():
        return {n: Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 3]))
                for n in rng.sample(names, rng.randint(1, len(names)))}

    for _ in range(12):
        u, v = draw(), draw()
        want = products(u)
        # a push of u appends every letter b with D op(u, b) != 0, also for
        # a subset of the letters given out of basis order
        got = push({(): {"u": u}}, heads, concat)
        assert {B: rows["u"] for B, rows in got.items() if rows["u"]} == \
            {(b,): w for b, w in want.items() if w}
        allowed = rng.sample(names, rng.randint(1, len(names)))
        got = push({(): {"u": u}}, right_products(op, allowed)[1], concat)
        assert {B: rows["u"] for B, rows in got.items() if rows["u"]} == \
            {(b,): want[b] for b in allowed if want[b]}
        assert times(u, v) == {n: D * c for n, c in op.apply_vectors([u, v]).items()}
        assert all(times(u, v).values())
        # int vectors stay in ints
        ints, intv = ({n: int(c * 6) for n, c in x.items()} for x in (u, v))
        assert all(c.__class__ is int for rows in push({(): {"u": ints}}, heads, concat).values()
                   for c in rows["u"].values())
        assert all(c.__class__ is int for c in times(ints, intv).values())
    assert push({}, heads, concat) == {} and right_products(op, ())[1] == {}
    assert times({}, u) == {} and times(u, {}) == {}
    with pytest.raises(MalformedInput):
        right_products(MultilinearMap(op.source, op.target, 0, 2, SYMMETRIC))


def test_right_products_drop_products_that_cancel():
    # x z = y and w z = -y, so (x + w) z = 0 and pushes nothing; x y = 0 too
    op = _cancelling_op()
    D, heads, times = right_products(op)
    assert D == 2
    u = {"x": 1, "w": 1}
    assert push({(): {"s": u}}, heads, concat) == {("z",): {"s": {}}, ("y",): {"s": {"x": 1}}}
    assert times(u, {"z": 3}) == {} and times(u, {"z": 1, "y": 4}) == {"x": 4}


def test_multilinear_symmetric_koszul_read():
    V = GradedSpace([("x", 1), ("y", 1), ("z", 2)])
    q = MultilinearMap(V, V, 0, 2, SYMMETRIC)
    q.set_entry(("x", "y"), lin_single("z"))
    assert q.value(("y", "x")) == {"z": Fraction(-1)}
    assert q.value(("x", "x")) == {}


def test_multilinear_symmetrized_of_product():
    # graded-commutative product: sym(q2) doubles the canonical entry
    V = GradedSpace([("x", 0), ("z", 0)])
    q = MultilinearMap(V, V, 0, 2, TENSOR)
    q.set_entry(("x", "x"), lin_single("z"))
    s = q.symmetrized()
    assert s.value(("x", "x")) == {"z": Fraction(2)}


def test_compose_stores_zero_free_exact_images():
    V = GradedSpace([("a", 0), ("b", 0), ("c", 0)])
    f = GradedMap(V, V, 0, {"a": {"b": Fraction(1, 2), "c": 1}, "b": {"c": 2}})
    g = GradedMap(V, V, 0, {"b": {"a": 2}, "c": {"a": -1}})
    gf = g.compose(f)
    # a -> b/2 + c -> a - a = 0 is no entry; b -> 2c -> -2a, an int
    assert gf.entries == {"b": {"a": -2}}
    assert [c.__class__ for c in gf.entries["b"].values()] == [int]
    assert gf == GradedMap(V, V, 0, {n: g.apply(f.value(n)) for n in V.names})


def test_set_and_add_entry_normalize_once_and_sign_odd_swaps():
    V = GradedSpace([("x", 1), ("y", 1), ("z", 2), ("w", 0)])
    q = MultilinearMap(V, V, 0, 2, SYMMETRIC)
    q.set_entry(("y", "x"), {"z": Fraction(3, 2)})
    assert q.entries == {("x", "y"): {"z": Fraction(-3, 2)}}
    q.add_entry(("y", "x"), {"z": Fraction(3, 2)}, 2)
    assert q.entries == {("x", "y"): {"z": Fraction(-9, 2)}}
    q.add_entry(("x", "y"), {"z": Fraction(9, 2)})
    assert q.entries == {}
    q.set_entry(("w", "z"), {"z": 4})           # even letters: no sign
    assert q.entries == {("z", "w"): {"z": 4}}
    with pytest.raises(MalformedInput):
        q.add_entry(("x", "w"), {"z": 1})           # degree 1 word to a degree 2 letter
    with pytest.raises(MalformedInput):
        q.set_entry(("x", "x"), {"z": 1})           # zero in S(V)
    with pytest.raises(MalformedInput):
        q.set_entry(("x", "y"), {"z": 0.0})
    # an unknown source or target name is malformed input in both flavors,
    # on a write and on a read
    for m in (q, MultilinearMap(V, V, 0, 2, TENSOR)):
        for write in (m.set_entry, m.add_entry):
            with pytest.raises(MalformedInput):
                write(("x", "nope"), {"z": 1})                  # unknown source
            with pytest.raises(MalformedInput):
                write(("x", "y"), {"nope": 1})                  # unknown target
        for word in (("x", "nope"), ("nope", "w")):
            with pytest.raises(MalformedInput):
                m.value(word)
    assert q.entries == {("z", "w"): {"z": 4}}


def _store_maps():
    V = GradedSpace([("x", 1), ("y", 1), ("z", 2), ("w", 0)])
    return (MultilinearMap(V, V, 0, 2, SYMMETRIC), MultilinearMap(V, V, 0, 2, TENSOR),
            MultilinearMap(V, V, 0, 3, SYMMETRIC))


def test_store_divides_once_per_coefficient():
    sym, ten, sym3 = _store_maps()
    sym.store({("x", "y"): {"z": 6}, ("w", "w"): {"w": -4}}, Fraction(-1, 4))
    assert sym.entries == {("x", "y"): {"z": Fraction(-3, 2)}, ("w", "w"): {"w": 1}}
    assert [c.__class__ for v in sym.entries.values() for c in v.values()] == [Fraction, int]
    ten.store({("y", "x"): {"z": 5}, ("w", "z"): {"z": 2}}, 3)       # any order in T(V)
    assert ten.entries == {("y", "x"): {"z": 15}, ("w", "z"): {"z": 6}}
    sym3.store({("x", "w", "w"): {"x": 2}, ("y", "z", "w"): {}}, Fraction(1, 2))
    assert sym3.entries == {("x", "w", "w"): {"x": 1}}              # an empty vector is no entry
    # a store writes next to what is there, as set_entry does per word
    ten.store({("w", "z"): {"z": 1}}, 1)
    assert ten.entries == {("y", "x"): {"z": 15}, ("w", "z"): {"z": 1}}
    # at an integral factor it takes Fraction vectors and stores canonical
    # values, and it returns the map
    assert ten.store({("x", "y"): {"z": Fraction(1, 2)}}, 2) is ten
    assert ten.store({("y", "x"): {"z": Fraction(1, 3)}}) is ten
    assert ten.entries == {("y", "x"): {"z": Fraction(1, 3)}, ("w", "z"): {"z": 1},
                           ("x", "y"): {"z": 1}}
    assert type(ten.entries[("x", "y")]["z"]) is int
    # equal coefficients, int or Fraction, share one division within a call;
    # the next call divides at its own factor
    sym.store({("x", "y"): {"z": 6}, ("w", "w"): {"w": Fraction(6)}, ("z", "w"): {"z": -6}},
              Fraction(1, 4))
    assert sym.entries == {("x", "y"): {"z": Fraction(3, 2)}, ("w", "w"): {"w": Fraction(3, 2)},
                           ("z", "w"): {"z": Fraction(-3, 2)}}
    sym.store({("x", "y"): {"z": 6}}, Fraction(1, 3))
    assert sym.entries[("x", "y")] == {"z": 2} and type(sym.entries[("x", "y")]["z"]) is int


# set_entry sorts its words and reads an odd repeat as zero; the bulk write
# takes canonical words only
@pytest.mark.parametrize("case", ["unsorted", "odd-repeat", "arity", "degree", "unknown"])
def test_store_refuses_non_canonical_words_and_degree_mismatches(case):
    sym, ten, sym3 = _store_maps()
    target, word, vec = {
        "unsorted": (sym, ("y", "x"), {"z": 1}),          # x comes before y
        "odd-repeat": (sym, ("x", "x"), {"z": 1}),        # zero in S(V)
        "arity": (sym3, ("x", "y"), {"z": 1}),
        "degree": (ten, ("x", "y"), {"w": 1}),            # degree 2 word, degree 0 letter
        "unknown": (ten, ("x", "v"), {"z": 1}),
    }[case]
    good = {("x", "y"): {"z": 1}} if target.arity == 2 else {("x", "w", "w"): {"x": 1}}
    with pytest.raises(MalformedInput):
        target.store({**good, word: vec}, Fraction(1, 2))
    assert target.entries == {}                 # nothing is stored before the check


# --- contractions -----------------------------------------------------------

def test_identity_contraction_passes():
    V, d = two_dim_acyclic()
    c = Contraction(V, d, V, d, GradedMap.identity(V), GradedMap.identity(V),
                    GradedMap.zero(V, V, -1))
    assert check_contraction(c).ok


def test_acyclic_contraction_onto_zero_space():
    # dK + Kd = f1 g1 - Id = -Id forces K(de) = -e on the acyclic pair
    V, d = two_dim_acyclic()
    Z = GradedSpace([])
    K = GradedMap(V, V, -1)
    K.set("de", {"e": Fraction(-1)})
    c = Contraction(Z, GradedMap.zero(Z, Z, 1), V, d,
                    GradedMap.zero(Z, V, 0), GradedMap.zero(V, Z, 0), K)
    assert check_contraction(c).ok


def test_acyclic_contraction_sign_flip_fails_with_witness():
    V, d = two_dim_acyclic()
    Z = GradedSpace([])
    K = GradedMap(V, V, -1)
    K.set("de", lin_single("e"))
    c = Contraction(Z, GradedMap.zero(Z, Z, 1), V, d,
                    GradedMap.zero(Z, V, 0), GradedMap.zero(V, Z, 0), K)
    rep = check_contraction(c)
    assert not rep.ok
    fail = rep.first_failure()
    assert fail["label"] == "dK+Kd=fg-id"
    assert fail["witness"] in ("e", "de")


# --- rational linear algebra ------------------------------------------------

def test_map_solve_and_right_inverse():
    V = GradedSpace([("a", 0), ("b", 0)])
    W = GradedSpace([("u", 0)])
    f = GradedMap(V, W, 0)
    f.set("a", lin_single("u"))
    f.set("b", {"u": Fraction(2)})
    sol = map_solve(f, lin_single("u"))
    assert sol == {"a": Fraction(1)}  # minimal pivot: first column wins
    inv = map_right_inverse(f)
    assert f.compose(inv) == GradedMap.identity(W)
    ker = map_kernel_basis(f)
    assert len(ker) == 1
    assert f.apply(ker[0]) == {}


def _seeded_map(seed: int, shape: str) -> GradedMap:
    """A seeded degree-1 map whose block into each target degree is square
    and invertible, wide and surjective, tall, or square of rank one short.
    The target names are out of sorted order, so the rows of one
    elimination per degree and of one solve per name come in other orders."""
    rng = random.Random("right-inverse:%s:%d" % (shape, seed))
    counts = {"square": (3, 3), "wide": (4, 2), "tall": (2, 3), "short": (3, 3)}[shape]
    src = GradedSpace([("s%d%d" % (d, i), d) for d in (0, 1) for i in range(counts[0])])
    tgt = GradedSpace([("t%d%d" % (d, i), d) for d in (2, 1) for i in reversed(range(counts[1]))])
    gm = GradedMap(src, tgt, 1)
    pool = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3))
    for d in (0, 1):
        cols = [n for n in src.names if src.degree[n] == d]
        rows = [t for t in tgt.names if tgt.degree[t] == d + 1]
        rng.shuffle(cols)
        for j, n in enumerate(cols):
            # column j is zero below row j and nonzero on it: a permuted triangle
            gm.set(n, {t: rng.choice(pool) if i < j else (rng.choice(pool) if i == j else 0)
                       for i, t in enumerate(rows)})
        if shape == "short":
            gm.set(cols[-1], lin_scale(gm.value(cols[0]), 2))
    return gm


@pytest.mark.parametrize("shape", ("square", "wide", "tall", "short"))
@pytest.mark.parametrize("seed", range(3))
def test_right_inverse_equals_the_per_column_solves(seed, shape):
    # the right inverse reuses one echelon per target degree for every
    # target name: entry for entry map_solve's solution for each target
    # name, and None exactly when some name has none
    gm = _seeded_map(seed, shape)
    solves = {t: map_solve(gm, lin_single(t)) for t in gm.target.names}
    inv = map_right_inverse(gm)
    if shape in ("tall", "short"):
        assert inv is None and None in solves.values()
        return
    assert None not in solves.values()
    assert inv.entries == solves
    assert gm.compose(inv) == GradedMap.identity(gm.target)


def test_pair_space_prefixes():
    A = GradedSpace([("x", 1)])
    B = GradedSpace([("y", 0)])
    P = pair_space(A, B)
    assert P.names == ("a:x", "b:y")
    assert P.degree["a:x"] == 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_symmetric_read_respects_koszul_signs(data):
    # reading any permutation of a stored word applies exactly eps(sigma)
    degs = data.draw(st.lists(st.integers(-2, 3), min_size=3, max_size=5))
    names = ["g%d" % i for i in range(len(degs))]
    V = GradedSpace(list(zip(names, degs)) + [("out", 0)])
    k = data.draw(st.integers(2, 3))
    word = tuple(data.draw(st.sampled_from(names)) for _ in range(k))
    total = sum(V.degree[n] for n in word)
    target_name = "t%d" % total
    W = GradedSpace([(target_name, total)])
    q = MultilinearMap(V, W, 0, k, SYMMETRIC)
    from hoalg.graded import sym_normalize
    canon = sym_normalize(word, V.index, V.degree)
    if canon is None:
        with pytest.raises(MalformedInput):
            q.set_entry(word, {target_name: Fraction(1)})
        return
    q.set_entry(word, {target_name: Fraction(1)})
    perm = tuple(data.draw(st.permutations(range(1, k + 1))))
    permuted = tuple(word[p - 1] for p in perm)
    eps = koszul_sign(perm, [V.degree[n] for n in word])
    lhs = q.value(permuted)
    rhs = {target_name: eps * q.value(word)[target_name]}
    assert lhs == rhs


@pytest.mark.parametrize("seed", range(20))
def test_hom_differential_is_the_projected_commutator(seed):
    # targets and sources overlap without being equal, so both branches of
    # the push feed the same elementary maps
    V, d = random_complex(seed, 4)
    rng = random.Random("hom:%d" % seed)
    targets = [n for n in V.names if rng.random() < 0.7] or list(V.names[:1])
    sources = [n for n in V.names if rng.random() < 0.7] or list(V.names[-1:])
    hom = hom_space(targets, sources, V)
    want = {}
    for name in hom.names:
        comm = d.commutator(elementary_to_graded_map(lin_single(name), hom, V, V,
                                                     hom.degree[name]))
        vec = {"%s<-%s" % (t, s): c for s, img in comm.entries.items() if s in sources
               for t, c in img.items() if t in targets}
        if vec:
            want[name] = vec
    assert {n: v for n, v in hom_differential(d, targets, sources).items() if v} == want
