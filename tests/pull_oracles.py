"""Word-by-word reference loops for the coalgebra sums (test oracle only).

hoalg.coalg pushes every sum from the Taylor supports.  This module keeps the
way the library computed them before: Q^j_k and F^j_k evaluated on one basis
word at a time, memoized per object on (j, k, word), and every check,
composite, inverse, transfer and transport looping over every basis word of
every weight.  It also keeps the DG algebra, DGLA and DG-morphism axioms
as closures run over every basis word, the hodge builders that sum every
symmetric word over its k! orderings with ordered-suffix memos, and the
cocone builders that run a left-nested product on every word of
`itertools.product` or of `sym_words`, and the n-ary
evaluation of a Taylor coefficient on Artin elements with the exponential
series of hoalg.mc built on it, both over every ordered tuple of monomials.
It keeps End(V) as loops over every elementary map and every pair of them, the
derived structure on Hom*(W, A) as one GradedMap commutator per
elementary map, the obstruction map psi as its finite double sum, and the
Hodge-splitting coefficient as its partition sum.
The Koszul signs of the ordering sums come from `koszul_sign` and
`unshuffles`.  They are slow, so tests run them at low weights only.

The (j, k, word) memos are keyed on the structure or morphism object and
are never invalidated: once a pull function has read an object, changing
its Taylor entries in place leaves the memo stale, and a later pull read
returns the components of the old map.  A test that mutates a map (a planted
bump, say) builds a fresh object for each mutation.
"""

from __future__ import annotations

import itertools
import weakref
from fractions import Fraction
from functools import lru_cache, partial
from math import factorial, prod
from types import SimpleNamespace

from hoalg.coalg import (
    DgAlgebra, DgLieAlgebra, OoMorphism, OoStructure, decalage_dga,
    decalage_dgla, symmetrize_structure,
)
from hoalg.cocone import A_PRE, B_PRE, CoderAction, _cocone_q1, cocone_associative
from hoalg.graded import (
    GradedMap, GradedSpace, MalformedInput, MultilinearMap, Report, SYMMETRIC, TENSOR,
    bernoulli, compositions, elementary_to_graded_map, first_witness, format_vector,
    hom_space, koszul_sign, lin_acc, lin_add, lin_eq, lin_scale, lin_single, linear_part,
    map_right_inverse, multilinear_from_graded_map, pair_space, prefix_vector, sign_pow,
    sym_words, unshuffles,
)
from hoalg.hodge import (
    _artin_op, _harmonic_hom, _restrict_to_hom, _restrict_to_top_block, cartan_artin_maps,
)
from hoalg.mc import ArtinElement, ArtinMap
from fixture_helpers import bracket_vec

# (j, k, word) -> component value, per structure or morphism
_MEMOS = weakref.WeakKeyDictionary()


def add_prefixed(dst: MultilinearMap, src, prefix: str):
    """dst += src on the block of a pair space whose names carry `prefix`,
    word by word (a None src adds nothing)."""
    if src is not None:
        for word, vec in src.entries.items():
            dst.add_entry(tuple(prefix + n for n in word), prefix_vector(vec, prefix))


def nested(op, vec: dict, names) -> dict:
    """op(..op(op(vec, a_1), a_2).., a_k) for basis names a_i; {} as soon as a
    step vanishes."""
    for a in names:
        vec = op(vec, lin_single(a))
        if not vec:
            return {}
    return vec


def signed_orderings(word, degree: dict, sizes):
    """(word permuted by sigma, Koszul sign of sigma) for every `sizes`-unshuffle
    sigma, in `unshuffles(*sizes)` order; the first block of the permuted word
    is its first sizes[0] letters, and so on."""
    sizes = tuple(sizes)
    signs = _signs(sizes, tuple(degree[x] % 2 for x in word))
    for sigma, eps in zip(unshuffles(*sizes), signs):
        yield tuple(word[s - 1] for s in sigma), eps


@lru_cache(maxsize=4096)
def _signs(sizes, parities) -> tuple:
    """koszul_sign of every `sizes`-unshuffle for letters of the given
    parities, kept per pattern so that the oracles stay fast enough."""
    return tuple(koszul_sign(sigma, parities) for sigma in unshuffles(*sizes))


def _expand_at(pre: tuple, vec: dict, post: tuple, acc: dict, coeff):
    """acc += coeff * (pre (x) vec (x) post), expanded to pure basis tuples."""
    for n, c in vec.items():
        lin_add(acc, pre + (n,) + post, coeff * c)


def taylor_after(taylor: dict, component, word: tuple, lo: int, hi: int = None) -> dict:
    """sum_{j=lo}^{hi} t_j(C^j_k(word)) for a Taylor family t and prolonged
    components C(j, k, word), with k = len(word) and hi defaulting to k."""
    k = len(word)
    out: dict = {}
    for j in range(lo, (k if hi is None else hi) + 1):
        tj = taylor.get(j)
        if tj is not None:
            for tup, c in component(j, k, word).items():
                lin_acc(out, tj.value(tup), c)
    return out


def coderivation_component_value(struct, j: int, k: int, names: tuple,
                                 coder_degree: int = 1) -> dict:
    """Q^j_k on a basis word, from the Taylor family of `struct`.

    Tensor flavor inserts q_{k-j+1} at every position with the sign
    (-1)^{|Q| * (deg of the symbols jumped over)}; symmetric flavor sums over
    the S(k-j+1, j-1) unshuffles with Koszul signs.
    """
    if len(names) != k:
        raise MalformedInput("word length %d != k=%d" % (len(names), k))
    out: dict = {}
    if j > k + 1 or j < 1 or k == 0:
        return out
    m = k - j + 1  # arity of the inserted coefficient; q_0 = 0 kills j = k+1
    q = struct.taylor.get(m)
    if q is None:
        return out
    deg = struct.space.degree
    if struct.flavor == TENSOR:
        for i in range(j):
            val = q.value(names[i:i + m])
            if not val:
                continue
            sign = 1
            if coder_degree % 2:
                jumped = sum(deg[n] for n in names[:i])
                if jumped % 2:
                    sign = -1
            _expand_at(names[:i], val, names[i + m:], out, sign)
    else:
        for perm, eps in signed_orderings(names, deg, (m, j - 1)):
            val = q.value(perm[:m])
            if val:
                _expand_at((), val, perm[m:], out, eps)
    return out


def morphism_component_value(morph, j: int, k: int, names: tuple) -> dict:
    """F^j_k on a basis word, by recursion on the first block.

    F^1_k(w) = f_k(w).  In the tensor flavor the first block is a prefix:
    F^j_k(w) = sum_i f_i(w[:i]) (x) F^{j-1}_{k-i}(w[i:]).  In the symmetric
    flavor it is any block B holding the first position:
    F^j_k(w) = sum_B eps(B, rest) f_|B|(B) . F^{j-1}(rest), eps the Koszul sign
    of moving B to the front, so each set partition is visited once.

    F^{j-1} with j - 1 >= 2 is read through morph_component, so the rests
    (subwords) are shared through the memo.  F^j_k with j >= 2 never reads
    f_k: only f_i with i < k and memo entries of weight < k.  That is what
    lets the pull builds grow morph.taylor weight by weight while the memo is
    live.
    """
    if len(names) != k:
        raise MalformedInput("word length mismatch")
    out: dict = {}
    if j < 1 or j > k:
        return out
    if j == 1:
        return {(n,): c for n, c in _f_value(morph, names).items()}
    if morph.flavor == TENSOR:
        cuts = [(names[:i], names[i:], 1) for i in range(1, k - j + 2)]
    else:
        cuts = _first_blocks(names, k - j + 1, morph.source.space.degree)
    for block, rest, sign in cuts:
        head = _f_value(morph, block)
        if not head:
            continue
        tail = morph_component(morph, j - 1, len(rest), rest) if j > 2 else \
            morphism_component_value(morph, 1, len(rest), rest)
        for tup, c in tail.items():
            _expand_at((), head, tup, out, c if sign == 1 else -c)
    return out


def _f_value(morph, names) -> dict:
    """f_k(names) for k = len(names), or {} when the morphism has no f_k."""
    f = morph.taylor.get(len(names))
    return f.value(names) if f is not None else {}


def _first_blocks(names: tuple, top: int, degree: dict):
    """(B, rest, eps) for every subword B of at most `top` letters holding the
    first letter, with eps the Koszul sign of moving B in front of the rest:
    the first letter is in front already, so eps is the sign of the
    (|B| - 1, |rest|)-unshuffle of the other letters."""
    for size in range(top):
        for perm, eps in signed_orderings(names[1:], degree, (size, len(names) - 1 - size)):
            yield (names[0],) + perm[:size], perm[size:], eps


def _memoized(obj, key, evaluate):
    memo = _MEMOS.setdefault(obj, {})
    got = memo.get(key)
    if got is None:
        got = memo[key] = evaluate()
    return got


def coder_component(s: OoStructure, j: int, k: int, names: tuple) -> dict:
    """Q^j_k of s on a basis tuple, as a combination of j-tuples (memoized)."""
    return _memoized(s, (j, k, names),
                     lambda: coderivation_component_value(s, j, k, names))


def morph_component(F: OoMorphism, j: int, k: int, names: tuple) -> dict:
    """F^j_k of F on a basis tuple, as a combination of j-tuples (memoized)."""
    return _memoized(F, (j, k, names),
                     lambda: morphism_component_value(F, j, k, names))


def square_residual(s: OoStructure, names: tuple) -> dict:
    """(p o Q o Q) evaluated on a basis word: sum_j q_j(Q^j_k(word))."""
    return taylor_after(s.taylor, partial(coder_component, s), names, 1)


class TensorComponent:
    """Materialized prolongation component V^{ox k} -> V^{ox j} for inspection."""

    def __init__(self, space, k, j, evaluator):
        self.space = space
        self.arity_in = k
        self.arity_out = j
        self._eval = evaluator

    def value(self, names) -> dict:
        return self._eval(tuple(names))


def prolong_coderivation(space: GradedSpace, taylor: dict, flavor: str,
                         j: int, k: int, coder_degree: int = 1) -> TensorComponent:
    """The component Q^j_k of the coderivation with the given Taylor
    coefficients (zero map whenever j > k+1).  The coefficients may have any
    degree, so they are not validated as an OoStructure."""
    struct = SimpleNamespace(space=space, flavor=flavor, taylor=dict(taylor))
    return TensorComponent(
        space, k, j,
        lambda names: coderivation_component_value(struct, j, k, names, coder_degree))


def prolong_morphism(source_space: GradedSpace, target_space: GradedSpace,
                     taylor: dict, flavor: str, j: int, k: int) -> TensorComponent:
    """The component F^j_k of the coalgebra morphism with the given Taylor
    coefficients (zero for j > k)."""
    dummy_src = OoStructure(source_space, flavor, {}, max_weight=max(k, 1))
    dummy_tgt = OoStructure(target_space, flavor, {}, max_weight=max(k, 1))
    morph = OoMorphism(dummy_src, dummy_tgt, taylor)
    return TensorComponent(source_space, k, j,
                           lambda names: morphism_component_value(morph, j, k, names))


def _check_words(r, label, words_of, residual, top, space):
    for k in range(1, top + 1):
        for word in words_of(k):
            res = residual(word)
            if res:
                r.add(label, False, weight=k, witness=word,
                      lhs=format_vector(res, space), rhs="0")
                break
        else:
            r.add(label, True, weight=k)
    return r


def pull_check_structure(s: OoStructure, max_weight=None) -> Report:
    top = s.max_weight if max_weight is None else min(max_weight, s.max_weight)
    return _check_words(Report("structure equation"), "QQ=0", s.basis_words,
                        lambda w: square_residual(s, w), top, s.space)


def pull_check_morphism(F: OoMorphism, max_weight=None) -> Report:
    s, t = F.source, F.target
    top = F.max_weight if max_weight is None else min(max_weight, F.max_weight)

    def residual(word):
        lhs = taylor_after(F.taylor, partial(coder_component, s), word, 1)
        return lin_acc(lhs, taylor_after(t.taylor, partial(morph_component, F), word, 1), -1)

    return _check_words(Report("morphism equation"), "FQ=RF", s.basis_words,
                        residual, top, t.space)


def pull_compose(G: OoMorphism, F: OoMorphism, max_weight=None) -> OoMorphism:
    top = max_weight or min(F.max_weight, G.max_weight)
    taylor = {}
    for k in range(1, top + 1):
        hk = MultilinearMap(F.source.space, G.target.space, 0, k, F.flavor)
        for word in F.source.basis_words(k):
            acc = taylor_after(G.taylor, partial(morph_component, F), word, 1)
            if acc:
                hk.add_entry(word, acc)
        taylor[k] = hk
    return OoMorphism(F.source, G.target, taylor)


def pull_invert(F: OoMorphism, max_weight=None) -> OoMorphism:
    top = max_weight or F.max_weight
    inv1 = map_right_inverse(linear_part(F.taylor[1], F.source.space, F.target.space, 0))
    H = OoMorphism(F.target, F.source, {1: multilinear_from_graded_map(inv1, F.flavor)})
    for k in range(2, top + 1):
        hk = MultilinearMap(F.target.space, F.source.space, 0, k, F.flavor)
        for word in H.source.basis_words(k):
            acc = taylor_after(F.taylor, partial(morph_component, H), word, 2)
            if acc:
                hk.add_entry(word, inv1.apply(acc), -1)
        if not hk.is_zero():
            H.taylor[k] = hk
    return H


def pull_transfer_structure(big: OoStructure, c, max_weight=None):
    mw = big.max_weight if max_weight is None else max_weight
    small = OoStructure(c.small, big.flavor, {}, mw)
    if not c.d_small.is_zero():
        small.taylor[1] = multilinear_from_graded_map(c.d_small, big.flavor)
    F = OoMorphism(small, big, {1: multilinear_from_graded_map(c.inject, big.flavor)})
    for k in range(2, mw + 1):
        fk = MultilinearMap(c.small, c.big, 0, k, big.flavor)
        rk = MultilinearMap(c.small, c.small, 1, k, big.flavor)
        for word in small.basis_words(k):
            acc = taylor_after(big.taylor, partial(morph_component, F), word, 2)
            if acc:
                fk.add_entry(word, c.homotopy.apply(acc))
                rk.add_entry(word, c.project.apply(acc))
        if not fk.is_zero():
            F.taylor[k] = fk
        if not rk.is_zero():
            small.taylor[k] = rk
    return small, F


def pull_transport(G: OoMorphism, max_weight=None) -> OoStructure:
    """Q~ = G Q G^{-1} word by word: q~_k(w) = sum_b sum_j g_j Q^j_b H^b_k w."""
    top = max_weight or G.max_weight
    H = pull_invert(G, top)
    s = G.source
    space = G.target.space
    coder = partial(coder_component, s)
    taylor = {}
    for k in range(1, top + 1):
        qk = MultilinearMap(space, space, 1, k, G.flavor)
        for word in G.target.basis_words(k):
            acc: dict = {}
            for b in range(1, k + 1):
                for tup, c in morph_component(H, b, k, word).items():
                    lin_acc(acc, taylor_after(G.taylor, coder, tup, 1, b + 1), c)
            if acc:
                qk.add_entry(word, acc)
        if not qk.is_zero():
            taylor[k] = qk
    return OoStructure(space, G.flavor, taylor, top)


def homotopy_word_expansion(c, fg, word, degrees) -> dict:
    """K_k(word) = sum_i id^{(x)i} (x) K (x) (f1 g1)^{(x)(k-i-1)}, with the
    sign (-1)^{deg(word_0)+...+deg(word_{i-1})} of passing the odd K."""
    out: dict = {}
    for i in range(len(word)):
        kv = c.homotopy.value(word[i])
        if not kv:
            continue
        sign = -1 if sum(degrees[:i]) % 2 else 1
        slots = [lin_single(n) for n in word[:i]] + [kv] + \
                [fg.value(n) for n in word[i + 1:]]
        if any(not s for s in slots):
            continue
        for combo in itertools.product(*[list(s.items()) for s in slots]):
            coeff = sign
            for _, cf in combo:
                coeff *= cf
            lin_add(out, tuple(n for n, _ in combo), coeff)
    return out


def pull_transfer_quasi_inverse(big: OoStructure, c, F: OoMorphism, max_weight=None):
    mw = big.max_weight if max_weight is None else max_weight
    G = OoMorphism(big, F.source, {1: multilinear_from_graded_map(c.project, TENSOR)})
    fg = c.inject.compose(c.project)
    coder = partial(coder_component, big)
    for k in range(2, mw + 1):
        gk = MultilinearMap(big.space, F.source.space, 0, k, TENSOR)
        for word in big.basis_words(k):
            kk = homotopy_word_expansion(c, fg, word, [big.space.degree[n] for n in word])
            acc: dict = {}
            for tup, cf in kk.items():
                lin_acc(acc, taylor_after(G.taylor, coder, tup, 1, k - 1), cf)
            if acc:
                gk.add_entry(word, acc)
        if not gk.is_zero():
            G.taylor[k] = gk
    return G


# ---------------------------------------------------------------------------
# DG axioms on every basis word


def _first_nonzero(gm: GradedMap):
    for n in gm.source.names:
        if gm.value(n):
            return n
    return None


def pull_dg_check(alg) -> Report:
    """DgLieAlgebra.check or DgAlgebra.check as closures run over every basis
    word of their arity (itertools.product), the first failing word as
    witness, and d^2 = 0 as d composed with itself: antisymmetry, Leibniz and
    Jacobi for a DGLA, associativity and Leibniz for a DG algebra."""
    sp, d = alg.space, alg.d
    lie = isinstance(alg, DgLieAlgebra)
    op = alg.bracket if lie else alg.product

    def sign(x, y):
        return sign_pow(sp.degree[x] * sp.degree[y])

    def leibniz(w):
        x, y = w
        rhs = op.apply_vectors([d.value(x), lin_single(y)])
        lin_acc(rhs, op.apply_vectors([lin_single(x), d.value(y)]),
                sign_pow(sp.degree[x]))
        return lin_eq(d.apply(op.value((x, y))), rhs)

    def antisymmetric(w):
        x, y = w
        return lin_eq(op.value((x, y)), lin_scale(op.value((y, x)), -sign(x, y)))

    def jacobi(w):
        x, y, z = w
        lhs = op.apply_vectors([lin_single(x), op.value((y, z))])
        rhs = op.apply_vectors([op.value((x, y)), lin_single(z)])
        lin_acc(rhs, op.apply_vectors([lin_single(y), op.value((x, z))]), sign(x, y))
        return lin_eq(lhs, rhs)

    def associative(w):
        x, y, z = w
        return lin_eq(op.apply_vectors([op.value((x, y)), lin_single(z)]),
                      op.apply_vectors([lin_single(x), op.value((y, z))]))

    r = Report("dgla" if lie else "dg algebra")
    dd = d.compose(d)
    r.add("d^2=0", dd.is_zero(), witness=_first_nonzero(dd))
    axioms = ((("antisymmetry", antisymmetric, 2), ("leibniz", leibniz, 2), ("jacobi", jacobi, 3))
              if lie else (("associativity", associative, 3), ("leibniz", leibniz, 2)))
    for label, holds, arity in axioms:
        wit = first_witness(itertools.product(sp.names, repeat=arity), holds)
        r.add(label, wit is None, witness=wit)
    return r


def pull_dg_morphism_check(m) -> Report:
    """DglaMorphism.check or DgaMorphism.check as two GradedMap compositions
    for chain_map and a scan of every ordered pair of basis names for the
    compatibility with the operation, the first failing pair as witness."""
    g, src, tgt = m.map, getattr(m.source, m.op), getattr(m.target, m.op)
    r = Report(m.title)
    r.add("chain_map", m.target.d.compose(g) == g.compose(m.source.d))
    wit = first_witness(itertools.product(g.source.names, repeat=2), lambda w: lin_eq(
        g.apply(src.value(w)), tgt.apply_vectors([g.value(w[0]), g.value(w[1])])))
    r.add(m.label, wit is None, witness=wit)
    return r


# ---------------------------------------------------------------------------
# End(V) as loops over every elementary map and every pair of them


def pull_end_dgla(space, d) -> DgLieAlgebra:
    """coalg.end_dgla as one loop per elementary map for [d, -] and one loop
    over every pair of elementary maps for the bracket, reading t and s back
    out of each name `t<-s` (so V's names must not hold "<-")."""
    E = hom_space(space.names, space.names, space)
    dE = GradedMap(E, E, 1)
    for s in space.names:
        for t in space.names:
            name = "%s<-%s" % (t, s)
            val: dict = {}
            for u, c in d.value(t).items():
                lin_acc(val, lin_single("%s<-%s" % (u, s)), c)
            edeg = space.degree[t] - space.degree[s]
            sgn = -1 if edeg % 2 else 1
            for v in space.names:
                c = d.value(v).get(s)
                if c:
                    lin_acc(val, lin_single("%s<-%s" % (t, v)), -sgn * c)
            if val:
                dE.set(name, val)
    br = MultilinearMap(E, E, 0, 2, TENSOR)
    for n1 in E.names:
        t1, s1 = n1.split("<-")
        for n2 in E.names:
            t2, s2 = n2.split("<-")
            val: dict = {}
            if s1 == t2:
                val["%s<-%s" % (t1, s2)] = Fraction(1)
            if s2 == t1:
                sgn = -1 if (E.degree[n1] % 2 and E.degree[n2] % 2) else 1
                lin_acc(val, lin_single("%s<-%s" % (t2, s1)), -sgn)
            if val:
                br.set_entry((n1, n2), val)
    return DgLieAlgebra(E, dE, br)


def pull_end_dga(space, d) -> DgAlgebra:
    """coalg.end_dga as pull_end_dgla's differential and a loop over every
    pair of elementary maps for the composition product."""
    lie = pull_end_dgla(space, d)
    prod = MultilinearMap(lie.space, lie.space, 0, 2, TENSOR)
    for n1 in lie.space.names:
        t1, s1 = n1.split("<-")
        for n2 in lie.space.names:
            t2, s2 = n2.split("<-")
            if s1 == t2:
                prod.set_entry((n1, n2), lin_single("%s<-%s" % (t1, s2)))
    return DgAlgebra(lie.space, lie.d, prod)


# ---------------------------------------------------------------------------
# hodge builders summed over the k! orderings of every word


def pull_propagator_words(left, head_ops: dict, tail_ops: dict, right, w_names, a_names):
    """word(head, tail): the Hom(W, A) entries of
    left o head_ops[head[0]] o .. o tail_ops[tail[0]] o .. o right, with
    every suffix product memoized on its (head, tail) name tuples."""
    products = {((), ()): right}
    words = {}

    def word(head, tail):
        got = words.get((head, tail))
        if got is None:
            keys = [(head[p:], tail) for p in range(len(head))] + \
                   [((), tail[p:]) for p in range(len(tail) + 1)]
            ops = [head_ops[x] for x in head] + [tail_ops[x] for x in tail]
            p = next(p for p, key in enumerate(keys) if key in products)
            cur = products[keys[p]]
            for q in range(p - 1, -1, -1):
                cur = products[keys[q]] = ops[q].compose(cur)
            got = words[head, tail] = _restrict_to_hom(left.compose(cur).entries, w_names, a_names)
        return got

    return word


def pull_chain_sum(word, degree: dict, heads, chain) -> dict:
    """sum_{j in heads} sum over the (j, 1, .., 1)-unshuffles sigma of `word` of
    eps(sigma) chain(head, tail), where the reordered word is split into its
    first j letters (head) and the rest (tail)."""
    acc: dict = {}
    for j in heads:
        for perm, eps in signed_orderings(word, degree, (j,) + (1,) * (len(word) - j)):
            lin_acc(acc, chain(perm[:j], perm[j:]), eps)
    return acc


def pull_chain_taylor(source, target, max_weight, heads, chain) -> dict:
    """The symmetric degree-0 Taylor family source -> target whose arity-k
    coefficient is pull_chain_sum(word, .., heads(k), chain) on every word."""
    taylor = {}
    for k in range(1, max_weight + 1):
        fk = MultilinearMap(source.space, target, 0, k, SYMMETRIC)
        for word in source.basis_words(k):
            acc = pull_chain_sum(word, source.space.degree, heads(k), chain)
            if acc:
                fk.add_entry(word, acc)
        if not fk.is_zero():
            taylor[k] = fk
    return taylor


def pull_derived_hom_structure(V, d, w_names, a_names, max_weight=6) -> OoStructure:
    """hodge.derived_hom_structure as the projected commutators: for every
    elementary map E1 = t<-s of Hom(W, A), q1(E1) = P[d, E1] and
    q2(E1, t2<-s2) = P([d, E1](t2)) on s2, one GradedMap commutator per E1."""
    hom = hom_space(a_names, w_names, V)
    aset = set(a_names)
    q1 = MultilinearMap(hom, hom, 1, 1, TENSOR)
    q2 = MultilinearMap(hom, hom, 1, 2, TENSOR)
    for n1 in hom.names:
        comm = d.commutator(
            elementary_to_graded_map(lin_single(n1), hom, V, V, hom.degree[n1]))
        vec = _restrict_to_hom(comm.entries, w_names, a_names)
        if vec:
            q1.set_entry((n1,), vec)
        # [d, f1] o (t<-s) sends s to [d, f1](t) and the rest of V to zero
        for n2 in hom.names:
            t, s = n2.split("<-")
            vec = {"%s<-%s" % (a, s): c for a, c in comm.value(t).items() if a in aset}
            if vec:
                q2.set_entry((n1, n2), vec)
    return OoStructure(hom, TENSOR, {1: q1, 2: q2}, max_weight)


def pull_split_period_map(fpd, max_weight=4):
    """hodge.split_period_map as the sum over the k! orderings s of every
    word of (-1)^k R(s), R(()) = P-perp and
    R(s) = sum_m (-1/m!) P i_{s[0]} .. i_{s[m-1]} R(s[m:]) memoized on suffixes."""
    c = fpd.cartan
    target = symmetrize_structure(
        pull_derived_hom_structure(c.V, c.d_V, fpd.w_names, fpd.a_names, max_weight))
    source = decalage_dgla(c.L, max_weight)
    memo = {(): fpd.Pperp}

    def chain(s):
        for start in range(len(s) - 1, -1, -1):
            t = s[start:]
            if t in memo:
                continue
            inner = fpd.Pperp
            for r in range(len(t) - 1, -1, -1):
                inner = c.i[t[r]].compose(inner)
                if r:
                    inner = memo[t[r:]].add(inner, Fraction(1, r + 1))
            memo[t] = fpd.P.compose(inner).scale(-1)
        return memo[s]

    def signed_word(head, tail):
        s = head + tail
        return lin_scale(_restrict_to_hom(chain(s).entries, fpd.w_names, fpd.a_names),
                         sign_pow(len(s)))

    taylor = pull_chain_taylor(source, target.space, max_weight, lambda k: (1,), signed_word)
    return OoMorphism(source, target, taylor), target


def split_period_coefficient(k: int, j: int) -> Fraction:
    """The Hodge-splitting component coefficient via the partition sum
    k! * sum over compositions with last block > j of (-1)^{h+k}/prod(i!),
    against hodge.split_period_coefficient_closed."""
    total = Fraction(0)
    for h in range(1, k + 1):
        for part in compositions(k, h):
            if part[-1] <= j:
                continue
            total += Fraction(sign_pow(h + k), prod(map(factorial, part)))
    return total * factorial(k)


def psi_double_sum(pkg, c, xi, eta):
    """hodge.psi_obstruction as the explicit finite double sum over the
    nonzero terms pi (l_eta h)^a and (h l_xi)^b iota of the two series."""
    ring = xi.ring
    _, l_xi = cartan_artin_maps(c, xi)
    _, l_eta = cartan_artin_maps(c, eta)
    i_diff = _artin_op(c.V, c.i, xi.plus(eta.scaled(-1)))
    h = ArtinMap.from_graded(ring, pkg.h)
    iota = ArtinMap.from_graded(ring, pkg.iota)
    pi = ArtinMap.from_graded(ring, pkg.pi)
    total = ArtinMap(ring, pkg.H, pkg.H)
    lh = l_eta.compose(h)
    hl = h.compose(l_xi)
    power = ArtinMap.identity(ring, pkg.A)
    for _ in range(pkg.n):
        power = i_diff.compose(power)
    left_terms = []
    cur = pi
    while not cur.is_zero():
        left_terms.append(cur)
        cur = cur.compose(lh)
    right_terms = []
    cur = iota
    while not cur.is_zero():
        right_terms.append(cur)
        cur = hl.compose(cur)
    for lt in left_terms:
        for rt in right_terms:
            total = total.plus(lt.compose(power).compose(rt))
    return _restrict_to_top_block(pkg, total)


def _pull_contraction_words(pkg, c, w_names, a_names):
    return pull_propagator_words(pkg.pi, c.i,
                                 {x: pkg.h.compose(c.l[x]) for x in c.L.space.names},
                                 pkg.iota, w_names, a_names)


def pull_minimal_period_map(pkg, c, max_weight=3):
    hw_top, hw_low, small = _harmonic_hom(pkg, pkg.n)
    target = OoStructure(small, SYMMETRIC, {}, max_weight)
    source = decalage_dgla(c.L, max_weight)
    chain = _pull_contraction_words(pkg, c, hw_top, hw_low)
    return OoMorphism(source, target, pull_chain_taylor(
        source, small, max_weight, lambda k: range(1, k + 1), chain))


def pull_harmonic_quasi_inverse(pkg, p, source, max_weight=4):
    hw_top, hw_low, small = _harmonic_hom(pkg, p)
    target = OoStructure(small, SYMMETRIC, {}, max_weight)
    bigsp = source.space
    hdel = pkg.h.compose(pkg.dell)
    realized = {name: elementary_to_graded_map(lin_single(name), bigsp, pkg.A, pkg.A,
                                               bigsp.degree[name])
                for name in bigsp.names}
    chain = pull_propagator_words(pkg.pi, realized,
                                  {x: hdel.compose(f) for x, f in realized.items()},
                                  pkg.iota, hw_top, hw_low)
    return OoMorphism(source, target,
                      pull_chain_taylor(source, small, max_weight, lambda k: (1,), chain))


def pull_yukawa_model(pkg, c, max_weight=4):
    n = pkg.n
    hw = pkg.harmonic_names()
    top = [x for x in hw if pkg.H.bidegree[x][0] == n]
    bottom = [x for x in hw if pkg.H.bidegree[x][0] == 0]
    fiber = hom_space(bottom, top, pkg.H).shifted(-1)
    base = decalage_dgla(c.L, max_weight)
    space = pair_space(base.space, fiber)
    chain = _pull_contraction_words(pkg, c, top, bottom)
    taylor = {}
    for k in range(1, max_weight + 1):
        qk = MultilinearMap(space, space, 1, k, SYMMETRIC)
        add_prefixed(qk, base.taylor.get(k), A_PRE)
        for word in (base.basis_words(k) if k >= n else ()):
            fib = pull_chain_sum(word, base.space.degree, (n,), chain)
            if fib:
                qk.add_entry(tuple(A_PRE + w for w in word), prefix_vector(fib, B_PRE))
        if not qk.is_zero():
            taylor[k] = qk
    return OoStructure(space, SYMMETRIC, taylor, max_weight)


def pull_yukawa_model_v2(pkg, c, max_weight=4):
    """yukawa_model_v2 with its i-chains composed on every basis word: q2 over
    basis_words(2) when n == 2, q_n over basis_words(n) for n > 2."""
    n = pkg.n
    top = pkg.a_names(lambda bp, bq: bp == n)
    bottom = pkg.a_names(lambda bp, bq: bp == 0)
    hom = hom_space(bottom, top, pkg.A)
    base = decalage_dgla(c.L, max_weight)
    space = pair_space(base.space, hom.shifted(-1))
    realized = {name: elementary_to_graded_map(lin_single(name), hom, pkg.A, pkg.A,
                                               hom.degree[name])
                for name in hom.names}
    q1 = MultilinearMap(space, space, 1, 1, SYMMETRIC)
    add_prefixed(q1, base.taylor.get(1), A_PRE)
    for name in hom.names:
        vec = _restrict_to_hom(pkg.delbar.commutator(realized[name]).entries, top, bottom)
        if vec:
            q1.set_entry((B_PRE + name,), prefix_vector(lin_scale(vec, -1), B_PRE))
    q2 = MultilinearMap(space, space, 1, 2, SYMMETRIC)
    add_prefixed(q2, base.taylor.get(2), A_PRE)
    for x, y in (base.basis_words(2) if n == 2 else ()):
        vec = _restrict_to_hom(c.i[x].compose(c.i[y]).entries, top, bottom)
        if vec:
            q2.add_entry((A_PRE + x, A_PRE + y), prefix_vector(vec, B_PRE))
    for name in hom.names:
        for x in c.L.space.names:
            vec = _restrict_to_hom(realized[name].compose(c.l[x]).entries, top, bottom)
            if vec:
                swap = space.degree[A_PRE + x] * space.degree[B_PRE + name]
                q2.add_entry((A_PRE + x, B_PRE + name), prefix_vector(vec, B_PRE),
                             Fraction(sign_pow(hom.degree[name] - 1 + swap)))
    taylor = {1: q1, 2: q2}
    if n > 2 and n <= max_weight:
        qn = MultilinearMap(space, space, 1, n, SYMMETRIC)
        for word in base.basis_words(n):
            cur = GradedMap.identity(pkg.A)
            for x in reversed(word):
                cur = c.i[x].compose(cur)
            vec = _restrict_to_hom(cur.entries, top, bottom)
            if vec:
                qn.add_entry(tuple(A_PRE + w for w in word), prefix_vector(vec, B_PRE))
        taylor[n] = qn
    return OoStructure(space, SYMMETRIC, taylor, max_weight)


# ---------------------------------------------------------------------------
# cocone builders, one left-nested product per word


def pull_symmetrized(q: MultilinearMap) -> MultilinearMap:
    """MultilinearMap.symmetrized as the signed sum over the k! orderings of
    every sorted word."""
    out = MultilinearMap(q.source, q.target, q.degree, q.arity, SYMMETRIC)
    deg = q.source.degree
    for word in sym_words(q.source.names, deg, q.arity):
        acc: dict = {}
        for perm, sign in signed_orderings(word, deg, (1,) * q.arity):
            lin_acc(acc, q.entries.get(perm, {}), sign)
        if acc:
            out.set_entry(word, acc)
    return out


def pull_fm_cocone_assoc(f, max_weight=6) -> OoStructure:
    """cocone.fm_cocone_assoc over every front and back of itertools.product."""
    A, B = f.source, f.target
    space = pair_space(A.space.shifted(1), B.space)
    taylor = {1: _cocone_q1(f, space, TENSOR),
              2: MultilinearMap(space, space, 1, 2, TENSOR)}
    add_prefixed(taylor[2], decalage_dga(A, max_weight, validate=False).taylor.get(2), A_PRE)
    bdeg = B.space.degree
    for w in range(1, max_weight):
        if w >= 2 and bernoulli(w) == 0:
            continue
        qk = taylor.setdefault(w + 1, MultilinearMap(space, space, 1, w + 1, TENSOR))
        for i in range(w + 1):
            j = w - i
            base = bernoulli(w) / (factorial(i) * factorial(j))
            for x in A.space.names:
                fx = f.map.value(x)
                if not fx:
                    continue
                for front in itertools.product(B.space.names, repeat=i):
                    sgn = sign_pow(i + 1 + sum(bdeg[b] for b in front))
                    mid = B.mul(nested(B.mul, lin_single(front[0]), front[1:]), fx) \
                        if front else fx
                    if not mid:
                        continue
                    for back in itertools.product(B.space.names, repeat=j):
                        out = nested(B.mul, mid, back)
                        if out:
                            key = tuple(B_PRE + b for b in front) + (A_PRE + x,) + \
                                tuple(B_PRE + b for b in back)
                            qk.add_entry(key, prefix_vector(out, B_PRE), base * sgn)
    taylor = {k: q for k, q in taylor.items() if not q.is_zero()}
    return OoStructure(space, TENSOR, taylor, max_weight)


def pull_exp_log_isos(f, max_weight=6):
    """cocone.exp_log_isos with e_k and l_k built word by word, each word's
    product computed once per map."""
    B = f.target
    cinf = pull_fm_cocone_assoc(f, max_weight)
    cas = decalage_dga(cocone_associative(f), max_weight, validate=False)
    space = cinf.space

    def word_maps(coeff_fn, source, target):
        one = MultilinearMap(space, space, 0, 1, TENSOR)
        for n in space.names:
            one.set_entry((n,), lin_single(n))
        taylor = {1: one}
        for k in range(2, max_weight + 1):
            ek = MultilinearMap(space, space, 0, k, TENSOR)
            for word in itertools.product(B.space.names, repeat=k):
                vec = nested(B.mul, lin_single(word[0]), word[1:])
                if vec:
                    ek.set_entry(tuple(B_PRE + b for b in word),
                                 lin_scale(prefix_vector(vec, B_PRE), coeff_fn(k)))
            if not ek.is_zero():
                taylor[k] = ek
        return OoMorphism(source, target, taylor)

    return (word_maps(lambda k: Fraction(1, factorial(k)), cinf, cas),
            word_maps(lambda k: Fraction((-1) ** (k + 1), k), cas, cinf))


def pull_g_taylor(split, contraction, cinf_space, max_weight, c) -> dict:
    """derived_products_model's g_k on every word of itertools.product:
    g_k(w) = sum_m c(m) P(w_1..w_m . g_{k-m}(w[m:])), the m = k term without
    the product, stopping at the first vanishing prefix."""
    amb = split.ambient
    taylor = {1: multilinear_from_graded_map(contraction.project, TENSOR)}
    for k in range(2, max_weight + 1):
        gk = MultilinearMap(cinf_space, contraction.small, 0, k, TENSOR)
        for word in itertools.product(amb.space.names, repeat=k):
            bword = tuple(B_PRE + b for b in word)
            acc: dict = {}
            for m in range(1, k + 1):
                vec = nested(amb.mul, lin_single(word[0]), word[1:m])
                if not vec:
                    break
                if m < k:
                    tail = taylor.get(k - m)
                    vec = amb.mul(vec, tail.value(bword[m:])) if tail else {}
                lin_acc(acc, split.P.apply(vec), c(m))
            if acc:
                gk.set_entry(bword, acc)
        if not gk.is_zero():
            taylor[k] = gk
    return taylor


def pull_derived_brackets(split, k: int) -> MultilinearMap:
    """phi_k(a_1 .. a_k) = P[...[d a_1, a_2]..., a_k] on every sorted word."""
    M = split.ambient
    Asp = split.complement_space()
    qk = MultilinearMap(Asp, Asp, 1, k, SYMMETRIC)
    for word in sym_words(split.complement_names, Asp.degree, k):
        val = split.P.apply(nested(bracket_vec(M), M.d.value(word[0]), word[1:]))
        if val:
            qk.set_entry(word, val)
    return qk


def pull_voronov_action(split, max_weight=6) -> CoderAction:
    """voronov_brackets' action (m; a_1..a_k) -> P[...[m, a_1]..., a_k] on
    every basis letter m and sorted word of the complement."""
    M = split.ambient
    Asp = split.complement_space()
    action = CoderAction(M.space.shifted(1), Asp)
    for m in M.space.names:
        val = split.P.value(m)
        if val:
            action.set((m,), (), val)
        for k in range(1, max_weight + 1):
            for word in sym_words(split.complement_names, Asp.degree, k):
                pv = split.P.apply(nested(bracket_vec(M), lin_single(m), word))
                if pv:
                    action.set((m,), word, pv)
    return action


def pull_semidirect_product(I, M, action, max_weight=6) -> OoStructure:
    """semidirect_product (unvalidated) over every pair of sorted i- and m-words."""
    space = pair_space(I.space, M.space)
    ideg = I.space.degree
    mdeg = M.space.degree
    taylor = {}
    for k in range(1, max_weight + 1):
        qk = MultilinearMap(space, space, 1, k, SYMMETRIC)
        add_prefixed(qk, I.taylor.get(k), A_PRE)
        for j in range(0, k + 1):
            for iword in sym_words(I.space.names, ideg, j):
                for mword in sym_words(M.space.names, mdeg, k - j):
                    if not mword:
                        continue
                    vec: dict = {}
                    act = action.value(mword, iword)
                    if act:
                        sw = sum(ideg[n] for n in iword) * sum(mdeg[n] for n in mword)
                        lin_acc(vec, prefix_vector(act, A_PRE), sign_pow(sw))
                    rm = M.taylor.get(k)
                    if j == 0 and rm is not None:
                        lin_acc(vec, prefix_vector(rm.value(mword), B_PRE))
                    if vec:
                        qk.add_entry(tuple(A_PRE + n for n in iword) +
                                     tuple(B_PRE + n for n in mword), vec)
        if not qk.is_zero():
            taylor[k] = qk
    return OoStructure(space, SYMMETRIC, taylor, max_weight)


def pull_fiber_product_model(L, split, F, max_weight=6) -> OoStructure:
    """fiber_product_model over every sorted x-word and a-word."""
    M = split.ambient
    Asp = split.complement_space()
    base = decalage_dgla(L, max_weight, validate=False)
    space = pair_space(Asp, base.space)
    adeg = Asp.degree
    xdeg = base.space.degree
    taylor = {}
    for k in range(1, max_weight + 1):
        qk = MultilinearMap(space, space, 1, k, SYMMETRIC)
        add_prefixed(qk, pull_derived_brackets(split, k), A_PRE)
        add_prefixed(qk, base.taylor.get(k), B_PRE)
        for word in sym_words(L.space.names, xdeg, k):
            vec = prefix_vector(split.P.apply(_f_value(F, word)), A_PRE)
            if vec:
                qk.add_entry(tuple(B_PRE + x for x in word), vec)
        for j in range(1, k):
            fj = F.taylor.get(j)
            if fj is None:
                continue
            for xword in sym_words(L.space.names, xdeg, j):
                sf = fj.value(xword)
                if not sf:
                    continue
                for aword in sym_words(split.complement_names, adeg, k - j):
                    val = split.P.apply(nested(bracket_vec(M), sf, aword))
                    if val:
                        sw = sum(adeg[a] for a in aword) * sum(xdeg[x] for x in xword)
                        qk.add_entry(tuple(A_PRE + a for a in aword) +
                                     tuple(B_PRE + x for x in xword),
                                     prefix_vector(val, A_PRE), sign_pow(sw))
        if not qk.is_zero():
            taylor[k] = qk
    return OoStructure(space, SYMMETRIC, taylor, max_weight)


def pull_eval_taylor(q, args) -> ArtinElement:
    """Multilinear evaluation of a Taylor coefficient on Artin elements.

    Each argument is grouped by monomial, and the monomial tuples are built
    one argument at a time: a partial tuple is dropped as soon as its product
    leaves B.  q is expanded on the name vectors of every surviving tuple.
    """
    ring = args[0].ring
    out = ArtinElement(ring, q.target, allow_constant=True)
    tuples = [(ring.one, [])]
    for a in args:
        grouped = a.by_mono()
        tuples = [(prod, vecs + [vec]) for mono, vecs in tuples
                  for m, vec in grouped.items()
                  if (prod := ring.mul(mono, m)) is not None]
    for mono, vecs in tuples:
        for t, c in q.apply_vectors(vecs).items():
            out.add(t, mono, c)
    return out


def pull_exp_series(taylor: dict, x, target) -> ArtinElement:
    """sum_{n>=1} (1/n!) t_n(x^{(.)n}), with every t_n evaluated by
    pull_eval_taylor on n copies of x: every ordered tuple of x's monomials
    whose product survives in B, expanded by MultilinearMap.apply_vectors."""
    out = ArtinElement(x.ring, target, allow_constant=True)
    for n in range(1, x.ring.order):
        t = taylor.get(n)
        if t is not None:
            out = out.plus(pull_eval_taylor(t, [x] * n).scaled(Fraction(1, factorial(n))))
    return out
