"""Tensor and symmetric coalgebra calculus.

Strong homotopy structures are held as weight-indexed families of Taylor
coefficients; the coalgebras T(V), S(V) are never materialized.  Checking,
composing, inverting, transferring and transporting them are sums over the
coderivation and morphism components: Q^j_k inserts one q into the word, and
F^j_k splits the word into j blocks, each sent through one f.

These sums are pushed from the Taylor supports in both flavors: every stored
entry of the outer family is carried back through an inverse index of the
inner one (push_insertion, push_product), so only words with a nonzero term
are visited, as in Gustavson's sparse product.  The product kernel fills a
range of weights in one walk of the sorted keys over a stack of prefix
tables, so keys that share a prefix share its expansion.  These kernels
expand the keys of a Taylor family, not a chain of one operation, so they
keep their own int loops; every chain of products, brackets or operators
grows through graded's one walk, graded.push.  The flavor
matters where a word of blocks becomes a basis word: concatenation in T(V),
the sorted word with its Koszul sign and multiplicity weight in S(V).  The
terms are summed as plain ints: each family is multiplied by the lcm D of
its denominators (Scaled), every term is brought to one scale per weight
(D_outer D_inner for an insertion, D_outer D_inner^k k! for a product), and
each output coefficient is divided once at the end; a check divides only
its witness's residual, and a builder hands the kernel's (ints, scale)
output to pushed_map, which stores it at 1/scale through MultilinearMap.store.
Also home to the DG-Lie / DG-associative source types and the decalage
constructors feeding everything downstream; both flavors of decalage share
one body, with q2 read from the operation's stored entries
(shifted_products), which the FM cocones read too.  Their axioms are read
off the decalage residual: d^2 = 0, Leibniz and associativity are weights
1-3 of [Q,Q] on the tensor decalage, a DG morphism's are weights 1-2 of
check_morphism, and antisymmetry and Jacobi are pushed from the bracket's
entries.  End(V) is end_dga, with
[d, -] from graded.hom_differential and the product stored from the n^3
composable triples; end_dgla is its commutator DGLA, pushed from the
product's entries, and End(V; W) filters the stored entries.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, lcm

from .graded import (
    GradedMap, GradedSpace, MalformedInput, MultilinearMap, RejectedInput,
    Report, SYMMETRIC, TENSOR, format_vector,
    hom_differential, hom_space, lin_acc, lin_scale, lin_single,
    linear_part, map_right_inverse, merge_words, multilinear_from_graded_map,
    scaled_ints, sign_pow, stabilizer, sym_words, unscaled,
)


class OoStructure:
    """An A-infinity[1] (tensor) or L-infinity[1] (symmetric) structure.

    taylor maps every arity k >= 1 to a degree +1 MultilinearMap; anything
    above max_weight is truncated away, which is lossless over a nilpotent
    base of order <= max_weight + 1.
    """

    def __init__(self, space: GradedSpace, flavor: str, taylor: dict,
                 max_weight: int = 6):
        if flavor not in (TENSOR, SYMMETRIC):
            raise MalformedInput("flavor must be tensor or symmetric")
        self.space = space
        self.flavor = flavor
        self.max_weight = int(max_weight)
        self.taylor = {}
        for k, q in taylor.items():
            if q is None or q.is_zero():
                continue
            if k < 1:
                raise MalformedInput("Taylor coefficients start at arity 1 (q_0 = 0)")
            if q.degree != 1:
                raise MalformedInput("structure Taylor coefficients must have degree +1")
            if q.arity != k or q.flavor != flavor or q.source != space or q.target != space:
                raise MalformedInput("taylor coefficient q_%d has wrong shape" % k)
            self.taylor[k] = q

    def basis_words(self, k: int):
        if self.flavor == TENSOR:
            return itertools.product(self.space.names, repeat=k)
        return sym_words(self.space.names, self.space.degree, k)

    def __repr__(self):
        return "OoStructure(%s, dim %d, arities %s, max_weight %d)" % (
            self.flavor, self.space.dim, sorted(self.taylor), self.max_weight)


class OoMorphism:
    """Morphism of DG-coalgebras given by its degree-0 Taylor coefficients."""

    def __init__(self, source: OoStructure, target: OoStructure, taylor: dict):
        if source.flavor != target.flavor:
            raise MalformedInput("source and target flavor differ")
        self.source = source
        self.target = target
        self.flavor = source.flavor
        self.max_weight = min(source.max_weight, target.max_weight)
        self.taylor = {}
        for k, f in taylor.items():
            if f is None or f.is_zero():
                continue
            if k < 1 or f.degree != 0 or f.arity != k or f.flavor != self.flavor:
                raise MalformedInput("morphism coefficient f_%d has wrong shape" % k)
            if f.source != source.space or f.target != target.space:
                raise MalformedInput("morphism coefficient f_%d has wrong spaces" % k)
            self.taylor[k] = f

    def __repr__(self):
        return "OoMorphism(%s, arities %s)" % (self.flavor, sorted(self.taylor))


# ---------------------------------------------------------------------------
# sums pushed from the Taylor supports


def preimages(entries: dict) -> dict:
    """{y: [(u, c), ...]} over the keys u of a map's entries, with c the
    coefficient of the basis name y in the image of u."""
    inv: dict = {}
    for u, vec in entries.items():
        for y, c in vec.items():
            inv.setdefault(y, []).append((u, c))
    return inv


class Scaled:
    """The arities n <= top of a Taylor family t at one integer scale D:
    entries[n] = D t_n (graded.scaled_ints) and inv[n] = preimages(entries[n]),
    with the source space of t and whether its words are read in S(V)."""

    def __init__(self, taylor: dict, top: int):
        self.scale, self.entries = scaled_ints(taylor, top)
        self.inv = {n: preimages(e) for n, e in self.entries.items()}
        t = next(iter(taylor.values()), None)
        self.space = t.source if t is not None else None
        self.symmetric = t is not None and t.flavor == SYMMETRIC


def push_insertion(outer: dict, inner: dict, k: int) -> dict:
    """sum_j t_j(Q^j_k w) on every weight-k word w at once, as {w: vector},
    for t = outer and Q the degree +1 coderivation with Taylor family inner."""
    words, scale = _insertion(Scaled(outer, k), Scaled(inner, k), k)
    return {w: unscaled(vec, scale) for w, vec in words.items()}


def _insertion(outer: Scaled, inner: Scaled, k: int) -> tuple:
    """push_insertion on scaled families, as ({w: int vector}, scale).

    Each key K of t_j, letter y = K[i] and preimage (u, c) of y under
    q_{k-j+1} add (-1)^{|K[:i]|} c t_j(K) at the word K[:i] + u + K[i+1:].
    In T(V) that word is the basis word and every position counts.  In S(V)
    each distinct letter of K counts once, and the word is read sorted: it
    is the merge of K without K[i] and u (graded.merge_words), with one more
    sign (-1)^{(|y|+1)|K[i+1:]|} for moving u, of degree |y| - 1, past
    K[i+1:] first.  Every other word gets no term, so it is zero.
    Every term is one outer and one inner coefficient times an int, so the
    sum has the scale D_outer D_inner; terms are summed as ints, and zeros
    dropped at the end.
    """
    scale = outer.scale * inner.scale
    inv = inner.inv
    if not any(inv.values()):
        return {}, scale
    symmetric, index, degree = inner.symmetric, inner.space.index, inner.space.degree
    out: dict = {}
    for j, entries in outer.entries.items():
        pre = inv.get(k - j + 1)
        if not pre:
            continue
        for key, vec in entries.items():
            odd, after = 0, sum(degree[x] for x in key) & 1 if symmetric else 0
            for i, y in enumerate(key):
                dy = degree[y] & 1
                after ^= dy                 # odd, after: |K[:i]|, |K[i+1:]| mod 2 (S(V))
                if y in pre and not (symmetric and i and key[i - 1] == y):
                    if symmetric:
                        rest, flip = key[:i] + key[i + 1:], odd ^ (after & (dy ^ 1))
                    else:
                        flip = odd
                    for u, c in pre[y]:
                        if symmetric:
                            got = merge_words(rest, u, index, degree)
                            if got is None:
                                continue
                            w, c = got[0], c * got[1]
                        else:
                            w = key[:i] + u + key[i + 1:]
                        acc, m = out.setdefault(w, {}), -c if flip else c
                        for x, v in vec.items():
                            acc[x] = acc.get(x, 0) + v * m
                odd ^= dy
    return _nonzero(out), scale


def push_product(outer: dict, inner: dict, k: int, lo: int = 1) -> dict:
    """sum_{j>=lo} t_j(F^j_k w) on every weight-k word w at once, as
    {w: vector}, for t = outer and F the morphism with Taylor family inner."""
    words, scale = _products(Scaled(outer, k), Scaled(inner, k), k, k, lo)[k]
    return {w: unscaled(vec, scale) for w, vec in words.items()}


def _products(outer: Scaled, inner: Scaled, kmin: int, kmax: int, lo: int = 1) -> dict:
    """push_product on scaled families at every weight k in kmin..kmax at
    once, as {k: ({w: int vector}, scale_k)}.

    Each key K of t_j and each choice of preimages (u_i, c_i) of K[i] under
    f, of total length k, adds prod c_i . t_j(K) at the word u_1 + .. + u_j;
    f has degree 0, so there is no insertion sign.  In S(V) that word is
    read sorted, with its Koszul sign and the weight of the ways to cut it
    into the blocks u_i, and the ordered choices count every term stab(K)
    times, so the sum is divided by it.  A term has the scale
    D_outer D_inner^j stab(K) and is lifted to its weight's scale
    D_outer D_inner^k k! by the int D_inner^(k-j) k!/stab(K) (stab(K)
    divides j!, which divides k!); T(V) leaves out k! and stab(K).
    The keys of t_j are walked sorted, over a stack of the partial tables
    {u_1 + .. + u_i: prod c} of the current key's prefixes K[:i], popped
    back to the prefix the next key shares, so each shared prefix is grown
    once for every weight.  A finished word goes to the bucket of its length
    with that weight's lift; terms are summed as ints, and zeros dropped at
    the end.  A key with a letter that no inner coefficient writes is skipped.
    """
    symmetric, inv, top = inner.symmetric, inner.inv, max(inner.inv, default=0)
    fact = [factorial(k) if symmetric else 1 for k in range(kmax + 1)]
    blocks: dict = {}               # y: [(n, preimages of y under f_n)], n ascending
    for n in sorted(inv):
        for y, pairs in inv[n].items():
            blocks.setdefault(y, []).append((n, pairs))
    index, degree = (inner.space.index, inner.space.degree) if blocks else ({}, {})
    buckets = {k: {} for k in range(kmin, kmax + 1)}
    for j, entries in outer.entries.items():
        if not (blocks and lo <= j <= kmax):
            continue
        lifts = {k: inner.scale ** (k - j) * fact[k] for k in range(max(j, kmin), kmax + 1)}
        stack, prev = [{(): 1}], ()
        for key in sorted(K for K in entries if blocks.keys() >= set(K)):
            p = 0
            while p < len(prev) and key[p] == prev[p]:
                p += 1
            del stack[p + 1:]
            for i in range(p, j):
                left, nxt = j - i - 1, {}
                for w, c in stack[i].items():
                    least, most = kmin - len(w) - left * top, kmax - len(w) - left
                    for n, pairs in blocks[key[i]]:
                        if n > most:
                            break
                        for u, cu in pairs if n >= least else ():
                            if symmetric:
                                got = merge_words(w, u, index, degree)
                                if got is None:
                                    continue
                                v, cv = got[0], c * cu * got[1]
                            else:
                                v, cv = w + u, c * cu
                            nxt[v] = nxt.get(v, 0) + cv
                stack.append(nxt)
            prev, stab = key, stabilizer(key) if symmetric else 1
            for w, c in stack[j].items():
                m, acc = c * (lifts[len(w)] // stab), buckets[len(w)].setdefault(w, {})
                for y, v in entries[key].items():
                    acc[y] = acc.get(y, 0) + v * m
    return {k: (_nonzero(words), outer.scale * inner.scale ** k * fact[k])
            for k, words in buckets.items()}


def _nonzero(words: dict) -> dict:
    """{w: vector} with zero coefficients, and then empty vectors, dropped."""
    return {w: nz for w, vec in words.items() for nz in [{y: c for y, c in vec.items() if c}]
            if nz}


def in_basis_order(space: GradedSpace, pushed: dict) -> list:
    """The (word, vector) pairs of a pushed map with a nonzero vector, in
    basis_words order (index-lexicographic)."""
    index = space.index
    return sorted(((w, v) for w, v in pushed.items() if v),
                  key=lambda item: [index[n] for n in item[0]])


def pushed_map(source: GradedSpace, target: GradedSpace, degree: int, k: int,
               flavor: str, pushed: tuple, apply=None) -> MultilinearMap:
    """The arity-k map of a kernel's output pushed = ({w: int vector}, D),
    stored at 1/D, each vector first sent through the linear map `apply`
    when one is given (a GradedMap's apply commutes with the scale)."""
    words, scale = pushed
    if apply is not None:
        words = {w: apply(vec) for w, vec in words.items()}
    return MultilinearMap(source, target, degree, k, flavor).store(words, Fraction(1, scale))


# ---------------------------------------------------------------------------
# structure / morphism verification


def _check_weights(r: Report, label: str, top: int, word_space: GradedSpace,
                   lhs_space: GradedSpace, pushed):
    """One check per weight k <= top: pushed(k) gives the scaled residual of
    every word of word_space at once, as ({word: int vector}, scale).  The
    first failing word in basis order is the witness, and its residual,
    divided back and read in lhs_space, the lhs."""
    for k in range(1, top + 1):
        residual, scale = pushed(k)
        failing = in_basis_order(word_space, residual)
        if not failing:
            r.add(label, True, weight=k)
        else:
            word, vec = failing[0]
            r.add(label, False, weight=k, witness=word,
                  lhs=format_vector(unscaled(vec, scale), lhs_space), rhs="0")
    return r


def check_structure(s: OoStructure, max_weight=None) -> Report:
    """Verify [Q,Q] = 0 up to the requested weight; first failing word wins."""
    top = s.max_weight if max_weight is None else min(max_weight, s.max_weight)
    q = Scaled(s.taylor, top)
    return _check_weights(Report("structure equation"), "QQ=0", top, s.space, s.space,
                          lambda k: _insertion(q, q, k))


def check_morphism(F: OoMorphism, max_weight=None) -> Report:
    """Verify p(F Q) = p(R F) componentwise up to the requested weight."""
    s, t = F.source, F.target
    top = F.max_weight if max_weight is None else min(max_weight, F.max_weight)
    f, q, r = Scaled(F.taylor, top), Scaled(s.taylor, top), Scaled(t.taylor, top)
    prods = _products(r, f, 1, top)

    def pushed(k):
        # both sides brought to the lcm of their scales, still ints
        res, left = _insertion(f, q, k)
        prod, right = prods.pop(k)
        scale = lcm(left, right)
        if scale != left:
            res = {w: lin_scale(vec, scale // left) for w, vec in res.items()}
        for w, vec in prod.items():
            lin_acc(res.setdefault(w, {}), vec, -(scale // right))
        return res, scale

    return _check_weights(Report("morphism equation"), "FQ=RF", top, s.space, t.space,
                          pushed)


# ---------------------------------------------------------------------------
# composition, identity, inverse


def identity_morphism(s: OoStructure) -> OoMorphism:
    f1 = multilinear_from_graded_map(GradedMap.identity(s.space), s.flavor)
    return OoMorphism(s, s, {1: f1})


def compose_morphisms(G: OoMorphism, F: OoMorphism, max_weight=None) -> OoMorphism:
    """G o F as coalgebra morphisms: (GF)_k = sum_j g_j F^j_k."""
    if F.target is not G.source and F.target.space != G.source.space:
        raise MalformedInput("composition shape mismatch")
    top = max_weight or min(F.max_weight, G.max_weight)
    g, f = Scaled(G.taylor, top), Scaled(F.taylor, top)
    taylor = {k: pushed_map(F.source.space, G.target.space, 0, k, F.flavor, pushed)
              for k, pushed in _products(g, f, 1, top).items()}
    return OoMorphism(F.source, G.target, taylor)


def invert_morphism(F: OoMorphism, max_weight=None) -> OoMorphism:
    """Coalgebra inverse of F (requires invertible f_1)."""
    top = max_weight or F.max_weight
    f1 = F.taylor.get(1)
    if f1 is None:
        raise RejectedInput("f_1 is zero, morphism is not invertible")
    inv1 = map_right_inverse(linear_part(f1, F.source.space, F.target.space, 0))
    if inv1 is None or F.source.space.dim != F.target.space.dim:
        raise RejectedInput("f_1 is not invertible")
    # one H grows weight by weight, as in transfer_structure: H^j_k with
    # j >= 2 reads only h_i with i < k, so the pushed sum never reads a
    # coefficient before it is final; h_k = -inv1(sum), the sign on the scale
    H = OoMorphism(F.target, F.source, {1: multilinear_from_graded_map(inv1, F.flavor)})
    f = Scaled(F.taylor, top)
    for k in range(2, top + 1):
        words, scale = _products(f, Scaled(H.taylor, k), k, k, 2)[k]
        hk = pushed_map(F.target.space, F.source.space, 0, k, F.flavor, (words, -scale),
                        inv1.apply)
        if not hk.is_zero():
            H.taylor[k] = hk
    return H


def transport_structure(G: OoMorphism, max_weight=None) -> OoStructure:
    """The unique structure on the target space making G an isomorphism from
    G.source: Q~ = G Q G^{-1} (target structure of G is ignored).

    Two pushes: P_b = sum_j g_j Q^j_b on the b-words of G.source, then
    q~_k = sum_b P_b H^b_k with H = G^{-1}."""
    top = max_weight or G.max_weight
    H = invert_morphism(G, top)
    s = G.source
    space = G.target.space
    g, q = Scaled(G.taylor, top), Scaled(s.taylor, top)
    P = {b: pushed_map(s.space, space, 1, b, G.flavor, _insertion(g, q, b))
         for b in range(1, top + 1)}
    p, h = Scaled(P, top), Scaled(H.taylor, top)
    taylor = {k: pushed_map(space, space, 1, k, G.flavor, pushed)
              for k, pushed in _products(p, h, 1, top).items()}
    return OoStructure(space, G.flavor, taylor, top)


# ---------------------------------------------------------------------------
# symmetrization


def symmetrize_structure(s: OoStructure) -> OoStructure:
    if s.flavor != TENSOR:
        raise MalformedInput("symmetrization takes an A-infinity[1] input")
    taylor = {k: q.symmetrized() for k, q in s.taylor.items()}
    return OoStructure(s.space, SYMMETRIC, taylor, s.max_weight)


def symmetrize_morphism(F: OoMorphism, sym_source=None, sym_target=None) -> OoMorphism:
    if F.flavor != TENSOR:
        raise MalformedInput("symmetrization takes an A-infinity[1] input")
    src = sym_source or symmetrize_structure(F.source)
    tgt = sym_target or symmetrize_structure(F.target)
    taylor = {k: f.symmetrized() for k, f in F.taylor.items()}
    return OoMorphism(src, tgt, taylor)


# ---------------------------------------------------------------------------
# DG-Lie and DG-associative sources


def _decalage_residual(alg, op: MultilinearMap, top: int, built=None) -> dict:
    """{k: {word: int vector}}, the [Q,Q] residual at the weights k <= top of
    the tensor decalage of alg (or `built`), with q2 read from op as a plain
    binary operation on every ordered word.  Up to one sign per word it is
    d^2 x at (x,), the Leibniz defect d(xy) - dx.y - (-1)^|x| x.dy at (x, y)
    and the associator (xy)z - x(yz) at (x, y, z): each axiom fails on them."""
    q = Scaled((built or _decalage(alg, op, TENSOR, top, False)).taylor, top)
    return {k: _insertion(q, q, k)[0] for k in range(1, top + 1)}


def _lie_residuals(sp: GradedSpace, bracket: MultilinearMap) -> tuple:
    """The antisymmetry residual [x,y] + (-1)^{|x||y|}[y,x] at (x, y) and the
    Jacobi residual [x,[y,z]] - [[x,y],z] - (-1)^{|x||y|}[y,[x,z]] at
    (x, y, z), as {word: vector} pushed from the stored entries: [a,b] = v
    adds v at (a, b) and (-1)^{|a||b|} v at (b, a), and with each [x,c] = w
    or [c,z] = w for a letter c of v, the Jacobi terms v_c w at (x, a, b),
    -(-1)^{|a||x|} v_c w at (a, x, b) and -v_c w at (a, b, z)."""
    deg, entries = sp.degree, bracket.entries
    left, right = {}, {}            # left[c]: [(z, [c,z])], right[c]: [(x, [x,c])]
    anti, jacobi = {}, {}
    for (a, b), vec in entries.items():
        left.setdefault(a, []).append((b, vec))
        right.setdefault(b, []).append((a, vec))
    for (a, b), vec in entries.items():
        lin_acc(anti.setdefault((a, b), {}), vec)
        lin_acc(anti.setdefault((b, a), {}), vec, sign_pow(deg[a] * deg[b]))
        for c, vc in vec.items():
            for x, w in right.get(c, ()):
                lin_acc(jacobi.setdefault((x, a, b), {}), w, vc)
                lin_acc(jacobi.setdefault((a, x, b), {}), w, -sign_pow(deg[a] * deg[x]) * vc)
            for z, w in left.get(c, ()):
                lin_acc(jacobi.setdefault((a, b, z), {}), w, -vc)
    return anti, jacobi


def _residual_report(title: str, sp: GradedSpace, residuals) -> Report:
    """One check per (label, {word: vector}) residual, in order: it holds
    when every vector is empty, and its witness is the first failing word in
    basis order (in_basis_order), a bare name at weight 1."""
    r = Report(title)
    for label, residual in residuals:
        failing = in_basis_order(sp, residual)
        word = failing[0][0] if failing else None
        r.add(label, word is None, witness=word[0] if word and len(word) == 1 else word)
    return r


class DgLieAlgebra:
    """DGLA with named basis: differential (degree +1) and bracket table."""

    def __init__(self, space: GradedSpace, d: GradedMap, bracket: MultilinearMap):
        if d.degree != 1 or d.source != space or d.target != space:
            raise MalformedInput("differential must be a degree +1 endomorphism")
        if bracket.arity != 2 or bracket.degree != 0 or bracket.flavor != TENSOR or \
                (bracket.source, bracket.target) != (space, space):
            raise MalformedInput("bracket must be a tensor-flavor arity-2 degree-0 map "
                                 "on the algebra's space")
        self.space = space
        self.d = d
        self.bracket = bracket

    def check(self) -> Report:
        """d^2 = 0 and leibniz off the decalage residual, which reads the
        bracket on every ordered word and so assumes no antisymmetry; then
        antisymmetry and Jacobi pushed from the bracket's entries."""
        res = _decalage_residual(self, self.bracket, 2)
        anti, jacobi = _lie_residuals(self.space, self.bracket)
        return _residual_report("dgla", self.space, [
            ("d^2=0", res[1]), ("antisymmetry", anti), ("leibniz", res[2]), ("jacobi", jacobi)])


class DgAlgebra:
    """DG associative algebra with named basis (not required to be unital)."""

    def __init__(self, space: GradedSpace, d: GradedMap, product: MultilinearMap):
        if d.degree != 1 or d.source != space or d.target != space:
            raise MalformedInput("differential must be a degree +1 endomorphism")
        if product.arity != 2 or product.degree != 0 or product.flavor != TENSOR or \
                (product.source, product.target) != (space, space):
            raise MalformedInput("product must be a tensor-flavor arity-2 degree-0 map "
                                 "on the algebra's space")
        self.space = space
        self.d = d
        self.product = product

    def mul(self, u: dict, v: dict) -> dict:
        return self.product.apply_vectors([u, v])

    def check(self, decalage: OoStructure = None) -> Report:
        """d^2 = 0, associativity and leibniz off the residual at weights 1,
        3 and 2 of the tensor decalage, or of `decalage` (decalage_dga's)."""
        res = _decalage_residual(self, self.product, 3, decalage)
        return _residual_report("dg algebra", self.space, [
            ("d^2=0", res[1]), ("associativity", res[3]), ("leibniz", res[2])])

    def commutator_dgla(self) -> DgLieAlgebra:
        """[x, y] = xy - (-1)^{|x||y|} yx, pushed from the product's stored
        entries: each xy = v adds v at (x, y) and -(-1)^{|x||y|} v at (y, x)."""
        deg = self.space.degree
        table: dict = {}
        for (x, y), vec in self.product.entries.items():
            lin_acc(table.setdefault((x, y), {}), vec)
            lin_acc(table.setdefault((y, x), {}), vec, -sign_pow(deg[x] * deg[y]))
        return DgLieAlgebra(self.space, self.d, MultilinearMap(
            self.space, self.space, 0, 2, TENSOR).store(table))


class _DgMorphism:
    """A degree-0 chain map between DG algebras of one kind that respects
    their operation, the attribute named `op`: check reports chain_map, then
    `label` with the first basis pair (x, y) where map(op(x, y)) and
    op(map x, map y) differ as its witness."""
    title = label = op = ""

    def __init__(self, source, target, gmap: GradedMap):
        if gmap.degree != 0 or gmap.source != source.space or gmap.target != target.space:
            raise MalformedInput("morphism must be a degree-0 map with matching spaces")
        self.source = source
        self.target = target
        self.map = gmap

    def check(self) -> Report:
        """Read off check_morphism between the tensor decalages: up to sign,
        FQ = RF is g d = d g at weight 1 and g(xy) = g(x)g(y) at weight 2."""
        src, tgt = (_decalage(a, getattr(a, self.op), TENSOR, 2, False)
                    for a in (self.source, self.target))
        chain, compatible = check_morphism(decalage_dgla_morphism(self, src, tgt)).checks
        r = Report(self.title)
        r.add("chain_map", chain["ok"])
        r.add(self.label, compatible["ok"], witness=compatible["witness"])
        return r


class DglaMorphism(_DgMorphism):
    """DGLA morphism: a degree-0 chain map compatible with the brackets."""
    title, label, op = "dgla morphism", "bracket_compatible", "bracket"


class DgaMorphism(_DgMorphism):
    """Morphism of DG associative algebras."""
    title, label, op = "dga morphism", "multiplicative", "product"


# ---------------------------------------------------------------------------
# decalage


def shifted_products(op: MultilinearMap, flavor: str) -> dict:
    """q2(x (.) y) = (-1)^{|x|} op(x, y) of the decalage, read through the
    degree shift (names are kept), as {word: vector} on the stored entries of
    an arity-2 tensor-flavor op.  In S(V) (op a bracket) only the canonical
    words: x before y, or x = y of odd degree, which is even on L[1]."""
    index, degree = op.source.index, op.source.degree
    return {(x, y): lin_scale(vec, sign_pow(degree[x])) for (x, y), vec in op.entries.items()
            if flavor == TENSOR or index[x] < index[y] or x == y and degree[x] % 2}


def _decalage(alg, op: MultilinearMap, flavor: str, max_weight: int,
              validate: bool) -> OoStructure:
    """The structure on alg[1]: q1 = -s^{-1} d s and q2 = shifted_products(op);
    a DG algebra is checked on this build (DgAlgebra.check)."""
    sh = alg.space.shifted(1)
    taylor = {1: MultilinearMap(sh, sh, 1, 1, flavor).store(
                  {(n,): vec for n, vec in alg.d.entries.items()}, -1),
              2: MultilinearMap(sh, sh, 1, 2, flavor).store(shifted_products(op, flavor))}
    out = OoStructure(sh, flavor, taylor, max_weight)
    if validate:
        rep = alg.check() if flavor == SYMMETRIC else alg.check(out)
        if not rep.ok:
            raise RejectedInput("input is not a %s: %s" % (
                "DGLA" if flavor == SYMMETRIC else "DG algebra", rep.first_failure()))
    return out


def decalage_dgla(L: DgLieAlgebra, max_weight: int = 6, validate: bool = True) -> OoStructure:
    """L-infinity[1] structure on L[1]: q1 = -s^{-1} d s, q2 the shifted bracket.

    q1(x) = -dx and q2(x (.) y) = (-1)^{|x|} [x, y] read through the degree
    shift (names are preserved; only degrees move).
    """
    return _decalage(L, L.bracket, SYMMETRIC, max_weight, validate)


def decalage_dgla_morphism(f: DglaMorphism, source: OoStructure = None,
                           target: OoStructure = None, max_weight: int = 6) -> OoMorphism:
    """The strict morphism with f1 = f.map read through the shift, in the
    source decalage's flavor (_DgMorphism.check passes tensor decalages)."""
    src = source or decalage_dgla(f.source, max_weight)
    tgt = target or decalage_dgla(f.target, max_weight)
    f1 = MultilinearMap(src.space, tgt.space, 0, 1, src.flavor).store(
        {(n,): vec for n, vec in f.map.entries.items()})
    return OoMorphism(src, tgt, {1: f1})


def decalage_dga(A: DgAlgebra, max_weight: int = 6, validate: bool = True) -> OoStructure:
    """A-infinity[1] structure on A[1] induced by a DG associative algebra."""
    return _decalage(A, A.product, TENSOR, max_weight, validate)


# ---------------------------------------------------------------------------
# endomorphism DGLAs with named bases


def end_dga(space: GradedSpace, d: GradedMap) -> DgAlgebra:
    """End(V) as a DG associative algebra on the elementary maps `t<-s`: the
    differential [d, -] is graded.hom_differential, and the composition
    product (t<-u)(u<-s) = t<-s is one store of the n^3 triples."""
    names = space.names
    E = hom_space(names, names, space)
    prod = MultilinearMap(E, E, 0, 2, TENSOR).store(
        {("%s<-%s" % (t, u), "%s<-%s" % (u, s)): {"%s<-%s" % (t, s): 1}
         for t in names for u in names for s in names})
    return DgAlgebra(E, GradedMap(E, E, 1, hom_differential(d, names, names)), prod)


def end_dgla(space: GradedSpace, d: GradedMap) -> DgLieAlgebra:
    """End(V) as a DGLA: the commutator DGLA of end_dga."""
    return end_dga(space, d).commutator_dgla()


def sub_algebra(amb, names):
    """The basis-aligned subalgebra of a DgAlgebra or DgLieAlgebra spanned by
    `names` (closed under d and the operation), with its inclusion morphism."""
    names = tuple(names)
    sub_space = amb.space.subspace(names)
    d = GradedMap(sub_space, sub_space, 1, {n: amb.d.value(n) for n in names})
    lie = isinstance(amb, DgLieAlgebra)
    table = amb.bracket if lie else amb.product
    op = MultilinearMap(sub_space, sub_space, 0, 2, TENSOR).store(
        {w: vec for w, vec in table.entries.items() if all(n in sub_space.index for n in w)})
    algebra, morphism = (DgLieAlgebra, DglaMorphism) if lie else (DgAlgebra, DgaMorphism)
    sub = algebra(sub_space, d, op)
    inc = GradedMap(sub_space, amb.space, 0, {n: lin_single(n) for n in names})
    return sub, morphism(sub, amb, inc)


def end_preserving_sub(End, V: GradedSpace, W):
    """End(V; W) inside End = end_dga(V, d) or end_dgla(V, d) for a basis-aligned
    W in V, without Hom(W, V/W): (subalgebra, inclusion morphism)."""
    W = set(W)
    if not W <= set(V.names):
        raise MalformedInput("preserved names must be basis names")
    out = set(hom_space([n for n in V.names if n not in W], W, V).names)
    keep = [n for n in End.space.names if n not in out]
    if any(t in out for n in keep for t in End.d.value(n)):
        raise RejectedInput("d does not preserve W: End(V;W) is not closed under [d,-]")
    return sub_algebra(End, keep)


def end_preserving_sub_dgla(space: GradedSpace, d: GradedMap, preserved):
    """End(V; W) for a basis-aligned subspace W, with its inclusion into End(V).

    Returns (sub_dgla, ambient_dgla, inclusion DglaMorphism).
    """
    amb = end_dgla(space, d)
    sub, inc = end_preserving_sub(amb, space, preserved)
    return sub, amb, inc


__all__ = [
    "OoStructure", "OoMorphism",
    "preimages", "Scaled", "push_insertion", "push_product",
    "in_basis_order", "pushed_map",
    "check_structure", "check_morphism",
    "identity_morphism", "compose_morphisms", "invert_morphism", "transport_structure",
    "symmetrize_structure", "symmetrize_morphism",
    "DgLieAlgebra", "DgAlgebra", "DglaMorphism", "DgaMorphism",
    "shifted_products", "decalage_dgla", "decalage_dgla_morphism", "decalage_dga",
    "end_dga", "end_dgla", "sub_algebra", "end_preserving_sub", "end_preserving_sub_dgla",
]
