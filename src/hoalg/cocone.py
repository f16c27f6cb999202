"""Mapping cocones, derived brackets, semidirect and homotopy fiber products.

All constructions live on two-block spaces with uniform prefixes: `a:` for
the first factor, `b:` for the second.  Cocones of f: L -> M sit on
L[1] x M (a = shifted source, b = target); fiber products sit on
A x L[1] (a = abelian complement, b = shifted base).  Every product and
bracket chain is pushed from the nonzeros by graded's one walk
(graded.walk), through the operation's push table (graded.right_products).
The semidirect product, the fiber product and hodge's Yukawa models are
built by one gluing, glued_structure: the two blocks' own families plus the
caller's mixed terms, summed per arity and stored once.  The derived-products
model is the homotopy transfer of the associative cocone along
cocone_contraction (transfer.py); only its G_inf keeps a closed form.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from math import comb, factorial, lcm

from .coalg import (
    DgAlgebra, DgLieAlgebra, DgaMorphism, DglaMorphism, OoMorphism,
    OoStructure, check_structure, decalage_dga, decalage_dgla, shifted_products, sub_algebra,
    transport_structure,
)
from .graded import (
    A_PRE, B_PRE, Contraction, GradedMap, GradedSpace, MalformedInput, MultilinearMap,
    RejectedInput, Report, SYMMETRIC, TENSOR, bernoulli,
    basis_rows, concat, coordinate_projections, first_witness, lin_acc, lin_scale, lin_single,
    linear_part, map_right_inverse, merge_join, multilinear_from_graded_map, pair_space,
    prefix_vector, prefixed, right_products, sign_pow, sorted_join,
    sym_normalize, unscaled, walk,
)
from .transfer import transfer_quasi_inverse, transfer_structure


# ---------------------------------------------------------------------------
# the Lie mapping cocone with Bernoulli brackets


def fm_cocone_lie(f: DglaMorphism, max_weight: int = 6) -> OoStructure:
    """L-infinity[1] structure on L[1] x M for a DGLA morphism f: L -> M.

    q1(x, m) = (-dx, dm - f(x)); q2 the shifted L-bracket; the mixed weights
    carry Bernoulli coefficients: q_{k+1}(x (x) m_1 ... m_k) =
    -(B_k/k!) S(f(x), m_1..m_k), where S(v, T) = sum_sigma eps(sigma)
    [...[v, t_s1], ..., t_sk] is the signed sum over orderings.  The mixed
    words are grown by _fm_cocone_lie over every letter.
    """
    return _fm_cocone_lie(f, max_weight, f.source.space.names, f.target.space.names)


def _fm_cocone_lie(f: DglaMorphism, max_weight: int, sources, targets) -> OoStructure:
    """fm_cocone_lie's structure with the mixed words grown only from the
    letters x in `sources` and over the letters of M in `targets`, both in
    basis order: a key whose letters all lie there gets fm_cocone_lie's
    entry, and every other mixed key none, so it is a cocone only when given
    every name.

    S(v, T) is grown one letter at a time from S(v, ()) = v, for every x at
    once: graded.walk, with one row per x, pushes through the heads of
    graded.right_products(M.bracket) over the letters in `targets`, and each
    sorted word S and letter b with [S(f(x), S), b] != 0 add

        weight [S(f(x), S), b]  at  T = sort(S + b),

    with (T, weight) = merge_words(S, (b,), ..), the right-merge join: the
    Koszul sign of moving b past the larger odd letters of S times mult_T(b),
    the positions of T that b can fill last, so a repeated (even) letter
    counts with its multiplicity.  Each (S, b) is merged once for all the
    letters x.  Words are grown only up to the last weight whose Bernoulli
    number is nonzero, in plain int sums, level k at E D^k S(f(x), T) for the
    lcms E, D of the denominators of f and the bracket; arity k + 1 is stored
    once, with the factor -(B_k/k!) / (E D^k), which drops the sums that
    cancel.
    """
    L, M = f.source, f.target
    space = pair_space(L.space.shifted(1), M.space)
    taylor = {1: _cocone_q1(f, space, SYMMETRIC)}
    q2 = MultilinearMap(space, space, 1, 2, SYMMETRIC).store(
        prefixed(shifted_products(L.bracket, SYMMETRIC), A_PRE))
    coeffs = {k: -bernoulli(k) / factorial(k) for k in range(1, max_weight) if bernoulli(k)}
    scale, heads, _ = right_products(M.bracket, targets)
    fx = multilinear_from_graded_map(f.map, TENSOR)     # f at its int scale
    levels = walk([{(): {x: fx.ints[x,] for x in sources if (x,) in fx.ints}}], heads,
                  merge_join(M.space, right=True), max(coeffs, default=0))
    bkey = {m: B_PRE + m for m in M.space.names}
    for k, c in coeffs.items():
        words = {(A_PRE + x,) + bT: {bkey[y]: v for y, v in vec.items()}
                 for T, rows in levels[k].items() for bT in [tuple(bkey[t] for t in T)]
                 for x, vec in rows.items()}
        taylor[k + 1] = q2 if k == 1 else MultilinearMap(space, space, 1, k + 1, SYMMETRIC)
        taylor[k + 1].store(words, c / (fx.scale * scale ** k))
    return OoStructure(space, SYMMETRIC, taylor, max_weight)


def _cocone_q1(f, space: GradedSpace, flavor: str) -> MultilinearMap:
    """q1(x, m) = (-dx, dm - f(x)) on the cocone space L[1] x M of f: L -> M."""
    L, M = f.source, f.target
    minus = {(A_PRE + x,): lin_acc(prefix_vector(L.d.value(x), A_PRE),
                                    prefix_vector(f.map.value(x), B_PRE))
             for x in L.space.names}
    return MultilinearMap(space, space, 1, 1, flavor).store(minus, -1).store(
        prefixed({(m,): vec for m, vec in M.d.entries.items()}, B_PRE))


# ---------------------------------------------------------------------------
# associative cocone and its A-infinity refinement


def cocone_associative(f: DgaMorphism) -> DgAlgebra:
    """DG algebra on A x B[-1]: (a1, sb1) * (a2, sb2) = (a1 a2, s(b1 f(a2)))."""
    A, B = f.source, f.target
    space = pair_space(A.space, B.space.shifted(-1))
    d = GradedMap(space, space, 1)
    for x in A.space.names:
        vec = prefix_vector(A.d.value(x), A_PRE)
        lin_acc(vec, prefix_vector(f.map.value(x), B_PRE))
        if vec:
            d.set(A_PRE + x, vec)
    for y in B.space.names:
        vec = prefix_vector(lin_scale(B.d.value(y), -1), B_PRE)
        if vec:
            d.set(B_PRE + y, vec)
    table = prefixed(A.product.entries, A_PRE)
    for y, x in itertools.product(B.space.names, A.space.names):
        table[(B_PRE + y, A_PRE + x)] = prefix_vector(B.mul(lin_single(y), f.map.value(x)), B_PRE)
    return DgAlgebra(space, d, MultilinearMap(space, space, 0, 2, TENSOR).store(table))


def fm_cocone_assoc(f: DgaMorphism, max_weight: int = 6) -> OoStructure:
    """A-infinity[1] structure on A[1] x B with Bernoulli products

    q_{i+j+1}(b_1..b_i (x) a (x) b_{i+1}..b_{i+j}) =
    (B_{i+j}/(i! j!)) (-1)^{i+1+|b_1|+..+|b_i|} b_1..b_i f(a) b_{i+1}..b_{i+j}.

    The products are pushed from the nonzero ones (graded.walk): one walk of
    the front products b_1..b_i from the basis letters, the mids
    b_1..b_i f(a), and one walk of the backs from the mids, up to the last
    weight i + j whose Bernoulli number is nonzero.  They are ints, E D^w
    times the true products of w letters and f(a) for the lcms E, D of the
    denominators of f and B's product; weight w is stored once, with
    sign(B_w) C(w, i) (-1)^{..} on each word and the factor |B_w|/(w! E D^w).
    """
    A, B = f.source, f.target
    space = pair_space(A.space.shifted(1), B.space)
    taylor = {1: _cocone_q1(f, space, TENSOR),
              2: MultilinearMap(space, space, 1, 2, TENSOR).store(
                  prefixed(shifted_products(A.product, TENSOR), A_PRE))}
    weights = [w for w in range(1, max_weight) if bernoulli(w)]     # w = i + j
    words = {w: {} for w in weights}
    top = max(weights, default=0)
    scale, heads, times = right_products(B.product)
    fronts = walk([basis_rows(B.space.names)], heads, concat, top - 1)
    fx = multilinear_from_graded_map(f.map, TENSOR)     # f at its int scale
    fxs = {x: fx.ints[x,] for x in A.space.names if (x,) in fx.ints}
    pa = {x: A_PRE + x for x in A.space.names}      # one name object per letter
    pb = {b: B_PRE + b for b in B.space.names}
    for i in range(top + 1):
        # mids u f(a) keyed b_1..b_i a, one row each of the walk that grows
        # them into b_1..b_i a b_{i+1}..b_{i+j}; fronts[i - 1] holds b_1..b_i
        # on row b_1
        mids = {(b,) + S + (x,): mid for S, rows in fronts[i - 1].items()
                for b, u in rows.items() for x, fx in fxs.items()
                if (mid := times(u, fx))} if i else {(x,): fx for x, fx in fxs.items()}
        backs = walk([{(): mids}], heads, concat, top - i)
        for w in [w for w in weights if w >= i]:
            cw = comb(w, i) if bernoulli(w) > 0 else -comb(w, i)
            for back, rows in backs[w - i].items():
                for mid, out in rows.items():
                    sgn = cw * sign_pow(i + 1 + sum(B.space.degree[b] for b in mid[:i]))
                    key = tuple(pb[b] for b in mid[:i]) + (pa[mid[i]],) + \
                        tuple(pb[b] for b in back)
                    words[w][key] = {pb[y]: sgn * c for y, c in out.items()}
    for w in weights:
        taylor.setdefault(w + 1, MultilinearMap(space, space, 1, w + 1, TENSOR)).store(
            words[w], abs(bernoulli(w)) / (factorial(w) * fx.scale * scale ** w))
    return OoStructure(space, TENSOR, taylor, max_weight)


def exp_log_isos(f: DgaMorphism, max_weight: int = 6, cocones=None):
    """The mutually inverse exponential/logarithm isomorphisms between the
    Bernoulli-bracket and the associative cocone models.

    e_k and l_k vanish off the all-b words and multiply the b-components with
    coefficients 1/k! and (-1)^{k+1}/k respectively; both read one walk of
    the nonzero products b_1..b_k from the basis letters, in ints at D^{k-1}
    times the true products (D the lcm of the denominators of B's product),
    and store each arity once with the factor 1/(k! D^{k-1}) or
    (-1)^{k+1}/(k D^{k-1}); for k = 1 both are the identity.
    `cocones` is the pair (fm_cocone_assoc, decalage of cocone_associative)
    of f at max_weight when the caller holds it already, as
    derived_products_model returns it; else it is built.
    """
    B = f.target
    if cocones is None:
        cocones = (fm_cocone_assoc(f, max_weight),
                   decalage_dga(cocone_associative(f), max_weight, validate=False))
    cinf, cas = cocones
    if cinf.space != cas.space:
        raise MalformedInput("cocone spaces disagree")
    space = cinf.space
    scale, heads, _ = right_products(B.product)
    products = walk([basis_rows(B.space.names)], heads, concat, max_weight - 1)
    pb = {b: B_PRE + b for b in B.space.names}      # one name object per letter
    words = [{(n,): {n: 1} for n in space.names}] + [
        {(pb[b],) + bS: {pb[y]: c for y, c in vec.items()}
         for S, rows in level.items() for bS in [tuple(pb[a] for a in S)]
         for b, vec in rows.items()}
        for level in products[1:]]

    def word_maps(coeff_fn, source, target):
        return OoMorphism(source, target, {k: MultilinearMap(space, space, 0, k, TENSOR).store(
            level, Fraction(coeff_fn(k), scale ** (k - 1))) for k, level in enumerate(words, 1)})

    E = word_maps(lambda k: Fraction(1, factorial(k)), cinf, cas)
    Lm = word_maps(lambda k: Fraction((-1) ** (k + 1), k), cas, cinf)
    return E, Lm


# ---------------------------------------------------------------------------
# splittings


class Splitting:
    """Basis-aligned decomposition ambient = sub (+) complement.

    `ambient` is a DgAlgebra or DgLieAlgebra; `sub` is spanned by the basis
    names not listed in `complement_names` and must be closed under d and the
    operation.  P projects onto the complement with kernel sub.
    """

    def __init__(self, ambient, complement_names):
        self.ambient = ambient
        space = ambient.space
        comp = [n for n in space.names if n in set(complement_names)]
        if len(comp) != len(set(complement_names)):
            raise MalformedInput("complement names must be distinct basis names")
        self.complement_names = tuple(comp)
        self.sub_names = tuple(n for n in space.names if n not in set(comp))
        self.P, self.Pperp = coordinate_projections(space, comp)

    @property
    def op(self) -> MultilinearMap:
        return self.ambient.product if isinstance(self.ambient, DgAlgebra) \
            else self.ambient.bracket

    def complement_space(self) -> GradedSpace:
        return self.ambient.space.subspace(self.complement_names)

    def check(self, kind: str) -> Report:
        """kind 'square_zero' (C.C = 0, derived products) or 'abelian' ([A,A] = 0)."""
        r = Report("splitting")
        sub = set(self.sub_names)
        op = self.op
        for label, words, holds in (
                ("d(sub)<=sub", self.sub_names,
                 lambda n: all(t in sub for t in self.ambient.d.value(n))),
                ("sub_closed", itertools.product(self.sub_names, repeat=2),
                 lambda w: all(t in sub for t in op.value(w))),
                ("complement_%s" % kind, itertools.product(self.complement_names, repeat=2),
                 lambda w: not op.value(w))):
            wit = first_witness(words, holds)
            r.add(label, wit is None, witness=wit)
        return r

    def sub_dga(self) -> DgaMorphism:
        """The inclusion of the sub algebra (DgAlgebra ambient only)."""
        return sub_algebra(self.ambient, self.sub_names)[1]


# ---------------------------------------------------------------------------
# derived products (square-zero complement of a DG subalgebra)


def cocone_contraction(split: Splitting, inclusion: DgaMorphism,
                       cinf_space: GradedSpace):
    """The explicit contraction of C(i)[1] onto (C, Pd):
    f1(c) = (P'dc, c), g1(a, b) = Pb, K(a, b) = (P'b, 0)."""
    amb = split.ambient
    Csp = split.complement_space()
    d_small = GradedMap(Csp, Csp, 1)
    for c in split.complement_names:
        val = split.P.apply(amb.d.value(c))
        if val:
            d_small.set(c, val)
    inj = GradedMap(Csp, cinf_space, 0)
    for c in split.complement_names:
        vec = prefix_vector(split.Pperp.apply(amb.d.value(c)), A_PRE)
        lin_acc(vec, lin_single(B_PRE + c))
        inj.set(c, vec)
    proj = GradedMap(cinf_space, Csp, 0)
    for n in amb.space.names:
        val = split.P.value(n)
        if val:
            proj.set(B_PRE + n, val)
    K = GradedMap(cinf_space, cinf_space, -1)
    for n in amb.space.names:
        val = split.Pperp.value(n)
        if val:
            K.set(B_PRE + n, prefix_vector(val, A_PRE))
    d_big = linear_part(_cocone_q1(inclusion, cinf_space, TENSOR), cinf_space, cinf_space, 1)
    return Contraction(Csp, d_small, cinf_space, d_big, inj, proj, K)


DerivedProducts = namedtuple(
    "DerivedProducts",
    "structure F_as G_as F_inf G_inf cocone_as cocone_inf inclusion contraction")


def derived_products_model(split: Splitting, max_weight: int = 6) -> DerivedProducts:
    """Derived-product model (C, Pd, P(dc1.c2)) on a square-zero complement,
    with the four quasi-isomorphisms to/from both cocone models.

    The structure, F_as and G_as are transferred from the associative cocone
    along cocone_contraction; F_inf has F_as's coefficients.  G_inf keeps its
    closed form g_k(w) = sum_m ((-1)^{m+1}/m!) P(w_1..w_m . g_{k-m}(w[m:])),
    the m = k term without the product (g_1 = P), pushed from the nonzero
    products w_1..w_m b of one walk, at D^m times their value, and the ints
    g_j at their scales S_j, indexed by letter, tails[j] = {b: [(word,
    g_j(word)_b)]}; arity k is lifted to one S_k and stored once.
    """
    rep = split.check("square_zero")
    if not rep.ok:
        raise RejectedInput("splitting invalid: %s" % rep.first_failure())
    amb = split.ambient
    inclusion = split.sub_dga()
    cinf = fm_cocone_assoc(inclusion, max_weight)
    cas = decalage_dga(cocone_associative(inclusion), max_weight, validate=False)
    contraction = cocone_contraction(split, inclusion, cinf.space)
    structure, F_as = transfer_structure(cas, contraction, max_weight, validate=False)
    G_as = transfer_quasi_inverse(cas, contraction, F_as, max_weight, validate=False)
    Csp = contraction.small
    # levels[n] holds the products a w_1..w_n, on row a, at D^n
    scale, heads, _ = right_products(amb.product)
    levels = walk([basis_rows(amb.space.names)], heads, concat, max_weight - 1)
    bwords, comp = {S: tuple(B_PRE + b for b in S) for ws in levels for S in ws}, set(Csp.names)
    taylor, scales, tails = {}, {}, {0: {None: [((), 1)]}}      # tails[0]: m = k
    for k in range(1, max_weight + 1):
        # (m, sign, denominator of the ints of term m: m! D^m S_{k-m}, k! D^{k-1} at m = k)
        terms = [(m, sign_pow(m + 1), factorial(m) * scale ** min(m, k - 1) *
                  (scales[k - m] if m < k else 1)) for m in range(1, k + 1)]
        scales[k] = lcm(*(s for _, _, s in terms))
        acc: dict = {}
        for m, sign, s in terms:
            lift, index = sign * (scales[k] // s), tails[k - m]
            # w_1..w_m b for m < k, at level m; the product w_1..w_k for m = k
            for S, rows in levels[min(m, k - 1)].items():
                b, front = (S[-1], bwords[S[:-1]]) if m < k else (None, bwords[S])
                for a, vec in rows.items() if b in index else ():
                    pv = {y: v for y, v in vec.items() if y in comp}
                    for tword, cb in index[b] if pv else ():
                        lin_acc(acc.setdefault((B_PRE + a,) + front + tword, {}), pv,
                                lift * cb)
        taylor[k] = MultilinearMap(cinf.space, Csp, 0, k, TENSOR).store(
            acc, Fraction(1, scales[k]))
        tails[k] = {}
        for tword, row in acc.items():
            for b, cb in row.items():
                tails[k].setdefault(b, []).append((tword, cb))
    return DerivedProducts(structure, F_as, G_as, OoMorphism(structure, cinf, F_as.taylor),
                           OoMorphism(cinf, structure, taylor), cas, cinf, inclusion,
                           contraction)


# ---------------------------------------------------------------------------
# Voronov higher derived brackets


class CoderAction:
    """Taylor components of an action morphism into coderivations.

    comps[(j, k)] maps (m-word, i-word) to a vector in the I space; each block
    is stored on its canonical order and read back with block Koszul signs.
    """

    def __init__(self, m_space: GradedSpace, i_space: GradedSpace):
        self.m_space = m_space
        self.i_space = i_space
        self.comps = {}

    def _norm(self, mtup, itup):
        m = sym_normalize(mtup, self.m_space.index, self.m_space.degree)
        if m is None:
            return None
        i = sym_normalize(itup, self.i_space.index, self.i_space.degree)
        if i is None:
            return None
        return m[0], i[0], m[1] * i[1]

    def set(self, mtup, itup, vec: dict):
        norm = self._norm(tuple(mtup), tuple(itup))
        if norm is None:
            if any(vec.values()):
                raise MalformedInput("zero word in the symmetric algebra")
            return
        mkey, ikey, sign = norm
        vec = lin_scale({n: c for n, c in vec.items() if c}, sign)
        comp = self.comps.setdefault((len(mkey), len(ikey)), {})
        if vec:
            comp[(mkey, ikey)] = vec
        else:
            comp.pop((mkey, ikey), None)

    def value(self, mtup, itup) -> dict:
        comp = self.comps.get((len(mtup), len(itup)))
        if not comp:
            return {}
        norm = self._norm(tuple(mtup), tuple(itup))
        if norm is None:
            return {}
        mkey, ikey, sign = norm
        vec = comp.get((mkey, ikey))
        return lin_scale(vec, sign) if vec else {}


def voronov_brackets(split: Splitting, max_weight: int = 6):
    """Second-construction derived brackets on an abelian complement A of a
    sub-DGLA, plus the first-construction action of the ambient algebra.

    Returns (structure on A, CoderAction with components
    (m; a_1..a_k) -> P[...[m, a_1]..., a_k]).  The action's m-symbols live on
    M[1], the space of decalage_dgla(M), so it feeds semidirect_product as is.
    """
    if not isinstance(split.ambient, DgLieAlgebra):
        raise MalformedInput("voronov brackets need a DG-Lie ambient")
    rep = split.check("abelian")
    if not rep.ok:
        raise RejectedInput("splitting invalid: %s" % rep.first_failure())
    M = split.ambient
    Asp = split.complement_space()
    structure = OoStructure(Asp, SYMMETRIC, _derived_brackets(split, max_weight), max_weight)
    action = CoderAction(M.space.shifted(1), Asp)
    # one sorted walk from every m, [...[m, a_1]..., a_n] on row m at D^n
    scale, heads, _ = right_products(M.bracket, split.complement_names)
    levels = walk([basis_rows(M.space.names)], heads, sorted_join(Asp, right=True), max_weight)
    for n, level in enumerate(levels):
        for word, rows in level.items():
            for m, vec in rows.items():
                pv = unscaled(split.P.apply(vec), scale ** n)
                if pv:
                    action.set((m,), word, pv)
    return structure, action


def _derived_brackets(split: Splitting, max_weight: int) -> dict:
    """{k: phi_k} for k <= max_weight, phi_k(a_1 .. a_k) = P[...[d a_1, a_2]...,
    a_k] on the complement A (k = 1 gives P d a), from one sorted walk."""
    M = split.ambient
    Asp = split.complement_space()
    first = {(a,): {a: M.d.value(a)} for a in split.complement_names if M.d.value(a)}
    scale, heads, _ = right_products(M.bracket, split.complement_names)
    levels = walk([first], heads, sorted_join(Asp, right=True), max_weight - 1)
    return {k: MultilinearMap(Asp, Asp, 1, k, SYMMETRIC).store(
                {word: split.P.apply(vec)
                 for word, rows in level.items() for vec in rows.values()},
                Fraction(1, scale ** (k - 1)))
            for k, level in enumerate(levels[:max_weight], 1)}


# ---------------------------------------------------------------------------
# two-block gluing and semidirect products


def glued_structure(space: GradedSpace, first: dict, second: dict, terms,
                    max_weight: int) -> OoStructure:
    """The symmetric structure on a two-block space whose q_k, k <= max_weight,
    holds the Taylor family first on the a: words, second on the b: words
    and the mixed terms (k, key, vector, coefficient), each adding
    coefficient times vector at the canonical word key of arity k.  A term may
    land on a word of a block's own structure and is summed with its entry;
    a term above max_weight is dropped.  Each arity is stored once."""
    words = {k: {} for k in range(1, max_weight + 1)}
    for family, prefix in ((first, A_PRE), (second, B_PRE)):
        for k, q in family.items():
            if k <= max_weight:
                words[k].update(prefixed(q.entries, prefix))
    for k, key, vec, coeff in terms:
        if k <= max_weight:
            lin_acc(words[k].setdefault(key, {}), vec, coeff)
    return OoStructure(space, SYMMETRIC, {
        k: MultilinearMap(space, space, 1, k, SYMMETRIC).store(table)
        for k, table in words.items()}, max_weight)


def semidirect_product(I: OoStructure, M: OoStructure, action: CoderAction,
                       max_weight: int = 6, validate: bool = True) -> OoStructure:
    """Semidirect product on I x M from an action morphism into coderivations.

    The three bracket families: pure-I words use I's structure, pure-M words
    get (action 0-component, M structure), mixed words the action components.
    The action's morphism property is certified indirectly: the result must
    pass the structure check (the two are equivalent), raised when `validate`.
    The mixed words are read off the action's stored components.
    """
    if I.flavor != SYMMETRIC or M.flavor != SYMMETRIC:
        raise MalformedInput("semidirect products are symmetric-flavor only")
    if action.i_space != I.space or action.m_space != M.space:
        raise MalformedInput("the action must act on I's space by M's space")
    ideg = I.space.degree
    mdeg = M.space.degree
    # formula order is (m-block, i-block); the canonical word is (i-block,
    # m-block): block swap Koszul sign.  With li = 0 the word is pure-M, next
    # to M's own entry
    terms = ((lm + li, tuple(A_PRE + n for n in iword) + tuple(B_PRE + n for n in mword),
              prefix_vector(act, A_PRE),
              sign_pow(sum(ideg[n] for n in iword) * sum(mdeg[n] for n in mword)))
             for (lm, li), comp in action.comps.items() if lm
             for (mword, iword), act in comp.items())
    out = glued_structure(pair_space(I.space, M.space), I.taylor, M.taylor, terms, max_weight)
    if validate:
        rep = check_structure(out)
        if not rep.ok:
            raise RejectedInput(
                "action is not a morphism into coderivations: %s" % rep.first_failure())
    return out


# ---------------------------------------------------------------------------
# strictification of fibrations


def strictify_fibration(F: OoMorphism):
    """Factor a fibration as (iso) then (strict fibration).

    Returns (iso G with g1 = Id and f1 g_k = f_k, transported structure, the
    strict fibration morphism).  The right inverse of f1 is the deterministic
    minimal-pivot one.
    """
    f1 = F.taylor.get(1)
    if f1 is None:
        raise RejectedInput("fibration needs a surjective linear part")
    gm1 = linear_part(f1, F.source.space, F.target.space, 0)
    r = map_right_inverse(gm1)
    if r is None:
        raise RejectedInput("linear part is not surjective")
    g_taylor = {1: multilinear_from_graded_map(
        GradedMap.identity(F.source.space), F.flavor)}
    for k, fk in F.taylor.items():
        if k > 1:
            g_taylor[k] = MultilinearMap(F.source.space, F.source.space, 0, k, F.flavor).store(
                {word: r.apply(vec) for word, vec in fk.entries.items()})
    dummy_target = OoStructure(F.source.space, F.flavor, {}, F.max_weight)
    G_raw = OoMorphism(F.source, dummy_target, g_taylor)
    tilde = transport_structure(G_raw, F.max_weight)
    G = OoMorphism(F.source, tilde, g_taylor)
    strict = OoMorphism(tilde, F.target, {1: f1})
    return G, tilde, strict


# ---------------------------------------------------------------------------
# homotopy fiber products


def fiber_product_model(L: DgLieAlgebra, split: Splitting, F: OoMorphism,
                        max_weight: int = 6) -> OoStructure:
    """Model of the homotopy fiber product on A x L[1] for F: L[1] -> M[1],
    M = N (+) A with A an abelian complement (all five bracket families)."""
    if not isinstance(split.ambient, DgLieAlgebra):
        raise MalformedInput("fiber products need a DG-Lie ambient")
    rep = split.check("abelian")
    if not rep.ok:
        raise RejectedInput("splitting invalid: %s" % rep.first_failure())
    M = split.ambient
    if F.source.space != L.space.shifted(1) or F.target.space != M.space.shifted(1):
        raise MalformedInput("morphism must run L[1] -> M[1]")
    if F.flavor != SYMMETRIC:
        raise MalformedInput("fiber products need a symmetric-flavor morphism")
    Asp = split.complement_space()
    base = decalage_dgla(L, max_weight, validate=False)
    adeg = Asp.degree
    xdeg = base.space.degree
    scale, heads, _ = right_products(M.bracket, split.complement_names)
    # mixed words P[...[s f_j(x's), a_1]..., a_n]: one sorted walk by weight
    # j + n, each entry of f_j entering on its own row at level j, at D^n; at
    # n = 0 they are P s f_j on the pure-x words, next to base q_j
    seeds = [{}] + [{(): F.taylor[j].entries} if j in F.taylor else {}
                    for j in range(1, max_weight + 1)]
    levels = walk(seeds, heads, sorted_join(Asp, right=True), max_weight)
    # formula order (x-block, a-block); canonical is (a, x)
    terms = ((k, tuple(A_PRE + a for a in aword) + tuple(B_PRE + x for x in xword),
              prefix_vector(split.P.apply(vec), A_PRE),
              Fraction(sign_pow(sum(adeg[a] for a in aword) * sum(xdeg[x] for x in xword)),
                       scale ** len(aword)))
             for k, level in enumerate(levels) for aword, rows in level.items()
             for xword, vec in rows.items())
    return glued_structure(pair_space(Asp, base.space), _derived_brackets(split, max_weight),
                           base.taylor, terms, max_weight)



__all__ = [
    "A_PRE", "B_PRE", "fm_cocone_lie", "cocone_associative", "fm_cocone_assoc",
    "exp_log_isos", "Splitting", "cocone_contraction", "DerivedProducts",
    "derived_products_model", "CoderAction",
    "voronov_brackets", "semidirect_product", "strictify_fibration",
    "fiber_product_model", "glued_structure",
]
