"""Maurer-Cartan theory over local Artin rings B = Q[t_1..t_g]/m^N.

Exact truncated polynomial coefficients; Maurer-Cartan residuals, the DGLA
gauge action, the two-sided Maurer-Cartan sets of a DGLA morphism and the
mapping-cocone correspondence, plus order-by-order obstruction lifting.

An element of V (x) B is a table (name, monomial) -> coeff; a B-linear
operator is an element of Hom(V, W) (x) B, stored as {monomial: GradedMap}.
Both reuse the sparse kernels of `graded` monomial by monomial: operators
compose by the Cauchy product of GradedMap.compose truncated at m^N.  The
exponential series sum_n (1/n!) t_n(x, .., x) of a Maurer-Cartan residual
or a pushforward is pushed from the stored keys of each t_n, with the
products of the keys' B-coefficients grown along their shared prefixes.
The bracket [x, y], which the gauge action and the DGLA residual use,
applies MultilinearMap.apply_vectors to every pair of monomial groups of x
and y whose product survives in B.  An element's sums, multiples and
restrictions are one lin_acc, lin_scale or filter over its table, and every
element computed here is wrapped once, unchecked; the constructor and
`add`, which read outside input, check it.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import factorial, lcm

from .coalg import DgLieAlgebra, DglaMorphism, OoMorphism, OoStructure
from .cocone import A_PRE, B_PRE, _fm_cocone_lie
from .graded import (
    SYMMETRIC, GradedMap, GradedSpace, MalformedInput, Report, exact, format_coeff, lin_acc,
    lin_add, lin_eq, lin_scale, linear_part, map_solve, stabilizer,
)


_FACTOR = re.compile(r"t([0-9]+)(?:\^([0-9]+))?")


class ArtinRing:
    """Q[t_1..t_g] / m^N with m the maximal ideal (t_1..t_g)."""

    def __init__(self, generators: int, order: int):
        if generators < 0 or order < 1:
            raise MalformedInput("need generators >= 0 and nilpotency order >= 1")
        self.generators = int(generators)
        self.order = int(order)

    def monomials(self, min_total: int = 0):
        """All exponent tuples with min_total <= total < order, graded-lex."""
        out = []
        for total in range(min_total, self.order):
            for combo in itertools.combinations_with_replacement(
                    range(self.generators), total):
                expo = [0] * self.generators
                for c in combo:
                    expo[c] += 1
                out.append(tuple(expo))
        seen = sorted(set(out), key=lambda m: (sum(m), m))
        return seen

    @property
    def one(self):
        return (0,) * self.generators

    def mul(self, m1, m2):
        out = tuple(a + b for a, b in zip(m1, m2))
        if sum(out) >= self.order:
            return None
        return out

    def mono_str(self, mono) -> str:
        if sum(mono) == 0:
            return "1"
        parts = []
        for i, e in enumerate(mono):
            if e == 1:
                parts.append("t%d" % (i + 1))
            elif e > 1:
                parts.append("t%d^%d" % (i + 1, e))
        return "*".join(parts)

    def parse_mono(self, text: str):
        """The exponents of "1" or of a product of factors t<i> or t<i>^<k>
        with 1 <= i <= g and k >= 0; any other text raises MalformedInput."""
        text = text.strip()
        if text == "1":
            return self.one
        expo = [0] * self.generators
        for part in text.split("*"):
            factor = _FACTOR.fullmatch(part.strip())
            if factor is None:
                raise MalformedInput("bad monomial %r" % text)
            idx = int(factor[1]) - 1
            if idx < 0 or idx >= self.generators:
                raise MalformedInput("generator %r out of range" % ("t" + factor[1]))
            expo[idx] += int(factor[2] or 1)
        if sum(expo) >= self.order:
            raise MalformedInput("monomial %r is zero in the ring" % text)
        return tuple(expo)

    def __eq__(self, other):
        return isinstance(other, ArtinRing) and \
            (self.generators, self.order) == (other.generators, other.order)

    def __repr__(self):
        return "ArtinRing(Q[t1..t%d]/m^%d)" % (self.generators, self.order)


class ArtinElement:
    """Element of V (x) m_B (or V (x) B when `allow_constant`)."""

    def __init__(self, ring: ArtinRing, space, terms=None, allow_constant=False):
        self.ring = ring
        self.space = space
        self.allow_constant = allow_constant
        self.terms = {}
        if terms:
            for (name, mono), c in terms.items():
                self.add(name, mono, c)

    def add(self, name, mono, coeff):
        if name not in self.space.degree:
            raise MalformedInput("unknown basis element %r" % name)
        if isinstance(coeff, float):
            raise MalformedInput("float coefficient rejected (exact arithmetic only)")
        mono = tuple(mono)
        if sum(mono) >= self.ring.order:
            return
        if sum(mono) == 0 and not self.allow_constant:
            raise MalformedInput("element must lie in V (x) m_B")
        lin_add(self.terms, (name, mono), exact(coeff))

    @classmethod
    def _of(cls, ring: ArtinRing, space, terms: dict, allow_constant=True) -> "ArtinElement":
        """The element over terms the program has just computed: exact,
        zero-free, on names of space and below m^N, so stored unchecked."""
        out = cls.__new__(cls)
        out.ring, out.space, out.allow_constant, out.terms = ring, space, allow_constant, terms
        return out

    def scaled(self, coeff) -> "ArtinElement":
        return self._of(self.ring, self.space, lin_scale(self.terms, coeff), self.allow_constant)

    def plus(self, other: "ArtinElement") -> "ArtinElement":
        if (self.ring, self.space) != (other.ring, other.space):
            raise MalformedInput("sum of elements over different rings or spaces")
        return self._of(self.ring, self.space, lin_acc(dict(self.terms), other.terms),
                        self.allow_constant or other.allow_constant)

    def is_zero(self) -> bool:
        return not any(self.terms.values())

    def is_homogeneous(self, degree) -> bool:
        return all(self.space.degree[n] == degree
                   for (n, _), c in self.terms.items() if c)

    def component(self, total_degree: int) -> "ArtinElement":
        """Restrict to monomials of the given total degree."""
        return self._of(self.ring, self.space, {
            (n, m): c for (n, m), c in self.terms.items() if sum(m) == total_degree})

    def truncated(self, ring: ArtinRing) -> "ArtinElement":
        """Push forward along the surjection onto a smaller quotient."""
        if ring.generators != self.ring.generators or ring.order > self.ring.order:
            raise MalformedInput("not a quotient ring")
        return self._of(ring, self.space, {
            (n, m): c for (n, m), c in self.terms.items() if sum(m) < ring.order},
            self.allow_constant)

    def by_mono(self) -> dict:
        """{monomial: {name: coeff}}, the element as sum_m t^m v_m."""
        out = {}
        for (n, mono), c in self.terms.items():
            out.setdefault(mono, {})[n] = c
        return out

    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda kv: (sum(kv[0][1]), kv[0][1],
                                      self.space.index[kv[0][0]]))

    def lines(self):
        return ["%s %s -> %s" % (n, self.ring.mono_str(m), format_coeff(c))
                for (n, m), c in self.sorted_terms()]

    def __eq__(self, other):
        return isinstance(other, ArtinElement) and self.ring == other.ring and \
            lin_eq(self.terms, other.terms)

    def __repr__(self):
        return "ArtinElement(%d terms)" % len(self.terms)


class ArtinMap:
    """B-linear map V (x) B -> W (x) B as an element of Hom(V, W) (x) B.

    Stored as {monomial: GradedMap}, i.e. sum_m t^m A_m with every A_m
    nonzero and every monomial below the nilpotency order.  Unlike
    ArtinElement, the constant monomial is allowed (the identity is an
    ArtinMap).  Composition carries no Koszul signs because the ring sits in
    even degree.  The stored GradedMaps are never mutated.
    """

    def __init__(self, ring: ArtinRing, source, target, coeffs=None):
        self.ring = ring
        self.source = source
        self.target = target
        self.coeffs = {}
        for mono, gm in (coeffs or {}).items():
            self.add(mono, gm)

    def add(self, mono, gm: GradedMap, coeff=1):
        """self += coeff t^mono gm, in place (nothing beyond m^N)."""
        mono = tuple(mono)
        if sum(mono) >= self.ring.order:
            return
        if (gm.source, gm.target) != (self.source, self.target):
            raise MalformedInput("operator shape mismatch")
        cur = self.coeffs.get(mono)
        if cur is not None:
            gm = cur.add(gm, coeff)
        elif coeff != 1:
            gm = gm.scale(coeff)
        if gm.is_zero():
            self.coeffs.pop(mono, None)
        else:
            self.coeffs[mono] = gm

    @staticmethod
    def from_graded(ring: ArtinRing, gm: GradedMap) -> "ArtinMap":
        return ArtinMap(ring, gm.source, gm.target, {ring.one: gm})

    @staticmethod
    def identity(ring: ArtinRing, space) -> "ArtinMap":
        return ArtinMap.from_graded(ring, GradedMap.identity(space))

    def compose(self, other: "ArtinMap") -> "ArtinMap":
        """self o other: the Cauchy product truncated at m^N."""
        out = ArtinMap(self.ring, other.source, self.target)
        for m1, a in self.coeffs.items():
            for m2, b in other.coeffs.items():
                mono = self.ring.mul(m1, m2)
                if mono is not None:
                    out.add(mono, a.compose(b))
        return out

    def plus(self, other: "ArtinMap", coeff=1) -> "ArtinMap":
        out = ArtinMap(self.ring, self.source, self.target, self.coeffs)
        for mono, gm in other.coeffs.items():
            out.add(mono, gm, coeff)
        return out

    def scaled(self, coeff) -> "ArtinMap":
        return ArtinMap(self.ring, self.source, self.target).plus(self, coeff)

    def is_zero(self) -> bool:
        return not self.coeffs

    def _power_series(self, what: str, coeff) -> "ArtinMap":
        """sum_{k>=0} coeff(k) self^k, with coeff(0) = 1; the powers vanish
        after finitely many steps because the coefficients lie in m_B."""
        if self.ring.one in self.coeffs:
            raise MalformedInput("%s needs coefficients in m_B" % what)
        total = ArtinMap.identity(self.ring, self.source)
        cur = total
        k = 0
        while True:
            cur = self.compose(cur)
            k += 1
            if cur.is_zero():
                return total
            total = total.plus(cur, coeff(k))

    def geometric_series(self) -> "ArtinMap":
        """sum_{k>=0} self^k (requires strictly positive monomial degrees)."""
        return self._power_series("geometric series", lambda k: 1)

    def exp(self) -> "ArtinMap":
        """sum self^k / k! (requires strictly positive monomial degrees)."""
        return self._power_series("exponential", lambda k: Fraction(1, factorial(k)))

    def __eq__(self, other):
        if not isinstance(other, ArtinMap):
            return NotImplemented
        return self.coeffs.keys() == other.coeffs.keys() and \
            all(gm == other.coeffs[m] for m, gm in self.coeffs.items())

    def __repr__(self):
        return "ArtinMap(%d monomials)" % len(self.coeffs)


def artin_apply(gm: GradedMap, x: ArtinElement) -> ArtinElement:
    return ArtinElement._of(x.ring, gm.target, {
        (t, mono): c for mono, vec in x.by_mono().items() for t, c in gm.apply(vec).items()})


def artin_bracket(L: DgLieAlgebra, x: ArtinElement, y: ArtinElement) -> ArtinElement:
    """[x, y] on L (x) B: the bracket of the name vectors of every pair of
    monomials of x and y whose product survives in B, summed in place."""
    ring = x.ring
    terms: dict = {}
    ys = y.by_mono()
    for m1, v1 in x.by_mono().items():
        for m2, v2 in ys.items():
            mono = ring.mul(m1, m2)
            if mono is not None:
                for t, c in L.bracket.apply_vectors([v1, v2]).items():
                    lin_add(terms, (t, mono), c)
    return ArtinElement._of(ring, L.bracket.target, terms)


# ---------------------------------------------------------------------------
# Maurer-Cartan residuals


def mc_check(s: OoStructure, x: ArtinElement) -> ArtinElement:
    """Residual sum_{n>=1} (1/n!) q_n(x^{(.)n}); zero iff x is Maurer-Cartan.

    The sum is finite by nilpotency; the structure must carry Taylor
    coefficients up to arity (ring order - 1) for the truncation to be exact,
    and a structure truncated below that arity is rejected.
    """
    _require_series("structure", s.space, s.max_weight, x)
    if not x.is_homogeneous(0):
        raise MalformedInput("Maurer-Cartan elements are degree-0 in the shifted grading")
    return _exp_series(s.taylor, x, s.space)


def mc_pushforward(F: OoMorphism, x: ArtinElement) -> ArtinElement:
    """sum_{n>=1} (1/n!) f_n(x^{(.)n}) in the target space, with mc_check's
    guards on x's space and on F's truncation (x may carry odd letters)."""
    _require_series("morphism", F.source.space, F.max_weight, x)
    return _exp_series(F.taylor, x, F.target.space)


def _require_series(what: str, space: GradedSpace, max_weight: int, x: ArtinElement):
    """Raise MalformedInput unless x lives on space and the Taylor family,
    truncated at max_weight, has every arity below the ring order."""
    if x.space != space:
        raise MalformedInput("element lives on the wrong space")
    if max_weight < x.ring.order - 1:
        raise MalformedInput(
            "%s truncated at arity %d, but m^%d = 0 needs arities up to %d"
            % (what, max_weight, x.ring.order, x.ring.order - 1))


def _exp_series(taylor: dict, x: ArtinElement, target) -> ArtinElement:
    """sum_{n>=1} (1/n!) t_n(x^{(.)n}) for a Taylor family t, pushed from the
    stored keys of t.  B sits in even degree, so with x_a in B the
    coefficient of the letter a in x,

        (1/n!) t_n(x, .., x) = sum_K c(K) t_n(K) prod_i x_{K_i}

    over the stored keys K whose letters all carry a term of x; every other
    key is skipped before its product grows.  In T(V) c(K) = 1/n!.  In S(V)
    the n!/stab(K) orderings of K read t_n(K) with their Koszul signs, so
    c(K) = 1/stab(K) when K has at most one odd letter, and c(K) = 0
    otherwise, as the orderings that swap two odd letters cancel in pairs.
    The products grow along the keys' shared prefixes, truncated at m^N, and
    an empty one cuts every key that extends it.  The terms with n >= ring
    order vanish because x lies in V (x) m_B.  Every term is summed as an int
    at one scale, and each output coefficient is divided once."""
    ring = x.ring
    top = ring.order - 1
    degree = x.space.degree
    dx = lcm(*(c.denominator for c in x.terms.values()))
    letters: dict = {}                  # a -> {monomial: dx * coefficient}
    for (a, mono), c in x.terms.items():
        letters.setdefault(a, {})[mono] = c.numerator * (dx // c.denominator)
    carried = set(letters)
    products = {(): {ring.one: 1}}      # word -> dx^len(word) prod_i x_{word_i}
    live = []
    for n in range(1, top + 1):
        t = taylor.get(n)
        if t is None:
            continue
        sym = t.flavor == SYMMETRIC
        for key, vec in t.entries.items():
            p = carried.issuperset(key) and _word_product(products, key, letters, ring)
            if not p or sym and sum(degree[a] % 2 for a in key) > 1:
                continue
            # n! c(K), lifted from dx^n to dx^top and from n! to top!
            lift = (factorial(n) // stabilizer(key) if sym else 1) * \
                (factorial(top) // factorial(n)) * dx ** (top - n)
            live.append((lift, vec, p))
    dq = lcm(*(c.denominator for _, vec, _ in live for c in vec.values()))
    acc: dict = {}
    for lift, vec, p in live:
        for y, c in vec.items():
            cy = lift * c.numerator * (dq // c.denominator)
            for mono, v in p.items():
                acc[y, mono] = acc.get((y, mono), 0) + cy * v
    scale = factorial(top) * dq * dx ** top
    return ArtinElement._of(ring, target, {
        key: exact(Fraction(v, scale)) for key, v in acc.items() if v})


def _word_product(products: dict, word: tuple, letters: dict, ring: ArtinRing) -> dict:
    """products[word], the product of the letters' B-coefficients over word,
    truncated at m^N and filled in for every prefix of word on the way."""
    p = products.get(word)
    if p is None:
        p = {}
        for m1, c1 in _word_product(products, word[:-1], letters, ring).items():
            for m2, c2 in letters.get(word[-1], {}).items():
                mono = ring.mul(m1, m2)
                if mono is not None:
                    p[mono] = p.get(mono, 0) + c1 * c2
        p = {mono: c for mono, c in p.items() if c}
        products[word] = p
    return p


# ---------------------------------------------------------------------------
# gauge action


def gauge_act(L: DgLieAlgebra, a: ArtinElement, x: ArtinElement) -> ArtinElement:
    """e^a * x = x + sum_{n>=0} (ad_a^n/(n+1)!) ([a,x] - da).

    a must lie in L (x) m_B, so that ad_a is nilpotent and the series is finite.
    """
    if not a.is_homogeneous(0) or (not x.is_zero() and not x.is_homogeneous(1)):
        raise MalformedInput("gauge needs deg(a) = 0 and deg(x) = 1")
    if any(not sum(mono) for (_, mono) in a.terms):
        raise MalformedInput("gauge parameter must lie in L (x) m_B (no constant terms)")
    w = artin_bracket(L, a, x).plus(artin_apply(L.d, a).scaled(-1))
    out = x
    n = 0
    while not w.is_zero():
        out = out.plus(w.scaled(Fraction(1, factorial(n + 1))))
        w = artin_bracket(L, a, w)
        n += 1
    return out


def dgla_mc_residual(L: DgLieAlgebra, x: ArtinElement) -> ArtinElement:
    """dx + [x,x]/2 for a degree-1 element of L (x) m_B."""
    return artin_apply(L.d, x).plus(artin_bracket(L, x, x).scaled(Fraction(1, 2)))


# ---------------------------------------------------------------------------
# Maurer-Cartan sets of a morphism and the cocone correspondence


def mc_f_check(f: DglaMorphism, l: ArtinElement, m: ArtinElement) -> Report:
    """Membership of (l, e^m) in the two-equation Maurer-Cartan set of f:
    dl + [l,l]/2 = 0 and e^m * f(l) = 0."""
    r = Report("mc_f")
    res1 = dgla_mc_residual(f.source, l)
    r.add("dl+[l,l]/2=0", res1.is_zero(),
          lhs="0" if res1.is_zero() else ";".join(res1.lines()))
    fl = artin_apply(f.map, l)
    res2 = gauge_act(f.target, m, fl)
    r.add("e^m*f(l)=0", res2.is_zero(),
          lhs="0" if res2.is_zero() else ";".join(res2.lines()))
    return r


def cocone_element(cocone_space, x: ArtinElement, m: ArtinElement) -> ArtinElement:
    out = ArtinElement(x.ring, cocone_space)
    for (n, mono), c in x.terms.items():
        out.add(A_PRE + n, mono, c)
    for (n, mono), c in m.terms.items():
        out.add(B_PRE + n, mono, c)
    return out


def cocone_mc_correspondence(f: DglaMorphism, x: ArtinElement, m: ArtinElement,
                             max_weight=None) -> Report:
    """(x, m) Maurer-Cartan in the mapping cocone iff (x, e^m) is in the
    two-equation set; both residuals computed independently and compared.
    The cocone series reads only the keys whose letters all carry a term of x
    (a:) or of m (b:), so fm_cocone_lie(f) is grown over those letters only:
    each key read has its full entry, and the cut-down structure, not a
    cocone, never leaves this call."""
    mw = max_weight or max(x.ring.order - 1, 2)
    xs = {n for n, _ in x.terms}
    ms = {n for n, _ in m.terms}
    s = _fm_cocone_lie(f, mw, [n for n in f.source.space.names if n in xs],
                       [n for n in f.target.space.names if n in ms])
    pair = cocone_element(s.space, x, m)
    res_cocone = mc_check(s, pair)
    direct = mc_f_check(f, x, m)
    r = Report("cocone_mc_correspondence")
    r.add("cocone residual zero", res_cocone.is_zero(),
          lhs="0" if res_cocone.is_zero() else ";".join(res_cocone.lines()))
    r.merge(direct, prefix="direct ")
    agree = res_cocone.is_zero() == direct.ok
    r.add("memberships agree", agree)
    return r


# ---------------------------------------------------------------------------
# order-by-order extension


def mc_extend(s: OoStructure, x: ArtinElement, order: int):
    """Given x Maurer-Cartan mod m^order, the order-th obstruction and, when
    it is killed by q_1, the deterministic minimal-pivot lift mod m^{order+1}.

    Returns (report, obstruction: ArtinElement, lift: ArtinElement | None).
    """
    r = Report("mc_extend")
    if any(sum(mono) >= order for (n, mono), c in x.terms.items() if c):
        raise MalformedInput("element has terms beyond m^%d" % order)
    res = mc_check(s, x)
    low_ok = all(sum(mono) >= order for (n, mono), c in res.terms.items() if c)
    r.add("MC mod m^%d" % order, low_ok)
    obstruction = res.component(order)
    if not low_ok:
        return r, obstruction, None
    if obstruction.is_zero():
        r.add("lift exists", True)
        return r, obstruction, x
    gm = linear_part(s.taylor.get(1), s.space, s.space, 1)
    lift = x
    by_mono = obstruction.by_mono()
    for mono in sorted(by_mono, key=lambda m: (sum(m), m)):
        rhs = {n: -c for n, c in by_mono[mono].items()}
        sol = map_solve(gm, rhs)
        if sol is None:
            r.add("lift exists", False, witness=x.ring.mono_str(mono),
                  lhs=";".join(obstruction.lines()))
            return r, obstruction, None
        bump = ArtinElement(x.ring, s.space)
        for n, c in sol.items():
            bump.add(n, mono, c)
        lift = lift.plus(bump)
    r.add("lift exists", True)
    return r, obstruction, lift


__all__ = [
    "ArtinRing", "ArtinElement", "ArtinMap", "artin_apply", "artin_bracket",
    "mc_check", "mc_pushforward", "gauge_act",
    "dgla_mc_residual", "mc_f_check", "cocone_element",
    "cocone_mc_correspondence", "mc_extend",
]
