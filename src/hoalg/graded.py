"""Exact graded linear algebra over the rationals.

Sparse vectors and maps indexed by named basis elements, Koszul sign
bookkeeping, unshuffles, Bernoulli numbers, contractions of complexes and
deterministic sparse elimination.  Every Koszul-signed sum over the
orderings of a word in the package is pushed to the sorted word, and that
word is always the merge of two sorted words: `merge_words` gives it with
its weight, the Koszul sign of the merge times the number of ways to pick
the second word out of it.  Every left-nested chain, of products and
brackets (`right_products`) or of operators, is pushed letter by letter from
its nonzeros by the one walk, `push`, through a row index of heads and a
join that names each grown word and its weight; `walk` runs it level by
level.  All arithmetic is exact, never float: an exact coefficient is an
`int` when integral and a `fractions.Fraction` otherwise (see `exact`).  A
multilinear map keeps its builder's ints at one reduced scale, written by
one checked write, `MultilinearMap.store`, and read exactly through its
`entries` view.  Objects are treated as immutable once built, so sharing
between threads is safe.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm, prod


class MalformedInput(ValueError):
    """Input violates a shape/typing precondition."""


class RejectedInput(ValueError):
    """Input is well-formed but fails a mathematical precondition."""


class UnsupportedOperation(RuntimeError):
    """Operation is deliberately out of scope for the given flavor."""


# ---------------------------------------------------------------------------
# combinatorics


def sign_pow(exponent: int) -> int:
    """(-1)^n as an exact int for any integer n (negative exponents included)."""
    return -1 if exponent % 2 else 1


def koszul_sign(perm, degrees) -> int:
    """Sign picked up by reordering graded symbols v_1..v_k into v_perm(1)..v_perm(k).

    `perm` is a bijection of {1..k} in one-line notation; `degrees` are the
    degrees of v_1..v_k.  Each transposed pair of odd symbols contributes -1.
    """
    perm = tuple(perm)
    k = len(perm)
    if sorted(perm) != list(range(1, k + 1)):
        raise MalformedInput("permutation must be a bijection of {1..%d}: %r" % (k, perm))
    if len(degrees) != k:
        raise MalformedInput("need one degree per symbol")
    sign = 1
    for i in range(k):
        di = degrees[perm[i] - 1]
        if di % 2 == 0:
            continue
        for j in range(i + 1, k):
            if perm[i] > perm[j] and degrees[perm[j] - 1] % 2:
                sign = -sign
    return sign


def unshuffles(*sizes: int):
    """All (p_1,..,p_r)-unshuffles of {1..sum}, lexicographically.

    A permutation sigma is returned as the tuple (sigma(1),..,sigma(k)); it is
    increasing on each of the consecutive blocks.  len == multinomial(sizes).
    """
    if any(s < 0 for s in sizes):
        raise MalformedInput("block sizes must be >= 0")
    return list(_unshuffles(tuple(sizes)))


@lru_cache(maxsize=256)
def _unshuffles(sizes) -> tuple:
    """The unshuffles of one size tuple, kept as a tuple so that the cached
    value cannot be mutated through a caller's list."""

    def rec(remaining, blocks):
        if not blocks:
            yield ()
            return
        first, rest = blocks[0], blocks[1:]
        for combo in itertools.combinations(remaining, first):
            left = tuple(x for x in remaining if x not in combo)
            for tail in rec(left, rest):
                yield combo + tail

    return tuple(rec(tuple(range(1, sum(sizes) + 1)), sizes))


def compositions(k: int, j: int):
    """Ordered partitions of k into j parts >= 1, lexicographically."""
    if j == 1:
        yield (k,)
        return
    for first in range(1, k - j + 2):
        for rest in compositions(k - first, j - 1):
            yield (first,) + rest


def sym_words(names, degree: dict, k: int):
    """Sorted k-multisets of `names` (in the given order) that are nonzero in
    the symmetric algebra, i.e. repeat no odd symbol."""
    for tup in itertools.combinations_with_replacement(names, k):
        if not any(x == y and degree[x] % 2 for x, y in zip(tup, tup[1:])):
            yield tup


@lru_cache(maxsize=None)
def bernoulli(k: int) -> Fraction:
    """k-th Bernoulli number in the convention t/(e^t-1) = sum B_k t^k/k!  (B_1 = -1/2)."""
    if k < 0:
        raise MalformedInput("Bernoulli index must be >= 0")
    if k == 0:
        return Fraction(1)
    # sum_{j=0}^{k} C(k+1,j) B_j = 0 for k >= 1
    acc = Fraction(0)
    for j in range(k):
        acc += comb(k + 1, j) * bernoulli(j)
    return -acc / (k + 1)


# ---------------------------------------------------------------------------
# sparse linear combinations: plain dicts name -> coefficient, zero-free, each
# coefficient an int when integral and a Fraction otherwise, never a float


def exact(c):
    """The canonical form of an exact coefficient: an int when c is integral,
    else a Fraction.  Floats are rejected; other rationals (bool, numeric
    strings) go through Fraction.  Fraction(2) == 2 with the same hash and
    str, so canonical values compare, hash and print like the Fractions."""
    if c.__class__ is int:
        return c
    if c.__class__ is not Fraction:
        if isinstance(c, float):
            raise MalformedInput("float coefficient rejected (exact arithmetic only)")
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def lin_acc(acc: dict, vec: dict, coeff=1) -> dict:
    """acc += coeff * vec, in place; drops zero entries."""
    if not coeff:
        return acc
    for n, v in vec.items():
        nv = acc.get(n, 0) + coeff * v
        if nv:
            acc[n] = exact(nv)
        else:
            acc.pop(n, None)
    return acc


def lin_add(acc: dict, key, coeff) -> dict:
    """acc[key] += coeff, in place; drops a zero entry."""
    if not coeff:
        return acc
    cur = acc.get(key, 0) + coeff
    if cur:
        acc[key] = exact(cur)
    else:
        del acc[key]
    return acc


def lin_scale(vec: dict, coeff) -> dict:
    if not coeff:
        return {}
    return {n: exact(coeff * v) for n, v in vec.items()}


def lin_single(name, coeff=1) -> dict:
    return {name: exact(coeff)} if coeff else {}


def lin_eq(a: dict, b: dict) -> bool:
    return {n: v for n, v in a.items() if v} == {n: v for n, v in b.items() if v}


def unscaled(vec: dict, scale: int) -> dict:
    """vec / scale for a vector of ints, one exact division per coefficient."""
    return vec if scale == 1 else {n: exact(Fraction(v, scale)) for n, v in vec.items()}


# ---------------------------------------------------------------------------
# the one letter-by-letter walk: every left-nested chain of the package, of
# products, brackets or operators, is pushed from the nonzeros (Gustavson)


def push(tails: dict, heads: dict, join, coeff=1, acc=None) -> dict:
    """One step of the walk.  A chain table is {S: {s: vector}}, one vector
    per source s.  Each coefficient c at a name y of tails[S][s] is pushed to
    the heads (B, v) in heads[y] (`by_row`) only, adding coeff w c . v to
    acc[T][s] in place, where (T, w) = join(B, S), joined once per cut, and
    None means no term.  For a merge join (`merge_join`), w(B, T) is the
    Koszul sign of the merge times the number of ways to pick B out of T: if
    heads sum the signed orderings of B and tails those of S, acc[T] sums
    those of T, grouped by the content of B.  A vector that cancels stays
    empty and pushes nothing."""
    acc = {} if acc is None else acc
    for S, rows in tails.items():
        cuts: dict = {}
        for s, vec in rows.items():
            for y, c in vec.items():
                for B, v in heads.get(y, ()):
                    got = cuts[B] if B in cuts else cuts.setdefault(B, join(B, S))
                    if got is not None:
                        T, w = got
                        lin_acc(acc.setdefault(T, {}).setdefault(s, {}), v, coeff * w * c)
    return acc


def walk(seeds: list, heads: dict, join, depth: int) -> list:
    """levels[0..depth] of the chains pushed level by level through the row
    index heads: levels[0] = seeds[0], and levels[n] is the push of
    levels[n - 1] plus the table seeds[n] where given, so a source may enter
    at the level its own weight starts.  A zero chain cuts its subtree."""
    levels = [seeds[0]]
    for n in range(1, depth + 1):
        level = push(levels[-1], heads, join)
        for S, rows in seeds[n].items() if n < len(seeds) else ():
            for s, vec in rows.items():
                lin_acc(level.setdefault(S, {}).setdefault(s, {}), vec)
        levels.append(level)
    return levels


def basis_rows(names) -> dict:
    """{(): {y: e_y}}: the table that walks from the basis vectors e_y."""
    return {(): {y: {y: 1} for y in names}}


def by_row(table: dict, left=None) -> dict:
    """{y: [(B, vector)]} for a chain table {B: {y: vector}}: each nonzero
    vector, or its image under left (a GradedMap, or a set of names: the
    projection onto their span, read as a filter), indexed by its row y, as
    coalg.preimages indexes a map, so a push reads only the heads it reaches."""
    rows: dict = {}
    for B, vecs in table.items():
        for y, vec in vecs.items():
            img = vec if left is None else left.apply(vec) if isinstance(left, GradedMap) \
                else {n: c for n, c in vec.items() if n in left}
            if img:
                rows.setdefault(y, []).append((B, img))
    return rows


def scaled_rows(*indexes) -> tuple:
    """(D, [D * index, ..]) for row indexes {y: [(B, vector)]} (by_row), D the
    lcm of their denominators: a walk through them stays in ints, its level n
    at D^n times the true chains, which one factor 1/D^n undoes on store."""
    scale = lcm(*(c.denominator for index in indexes for heads in index.values()
                  for _, vec in heads for c in vec.values()))
    return scale, list(indexes) if scale == 1 else [
        {y: [(B, {n: c.numerator * (scale // c.denominator) for n, c in vec.items()})
             for B, vec in heads] for y, heads in index.items()} for index in indexes]


def concat(B: tuple, S: tuple) -> tuple:
    """The join of tensor words grown to the right: S + B, of weight 1."""
    return S + B, 1


def merge_join(space, right=False):
    """The join of two sorted words of S(space), `merge_words`: the head B in
    front of the tail S, or behind it when `right`."""
    index, degree = space.index, space.degree
    return (lambda B, S: merge_words(S, B, index, degree)) if right else \
        (lambda B, S: merge_words(B, S, index, degree))


def sorted_join(space, right=False):
    """The join of a sorted word of S(space) grown one letter at a time: the
    word B + S, or S + B when `right`, of weight 1, where the merge of B and
    S (merge_words) is that word, else None."""
    index, degree = space.index, space.degree

    def join(B, S):
        T = S + B if right else B + S
        got = merge_words(B, S, index, degree)
        return (T, 1) if got and got[0] == T else None

    return join


def right_products(op, letters=None) -> tuple:
    """(D, heads, times) for an arity-2 tensor-flavor MultilinearMap op, read
    from its stored ints at its scale D: heads
    is the row index {u: [((b,), D op(u, b))]} over the letters b in
    `letters` (default every name), so a push of u's vector appends b to the
    word with D u b, and times(u, v) = D op(u, v) with zeros dropped.  So a
    walk from int vectors stays in ints, its level n at D^n times the true
    products."""
    if op.arity != 2 or op.flavor != TENSOR:
        raise MalformedInput("right products need an arity-2 tensor-flavor map")
    table: dict = {}
    for (u, b), vec in op.ints.items():
        table.setdefault(u, {})[b] = vec
    keep = set(op.source.names if letters is None else letters)
    heads = {u: hs for u, row in table.items()
             if (hs := [((b,), vec) for b, vec in row.items() if b in keep])}

    def times(u: dict, v: dict) -> dict:
        out: dict = {}
        for n, c in u.items():
            row = table.get(n, {})
            for b, cb in v.items():
                for y, w in row.get(b, {}).items():
                    out[y] = out.get(y, 0) + c * cb * w
        return {y: w for y, w in out.items() if w}

    return op.scale, heads, times


def format_coeff(c) -> str:
    return str(Fraction(c))


def format_vector(vec: dict, space=None) -> str:
    names = sorted(vec, key=lambda n: space.index[n]) if space is not None else sorted(vec)
    parts = ["%s*%s" % (format_coeff(vec[n]), n) for n in names if vec[n]]
    return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# graded spaces


class GradedSpace:
    """Finite-dimensional Z-graded (optionally Z^2-bigraded) space with named basis.

    The basis order is the declaration order and is the single source of
    determinism for every computation downstream.  A space is not mutated
    after construction, so its data tuple, hash and shifts are computed once.
    """

    def __init__(self, basis):
        names = []
        degree = {}
        bidegree = {}
        for item in basis:
            if len(item) == 2:
                name, deg = item
                bid = None
            else:
                name, deg, bid = item
            if name in degree:
                raise MalformedInput("duplicate basis name %r" % name)
            if bid is not None:
                p, q = bid
                if p + q != deg:
                    raise MalformedInput(
                        "bidegree %r of %r does not sum to degree %d" % (bid, name, deg))
                bid = (p, q)
            names.append(name)
            degree[name] = int(deg)
            bidegree[name] = bid
        self.names = tuple(names)
        self.degree = degree
        self.bidegree = bidegree
        self.index = {n: i for i, n in enumerate(self.names)}
        self._data = tuple((n, degree[n], bidegree[n]) for n in self.names)
        self._hash = hash(self._data)
        self._shifts = {}

    @property
    def dim(self) -> int:
        return len(self.names)

    def degrees_present(self):
        return sorted(set(self.degree.values()))

    def shifted(self, n: int) -> "GradedSpace":
        """V[n]: same names, degree d becomes d - n.  Bidegrees are dropped.
        Built once per n and shared, as neither space is mutated."""
        if n not in self._shifts:
            self._shifts[n] = GradedSpace([(name, self.degree[name] - n) for name in self.names])
        return self._shifts[n]

    def subspace(self, names) -> "GradedSpace":
        names = list(names)
        missing = [n for n in names if n not in self.degree]
        if missing:
            raise MalformedInput("unknown basis names %r" % missing)
        return GradedSpace(
            [(n, self.degree[n], self.bidegree[n]) if self.bidegree[n] is not None
             else (n, self.degree[n]) for n in names])

    def vector_degree(self, vec: dict):
        """Common degree of a homogeneous combination, None for 0, error if mixed."""
        degs = {self.degree[n] for n, c in vec.items() if c}
        if not degs:
            return None
        if len(degs) > 1:
            raise MalformedInput("inhomogeneous combination: degrees %r" % sorted(degs))
        return degs.pop()

    def data(self):
        return self._data

    def __eq__(self, other):
        # GradedMap.compose checks shapes with this on every call
        return self is other or (isinstance(other, GradedSpace)
                                 and self._hash == other._hash
                                 and self._data == other._data)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "GradedSpace(%d elements)" % self.dim


A_PRE = "a:"
B_PRE = "b:"


def pair_space(a: GradedSpace, b: GradedSpace) -> GradedSpace:
    """Direct sum with uniform name prefixes (A_PRE first block, B_PRE second)."""
    basis = []
    for src, pre in ((a, A_PRE), (b, B_PRE)):
        for n in src.names:
            bid = src.bidegree[n]
            if bid is None:
                basis.append((pre + n, src.degree[n]))
            else:
                basis.append((pre + n, src.degree[n], bid))
    return GradedSpace(basis)


def prefix_vector(vec: dict, prefix: str) -> dict:
    return {prefix + n: c for n, c in vec.items()}


def hom_space(target_names, source_names, big: GradedSpace) -> GradedSpace:
    """Space of elementary maps `t<-s` (s in source_names, t in target_names).

    The element named `t<-s` is the map sending s to t and every other basis
    element of `big` to zero; its degree is deg(t) - deg(s).
    """
    basis = []
    for s in source_names:
        for t in target_names:
            basis.append(("%s<-%s" % (t, s), big.degree[t] - big.degree[s]))
    return GradedSpace(basis)


def hom_differential(d, targets, sources) -> dict:
    """{`t<-s`: P[d, t<-s]} on hom_space(targets, sources, V), for d of degree
    +1 on V and P the projection, pushed from the nonzeros c = d(u)[y]: in
    [d, E] = d o E - (-1)^{|E|} E o d, d o (u<-s) has c at y<-s and
    (t<-y) o d has c at t<-u.  The two branches are independent, so targets =
    sources = V gives End(V).  Names are built from their parts, never parsed."""
    deg = d.source.degree
    tset, sset = set(targets), set(sources)
    out: dict = {}
    for u, img in d.entries.items():
        for y, c in img.items():
            if u in tset and y in tset:
                for s in sources:
                    lin_add(out.setdefault("%s<-%s" % (u, s), {}), "%s<-%s" % (y, s), c)
            if u in sset and y in sset:
                for t in targets:
                    lin_add(out.setdefault("%s<-%s" % (t, y), {}), "%s<-%s" % (t, u),
                            -sign_pow(deg[t] - deg[y]) * c)
    return out


def sym_normalize(names, index: dict, degree: dict):
    """Canonical (sorted by basis index) form of a symmetric-word tuple.

    Returns (canonical_tuple, koszul_sign) or None when the word is zero in
    the symmetric algebra (a repeated odd symbol).
    """
    names = list(names)
    idx = [index[n] for n in names]
    sign = 1
    for i in range(1, len(names)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            if degree[names[j - 1]] % 2 and degree[names[j]] % 2:
                sign = -sign
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            names[j - 1], names[j] = names[j], names[j - 1]
            j -= 1
    for a, b in zip(names, names[1:]):
        if a == b and degree[a] % 2:
            return None
    return tuple(names), sign


def stabilizer(word: tuple) -> int:
    """prod_x mult(x)! over the letters x of a sorted word: the number of
    orderings of its letters that leave it unchanged."""
    out = run = 1
    for a, b in zip(word, word[1:]):
        run = run + 1 if a == b else 1
        out *= run
    return out


def merge_words(a: tuple, b: tuple, index: dict, degree: dict):
    """(w, weight) for the sorted word w of a + b, where a and b are sorted
    words of S(V) with no repeated odd letter: weight is the Koszul sign of
    moving b's odd letters past the larger odd letters of a, times
    prod_x C(mult_w(x), mult_b(x)), the number of ways to pick b out of w.
    None when w repeats an odd letter.  b is walked from its end and pops
    the larger letters of a, so a short b costs a walk over those only."""
    j = i = len(a)
    w = ()                      # the merged word after a[:j]
    weight, odd = 1, 0          # odd: parity of the odd letters of a[i:]
    prev = None                 # run, same: copies of y read from b so far, and in a
    for y in reversed(b):
        at = index[y]
        while i and index[a[i - 1]] > at:
            i -= 1
            odd ^= degree[a[i]] & 1
        if y != prev:
            prev, run, same = y, 1, 0
            while same < i and a[i - 1 - same] == y:
                same += 1
        else:
            run += 1
        if degree[y] & 1:
            if run + same > 1:
                return None
            if odd:
                weight = -weight
        elif same or run > 1:
            weight = weight * (same + run) // run
        w = (y,) + a[i:j] + w
        j = i
    return a[:j] + w, weight


# ---------------------------------------------------------------------------
# graded maps


class GradedMap:
    """Degree-homogeneous linear map, stored sparsely on basis elements."""

    def __init__(self, source: GradedSpace, target: GradedSpace, degree: int,
                 entries=None, bidegree=None):
        self.source = source
        self.target = target
        self.degree = int(degree)
        self.bidegree = tuple(bidegree) if bidegree is not None else None
        self.entries = {}
        for name, vec in (entries or {}).items():
            self.set(name, vec)

    def set(self, name, vec: dict):
        if name not in self.source.degree:
            raise MalformedInput("unknown source basis element %r" % name)
        if any(isinstance(c, float) for c in vec.values()):
            raise MalformedInput("float coefficient rejected (exact arithmetic only)")
        vec = {n: exact(c) for n, c in vec.items() if c}
        want = self.source.degree[name] + self.degree
        for out, c in vec.items():
            if out not in self.target.degree:
                raise MalformedInput("unknown target basis element %r" % out)
            if self.target.degree[out] != want:
                raise MalformedInput(
                    "map of degree %d sends %r (deg %d) to %r (deg %d)"
                    % (self.degree, name, self.source.degree[name], out,
                       self.target.degree[out]))
            if self.bidegree is not None:
                bs = self.source.bidegree[name]
                bt = self.target.bidegree[out]
                if bs is not None and bt is not None:
                    if (bs[0] + self.bidegree[0], bs[1] + self.bidegree[1]) != bt:
                        raise MalformedInput(
                            "bidegree violation at %r -> %r" % (name, out))
        if vec:
            self.entries[name] = vec
        else:
            self.entries.pop(name, None)

    def value(self, name) -> dict:
        return self.entries.get(name, {})

    def apply(self, vec: dict) -> dict:
        out: dict = {}
        for n, c in vec.items():
            lin_acc(out, self.entries.get(n, {}), c)
        return out

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self o other.  The images of two checked maps are exact, zero-free
        and of the right degree, so they are stored without `set`'s checks."""
        if other.target != self.source:
            raise MalformedInput("composition shape mismatch")
        out = GradedMap(other.source, self.target, self.degree + other.degree)
        for name, vec in other.entries.items():
            img = self.apply(vec)
            if img:
                out.entries[name] = img
        return out

    def add(self, other: "GradedMap", coeff=1) -> "GradedMap":
        if (other.source, other.target, other.degree) != (self.source, self.target, self.degree):
            raise MalformedInput("sum shape mismatch")
        out = {name: dict(vec) for name, vec in self.entries.items()}
        for name, vec in other.entries.items():
            lin_acc(out.setdefault(name, {}), vec, coeff)
        return GradedMap(self.source, self.target, self.degree, out)

    def scale(self, coeff) -> "GradedMap":
        return GradedMap(self.source, self.target, self.degree,
                         {name: lin_scale(vec, coeff) for name, vec in self.entries.items()})

    def commutator(self, other: "GradedMap") -> "GradedMap":
        """Graded commutator self o other - (-1)^{|self||other|} other o self."""
        ab = self.compose(other)
        ba = other.compose(self)
        sign = -1 if (self.degree % 2 and other.degree % 2) else 1
        return ab.add(ba, -sign)

    def is_zero(self) -> bool:
        return all(not any(vec.values()) for vec in self.entries.values())

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, GradedMap):
            return NotImplemented
        if (self.source, self.target, self.degree) != (other.source, other.target, other.degree):
            return False
        names = set(self.entries) | set(other.entries)
        return all(lin_eq(self.entries.get(n, {}), other.entries.get(n, {})) for n in names)

    @staticmethod
    def identity(space: GradedSpace) -> "GradedMap":
        return GradedMap(space, space, 0, {n: lin_single(n) for n in space.names})

    @staticmethod
    def zero(source: GradedSpace, target: GradedSpace, degree: int) -> "GradedMap":
        return GradedMap(source, target, degree)

    def __repr__(self):
        return "GradedMap(degree %d, %d entries)" % (self.degree, len(self.entries))


def coordinate_projections(space: GradedSpace, names):
    """(P, id - P) for P the projection onto the span of the basis `names`
    with kernel the span of the other basis elements."""
    P = GradedMap(space, space, 0, {n: lin_single(n) for n in names})
    return P, GradedMap.identity(space).add(P, -1)


def elementary_to_graded_map(vec: dict, hom: GradedSpace, source: GradedSpace,
                             target: GradedSpace, degree=None) -> GradedMap:
    """Realize a combination of elementary `t<-s` symbols as an actual GradedMap."""
    deg = hom.vector_degree(vec) if degree is None else degree
    out = GradedMap(source, target, 0 if deg is None else deg)
    acc = {}
    for name, c in vec.items():
        t, s = name.split("<-")
        lin_add(acc.setdefault(s, {}), t, c)
    for s, v in acc.items():
        out.set(s, v)
    return out


def graded_map_to_elementary(gm: GradedMap, hom: GradedSpace) -> dict:
    """Decompose a GradedMap in the elementary basis of a hom space."""
    vec = {}
    for s, img in gm.entries.items():
        for t, c in img.items():
            name = "%s<-%s" % (t, s)
            if name not in hom.degree:
                raise MalformedInput("map does not live in the given hom space (%s)" % name)
            lin_add(vec, name, c)
    return vec


# ---------------------------------------------------------------------------
# multilinear maps


TENSOR = "tensor"
SYMMETRIC = "symmetric"


class MultilinearMap:
    """Arity-k map V^{ox k} -> W (tensor flavor) or S^k V -> W (symmetric flavor).

    Symmetric entries are stored on the canonical (basis-ordered) tuple only;
    reading any other order applies the Koszul sign on the fly, and words with
    a repeated odd symbol read as zero.  The map is the zero-free int table
    ints = {canonical word: {name: int}} over one scale, reduced (gcd(scale,
    every int) = 1), so the pair is unique; `entries` divides it on each read.
    """

    def __init__(self, source: GradedSpace, target: GradedSpace, degree: int,
                 arity: int, flavor: str):
        if arity < 1:
            raise MalformedInput("arity must be >= 1")
        if flavor not in (TENSOR, SYMMETRIC):
            raise MalformedInput("flavor must be tensor or symmetric")
        self.source = source
        self.target = target
        self.degree = int(degree)
        self.arity = int(arity)
        self.flavor = flavor
        self.ints, self.scale = {}, 1

    @property
    def entries(self) -> dict:
        """{canonical word: exact vector}, ints / scale, computed on each read."""
        return {key: unscaled(vec, self.scale) for key, vec in self.ints.items()}

    def normalize(self, names):
        if len(names) != self.arity:
            raise MalformedInput("expected %d arguments, got %d" % (self.arity, len(names)))
        if self.flavor == TENSOR:
            return tuple(names), 1
        try:
            return sym_normalize(names, self.source.index, self.source.degree) or (None, 0)
        except KeyError as err:
            raise MalformedInput("unknown source basis element %r" % err.args[0]) from None

    def set_entry(self, names, vec: dict):
        """entries[names] = vec, on the canonical word with its Koszul sign."""
        key, sign = self.normalize(names)
        if key is not None:
            self.store({key: dict(vec)}, sign)
        elif any(exact(c) for c in vec.values()):
            raise MalformedInput("word %r is zero in the symmetric algebra" % (names,))

    def add_entry(self, names, vec: dict, coeff=1):
        """entries[names] += coeff * vec, for input read word by word (fmt)."""
        key, sign = self.normalize(names)
        if key is not None:     # value(names) is sign times the entry at key
            self.store({key: lin_acc(dict(self.value(names)), vec, coeff)}, sign)

    def store(self, words: dict, factor=1) -> "MultilinearMap":
        """The one checked write: entries[w] = factor * words[w] for a table
        {canonical word: int or Fraction vector} (no float), zero coefficients
        dropped and a word whose vector is zero removed, next to the words
        stored before, at the lcm of the scales, reduced by the gcd.  A builder
        passes ints at one scale D with the factor over D, and a vector that
        the factor leaves as it is is adopted, so the caller writes no more to
        it (the map writes to no stored vector).  One pass checks arity,
        source names, canonical words of S(V) and target degrees before
        anything is stored, and raises MalformedInput.  Returns the map."""
        sdeg, tdeg, index = self.source.degree, self.target.degree, self.source.index
        sym = self.flavor == SYMMETRIC
        for key, vec in words.items():
            ok, want, last = len(key) == self.arity, self.degree, -1
            for n in key:
                at = index.get(n, -1)
                ok = ok and at >= 0 and not (sym and (at < last or at == last and sdeg[n] % 2))
                want, last = want + sdeg.get(n, 0), at
            for y in vec:
                ok = ok and tdeg.get(y) == want
            if not ok:
                raise MalformedInput("arity-%d map: %r -> %r is not a canonical word or has "
                                     "a degree mismatch" % (self.arity, key, vec))
        p, q = factor.numerator, factor.denominator
        if any(c.__class__ is not int for vec in words.values() for c in vec.values()):
            den = lcm(*(exact(c).denominator for vec in words.values() for c in vec.values()))
            words, q = {key: {y: (exact(c) * den).numerator for y, c in vec.items()}
                        for key, vec in words.items()}, q * den
        scale = lcm(self.scale, q)
        m, lift = p * (scale // q), scale // self.scale
        new = {key: vec if m == 1 and 0 not in vec.values() else
               {y: cm for y, c in vec.items() if (cm := c * m)} for key, vec in words.items()}
        ints = new if not self.ints else self.ints if lift == 1 else \
            {key: {y: c * lift for y, c in vec.items()} for key, vec in self.ints.items()}
        if ints is not new:
            ints.update(new)
        for key in [key for key in words if not ints[key]]:
            del ints[key]
        g = scale
        for vec in ints.values():
            if g == 1:
                break
            g = gcd(g, *vec.values())
        if g > 1:
            ints = {key: {y: c // g for y, c in vec.items()} for key, vec in ints.items()}
        self.ints, self.scale = ints, scale // g
        return self

    def value(self, names) -> dict:
        key, sign = self.normalize(names)
        vec = self.ints.get(key)
        if vec:
            return unscaled(vec if sign == 1 else {y: -c for y, c in vec.items()}, self.scale)
        # a stored word has known names, and normalize has read every name of
        # a symmetric word, so only a tensor miss is checked
        if self.flavor == TENSOR:
            for n in key:
                if n not in self.source.degree:
                    raise MalformedInput("unknown source basis element %r" % n)
        return {}

    def apply_vectors(self, vectors) -> dict:
        """Full multilinear expansion on a list of combinations."""
        if len(vectors) != self.arity:
            raise MalformedInput("expected %d arguments" % self.arity)
        out: dict = {}
        for combo in itertools.product(*[list(v.items()) for v in vectors]):
            coeff = prod(c for _, c in combo)
            if coeff:
                lin_acc(out, self.value(tuple(n for n, _ in combo)), coeff)
        return out

    def symmetrized(self) -> "MultilinearMap":
        """Sum over all permutations with Koszul signs (tensor -> symmetric).

        The sum at a sorted word w reads every ordering of w, so each stored
        key K is pushed to w instead, in ints, with the Koszul sign of the
        sort times stab(w), the number of orderings of w that give K."""
        if self.flavor != TENSOR:
            raise MalformedInput("can only symmetrize a tensor-flavor map")
        acc: dict = {}
        for key, vec in self.ints.items():
            got = sym_normalize(key, self.source.index, self.source.degree)
            if got is not None:
                lin_acc(acc.setdefault(got[0], {}), vec, got[1] * stabilizer(got[0]))
        return MultilinearMap(self.source, self.target, self.degree, self.arity,
                              SYMMETRIC).store(acc, Fraction(1, self.scale))

    def is_zero(self) -> bool:
        return not self.ints

    def __eq__(self, other):
        if not isinstance(other, MultilinearMap):
            return NotImplemented
        return (self.source, self.target, self.degree, self.arity, self.flavor,
                self.scale, self.ints) == (other.source, other.target, other.degree,
                                           other.arity, other.flavor, other.scale, other.ints)

    def __repr__(self):
        return "MultilinearMap(%s, arity %d, degree %d, %d entries)" % (
            self.flavor, self.arity, self.degree, len(self.ints))


def multilinear_from_graded_map(gm: GradedMap, flavor: str) -> MultilinearMap:
    return MultilinearMap(gm.source, gm.target, gm.degree, 1, flavor).store(
        {(name,): vec for name, vec in gm.entries.items()})


def linear_part(f, source: GradedSpace, target: GradedSpace, degree: int) -> GradedMap:
    """The arity-1 Taylor coefficient f read as a GradedMap (zero when f is None)."""
    out = GradedMap(source, target, degree)
    if f is not None:
        for n in source.names:
            out.set(n, f.value((n,)))
    return out


def prefixed(entries: dict, prefix: str) -> dict:
    """A map's {word: vector} entries on the block of a pair space whose
    names carry `prefix`, as a table for MultilinearMap.store."""
    return {tuple(prefix + n for n in word): prefix_vector(vec, prefix)
            for word, vec in entries.items()}


# ---------------------------------------------------------------------------
# verification reports


class Report:
    """List of named pass/fail checks with optional witness data."""

    def __init__(self, title: str):
        self.title = title
        self.checks = []

    def add(self, label: str, ok: bool, weight=None, witness=None, lhs=None, rhs=None):
        self.checks.append({
            "label": label, "ok": bool(ok), "weight": weight,
            "witness": witness, "lhs": lhs, "rhs": rhs,
        })

    def merge(self, other: "Report", prefix=""):
        for c in other.checks:
            c = dict(c)
            c["label"] = prefix + c["label"]
            self.checks.append(c)

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.checks)

    def first_failure(self):
        for c in self.checks:
            if not c["ok"]:
                return c
        return None

    def lines(self):
        out = []
        for c in self.checks:
            weight = "-" if c["weight"] is None else str(c["weight"])
            if c["witness"] is None:
                tup = "-"
            elif isinstance(c["witness"], (tuple, list)):
                tup = "(%s)" % ",".join(str(x) for x in c["witness"])
            else:
                tup = "(%s)" % c["witness"]
            lhs = "-" if c["lhs"] is None else str(c["lhs"])
            rhs = "-" if c["rhs"] is None else str(c["rhs"])
            out.append("RELATION %s weight=%s tuple=%s lhs=%s rhs=%s status=%s"
                       % (c["label"], weight, tup, lhs, rhs,
                          "PASS" if c["ok"] else "FAIL"))
        return out

    def __str__(self):
        head = "%s: %s" % (self.title, "PASS" if self.ok else "FAIL")
        return "\n".join([head] + self.lines())


# ---------------------------------------------------------------------------
# contractions


class Contraction:
    """Deformation retract data between a small and a big complex.

    inject: small -> big and project: big -> small are chain maps with
    project o inject = Id; homotopy K satisfies dK + Kd = inject o project - Id
    and the side conditions project o K = 0, K o inject = 0, K^2 = 0.
    """

    def __init__(self, small: GradedSpace, d_small: GradedMap,
                 big: GradedSpace, d_big: GradedMap,
                 inject: GradedMap, project: GradedMap, homotopy: GradedMap):
        self.small = small
        self.d_small = d_small
        self.big = big
        self.d_big = d_big
        self.inject = inject
        self.project = project
        self.homotopy = homotopy


def first_witness(words, holds):
    """The first word on which `holds` is false, or None when it holds on all."""
    for word in words:
        if not holds(word):
            return word
    return None


def check_map_identity(report, label, lhs: GradedMap, rhs: GradedMap):
    """Add a check that lhs == rhs, witnessed by the first differing basis element."""
    names = set(lhs.entries) | set(rhs.entries)
    for n in sorted(names, key=lambda x: lhs.source.index[x]):
        a, b = lhs.value(n), rhs.value(n)
        if not lin_eq(a, b):
            report.add(label, False, witness=n,
                       lhs=format_vector(a, lhs.target), rhs=format_vector(b, rhs.target))
            return
    report.add(label, True)


def check_contraction(c: Contraction) -> Report:
    """Verify all contraction identities, with a witness basis element on failure."""
    r = Report("contraction")
    shapes_ok = (c.inject.source == c.small and c.inject.target == c.big
                 and c.project.source == c.big and c.project.target == c.small
                 and c.homotopy.source == c.big and c.homotopy.target == c.big
                 and c.d_small.degree == 1 and c.d_big.degree == 1
                 and c.inject.degree == 0 and c.project.degree == 0
                 and c.homotopy.degree == -1)
    if not shapes_ok:
        raise MalformedInput("contraction shapes are inconsistent")
    check_map_identity(r, "d_small^2=0", c.d_small.compose(c.d_small),
                       GradedMap.zero(c.small, c.small, 2))
    check_map_identity(r, "d_big^2=0", c.d_big.compose(c.d_big),
                       GradedMap.zero(c.big, c.big, 2))
    check_map_identity(r, "inject_chain", c.d_big.compose(c.inject),
                       c.inject.compose(c.d_small))
    check_map_identity(r, "project_chain", c.d_small.compose(c.project),
                       c.project.compose(c.d_big))
    check_map_identity(r, "project.inject=id", c.project.compose(c.inject),
                       GradedMap.identity(c.small))
    homot = c.d_big.compose(c.homotopy).add(c.homotopy.compose(c.d_big))
    check_map_identity(r, "dK+Kd=fg-id", homot,
                       c.inject.compose(c.project).add(GradedMap.identity(c.big), -1))
    check_map_identity(r, "project.K=0", c.project.compose(c.homotopy),
                       GradedMap.zero(c.big, c.small, -1))
    check_map_identity(r, "K.inject=0", c.homotopy.compose(c.inject),
                       GradedMap.zero(c.small, c.big, -1))
    check_map_identity(r, "K^2=0", c.homotopy.compose(c.homotopy),
                       GradedMap.zero(c.big, c.big, -2))
    return r


# ---------------------------------------------------------------------------
# deterministic sparse elimination (forward only)


def reduce_rows(vec: dict, rows, pre=None) -> list:
    """Subtract f * row from vec in place for each echelon row (row, preimage,
    pivot) in order, f the entry of vec at the pivot; returns the factors f.
    When pre is given it tracks the preimage: pre -= f * preimage."""
    factors = []
    for row, row_pre, piv in rows:
        f = vec.get(piv, 0)
        factors.append(f)
        if f:
            lin_acc(vec, row, -f)
            if pre is not None:
                lin_acc(pre, row_pre, -f)
    return factors


def append_row(rows, vec: dict, pre: dict, index: dict):
    """Append a reduced vec, unless zero, as a row scaled to 1 at its first
    nonzero basis name, with its entries in basis order."""
    if vec:
        names = sorted(vec, key=index.__getitem__)
        inv = 1 / Fraction(vec[names[0]])
        rows.append((lin_scale({n: vec[n] for n in names}, inv), lin_scale(pre, inv), names[0]))


def echelon(gm: GradedMap, deg: int) -> tuple:
    """(rows, kernel) of gm on the degree-deg source names: each image, in
    basis order, is reduced against the rows before it, tracking its
    preimage; one that stays nonzero becomes a row, one that reduces to zero
    leaves its kernel vector (1 at its own name, 0 at every other name that
    leaves one)."""
    rows, kernel = [], []
    for n in gm.source.names:
        if gm.source.degree[n] == deg:
            vec, pre = dict(gm.value(n)), lin_single(n)
            reduce_rows(vec, rows, pre)
            if vec:
                append_row(rows, vec, pre, gm.target.index)
            else:
                kernel.append(pre)
    return rows, kernel


def _solve(rows, rhs: dict, index: dict):
    """Minus the preimage tracked while rhs reduces to zero against echelon
    rows, in basis order, or None when something is left over."""
    vec, pre = {n: c for n, c in rhs.items() if c}, {}
    reduce_rows(vec, rows, pre)
    return None if vec else {n: -pre[n] for n in sorted(pre, key=index.__getitem__)}


def map_solve(gm: GradedMap, rhs: dict):
    """Solve gm(x) = rhs for a homogeneous rhs; returns a combination, 0 on
    every name that leaves a kernel vector in `echelon`, or None."""
    if not rhs:
        return {}
    rows, _ = echelon(gm, gm.target.vector_degree(rhs) - gm.degree)
    return _solve(rows, rhs, gm.source.index)


def map_right_inverse(gm: GradedMap):
    """Deterministic right inverse, None when gm is not surjective: the
    map_solve of each target basis name, one echelon per target degree."""
    rows = {deg: echelon(gm, deg - gm.degree)[0] for deg in gm.target.degrees_present()}
    inv = {t: _solve(rows[gm.target.degree[t]], {t: 1}, gm.source.index) for t in gm.target.names}
    return None if None in inv.values() else GradedMap(gm.target, gm.source, -gm.degree, inv)


def map_kernel_basis(gm: GradedMap):
    """Deterministic basis of ker(gm): echelon's kernel vectors, by degree."""
    return [v for deg in gm.source.degrees_present() for v in echelon(gm, deg)[1]]


__all__ = [
    "Fraction", "MalformedInput", "RejectedInput", "UnsupportedOperation",
    "koszul_sign", "unshuffles", "compositions", "sym_words",
    "bernoulli", "factorial", "sign_pow",
    "exact", "lin_acc", "lin_add", "lin_scale", "lin_single", "lin_eq", "unscaled", "push",
    "walk", "basis_rows", "by_row", "scaled_rows", "concat", "merge_join", "sorted_join",
    "right_products", "format_vector", "format_coeff", "GradedSpace", "A_PRE", "B_PRE",
    "pair_space", "prefix_vector", "hom_space", "hom_differential", "sym_normalize",
    "stabilizer", "merge_words", "GradedMap", "coordinate_projections",
    "elementary_to_graded_map", "graded_map_to_elementary",
    "TENSOR", "SYMMETRIC", "MultilinearMap", "multilinear_from_graded_map",
    "linear_part", "prefixed",
    "Report", "first_witness", "check_map_identity", "Contraction", "check_contraction",
    "reduce_rows", "append_row", "echelon", "map_solve", "map_right_inverse",
    "map_kernel_basis",
]
