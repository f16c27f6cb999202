"""Synthetic formal Hodge packages and their period-map / Yukawa models.

A Hodge package axiomatizes the propagator calculus of a compact Kaehler
manifold on a finite bigraded complex: holomorphic/antiholomorphic
differentials, a harmonic inclusion/projection pair, and a degree (0,-1)
propagator satisfying the formal Kaehler identities.  Cartan homotopies
supply the contraction operators; everything downstream (perturbation maps,
the obstruction map, split/minimal period maps, both Yukawa models) is a
finite exact computation over Artin coefficients.  A Cartan homotopy builds
its table l = {x: l_x} once, on construction, and every builder reads it;
each combination of i's or l's is one in-place sum of the table's maps.
The period and Yukawa builders push each chain from W's basis (_push).
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb, factorial

from .coalg import (
    DgLieAlgebra, OoMorphism, OoStructure, decalage_dgla,
    end_preserving_sub_dgla, symmetrize_structure,
)
from .cocone import A_PRE, B_PRE, fm_cocone_lie
from .graded import (
    Contraction, GradedMap, GradedSpace, MalformedInput, MultilinearMap, RejectedInput,
    Report, SYMMETRIC, TENSOR, UnsupportedOperation, check_map_identity,
    coordinate_projections, elementary_to_graded_map, first_witness, format_vector,
    graded_map_to_elementary, hom_differential, hom_space, lin_acc, lin_scale, lin_single,
    linear_part, map_kernel_basis, merge_words, pair_space, prefix_vector, prefixed, sign_pow,
)
from .mc import ArtinElement, ArtinMap, dgla_mc_residual, mc_check


# ---------------------------------------------------------------------------
# exterior models (all generators of total degree one)


class ExteriorModel:
    """Exterior algebra on bigraded odd generators, with wedge and derivations."""

    def __init__(self, gens):
        self.gens = [(name, tuple(bid)) for name, bid in gens]
        if any(p + q != 1 for _, (p, q) in self.gens):
            raise MalformedInput("exterior generators must have total degree 1")
        self.gen_index = {name: i for i, (name, _) in enumerate(self.gens)}
        # monomials are sorted tuples of generator positions, all of them odd
        self._gen_order = {i: i for i in range(len(self.gens))}
        self._gen_odd = dict.fromkeys(range(len(self.gens)), 1)
        basis = []
        self._subset_name = {}
        for r in range(len(self.gens) + 1):
            for combo in itertools.combinations(range(len(self.gens)), r):
                name = self.monomial_name(combo)
                p = sum(self.gens[i][1][0] for i in combo)
                q = sum(self.gens[i][1][1] for i in combo)
                basis.append((name, p + q, (p, q)))
                self._subset_name[combo] = name
        self.space = GradedSpace(basis)
        self._by_name = {self._subset_name[c]: c for c in self._subset_name}

    def monomial_name(self, combo) -> str:
        if not combo:
            return "one"
        return "^".join(self.gens[i][0] for i in combo)

    def wedge_monomials(self, c1, c2):
        """(combo, sign) for the product of two monomials (odd letters), or None."""
        return merge_words(c1, c2, self._gen_order, self._gen_odd)

    def wedge(self, u: dict, v: dict) -> dict:
        out: dict = {}
        for n1, c1 in u.items():
            s1 = self._by_name[n1]
            for n2, c2 in v.items():
                res = self.wedge_monomials(s1, self._by_name[n2])
                if res is None:
                    continue
                combo, sign = res
                lin_acc(out, lin_single(self._subset_name[combo]), c1 * c2 * sign)
        return out

    def derivation(self, images: dict, degree: int) -> GradedMap:
        """The derivation with the given values on generators (odd-rule signs
        governed by the parity of `degree`)."""
        gm = GradedMap(self.space, self.space, degree)
        odd = degree % 2
        for name in self.space.names:
            combo = self._by_name[name]
            acc: dict = {}
            for t, gi in enumerate(combo):
                gname = self.gens[gi][0]
                img = images.get(gname)
                if not img:
                    continue
                sign = -1 if (odd and t % 2) else 1
                prefix = {self._subset_name[combo[:t]]: Fraction(1)}
                rest = {self._subset_name[combo[t + 1:]]: Fraction(1)}
                term = self.wedge(prefix, self.wedge(img, rest))
                lin_acc(acc, term, sign)
            if acc:
                gm.set(name, acc)
        return gm


# ---------------------------------------------------------------------------
# domain types


class HodgePackage:
    """Bigraded complex with del/delbar, harmonic subspace and propagator."""

    def __init__(self, A: GradedSpace, dell: GradedMap, delbar: GradedMap,
                 H: GradedSpace, iota: GradedMap, pi: GradedMap,
                 h: GradedMap, n: int):
        self.A = A
        self.dell = dell
        self.delbar = delbar
        self.H = H
        self.iota = iota
        self.pi = pi
        self.h = h
        self.n = int(n)
        if any(A.bidegree[x] is None for x in A.names):
            raise MalformedInput("package space must be bigraded")

    @property
    def d(self) -> GradedMap:
        return self.dell.add(self.delbar)

    def harmonic_names(self, p=None, q=None):
        out = []
        for x in self.H.names:
            bp, bq = self.H.bidegree[x]
            if (p is None or bp == p) and (q is None or bq == q):
                out.append(x)
        return out

    def a_names(self, pred):
        return [x for x in self.A.names if pred(*self.A.bidegree[x])]


def check_hodge_package(pkg: HodgePackage) -> Report:
    """All the propagator identities, with witness basis elements on failure."""
    r = Report("hodge package")
    A, H = pkg.A, pkg.H
    zero_AA2 = GradedMap.zero(A, A, 2)
    dell, delbar, h, iota, pi = pkg.dell, pkg.delbar, pkg.h, pkg.iota, pkg.pi
    for label, lhs, rhs in (
            ("del^2=0", dell.compose(dell), zero_AA2),
            ("delbar^2=0", delbar.compose(delbar), zero_AA2),
            ("del.delbar+delbar.del=0",
             dell.compose(delbar).add(delbar.compose(dell)), zero_AA2),
            ("[delbar,h]=iota.pi-id", delbar.compose(h).add(h.compose(delbar)),
             iota.compose(pi).add(GradedMap.identity(A), -1)),
            ("h.iota=0", h.compose(iota), GradedMap.zero(H, A, -1)),
            ("pi.h=0", pi.compose(h), GradedMap.zero(A, H, -1)),
            ("h^2=0", h.compose(h), GradedMap.zero(A, A, -2)),
            ("[del,h]=0", dell.compose(h).add(h.compose(dell)), GradedMap.zero(A, A, 0)),
            ("del.iota=0", dell.compose(iota), GradedMap.zero(H, A, 1)),
            ("pi.del=0", pi.compose(dell), GradedMap.zero(A, H, 1)),
            ("delbar.iota=0", delbar.compose(iota), GradedMap.zero(H, A, 1)),
            ("pi.delbar=0", pi.compose(delbar), GradedMap.zero(A, H, 1)),
            ("pi.iota=id", pi.compose(iota), GradedMap.identity(H))):
        check_map_identity(r, label, lhs, rhs)
    return r


class CartanHomotopy:
    """Degree -1 linear map i: L -> End(V) with the formal Cartan identities.

    The boundary l_x = [d_V, i_x] + i_{d_L x} is derived once, on
    construction, into the table l = {x: l_x}, which every reader shares.
    """

    def __init__(self, L: DgLieAlgebra, V: GradedSpace, d_V: GradedMap, i: dict):
        self.L = L
        self.V = V
        self.d_V = d_V
        self.i = dict(i)
        if (d_V.source, d_V.target) != (V, V):
            raise MalformedInput("d_V must be a map on V")
        for x in self.i:
            if x not in L.space.degree:
                raise MalformedInput("i_%s: %r is not a basis element of L" % (x, x))
        for x in L.space.names:
            gm = self.i.setdefault(x, GradedMap.zero(V, V, L.space.degree[x] - 1))
            if (gm.source, gm.target) != (V, V):
                raise MalformedInput("i_%s must be a map on V" % x)
            if gm.degree != L.space.degree[x] - 1:
                raise MalformedInput("i_%s must have degree |%s| - 1" % (x, x))
        self.l = {x: _combination(V, [(d_V.commutator(self.i[x]), 1)] +
                                  [(self.i[y], c) for y, c in L.d.value(x).items()])
                  for x in L.space.names}

    def i_vec(self, vec: dict) -> GradedMap:
        return _combination(self.V, [(self.i[x], c) for x, c in vec.items()])

    def l_vec(self, vec: dict) -> GradedMap:
        return _combination(self.V, [(self.l[x], c) for x, c in vec.items()])


def _combination(V: GradedSpace, terms) -> GradedMap:
    """sum c gm over the (gm, c) pairs of maps on V, summed in place row by
    row (lin_acc) into one GradedMap of the maps' common degree (0 for no
    terms; MalformedInput if the degrees differ).  Sums of checked maps are
    exact, zero-free and of the right degree, so the rows are stored
    unchecked."""
    degrees = {gm.degree for gm, _ in terms}
    if len(degrees) > 1:
        raise MalformedInput("sum shape mismatch")
    rows: dict = {}
    for gm, c in terms:
        for s, img in gm.entries.items():
            lin_acc(rows.setdefault(s, {}), img, c)
    out = GradedMap(V, V, degrees.pop() if degrees else 0)
    out.entries = {s: row for s, row in rows.items() if row}
    return out


def check_cartan(c: CartanHomotopy) -> Report:
    """[i_x, i_y] = 0, [i_x, l_y] = i_{[x,y]}, plus the derived facts that l
    is a morphism of graded Lie algebras compatible with differentials."""
    r = Report("cartan homotopy")
    names = c.L.space.names
    pairs = list(itertools.product(names, repeat=2))

    def same(lhs, rhs):
        return lhs == rhs or (lhs.is_zero() and rhs.is_zero())

    for label, words, holds in (
            ("[i,i]=0", pairs, lambda w: c.i[w[0]].commutator(c.i[w[1]]).is_zero()),
            ("[i,l]=i[.,.]", pairs, lambda w: same(c.i[w[0]].commutator(c.l[w[1]]),
                                                   c.i_vec(c.L.bracket.value(w)))),
            ("l[.,.]=[l,l]", pairs, lambda w: same(c.l[w[0]].commutator(c.l[w[1]]),
                                                   c.l_vec(c.L.bracket.value(w)))),
            ("l.d=[d,l]", names, lambda x: same(c.d_V.commutator(c.l[x]),
                                                c.l_vec(c.L.d.value(x))))):
        wit = first_witness(words, holds)
        r.add(label, wit is None, witness=wit)
    return r


class FormalPeriodData:
    """Cartan homotopy plus a preserved subcomplex W and a chosen complement."""

    def __init__(self, cartan: CartanHomotopy, w_names):
        self.cartan = cartan
        V = cartan.V
        wset = set(w_names)
        if not wset <= set(V.names):
            raise MalformedInput("W must be spanned by basis names")
        self.w_names = tuple(n for n in V.names if n in wset)
        self.a_names = tuple(n for n in V.names if n not in wset)
        self.P, self.Pperp = coordinate_projections(V, self.a_names)

    def check(self) -> Report:
        r = Report("formal period data")
        wset = set(self.w_names)
        c = self.cartan
        wit = first_witness(self.w_names,
                            lambda n: all(t in wset for t in c.d_V.value(n)))
        r.add("d(W)<=W", wit is None, witness=wit)
        wit = first_witness(itertools.product(c.L.space.names, self.w_names),
                            lambda w: all(t in wset for t in c.l[w[0]].value(w[1])))
        r.add("l(W)<=W", wit is None, witness=wit)
        return r


# ---------------------------------------------------------------------------
# built-in flat example: the torus-like exterior package


def torus_package(n: int, p: int = None):
    """Flat package on the exterior algebra of n holomorphic and n
    antiholomorphic generators: everything harmonic, zero differentials,
    contraction Cartan homotopy on the abelian constant fields.

    Returns (HodgePackage, CartanHomotopy, FormalPeriodData with W = A^{>=p},
    default p = n)."""
    if not 1 <= n <= 5:
        raise MalformedInput("torus model supports 1 <= n <= 5")
    p = n if p is None else p
    gens = [("dz%d" % i, (1, 0)) for i in range(1, n + 1)] + \
           [("dzb%d" % i, (0, 1)) for i in range(1, n + 1)]
    model = ExteriorModel(gens)
    A = model.space
    zero = GradedMap.zero(A, A, 1)
    H = GradedSpace(A.data())
    iota = GradedMap(H, A, 0, {x: lin_single(x) for x in A.names})
    pi = GradedMap(A, H, 0, {x: lin_single(x) for x in A.names})
    pkg = HodgePackage(A, zero, GradedMap.zero(A, A, 1), H, iota, pi,
                       GradedMap.zero(A, A, -1), n)

    anti = list(range(1, n + 1))
    lbasis = []
    images = {}
    for j in range(1, n + 1):
        for r in range(0, n + 1):
            for T in itertools.combinations(anti, r):
                name = "t%d" % j + ("b" + "".join(str(t) for t in T) if T else "")
                lbasis.append((name, r))
                mono = model._subset_name[tuple(model.gen_index["dzb%d" % t]
                                                for t in T)]
                images[name] = ("dz%d" % j, lin_single(mono))
    Lsp = GradedSpace(lbasis)
    L = DgLieAlgebra(Lsp, GradedMap(Lsp, Lsp, 1),
                     MultilinearMap(Lsp, Lsp, 0, 2, TENSOR))
    i = {}
    for name, r in lbasis:
        gen, img = images[name]
        i[name] = model.derivation({gen: img}, r - 1)
    cartan = CartanHomotopy(L, A, pkg.d, i)
    w_names = [x for x in A.names if A.bidegree[x][0] >= p]
    return pkg, cartan, FormalPeriodData(cartan, w_names)


# ---------------------------------------------------------------------------
# synthetic non-flat packages


def synthetic_package(seed: int):
    """Seeded non-flat package family with a Cartan homotopy (n = 2).

    Core: harmonic omega(2,0), v(1,1), eta(0,2), u0(0,1); delbar-pairs (c,cb)
    at (1,0) and (e,f) at (2,0) joined by the del-ladder del c = s e,
    del cb = -s f.
    The contraction table i_x (omega -> a v + g cb, v -> m a eta, e -> k cb)
    satisfies the Cartan identities for every parameter choice; all structure
    constants are seeded rationals.  Returns (package, cartan, period data
    with W = A^{>=2}).
    """
    rng = random.Random("hodge:%d" % seed)

    def coeff():
        return Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 1, 2]))

    basis = [("omega", 2, (2, 0)), ("v", 2, (1, 1)), ("eta", 2, (0, 2)),
             ("c", 1, (1, 0)), ("cb", 2, (1, 1)),
             ("e", 2, (2, 0)), ("f", 3, (2, 1)), ("u0", 1, (0, 1))]
    A = GradedSpace(basis)
    sig = coeff()
    dell = GradedMap(A, A, 1, bidegree=(1, 0))
    dell.set("c", lin_scale(lin_single("e"), sig))
    dell.set("cb", lin_scale(lin_single("f"), -sig))
    delbar = GradedMap(A, A, 1, bidegree=(0, 1))
    delbar.set("c", lin_single("cb"))
    delbar.set("e", lin_single("f"))
    h = GradedMap(A, A, -1, bidegree=(0, -1))
    h.set("cb", {"c": Fraction(-1)})
    h.set("f", {"e": Fraction(-1)})
    harm = [n for n, _, _ in basis if n not in ("c", "cb", "e", "f")]
    H = A.subspace(harm)
    iota = GradedMap(H, A, 0, {x: lin_single(x) for x in harm})
    pi = GradedMap(A, H, 0, {x: lin_single(x) for x in harm})
    pkg = HodgePackage(A, dell, delbar, H, iota, pi, h, 2)

    alphas = [coeff(), coeff()]
    mu = coeff()
    Lsp = GradedSpace([("x1", 1), ("x2", 1)])
    L = DgLieAlgebra(Lsp, GradedMap(Lsp, Lsp, 1),
                     MultilinearMap(Lsp, Lsp, 0, 2, TENSOR))
    i = {}
    for t, a in enumerate(alphas):
        g, k = coeff(), coeff()
        gm = GradedMap(A, A, 0)
        gm.set("omega", {"v": a, "cb": g})
        gm.set("v", {"eta": mu * a})
        gm.set("e", {"cb": k})
        i["x%d" % (t + 1)] = gm
    cartan = CartanHomotopy(L, A, pkg.d, i)
    w_names = [x for x in A.names if A.bidegree[x][0] >= 2]
    return pkg, cartan, FormalPeriodData(cartan, w_names)


# ---------------------------------------------------------------------------
# operator series over Artin coefficients (perturbation theory)


def _artin_op(V: GradedSpace, maps: dict, xi: ArtinElement) -> ArtinMap:
    """The B-linear operator sum c t^m maps[x] over the terms c t^m x of xi,
    one in-place combination of the maps per monomial."""
    return ArtinMap(xi.ring, V, V, {
        mono: _combination(V, [(maps[x], c) for x, c in vec.items()])
        for mono, vec in xi.by_mono().items()})


def cartan_artin_maps(c: CartanHomotopy, xi: ArtinElement):
    """(i_xi, l_xi) as B-linear operators on V (x) B."""
    return _artin_op(c.V, c.i, xi), _artin_op(c.V, c.l, xi)


def require_integrable(c: CartanHomotopy, xi: ArtinElement):
    if not xi.is_homogeneous(1):
        raise MalformedInput("sections live in degree 1 of the controlling algebra")
    res = dgla_mc_residual(c.L, xi)
    if not res.is_zero():
        raise RejectedInput("section is not integrable: %s" % "; ".join(res.lines()))


def integrability_identity(c: CartanHomotopy, xi: ArtinElement) -> Report:
    """e^{-i_xi} d e^{i_xi} = d + l_xi and (d + l_xi)^2 = 0 on V (x) B."""
    require_integrable(c, xi)
    r = Report("integrability")
    i_op, l_op = cartan_artin_maps(c, xi)
    d = ArtinMap.from_graded(xi.ring, c.d_V)
    lhs = i_op.scaled(-1).exp().compose(d).compose(i_op.exp())
    rhs = d.plus(l_op)
    r.add("e^{-i}de^{i}=d+l", lhs == rhs)
    sq = rhs.compose(rhs)
    r.add("(d+l)^2=0", sq.is_zero())
    return r


def _perturbed(pkg: HodgePackage, l_in: ArtinMap, l_out: ArtinMap):
    """(iota_in, pi_out, h l_in, sum (l_out h)^n, h, iota) over the ring of
    the operators: the perturbed inclusion iota_in = sum (h l_in)^n iota and
    projection pi_out = pi sum (l_out h)^n, with one geometric series each."""
    ring = l_in.ring
    h, iota, pi = (ArtinMap.from_graded(ring, gm) for gm in (pkg.h, pkg.iota, pkg.pi))
    hl = h.compose(l_in)
    lh_series = l_out.compose(h).geometric_series()
    return hl.geometric_series().compose(iota), pi.compose(lh_series), hl, lh_series, h, iota


def perturbation_maps(pkg: HodgePackage, c: CartanHomotopy, xi: ArtinElement):
    """Perturbed inclusion/projection/propagator and the vanishing twist.

    iota_xi = sum (h l)^n iota, pi_xi = sum pi (l h)^n, h_xi = sum h (l h)^n,
    delta_xi = sum pi (l h)^n l iota.  Returns (iota_xi, pi_xi, h_xi,
    delta_xi, report) with every perturbation identity verified exactly.
    """
    require_integrable(c, xi)
    if c.V != pkg.A:
        raise MalformedInput("package and homotopy must share the space")
    ring = xi.ring
    l_op = _artin_op(c.V, c.l, xi)
    iota_xi, pi_xi, hl, lh_series, h, iota = _perturbed(pkg, l_op, l_op)
    h_xi = h.compose(lh_series)
    delta_xi = pi_xi.compose(l_op).compose(iota)
    r = Report("perturbation maps")
    r.add("delta_xi=0", delta_xi.is_zero())
    r.add("pi_xi.iota_xi=id",
          pi_xi.compose(iota_xi) == ArtinMap.identity(ring, pkg.H))
    dbar_l = ArtinMap.from_graded(ring, pkg.delbar).plus(l_op)
    r.add("(delbar+l).iota_xi=0", dbar_l.compose(iota_xi).is_zero())
    homot = dbar_l.compose(h_xi).plus(h_xi.compose(dbar_l))
    want = iota_xi.compose(pi_xi).plus(ArtinMap.identity(ring, pkg.A), -1)
    r.add("homotopy identity", homot == want)
    # chain isomorphism (Id - h l) on ker del: unipotent, so bijective; check
    # the chain-map property dbar corr = corr (dbar + l) on a kernel basis
    corr = ArtinMap.identity(ring, pkg.A).plus(hl, -1)
    diff = ArtinMap.from_graded(ring, pkg.delbar).compose(corr).plus(
        corr.compose(dbar_l), -1)
    r.add("(id-hl) chain iso on ker del",
          not any(gm.apply(v) for v in map_kernel_basis(pkg.dell)
                  for gm in diff.coeffs.values()))
    return iota_xi, pi_xi, h_xi, delta_xi, r


def psi_obstruction(pkg: HodgePackage, c: CartanHomotopy, xi: ArtinElement,
                    eta: ArtinElement):
    """The obstruction map psi = pi_eta (i_{xi-eta})^n iota_xi on harmonics.

    Returns the operator H (x) B -> H (x) B (supported on the (n,0)-block)
    computed as the composed series; the finite double sum is the same thing
    expanded and is exercised by the test suite.
    """
    require_integrable(c, xi)
    require_integrable(c, eta)
    iota_xi, pi_eta, *_ = _perturbed(pkg, _artin_op(c.V, c.l, xi), _artin_op(c.V, c.l, eta))
    i_diff = _artin_op(c.V, c.i, xi.plus(eta.scaled(-1)))
    power = ArtinMap.identity(xi.ring, pkg.A)
    for _ in range(pkg.n):
        power = i_diff.compose(power)
    return _restrict_to_top_block(pkg, pi_eta.compose(power).compose(iota_xi))


def _restrict_to_top_block(pkg: HodgePackage, op: ArtinMap) -> ArtinMap:
    """The operator H (x) B -> H (x) B restricted to the (n, 0) harmonic block."""
    keep = set(pkg.harmonic_names(p=pkg.n, q=0))
    return ArtinMap(op.ring, pkg.H, pkg.H, {
        mono: GradedMap(pkg.H, pkg.H, gm.degree,
                        {nm: vec for nm, vec in gm.entries.items() if nm in keep})
        for mono, gm in op.coeffs.items()})


# ---------------------------------------------------------------------------
# hom-complex structures (derived products on End(V) = End(V;W) + Hom(W,A))


def _restrict_to_hom(rows: dict, w_names, a_names) -> dict:
    """The Hom(W, A) entries t<-s of a map given by its rows {s: image}, as
    an elementary combination: each name is built once, and nothing summed."""
    return {"%s<-%s" % (t, s): c for s, img in rows.items() if s in w_names
            for t, c in img.items() if t in a_names}


def _by_row(table: dict, left=None) -> dict:
    """{y: [(B, vector)]} for a chain table {B: {y: vector}}: each nonzero
    vector, or its image under the GradedMap left, indexed by its row y, as
    coalg.preimages indexes a map, so a push reads only the heads it reaches."""
    rows: dict = {}
    for B, vecs in table.items():
        for y, vec in vecs.items():
            img = vec if left is None else left.apply(vec)
            if img:
                rows.setdefault(y, []).append((B, img))
    return rows


def _merge(space: GradedSpace):
    """The join of two sorted words of S(space): graded.merge_words."""
    index, degree = space.index, space.degree
    return lambda B, S: merge_words(B, S, index, degree)


def _prepend(space: GradedSpace):
    """The join of a sorted word grown right to left: (a,) + B, of weight 1,
    for a letter a at or before B's first letter, an odd letter not twice."""
    index, degree = space.index, space.degree
    return lambda a, B: (a + B, 1) if not B or index[a[0]] < index[B[0]] or \
        a[0] == B[0] and not degree[a[0]] % 2 else None


def _push(tails: dict, heads: dict, join, coeff=1, acc=None) -> dict:
    """The one walk of the period maps.  A chain is a table {S: {s: vector}},
    one vector per source name s.  Each coefficient c at a name y of
    tails[S][s] is pushed to the heads (B, v) in heads[y] (_by_row) only,
    adding coeff w c . v to acc[T][s] in place, where (T, w) = join(B, S),
    joined once per cut, and None means no term.  For join = _merge(space),
    w(B, T) is the Koszul sign of the merge times the number of ways to pick
    B out of T: if heads sum the signed orderings of B and tails those of S,
    acc[T] sums those of T, grouped by the content of the first |B| letters."""
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


def _walk(rows, ops: dict, join, depth: int) -> list:
    """levels[0..depth] of the chains X(B) e_y pushed from the basis vectors
    e_y, y in rows, through the row index ops of the letter operators:
    levels[j] = {B: {y: X(B) e_y}} over the words B of length j that join
    grows, zero chains cut."""
    levels = [{(): {y: {y: 1} for y in rows}}]
    for _ in range(depth):
        levels.append(_push(levels[-1], ops, join))
    return levels


def _reach(index: list, tails: dict, ops: dict, join, depth: int, left) -> None:
    """Extend the head indexes index[j] = {y: [(B, left X(B) e_y)]}, j <= depth,
    to the rows y that tails writes and no earlier call walked (index[0])."""
    new = dict.fromkeys(y for vecs in tails.values() for vec in vecs.values() for y in vec
                        if y not in index[0])
    index[0].update(new)
    for j, level in enumerate(_walk(new, ops, join, depth)[1:], 1):
        for y, heads in _by_row(level, left).items():
            index[j].setdefault(y, []).extend(heads)


def _hom_map(source: GradedSpace, target: GradedSpace, k: int, chains: dict, w_names,
             a_names, coeff=1) -> MultilinearMap:
    """The symmetric arity-k map source -> target with coeff times the
    Hom(W, A) entries of the chain chains[word] on each (sorted) word."""
    wset, aset = set(w_names), set(a_names)
    return MultilinearMap(source, target, 0, k, SYMMETRIC).store(
        {T: _restrict_to_hom(rows, wset, aset) for T, rows in chains.items()}, coeff)


def _propagator_words(source: OoStructure, target: GradedSpace, max_weight: int, heads,
                      left: GradedMap, head_ops: dict, tail_ops: dict, right: GradedMap,
                      w_names, a_names) -> dict:
    """The Taylor family source -> target whose arity-k map holds the Hom(W, A)
    entries of the sums over the (j, 1, .., 1)-unshuffles of each word T, j in
    heads, of the signed chains left o head_ops[head] .. tail_ops[tail] .. right.
    The head is a sorted sub-word B and the tail any ordering of the rest:

        sum_{|B| in heads} w(B, T) . H(B) Tail(T - B)     (_push),
        H(B) = left o head_ops[B[0]] o .. o head_ops[B[-1]],
        Tail(S) = sum_{distinct b in S} w(b, S) . tail_ops[b] Tail(S - b),
        Tail(()) = right on the sources in W.

    head_ops and tail_ops are the row indexes (_by_row) of the letter
    operators.  Every chain is pushed from W's basis vectors: Tail starts at
    right e_s, s in W, and is memoized by length for this call only; H(B) e_y
    is walked right to left from each row y the tails write (_reach), a
    sorted word growing by one letter at or before its first letter.
    """
    space = source.space
    merge, prepend, first = _merge(space), _prepend(space), min(heads)
    tails = [{(): {s: v for s in w_names if (v := right.value(s))}}]
    index = [{} for _ in range(max_weight + 1)]
    taylor = {}
    for k in range(1, max_weight + 1):
        if k <= max_weight - first:
            tails.append(_push(tails[k - 1], tail_ops, merge))
        if k >= first:
            _reach(index, tails[k - first], head_ops, prepend,
                   min(max(heads), max_weight - k + first), left)
        total: dict = {}
        for j in heads:
            if j <= k:
                _push(tails[k - j], index[j], merge, 1, total)
        taylor[k] = _hom_map(space, target, k, total, w_names, a_names)
    return taylor


def derived_hom_structure(V: GradedSpace, d: GradedMap, w_names, a_names,
                          max_weight: int = 6) -> OoStructure:
    """A-infinity[1] structure on Hom*(W, A) for the splitting
    End(V) = End(V; W) (+) Hom(W, A): q1 = the projected commutator P[d, -],
    which is graded.hom_differential(d, A, W), and q2 the derived product
    P([d, f1] f2), zero above arity two.

    q2 is pushed from the nonzero entries d(u)[y] of d.  For the elementary
    map E = t<-s (s in W, t in A) of degree e = |t| - |s|,

        q2(t<-s, t2<-s2) = -(-1)^e d(t2)[s] . t<-s2,

    so only the A -> W entries of d reach q2: the d o E part of [d, E](t2)
    vanishes, because t2 is in A and E reads s in W only.  Each arity is one
    table and one store."""
    hom = hom_space(a_names, w_names, V)
    wset, aset = set(w_names), set(a_names)
    deg = V.degree
    q1 = {(n,): vec for n, vec in hom_differential(d, a_names, w_names).items()}
    q2: dict = {}
    for u, img in d.entries.items():
        for y, c in img.items():
            if u in aset and y in wset:    # [d, t<-y] o (u<-s2)
                for t in a_names:
                    coeff = -sign_pow(deg[t] - deg[y]) * c
                    for s2 in w_names:
                        q2[("%s<-%s" % (t, y), "%s<-%s" % (u, s2))] = {"%s<-%s" % (t, s2): coeff}
    return OoStructure(hom, TENSOR, {1: MultilinearMap(hom, hom, 1, 1, TENSOR).store(q1),
                                     2: MultilinearMap(hom, hom, 1, 2, TENSOR).store(q2)},
                       max_weight)


# ---------------------------------------------------------------------------
# split formal period map


def split_period_map(fpd: FormalPeriodData, max_weight: int = 4):
    """Taylor coefficients pi_k = sum over permutations and ordered partitions
    of the signed nested projection words P i..i P ... P i..i P-perp.

    The partition of k into j blocks carries (-1)^{k+j} / prod(size!), so
    the sum over the partitions of one ordering s is (-1)^k R(s), with
    R(()) = P-perp and R(s) = sum_m (-1/m!) P i_{s[0]} .. i_{s[m-1]} R(s[m:]).
    Over the signed orderings of a sorted word T, with the first block
    grouped by its content B (_push and its weight w), pi_k(T) is
    (-1)^k SymR(T) on Hom(W, A), where

        SymR(T) = sum_{nonempty B} -(1/|B|!) w(B, T) . P I(B) SymR(T - B),
        I(B) = sum_{distinct b in B} w(b, B) . i_b I(B - b),
        SymR(()) = P-perp, I(()) = id,

    memoized by length where nonzero, for this call only, shortest first.
    SymR is pushed from W's basis vectors, on which P-perp is e_s, and each
    block P I(B) only on the rows the chains reach (_reach).  The chains
    hold |T|! SymR(T), so their weights are the ints -C(|T|, |B|), and
    (-1)^k / k! is applied once, when pi_k is stored.

    Returns (morphism L[1] -> Hom*(W, A), target structure): the target is the
    symmetrized derived-product structure of the splitting
    End(V) = End(V; W) (+) Hom(W, A).
    """
    c = fpd.cartan
    rep = fpd.check()
    if not rep.ok:
        raise RejectedInput("period data invalid: %s" % rep.first_failure())
    target = symmetrize_structure(
        derived_hom_structure(c.V, c.d_V, fpd.w_names, fpd.a_names, max_weight))
    source = decalage_dgla(c.L, max_weight)
    space = source.space
    merge, letters = _merge(space), _by_row({(x,): c.i[x].entries for x in space.names})
    blocks = [{} for _ in range(max_weight + 1)]
    chains = [{(): {s: {s: 1} for s in fpd.w_names}}]
    taylor = {}
    for k in range(1, max_weight + 1):
        _reach(blocks, chains[k - 1], letters, merge, max_weight - k + 1, fpd.P)
        chains.append({})
        for j in range(1, k + 1):
            _push(chains[k - j], blocks[j], merge, -comb(k, j), chains[k])
        taylor[k] = _hom_map(space, target.space, k, chains[k], fpd.w_names, fpd.a_names,
                             Fraction(sign_pow(k), factorial(k)))
    return OoMorphism(source, target, taylor), target


def split_period_coefficient_closed(k: int, j: int) -> Fraction:
    return Fraction(sum((-1) ** h * comb(k, h) for h in range(j + 1)))


# ---------------------------------------------------------------------------
# harmonic transfer (Prop-7.5-style contraction on hom complexes)


def hom_transfer_contraction(pkg: HodgePackage, p: int, max_weight: int = 4):
    """The contraction of Hom*(A^{>=p}, A^{<p}) onto Hom*(H^{>=p}, H^{<p}):
    i(f) = iota f pi, g1(f) = pi f iota, K(f) = h f + (-1)^{|f|} iota pi f h.

    Returns (big A-infinity structure, Contraction)."""
    w_names = pkg.a_names(lambda bp, bq: bp >= p)
    a_names = pkg.a_names(lambda bp, bq: bp < p)
    big = derived_hom_structure(pkg.A, pkg.d, w_names, a_names, max_weight)
    hw_top, hw_low, small = _harmonic_hom(pkg, p)
    wset, aset, top, low = set(w_names), set(a_names), set(hw_top), set(hw_low)
    bigsp = big.space
    inject = GradedMap(small, bigsp, 0)
    for name in small.names:
        gm = elementary_to_graded_map(lin_single(name), small, pkg.H, pkg.H,
                                      small.degree[name])
        gm = pkg.iota.compose(gm).compose(pkg.pi)
        vec = _restrict_to_hom(gm.entries, wset, aset)
        if vec:
            inject.set(name, vec)
    project = GradedMap(bigsp, small, 0)
    K = GradedMap(bigsp, bigsp, -1)
    for name in bigsp.names:
        gm = elementary_to_graded_map(lin_single(name), bigsp, pkg.A, pkg.A,
                                      bigsp.degree[name])
        pv = pkg.pi.compose(gm).compose(pkg.iota)
        vec = _restrict_to_hom(pv.entries, top, low)
        if vec:
            project.set(name, vec)
        sgn = -1 if bigsp.degree[name] % 2 else 1
        kv = pkg.h.compose(gm).add(
            pkg.iota.compose(pkg.pi).compose(gm).compose(pkg.h), sgn)
        vec = _restrict_to_hom(kv.entries, wset, aset)
        if vec:
            K.set(name, vec)
    d_big = linear_part(big.taylor.get(1), bigsp, bigsp, 1)
    contraction = Contraction(small, GradedMap(small, small, 1), bigsp, d_big,
                              inject, project, K)
    return big, contraction


def _harmonic_hom(pkg: HodgePackage, p: int):
    """(H^{>=p} names, H^{<p} names, Hom*(H^{>=p}, H^{<p}))."""
    hw = pkg.harmonic_names()
    top = [x for x in hw if pkg.H.bidegree[x][0] >= p]
    low = [x for x in hw if pkg.H.bidegree[x][0] < p]
    return top, low, hom_space(low, top, pkg.H)


def harmonic_quasi_inverse(pkg: HodgePackage, p: int, source: OoStructure,
                           max_weight: int = 4) -> OoMorphism:
    """Closed-form symmetric quasi-inverse onto harmonic hom classes:
    g_k(f_1 . ... . f_k) = sum_sigma eps(sigma) pi f h(del) f ... h(del) f iota,
    by sub-word recursion: _propagator_words with heads (1,), the letter f
    read as its elementary map, and h del f pushed from its one row."""
    hw_top, hw_low, small = _harmonic_hom(pkg, p)
    target = OoStructure(small, SYMMETRIC, {}, max_weight)
    bigsp = source.space
    hdel = pkg.h.compose(pkg.dell)
    realized = {(name,): elementary_to_graded_map(lin_single(name), bigsp, pkg.A, pkg.A,
                                                  bigsp.degree[name]).entries
                for name in bigsp.names}
    return OoMorphism(source, target, _propagator_words(
        source, small, max_weight, (1,), pkg.pi, _by_row(realized),
        _by_row(realized, hdel), pkg.iota, hw_top, hw_low))


# ---------------------------------------------------------------------------
# minimal period map (harmonic target, trivial structure)


def _contraction_words(pkg: HodgePackage, c: CartanHomotopy, source: OoStructure,
                       target: GradedSpace, max_weight: int, heads, w_names,
                       a_names) -> dict:
    """_propagator_words for the chains pi i_head (h l)_tail iota, with h l_x
    pushed row by row from the nonzeros of l_x."""
    return _propagator_words(source, target, max_weight, heads, pkg.pi,
                             _by_row({(x,): c.i[x].entries for x in source.space.names}),
                             _by_row({(x,): c.l[x].entries for x in source.space.names}, pkg.h),
                             pkg.iota, w_names, a_names)


def minimal_period_map(pkg: HodgePackage, c: CartanHomotopy,
                       max_weight: int = 3) -> OoMorphism:
    """p_k = sum_{j=1}^{k} sum over S(j,1,..,1) unshuffles of the signed words
    pi i..i (h l) .. (h l) iota, into Hom*(H^{n,*}, H^{<n,*}) with the trivial
    structure, by sub-word recursion: _propagator_words with heads 1..k."""
    hw_top, hw_low, small = _harmonic_hom(pkg, pkg.n)
    target = OoStructure(small, SYMMETRIC, {}, max_weight)
    source = decalage_dgla(c.L, max_weight)
    return OoMorphism(source, target, _contraction_words(
        pkg, c, source, small, max_weight, range(1, max_weight + 1), hw_top, hw_low))


# ---------------------------------------------------------------------------
# Yukawa models


def _fiber_model(base: OoStructure, space: GradedSpace, max_weight: int, chains: dict,
                 mixed: dict) -> OoStructure:
    """A Yukawa model on space = L[1] x fiber: q_k is base q_k on the a:
    block, plus the fiber vectors chains[k][word] on the a: words, plus the
    (key, fiber vector) pairs of mixed[k], for every arity k <= max_weight."""
    taylor = {}
    for k in range(1, max_weight + 1):
        # a chain's a: word may also carry base q_k, so the two are summed
        table = prefixed(base.taylor[k].entries if k in base.taylor else {}, A_PRE)
        terms = [(tuple(A_PRE + x for x in word), vec)
                 for word, vec in chains.get(k, {}).items()]
        for key, vec in terms + mixed.get(k, []):
            lin_acc(table.setdefault(key, {}), prefix_vector(vec, B_PRE))
        taylor[k] = MultilinearMap(space, space, 1, k, SYMMETRIC).store(table)
    return OoStructure(space, SYMMETRIC, taylor, max_weight)


def yukawa_model(pkg: HodgePackage, c: CartanHomotopy,
                 max_weight: int = 4) -> OoStructure:
    """Homotopy-fiber-product model on L[1] x Hom*(H^{n,*}, H^{0,*})[-1]:
    minimal fiber, brackets through the propagator words.  The fiber part of
    q_k sums the S(n,1,..,1) unshuffles of the signed words
    pi i..i (h l) .. (h l) iota with n contractions in front, by sub-word
    recursion: _propagator_words with heads (n,)."""
    n = pkg.n
    if n < 2:
        raise UnsupportedOperation("the fiber-product models need n >= 2")
    hw = pkg.harmonic_names()
    top = [x for x in hw if pkg.H.bidegree[x][0] == n]
    bottom = [x for x in hw if pkg.H.bidegree[x][0] == 0]
    hom = hom_space(bottom, top, pkg.H)
    base = decalage_dgla(c.L, max_weight)
    fibers = _contraction_words(pkg, c, base, hom, max_weight, (n,), top, bottom)
    return _fiber_model(base, pair_space(base.space, hom.shifted(-1)), max_weight,
                        {k: f.entries for k, f in fibers.items()}, {})


def yukawa_model_v2(pkg: HodgePackage, c: CartanHomotopy,
                    max_weight: int = 4) -> OoStructure:
    """Second model on L[1] x Hom*(A^{n,*}, A^{0,*})[-1]: no propagator in the
    brackets (fiber differential -P[delbar, -], graded.hom_differential; mixed
    bracket through l).  The fiber part of q_n is the chain i_{x_1} .. i_{x_n}
    on each sorted word, pushed right to left from the basis vectors of
    A^{n,*} (_walk), and the mixed q2 is pushed from the nonzeros of l_x."""
    n = pkg.n
    if n < 2:
        raise UnsupportedOperation("the fiber-product models need n >= 2")
    top = pkg.a_names(lambda bp, bq: bp == n)
    bottom = pkg.a_names(lambda bp, bq: bp == 0)
    hom = hom_space(bottom, top, pkg.A)
    base = decalage_dgla(c.L, max_weight)
    space = pair_space(base.space, hom.shifted(-1))
    tops = set(top)
    chains = _walk(top, _by_row({(x,): c.i[x].entries for x in base.space.names}),
                   _prepend(base.space), n)[n]
    mixed = {1: [((B_PRE + name,), lin_scale(vec, -1))
                 for name, vec in hom_differential(pkg.delbar, bottom, top).items()], 2: []}
    # q2(s f (x) s^{-1} x) = (-1)^{|f|} s(f l_x), |f| = |f's name| - 1: for
    # f = t<-y, f l_x sends u in A^{n,*} to l_x(u)[y] t.  It is stored on the
    # canonical word (a:x, b:f) with the block-swap Koszul sign.
    for x in c.L.space.names:
        for u, img in c.l[x].entries.items():
            for y, cv in img.items():
                if u in tops and y in tops:
                    for t in bottom:
                        name = "%s<-%s" % (t, y)
                        swap = space.degree[A_PRE + x] * space.degree[B_PRE + name]
                        mixed[2].append(((A_PRE + x, B_PRE + name), {
                            "%s<-%s" % (t, u): cv * sign_pow(hom.degree[name] - 1 + swap)}))
    return _fiber_model(base, space, max_weight, {n: {
        word: _restrict_to_hom(rows, tops, set(bottom)) for word, rows in chains.items()}},
        mixed)


def yukawa_mc_fiber_residual(model: OoStructure, xi: ArtinElement) -> ArtinElement:
    """Fiber component of the Maurer-Cartan residual of (xi, 0) in a Yukawa
    model (xi given over the controlling algebra L, unprefixed names)."""
    lifted = ArtinElement(xi.ring, model.space)
    for (nm, mono), cv in xi.terms.items():
        lifted.add(A_PRE + nm, mono, cv)
    res = mc_check(model, lifted)
    out = ArtinElement(xi.ring, model.space, allow_constant=True)
    for (nm, mono), cv in res.terms.items():
        if nm.startswith(B_PRE):
            out.add(nm, mono, cv)
    return out


# ---------------------------------------------------------------------------
# the strict period morphism into the Lie cocone (generic Cartan data)


def strict_period_morphism(fpd: FormalPeriodData, max_weight: int = 3):
    """x -> (l_x, s i_x) into the Lie mapping cocone of End(V;W) -> End(V).

    Returns (morphism, cocone structure); the morphism is strict and passing
    the morphism check is exactly the formal-Cartan-identity content.
    """
    c = fpd.cartan
    sub, amb, inc = end_preserving_sub_dgla(c.V, c.d_V, fpd.w_names)
    cocone = fm_cocone_lie(inc, max_weight)
    source = decalage_dgla(c.L, max_weight)
    f1 = MultilinearMap(source.space, cocone.space, 0, 1, SYMMETRIC)
    for x, lx in c.l.items():
        vec = prefix_vector(graded_map_to_elementary(lx, sub.space), A_PRE)
        lin_acc(vec, prefix_vector(graded_map_to_elementary(c.i[x], amb.space),
                                   B_PRE))
        if vec:
            f1.set_entry((x,), vec)
    return OoMorphism(source, cocone, {1: f1}), cocone


def contraction_table_lines(cartan: CartanHomotopy):
    """Deterministic rendering of the i-operator tables (golden-value format)."""
    out = []
    for x in cartan.L.space.names:
        gm = cartan.i[x]
        for n in cartan.V.names:
            vec = gm.value(n)
            if vec:
                out.append("i[%s] %s -> %s" % (x, n, format_vector(vec, cartan.V)))
    return out


__all__ = [
    "ExteriorModel", "HodgePackage", "check_hodge_package", "CartanHomotopy",
    "check_cartan", "FormalPeriodData", "torus_package", "synthetic_package",
    "cartan_artin_maps", "integrability_identity", "perturbation_maps",
    "psi_obstruction", "derived_hom_structure", "split_period_map",
    "split_period_coefficient_closed", "hom_transfer_contraction",
    "harmonic_quasi_inverse", "minimal_period_map", "yukawa_model",
    "yukawa_model_v2", "yukawa_mc_fiber_residual", "strict_period_morphism",
    "contraction_table_lines",
]
