"""Seeded, deterministic fixture builders used by the CLI, perfbench and tests.

Every builder takes an integer seed and returns data that provably satisfies
its axioms (validated at construction): random complexes, their
endomorphism DG algebras (coalg.end_dga, coalg.end_dgla) with d-stable
splittings and Cartan data on exterior models.  `harmonic_contraction`
contracts any complex onto harmonic representatives of its cohomology by
graded's sparse elimination.  Fixtures that only the tests read
live with the tests.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .coalg import (
    DgAlgebra, DgLieAlgebra, DgaMorphism, end_dga, end_dgla, end_preserving_sub,
    end_preserving_sub_dgla,
)
from .graded import (
    Contraction, GradedMap, GradedSpace, MalformedInput, MultilinearMap, RejectedInput,
    TENSOR, append_row, echelon, hom_space, lin_acc, lin_single, reduce_rows,
)
from .hodge import CartanHomotopy, ExteriorModel, FormalPeriodData, check_cartan


def _rand_coeff(rng, zero_bias=0.35):
    if rng.random() < zero_bias:
        return Fraction(0)
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))


def random_complex(seed: int, dim: int = 3):
    """Random complex (V, d) with degrees in -1..2: tower pattern keeps d^2 = 0 exactly.

    Basis elements are ordered; d of each element only hits *earlier* elements
    that are themselves closed, so d^2 = 0 by construction.
    """
    rng = random.Random("complex:%d" % seed)
    basis = [("v%d" % i, rng.randint(-1, 2)) for i in range(dim)]
    V = GradedSpace(basis)
    d = GradedMap(V, V, 1)
    closed = []
    for name in V.names:
        want = V.degree[name] + 1
        candidates = [c for c in closed if V.degree[c] == want]
        img = {}
        for c in candidates:
            co = _rand_coeff(rng)
            if co:
                img[c] = co
        if img and rng.random() < 0.7:
            d.set(name, img)
        else:
            closed.append(name)
    return V, d


def random_end_dga(seed: int, dim: int = 2) -> DgAlgebra:
    V, d = random_complex(seed, dim)
    return end_dga(V, d)


def _stable_names(rng, V: GradedSpace, d: GradedMap):
    """A seeded d-stable set of basis names, never empty: the first closed
    name stands in when the draw keeps none (the tower pattern has one)."""
    stable = []
    for n in V.names:
        if all(t in stable for t in d.value(n)) and rng.random() < 0.6:
            stable.append(n)
    return stable or [next(n for n in V.names if not d.value(n))]


def random_filtered_inclusion(seed: int, dim: int = 2):
    """Inclusion End(V;F) -> End(V) for a random complex with a d-stable
    basis-aligned subspace F (always exists in the tower pattern)."""
    V, d = random_complex(seed, dim)
    stable = _stable_names(random.Random("filtered:%d" % seed), V, d)
    return end_preserving_sub_dgla(V, d, stable)


def end_splitting(seed: int, dim: int = 3, lie: bool = True):
    """End(V) = End(V; W) (+) Hom(W, V/W) for a random complex and a seeded
    proper d-stable W.  Returns (V, d, End(V) as a DGLA or a DGA, the
    complement names `t<-s` with s in W and t not, W)."""
    V, d = random_complex(seed, dim)
    stable = _stable_names(random.Random("endsplit:%d" % seed), V, d)
    if len(stable) == len(V.names):
        stable = stable[:-1]
    ambient = end_dgla(V, d) if lie else end_dga(V, d)
    comp = list(hom_space([n for n in V.names if n not in stable], stable, V).names)
    return V, d, ambient, comp, stable


def random_dga_morphism(seed: int, dim: int = 2) -> DgaMorphism:
    rng = random.Random("dgamor:%d" % seed)
    if rng.random() < 0.5:
        A = random_end_dga(seed, dim)
        return DgaMorphism(A, A, GradedMap.identity(A.space))
    V, d = random_complex(seed, dim)
    stable = _stable_names(random.Random("filtered:%d" % seed), V, d)
    return end_preserving_sub(end_dga(V, d), V, stable)[1]


# ---------------------------------------------------------------------------
# harmonic contractions of complexes (deterministic forward elimination)


def harmonic_contraction(space: GradedSpace, d: GradedMap) -> Contraction:
    """Split (V,d) = H + acyclic part; contraction onto H with zero differential.

    Per degree V = B + H + C with B = im d and d: C -> B iso; the homotopy is
    K(v) = -(d|_C)^{-1}(B-component of v).  The B rows (`echelon` of d one
    degree down: images of the basis, each with its preimage) and then the
    H rows (echelon's kernel vectors) are reduced forward, against earlier
    rows only and never back, with pivots in declared basis order: everything
    is reproducible, and the harmonic basis that `inject` and `project` use
    stays as the digests pin it.
    """
    echelons = {deg: echelon(d, deg) for deg in space.degrees_present()}
    rows, small_basis, inject, project, K = {}, [], {}, {}, {}
    for deg, (_, kernel) in echelons.items():
        b_rows, h_rows = echelons.get(deg - 1, ([], ()))[0], []
        for vec in kernel:
            reduce_rows(vec, b_rows + h_rows)
            append_row(h_rows, vec, {}, space.index)
        rows[deg] = b_rows + h_rows
        harmonic = ["h%d_%d" % (deg, i) for i in range(len(h_rows))]
        small_basis += [(h, deg) for h in harmonic]
        inject.update((h, row) for h, (row, _, _) in zip(harmonic, h_rows))
        for n in space.names:
            if space.degree[n] == deg:
                pre = {}
                factors = reduce_rows(lin_single(n), rows[deg], pre)
                project[n] = dict(zip(harmonic, factors[len(b_rows):]))
                # -(preimage of the B-part), then keep only its C-component below
                reduce_rows(pre, rows.get(deg - 1, ()))
                K[n] = {m: pre[m] for m in sorted(pre, key=space.index.__getitem__)}
    small = GradedSpace(small_basis)
    return Contraction(small, GradedMap(small, small, 1), space, d,
                       GradedMap(small, space, 0, inject), GradedMap(space, small, 0, project),
                       GradedMap(space, space, -1, K))


def lambda_cartan_fixture(seed: int, holo: int = 2, anti: int = 1, p: int = None):
    """Generic non-abelian Cartan data on an exterior model.

    V = Lambda(phi_1..phi_holo; psi_1..psi_anti) with seeded tower
    differentials; L is spanned by the derivations phi_j -> psi-monomial,
    with differential read off from -[delbar, i] and bracket from [i, l]
    (the higher derived brackets vanish because [i, i] = 0).  Returns
    (CartanHomotopy, FormalPeriodData with W = A^{>=p}, ExteriorModel).
    """
    p = holo if p is None else p
    if not 1 <= p <= holo:
        raise MalformedInput("lambda fixture needs 1 <= p <= holo: W = A^{>=p} and its "
                             "complement must both be nonzero")
    rng = random.Random("lambda:%d" % seed)
    gens = [("ph%d" % i, (1, 0)) for i in range(1, holo + 1)] + \
           [("ps%d" % i, (0, 1)) for i in range(1, anti + 1)]
    model = ExteriorModel(gens)
    V = model.space
    gen_names = [g for g, _ in gens]

    def bidegree_pairs(p_, q_, closed):
        """Wedge monomials of the given bidegree in closed generators."""
        out = []
        for a in closed:
            for b in closed:
                if model.gen_index[a] >= model.gen_index[b]:
                    continue
                bp = model.gens[model.gen_index[a]][1][0] + \
                    model.gens[model.gen_index[b]][1][0]
                bq = 2 - bp
                if (bp, bq) == (p_, q_):
                    combo = (model.gen_index[a], model.gen_index[b])
                    out.append(model._subset_name[tuple(sorted(combo))])
        return out

    closed = []
    del_img, delbar_img = {}, {}
    # antiholomorphic generators first, so that (1,1)- and (0,2)-monomials in
    # closed generators exist when the tower reaches the holomorphic ones
    tower_order = [g for g in gen_names if g.startswith("ps")] + \
                  [g for g in gen_names if g.startswith("ph")]
    for g in tower_order:
        is_holo = g.startswith("ph")
        dv, bv = {}, {}
        for nm in bidegree_pairs(2 if is_holo else 1, 0 if is_holo else 1, closed):
            c = _rand_coeff(rng)
            if c:
                lin_acc(dv, lin_single(nm), c)
        for nm in bidegree_pairs(1 if is_holo else 0, 1 if is_holo else 2, closed):
            c = _rand_coeff(rng)
            if c:
                lin_acc(bv, lin_single(nm), c)
        if (dv or bv) and rng.random() < 0.75:
            del_img[g] = dv
            delbar_img[g] = bv
        else:
            closed.append(g)
    dell = model.derivation(del_img, 1)
    delbar = model.derivation(delbar_img, 1)
    d = dell.add(delbar)

    psi_monomials = [model._subset_name[c] for c in model._subset_name
                     if all(model.gens[i][1] == (0, 1) for i in c)]
    lbasis = []
    for j in range(1, holo + 1):
        for nm in psi_monomials:
            lname = "v%d|%s" % (j, nm)
            q = sum(1 for ch in nm.split("^") if ch != "one")
            lbasis.append((lname, q))
    Lsp = GradedSpace(lbasis)
    imaps = {}
    for lname, _ in lbasis:
        j, nm = lname.split("|")
        imaps[lname] = model.derivation({"ph" + j[1:]: lin_single(nm)},
                                        Lsp.degree[lname] - 1)

    def decompose(D):
        """Express a derivation killing the psi-generators in the L basis."""
        vec = {}
        for j in range(1, holo + 1):
            img = D.value("ph%d" % j)
            for nm, c in img.items():
                lname = "v%d|%s" % (j, nm)
                if lname not in Lsp.degree:
                    raise RejectedInput("derivation leaves the contraction span")
                lin_acc(vec, lin_single(lname), c)
        for i in range(1, anti + 1):
            if D.value("ps%d" % i):
                raise RejectedInput("derivation does not kill the psi part")
        return vec

    dL = GradedMap(Lsp, Lsp, 1)
    for lname, _ in lbasis:
        comm = delbar.commutator(imaps[lname]).scale(-1)
        vec = decompose(comm)
        if vec:
            dL.set(lname, vec)
    lmaps = {lname: dell.commutator(imaps[lname]) for lname, _ in lbasis}
    br = MultilinearMap(Lsp, Lsp, 0, 2, TENSOR)
    for n1, _ in lbasis:
        for n2, _ in lbasis:
            vec = decompose(imaps[n1].commutator(lmaps[n2]))
            if vec:
                br.set_entry((n1, n2), vec)
    cartan = CartanHomotopy(DgLieAlgebra(Lsp, dL, br), V, d, imaps)
    rep = check_cartan(cartan)
    if not rep.ok:
        raise RejectedInput("lambda fixture failed Cartan identities: %s"
                            % rep.first_failure())
    w_names = [x for x in V.names if V.bidegree[x][0] >= p]
    return cartan, FormalPeriodData(cartan, w_names), model


__all__ = [
    "random_complex", "random_end_dga", "random_filtered_inclusion", "end_splitting",
    "random_dga_morphism", "harmonic_contraction", "lambda_cartan_fixture",
]
