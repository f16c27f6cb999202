"""Small fixed and seeded algebras, and small readers of the library's
objects, that only the tests use.

No library module, CLI path or perfbench job builds or reads these, so they
live next to the tests: two classical Lie algebras, the abelian and zero
DGLAs, the endomorphism DGLA of a seeded random complex, a seeded random
element over an Artin ring, whether a morphism is strict, the bracket of a
DGLA as a function of two vectors, the commutator DGLA morphism of a DGA
morphism, the filiform nilmanifold algebras, and a dense Gaussian reference
for the harmonic contraction.
"""

from __future__ import annotations

import random
from fractions import Fraction

from hoalg.coalg import DgAlgebra, DgLieAlgebra, DglaMorphism, end_dgla
from hoalg.fixtures import _rand_coeff, random_complex
from hoalg.graded import (
    Contraction, GradedMap, GradedSpace, MultilinearMap, TENSOR, lin_acc, lin_single,
    map_kernel_basis,
)
from hoalg.hodge import ExteriorModel
from hoalg.mc import ArtinElement


def random_end_dgla(seed: int, dim: int = 2) -> DgLieAlgebra:
    V, d = random_complex(seed, dim)
    return end_dgla(V, d)


def sl2_dgla() -> DgLieAlgebra:
    """sl2 over Q in degree 0, zero differential: [h,e]=2e, [h,f]=-2f, [e,f]=h."""
    sp = GradedSpace([("e", 0), ("h", 0), ("f", 0)])
    d = GradedMap(sp, sp, 1)
    br = MultilinearMap(sp, sp, 0, 2, TENSOR)
    table = {("h", "e"): {"e": Fraction(2)}, ("e", "h"): {"e": Fraction(-2)},
             ("h", "f"): {"f": Fraction(-2)}, ("f", "h"): {"f": Fraction(2)},
             ("e", "f"): {"h": Fraction(1)}, ("f", "e"): {"h": Fraction(-1)}}
    for k, v in table.items():
        br.set_entry(k, v)
    return DgLieAlgebra(sp, d, br)


def heisenberg_dgla(degrees=(0, 0, 0)) -> DgLieAlgebra:
    """Heisenberg algebra [x,y] = z, z central; graded version when degrees allow."""
    dx, dy, dz = degrees
    if dx + dy != dz:
        raise ValueError("need deg x + deg y = deg z")
    sp = GradedSpace([("x", dx), ("y", dy), ("z", dz)])
    d = GradedMap(sp, sp, 1)
    br = MultilinearMap(sp, sp, 0, 2, TENSOR)
    br.set_entry(("x", "y"), lin_single("z"))
    sgn = -1 if (dx % 2 and dy % 2) else 1
    br.set_entry(("y", "x"), {"z": Fraction(-sgn)})
    return DgLieAlgebra(sp, d, br)


def abelian_dgla(space: GradedSpace, d: GradedMap) -> DgLieAlgebra:
    return DgLieAlgebra(space, d, MultilinearMap(space, space, 0, 2, TENSOR))


def filiform_dga(n: int) -> DgAlgebra:
    """The Chevalley-Eilenberg algebra of the filiform Lie algebra of
    dimension n: Lambda(x1..xn) with every |x_k| = 1, the wedge product and
    dx_k = x1 x_{k-1} for k >= 3.  n = 3 is the Heisenberg algebra."""
    E = ExteriorModel([("x%d" % k, (1, 0)) for k in range(1, n + 1)])

    def wedge(a, b):
        """The wedge of two monomials, as a vector."""
        got = E.wedge_monomials(E._by_name[a], E._by_name[b])
        return {E._subset_name[got[0]]: got[1]} if got else {}

    d = E.derivation({"x%d" % k: wedge("x1", "x%d" % (k - 1)) for k in range(3, n + 1)}, 1)
    names = E.space.names
    product = MultilinearMap(E.space, E.space, 0, 2, TENSOR).store(
        {(a, b): wedge(a, b) for a in names for b in names})
    return DgAlgebra(E.space, d, product)


def zero_dgla() -> DgLieAlgebra:
    sp = GradedSpace([])
    return abelian_dgla(sp, GradedMap(sp, sp, 1))


def random_artin_element(seed: int, ring, space, degree: int, density=0.5):
    """Random homogeneous element of the given degree in V (x) m_B."""
    rng = random.Random("artin:%d" % seed)
    out = ArtinElement(ring, space)
    for name in space.names:
        if space.degree[name] != degree:
            continue
        for mono in ring.monomials(min_total=1):
            if rng.random() < density:
                c = _rand_coeff(rng, zero_bias=0.0)
                out.add(name, mono, c)
    return out


def is_strict(F) -> bool:
    """Whether an OoMorphism has no Taylor coefficient above arity 1."""
    return all(k == 1 for k in F.taylor)


def bracket_vec(L: DgLieAlgebra):
    """The bracket of L as the function (u, v) -> [u, v] of two vectors."""
    return lambda u, v: L.bracket.apply_vectors([u, v])


def commutator_dgla_morphism(m) -> DglaMorphism:
    """A DgaMorphism read as the morphism of the commutator DGLAs."""
    return DglaMorphism(m.source.commutator_dgla(), m.target.commutator_dgla(), m.map)


# ---------------------------------------------------------------------------
# dense reference for fixtures.harmonic_contraction: the same forward
# elimination over dense Fraction coordinate lists, one split per degree


class _DegreeSplit:
    """Echelon decomposition V_deg = B + H + C (B = im d, H harmonic reps)."""

    def __init__(self, names, b_rows, h_rows):
        self.names = names          # ambient basis names of this degree
        self.b_rows = b_rows        # list of (coords, preimage_combination, pivot)
        self.h_rows = h_rows        # list of (coords, pivot)

    def decompose(self, vec: dict):
        """Return (b_coeffs, h_coeffs, c_remainder_coords)."""
        v = [Fraction(vec.get(n, 0)) for n in self.names]
        bc, hc = [], []
        for row, _, piv in self.b_rows:
            f = v[piv]
            bc.append(f)
            if f:
                v = [x - f * y for x, y in zip(v, row)]
        for row, piv in self.h_rows:
            f = v[piv]
            hc.append(f)
            if f:
                v = [x - f * y for x, y in zip(v, row)]
        return bc, hc, v


def _degree_split(space, d, deg, ker_vecs):
    names = [n for n in space.names if space.degree[n] == deg]
    b_rows = []
    for pre_name in [n for n in space.names if space.degree[n] == deg - 1]:
        img = d.value(pre_name)
        if not img:
            continue
        vec = [Fraction(img.get(n, 0)) for n in names]
        prevec = lin_single(pre_name)
        for row, rpre, piv in b_rows:
            if vec[piv]:
                f = vec[piv]
                vec = [x - f * y for x, y in zip(vec, row)]
                prevec = dict(prevec)
                lin_acc(prevec, rpre, -f)
        piv = next((i for i, x in enumerate(vec) if x), None)
        if piv is None:
            continue
        lead = vec[piv]
        vec = [x / lead for x in vec]
        prevec = {k: v / lead for k, v in prevec.items()}
        b_rows.append((vec, prevec, piv))
    h_rows = []
    for kv in ker_vecs:
        if space.vector_degree(kv) != deg:
            continue
        vec = [Fraction(kv.get(n, 0)) for n in names]
        for row, _, piv in b_rows:
            if vec[piv]:
                f = vec[piv]
                vec = [x - f * y for x, y in zip(vec, row)]
        for row, piv in h_rows:
            if vec[piv]:
                f = vec[piv]
                vec = [x - f * y for x, y in zip(vec, row)]
        piv = next((i for i, x in enumerate(vec) if x), None)
        if piv is None:
            continue
        vec = [x / vec[piv] for x in vec]
        h_rows.append((vec, piv))
    return _DegreeSplit(names, b_rows, h_rows)


def dense_harmonic_contraction(space: GradedSpace, d: GradedMap) -> Contraction:
    """fixtures.harmonic_contraction as it was first written, over dense rows."""
    ker_vecs = map_kernel_basis(d)
    splits = {deg: _degree_split(space, d, deg, ker_vecs)
              for deg in space.degrees_present()}

    small_basis = []
    inj_vectors = []
    for deg in space.degrees_present():
        sp = splits[deg]
        for i, (vec, _) in enumerate(sp.h_rows):
            small_basis.append(("h%d_%d" % (deg, i), deg))
            inj_vectors.append({sp.names[j]: c for j, c in enumerate(vec) if c})
    small = GradedSpace(small_basis)
    d_small = GradedMap(small, small, 1)
    inject = GradedMap(small, space, 0)
    for (name, _), vec in zip(small_basis, inj_vectors):
        inject.set(name, vec)

    project = GradedMap(space, small, 0)
    K = GradedMap(space, space, -1)
    for deg in space.degrees_present():
        sp = splits[deg]
        below = splits.get(deg - 1)
        small_names = [n for n, dg in small_basis if dg == deg]
        for n in sp.names:
            bc, hc, _ = sp.decompose(lin_single(n))
            img = {sn: c for sn, c in zip(small_names, hc) if c}
            if img:
                project.set(n, img)
            if below is not None and any(bc):
                # -(preimage of the B-part), then keep only its C-component below
                pre: dict = {}
                for f, (_, rpre, _) in zip(bc, sp.b_rows):
                    if f:
                        lin_acc(pre, rpre, -f)
                _, _, c_coords = below.decompose(pre)
                img_k = {below.names[i]: c for i, c in enumerate(c_coords) if c}
                if img_k:
                    K.set(n, img_k)
    return Contraction(small, d_small, space, d, inject, project, K)
