"""Small fixed and seeded algebras, and small readers of the library's
objects, that only the tests use.

No library module, CLI path or perfbench job builds or reads these, so they
live next to the tests: two classical Lie algebras, the abelian and zero
DGLAs, the endomorphism DGLA of a seeded random complex, a seeded random
element over an Artin ring, whether a morphism is strict, the bracket of a
DGLA as a function of two vectors, and the commutator DGLA morphism of a DGA
morphism.
"""

from __future__ import annotations

import random
from fractions import Fraction

from hoalg.coalg import DgLieAlgebra, DglaMorphism, end_dgla
from hoalg.fixtures import _rand_coeff, random_complex
from hoalg.graded import GradedMap, GradedSpace, MultilinearMap, TENSOR, lin_single
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
