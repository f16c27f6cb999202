"""Homotopy transfer along a contraction, both flavors.

Transferred structure and quasi-isomorphism into the big side via the
recursions f_k = sum_{j>=2} K q_j F^j_k, r_k = sum_{j>=2} g_1 q_j F^j_k;
recursive quasi-inverse G with G F = Id in the tensor flavor.  Each weight
is filled from the lower ones, and in both flavors the sums are pushed from
the Taylor supports by the kernels coalg._products and coalg._insertion, whose
int output is stored at its scale through coalg.pushed_map.

The homotopy word operator is the arity-consistent
K_k = sum_i id^{(x)i} (x) K (x) (f1 g1)^{(x)(k-i-1)}; the test suite pins this
choice through G F = Id and the closed-form nested-projection inverse.
"""

from __future__ import annotations

from .coalg import (
    OoMorphism, OoStructure, Scaled, _insertion, _products, preimages,
    pushed_map,
)
from .graded import (
    Contraction, MalformedInput, RejectedInput, TENSOR, UnsupportedOperation,
    check_contraction, lin_acc, multilinear_from_graded_map,
)


def _validate(big: OoStructure, c: Contraction):
    if c.big != big.space:
        raise MalformedInput("contraction big space differs from the structure space")
    rep = check_contraction(c)
    if not rep.ok:
        raise RejectedInput("contraction identities fail: %s" % rep.first_failure())
    q1 = big.taylor.get(1)
    d_as_multi = multilinear_from_graded_map(c.d_big, big.flavor)
    if q1 != d_as_multi and not (q1 is None and d_as_multi.is_zero()):
        raise RejectedInput("q_1 of the structure differs from the contraction differential")


def transfer_structure(big: OoStructure, c: Contraction, max_weight=None,
                       validate: bool = True):
    """Induced structure on the small side plus the quasi-isomorphism into big.

    Returns (small: OoStructure, F: OoMorphism small -> big) with F's linear
    part the contraction's injection.
    """
    if validate:
        _validate(big, c)
    mw = big.max_weight if max_weight is None else max_weight
    flavor = big.flavor
    small = OoStructure(c.small, flavor, {}, mw)
    if not c.d_small.is_zero():
        small.taylor[1] = multilinear_from_graded_map(c.d_small, flavor)
    F = OoMorphism(small, big, {1: multilinear_from_graded_map(c.inject, flavor)})
    q = Scaled(big.taylor, mw)
    for k in range(2, mw + 1):
        pushed = _products(q, Scaled(F.taylor, k), k, k, 2)[k]
        fk = pushed_map(c.small, c.big, 0, k, flavor, pushed, c.homotopy.apply)
        rk = pushed_map(c.small, c.small, 1, k, flavor, pushed, c.project.apply)
        if not fk.is_zero():
            F.taylor[k] = fk
        if not rk.is_zero():
            small.taylor[k] = rk
    return small, F


def _homotopy_transpose(word: tuple, inv_k: dict, inv_fg: dict, space):
    """(w, c) with c a term of the coefficient of `word` in K_k(w): w agrees
    with word before i, w[i] is a preimage of word[i] under K (inv_k maps a
    name to its [(preimage, coefficient)]), and w[i+1:] one of word[i+1:] under
    (f1 g1)^{(x)(k-i-1)}, grown one letter at a time from the index inv_fg of f1 g1.
    K is odd, so the term at i carries (-1)^{deg(word_0)+...+deg(word_{i-1})}."""
    odd = 0
    for i, y in enumerate(word):
        if y in inv_k:
            tails = {(): 1}
            for z in word[i + 1:]:
                tails = {w + (u,): c * cu for w, c in tails.items() for u, cu in inv_fg.get(z, ())}
            for u, cu in inv_k[y]:
                for w, cw in tails.items():
                    yield word[:i] + (u,) + w, (-cu if odd else cu) * cw
        odd ^= space.degree[y] & 1


def transfer_quasi_inverse(big: OoStructure, c: Contraction, F: OoMorphism,
                           max_weight=None, validate: bool = True) -> OoMorphism:
    """Quasi-inverse G: big -> small with G o F = Id (tensor flavor only).

    g_k = sum_{j=1}^{k-1} g_j Q^j_k K_k; the closed form in the symmetric
    flavor is out of scope (the recursions there are far more involved).
    """
    if big.flavor != TENSOR:
        raise UnsupportedOperation(
            "explicit quasi-inverse is implemented for the tensor flavor only")
    if validate:
        _validate(big, c)
    mw = big.max_weight if max_weight is None else max_weight
    small = F.source
    G = OoMorphism(big, small, {1: multilinear_from_graded_map(c.project, TENSOR)})
    inv_k = preimages(c.homotopy.entries)
    inv_fg = preimages(c.inject.compose(c.project).entries)
    q = Scaled(big.taylor, mw)
    for k in range(2, mw + 1):
        # sum_{j<k} g_j Q^j_k on every k-word at once (G holds no g_k yet),
        # then pulled back along K_k through its transpose, at the same scale
        inserted, scale = _insertion(Scaled(G.taylor, k), q, k)
        pushed: dict = {}
        for tup, vec in inserted.items():
            if vec:
                for word, cf in _homotopy_transpose(tup, inv_k, inv_fg, big.space):
                    lin_acc(pushed.setdefault(word, {}), vec, cf)
        gk = pushed_map(big.space, small.space, 0, k, TENSOR, (pushed, scale))
        if not gk.is_zero():
            G.taylor[k] = gk
    return G


__all__ = ["transfer_structure", "transfer_quasi_inverse"]
