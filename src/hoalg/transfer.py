"""Homotopy transfer along a contraction, both flavors.

Transferred structure and quasi-isomorphism into the big side via the
recursions f_k = sum_{j>=2} K q_j F^j_k, r_k = sum_{j>=2} g_1 q_j F^j_k;
recursive quasi-inverse G with G F = Id in the tensor flavor.  Each weight
is filled from the lower ones, and in both flavors the sums are pushed from
the Taylor supports by the kernels coalg._products and coalg._insertion, whose
int output is stored at its scale through coalg.pushed_map.

G pulls sum_{j<k} g_j Q^j_k back along the arity-consistent homotopy
K_k = sum_i id^{(x)i} (x) K (x) (f1 g1)^{(x)(k-i-1)} (pinned by G F = Id and the
nested-projection inverse) in one right-to-left pass per word, down to its
first letter with a K-preimage: each K-preimage u of word[i] adds word[:i] + u + t,
with the sign (-1)^{|word[:i]|} of the odd K, for each (f1 g1)-preimage t of
word[i+1:]; then the tails t grow by the preimages of word[i], and once they are
empty no earlier letter adds a term.  K_k is a tensor product read off the letters
of a word key, as the coalg kernels read theirs, not operators composed on the
names of a vector, so the pass is not a graded.push walk.
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


def transfer_quasi_inverse(big: OoStructure, c: Contraction, F: OoMorphism,
                           max_weight=None, validate: bool = True) -> OoMorphism:
    """Quasi-inverse G: big -> small with G o F = Id and g_k = sum_{j<k} g_j Q^j_k K_k,
    in the tensor flavor only (the symmetric closed form is out of scope)."""
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
    q, degree = Scaled(big.taylor, mw), big.space.degree
    for k in range(2, mw + 1):
        # sum_{j<k} g_j Q^j_k on every k-word at once (G holds no g_k yet),
        # then pulled back along K_k at the same scale (odd = |word[:i]| mod 2)
        inserted, scale = _insertion(Scaled(G.taylor, k), q, k)
        pushed: dict = {}
        for word, vec in inserted.items():
            for lo, y in enumerate(word):
                if y in inv_k:
                    break
            else:
                continue
            odd, tails, i = sum(degree[y] for y in word) & 1, {(): 1}, len(word)
            while tails and i > lo:
                i -= 1
                y = word[i]
                odd ^= degree[y] & 1
                for u, cu in inv_k.get(y, ()):
                    for w, cw in tails.items():
                        lin_acc(pushed.setdefault(word[:i] + (u,) + w, {}), vec,
                                (-cu if odd else cu) * cw)
                if i > lo:
                    tails = {(u,) + w: cw * cu for w, cw in tails.items()
                             for u, cu in inv_fg.get(y, ())}
        gk = pushed_map(big.space, small.space, 0, k, TENSOR, (pushed, scale))
        if not gk.is_zero():
            G.taylor[k] = gk
    return G


__all__ = ["transfer_structure", "transfer_quasi_inverse"]
