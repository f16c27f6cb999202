"""Homotopy transfer along a contraction, both flavors.

Transferred structure and quasi-isomorphism into the big side via the
recursions f_k = sum_{j>=2} K q_j F^j_k, r_k = sum_{j>=2} g_1 q_j F^j_k;
recursive quasi-inverse G with G F = Id in the tensor flavor.

The homotopy word operator is the arity-consistent
K_k = sum_i id^{(x)i} (x) K (x) (f1 g1)^{(x)(k-i-1)}; the test suite pins this
choice through G F = Id and the closed-form nested-projection inverse.
"""

from __future__ import annotations

import itertools

from .coalg import OoMorphism, OoStructure, taylor_after
from .graded import (
    Contraction, GradedMap, MalformedInput, MultilinearMap, RejectedInput, TENSOR,
    UnsupportedOperation, check_contraction, lin_acc, lin_add, lin_single,
    multilinear_from_graded_map,
)


def _validate(big: OoStructure, c: Contraction):
    if c.big != big.space:
        raise MalformedInput("contraction big space differs from the structure space")
    rep = check_contraction(c)
    if not rep.ok:
        raise RejectedInput("contraction identities fail: %s" % rep.first_failure())
    q1 = big.taylor.get(1)
    d_as_multi = multilinear_from_graded_map(c.d_big, big.flavor)
    if (q1 or d_as_multi.is_zero() != (q1 is None)) and (q1 != d_as_multi):
        if not (q1 is None and d_as_multi.is_zero()):
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
    for k in range(2, mw + 1):
        fk = MultilinearMap(c.small, c.big, 0, k, flavor)
        rk = MultilinearMap(c.small, c.small, 1, k, flavor)
        for word in small.basis_words(k):
            acc = taylor_after(big.taylor, F.morph_component, word, 2)
            if not acc:
                continue
            kv = c.homotopy.apply(acc)
            gv = c.project.apply(acc)
            if kv:
                fk.add_entry(word, kv)
            if gv:
                rk.add_entry(word, gv)
        if not fk.is_zero():
            F.taylor[k] = fk
        if not rk.is_zero():
            small.taylor[k] = rk
    return small, F


def _homotopy_word_expansion(c: Contraction, fg: GradedMap, word, degrees) -> dict:
    """K_k(word): sum_i id^{(x)i} (x) K (x) (f1 g1)^{(x)(k-i-1)} with Koszul sign,
    fg being f1 g1 = c.inject o c.project.

    K is odd, so passing it over the first i inputs contributes
    (-1)^{deg(word_0)+...+deg(word_{i-1})}.
    """
    k = len(word)
    out: dict = {}
    for i in range(k):
        kv = c.homotopy.value(word[i])
        if not kv:
            continue
        sign = -1 if sum(degrees[h] for h in range(i)) % 2 else 1
        slots = [lin_single(word[t]) for t in range(i)] + [kv] + \
                [fg.value(word[t]) for t in range(i + 1, k)]
        if any(not s for s in slots):
            continue
        for combo in itertools.product(*[list(s.items()) for s in slots]):
            coeff = sign
            tup = []
            for n, cf in combo:
                coeff *= cf
                tup.append(n)
            lin_add(out, tuple(tup), coeff)
    return out


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
        if not c.side_conditions:
            raise RejectedInput("quasi-inverse recursion needs the side conditions")
    mw = big.max_weight if max_weight is None else max_weight
    small = F.source
    G = OoMorphism(big, small, {1: multilinear_from_graded_map(c.project, TENSOR)})
    degs = big.space.degree
    fg = c.inject.compose(c.project)
    for k in range(2, mw + 1):
        gk = MultilinearMap(big.space, small.space, 0, k, TENSOR)
        for word in big.basis_words(k):
            word_degs = [degs[n] for n in word]
            kk = _homotopy_word_expansion(c, fg, word, word_degs)
            if not kk:
                continue
            acc: dict = {}
            for tup, cf in kk.items():
                lin_acc(acc, taylor_after(G.taylor, big.coder_component, tup, 1, k - 1), cf)
            if acc:
                gk.add_entry(word, acc)
        if not gk.is_zero():
            G.taylor[k] = gk
    return G


__all__ = ["transfer_structure", "transfer_quasi_inverse"]
