"""Word-by-word reference loops for the tensor-flavor sums (test oracle only).

Each loop visits every basis word of every weight and evaluates Q^j_k and
F^j_k on it through the memoized per-word evaluators of hoalg.coalg, the way
the library computed these sums before it pushed them from the Taylor
supports.  They are slow, so tests run them at low weights only.
"""

from __future__ import annotations

import itertools

from hoalg.coalg import OoMorphism, OoStructure, taylor_after
from hoalg.graded import (
    MultilinearMap, Report, TENSOR, format_vector, lin_acc, lin_add, lin_single,
    linear_part, map_right_inverse, multilinear_from_graded_map,
)


def _check_words(r, label, words_of, residual, top, space):
    for k in range(1, top + 1):
        for word in words_of(k):
            res = residual(word)
            if res:
                r.add(label, False, weight=k, witness=word,
                      lhs=format_vector(res, space), rhs="0")
                break
        else:
            r.add(label, True, weight=k)
    return r


def pull_check_structure(s: OoStructure, max_weight=None) -> Report:
    top = s.max_weight if max_weight is None else min(max_weight, s.max_weight)
    return _check_words(Report("structure equation"), "QQ=0", s.basis_words,
                        s.square_residual, top, s.space)


def pull_check_morphism(F: OoMorphism, max_weight=None) -> Report:
    s, t = F.source, F.target
    top = F.max_weight if max_weight is None else min(max_weight, F.max_weight)

    def residual(word):
        lhs = taylor_after(F.taylor, s.coder_component, word, 1)
        return lin_acc(lhs, taylor_after(t.taylor, F.morph_component, word, 1), -1)

    return _check_words(Report("morphism equation"), "FQ=RF", s.basis_words,
                        residual, top, t.space)


def pull_compose(G: OoMorphism, F: OoMorphism, max_weight=None) -> OoMorphism:
    top = max_weight or min(F.max_weight, G.max_weight)
    taylor = {}
    for k in range(1, top + 1):
        hk = MultilinearMap(F.source.space, G.target.space, 0, k, F.flavor)
        for word in F.source.basis_words(k):
            acc = taylor_after(G.taylor, F.morph_component, word, 1)
            if acc:
                hk.add_entry(word, acc)
        taylor[k] = hk
    return OoMorphism(F.source, G.target, taylor)


def pull_invert(F: OoMorphism, max_weight=None) -> OoMorphism:
    top = max_weight or F.max_weight
    inv1 = map_right_inverse(linear_part(F.taylor[1], F.source.space, F.target.space, 0))
    H = OoMorphism(F.target, F.source, {1: multilinear_from_graded_map(inv1, F.flavor)})
    for k in range(2, top + 1):
        hk = MultilinearMap(F.target.space, F.source.space, 0, k, F.flavor)
        for word in H.source.basis_words(k):
            acc = taylor_after(F.taylor, H.morph_component, word, 2)
            if acc:
                hk.add_entry(word, inv1.apply(acc), -1)
        if not hk.is_zero():
            H.taylor[k] = hk
    return H


def pull_transfer_structure(big: OoStructure, c, max_weight=None):
    mw = big.max_weight if max_weight is None else max_weight
    small = OoStructure(c.small, big.flavor, {}, mw)
    if not c.d_small.is_zero():
        small.taylor[1] = multilinear_from_graded_map(c.d_small, big.flavor)
    F = OoMorphism(small, big, {1: multilinear_from_graded_map(c.inject, big.flavor)})
    for k in range(2, mw + 1):
        fk = MultilinearMap(c.small, c.big, 0, k, big.flavor)
        rk = MultilinearMap(c.small, c.small, 1, k, big.flavor)
        for word in small.basis_words(k):
            acc = taylor_after(big.taylor, F.morph_component, word, 2)
            if acc:
                fk.add_entry(word, c.homotopy.apply(acc))
                rk.add_entry(word, c.project.apply(acc))
        if not fk.is_zero():
            F.taylor[k] = fk
        if not rk.is_zero():
            small.taylor[k] = rk
    return small, F


def homotopy_word_expansion(c, fg, word, degrees) -> dict:
    """K_k(word) = sum_i id^{(x)i} (x) K (x) (f1 g1)^{(x)(k-i-1)}, with the
    sign (-1)^{deg(word_0)+...+deg(word_{i-1})} of passing the odd K."""
    out: dict = {}
    for i in range(len(word)):
        kv = c.homotopy.value(word[i])
        if not kv:
            continue
        sign = -1 if sum(degrees[:i]) % 2 else 1
        slots = [lin_single(n) for n in word[:i]] + [kv] + \
                [fg.value(n) for n in word[i + 1:]]
        if any(not s for s in slots):
            continue
        for combo in itertools.product(*[list(s.items()) for s in slots]):
            coeff = sign
            for _, cf in combo:
                coeff *= cf
            lin_add(out, tuple(n for n, _ in combo), coeff)
    return out


def pull_transfer_quasi_inverse(big: OoStructure, c, F: OoMorphism, max_weight=None):
    mw = big.max_weight if max_weight is None else max_weight
    G = OoMorphism(big, F.source, {1: multilinear_from_graded_map(c.project, TENSOR)})
    fg = c.inject.compose(c.project)
    for k in range(2, mw + 1):
        gk = MultilinearMap(big.space, F.source.space, 0, k, TENSOR)
        for word in big.basis_words(k):
            kk = homotopy_word_expansion(c, fg, word, [big.space.degree[n] for n in word])
            acc: dict = {}
            for tup, cf in kk.items():
                lin_acc(acc, taylor_after(G.taylor, big.coder_component, tup, 1, k - 1), cf)
            if acc:
                gk.add_entry(word, acc)
        if not gk.is_zero():
            G.taylor[k] = gk
    return G
