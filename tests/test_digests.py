"""Every universe key of the four perfbench workloads, run in-process, gives
the Taylor and report dump digest recorded in perfbench/digests.json.  The
file is only read here; perfbench/record.py writes it when a result is meant
to change.  A rewrite of a builder or kernel must leave every digest as it is.
No workload builds the derived-products model, the Voronov brackets with
their semidirect and fiber products, a strictified fibration, a non-strict
transfer or the harmonic hom transfer, so their maps are pinned here by the
same dump.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import workloads as wl  # noqa: E402
from fixture_helpers import filiform_dga  # noqa: E402
from hoalg.coalg import (  # noqa: E402
    decalage_dga, decalage_dgla, decalage_dgla_morphism, end_preserving_sub_dgla,
    symmetrize_morphism, symmetrize_structure,
)
from hoalg.cocone import (  # noqa: E402
    Splitting, derived_products_model, exp_log_isos, fiber_product_model,
    semidirect_product, strictify_fibration, voronov_brackets,
)
from hoalg.fixtures import end_splitting, harmonic_contraction, random_dga_morphism  # noqa: E402
from hoalg.graded import Contraction, GradedMap  # noqa: E402
from hoalg.hodge import (  # noqa: E402
    harmonic_quasi_inverse, hom_transfer_contraction, torus_package,
)
from hoalg.transfer import transfer_quasi_inverse, transfer_structure  # noqa: E402
from test_cocone import _with_arbitrary_f2  # noqa: E402

RECORDED = json.loads((BENCH / "digests.json").read_text())


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_every_universe_key_gives_its_recorded_digest(workload):
    w = wl.WORKLOADS[workload]
    keys = wl.universe_keys(workload)
    assert sorted(keys) == sorted(RECORDED[workload])
    changed = []
    for key in keys:
        job = wl.Job()
        w.run(w.inputs(key), wl.NO_TRACE, job, key)
        if job.digest() != RECORDED[workload][key]:
            changed.append(key)
    assert changed == []


# the dump of structure, F_as, G_as, F_inf and G_inf of the derived-products
# model on end_splitting(seed, lie=False), by seed and max weight
DERIVED_MODEL_DIGESTS = [
    (0, 6, "2d4259da8ac3ae62243883478c9e133cb4c51600d369e7041dbfbde5b5b2d78f"),
    (1, 6, "1ab68d06723ea3a333441199c0d226e18b8568c70d2363b10754e8901b99f987"),
    (2, 6, "e86f42a7293267d08fdacf99cc713a9d39a5c7785556a67b25dae9eb2b3b92dc"),
    (3, 6, "f3831ed8d37237d187952c6282a9a598692fa6417781bda305d4879a2b995d00"),
    (4, 6, "1ab68d06723ea3a333441199c0d226e18b8568c70d2363b10754e8901b99f987"),
    (5, 6, "a48ddbbd9fa9c4a4b93ac23451a09fb7930a195b66421c7623e5904185f3c03f"),
    (1, 7, "d6c40b9d8deaa85031d1fdf944d5f3b472f31f74f9c3ae0687acd99fd474a911"),
]


@pytest.mark.parametrize("seed, weight, digest", DERIVED_MODEL_DIGESTS,
                         ids=["%d:%d" % case[:2] for case in DERIVED_MODEL_DIGESTS])
def test_derived_products_model_gives_its_pinned_digest(seed, weight, digest):
    V, d, M, comp, stable = end_splitting(seed, lie=False)
    dp = derived_products_model(Splitting(M, comp), weight)
    job = wl.Job()
    for label in ("structure", "F_as", "G_as", "F_inf", "G_inf"):
        job.taylor(label, getattr(dp, label))
    assert job.digest() == digest


# Builders that no workload dumps, pinned by the same Job.taylor dump: each
# case builds its objects and returns them as (label, structure or morphism)
# pairs.
def _voronov_case(seed):
    V, d, M, comp, stable = end_splitting(seed)
    split = Splitting(M, comp)
    phi, action = voronov_brackets(split, max_weight=5)
    Mdec = decalage_dgla(M, max_weight=5)
    sd = semidirect_product(phi, Mdec, action, max_weight=5, validate=False)
    sub, _, inc = end_preserving_sub_dgla(V, d, stable)
    F = _with_arbitrary_f2(decalage_dgla_morphism(inc, max_weight=5, target=Mdec), seed)
    return [("phi", phi), ("semidirect", sd),
            ("fiber_product", fiber_product_model(sub, split, F, 5))]


def _harmonic_transfer(big):
    d = GradedMap(big.space, big.space, 1)
    if 1 in big.taylor:
        for (n,), vec in big.taylor[1].entries.items():
            d.set(n, vec)
    c = harmonic_contraction(big.space, d)
    return Contraction(c.small, c.d_small, big.space, d, c.inject, c.project, c.homotopy)


def _strictify_case(source):
    """strictify_fibration of the logarithm of exp_log_isos on
    random_dga_morphism(seed), or of the symmetrized quasi-inverse of the
    filiform transfer on filiform_dga(n), at weight 5."""
    kind, n = source.split(":")
    if kind == "log":
        fibration = exp_log_isos(random_dga_morphism(int(n), 2), max_weight=5)[1]
    else:
        big = decalage_dga(filiform_dga(int(n)), max_weight=5)
        c = _harmonic_transfer(big)
        fibration = symmetrize_morphism(
            transfer_quasi_inverse(big, c, transfer_structure(big, c)[1]))
    G, tilde, _ = strictify_fibration(fibration)
    return [("G", G), ("tilde", tilde)]


def _filiform_case(n):
    big = decalage_dga(filiform_dga(n), max_weight=6)
    c = _harmonic_transfer(big)
    small, F = transfer_structure(big, c)
    return [("small", small), ("F", F), ("G", transfer_quasi_inverse(big, c, F))]


def _hom_transfer_case(n):
    pkg, _, _ = torus_package(n)
    big, _ = hom_transfer_contraction(pkg, pkg.n, max_weight=4)
    return [("big", big),
            ("G", harmonic_quasi_inverse(pkg, pkg.n, symmetrize_structure(big), 4))]


BUILDER_DIGESTS = [
    ("voronov:0", lambda: _voronov_case(0),
     "ee2a34e6a99f729254f569f0b1ed9e026c58d4fb6e97fdc1a2d2c56d50fc2a95"),
    ("voronov:1", lambda: _voronov_case(1),
     "8f54dd6c8a35f3db3d413faf501fd98da99b855a99d579d7927c6a4affa0387d"),
    ("voronov:2", lambda: _voronov_case(2),
     "5c2701aeb041fad5846e5b2d122bd3a04ab03f1f136a0ea509c491eb2837cc1a"),
    ("voronov:3", lambda: _voronov_case(3),
     "06ee21e9a2ed97729bb9615d7ac60be0620d4aeadeeb505212a51620fec51724"),
    ("strictify:log:0", lambda: _strictify_case("log:0"),
     "173ab10b873de766de66d56735ee04eb3eacdc99f1d3f01f4b599c23b75bc651"),
    ("strictify:log:3", lambda: _strictify_case("log:3"),
     "c2a281ce9fa1b4bf01cdb4516e60e627410b05d0dc9f36ece2d7ab75301aa52a"),
    ("strictify:filiform:5", lambda: _strictify_case("filiform:5"),
     "17e16d9165f37934a70c04544d891fa955fd9e15816cc2e51b5fee6855454456"),
    ("filiform:4", lambda: _filiform_case(4),
     "74b15d0f11807741819f965a277685dde217222e39c5af3c99ff82b0f52b0a5d"),
    ("filiform:5", lambda: _filiform_case(5),
     "940d8ab8021cf0c2fa02c9c19d87e122cb40267de999237a861409c27da36dda"),
    ("torus:3", lambda: _hom_transfer_case(3),
     "101073b39485d16abb670bed8cd511f7d94ad32ab39e0f728b57f26f4545d87f"),
]


@pytest.mark.parametrize("case, build, digest", BUILDER_DIGESTS,
                         ids=[case[0] for case in BUILDER_DIGESTS])
def test_builders_no_workload_dumps_give_their_pinned_digest(case, build, digest):
    job = wl.Job()
    for label, obj in build():
        job.taylor(label, obj)
    assert job.entries_out and job.digest() == digest
