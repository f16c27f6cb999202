"""Every universe key of the four perfbench workloads, run in-process, gives
the Taylor and report dump digest recorded in perfbench/digests.json.  The
file is only read here; perfbench/record.py writes it when a result is meant
to change.  A rewrite of a builder or kernel must leave every digest as it is.
No workload builds the derived-products model, so its five maps are pinned
here by the same dump.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import workloads as wl  # noqa: E402
from hoalg.cocone import Splitting, derived_products_model  # noqa: E402
from hoalg.fixtures import end_splitting  # noqa: E402

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
