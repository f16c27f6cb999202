"""Every universe key of the four perfbench workloads, run in-process, gives
the Taylor and report dump digest recorded in perfbench/digests.json.  The
file is only read here; perfbench/record.py writes it when a result is meant
to change.  A rewrite of a builder or kernel must leave every digest as it is.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import workloads as wl  # noqa: E402

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
