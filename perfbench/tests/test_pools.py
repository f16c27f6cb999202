"""The seeded pools: fixed per seed, and about the same cost mix on every seed.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads as wl  # noqa: E402

COSTS = json.loads((HERE / "costs.json").read_text())


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_pool_is_seeded_and_balanced(workload):
    assert wl.run_keys(workload, 7) == wl.run_keys(workload, 7)
    assert wl.run_keys(workload, 7) != wl.run_keys(workload, 8)
    sizes = {len(wl.run_keys(workload, seed)) for seed in range(20)}
    assert sizes == {sum(n for _, n in wl.pool_classes(workload))}
    medians = [statistics.median(COSTS[workload][k] for k in wl.run_keys(workload, seed))
               for seed in range(20)]
    assert max(medians) / min(medians) < 1.05, medians
