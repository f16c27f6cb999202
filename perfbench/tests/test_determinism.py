"""The benchmark's exact counts and output digests must not depend on the run
or on the interpreter's hash seed.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
WORKLOADS = ("cocone-verify", "morphism-build", "period-hodge", "mc-artin")
JOBS = 6    # three keys, each traced and then untraced


def _run(workload, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--cycle", str(JOBS), "--trace", "1"],
        cwd=HERE.parent, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    events = [json.loads(line) for line in proc.stdout.splitlines()]
    jobs = [e for e in events if e["event"] == "job"]
    assert len(jobs) == JOBS
    assert all(j["ok"] for j in jobs), [j["error"] for j in jobs]
    assert [j["key"] for j in jobs[::2]] == [j["key"] for j in jobs[1::2]]
    assert [j["traced"] for j in jobs] == [True, False] * (JOBS // 2)
    spans = events[-1]["spans"]
    assert {name for name, *_ in spans} >= {"job"}
    return [(j["key"], j["digest"], j["counts"]) for j in jobs]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_and_digests_repeat(workload):
    first = _run(workload, "0")
    assert _run(workload, "0") == first
    assert _run(workload, "4242") == first
