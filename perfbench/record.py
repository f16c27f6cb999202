"""Record the expected dump digest of every universe key into digests.json,
or (with --costs) the cost of every universe key into costs.json.

Run it for digests only when the expected outputs are meant to change, never
to make a failing benchmark pass; a changed digest is a changed result.
Costs only rank keys for the stratified pool draw; a key's cost is the median
of three runs, each rescaled to the reference speed (speed.py).

    python3 perfbench/record.py [--workload W] [--costs]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import speed  # noqa: E402
import workloads as wl  # noqa: E402

COST_RUNS = 3


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    ap.add_argument("--costs", action="store_true")
    args = ap.parse_args()
    path = HERE / ("costs.json" if args.costs else "digests.json")
    table = json.loads(path.read_text()) if path.exists() else {}
    for name in [args.workload] if args.workload else sorted(wl.WORKLOADS):
        w = wl.WORKLOADS[name]
        row = {}
        for key in wl.universe_keys(name):
            inputs = w.inputs(key)
            times = []
            ref = speed.time_reference()
            for _ in range(COST_RUNS if args.costs else 1):
                job = wl.Job()
                t = time.perf_counter()
                w.run(inputs, wl.NO_TRACE, job, key)
                wall = time.perf_counter() - t
                after = speed.time_reference()
                times.append(speed.scaled(wall, (ref + after) / 2))
                ref = after
            row[key] = round(statistics.median(times), 4) if args.costs else job.digest()
            print("%s %s %.3fs" % (name, key, times[-1]), file=sys.stderr)
        table[name] = row
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
