"""One run of one workload, in a fresh interpreter started by run.py.

Prints one JSON object per line on stdout: a "setup" event, one "job" event
per finished job and an "end" event. run.py reads them as they arrive, so a
job that overruns its limit is noticed and the whole process is killed.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 [--cycle K]
    python3 perfbench/worker.py --workload W --seed N --setup-only

Jobs run until S seconds have passed and the number of jobs is a whole
multiple of the cycle, at least one cycle. The cycle defaults to one pass over
the seeded pool of keys, so every key runs equally often whatever the speed.
In a traced run every key runs twice in a row, traced then untraced, and the
cycle defaults to two passes' worth of jobs.

Set-up and every job are timed between two runs of the reference loop of
speed.py; each event carries the mean of the two loop times as "ref_s".
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def emit(event):
    sys.stdout.write(json.dumps(event) + "\n")
    sys.stdout.flush()


class Tracer:
    """Spans around the benchmark's own calls into each layer, kept in memory
    and sent with the end event: [name, start, end, parent span, job]."""

    def __init__(self, t0):
        self.t0 = t0
        self.spans = []
        self.job = None
        self._stack = []

    @contextmanager
    def span(self, name):
        sid = len(self.spans)
        rec = [name, time.perf_counter() - self.t0, None,
               self._stack[-1] if self._stack else None, self.job]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec[2] = time.perf_counter() - self.t0
            self._stack.pop()


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cycle", type=int, default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    ref = speed.time_reference()
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import hoalg
    if not Path(hoalg.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit("hoalg was imported from %s, not from %s" % (hoalg.__file__, SRC))
    import workloads as wl
    t1 = time.perf_counter()
    workload = wl.WORKLOADS[args.workload]
    keys = wl.run_keys(args.workload, args.seed)
    inputs = {key: workload.inputs(key) for key in dict.fromkeys(keys)}
    t2 = time.perf_counter()
    after = speed.time_reference()
    emit({"event": "setup", "import_s": t1 - t0, "fixtures_s": t2 - t1, "setup_s": t2 - t0,
          "ref_s": (ref + after) / 2, "python": sys.version.split()[0], "pool": len(keys)})
    ref = after
    if args.setup_only:
        return

    digests = json.loads((Path(__file__).parent / "digests.json").read_text())[args.workload]
    tracer = Tracer(t0)
    end = time.perf_counter() + args.seconds
    repeat = 2 if args.trace else 1
    cycle = args.cycle or repeat * len(keys)
    i = 0
    while i == 0 or i % cycle or time.perf_counter() < end:
        key = keys[(i // repeat) % len(keys)]
        traced = bool(args.trace) and i % 2 == 0
        job = wl.Job()
        error = digest = None
        a = time.perf_counter()
        try:
            if traced:
                tracer.job = i
                with tracer.span("job"):
                    workload.run(inputs[key], tracer, job, key)
                    digest = job.digest()
            else:
                workload.run(inputs[key], wl.NO_TRACE, job, key)
                digest = job.digest()
            if digest != digests.get(key):
                error = "digest mismatch"
        except wl.JobFailed as exc:
            error = "check failed: %s" % exc
        except Exception as exc:  # a job may fail in any way; count it, keep going
            traceback.print_exc()
            error = "%s: %s" % (type(exc).__name__, exc)
        b = time.perf_counter()
        after = speed.time_reference()
        emit({"event": "job", "i": i, "key": key, "wall_s": b - a,
              "ref_s": (ref + after) / 2, "traced": traced,
              "ok": error is None, "error": error, "digest": digest,
              "counts": {"coalg.words": job.words,
                         "coalg.memo_entries": job.memo_entries(),
                         "graded.entries_out": job.entries_out,
                         "mc.terms": job.terms}})
        ref = after
        i += 1
    usage = resource.getrusage(resource.RUSAGE_SELF)
    emit({"event": "end", "peak_rss_mb": usage.ru_maxrss / 1024.0, "spans": tracer.spans})


if __name__ == "__main__":
    main()
