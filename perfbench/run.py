"""Benchmark entry point: one workload run, measured end to end.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

A single closed-loop client runs jobs back to back in a fresh child
interpreter (worker.py), for at least --seconds and in whole cycles over the
seeded pool of keys, with PYTHONHASHSEED pinned and an address-space limit.
A job that does not finish within JOB_LIMIT_S gets the child killed and
counts as failed. The README command corpus then runs once in its own child.
Times are wall times rescaled to a fixed CPU speed by the reference loop run
next to every job and every set-up (speed.py); the raw wall times stay in
the results file. The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics when --trace 0 and the per-layer metrics when
--trace 1. Everything else (jobs, spans, corpus, run metadata) goes to
perfbench/results/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cocone-verify", "morphism-build", "period-hodge", "mc-artin")
HASH_SEED = "0"
JOB_LIMIT_S = 60.0          # per job, and for set-up before the first job
CORPUS_LIMIT_S = 60.0
MEMORY_LIMIT = 2 << 30      # RLIMIT_AS of every child, bytes
SETUP_PROBES = 10           # extra fresh interpreters that only set up

LAYER_SPANS = ("coalg.verify", "coalg.compose", "coalg.invert", "transfer.build",
               "cocone.build", "hodge.build", "mc.check", "mc.gauge", "mc.fcheck",
               "graded.contraction")


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_child(argv, limit_s):
    """Run a Python child and collect the JSON events it prints. If no event
    arrives within limit_s of the previous one, kill the child. Returns
    (events, status) where status is "ok", "killed" or "exit <code>"."""
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    env.pop("PYTHONPATH", None)
    proc = subprocess.Popen([sys.executable] + argv, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, preexec_fn=_limit_memory)
    events, buf, status = [], b"", "ok"
    fd = proc.stdout.fileno()
    with selectors.DefaultSelector() as sel:
        sel.register(fd, selectors.EVENT_READ)
        deadline = time.monotonic() + limit_s
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                proc.kill()
                status = "killed"
                break
            if not sel.select(left):
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            buf += chunk
            *lines, buf = buf.split(b"\n")
            for line in lines:
                if line.startswith(b"{"):
                    events.append(json.loads(line))
                    deadline = time.monotonic() + limit_s
                else:  # stray output of the library, not an event
                    sys.stderr.write(line.decode(errors="replace") + "\n")
    proc.stdout.close()
    code = proc.wait()
    if status == "ok" and code != 0:
        status = "exit %d" % code
    return events, status


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tail_percentile(times, pool):
    """Nearest-rank percentile p of the job times, where p is the highest whole
    percentile with at least ten of one pool cycle's jobs beyond it. A run
    holds whole pool cycles, so p is fixed per workload and at least ten jobs
    lie beyond it however many cycles a run finishes."""
    p = math.floor(100 * (pool - 10) / pool)
    rank = max(1, math.ceil(p * len(times) / 100))
    return p, sorted(times)[rank - 1]


def job_time(job):
    return speed.scaled(job["wall_s"], job["ref_s"])


def layer_metrics(jobs, spans, fixtures_s, pool):
    """Per-layer figures from the traced jobs (busy seconds are per traced job,
    rescaled by the speed measured next to that job). Exact counts are taken
    over the first pool cycle: each key once."""
    traced = [j for j in jobs if j["traced"]]
    plain = [j for j in jobs if not j["traced"]]
    n = max(1, len(traced))
    rescale = {j["i"]: speed.REF_S / j["ref_s"] for j in traced}
    covered = [0.0] * len(spans)      # time each span's children cover
    for name, start, end, parent, job in spans:
        if parent is not None:
            covered[parent] += end - start
    busy = dict.fromkeys(LAYER_SPANS + ("job",), 0.0)
    for (name, start, end, parent, job), child in zip(spans, covered):
        if job in rescale:            # a killed job has no event and no speed
            busy[name] += (end - start - child) * rescale[job]
    counted = [j["counts"] for j in traced[:pool]]
    out = {}
    for name in LAYER_SPANS:
        out[name + "_s"] = (busy[name] / n, "s")
    out["coalg.words"] = (sum(c["coalg.words"] for c in counted), "count")
    verified = sum(j["counts"]["coalg.words"] for j in traced)
    out["coalg.words_per_s"] = (
        verified / busy["coalg.verify"] if busy["coalg.verify"] else 0.0, "1/s")
    out["coalg.memo_entries"] = (max(c["coalg.memo_entries"] for c in counted), "count")
    out["graded.entries_out"] = (sum(c["graded.entries_out"] for c in counted), "count")
    out["mc.terms"] = (sum(c["mc.terms"] for c in counted), "count")
    out["fixtures.build_s"] = (fixtures_s, "s")
    out["job.self_s"] = (busy["job"] / n, "s")
    overhead = 0.0
    if traced and plain:
        overhead = (statistics.median(map(job_time, traced))
                    / statistics.median(map(job_time, plain)) - 1)
    out["trace.overhead_frac"] = (overhead, "frac")
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "hoalg" / "__init__.py").is_file():
        sys.exit("perfbench: %s has no src/hoalg to measure" % ROOT)

    load_start = _loadavg()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    worker = str(HERE / "worker.py")
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            events, status = run_child([worker, "--setup-only"] + common, JOB_LIMIT_S)
            if status != "ok" or not events:
                sys.exit("perfbench: set-up probe failed (%s)" % status)
            setups.append(events[0])
    events, status = run_child(
        [worker, "--seconds", str(args.seconds), "--trace", str(args.trace)] + common,
        JOB_LIMIT_S)
    if not events or events[0]["event"] != "setup":
        sys.exit("perfbench: worker failed before its first job (%s)" % status)
    setups.append(events[0])
    jobs = [e for e in events if e["event"] == "job"]
    times = [job_time(j) for j in jobs]
    end = events[-1]
    if end["event"] != "end":   # killed or crashed: keep what the finished jobs show
        end = {"spans": [],
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}
    corpus_events, corpus_status = run_child([str(HERE / "corpus.py")], CORPUS_LIMIT_S)
    corpus = corpus_events[-1] if corpus_events else {"ok": False, "commands": []}
    load_end = _loadavg()

    attempted = len(jobs) + (status != "ok")   # a child that died was inside a job
    failed = sum(not j["ok"] for j in jobs) + (status != "ok")
    correct = (failed == 0 and corpus_status == "ok" and corpus["ok"] and len(jobs) > 0)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "status": status,
        "meta": {"python": setups[-1]["python"], "nproc": os.cpu_count(),
                 "PYTHONHASHSEED": HASH_SEED, "git_commit": _git_commit(),
                 "loadavg_start": load_start, "loadavg_end": load_end},
        "setups": setups, "jobs": jobs, "corpus": corpus,
        "corpus_status": corpus_status,
    }
    metrics = {}
    pool = setups[-1]["pool"]
    if times:
        if args.trace:
            setup = setups[-1]
            m = layer_metrics(jobs, end["spans"],
                              speed.scaled(setup["fixtures_s"], setup["ref_s"]), pool)
            detail["spans"] = end["spans"]
        else:
            p, tail = tail_percentile(times, pool)
            detail["job_tail_percentile"] = p
            detail["job_samples"] = len(times)
            detail["wall_job_p50_s"] = statistics.median(j["wall_s"] for j in jobs)
            detail["ref_p50_s"] = statistics.median(j["ref_s"] for j in jobs)
            m = {"jobs_per_s": (sum(j["ok"] for j in jobs) / sum(times), "1/s"),
                 "job_p50_s": (statistics.median(times), "s"),
                 "job_tail_s": (tail, "s"),
                 "peak_rss_mb": (end["peak_rss_mb"], "MB"),
                 "ok_frac": ((attempted - failed) / attempted, "frac"),
                 "setup_s": (statistics.median(speed.scaled(s["setup_s"], s["ref_s"])
                                               for s in setups), "s")}
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
    detail["metrics"] = metrics
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    (out / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))).write_text(
        json.dumps(detail, indent=1) + "\n")
    for j in jobs:
        if not j["ok"]:
            print("perfbench: job %d (%s) failed: %s" % (j["i"], j["key"], j["error"]),
                  file=sys.stderr)
    for c in corpus["commands"]:
        if not c["ok"]:
            print("perfbench: corpus command failed: %s" % " ".join(c["argv"]), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
