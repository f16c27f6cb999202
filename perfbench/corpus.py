"""README command corpus: each README-level command runs in-process through
hoalg.cli.run at a recorded --max-weight; its exit code and the sha256 of its
stdout must match corpus.json. Commands too slow to finish at their README
weight are kept with "expect": "timeout" and run against a short budget.

    python3 perfbench/corpus.py            # check; prints one JSON line
    python3 perfbench/corpus.py --record   # rewrite the expected values
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CORPUS = HERE / "corpus.json"


class CommandTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise CommandTimeout()


def run_entry(run, entry):
    """Run one entry; returns ("timeout", None) or (exit code, stdout sha256)."""
    argv = ["--max-weight", str(entry["max_weight"])] + entry["argv"]
    out = io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, entry["budget_s"])
    try:
        with contextlib.redirect_stdout(out):
            code = run(argv)
    except CommandTimeout:
        return "timeout", None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    from hoalg.cli import run
    signal.signal(signal.SIGALRM, _alarm)
    entries = json.loads(CORPUS.read_text())
    results = []
    for entry in entries:
        t = time.perf_counter()
        code, digest = run_entry(run, entry)
        wall = time.perf_counter() - t
        if args.record:
            entry.pop("exit", None)
            entry.pop("stdout_sha256", None)
            if code == "timeout":
                entry["expect"] = "timeout"
            else:
                entry.pop("expect", None)
                entry.update(exit=code, stdout_sha256=digest)
        if entry.get("expect") == "timeout":
            # still slow is expected; finishing cleanly is a gain, not a failure
            ok = code in ("timeout", 0)
        else:
            ok = code == entry["exit"] and digest == entry["stdout_sha256"]
        results.append({"argv": entry["argv"], "max_weight": entry["max_weight"],
                        "status": code, "ok": ok, "wall_s": wall})
    if args.record:
        CORPUS.write_text(json.dumps(entries, indent=1) + "\n")
    print(json.dumps({"ok": all(r["ok"] for r in results), "commands": results}))


if __name__ == "__main__":
    main()
