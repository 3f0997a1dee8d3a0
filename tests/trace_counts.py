"""Trace counts of the three benchmark workloads: a referee for "same work".

    python tests/trace_counts.py           # rewrite the file
    python tests/trace_counts.py --check   # compare with it

Runs ``perfbench/run.py --workload all --trace 1 --seed 1`` with this
interpreter and keeps every count and ratio metric of its last stdout line
except ``trace_overhead_ratio``, which is a timing: twelve per workload.
Each gives one line of ``trace_counts.txt``: workload, metric and value.
``--check`` names every metric whose value moved, with its old and new
value; it exits 1 if any did, or if the run itself failed.

A change that moves counts on purpose rewrites the file, so that its diff
names every moved count.  Standard library only; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNTS = HERE / "trace_counts.txt"
ARGV = ["perfbench/run.py", "--workload", "all", "--trace", "1", "--seed", "1"]
UNITS = ("count", "ratio")
TIMING = "trace_overhead_ratio"


def compute() -> dict[str, str]:
    """Each kept metric, as ``workload metric``, mapped to its value as JSON text."""
    proc = subprocess.run([sys.executable, *ARGV], cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(ARGV)} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    metrics = json.loads(lines[-1])["metrics"]
    return {
        name.replace(".", " ", 1): json.dumps(m["value"])
        for name, m in metrics.items()
        if m["unit"] in UNITS and not name.endswith(TIMING)
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--check", action="store_true", help="compare with the committed file")
    args = ap.parse_args(argv)
    try:
        now = compute()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.check:
        COUNTS.write_text("".join(f"{key} {value}\n" for key, value in now.items()))
        print(f"wrote {len(now)} counts to {COUNTS}")
        return 0
    was = dict(line.rsplit(" ", 1) for line in COUNTS.read_text().splitlines())
    moved = [key for key in {**was, **now} if now.get(key) != was.get(key)]
    for key in moved:
        print(f"moved: {key}: {was.get(key, '(none)')} -> {now.get(key, '(none)')}")
    if moved:
        print(f"{len(moved)} of {len(was)} counts moved")
        return 1
    print(f"all {len(now)} counts match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
