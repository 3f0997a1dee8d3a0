"""Output digests of every seed-101 benchmark case: a referee for "same outputs".

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/output_digests.py           # rewrite the file
    PYTHONHASHSEED=0 PYTHONPATH=src python tests/output_digests.py --check   # compare with it

Every case of the three ``perfbench`` workloads on seed 101 runs in process
through ``faircheck.cli.run``, as the benchmark runs it: out-of-reach cases
are skipped, and so is a ``verify-impl`` whose ``synthesize`` did not exit 0.
Each case gives one line of ``output_digests.txt``: workload, case index
and the first 16 hex digits of the sha256 of (exit code, stdout, stderr),
with ``elapsed_ms`` set to 0.  ``--check`` recomputes the digests and names
every case whose digest moved, with its command line; it exits 1 if any did.

A change that moves outputs on purpose rewrites the file, so that its diff
names every moved case.  Standard library only; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import os
import re
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "output_digests.txt"
SEED = 101
ELAPSED = re.compile(r'"elapsed_ms": \d+')
ELAPSED_ZERO = '"elapsed_ms": 0'


def _perfbench_gen():
    """``perfbench/gen.py``, loaded under its own name: ``tests/gen.py`` is another module."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def digest(code, out: str, err: str) -> str:
    text = f"{code}\0{ELAPSED.sub(ELAPSED_ZERO, out)}\0{err}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def workload_digests(cli, workload) -> dict[str, tuple[str, str]]:
    """Per case the benchmark would run, in case order: its key (workload and
    index) mapped to its digest and command line.  Runs in the current directory."""
    for path, text in workload.files.items():
        Path(path).write_text(text)
    digests, exit0 = {}, set()
    for i, case in enumerate(workload.cases):
        after = case.refs.get("after")
        if case.out_of_reach or (after is not None and after not in exit0):
            continue
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run(list(case.argv))
            except Exception as exc:  # a crash is an output too
                code = f"raised {type(exc).__name__}: {exc}"
        if code == 0:
            exit0.add(i)
            if "writes" in case.refs:
                Path(case.refs["writes"]).write_text(out.getvalue())
        key = f"{workload.name} {i}"
        digests[key] = digest(code, out.getvalue(), err.getvalue()), " ".join(case.argv)
    return digests


def compute() -> dict[str, tuple[str, str]]:
    import faircheck.cli as cli

    gen = _perfbench_gen()
    digests = {}
    start = os.getcwd()
    for make in gen.WORKLOADS.values():
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            try:
                digests.update(workload_digests(cli, make(SEED)))
            finally:
                os.chdir(start)
    return digests


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--check", action="store_true", help="compare with the committed file")
    args = ap.parse_args(argv)
    now = compute()
    if not args.check:
        DIGESTS.write_text("".join(f"{key} {d}\n" for key, (d, _) in now.items()))
        print(f"wrote {len(now)} digests to {DIGESTS}")
        return 0
    was = dict(line.rsplit(" ", 1) for line in DIGESTS.read_text().splitlines())
    moved = [key for key in {**was, **now} if now.get(key, (None,))[0] != was.get(key)]
    for key in moved:
        d, argv = now.get(key, ("(not run)", "(not run)"))
        print(f"moved: {key}: {argv}: {was.get(key, '(not run)')} -> {d}")
    if moved:
        print(f"{len(moved)} of {len(was)} cases moved")
        return 1
    print(f"all {len(now)} digests match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
