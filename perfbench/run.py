"""faircheck benchmark: closed-loop CLI checks with verified verdicts.

    python3 perfbench/run.py --workload large-systems --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

One client runs one check at a time (a check is one in-process call of
``faircheck.cli.run``), in a fresh interpreter per measurement, with a fixed
PYTHONHASHSEED.  Every output is verified after the timed phase.

--trace 0 prints the end-to-end metrics of an untraced timed run.  --trace 1
runs the workload's fixed trace prefix twice in fresh processes, untraced and
traced, and prints the per-layer metrics and the tracing overhead.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

SETUP_SAMPLES = 7  # fresh interpreters per run whose set-up time is measured
HASH_SEED = "0"
WORKER_TIMEOUT_S = 170


def declared_metrics(trace: int) -> dict[str, str]:
    """Name to unit of every metric BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class BenchError(Exception):
    pass


def percentile(samples: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile, and how many samples lie beyond its rank.

    Failed checks enter as infinity, so they count as missing every limit.
    """
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def spawn(workload: str, seed: int, mode: str, seconds: float = 0.0, trace: int = 0) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    argv = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--mode", mode, "--seconds", str(seconds),
        "--trace", str(trace), "--spawned-at", repr(time.monotonic()),
    ]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} {mode} worker failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(run: dict, setups: list[float]) -> dict[str, float]:
    """The end-to-end metrics of one timed worker report.

    checks_per_s leaves the out-of-reach cases out of both its count and its
    time, decided or not: the run's budget leaves them out too, so deciding
    them faster or slower does not move the rate of the other checks.  They
    count in decided_share and in the percentiles.
    """
    samples = run["samples_ms"]
    verified = sum(1 for s in samples if math.isfinite(s))
    in_reach = [(s, ms) for s, ms, r in zip(samples, run["ref_ms"], run["in_reach"]) if r]
    return {
        "checks_per_s": sum(1 for s, _ in in_reach if math.isfinite(s))
        / (sum(ms for _, ms in in_reach) / 1000),
        "check_ms_p50": percentile(samples, 0.5)[0],
        "check_ms_p90": percentile(samples, 0.9)[0],
        "decided_share": verified / run["attempted"],
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    probes = [spawn(workload, seed, "setup") for _ in range(SETUP_SAMPLES - 1)]
    run = spawn(workload, seed, "timed", seconds)
    samples = run["samples_ms"]
    verified = sum(1 for s in samples if math.isfinite(s))
    setups = [p["setup_s"] for p in probes] + [run["setup_s"]]
    metrics = summarize(run, setups)
    _, beyond = percentile(samples, 0.9)
    raw_p50, _ = percentile(run["raw_ms"], 0.5)
    slowest = max((s for s in samples if math.isfinite(s)), default=0.0)
    notes = [
        f"{len(samples)} check samples, {beyond} beyond p90, {len(setups)} set-up samples",
        f"slowest decided check {slowest:.0f} ms (time limit {gen.TIME_LIMIT_S * 1000:.0f} ms)",
        f"untraced: {run['wrapped_left']} faircheck names bound to tracing wrappers",
        f"raw wall clock: {verified / run['elapsed_s']:.4g} checks/s over {run['elapsed_s']:.1f} s, "
        f"p50 {raw_p50:.4g} ms; calibration median {statistics.median(run['calibration_ms']):.3f} ms",
    ]
    if beyond < 10:
        notes.append("warning: fewer than 10 samples beyond p90")
    if run["stopped_by"] != "time budget":
        notes.append(f"warning: the timed phase ended at the {run['stopped_by']}")
    notes += [f"unconfirmed: {u}" for u in run["unconfirmed"]]
    problems = list(run["wrong"])
    if run["wrapped_left"]:
        problems.append("untraced run found tracing wrappers installed")
    return _result(workload, [run] + probes, metrics, notes, problems)


def traced(workload: str, seed: int) -> dict:
    plain = spawn(workload, seed, "fixed")
    run = spawn(workload, seed, "fixed", trace=1)
    metrics = dict(run["layers"])
    metrics["trace_overhead_ratio"] = sum(run["ref_ms"]) / sum(plain["ref_ms"])
    notes = [f"{run['attempted']} checks in the fixed trace prefix, "
             f"{plain['elapsed_s']:.3f} s untraced, {run['elapsed_s']:.3f} s traced"]
    problems = plain["wrong"] + run["wrong"]
    notes += [f"unconfirmed: {u}" for u in run["unconfirmed"]]
    if plain["attempted"] != run["attempted"]:
        problems.append("traced and untraced runs attempted different checks")
    return _result(workload, [run, plain], metrics, notes, problems)


def _result(workload, runs, metrics, notes, problems) -> dict:
    main = runs[0]
    if len({r["digest"] for r in runs}) != 1:
        problems.append("processes of one run generated different inputs")
    return {
        "workload": workload,
        "digest": main["digest"],
        "correct": not problems,
        "attempted": main["attempted"],
        "failed": len(main["failed"]),
        "metrics": metrics,
        "notes": notes + [f"undecided (out of reach): {c}" for c in main["undecided_out_of_reach"]]
        + [f"failed: {f}" for f in main["failed"]],
        "problems": problems,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *gen.WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=22)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "faircheck" / "cli.py").is_file():
        print(f"error: no faircheck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        units = declared_metrics(args.trace)
        for name in names:
            if args.trace:
                results.append(traced(name, args.seed))
            else:
                results.append(end_to_end(name, args.seed, args.seconds))
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 1
    for r in results:
        if r["metrics"].keys() != units.keys():
            r["problems"].append(f"metrics differ from BENCHMARK.json: "
                                 f"{sorted(r['metrics'].keys() ^ units.keys())}")
            r["correct"] = False
        print(f"== {r['workload']} (seed {args.seed}, inputs sha256:{r['digest'][:16]})")
        for name, value in r["metrics"].items():
            print(f"  {name:<48} {value:>14.6g} {units.get(name, '?')}")
        for line in r["notes"]:
            print(f"  {line}")
        for line in r["problems"]:
            print(f"  WRONG: {line}")
    prefix = len(results) > 1
    final = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{name}" if prefix else name): {"value": value, "unit": units.get(name, "?")}
            for r in results for name, value in r["metrics"].items()
        },
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
