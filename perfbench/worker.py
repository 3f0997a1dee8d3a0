"""One workload process: set up, run checks in a closed loop, verify, report.

Started by run.py in a fresh interpreter per measurement.  Prints one JSON
object with the raw samples on its last stdout line.

Modes:
  setup   stop once the inputs are written (a set-up time sample)
  timed   run the case stream until it has spent --seconds of check time,
          counted at the reference speed (see calibrate)
  fixed   run the workload's fixed trace prefix, however long it takes
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402  (the generator never imports faircheck)


class CheckTimeout(BaseException):
    """Raised by the per-check alarm.

    Derives from BaseException so that no handler inside the program, which
    catches input errors including ValueError, can swallow it.
    """


def _alarm(signum, frame):
    raise CheckTimeout()


# Machine speed, measured between checks.  On a shared host the same check
# can take 1.7 times longer for seconds at a time; timing each check against
# the speed measured around it makes runs comparable.
CALIBRATION_REF_S = 0.0015  # the calibration work at the reference speed
CALIBRATION_WINDOW = 9      # calibrations around a check whose median is its speed
WALL_CAP_FACTOR = 3.5       # a timed run stops after this many --seconds of wall time
LONG_CHECK_S = 1.0          # checks longer than this are timed at the run's median speed


def calibrate() -> float:
    """Seconds one fixed piece of pure-Python work, shaped like set and dict
    heavy automaton code, takes right now."""
    start = time.perf_counter()
    seen, table = set(), {}
    for i in range(1500):
        key = (i * 7919) % 4099
        table[key] = table.get(key, 0) + 1
        seen.add(frozenset((key, key >> 3, i & 7)))
    return time.perf_counter() - start


def settled_calibrations() -> list[float]:
    """One window of calibrations, after the first ones of a fresh process,
    which run slow."""
    return [calibrate() for _ in range(3 * CALIBRATION_WINDOW)][-CALIBRATION_WINDOW:]


def run_check(cli, argv, limit_s: float):
    """One in-process ``cli.run`` call; returns (status, exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(list(argv))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        status = "ok" if code in (0, 1) else f"exit {code}"
    except CheckTimeout:
        status = "timeout"
    except Exception as exc:  # an uncaught program error counts as a failed check
        status = f"crash {exc!r}"
    return status, code, out.getvalue(), time.perf_counter() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=["setup", "timed", "fixed"])
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import faircheck.cli as cli  # noqa: F401  (imports every layer)

    workload = gen.WORKLOADS[args.workload](args.seed)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.mode}-{os.getpid()}"
    work.mkdir(parents=True)
    os.chdir(work)
    written: set[str] = set()
    write_inputs(workload, workload.cases[0].argv, written)
    setup_s = time.monotonic() - args.spawned_at
    speed = sorted(settled_calibrations())
    slowdown = speed[len(speed) // 2] / CALIBRATION_REF_S
    report = {"setup_s": setup_s / slowdown, "digest": workload.digest()}
    try:
        if args.mode != "setup":
            report.update(_measure(cli, workload, args, written))
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report))
    return 0


def write_inputs(workload: gen.Workload, argv, written: set[str]) -> None:
    """Write the input files a check names that are not written yet.

    Set-up writes those of the first check; the rest are written between
    checks, untimed, so that a long stream's unused tail costs nothing.
    """
    for token in argv:
        if token in workload.files and token not in written:
            Path(token).write_text(workload.files[token])
            written.add(token)


def _measure(cli, workload: gen.Workload, args, written: set[str]) -> dict:
    import spans

    signal.signal(signal.SIGALRM, _alarm)
    if args.mode == "fixed":
        chosen = workload.trace_cases
    else:
        chosen = range(len(workload.cases))
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    results: dict[int, tuple[str, int | None, str, float]] = {}
    ok_exit0: set[int] = set()
    calibrations = settled_calibrations()
    start = time.perf_counter()
    wall_cap = start + WALL_CAP_FACTOR * args.seconds
    ref_spent = 0.0
    stopped_by = "end of the case list"
    for i in chosen:
        if args.mode == "timed" and ref_spent >= args.seconds:
            stopped_by = "time budget"
            break
        if args.mode == "timed" and time.perf_counter() >= wall_cap:
            stopped_by = "wall-clock cap"
            break
        case = workload.cases[i]
        after = case.refs.get("after")
        if after is not None and after not in ok_exit0:
            continue
        write_inputs(workload, case.argv, written)
        calibrations.append(calibrate())
        recent = sorted(calibrations[-CALIBRATION_WINDOW:])
        slowdown = recent[len(recent) // 2] / CALIBRATION_REF_S
        status, code, out, seconds = run_check(cli, case.argv, gen.TIME_LIMIT_S * slowdown)
        if not case.out_of_reach:
            # out-of-reach cases stay out of the budget and the rate, decided or not
            ref_spent += seconds / slowdown
        results[i] = (status, code, out, seconds)
        if status == "ok" and code == 0:
            ok_exit0.add(i)
            if "writes" in case.refs:
                Path(case.refs["writes"]).write_text(out)
    calibrations.append(calibrate())
    elapsed = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()
    wrapped_left = spans.wrapped_count()

    import verify
    from faircheck.automata import Alphabet
    from faircheck.pltl import parse_formula, to_buchi

    verifier = verify.Verifier(
        workload,
        to_buchi_positive=lambda f, letters: to_buchi(parse_formula(f), Alphabet(tuple(letters)))[0],
    )
    errors = verifier.judge({i: (r[1], r[2]) for i, r in results.items() if r[0] == "ok"})
    samples, raw_ms, ref_ms, in_reach = [], [], [], []
    failed, out_of_reach = [], []
    half = CALIBRATION_WINDOW // 2
    run_speed = sorted(calibrations)[len(calibrations) // 2]
    for k, i in enumerate(results):
        status, code, out, seconds = results[i]
        # calibrations[CALIBRATION_WINDOW + k] ran just before check k
        centre = CALIBRATION_WINDOW + k
        window = sorted(calibrations[centre - half: centre + half + 1])
        if status == "timeout":
            at_ref = gen.TIME_LIMIT_S  # the limit is set in reference seconds
        elif seconds > LONG_CHECK_S:
            # a long check outlasts many changes of machine speed; the run's
            # median calibration estimates its mean speed better than the few
            # calibrations next to it
            at_ref = seconds * CALIBRATION_REF_S / run_speed
        else:
            at_ref = seconds * CALIBRATION_REF_S / window[len(window) // 2]
        raw_ms.append(seconds * 1000)
        ref_ms.append(at_ref * 1000)
        in_reach.append(not workload.cases[i].out_of_reach)
        if status == "ok":
            samples.append(at_ref * 1000)
            continue
        samples.append(float("inf"))
        if status == "timeout" and workload.cases[i].out_of_reach:
            out_of_reach.append(" ".join(workload.cases[i].argv))
        else:
            failed.append(f"case {i} {' '.join(workload.cases[i].argv)}: {status}")
    report = {
        "elapsed_s": elapsed,
        "attempted": len(results),
        "samples_ms": samples,
        "raw_ms": raw_ms,
        "ref_ms": ref_ms,
        "in_reach": in_reach,
        "calibration_ms": [c * 1000 for c in calibrations],
        "failed": failed,
        "undecided_out_of_reach": out_of_reach,
        "wrong": errors,
        "unconfirmed": verifier.unconfirmed,
        "peak_rss_mb": peak_rss_mb,
        "wrapped_left": wrapped_left,
        "stopped_by": stopped_by,
    }
    if tracer:
        # layer times at reference speed, scaled by the run's median calibration
        speed = run_speed / CALIBRATION_REF_S
        report["layers"] = {
            name: value / speed if name.endswith(("_s", ".s")) else value
            for name, value in tracer.metrics().items()
        }
        tracer.write_spans(ROOT / ".perfbench_work" / f"spans-{workload.name}.jsonl")
    return report


if __name__ == "__main__":
    sys.exit(main())
