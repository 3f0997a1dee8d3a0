"""Command-line front end.

Each subcommand has one handler.  A verdict handler returns the reported
arguments, the verdict JSON and whether the claim holds; ``run`` alone wraps
them in a JSON run report (stable key order, suitable for golden files once
the timing field is normalized) and exits 0 when the claim holds, 1 when it
fails.  An artifact handler returns formula or automaton text for ``run`` to
print.  Usage problems and malformed inputs exit 2; a failed synthesis
precondition exits 1 with its reason on stderr and no report.  A broken
internal invariant (a bug in the package, not in the input) exits 3.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

from .automata import (
    Alphabet,
    BuchiAutomaton,
    FinAutomaton,
    InvariantError,
    LassoWord,
    limit,
)
from .pltl import (
    EPS_TOKEN,
    atoms_of,
    evaluate_lasso,
    format_formula,
    Labeling,
    parse_formula,
    to_positive_normal_form,
    transform,
)
from .relprops import (
    PropertySpec,
    Verdict,
    is_machine_closed,
    is_relative_liveness,
    is_relative_safety,
    is_safety_property,
    satisfies,
)
from .abstraction import (
    Homomorphism,
    abstract_behavior,
    compute_xtd,
    is_weakly_continuation_closed,
    preserve_check,
)
from .synthesis import PreconditionFailedError, synthesize_fair_impl, verify_fair_impl
from .formats import (
    format_automaton,
    parse_automaton,
    parse_homomorphism,
)

__all__ = ["main", "run"]

# every input error the package raises is a ValueError; InvariantError is not one
INPUT_ERRORS = (ValueError, OSError)


class _Inputs:
    """Loads input files once and remembers their digests for the report."""

    def __init__(self) -> None:
        self.digests: dict[str, str] = {}

    def read(self, path: str) -> str:
        data = Path(path).read_bytes()
        self.digests[path] = "sha256:" + hashlib.sha256(data).hexdigest()
        return data.decode("utf-8")

    def automaton(self, path: str) -> FinAutomaton | BuchiAutomaton:
        return parse_automaton(self.read(path))

    def finitary(self, path: str) -> FinAutomaton:
        a = self.automaton(path)
        if isinstance(a, BuchiAutomaton):
            raise ValueError(f"{path}: expected a finitary automaton, got buchi")
        return a

    def homomorphism(self, path: str, alphabet: Alphabet) -> Homomorphism:
        return parse_homomorphism(self.read(path), alphabet)


def _behavior(a: FinAutomaton | BuchiAutomaton) -> BuchiAutomaton:
    # finitary files describe systems by their prefix-closed language
    if isinstance(a, BuchiAutomaton):
        return a
    return limit(a)


def _verdict_json(verdict: Verdict) -> dict:
    w = verdict.witness
    if w is not None:
        w = {"lasso": w.as_text()} if isinstance(w, LassoWord) else {"word": list(w)}
    return {"holds": verdict.holds, "witness": w}


def _parse_lasso(text: str) -> LassoWord:
    stem_text, sep, cycle_text = text.partition(";")
    if not sep:
        raise ValueError("lasso must be written as 'stem;cycle'")
    cycle = tuple(cycle_text.split())
    if not cycle:
        raise ValueError("lasso cycle must not be empty")
    return LassoWord(tuple(stem_text.split()), cycle)


def _letters(text: str) -> Alphabet:
    return Alphabet(tuple(text.split()))


def _spec(formula: str, alphabet: Alphabet) -> PropertySpec:
    return PropertySpec.from_formula(parse_formula(formula), alphabet)


def _system_and_hom(args, inputs: _Inputs) -> tuple[FinAutomaton, Homomorphism | None]:
    system = inputs.finitary(args.system)
    if args.hom is None:
        return system, None
    return system, inputs.homomorphism(args.hom, system.alphabet)


def _check(args, inputs):
    system = _behavior(inputs.automaton(args.system))
    p = _spec(args.formula, system.alphabet)
    decide = {"rl": is_relative_liveness, "rs": is_relative_safety, "sat": satisfies}
    verdict = decide[args.kind](system, p)
    reported = {"kind": args.kind, "system": args.system, "formula": args.formula}
    return reported, _verdict_json(verdict), verdict.holds


def _machine_closed(args, inputs):
    system = _behavior(inputs.automaton(args.system))
    sub = _behavior(inputs.automaton(args.sub))
    verdict = is_machine_closed(system, sub)
    return {"system": args.system, "sub": args.sub}, _verdict_json(verdict), verdict.holds


def _safety_class(args, inputs):
    if args.alphabet is not None:
        alphabet = _letters(args.alphabet)
    else:
        alphabet = inputs.automaton(args.system).alphabet
    safe = is_safety_property(_spec(args.formula, alphabet))
    reported = {"formula": args.formula, "alphabet": " ".join(alphabet.symbols)}
    return reported, {"is_safety": safe}, safe


def _abstract(args, inputs):
    return format_automaton(abstract_behavior(*_system_and_hom(args, inputs)))


def _wcc(args, inputs):
    report = is_weakly_continuation_closed(*_system_and_hom(args, inputs))
    verdict = {
        "closed": report.closed,
        "violations": [
            {"system_state": s, "abstract_state": d, "word": list(w)}
            for s, d, w in report.violations
        ],
    }
    return {"system": args.system, "hom": args.hom}, verdict, report.closed


def _preserve(args, inputs):
    system, h = _system_and_hom(args, inputs)
    report = preserve_check(system, h, parse_formula(args.formula))
    verdict = {
        "wcc_closed": report.wcc.closed,
        "abstract_holds": report.abstract_holds,
        "concrete_holds": report.concrete_holds,
        "equivalence_certified": report.equivalence_certified,
        "note": report.note,
    }
    reported = {"system": args.system, "hom": args.hom, "formula": args.formula}
    return reported, verdict, report.equivalence_certified


def _transform(args, inputs):
    f = parse_formula(args.formula)
    out = to_positive_normal_form(f) if args.mode == "pnf" else transform(f, args.mode)
    return format_formula(out) + "\n"


def _xtd(args, inputs):
    system, h = _system_and_hom(args, inputs)
    return format_automaton(compute_xtd(system, hom=h))


def _synthesize(args, inputs):
    system = inputs.finitary(args.system)
    impl = synthesize_fair_impl(system, _spec(args.formula, system.alphabet))
    return format_automaton(impl)


def _verify_impl(args, inputs):
    marked = inputs.automaton(args.impl)
    if not isinstance(marked, BuchiAutomaton):
        raise ValueError(
            f"{args.impl}: an implementation file must be 'acceptance: buchi' "
            "with the fairness marks as accepting states"
        )
    system = inputs.finitary(args.system)
    verdict = verify_fair_impl(marked, system, _spec(args.formula, system.alphabet))
    reported = {"impl": args.impl, "system": args.system, "formula": args.formula}
    return reported, _verdict_json(verdict), verdict.holds


def _eval(args, inputs):
    f = parse_formula(args.formula)
    x = _parse_lasso(args.lasso)
    if args.alphabet is not None:
        alphabet = _letters(args.alphabet)
    else:
        letters = set(x.stem) | set(x.cycle)
        letters |= {a for a in atoms_of(f) if a != EPS_TOKEN}
        alphabet = Alphabet(tuple(sorted(letters)))
    holds = evaluate_lasso(x, Labeling.canonical(alphabet), f)
    reported = {"formula": args.formula, "lasso": args.lasso}
    return reported, {"holds": holds, "witness": None}, holds


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faircheck",
        description="Temporal properties within fairness, abstractions, synthesis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        return p

    check = command("check", _check, "relative liveness, relative safety, satisfaction")
    check.add_argument("kind", choices=["rl", "rs", "sat"])
    check.add_argument("--system", required=True, metavar="FILE.aut")
    check.add_argument("--formula", required=True)

    mc = command(
        "machine-closed", _machine_closed, "prefixes of the system all extend into the sublanguage"
    )
    mc.add_argument("--system", required=True, metavar="FILE.aut")
    mc.add_argument("--sub", required=True, metavar="FILE.aut")

    sc = command("safety-class", _safety_class, "is the property a safety property")
    sc.add_argument("--formula", required=True)
    group = sc.add_mutually_exclusive_group(required=True)
    group.add_argument("--alphabet", help="space-separated letters")
    group.add_argument("--system", metavar="FILE.aut", help="borrow this file's alphabet")

    ab = command("abstract", _abstract, "print the image system under a homomorphism")
    ab.add_argument("--system", required=True, metavar="FILE.aut")
    ab.add_argument("--hom", required=True, metavar="FILE.hom")

    wc = command("wcc", _wcc, "is the homomorphism weakly continuation-closed on the system")
    wc.add_argument("--system", required=True, metavar="FILE.aut")
    wc.add_argument("--hom", required=True, metavar="FILE.hom")

    pv = command("preserve", _preserve, "transfer a verdict across the abstraction boundary")
    pv.add_argument("--system", required=True, metavar="FILE.aut")
    pv.add_argument("--hom", required=True, metavar="FILE.hom")
    pv.add_argument("--formula", required=True)

    tr = command("transform", _transform, "print a transformed formula")
    tr.add_argument("--formula", required=True)
    tr.add_argument("--mode", required=True, choices=["N", "T", "R", "pnf"])

    xt = command("xtd", _xtd, "print the #-padded system")
    xt.add_argument("--system", required=True, metavar="FILE.aut")
    xt.add_argument("--hom", metavar="FILE.hom")

    sy = command("synthesize", _synthesize, "print a fair implementation (marks as accepting states)")
    sy.add_argument("--system", required=True, metavar="FILE.aut")
    sy.add_argument("--formula", required=True)

    vi = command(
        "verify-impl", _verify_impl, "check a marked implementation against system and property"
    )
    vi.add_argument("--impl", required=True, metavar="FILE.aut")
    vi.add_argument("--system", required=True, metavar="FILE.aut")
    vi.add_argument("--formula", required=True)

    ev = command("eval", _eval, "evaluate a formula on one ultimately periodic word")
    ev.add_argument("--formula", required=True)
    ev.add_argument("--lasso", required=True, metavar='"stem;cycle"')
    ev.add_argument("--alphabet", help="space-separated letters (default: inferred)")
    return parser


def run(argv: list[str]) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.monotonic()
    inputs = _Inputs()
    try:
        result = args.handler(args, inputs)
        if isinstance(result, str):
            print(result, end="")
            return 0
        reported, verdict, holds = result
        report = {
            "command": args.command,
            "args": reported,
            "inputs": inputs.digests,
            "verdict": verdict,
            "elapsed_ms": int((time.monotonic() - started) * 1000),
        }
        print(json.dumps(report, indent=2))
        return 0 if holds else 1
    except PreconditionFailedError as exc:
        print(f"synthesis precondition failed: {exc}", file=sys.stderr)
        return 1
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def main(argv: list[str] | None = None) -> None:
    raise SystemExit(run(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    main()
