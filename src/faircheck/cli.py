"""Command-line front end.

Verdict-producing subcommands print a JSON run report (stable key order,
suitable for golden files once the timing field is normalized) and exit 0
when the check holds, 1 when it fails; artifact-producing subcommands print
formula or automaton text.  Usage problems and malformed inputs exit 2.
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
    LassoWord,
    canonicalize,
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
from .synthesis import (
    FairLts,
    PreconditionFailedError,
    synthesize_fair_impl,
    verify_fair_impl,
)
from .formats import (
    format_automaton,
    parse_automaton,
    parse_homomorphism,
)

__all__ = ["main", "run"]

# every input error the package raises is a ValueError
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
    return limit(canonicalize(a))


def _witness_json(witness):
    if witness is None:
        return None
    if isinstance(witness, LassoWord):
        return {"lasso": witness.as_text()}
    return {"word": list(witness)}


def _verdict_json(verdict: Verdict) -> dict:
    return {"holds": verdict.holds, "witness": _witness_json(verdict.witness)}


def _parse_lasso(text: str) -> LassoWord:
    stem_text, sep, cycle_text = text.partition(";")
    if not sep:
        raise ValueError("lasso must be written as 'stem;cycle'")
    cycle = tuple(cycle_text.split())
    if not cycle:
        raise ValueError("lasso cycle must not be empty")
    return LassoWord(tuple(stem_text.split()), cycle)


def _emit_report(
    command: str, args: dict, inputs: _Inputs, verdict: dict, started: float
) -> None:
    report = {
        "command": command,
        "args": args,
        "inputs": inputs.digests,
        "verdict": verdict,
        "elapsed_ms": int((time.monotonic() - started) * 1000),
    }
    print(json.dumps(report, indent=2))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faircheck",
        description="Temporal properties within fairness, abstractions, synthesis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="relative liveness, relative safety, satisfaction")
    check.add_argument("kind", choices=["rl", "rs", "sat"])
    check.add_argument("--system", required=True, metavar="FILE.aut")
    check.add_argument("--formula", required=True)

    mc = sub.add_parser("machine-closed", help="prefixes of the system all extend into the sublanguage")
    mc.add_argument("--system", required=True, metavar="FILE.aut")
    mc.add_argument("--sub", required=True, metavar="FILE.aut")

    sc = sub.add_parser("safety-class", help="is the property a safety property")
    sc.add_argument("--formula", required=True)
    group = sc.add_mutually_exclusive_group(required=True)
    group.add_argument("--alphabet", help="space-separated letters")
    group.add_argument("--system", metavar="FILE.aut", help="borrow this file's alphabet")

    ab = sub.add_parser("abstract", help="print the image system under a homomorphism")
    ab.add_argument("--system", required=True, metavar="FILE.aut")
    ab.add_argument("--hom", required=True, metavar="FILE.hom")

    wc = sub.add_parser("wcc", help="is the homomorphism weakly continuation-closed on the system")
    wc.add_argument("--system", required=True, metavar="FILE.aut")
    wc.add_argument("--hom", required=True, metavar="FILE.hom")

    pv = sub.add_parser("preserve", help="transfer a verdict across the abstraction boundary")
    pv.add_argument("--system", required=True, metavar="FILE.aut")
    pv.add_argument("--hom", required=True, metavar="FILE.hom")
    pv.add_argument("--formula", required=True)

    tr = sub.add_parser("transform", help="print a transformed formula")
    tr.add_argument("--formula", required=True)
    tr.add_argument("--mode", required=True, choices=["N", "T", "R", "pnf"])

    xt = sub.add_parser("xtd", help="print the #-padded system")
    xt.add_argument("--system", required=True, metavar="FILE.aut")
    xt.add_argument("--hom", metavar="FILE.hom")

    sy = sub.add_parser("synthesize", help="print a fair implementation (marks as accepting states)")
    sy.add_argument("--system", required=True, metavar="FILE.aut")
    sy.add_argument("--formula", required=True)

    vi = sub.add_parser("verify-impl", help="check a marked implementation against system and property")
    vi.add_argument("--impl", required=True, metavar="FILE.aut")
    vi.add_argument("--system", required=True, metavar="FILE.aut")
    vi.add_argument("--formula", required=True)

    ev = sub.add_parser("eval", help="evaluate a formula on one ultimately periodic word")
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
        return _dispatch(args, inputs, started)
    except PreconditionFailedError as exc:
        print(f"synthesis precondition failed: {exc}", file=sys.stderr)
        return 1
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace, inputs: _Inputs, started: float) -> int:
    if args.command == "check":
        system = _behavior(inputs.automaton(args.system))
        p = PropertySpec.from_formula(parse_formula(args.formula), system.alphabet)
        decide = {
            "rl": is_relative_liveness,
            "rs": is_relative_safety,
            "sat": satisfies,
        }[args.kind]
        verdict = decide(system, p)
        _emit_report(
            "check",
            {"kind": args.kind, "system": args.system, "formula": args.formula},
            inputs,
            _verdict_json(verdict),
            started,
        )
        return 0 if verdict else 1

    if args.command == "machine-closed":
        system = _behavior(inputs.automaton(args.system))
        sub = _behavior(inputs.automaton(args.sub))
        verdict = is_machine_closed(system, sub)
        _emit_report(
            "machine-closed",
            {"system": args.system, "sub": args.sub},
            inputs,
            _verdict_json(verdict),
            started,
        )
        return 0 if verdict else 1

    if args.command == "safety-class":
        if args.alphabet is not None:
            alphabet = Alphabet(tuple(args.alphabet.split()))
        else:
            alphabet = inputs.automaton(args.system).alphabet
        p = PropertySpec.from_formula(parse_formula(args.formula), alphabet)
        safe = is_safety_property(p, alphabet)
        _emit_report(
            "safety-class",
            {"formula": args.formula, "alphabet": " ".join(alphabet.symbols)},
            inputs,
            {"is_safety": safe},
            started,
        )
        return 0 if safe else 1

    if args.command == "abstract":
        system = inputs.finitary(args.system)
        h = inputs.homomorphism(args.hom, system.alphabet)
        print(format_automaton(abstract_behavior(system, h)), end="")
        return 0

    if args.command == "wcc":
        system = inputs.finitary(args.system)
        h = inputs.homomorphism(args.hom, system.alphabet)
        report = is_weakly_continuation_closed(system, h)
        verdict = {
            "closed": report.closed,
            "violations": [
                {"system_state": s, "abstract_state": d, "word": list(w)}
                for s, d, w in report.violations
            ],
        }
        _emit_report(
            "wcc", {"system": args.system, "hom": args.hom}, inputs, verdict, started
        )
        return 0 if report.closed else 1

    if args.command == "preserve":
        system = inputs.finitary(args.system)
        h = inputs.homomorphism(args.hom, system.alphabet)
        report = preserve_check(system, h, parse_formula(args.formula))
        verdict = {
            "wcc_closed": report.wcc.closed,
            "abstract_holds": report.abstract_holds,
            "concrete_holds": report.concrete_holds,
            "equivalence_certified": report.equivalence_certified,
            "note": report.note,
        }
        _emit_report(
            "preserve",
            {"system": args.system, "hom": args.hom, "formula": args.formula},
            inputs,
            verdict,
            started,
        )
        return 0 if report.equivalence_certified else 1

    if args.command == "transform":
        f = parse_formula(args.formula)
        out = to_positive_normal_form(f) if args.mode == "pnf" else transform(f, args.mode)
        print(format_formula(out))
        return 0

    if args.command == "xtd":
        system = inputs.finitary(args.system)
        h = None
        if args.hom is not None:
            h = inputs.homomorphism(args.hom, system.alphabet)
        print(format_automaton(compute_xtd(system, hom=h)), end="")
        return 0

    if args.command == "synthesize":
        system = inputs.finitary(args.system)
        p = PropertySpec.from_formula(parse_formula(args.formula), system.alphabet)
        impl = synthesize_fair_impl(system, p)
        print(format_automaton(impl.as_buchi()), end="")
        return 0

    if args.command == "verify-impl":
        marked = inputs.automaton(args.impl)
        if not isinstance(marked, BuchiAutomaton):
            raise ValueError(
                f"{args.impl}: an implementation file must be 'acceptance: buchi' "
                "with the fairness marks as accepting states"
            )
        impl = FairLts(
            marked._recast(FinAutomaton, accepting=marked.states), marked.accepting
        )
        system = inputs.finitary(args.system)
        p = PropertySpec.from_formula(parse_formula(args.formula), system.alphabet)
        verdict = verify_fair_impl(impl, system, p)
        _emit_report(
            "verify-impl",
            {"impl": args.impl, "system": args.system, "formula": args.formula},
            inputs,
            _verdict_json(verdict),
            started,
        )
        return 0 if verdict else 1

    if args.command == "eval":
        f = parse_formula(args.formula)
        x = _parse_lasso(args.lasso)
        if args.alphabet is not None:
            alphabet = Alphabet(tuple(args.alphabet.split()))
        else:
            letters = set(x.stem) | set(x.cycle)
            letters |= {a for a in atoms_of(f) if a != EPS_TOKEN}
            alphabet = Alphabet(tuple(sorted(letters)))
        holds = evaluate_lasso(x, Labeling.canonical(alphabet), f)
        _emit_report(
            "eval",
            {"formula": args.formula, "lasso": args.lasso},
            inputs,
            {"holds": holds, "witness": None},
            started,
        )
        return 0 if holds else 1

    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: list[str] | None = None) -> None:
    raise SystemExit(run(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    main()
