"""Command-line behavior: reports, exit codes, artifacts, diagnostics."""

import hashlib
import importlib
import json
import os
import pkgutil
import random
import re
import runpy
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import faircheck
import gen
import oracles
from faircheck.automata import (
    Alphabet,
    BuchiAutomaton,
    FinAutomaton,
    InvariantError,
    LassoWord,
    canonicalize,
    language_equal,
    lasso_membership,
    limit,
)
from faircheck.abstraction import Homomorphism, abstract_behavior
from faircheck import abstraction, automata, cli, formats, pltl, relprops
from faircheck.cli import run
from faircheck.formats import (
    AutFormatError,
    HomFormatError,
    format_automaton,
    parse_automaton,
    parse_homomorphism,
)
from faircheck.pltl import MAX_FORMULA_DEPTH, Labeling, evaluate_lasso, parse_formula
from faircheck.synthesis import PreconditionFailedError

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
FIG2 = str(FIXTURES / "fig2.aut")
FIG3 = str(FIXTURES / "fig3.aut")
HIDE = str(FIXTURES / "hide.hom")


def digest(path: str) -> str:
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


def report_of(capsys) -> dict:
    out = capsys.readouterr().out
    report = json.loads(out)
    assert isinstance(report.pop("elapsed_ms"), int)
    return report


class TestCheckReports:
    def test_relative_liveness_of_the_releasing_server(self, capsys):
        code = run(["check", "rl", "--system", FIG2, "--formula", "G F result"])
        assert code == 0
        assert report_of(capsys) == {
            "command": "check",
            "args": {"kind": "rl", "system": FIG2, "formula": "G F result"},
            "inputs": {FIG2: digest(FIG2)},
            "verdict": {"holds": True, "witness": None},
        }

    def test_plain_satisfaction_fails_with_a_computation(self, capsys):
        code = run(["check", "sat", "--system", FIG2, "--formula", "G F result"])
        assert code == 1
        report = report_of(capsys)
        witness = report["verdict"]["witness"]["lasso"]
        assert not report["verdict"]["holds"]
        stem_text, cycle_text = witness.split(";")
        x = LassoWord(tuple(stem_text.split()), tuple(cycle_text.split()))
        system = limit(canonicalize(gen.releasing_server()))
        assert lasso_membership(x, system)
        assert not evaluate_lasso(
            x,
            Labeling.canonical(gen.SERVER_SIGMA),
            parse_formula("G F result"),
        )

    @pytest.mark.parametrize(
        "kind, formula",
        [
            ("sat", "G !reject"),
            ("sat", "G (lock -> X free)"),
            ("rs", "G (request -> F result)"),
            ("sat", "G (request -> F result)"),
        ],
    )
    def test_witnesses_are_the_smallest_lasso(self, capsys, kind, formula):
        # the budgeted refinement must not spend its candidates on cycles no
        # run survives, or it falls back to the longer "lock;request no reject"
        assert run(["check", kind, "--system", FIG2, "--formula", formula]) == 1
        witness = report_of(capsys)["verdict"]["witness"]["lasso"]
        assert witness == ";lock request no reject free"
        x = LassoWord((), ("lock", "request", "no", "reject", "free"))
        assert oracles.buchi_accepts_lasso(limit(canonicalize(gen.releasing_server())), x)
        labeling = Labeling.canonical(gen.SERVER_SIGMA)
        assert not evaluate_lasso(x, labeling, parse_formula(formula))

    def test_the_rs_witness_checks_the_acceptance_of_few_cycles(self, capsys, monkeypatch):
        # the refinement meets many cycles before the witness, and most die
        # on their second pass: those get no acceptance check
        real, checked = automata._accepts_periodic, []

        def check(*args):  # (b, start mask, cycle)
            checked.append(args[2])
            return real(*args)

        monkeypatch.setattr(automata, "_accepts_periodic", check)
        formula = "G (request -> F result)"
        assert run(["check", "rs", "--system", FIG2, "--formula", formula]) == 1
        assert report_of(capsys)["verdict"]["witness"]["lasso"] == ";lock request no reject free"
        assert len(checked) <= 5

    def test_witness_on_a_ring_longer_than_the_recursion_limit(self, tmp_path, capsys):
        # one computation, the ring word repeated: the refinement walks one
        # live cycle per length and must reach the ring's length (beyond
        # sys.getrecursionlimit()) or give up, returning the baseline either way
        n = 1100
        draw = random.Random(7)
        ring = [draw.choice("ab") for _ in range(n)]
        path = tmp_path / "ring.aut"
        path.write_text(
            "alphabet: a b\nstates: "
            + " ".join(f"s{i}" for i in range(n))
            + "\ninitial: s0\n"
            + "".join(f"trans: s{i} {x} s{(i + 1) % n}\n" for i, x in enumerate(ring))
        )
        assert run(["check", "sat", "--system", str(path), "--formula", "G a"]) == 1
        assert report_of(capsys)["verdict"]["witness"]["lasso"] == ";" + " ".join(ring)

    def test_trapping_server_fails_relative_liveness_at_lock(self, capsys):
        code = run(["check", "rl", "--system", FIG3, "--formula", "G F result"])
        assert code == 1
        report = report_of(capsys)
        assert report["verdict"] == {"holds": False, "witness": {"word": ["lock"]}}

    def test_buchi_system_files_are_used_directly(self, tmp_path, capsys):
        path = tmp_path / "aloop.aut"
        path.write_text(
            "alphabet: a b\nacceptance: buchi\nstates: s0\ninitial: s0\n"
            "accepting: s0\ntrans: s0 a s0\n"
        )
        code = run(["check", "sat", "--system", str(path), "--formula", "G a"])
        assert code == 0
        assert report_of(capsys)["verdict"]["holds"] is True


OPEN_FORMULAS = ("G F b", "F G a", "G (a -> F b)", "a U b", "G F a & F b", "X b")


def _write_system(tmp_path, name: str, a: BuchiAutomaton) -> str:
    path = tmp_path / name
    path.write_text(format_automaton(a))
    return str(path)


def _random_open_buchi(rng, max_states: int) -> BuchiAutomaton:
    """A random Buchi automaton over a b with at least one non-accepting state."""
    b = gen.random_buchi(rng, gen.letters(2), max_states=max_states)
    accepting = set(b.accepting)
    if len(accepting) == b.n_states:
        accepting.discard(rng.randrange(b.n_states))
    return BuchiAutomaton(b.alphabet, b.n_states, b.initial, accepting, b.transitions)


class TestOpenBuchiSystems:
    """`acceptance: buchi` system files that do not accept in every state.

    Such a system is used as given, so `check` and `machine-closed` take the
    paths where both operands of a product have an acceptance condition.
    """

    def _verdict(self, capsys, argv) -> dict:
        code = run(argv)
        verdict = report_of(capsys)["verdict"]
        assert code == (0 if verdict["holds"] else 1)
        return verdict

    def test_eventually_only_a_on_the_a_recurring_system(self, tmp_path, capsys):
        # s0 -a-> s0, s0 -b-> s1, s1 -a-> s0, s1 -b-> s1, accepting s0: the
        # words with infinitely many a
        path = tmp_path / "arecur.aut"
        path.write_text(
            "alphabet: a b\nacceptance: buchi\nstates: s0 s1\ninitial: s0\n"
            "accepting: s0\ntrans: s0 a s0\ntrans: s0 b s1\n"
            "trans: s1 a s0\ntrans: s1 b s1\n"
        )
        argv = ["--system", str(path), "--formula", "G F b"]
        assert self._verdict(capsys, ["check", "rl", *argv]) == {"holds": True, "witness": None}
        for kind in ("rs", "sat"):
            verdict = self._verdict(capsys, ["check", kind, *argv])
            assert verdict == {"holds": False, "witness": {"lasso": ";a"}}
        system = parse_automaton(path.read_text())
        p = relprops.PropertySpec.from_formula(parse_formula("G F b"), system.alphabet)
        x = LassoWord((), ("a",))
        assert oracles.buchi_accepts_lasso(system, x)
        assert oracles.buchi_accepts_lasso(p.complement, x)
        assert oracles.brute_rl(system, p.positive)

    def test_check_verdicts_against_the_oracles(self, tmp_path, capsys, rng):
        outcomes = set()
        for i in range(40):
            system = _random_open_buchi(rng, 4)
            path = _write_system(tmp_path, f"open{i}.aut", system)
            formula = rng.choice(OPEN_FORMULAS)
            p = relprops.PropertySpec.from_formula(parse_formula(formula), system.alphabet)
            labeling = Labeling.canonical(system.alphabet)
            holds = {}
            for kind in ("rl", "rs", "sat"):
                argv = ["check", kind, "--system", path, "--formula", formula]
                verdict = self._verdict(capsys, argv)
                holds[kind] = verdict["holds"]
                outcomes.add((kind, verdict["holds"]))
                if verdict["holds"]:
                    continue
                if kind == "rl":
                    # a prefix of a system computation; brute_rl below referees the verdict
                    word = tuple(verdict["witness"]["word"])
                    reached = oracles.states_reached(system, system.initial, word)
                    assert reached & oracles._live_states(system)
                    continue
                stem_text, cycle_text = verdict["witness"]["lasso"].split(";")
                x = LassoWord(tuple(stem_text.split()), tuple(cycle_text.split()))
                assert oracles.buchi_accepts_lasso(system, x)
                assert oracles.buchi_accepts_lasso(p.complement, x)
                assert not evaluate_lasso(x, labeling, parse_formula(formula))
            assert holds["rl"] == oracles.brute_rl(system, p.positive)
            assert holds["sat"] == (holds["rl"] and holds["rs"])
        assert len(outcomes) == 6

    def test_machine_closed_against_the_oracle(self, tmp_path, capsys, rng):
        outcomes = set()
        for i in range(40):
            system, sub = _random_open_buchi(rng, 4), _random_open_buchi(rng, 3)
            argv = [
                "machine-closed",
                "--system",
                _write_system(tmp_path, f"system{i}.aut", system),
                "--sub",
                _write_system(tmp_path, f"sub{i}.aut", sub),
            ]
            verdict = self._verdict(capsys, argv)
            outcomes.add(verdict["holds"])
            assert verdict["holds"] == oracles.brute_rl(system, sub)
            if not verdict["holds"]:
                word = tuple(verdict["witness"]["word"])
                reached = oracles.states_reached(system, system.initial, word)
                assert reached & oracles._live_states(system)
        assert outcomes == {True, False}


class TestWccAndPreserve:
    def test_releasing_abstraction_is_closed(self, capsys):
        assert run(["wcc", "--system", FIG2, "--hom", HIDE]) == 0
        report = report_of(capsys)
        assert report["verdict"] == {"closed": True, "violations": []}

    def test_trapping_abstraction_reports_violation_pairs(self, capsys):
        assert run(["wcc", "--system", FIG3, "--hom", HIDE]) == 1
        report = report_of(capsys)
        assert report["verdict"]["closed"] is False
        words = [tuple(v["word"]) for v in report["verdict"]["violations"]]
        assert words == [
            ("lock",),
            ("lock", "request"),
            ("lock", "request", "no"),
        ]

    def test_preserve_certifies_the_releasing_server(self, capsys):
        code = run(
            ["preserve", "--system", FIG2, "--hom", HIDE, "--formula", "G F result"]
        )
        assert code == 0
        assert report_of(capsys)["verdict"] == {
            "wcc_closed": True,
            "abstract_holds": True,
            "concrete_holds": True,
            "equivalence_certified": True,
            "note": None,
        }

    def test_preserve_flags_the_trapping_server(self, capsys):
        code = run(
            ["preserve", "--system", FIG3, "--hom", HIDE, "--formula", "G F result"]
        )
        assert code == 1
        verdict = report_of(capsys)["verdict"]
        assert verdict["wcc_closed"] is False
        assert verdict["abstract_holds"] and not verdict["concrete_holds"]
        assert not verdict["equivalence_certified"]
        assert "concrete" in verdict["note"]

    def test_preserve_hidden_steps_do_not_discharge_an_implication(
        self, tmp_path, capsys
    ):
        # a -> b holds wherever a does not, so at the hidden c too; the one
        # visible behaviour is a forever, on which F (a -> b) fails
        system, hom = tmp_path / "ca.aut", tmp_path / "hide_c.hom"
        system.write_text(
            "alphabet: a b c\nstates: s0 s1\ninitial: s0\n"
            "trans: s0 c s1\ntrans: s1 a s1\n"
        )
        hom.write_text("a -> a\nb -> b\nc -> eps\n")
        for formula in ("F (a -> b)", "F (!a | b)"):
            code = run(
                ["preserve", "--system", str(system), "--hom", str(hom),
                 "--formula", formula]
            )
            assert code == 0
            assert report_of(capsys)["verdict"] == {
                "wcc_closed": True,
                "abstract_holds": False,
                "concrete_holds": False,
                "equivalence_certified": True,
                "note": None,
            }

    def test_a_finitary_system_is_read_in_two_ways(self, tmp_path, capsys):
        # README, "Command line": check reads a finitary system as the limit
        # of its language, where the computation that stops after a is no
        # behaviour, so G F b holds for want of any; preserve pads that
        # maximal word with # first, and G F b fails on a #^omega
        system, hom = tmp_path / "stops.aut", tmp_path / "identity.hom"
        system.write_text("alphabet: a b\nstates: s0 s1\ninitial: s0\ntrans: s0 a s1\n")
        hom.write_text("a -> a\nb -> b\n")
        assert run(["check", "rl", "--system", str(system), "--formula", "G F b"]) == 0
        assert report_of(capsys)["verdict"]["holds"] is True
        code = run(["preserve", "--system", str(system), "--hom", str(hom), "--formula", "G F b"])
        assert code == 0
        assert report_of(capsys)["verdict"] == {
            "wcc_closed": True,
            "abstract_holds": False,
            "concrete_holds": False,
            "equivalence_certified": True,
            "note": None,
        }


class TestOtherVerdicts:
    def test_machine_closed_against_own_fair_part(self, tmp_path, capsys):
        impl_path = tmp_path / "impl.aut"
        assert run(["synthesize", "--system", FIG2, "--formula", "G F result"]) == 0
        impl_path.write_text(capsys.readouterr().out)
        code = run(["machine-closed", "--system", FIG2, "--sub", str(impl_path)])
        assert code == 0
        assert report_of(capsys)["verdict"]["holds"] is True

    def test_machine_closed_failure_names_a_dead_prefix(self, tmp_path, capsys):
        system = tmp_path / "shuffle.aut"
        system.write_text(
            "alphabet: a b\nstates: s0\ninitial: s0\n"
            "trans: s0 a s0\ntrans: s0 b s0\n"
        )
        sub = tmp_path / "aonly.aut"
        sub.write_text(
            "alphabet: a b\nacceptance: buchi\nstates: s0\ninitial: s0\n"
            "accepting: s0\ntrans: s0 a s0\n"
        )
        code = run(["machine-closed", "--system", str(system), "--sub", str(sub)])
        assert code == 1
        assert report_of(capsys)["verdict"]["witness"] == {"word": ["b"]}

    def test_safety_class(self, capsys):
        assert run(["safety-class", "--formula", "G a", "--alphabet", "a b"]) == 0
        assert report_of(capsys)["verdict"] == {"is_safety": True}
        assert run(["safety-class", "--formula", "F a", "--alphabet", "a b"]) == 1
        assert report_of(capsys)["verdict"] == {"is_safety": False}

    def test_safety_class_can_borrow_a_system_alphabet(self, capsys):
        code = run(["safety-class", "--formula", "G !no", "--system", FIG2])
        assert code == 0
        report = report_of(capsys)
        assert report["args"]["alphabet"] == "free lock no reject request result"

    def test_safety_class_runs_no_subset_construction(self, capsys, subset_runs):
        for formula in ("G a", "F a", "G (a -> X !a)", "X " * 400 + "a"):
            assert run(["safety-class", "--formula", formula, "--alphabet", "a b"]) in (0, 1)
        assert run(["safety-class", "--formula", "G !no", "--system", FIG2]) == 0
        assert subset_runs == []

    def test_eval(self, capsys):
        assert (
            run(["eval", "--formula", "G F result", "--lasso", ";request result"])
            == 0
        )
        report = report_of(capsys)
        assert report["verdict"]["holds"] is True
        assert (
            run(
                [
                    "eval",
                    "--formula",
                    "G F result",
                    "--lasso",
                    "lock;request no reject",
                ]
            )
            == 1
        )

    def test_verify_impl_roundtrip(self, tmp_path, capsys):
        impl_path = tmp_path / "impl.aut"
        assert run(["synthesize", "--system", FIG2, "--formula", "G F result"]) == 0
        impl_path.write_text(capsys.readouterr().out)
        code = run(
            [
                "verify-impl",
                "--impl",
                str(impl_path),
                "--system",
                FIG2,
                "--formula",
                "G F result",
            ]
        )
        assert code == 0
        assert report_of(capsys)["verdict"]["holds"] is True

    def test_verify_impl_rejects_an_unmarked_implementation(self, tmp_path, capsys):
        assert run(["synthesize", "--system", FIG2, "--formula", "G F result"]) == 0
        lines = capsys.readouterr().out.splitlines(keepends=True)
        unmarked = tmp_path / "unmarked.aut"
        unmarked.write_text(
            "".join("accepting:\n" if ln.startswith("accepting:") else ln for ln in lines)
        )
        argv = ["--impl", str(unmarked), "--system", FIG2, "--formula", "G F result"]
        assert run(["verify-impl", *argv]) == 1
        assert report_of(capsys)["verdict"]["witness"] == {"word": []}

    def test_verify_impl_rejects_a_naive_marking(self, tmp_path, capsys):
        naive = tmp_path / "naive.aut"
        base = parse_automaton(Path(FIG2).read_text())
        naive.write_text(
            format_automaton(
                BuchiAutomaton(
                    base.alphabet,
                    base.n_states,
                    base.initial,
                    frozenset(range(base.n_states)),
                    base.transitions,
                )
            )
        )
        code = run(
            [
                "verify-impl",
                "--impl",
                str(naive),
                "--system",
                FIG2,
                "--formula",
                "G F result",
            ]
        )
        assert code == 1
        witness = report_of(capsys)["verdict"]["witness"]
        assert "lasso" in witness


class TestArtifacts:
    def test_abstract_prints_the_image_behavior(self, capsys):
        assert run(["abstract", "--system", FIG2, "--hom", HIDE]) == 0
        out = capsys.readouterr().out
        parsed = parse_automaton(out)
        expected = abstract_behavior(
            gen.releasing_server(),
            Homomorphism.from_map(
                gen.SERVER_SIGMA,
                Alphabet(("reject", "request", "result")),
                {
                    "free": "eps",
                    "lock": "eps",
                    "no": "eps",
                    "reject": "reject",
                    "request": "request",
                    "result": "result",
                },
            ),
        )
        assert parsed == expected

    def test_transform_goldens(self, capsys):
        golden = [
            (["transform", "--formula", "G a", "--mode", "T"], "G (eps | a)"),
            (
                ["transform", "--formula", "X a", "--mode", "T"],
                "eps U (!eps & X (eps U a))",
            ),
            (["transform", "--formula", "a & b", "--mode", "R"], "eps U (a & b)"),
            (["transform", "--formula", "!a", "--mode", "N"], "!a & !eps"),
            (["transform", "--formula", "!(a & b)", "--mode", "pnf"], "!a | !b"),
        ]
        for argv, expected in golden:
            assert run(argv) == 0
            assert capsys.readouterr().out.strip() == expected

    def test_xtd_pads_maximal_words(self, tmp_path, capsys):
        path = tmp_path / "ea.aut"
        path.write_text(
            "alphabet: a\nstates: s0 s1\ninitial: s0\ntrans: s0 a s1\n"
        )
        assert run(["xtd", "--system", str(path)]) == 0
        padded = parse_automaton(capsys.readouterr().out)
        assert "#" in padded.alphabet
        assert any(sym == "#" for _, sym, _ in padded.transitions)

    def test_xtd_with_homomorphism(self, capsys):
        assert run(["xtd", "--system", FIG2, "--hom", HIDE]) == 0
        padded = parse_automaton(capsys.readouterr().out)
        # every future of the releasing server has visible letters, so the
        # relative padding adds nothing
        assert not any(sym == "#" for _, sym, _ in padded.transitions)

    def test_synthesize_prints_a_marked_buchi_file(self, capsys):
        assert run(["synthesize", "--system", FIG2, "--formula", "G F result"]) == 0
        out = capsys.readouterr().out
        marked = parse_automaton(out)
        assert isinstance(marked, BuchiAutomaton)
        assert marked.accepting < frozenset(range(marked.n_states))
        lts = FinAutomaton(
            marked.alphabet,
            marked.n_states,
            marked.initial,
            frozenset(range(marked.n_states)),
            marked.transitions,
        )
        ok, witness = language_equal(
            lts, canonicalize(gen.releasing_server())
        )
        assert ok, witness


class TestErrors:
    def test_missing_file(self, capsys):
        assert run(["check", "rl", "--system", "no-such.aut", "--formula", "G a"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_automaton_names_the_line(self, tmp_path, capsys):
        path = tmp_path / "bad.aut"
        path.write_text("alphabet: a\nstates: s0\ninitial: s1\n")
        assert run(["check", "rl", "--system", str(path), "--formula", "G a"]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_eps_is_not_a_letter(self, tmp_path, capsys):
        path = tmp_path / "bad.aut"
        path.write_text("alphabet: a eps\nstates: s0\ninitial: s0\n")
        assert run(["check", "rl", "--system", str(path), "--formula", "G a"]) == 2
        assert "eps" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("alphabet: b eps b\n", "line 1: 'eps' is reserved and cannot be an alphabet letter"),
            ("alphabet: b a b\n", "line 1: duplicate letter 'b'"),
            ("alphabet:\n", "line 1: alphabet must not be empty"),
            ("alphabet: a\nstates: s0\ntrans: s0 b s0\n", "line 3: letter 'b' not in the alphabet"),
            ("alphabet: a\ntrans: s0 a s0\n", "line 2: states: must come before this line"),
            ("states: s0\ntrans: s0 a s0\n", "line 2: alphabet: must come before trans:"),
            ("alphabet: a\nstates: s0\ntrans: s0 a s1\n", "line 3: unknown state name 's1'"),
            ("alphabet a\n", "line 1: expected 'directive: arguments'"),
            ("alphabet: a\nstates: s0\ntrans: s0 a\n", "line 3: expected 'trans: src letter dst'"),
            ("alphabet: a\nalphabet: b\n", "line 2: duplicate alphabet: line"),
            ("acceptance: muller\n", "line 1: only 'acceptance: buchi' is known"),
            ("states: s0 s1 s0\n", "line 1: duplicate state name"),
            ("final: s0\n", "line 1: unknown directive 'final'"),
            ("states: s0\ninitial: s0\n", "line 3: missing alphabet: line"),
            ("alphabet: a\n", "line 2: missing states: line"),
            ("alphabet: a\nstates: s0\n", "line 3: missing initial: line"),
            (
                "alphabet: a\nacceptance: buchi\nstates: s0\ninitial: s0\n",
                "line 5: buchi automata need an accepting: line",
            ),
        ],
    )
    def test_automaton_errors_name_the_first_fault(self, text, message):
        with pytest.raises(AutFormatError) as info:
            parse_automaton(text)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text, letters, message",
        [
            ("a => b\n", None, "line 1: expected 'letter -> letter' or 'letter -> eps'"),
            ("a -> b c\n", None, "line 1: letters must be single whitespace-free tokens"),
            ("a -> a\neps -> a\n", None, "line 2: 'eps' cannot be a source letter"),
            ("a -> a\na -> b\n", None, "line 2: letter 'a' mapped twice"),
            ("# nothing\n", None, "line 1: empty homomorphism"),
            ("a -> a\nc -> eps\n", ("a",), "line 1: letters ['c'] are not in the alphabet"),
            (
                "a -> eps\nb -> eps\n",
                None,
                "line 1: all letters are hidden; target alphabet would be empty",
            ),
            ("a\tb -> c\n", None, "line 1: letters must be single whitespace-free tokens"),
        ],
    )
    def test_homomorphism_errors_name_the_first_fault(self, text, letters, message):
        alphabet = None if letters is None else Alphabet(letters)
        with pytest.raises(HomFormatError) as info:
            parse_homomorphism(text, alphabet)
        assert str(info.value) == message

    def test_wcc_requires_a_finitary_system(self, tmp_path, capsys):
        path = tmp_path / "b.aut"
        path.write_text(
            "alphabet: free lock no reject request result\nacceptance: buchi\n"
            "states: s0\ninitial: s0\naccepting: s0\ntrans: s0 lock s0\n"
        )
        assert run(["wcc", "--system", str(path), "--hom", HIDE]) == 2
        assert "finitary" in capsys.readouterr().err

    def test_partial_homomorphism_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "partial.hom"
        path.write_text("lock -> eps\n")
        assert run(["wcc", "--system", FIG2, "--hom", str(path)]) == 2
        assert "not total" in capsys.readouterr().err

    def test_bad_lasso_text(self, capsys):
        assert run(["eval", "--formula", "G a", "--lasso", "a b c"]) == 2
        assert "stem;cycle" in capsys.readouterr().err
        assert run(["eval", "--formula", "G a", "--lasso", "a;"]) == 2
        assert "lasso cycle must not be empty" in capsys.readouterr().err

    def test_verify_impl_needs_a_buchi_implementation(self, capsys):
        argv = ["verify-impl", "--impl", FIG2, "--system", FIG2, "--formula", "G F result"]
        assert run(argv) == 2
        assert "an implementation file must be 'acceptance: buchi'" in capsys.readouterr().err

    def test_malformed_file_of_a_two_file_command_is_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.aut"
        bad.write_text("alphabet: a\nstates: s0\ninitial: s0\ntrans: s0 b s0\n")
        binary = tmp_path / "binary.hom"
        binary.write_bytes(b"lock -> eps\n\xff\n")
        for argv, path, message in [
            (
                ["verify-impl", "--impl", str(bad), "--system", FIG2, "--formula", "G F result"],
                bad,
                "line 4: letter 'b' not in the alphabet",
            ),
            (
                ["machine-closed", "--system", FIG2, "--sub", str(bad)],
                bad,
                "line 4: letter 'b' not in the alphabet",
            ),
            (
                ["wcc", "--system", FIG2, "--hom", str(binary)],
                binary,
                "'utf-8' codec can't decode byte 0xff in position 12: invalid start byte",
            ),
        ]:
            assert run(argv) == 2
            assert capsys.readouterr() == ("", f"error: {path}: {message}\n")

    def test_unknown_subcommand_is_a_usage_error(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_synthesis_precondition_exits_one(self, capsys):
        code = run(["synthesize", "--system", FIG3, "--formula", "G F result"])
        assert code == 1
        err = capsys.readouterr().err
        assert "precondition" in err and "lock" in err

    def test_formula_syntax_error(self, capsys):
        assert run(["check", "rl", "--system", FIG2, "--formula", "G ("]) == 2

    def test_formula_atoms_must_be_letters(self, tmp_path, capsys):
        # a misspelt atom is bad input, as for preserve; eps names the
        # reserved proposition, not a letter, and is accepted
        impl = tmp_path / "impl.aut"
        assert run(["synthesize", "--system", FIG2, "--formula", "G F result"]) == 0
        impl.write_text(capsys.readouterr().out)
        typo = "G F resutl"
        for argv in [
            ["check", "rl", "--system", FIG2, "--formula", typo],
            ["check", "sat", "--system", FIG2, "--formula", typo],
            ["synthesize", "--system", FIG2, "--formula", typo],
            ["verify-impl", "--impl", str(impl), "--system", FIG2, "--formula", typo],
            ["safety-class", "--system", FIG2, "--formula", typo],
        ]:
            assert run(argv) == 2, argv
            assert capsys.readouterr() == (
                "", "error: formula atoms that are not letters of the alphabet: resutl\n"
            )
        argv = ["safety-class", "--alphabet", "a b", "--formula", "G (a | c) U (d & eps)"]
        assert run(argv) == 2
        assert capsys.readouterr().err.endswith("not letters of the alphabet: c d\n")
        assert run(["safety-class", "--alphabet", "a b", "--formula", "G (a | eps)"]) == 0

    def test_deep_nesting_is_a_syntax_error(self, capsys):
        formula = "!" * 3000 + "a"
        assert run(["eval", "--formula", formula, "--lasso", ";a"]) == 2
        assert "nested deeper" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "shape, command",
        [
            (shape, command)
            for shape in ("X ", "!", "a & ", "a U ")
            for command in ("safety-class", "eval", "pnf", "R")
            if not (shape == "!" and command == "R")  # R needs positive normal form
        ],
    )
    def test_formulas_at_the_depth_limit_are_processed(self, capsys, shape, command):
        # later stages walk trees without recursion, also the four times
        # deeper output of the R rewrite
        formula = shape * (MAX_FORMULA_DEPTH - 1) + "a"
        argv = {
            "safety-class": ["safety-class", "--formula", formula, "--alphabet", "a b"],
            "eval": ["eval", "--formula", formula, "--lasso", ";a b", "--alphabet", "a b"],
            "pnf": ["transform", "--formula", formula, "--mode", "pnf"],
            "R": ["transform", "--formula", formula, "--mode", "R"],
        }[command]
        assert run(argv) in (0, 1)
        assert capsys.readouterr().err == ""

    def test_a_broken_invariant_exits_3_without_a_report(self, monkeypatch, capsys):
        # a package bug is not an input error: no "error:" line and no exit 2
        monkeypatch.setattr(relprops, "language_subset", lambda a, b: (True, ("request",)))
        assert run(["check", "rl", "--system", FIG2, "--formula", "G F result"]) == 3
        got = capsys.readouterr()
        assert got.out == ""
        assert got.err == (
            "internal error: witness must be present exactly when the check fails\n"
        )

    def test_long_next_chain_is_decided(self, capsys):
        formula = "X " * 400 + "a"
        assert run(["safety-class", "--formula", formula, "--alphabet", "a b"]) == 0
        assert report_of(capsys)["verdict"] == {"is_safety": True}


class TestInputCache:
    """A process reuses an automaton parsed from identical bytes."""

    @pytest.fixture
    def parsed(self, monkeypatch):
        texts = []
        real = cli.parse_automaton

        def counted(text):
            texts.append(text)
            return real(text)

        monkeypatch.setattr(cli, "parse_automaton", counted)
        return texts

    def test_repeated_checks_parse_once(self, capsys, parsed):
        argv = ["check", "rl", "--system", FIG2, "--formula", "G F result"]
        assert run(argv) == 0
        first = report_of(capsys)
        assert run(argv) == 0
        assert report_of(capsys) == first
        assert len(parsed) == 1

    def test_the_key_is_the_content_not_the_path(self, tmp_path, capsys, parsed):
        path = tmp_path / "system.aut"
        argv = ["check", "rl", "--system", str(path), "--formula", "G F result"]
        verdicts = []
        for source in (FIG2, FIG3, FIG2):
            shutil.copyfile(source, path)
            verdicts.append(run(argv))
            assert report_of(capsys)["inputs"] == {str(path): digest(source)}
        assert verdicts == [0, 1, 0]
        assert len(parsed) == 2

    def test_a_malformed_file_fails_the_same_way_twice(self, tmp_path, capsys, parsed):
        path = tmp_path / "bad.aut"
        path.write_text("alphabet: a\nstates: s0\ninitial: s1\n")
        argv = ["check", "rl", "--system", str(path), "--formula", "G a"]
        outcomes = []
        for _ in range(2):
            outcomes.append((run(argv), capsys.readouterr()))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 2 and "line 3" in outcomes[0][1].err
        assert len(parsed) == 2

    def test_the_seventeenth_input_evicts_the_least_recently_used(
        self, tmp_path, capsys, parsed
    ):
        paths = []
        for i in range(17):  # seventeen distinct files over one alphabet
            paths.append(tmp_path / f"s{i}.aut")
            paths[-1].write_text(f"# copy {i}\n" + Path(FIG2).read_text())

        def check(i):
            assert run(["safety-class", "--formula", "G result", "--system", str(paths[i])]) == 0
            capsys.readouterr()

        for i in range(16):
            check(i)
        check(0)  # a hit: now s1 is the least recently used
        assert len(parsed) == 16
        check(16)  # parsed, evicting s1
        check(0)
        assert len(parsed) == 17
        check(1)
        assert len(parsed) == 18 and parsed[-1] == paths[1].read_text()

    def test_a_kept_system_derives_its_prefix_automaton_once(self, tmp_path, capsys, monkeypatch):
        # check rl, synthesize and verify-impl all read the prefix automaton
        # of the system's behavior; the kept system keeps both
        reduced = []
        real = automata.reduce_buchi

        def counted(b):
            reduced.append(b)
            return real(b)

        monkeypatch.setattr(automata, "reduce_buchi", counted)
        formula = "G (request -> F result)"
        impl = tmp_path / "impl.aut"
        assert run(["synthesize", "--system", FIG2, "--formula", formula]) == 0
        impl.write_text(capsys.readouterr().out)
        for argv in (
            ["check", "rl", "--system", FIG2, "--formula", formula],
            ["verify-impl", "--impl", str(impl), "--system", FIG2, "--formula", formula],
            ["synthesize", "--system", FIG2, "--formula", formula],
            ["check", "rl", "--system", FIG2, "--formula", "G F result"],
        ):
            assert run(argv) == 0
            capsys.readouterr()
        behavior = limit(cli._AUTOMATA[digest(FIG2)])
        assert [b for b in reduced if b == behavior] == [behavior]

    @pytest.fixture
    def homs(self, monkeypatch):
        parses = []  # (text, source alphabet) of each .hom parse
        real = cli.parse_homomorphism

        def counted(text, alphabet):
            parses.append((text, alphabet))
            return real(text, alphabet)

        monkeypatch.setattr(cli, "parse_homomorphism", counted)
        return parses

    def test_a_repeated_hom_is_parsed_once(self, tmp_path, capsys, homs):
        argv = ["preserve", "--system", FIG2, "--hom", HIDE, "--formula", "G F result"]
        assert run(argv) == 0
        first = report_of(capsys)
        assert run(argv) == 0
        assert report_of(capsys) == first
        assert len(homs) == 1
        # the key is the content: a copy of the same bytes is a hit, and the
        # same path with new bytes is parsed again
        hom = tmp_path / "h.hom"
        argv = ["wcc", "--system", FIG2, "--hom", str(hom)]
        text = Path(HIDE).read_text()
        for copy in (text, text.replace("no -> eps", "no -> no")):
            hom.write_text(copy)
            assert run(argv) == 0
            assert report_of(capsys)["inputs"][str(hom)] == digest(str(hom))
        assert len(homs) == 2 and homs[-1][0] == hom.read_text()

    def test_the_key_holds_the_source_alphabet(self, tmp_path, capsys, homs):
        # the same bytes against a system over another alphabet are parsed
        # against that alphabet, and its error is not kept
        other = tmp_path / "other.aut"
        other.write_text(Path(FIG2).read_text().replace("reject", "refuse"))
        argv = ["abstract", "--system", FIG2, "--hom", HIDE]
        assert run(argv) == 0
        image = capsys.readouterr().out
        for _ in range(2):
            assert run(["abstract", "--system", str(other), "--hom", HIDE]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {HIDE}: line 1: not total: no image for ['refuse']")
        assert run(argv) == 0
        assert capsys.readouterr().out == image
        alphabets = [alphabet for _, alphabet in homs]
        assert len(alphabets) == 3 and alphabets[1] == alphabets[2] != alphabets[0]

    def test_the_seventeenth_hom_evicts_the_least_recently_used(self, tmp_path, capsys, homs):
        paths = []
        for i in range(17):  # seventeen distinct homs over one alphabet
            paths.append(tmp_path / f"h{i}.hom")
            paths[-1].write_text(f"# copy {i}\n" + Path(HIDE).read_text())

        def wcc(i):
            assert run(["wcc", "--system", FIG2, "--hom", str(paths[i])]) == 0
            capsys.readouterr()

        for i in range(16):
            wcc(i)
        wcc(0)  # a hit: now h1 is the least recently used
        assert len(homs) == 16
        wcc(16)  # parsed, evicting h1
        wcc(0)
        assert len(homs) == 17
        wcc(1)
        assert len(homs) == 18 and homs[-1][0] == paths[1].read_text()
        # the homs took no automaton slots
        assert list(cli._AUTOMATA) == [digest(FIG2)]

    def test_a_kept_pair_builds_its_image_once(self, capsys, monkeypatch):
        # preserve, wcc, xtd --hom and abstract on one (system, hom) pair
        # read one view of the kept system's canonical form
        built = []
        real = abstraction._image_nfa

        def counted(h, a):
            built.append(a)
            return real(h, a)

        monkeypatch.setattr(abstraction, "_image_nfa", counted)
        argvs = [
            ["preserve", "--system", FIG2, "--hom", HIDE, "--formula", "G F result"],
            ["wcc", "--system", FIG2, "--hom", HIDE],
            ["xtd", "--system", FIG2, "--hom", HIDE],
            ["abstract", "--system", FIG2, "--hom", HIDE],
        ]

        def output(argv):
            code = run(argv)
            got = capsys.readouterr()
            return code, re.sub(r'"elapsed_ms": \d+', "", got.out), got.err

        kept = [output(argv) for argv in argvs]
        assert len(built) == 1 and [code for code, _, _ in kept] == [0] * 4
        for argv, out in zip(argvs, kept):
            cli._AUTOMATA.clear()
            cli._HOMOMORPHISMS.clear()
            assert output(argv) == out
        assert len(built) == 4  # preserve, wcc and abstract each build it cold


class TestComplementOnDemand:
    """A subcommand translates its formula's negation only if its check reads it."""

    @pytest.fixture
    def built(self, monkeypatch):
        # the side of each automaton the translator builds, in build order,
        # starting from an empty translation cache
        sides = []
        real_automaton = pltl._Translator.automaton

        def automaton(self, f, positive=True):
            sides.append("positive" if positive else "complement")
            return real_automaton(self, f, positive)

        monkeypatch.setattr(pltl._Translator, "automaton", automaton)
        return sides

    def test_only_the_checks_that_read_it_build_the_complement(self, tmp_path, capsys, built):
        formula = "G (request -> F result)"
        impl = tmp_path / "impl.aut"
        assert run(["synthesize", "--system", FIG2, "--formula", formula]) == 0
        impl.write_text(capsys.readouterr().out)
        cases = [
            (["check", "rl", "--system", FIG2, "--formula", formula], 0),
            (["preserve", "--system", FIG2, "--hom", HIDE, "--formula", "G F result"], 0),
            (["synthesize", "--system", FIG2, "--formula", formula], 0),
            (["check", "sat", "--system", FIG2, "--formula", formula], 1),
            (["check", "rs", "--system", FIG2, "--formula", formula], 1),
            (["verify-impl", "--impl", str(impl), "--system", FIG2, "--formula", formula], 1),
            (["safety-class", "--system", FIG2, "--formula", formula], 1),
        ]
        for argv, complements in cases:
            pltl._translated.cache_clear()
            built.clear()
            code = run(argv)
            capsys.readouterr()
            assert built.count("complement") == complements, argv
            assert "positive" in built, argv
            built.clear()
            # a repeated formula is answered from the cache
            assert run(argv) == code
            capsys.readouterr()
            assert built == [], argv


def test_every_package_error_but_the_precondition_one_is_an_input_error():
    # the CLI reports exactly INPUT_ERRORS with exit 2 and a broken internal
    # invariant with exit 3; any other exception class escapes as a traceback
    assert cli.INPUT_ERRORS == (ValueError, OSError)
    assert not issubclass(InvariantError, ValueError)
    modules = [
        importlib.import_module(f"faircheck.{m.name}")
        for m in pkgutil.iter_modules(faircheck.__path__)
        if m.name != "__main__"
    ]
    errors = {
        obj
        for module in modules
        for obj in vars(module).values()
        if isinstance(obj, type)
        and issubclass(obj, BaseException)
        and obj.__module__ == module.__name__
    }
    assert {PreconditionFailedError, InvariantError} <= errors and len(errors) > 2
    for error in errors - {PreconditionFailedError, InvariantError}:
        assert issubclass(error, ValueError), error


class TestEntryPoints:
    ARGV = ["eval", "--formula", "G a", "--lasso", ";a"]

    def outputs(self, capsys, argvs):
        out = []
        for argv in argvs:
            code = run(argv)
            got = capsys.readouterr()
            out.append((code, re.sub(r'"elapsed_ms": \d+', "", got.out), got.err))
        return out

    def test_reused_parser_matches_fresh_ones(self, capsys):
        argvs = [
            ["check", "sat", "--system", FIG2, "--formula", "G F result"],
            ["transform", "--formula", "X a", "--mode", "T"],
            ["safety-class", "--formula", "G a", "--alphabet", "a b"],
            ["check", "rl", "--system", FIG2],
            ["eval", "--formula", "F a", "--lasso", "b;a"],
            ["check", "rs", "--system", FIG3, "--formula", "G F result"],
        ]
        reused = self.outputs(capsys, argvs)
        fresh = []
        for argv in argvs:
            cli._build_parser.cache_clear()
            fresh += self.outputs(capsys, [argv])
        assert reused == fresh
        assert [code for code, _, _ in reused] == [1, 0, 0, 2, 0, 1]
        assert "--formula" in reused[3][2]

    def test_main_exits_with_the_code_of_run(self, capsys, monkeypatch):
        with pytest.raises(SystemExit) as exited:
            cli.main(["check", "sat", "--system", FIG2, "--formula", "G F result"])
        assert exited.value.code == 1
        assert json.loads(capsys.readouterr().out)["verdict"]["holds"] is False
        # with no argv, main reads the process's arguments
        monkeypatch.setattr(sys, "argv", ["faircheck", *self.ARGV])
        with pytest.raises(SystemExit) as exited:
            cli.main()
        assert exited.value.code == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == {"holds": True, "witness": None}

    def test_package_runs_as_main_in_process(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["faircheck", *self.ARGV])
        with pytest.raises(SystemExit) as exited:
            runpy.run_module("faircheck", run_name="__main__")
        assert exited.value.code == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == {"holds": True, "witness": None}

    @pytest.mark.parametrize("module", ["faircheck", "faircheck.cli"])
    def test_python_dash_m(self, module):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        done = subprocess.run(
            [sys.executable, "-m", module, *self.ARGV],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["verdict"] == {"holds": True, "witness": None}


class TestRoundTrip:
    def test_print_parse_identity_on_canonical_files(self, rng):
        for _ in range(25):
            alphabet = gen.letters(rng.randint(1, 3))
            a = gen.random_fin(rng, alphabet, max_states=5)
            text = format_automaton(a)
            assert parse_automaton(text) == a
            assert format_automaton(parse_automaton(text)) == text
        for _ in range(10):
            alphabet = gen.letters(rng.randint(1, 3))
            b = gen.random_buchi(rng, alphabet, max_states=5)
            assert parse_automaton(format_automaton(b)) == b

    def test_print_parse_identity_on_homomorphisms(self, rng):
        for _ in range(60):
            alphabet = gen.letters(rng.randint(1, 4))
            h = gen.random_hom(rng, alphabet, p_hide=rng.choice([0.0, 0.4, 0.7]))
            text = formats.format_homomorphism(h)
            assert formats.parse_homomorphism(text) == h
            assert formats.parse_homomorphism(text, alphabet) == h
            assert formats.format_homomorphism(formats.parse_homomorphism(text)) == text

    def test_homomorphism_with_an_unused_target_letter_is_not_printed(self):
        h = Homomorphism.from_map(
            Alphabet(("a", "b")), Alphabet(("x", "y")), {"a": "x", "b": "eps"}
        )
        with pytest.raises(ValueError, match=r"\['y'\]"):
            formats.format_homomorphism(h)

    def test_homomorphism_naming_the_padding_letter_is_not_printed(self):
        # a line starting with # is a comment, so "# -> #" would read back as
        # a map without the padding letter
        lifted = Homomorphism.hiding(Alphabet(("a", "b")), {"b"}).lift_hash()
        into_hash = Homomorphism.from_map(
            Alphabet(("a", "b")), Alphabet(("#", "x")), {"a": "#", "b": "x"}
        )
        for h in (lifted, into_hash):
            with pytest.raises(ValueError, match="'#'"):
                formats.format_homomorphism(h)

    def test_automaton_with_a_spaced_letter_is_not_printed(self):
        # "alphabet: a b c" and "trans: s0 a b s0" would read back as three
        # letters and a four-field transition
        a = FinAutomaton(Alphabet(("a b", "c")), 1, {0}, {0}, {(0, "a b", 0)})
        with pytest.raises(ValueError, match="'a b'"):
            format_automaton(a)

    def test_homomorphism_letters_the_parser_reads_otherwise_are_not_printed(self):
        # "a->b -> x" has two arrows, "a b -> x" a spaced letter, and
        # "#x -> x" is a comment
        for letter in ("a->b", "a b", "#x"):
            h = Homomorphism.from_map(Alphabet((letter,)), Alphabet(("x",)), {letter: "x"})
            with pytest.raises(ValueError, match=re.escape(repr(letter))):
                formats.format_homomorphism(h)
        h = Homomorphism.from_map(Alphabet(("a",)), Alphabet(("x y",)), {"a": "x y"})
        with pytest.raises(ValueError, match="'x y'"):
            formats.format_homomorphism(h)

    def test_documented_examples_parse_and_round_trip(self, tmp_path, capsys):
        readme = (ROOT / "README.md").read_text()
        readme_block = readme.split("## File formats", 1)[1].split("```\n")[1]
        doc = formats.__doc__.split("An `.aut` file names an automaton:\n\n", 1)[1]
        doc_block = textwrap.dedent(doc.split("\n\n", 1)[0]) + "\n"
        example = BuchiAutomaton(
            Alphabet(("reject", "request", "result")),
            2,
            {0},
            {0},
            {(0, "request", 1), (1, "result", 0)},
        )
        for block in (readme_block, doc_block):
            a = parse_automaton(block)
            assert a == example
            text = format_automaton(a)
            assert parse_automaton(text) == a
            assert format_automaton(parse_automaton(text)) == text
            path = tmp_path / "example.aut"
            path.write_text(block)
            code = run(["check", "sat", "--system", str(path), "--formula", "G F result"])
            assert code == 0
            assert report_of(capsys)["verdict"]["holds"] is True

    def test_readme_library_block_runs(self, monkeypatch):
        # the block reads fixtures/fig2.aut, so it runs from the repository root
        readme = (ROOT / "README.md").read_text()
        block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        monkeypatch.chdir(ROOT)
        exec(compile(block, "README.md", "exec"), {})


# Outputs on the fixtures, byte for byte apart from elapsed_ms.  Paths are
# relative to the repository root, where the test runs them.
FIXTURE_GOLDENS = {
    "wcc fig2": (
        0,
        """\
{
  "command": "wcc",
  "args": {
    "system": "fixtures/fig2.aut",
    "hom": "fixtures/hide.hom"
  },
  "inputs": {
    "fixtures/fig2.aut": "sha256:4fdf7f65c10a9842f3049a0b01332f6900db9e2fbde8195f7e88d8e9facbbd1b",
    "fixtures/hide.hom": "sha256:2972e597ed49502a8cef67937546b87bcf226ebf31e2b4cf1990b7472b218594"
  },
  "verdict": {
    "closed": true,
    "violations": []
  },
  "elapsed_ms": 0
}
""",
    ),
    "xtd fig2": (
        0,
        """\
alphabet: # free lock no reject request result
states: s0 s1 s2 s3 s4
initial: s0
trans: s0 lock s1
trans: s0 request s2
trans: s1 free s0
trans: s1 request s3
trans: s2 result s0
trans: s3 no s4
trans: s4 reject s1
""",
    ),
    "xtd-hom fig2": (
        0,
        """\
alphabet: # free lock no reject request result
states: s0 s1 s2 s3 s4
initial: s0
trans: s0 lock s1
trans: s0 request s2
trans: s1 free s0
trans: s1 request s3
trans: s2 result s0
trans: s3 no s4
trans: s4 reject s1
""",
    ),
    "abstract fig2": (
        0,
        """\
alphabet: reject request result
acceptance: buchi
states: s0 s1
initial: s0
accepting: s0 s1
trans: s0 request s1
trans: s1 reject s0
trans: s1 result s0
""",
    ),
    "preserve fig2": (
        0,
        """\
{
  "command": "preserve",
  "args": {
    "system": "fixtures/fig2.aut",
    "hom": "fixtures/hide.hom",
    "formula": "G F result"
  },
  "inputs": {
    "fixtures/fig2.aut": "sha256:4fdf7f65c10a9842f3049a0b01332f6900db9e2fbde8195f7e88d8e9facbbd1b",
    "fixtures/hide.hom": "sha256:2972e597ed49502a8cef67937546b87bcf226ebf31e2b4cf1990b7472b218594"
  },
  "verdict": {
    "wcc_closed": true,
    "abstract_holds": true,
    "concrete_holds": true,
    "equivalence_certified": true,
    "note": null
  },
  "elapsed_ms": 0
}
""",
    ),
    "wcc fig3": (
        1,
        """\
{
  "command": "wcc",
  "args": {
    "system": "fixtures/fig3.aut",
    "hom": "fixtures/hide.hom"
  },
  "inputs": {
    "fixtures/fig3.aut": "sha256:c8cd2b965d5fef6b2d934d7050289fda66e4bacfdbc0f22105f90a6aabccffef",
    "fixtures/hide.hom": "sha256:2972e597ed49502a8cef67937546b87bcf226ebf31e2b4cf1990b7472b218594"
  },
  "verdict": {
    "closed": false,
    "violations": [
      {
        "system_state": 1,
        "abstract_state": 0,
        "word": [
          "lock"
        ]
      },
      {
        "system_state": 3,
        "abstract_state": 1,
        "word": [
          "lock",
          "request"
        ]
      },
      {
        "system_state": 5,
        "abstract_state": 1,
        "word": [
          "lock",
          "request",
          "no"
        ]
      }
    ]
  },
  "elapsed_ms": 0
}
""",
    ),
    "xtd fig3": (
        0,
        """\
alphabet: # free lock no reject request result
states: s0 s1 s2 s3 s4 s5
initial: s0
trans: s0 lock s1
trans: s0 request s2
trans: s1 request s3
trans: s2 no s4
trans: s2 result s0
trans: s3 no s5
trans: s4 reject s0
trans: s5 reject s1
""",
    ),
    "xtd-hom fig3": (
        0,
        """\
alphabet: # free lock no reject request result
states: s0 s1 s2 s3 s4 s5
initial: s0
trans: s0 lock s1
trans: s0 request s2
trans: s1 request s3
trans: s2 no s4
trans: s2 result s0
trans: s3 no s5
trans: s4 reject s0
trans: s5 reject s1
""",
    ),
    "abstract fig3": (
        0,
        """\
alphabet: reject request result
acceptance: buchi
states: s0 s1
initial: s0
accepting: s0 s1
trans: s0 request s1
trans: s1 reject s0
trans: s1 result s0
""",
    ),
    "preserve fig3": (
        1,
        """\
{
  "command": "preserve",
  "args": {
    "system": "fixtures/fig3.aut",
    "hom": "fixtures/hide.hom",
    "formula": "G F result"
  },
  "inputs": {
    "fixtures/fig3.aut": "sha256:c8cd2b965d5fef6b2d934d7050289fda66e4bacfdbc0f22105f90a6aabccffef",
    "fixtures/hide.hom": "sha256:2972e597ed49502a8cef67937546b87bcf226ebf31e2b4cf1990b7472b218594"
  },
  "verdict": {
    "wcc_closed": false,
    "abstract_holds": true,
    "concrete_holds": false,
    "equivalence_certified": false,
    "note": "not closed: only the concrete verdict transfers to the abstract level (the image language has no maximal words)"
  },
  "elapsed_ms": 0
}
""",
    ),
    "check-rl fig2 G F result": (
        0,
        """\
{
  "command": "check",
  "args": {
    "kind": "rl",
    "system": "fixtures/fig2.aut",
    "formula": "G F result"
  },
  "inputs": {
    "fixtures/fig2.aut": "sha256:4fdf7f65c10a9842f3049a0b01332f6900db9e2fbde8195f7e88d8e9facbbd1b"
  },
  "verdict": {
    "holds": true,
    "witness": null
  },
  "elapsed_ms": 0
}
""",
    ),
    "check-rl fig2 G (request -> F result)": (
        0,
        """\
{
  "command": "check",
  "args": {
    "kind": "rl",
    "system": "fixtures/fig2.aut",
    "formula": "G (request -> F result)"
  },
  "inputs": {
    "fixtures/fig2.aut": "sha256:4fdf7f65c10a9842f3049a0b01332f6900db9e2fbde8195f7e88d8e9facbbd1b"
  },
  "verdict": {
    "holds": true,
    "witness": null
  },
  "elapsed_ms": 0
}
""",
    ),
    "check-rl fig3 G F result": (
        1,
        """\
{
  "command": "check",
  "args": {
    "kind": "rl",
    "system": "fixtures/fig3.aut",
    "formula": "G F result"
  },
  "inputs": {
    "fixtures/fig3.aut": "sha256:c8cd2b965d5fef6b2d934d7050289fda66e4bacfdbc0f22105f90a6aabccffef"
  },
  "verdict": {
    "holds": false,
    "witness": {
      "word": [
        "lock"
      ]
    }
  },
  "elapsed_ms": 0
}
""",
    ),
    "check-rl fig3 G (request -> F result)": (
        1,
        """\
{
  "command": "check",
  "args": {
    "kind": "rl",
    "system": "fixtures/fig3.aut",
    "formula": "G (request -> F result)"
  },
  "inputs": {
    "fixtures/fig3.aut": "sha256:c8cd2b965d5fef6b2d934d7050289fda66e4bacfdbc0f22105f90a6aabccffef"
  },
  "verdict": {
    "holds": false,
    "witness": {
      "word": [
        "lock"
      ]
    }
  },
  "elapsed_ms": 0
}
""",
    ),
    "check-rs fig2 G F result": (
        1,
        """\
{
  "command": "check",
  "args": {
    "kind": "rs",
    "system": "fixtures/fig2.aut",
    "formula": "G F result"
  },
  "inputs": {
    "fixtures/fig2.aut": "sha256:4fdf7f65c10a9842f3049a0b01332f6900db9e2fbde8195f7e88d8e9facbbd1b"
  },
  "verdict": {
    "holds": false,
    "witness": {
      "lasso": ";lock free"
    }
  },
  "elapsed_ms": 0
}
""",
    ),
    "check-rs fig2 G (request -> F result)": (
        1,
        """\
{
  "command": "check",
  "args": {
    "kind": "rs",
    "system": "fixtures/fig2.aut",
    "formula": "G (request -> F result)"
  },
  "inputs": {
    "fixtures/fig2.aut": "sha256:4fdf7f65c10a9842f3049a0b01332f6900db9e2fbde8195f7e88d8e9facbbd1b"
  },
  "verdict": {
    "holds": false,
    "witness": {
      "lasso": ";lock request no reject free"
    }
  },
  "elapsed_ms": 0
}
""",
    ),
    "check-rs fig3 G F result": (
        1,
        """\
{
  "command": "check",
  "args": {
    "kind": "rs",
    "system": "fixtures/fig3.aut",
    "formula": "G F result"
  },
  "inputs": {
    "fixtures/fig3.aut": "sha256:c8cd2b965d5fef6b2d934d7050289fda66e4bacfdbc0f22105f90a6aabccffef"
  },
  "verdict": {
    "holds": false,
    "witness": {
      "lasso": ";request no reject"
    }
  },
  "elapsed_ms": 0
}
""",
    ),
    "check-rs fig3 G (request -> F result)": (
        1,
        """\
{
  "command": "check",
  "args": {
    "kind": "rs",
    "system": "fixtures/fig3.aut",
    "formula": "G (request -> F result)"
  },
  "inputs": {
    "fixtures/fig3.aut": "sha256:c8cd2b965d5fef6b2d934d7050289fda66e4bacfdbc0f22105f90a6aabccffef"
  },
  "verdict": {
    "holds": false,
    "witness": {
      "lasso": ";request no reject"
    }
  },
  "elapsed_ms": 0
}
""",
    ),
    "check-sat fig2 G F result": (
        1,
        """\
{
  "command": "check",
  "args": {
    "kind": "sat",
    "system": "fixtures/fig2.aut",
    "formula": "G F result"
  },
  "inputs": {
    "fixtures/fig2.aut": "sha256:4fdf7f65c10a9842f3049a0b01332f6900db9e2fbde8195f7e88d8e9facbbd1b"
  },
  "verdict": {
    "holds": false,
    "witness": {
      "lasso": ";lock free"
    }
  },
  "elapsed_ms": 0
}
""",
    ),
    "check-sat fig2 G (request -> F result)": (
        1,
        """\
{
  "command": "check",
  "args": {
    "kind": "sat",
    "system": "fixtures/fig2.aut",
    "formula": "G (request -> F result)"
  },
  "inputs": {
    "fixtures/fig2.aut": "sha256:4fdf7f65c10a9842f3049a0b01332f6900db9e2fbde8195f7e88d8e9facbbd1b"
  },
  "verdict": {
    "holds": false,
    "witness": {
      "lasso": ";lock request no reject free"
    }
  },
  "elapsed_ms": 0
}
""",
    ),
    "check-sat fig3 G F result": (
        1,
        """\
{
  "command": "check",
  "args": {
    "kind": "sat",
    "system": "fixtures/fig3.aut",
    "formula": "G F result"
  },
  "inputs": {
    "fixtures/fig3.aut": "sha256:c8cd2b965d5fef6b2d934d7050289fda66e4bacfdbc0f22105f90a6aabccffef"
  },
  "verdict": {
    "holds": false,
    "witness": {
      "lasso": ";request no reject"
    }
  },
  "elapsed_ms": 0
}
""",
    ),
    "check-sat fig3 G (request -> F result)": (
        1,
        """\
{
  "command": "check",
  "args": {
    "kind": "sat",
    "system": "fixtures/fig3.aut",
    "formula": "G (request -> F result)"
  },
  "inputs": {
    "fixtures/fig3.aut": "sha256:c8cd2b965d5fef6b2d934d7050289fda66e4bacfdbc0f22105f90a6aabccffef"
  },
  "verdict": {
    "holds": false,
    "witness": {
      "lasso": ";request no reject"
    }
  },
  "elapsed_ms": 0
}
""",
    ),
    "synthesize fig2 G F result": (
        0,
        """\
alphabet: free lock no reject request result
acceptance: buchi
states: s0 s1 s2 s3 s4 s5 s6
initial: s0
accepting: s5
trans: s0 lock s1
trans: s0 request s2
trans: s1 free s3
trans: s1 request s4
trans: s2 result s3
trans: s2 result s5
trans: s3 lock s1
trans: s3 request s2
trans: s4 no s6
trans: s5 lock s1
trans: s5 request s2
trans: s6 reject s1
""",
    ),
    "synthesize fig2 G (request -> F result)": (
        0,
        """\
alphabet: free lock no reject request result
acceptance: buchi
states: s0 s1 s2 s3 s4 s5 s6 s7
initial: s0
accepting: s1 s4
trans: s0 lock s1
trans: s0 lock s2
trans: s0 request s3
trans: s1 free s4
trans: s1 free s5
trans: s1 request s6
trans: s2 free s5
trans: s2 request s6
trans: s3 result s4
trans: s3 result s5
trans: s4 lock s1
trans: s4 lock s2
trans: s4 request s3
trans: s5 lock s2
trans: s5 request s3
trans: s6 no s7
trans: s7 reject s2
""",
    ),
    "synthesize fig3 G F result": (
        1,
        "",
    ),
    "synthesize fig3 G (request -> F result)": (
        1,
        "",
    ),
    "verify-impl fig2 G F result": (
        0,
        """\
{
  "command": "verify-impl",
  "args": {
    "impl": "impl.aut",
    "system": "fixtures/fig2.aut",
    "formula": "G F result"
  },
  "inputs": {
    "impl.aut": "sha256:37834779fc225ac0ee2df3c98822713350f181441a892b0e5446cba7b6c03539",
    "fixtures/fig2.aut": "sha256:4fdf7f65c10a9842f3049a0b01332f6900db9e2fbde8195f7e88d8e9facbbd1b"
  },
  "verdict": {
    "holds": true,
    "witness": null
  },
  "elapsed_ms": 0
}
""",
    ),
    "verify-impl fig2 G (request -> F result)": (
        0,
        """\
{
  "command": "verify-impl",
  "args": {
    "impl": "impl.aut",
    "system": "fixtures/fig2.aut",
    "formula": "G (request -> F result)"
  },
  "inputs": {
    "impl.aut": "sha256:1a32d6bcacca5479792bff551ff5812c2566350ebb106e9117b5b724f99f203e",
    "fixtures/fig2.aut": "sha256:4fdf7f65c10a9842f3049a0b01332f6900db9e2fbde8195f7e88d8e9facbbd1b"
  },
  "verdict": {
    "holds": true,
    "witness": null
  },
  "elapsed_ms": 0
}
""",
    ),
    "verify-impl fig3 G F result": (
        1,
        """\
{
  "command": "verify-impl",
  "args": {
    "impl": "impl.aut",
    "system": "fixtures/fig3.aut",
    "formula": "G F result"
  },
  "inputs": {
    "impl.aut": "sha256:37834779fc225ac0ee2df3c98822713350f181441a892b0e5446cba7b6c03539",
    "fixtures/fig3.aut": "sha256:c8cd2b965d5fef6b2d934d7050289fda66e4bacfdbc0f22105f90a6aabccffef"
  },
  "verdict": {
    "holds": false,
    "witness": {
      "word": [
        "lock",
        "free"
      ]
    }
  },
  "elapsed_ms": 0
}
""",
    ),
    "verify-impl fig3 G (request -> F result)": (
        1,
        """\
{
  "command": "verify-impl",
  "args": {
    "impl": "impl.aut",
    "system": "fixtures/fig3.aut",
    "formula": "G (request -> F result)"
  },
  "inputs": {
    "impl.aut": "sha256:1a32d6bcacca5479792bff551ff5812c2566350ebb106e9117b5b724f99f203e",
    "fixtures/fig3.aut": "sha256:c8cd2b965d5fef6b2d934d7050289fda66e4bacfdbc0f22105f90a6aabccffef"
  },
  "verdict": {
    "holds": false,
    "witness": {
      "word": [
        "lock",
        "free"
      ]
    }
  },
  "elapsed_ms": 0
}
""",
    ),
}


ABSTRACTION_KINDS = ("wcc", "xtd", "xtd-hom", "abstract", "preserve")


def _golden_argv(name: str) -> list[str]:
    """The command line of a golden: "<kind> <fig>[ <formula>]"."""
    kind, fig, *formula = name.split(" ", 2)
    system = ["--system", f"fixtures/{fig}.aut"]
    if kind in ABSTRACTION_KINDS:
        argv = [kind.removesuffix("-hom"), *system]
        if kind != "xtd":
            argv += ["--hom", "fixtures/hide.hom"]
        if kind == "preserve":
            argv += ["--formula", "G F result"]
        return argv
    if kind.startswith("check-"):
        return ["check", kind.removeprefix("check-"), *system, "--formula", *formula]
    if kind == "verify-impl":
        return ["verify-impl", "--impl", "impl.aut", *system, "--formula", *formula]
    return [kind, *system, "--formula", *formula]


class TestFixtureGoldens:
    def _assert_golden(self, name, tmp_path, monkeypatch, capsys):
        shutil.copytree(FIXTURES, tmp_path / "fixtures")
        monkeypatch.chdir(tmp_path)
        argv = _golden_argv(name)
        if argv[0] == "verify-impl":
            # the implementation under test is the one synthesized from fig2
            formula = argv[-1]
            assert run(["synthesize", "--system", "fixtures/fig2.aut", "--formula", formula]) == 0
            Path("impl.aut").write_text(capsys.readouterr().out)
        code = run(argv)
        out = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', capsys.readouterr().out)
        assert (code, out) == FIXTURE_GOLDENS[name]

    @pytest.mark.parametrize(
        "name", sorted(n for n in FIXTURE_GOLDENS if n.split()[0] in ABSTRACTION_KINDS)
    )
    def test_abstraction_commands(self, name, tmp_path, monkeypatch, capsys):
        self._assert_golden(name, tmp_path, monkeypatch, capsys)

    @pytest.mark.parametrize(
        "name", sorted(n for n in FIXTURE_GOLDENS if n.split()[0] not in ABSTRACTION_KINDS)
    )
    def test_check_and_synthesis_commands(self, name, tmp_path, monkeypatch, capsys):
        self._assert_golden(name, tmp_path, monkeypatch, capsys)


# The paths the fixture goldens leave out, with stderr too: name -> (argv,
# exit code, stdout with elapsed_ms normalized, stderr).  Each runs next to a
# copy of fixtures/, the files of PATH_INPUTS and the impl.aut synthesized
# from fig2 for "G F result".
PATH_INPUTS = {
    "shuffle.aut": "alphabet: a b\nstates: s0\ninitial: s0\ntrans: s0 a s0\ntrans: s0 b s0\n",
    "aonly.aut": (
        "alphabet: a b\nacceptance: buchi\nstates: s0\ninitial: s0\n"
        "accepting: s0\ntrans: s0 a s0\n"
    ),
}
PATH_GOLDENS = {
    "machine-closed fig2 impl": (
        ["machine-closed", "--system", "fixtures/fig2.aut", "--sub", "impl.aut"],
        0,
        """\
{
  "command": "machine-closed",
  "args": {
    "system": "fixtures/fig2.aut",
    "sub": "impl.aut"
  },
  "inputs": {
    "fixtures/fig2.aut": "sha256:4fdf7f65c10a9842f3049a0b01332f6900db9e2fbde8195f7e88d8e9facbbd1b",
    "impl.aut": "sha256:37834779fc225ac0ee2df3c98822713350f181441a892b0e5446cba7b6c03539"
  },
  "verdict": {
    "holds": true,
    "witness": null
  },
  "elapsed_ms": 0
}
""",
        "",
    ),
    "machine-closed shuffle aonly": (
        ["machine-closed", "--system", "shuffle.aut", "--sub", "aonly.aut"],
        1,
        """\
{
  "command": "machine-closed",
  "args": {
    "system": "shuffle.aut",
    "sub": "aonly.aut"
  },
  "inputs": {
    "shuffle.aut": "sha256:a71491861bc9dc9432a242194a957e36031d70c253f2c8cb072e0fc8c5c6e6cf",
    "aonly.aut": "sha256:c1102935c576e537a929072d2e409a1783635476d4b2be81bb4fb5bb6c0578d9"
  },
  "verdict": {
    "holds": false,
    "witness": {
      "word": [
        "b"
      ]
    }
  },
  "elapsed_ms": 0
}
""",
        "",
    ),
    "safety-class alphabet F a": (
        ["safety-class", "--formula", "F a", "--alphabet", "a b"],
        1,
        """\
{
  "command": "safety-class",
  "args": {
    "formula": "F a",
    "alphabet": "a b"
  },
  "inputs": {},
  "verdict": {
    "is_safety": false
  },
  "elapsed_ms": 0
}
""",
        "",
    ),
    "safety-class fig2 G !no": (
        ["safety-class", "--formula", "G !no", "--system", "fixtures/fig2.aut"],
        0,
        """\
{
  "command": "safety-class",
  "args": {
    "formula": "G !no",
    "alphabet": "free lock no reject request result"
  },
  "inputs": {
    "fixtures/fig2.aut": "sha256:4fdf7f65c10a9842f3049a0b01332f6900db9e2fbde8195f7e88d8e9facbbd1b"
  },
  "verdict": {
    "is_safety": true
  },
  "elapsed_ms": 0
}
""",
        "",
    ),
    "eval alphabet": (
        ["eval", "--formula", "F a", "--lasso", "b;a", "--alphabet", "c b a"],
        0,
        """\
{
  "command": "eval",
  "args": {
    "formula": "F a",
    "lasso": "b;a"
  },
  "inputs": {},
  "verdict": {
    "holds": true,
    "witness": null
  },
  "elapsed_ms": 0
}
""",
        "",
    ),
    "eval inferred": (
        ["eval", "--formula", "G F result", "--lasso", "lock;request no reject"],
        1,
        """\
{
  "command": "eval",
  "args": {
    "formula": "G F result",
    "lasso": "lock;request no reject"
  },
  "inputs": {},
  "verdict": {
    "holds": false,
    "witness": null
  },
  "elapsed_ms": 0
}
""",
        "",
    ),
    "synthesize fig3 G F result": (
        ["synthesize", "--system", "fixtures/fig3.aut", "--formula", "G F result"],
        1,
        "",
        "synthesis precondition failed: the system does not satisfy the property "
        'within fairness; prefix ["lock"] has no conforming continuation\n',
    ),
    "input error": (
        ["check", "rl", "--system", "fixtures/fig2.aut", "--formula", "G ("],
        2,
        "",
        """\
error: unexpected end of input (at position 3)
""",
    ),
}


@pytest.mark.parametrize("name", sorted(PATH_GOLDENS))
def test_path_goldens(name, tmp_path, monkeypatch, capsys):
    shutil.copytree(FIXTURES, tmp_path / "fixtures")
    monkeypatch.chdir(tmp_path)
    for path, text in PATH_INPUTS.items():
        Path(path).write_text(text)
    assert run(["synthesize", "--system", "fixtures/fig2.aut", "--formula", "G F result"]) == 0
    Path("impl.aut").write_text(capsys.readouterr().out)
    argv, *expected = PATH_GOLDENS[name]
    code = run(argv)
    got = capsys.readouterr()
    out = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', got.out)
    assert [code, out, got.err] == expected
