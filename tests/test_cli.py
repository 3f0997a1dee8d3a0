"""Command-line behavior: reports, exit codes, artifacts, diagnostics."""

import hashlib
import importlib
import json
import os
import pkgutil
import random
import re
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
from faircheck import cli, formats, relprops
from faircheck.cli import run
from faircheck.formats import format_automaton, parse_automaton
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

    def test_unknown_subcommand_is_a_usage_error(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_synthesis_precondition_exits_one(self, capsys):
        code = run(["synthesize", "--system", FIG3, "--formula", "G F result"])
        assert code == 1
        err = capsys.readouterr().err
        assert "precondition" in err and "lock" in err

    def test_formula_syntax_error(self, capsys):
        assert run(["check", "rl", "--system", FIG2, "--formula", "G ("]) == 2

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
states: s0 s1 s2 s3 s4 s5 s6 s7 s8
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
trans: s5 lock s7
trans: s5 request s8
trans: s6 reject s1
trans: s7 free s3
trans: s7 request s4
trans: s8 result s3
trans: s8 result s5
""",
    ),
    "synthesize fig2 G (request -> F result)": (
        0,
        """\
alphabet: free lock no reject request result
acceptance: buchi
states: s0 s1 s2 s3 s4 s5 s6 s7 s8 s9 s10 s11 s12 s13
initial: s0
accepting: s1 s9
trans: s0 lock s1
trans: s0 lock s2
trans: s0 request s3
trans: s1 free s4
trans: s1 free s5
trans: s1 request s6
trans: s2 free s7
trans: s2 request s8
trans: s3 result s7
trans: s3 result s9
trans: s4 lock s1
trans: s4 lock s2
trans: s4 request s3
trans: s5 lock s2
trans: s5 request s3
trans: s6 no s10
trans: s7 lock s2
trans: s7 request s3
trans: s8 no s10
trans: s9 lock s11
trans: s9 lock s12
trans: s9 request s13
trans: s10 reject s2
trans: s11 free s7
trans: s11 free s9
trans: s11 request s8
trans: s12 free s7
trans: s12 request s8
trans: s13 result s7
trans: s13 result s9
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
    "impl.aut": "sha256:22196b40eb1b91fea7406a51d08bab93a33ec3d123e5a5723667eae8dd516c85",
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
    "impl.aut": "sha256:9e6a2ddc7fe862c94d089319d847492b4f25f1bc575e971821ffc1fd7187493f",
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
    "impl.aut": "sha256:22196b40eb1b91fea7406a51d08bab93a33ec3d123e5a5723667eae8dd516c85",
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
    "impl.aut": "sha256:9e6a2ddc7fe862c94d089319d847492b4f25f1bc575e971821ffc1fd7187493f",
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
    "impl.aut": "sha256:22196b40eb1b91fea7406a51d08bab93a33ec3d123e5a5723667eae8dd516c85"
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
