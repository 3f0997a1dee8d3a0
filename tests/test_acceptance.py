"""End-to-end acceptance suite: nine criteria, one verdict line each.

Every test prints `criterion N: PASS|FAIL` straight to the terminal (outside
pytest's capture), so a full run reads as a scoreboard.  Sampling seeds
derive from FAIRCHECK_SEED; instance counts and time bounds are asserted
inside the tests themselves.
"""

import json
import random
import time
from functools import lru_cache
from pathlib import Path

import pytest

import gen
import oracles
from conftest import seed
from faircheck.automata import (
    Alphabet,
    BuchiAutomaton,
    FinAutomaton,
    LassoWord,
    NotPrefixClosedError,
    canonicalize,
    is_empty,
    lasso_automaton,
    lasso_membership,
    limit,
    product,
    accepted_lassos,
    accepting_lasso,
)
from faircheck.pltl import (
    Labeling,
    evaluate_lasso,
    format_formula,
    parse_formula,
    to_buchi,
    transform,
)
from faircheck.relprops import (
    PropertySpec,
    is_relative_liveness,
    is_relative_safety,
    is_safety_property,
    satisfies,
)
from faircheck.abstraction import (
    Homomorphism,
    abstract_behavior,
    apply_hom_lasso,
    compute_xtd,
    image_automaton,
    inverse_image_automaton,
    is_weakly_continuation_closed,
    preserve_check,
)
from faircheck.synthesis import (
    synthesize_fair_impl,
    verify_fair_impl,
)
from faircheck.cli import run

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
FIG2 = str(FIXTURES / "fig2.aut")
FIG3 = str(FIXTURES / "fig3.aut")
HIDE = str(FIXTURES / "hide.hom")


def record(capsys, n: int, ok: bool) -> None:
    with capsys.disabled():
        print(f"criterion {n}: {'PASS' if ok else 'FAIL'}")


@lru_cache(maxsize=1)
def suite2_instances() -> tuple:
    """Shared random instances for the theorem, oracle, and synthesis suites."""
    rng = random.Random(seed() + 2)
    out = []
    for _ in range(200):
        alphabet = gen.letters(rng.randint(2, 3))
        a = gen.random_fin(rng, alphabet, max_states=6, all_accepting=True)
        f = gen.random_pnf_formula(rng, alphabet.symbols, 3)
        out.append((a, f))
    return tuple(out)


def test_criterion_1_server_example_suite(capsys):
    ok = False
    started = time.monotonic()
    try:
        fig2_limit = limit(canonicalize(gen.releasing_server()))
        labeling = Labeling.canonical(gen.SERVER_SIGMA)
        response = parse_formula("G F result")

        assert run(["check", "sat", "--system", FIG2, "--formula", "G F result"]) == 1
        report = json.loads(capsys.readouterr().out)
        stem_text, cycle_text = report["verdict"]["witness"]["lasso"].split(";")
        x = LassoWord(tuple(stem_text.split()), tuple(cycle_text.split()))
        assert lasso_membership(x, fig2_limit)
        assert not evaluate_lasso(x, labeling, response)
        anchor = LassoWord(("lock",), ("request", "no", "reject"))
        assert lasso_membership(anchor, fig2_limit)
        assert not evaluate_lasso(anchor, labeling, response)

        assert run(["check", "rl", "--system", FIG2, "--formula", "G F result"]) == 0
        capsys.readouterr()
        assert run(["check", "rl", "--system", FIG3, "--formula", "G F result"]) == 1
        capsys.readouterr()
        assert run(["wcc", "--system", FIG2, "--hom", HIDE]) == 0
        capsys.readouterr()
        assert run(["wcc", "--system", FIG3, "--hom", HIDE]) == 1
        capsys.readouterr()
        assert (
            run(
                ["preserve", "--system", FIG2, "--hom", HIDE, "--formula", "G F result"]
            )
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"]["equivalence_certified"]
        assert time.monotonic() - started < 1.0
        ok = True
    finally:
        record(capsys, 1, ok)


def test_criterion_2_satisfaction_is_liveness_and_safety(capsys):
    ok = False
    started = time.monotonic()
    try:
        checked = 0
        for a, f in suite2_instances():
            system = limit(canonicalize(a))
            p = PropertySpec.from_formula(f, a.alphabet)
            says = satisfies(system, p).holds
            rl = is_relative_liveness(system, p).holds
            rs = is_relative_safety(system, p).holds
            assert says == (rl and rs), (a, format_formula(f))
            checked += 1
        assert checked >= 200
        assert time.monotonic() - started < 60.0
        ok = True
    finally:
        record(capsys, 2, ok)


def test_criterion_3_safety_collapses_fairness(capsys):
    ok = False
    try:
        rng = random.Random(seed() + 3)
        hits = 0
        for _ in range(600):
            if hits >= 100:
                break
            alphabet = gen.letters(rng.randint(2, 3))
            a = gen.random_fin(rng, alphabet, max_states=6, all_accepting=True)
            f = gen.random_pnf_formula(rng, alphabet.symbols, 3)
            p = PropertySpec.from_formula(f, alphabet)
            if not is_safety_property(p):
                continue
            system = limit(canonicalize(a))
            assert (
                is_relative_liveness(system, p).holds == satisfies(system, p).holds
            ), (a, format_formula(f))
            hits += 1
        assert hits >= 100
        ok = True
    finally:
        record(capsys, 3, ok)


def test_criterion_4_independent_oracles_agree(capsys):
    ok = False
    try:
        for a, f in suite2_instances():
            system = limit(canonicalize(a))
            p = PropertySpec.from_formula(f, a.alphabet)
            assert (
                is_relative_liveness(system, p).holds
                == oracles.brute_rl(system, p.positive)
            ), (a, format_formula(f))

        rng = random.Random(seed() + 4)
        wcc_checked = 0
        for _ in range(120):
            alphabet = gen.letters(rng.randint(2, 3))
            a = gen.random_fin(rng, alphabet, max_states=4, all_accepting=True)
            h = gen.random_hom(rng, alphabet, p_hide=0.5)
            assert (
                is_weakly_continuation_closed(a, h).closed == oracles.brute_wcc(a, h)
            ), (a, h.entries)
            wcc_checked += 1
        assert wcc_checked >= 100
        ok = True
    finally:
        record(capsys, 4, ok)


def test_criterion_5_formula_transformation(capsys):
    ok = False
    started = time.monotonic()
    try:
        rng = random.Random(seed() + 5)
        pairs = 0
        while pairs < 500:
            alphabet = gen.letters(rng.randint(2, 3))
            h = gen.random_hom(rng, alphabet)
            x = gen.random_lasso(rng, alphabet, max_stem=5, max_cycle=3)
            image = apply_hom_lasso(h, x)
            if image is None:
                continue
            f = gen.random_nf_formula(rng, h.target.symbols, 4)
            abstract = evaluate_lasso(image, Labeling.canonical(h.target), f)
            concrete = evaluate_lasso(x, h.labeling(), transform(f, "R"))
            assert abstract == concrete, (h.entries, x.as_text(), format_formula(f))
            pairs += 1
        assert time.monotonic() - started < 60.0

        assert transform(parse_formula("G a"), "T") == parse_formula("G (eps | a)")
        assert transform(parse_formula("X a"), "T") == parse_formula(
            "eps U (!eps & X (eps U a))"
        )
        assert transform(parse_formula("a & b"), "R") == parse_formula(
            "eps U (a & b)"
        )
        ok = True
    finally:
        record(capsys, 5, ok)


def test_criterion_6_limits_commute_with_abstraction(capsys):
    ok = False
    try:
        rng = random.Random(seed() + 6)
        instances = 0
        for _ in range(100):
            alphabet = gen.letters(rng.randint(2, 3))
            a = gen.random_fin(rng, alphabet, max_states=5, all_accepting=True)
            h = gen.random_hom(rng, alphabet)
            concrete = limit(canonicalize(a))
            abstract = abstract_behavior(a, h)
            for target in accepted_lassos(abstract, 5)[:3]:
                inv = inverse_image_automaton(h, lasso_automaton(target, h.target))
                x = accepting_lasso(product(concrete, inv))
                assert x is not None, (a, h.entries, target.as_text())
                assert apply_hom_lasso(h, x) == target.normalize()
            for x in accepted_lassos(concrete, 5)[:3]:
                image = apply_hom_lasso(h, x)
                if image is not None:
                    assert lasso_membership(image, abstract)
            instances += 1
        assert instances >= 100

        ab = Alphabet(("a", "b"))
        star_b = FinAutomaton(ab, 2, {0}, {1}, {(0, "a", 0), (0, "b", 1)})
        hide_b = Homomorphism.hiding(ab, {"b"})
        with pytest.raises(NotPrefixClosedError):
            abstract_behavior(star_b, hide_b)
        image_limit = limit(image_automaton(hide_b, star_b))
        assert lasso_membership(LassoWord((), ("a",)), image_limit)
        det = canonicalize(star_b)
        eilenberg = BuchiAutomaton(
            det.alphabet, det.n_states, det.initial, det.accepting, det.transitions
        )
        assert is_empty(eilenberg)
        ok = True
    finally:
        record(capsys, 6, ok)


def test_criterion_7_preservation_under_closed_abstractions(capsys):
    ok = False
    try:
        rng = random.Random(seed() + 7)
        closed_hits = 0
        padded_hits = 0
        for _ in range(1500):
            if closed_hits >= 100:
                break
            alphabet = gen.letters(rng.randint(2, 3))
            # sparse draws keep dead-end states around, so a healthy share of
            # instances has maximal words and exercises the padding letter
            density = rng.choice([0.8, 1.6])
            a = gen.random_fin(
                rng, alphabet, max_states=4, all_accepting=True, density=density
            )
            h = gen.random_hom(rng, alphabet)
            if gen.has_hidden_cycle(a, h):
                continue
            f = gen.random_extended_formula(rng, h.target.symbols, 2)
            report = preserve_check(a, h, f)
            if not report.wcc.closed:
                continue
            closed_hits += 1
            assert report.abstract_holds == report.concrete_holds, (
                a,
                h.entries,
                format_formula(f),
            )
            image_padded = compute_xtd(image_automaton(h, canonicalize(a)))
            system_padded = compute_xtd(canonicalize(a), hom=h)
            if any(sym == "#" for _, sym, _ in image_padded.transitions) or any(
                sym == "#" for _, sym, _ in system_padded.transitions
            ):
                padded_hits += 1
        assert closed_hits >= 100
        assert padded_hits >= 10
        ok = True
    finally:
        record(capsys, 7, ok)


def test_criterion_8_synthesis(capsys):
    ok = False
    try:
        built = 0
        for a, f in suite2_instances():
            system = limit(canonicalize(a))
            p = PropertySpec.from_formula(f, a.alphabet)
            if not is_relative_liveness(system, p):
                continue
            impl = synthesize_fair_impl(a, p)
            assert verify_fair_impl(impl, a, p), (a, format_formula(f))
            built += 1
        assert built >= 20

        ab = Alphabet(("a", "b"))
        shuffle = FinAutomaton(ab, 1, {0}, {0}, {(0, s, 0) for s in ab})
        p = PropertySpec.from_formula(parse_formula("F (a & X a)"), ab)
        marked = BuchiAutomaton(ab, 1, {0}, {0}, {(0, s, 0) for s in ab})
        naive = verify_fair_impl(marked, shuffle, p)
        assert not naive
        assert isinstance(naive.witness, LassoWord)
        assert not evaluate_lasso(
            naive.witness, Labeling.canonical(ab), parse_formula("F (a & X a)")
        )
        impl = synthesize_fair_impl(shuffle, p)
        assert verify_fair_impl(impl, shuffle, p)
        ok = True
    finally:
        record(capsys, 8, ok)


def test_criterion_9_formula_automata_match_direct_evaluation(capsys):
    ok = False
    try:
        rng = random.Random(seed() + 9)
        for _ in range(1000):
            alphabet = gen.letters(rng.randint(2, 3))
            f = gen.random_formula(rng, alphabet.symbols, 3)
            x = gen.random_lasso(rng, alphabet)
            pos, neg = to_buchi(f, alphabet)
            expected = evaluate_lasso(x, Labeling.canonical(alphabet), f)
            assert lasso_membership(x, pos) == expected, (format_formula(f), x.as_text())
            assert lasso_membership(x, neg) == (not expected), (
                format_formula(f),
                x.as_text(),
            )
        ok = True
    finally:
        record(capsys, 9, ok)
