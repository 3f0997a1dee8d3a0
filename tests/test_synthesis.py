"""Fair implementation synthesis: construction, verification, enumeration."""

from pathlib import Path

import pytest

import gen
from faircheck.automata import (
    Alphabet,
    AlphabetMismatchError,
    BuchiAutomaton,
    FinAutomaton,
    LassoWord,
    accepted_lassos,
    accepting_lasso,
    canonicalize,
    language_equal,
    limit,
    prefix_automaton,
    product,
    reduce_buchi,
)
from faircheck.formats import parse_automaton
from faircheck.pltl import Labeling, evaluate_lasso, parse_formula
from faircheck.relprops import PropertySpec, is_relative_liveness, satisfies
from faircheck.synthesis import (
    PreconditionFailedError,
    synthesize_fair_impl,
    verify_fair_impl,
)

AB = Alphabet(("a", "b"))


def sigma_star(alphabet: Alphabet) -> FinAutomaton:
    return FinAutomaton(
        alphabet, 1, {0}, {0}, {(0, c, 0) for c in alphabet}
    )


def marked(lts: FinAutomaton | BuchiAutomaton, marks) -> BuchiAutomaton:
    """The same transition structure, with the marks as accepting states."""
    return BuchiAutomaton(lts.alphabet, lts.n_states, lts.initial, marks, lts.transitions)


def prop(text: str, alphabet: Alphabet = AB) -> PropertySpec:
    return PropertySpec.from_formula(parse_formula(text), alphabet)


DOUBLE_A = "F (a & X a)"


class TestSynthesize:
    def test_fairness_needs_more_than_the_minimal_structure(self):
        # the 1-state loop satisfies the double-a property only within
        # fairness: marking its single state does not help, while the
        # synthesized implementation makes every fair run conform
        p = prop(DOUBLE_A)
        naive = marked(sigma_star(AB), {0})
        verdict = verify_fair_impl(naive, sigma_star(AB), p)
        assert not verdict
        assert isinstance(verdict.witness, LassoWord)
        assert not evaluate_lasso(
            verdict.witness, Labeling.canonical(AB), parse_formula(DOUBLE_A)
        )

        impl = synthesize_fair_impl(sigma_star(AB), p)
        assert impl.n_states > 1
        assert verify_fair_impl(impl, sigma_star(AB), p)

    def test_releasing_server_synthesis(self):
        sigma = gen.SERVER_SIGMA
        p = prop("G F result", sigma)
        impl = synthesize_fair_impl(gen.releasing_server(), p)
        assert verify_fair_impl(impl, gen.releasing_server(), p)
        assert impl.accepting
        for x in accepted_lassos(impl, 6):
            assert "result" in x.cycle

    def test_trivial_property_keeps_the_language(self):
        sigma_omega = PropertySpec.from_automata(
            positive=limit(sigma_star(AB)),
            complement=limit(
                FinAutomaton(AB, 1, frozenset(), frozenset(), frozenset())
            ),
        )
        impl = synthesize_fair_impl(sigma_star(AB), sigma_omega)
        ok, witness = language_equal(
            prefix_automaton(marked(impl, impl.states)), sigma_star(AB)
        )
        assert ok, witness
        assert verify_fair_impl(impl, sigma_star(AB), sigma_omega)

    def test_precondition_is_checked(self):
        p = prop("G F result", gen.SERVER_SIGMA)
        with pytest.raises(PreconditionFailedError) as exc:
            synthesize_fair_impl(gen.trapping_server(), p)
        assert exc.value.verdict is not None
        assert exc.value.verdict.witness == ("lock",)

    def test_finite_behavior_synthesizes_to_nothing(self):
        # a system whose only behavior is the empty run has an empty limit,
        # satisfies everything within fairness, and synthesizes to the
        # empty implementation
        dead = FinAutomaton(AB, 1, {0}, {0}, frozenset())
        p = prop("F a")
        impl = synthesize_fair_impl(dead, p)
        assert impl.n_states == 0
        assert verify_fair_impl(impl, dead, p)
        assert accepted_lassos(impl, 3) == []

    def test_implementation_is_the_reduced_conforming_product(self):
        fig2 = parse_automaton((Path(__file__).parent.parent / "fixtures/fig2.aut").read_text())
        p = prop("G F result", fig2.alphabet)
        impl = synthesize_fair_impl(fig2, p)
        assert impl == reduce_buchi(product(limit(fig2), p.positive))


class TestVerify:
    def test_missing_behavior_fails_the_language_check(self):
        p = prop(DOUBLE_A)
        impl = synthesize_fair_impl(sigma_star(AB), p)
        pruned = BuchiAutomaton(
            impl.alphabet,
            impl.n_states,
            impl.initial,
            impl.accepting,
            frozenset(t for t in impl.transitions if t[1] != "b"),
        )
        verdict = verify_fair_impl(pruned, sigma_star(AB), p)
        assert not verdict
        assert isinstance(verdict.witness, tuple)
        assert "b" in verdict.witness

    def test_behavior_without_a_fair_continuation_fails(self):
        # after b the run sits in state 1 for good, and no mark lies ahead
        impl = BuchiAutomaton(
            AB, 2, {0}, {0}, {(0, "a", 0), (0, "b", 1), (1, "a", 1), (1, "b", 1)}
        )
        verdict = verify_fair_impl(impl, sigma_star(AB), prop("G F a"))
        assert not verdict
        assert verdict.witness == ("b",)

    def test_no_marks_leave_no_fair_continuation(self):
        p = prop(DOUBLE_A)
        impl = synthesize_fair_impl(sigma_star(AB), p)
        verdict = verify_fair_impl(marked(impl, ()), sigma_star(AB), p)
        assert not verdict
        assert verdict.witness == ()

    def test_alphabet_mismatch_is_rejected(self):
        impl = marked(sigma_star(AB), {0})
        with pytest.raises(AlphabetMismatchError):
            verify_fair_impl(impl, sigma_star(AB), prop("F a", Alphabet(("a",))))


class TestEnumerate:
    """The fair lassos of a marked implementation are its accepted lassos."""

    def test_single_loop(self):
        tiny = BuchiAutomaton(Alphabet(("a",)), 1, {0}, {0}, {(0, "a", 0)})
        assert [x.as_text() for x in accepted_lassos(tiny, 2)] == [";a"]

    def test_max_len_must_be_positive(self):
        with pytest.raises(ValueError):
            accepted_lassos(marked(sigma_star(AB), {0}), 0)

    def test_unfair_cycles_are_left_out(self):
        # mark only the a-loop; pure b cycles are possible but unfair
        impl = BuchiAutomaton(
            AB, 2, {0}, {0},
            {(0, "a", 0), (0, "b", 1), (1, "b", 1), (1, "a", 0)},
        )
        lassos = accepted_lassos(impl, 3)
        texts = [x.as_text() for x in lassos]
        assert ";a" in texts
        assert ";b" not in texts
        assert all("a" in x.cycle for x in lassos)


class TestSynthesisInvariants:
    def test_synthesized_implementations_are_always_verified(self, rng):
        built = 0
        fairness_working = 0
        for _ in range(100):
            alphabet = gen.letters(rng.randint(2, 3))
            a = gen.random_fin(rng, alphabet, max_states=5, all_accepting=True)
            behavior = limit(canonicalize(a))
            f = gen.random_pnf_formula(rng, alphabet.symbols, 2)
            p = PropertySpec.from_formula(f, alphabet)
            if not is_relative_liveness(behavior, p):
                continue
            built += 1
            impl = synthesize_fair_impl(a, p)
            assert impl == reduce_buchi(product(limit(a), p.positive))
            assert verify_fair_impl(impl, a, p), (a, f)
            labeling = Labeling.canonical(alphabet)
            for x in accepted_lassos(impl, 5):
                assert evaluate_lasso(x, labeling, f), (a, f, x.as_text())
            if not satisfies(behavior, p):
                # fairness must be doing real work: some unfair run of the
                # very same structure violates the property
                bad = accepting_lasso(product(marked(impl, impl.states), p.complement))
                assert bad is not None, (a, f)
                assert not evaluate_lasso(bad, labeling, f)
                fairness_working += 1
        assert built >= 10
        assert fairness_working >= 3
