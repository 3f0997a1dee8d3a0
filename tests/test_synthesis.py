"""Fair implementation synthesis: construction, verification, enumeration."""

import pytest

import gen
from faircheck.automata import (
    Alphabet,
    AlphabetMismatchError,
    FinAutomaton,
    LassoWord,
    accepting_lasso,
    canonicalize,
    language_equal,
    lasso_membership,
    limit,
    prefix_automaton,
    product,
)
from faircheck.pltl import Labeling, evaluate_lasso, parse_formula
from faircheck.relprops import PropertySpec, is_relative_liveness, satisfies
from faircheck.synthesis import (
    FairLts,
    PreconditionFailedError,
    enumerate_fair_lassos,
    synthesize_fair_impl,
    verify_fair_impl,
)

AB = Alphabet(("a", "b"))


def sigma_star(alphabet: Alphabet) -> FinAutomaton:
    return FinAutomaton(
        alphabet, 1, {0}, {0}, {(0, c, 0) for c in alphabet}
    )


def prop(text: str, alphabet: Alphabet = AB) -> PropertySpec:
    return PropertySpec.from_formula(parse_formula(text), alphabet)


DOUBLE_A = "F (a & X a)"


class TestFairLts:
    def test_marks_must_be_states(self):
        with pytest.raises(ValueError):
            FairLts(sigma_star(AB), frozenset({3}))

    def test_underlying_must_accept_everywhere(self):
        partial = FinAutomaton(AB, 2, {0}, {0}, {(0, "a", 1), (1, "b", 1)})
        with pytest.raises(ValueError):
            FairLts(partial, frozenset({0}))

    def test_as_buchi_keeps_structure_and_swaps_acceptance(self):
        impl = FairLts(sigma_star(AB), frozenset({0}))
        fair = impl.as_buchi()
        assert fair.transitions == impl.underlying.transitions
        assert fair.accepting == frozenset({0})


class TestSynthesize:
    def test_fairness_needs_more_than_the_minimal_structure(self):
        # the 1-state loop satisfies the double-a property only within
        # fairness: marking its single state does not help, while the
        # synthesized implementation makes every fair run conform
        p = prop(DOUBLE_A)
        naive = FairLts(sigma_star(AB), frozenset({0}))
        verdict = verify_fair_impl(naive, sigma_star(AB), p)
        assert not verdict
        assert isinstance(verdict.witness, LassoWord)
        assert not evaluate_lasso(
            verdict.witness, Labeling.canonical(AB), parse_formula(DOUBLE_A)
        )

        impl = synthesize_fair_impl(sigma_star(AB), p)
        assert impl.underlying.n_states > 1
        assert verify_fair_impl(impl, sigma_star(AB), p)

    def test_releasing_server_synthesis(self):
        sigma = gen.SERVER_SIGMA
        p = prop("G F result", sigma)
        impl = synthesize_fair_impl(gen.releasing_server(), p)
        assert verify_fair_impl(impl, gen.releasing_server(), p)
        assert impl.fairness_marks
        for x in enumerate_fair_lassos(impl, 6):
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
            prefix_automaton(limit(impl.underlying)), sigma_star(AB)
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
        assert impl.underlying.n_states == 0
        assert verify_fair_impl(impl, dead, p)
        assert enumerate_fair_lassos(impl, 3) == []


class TestVerify:
    def test_missing_behavior_fails_the_language_check(self):
        p = prop(DOUBLE_A)
        impl = synthesize_fair_impl(sigma_star(AB), p)
        pruned = FinAutomaton(
            impl.underlying.alphabet,
            impl.underlying.n_states,
            impl.underlying.initial,
            impl.underlying.accepting,
            frozenset(
                t for t in impl.underlying.transitions if t[1] != "b"
            ),
        )
        verdict = verify_fair_impl(
            FairLts(pruned, impl.fairness_marks), sigma_star(AB), p
        )
        assert not verdict
        assert isinstance(verdict.witness, tuple)
        assert "b" in verdict.witness

    def test_behavior_without_a_fair_continuation_fails(self):
        # after b the run sits in state 1 for good, and no mark lies ahead
        lts = FinAutomaton(
            AB, 2, {0}, {0, 1}, {(0, "a", 0), (0, "b", 1), (1, "a", 1), (1, "b", 1)}
        )
        verdict = verify_fair_impl(FairLts(lts, frozenset({0})), sigma_star(AB), prop("G F a"))
        assert not verdict
        assert verdict.witness == ("b",)

    def test_no_marks_leave_no_fair_continuation(self):
        p = prop(DOUBLE_A)
        impl = synthesize_fair_impl(sigma_star(AB), p)
        verdict = verify_fair_impl(FairLts(impl.underlying, frozenset()), sigma_star(AB), p)
        assert not verdict
        assert verdict.witness == ()

    def test_alphabet_mismatch_is_rejected(self):
        impl = FairLts(sigma_star(AB), frozenset({0}))
        with pytest.raises(AlphabetMismatchError):
            verify_fair_impl(impl, sigma_star(AB), prop("F a", Alphabet(("a",))))


class TestEnumerate:
    def test_single_loop(self):
        a1 = Alphabet(("a",))
        tiny = FairLts(
            FinAutomaton(a1, 1, {0}, {0}, {(0, "a", 0)}), frozenset({0})
        )
        assert [x.as_text() for x in enumerate_fair_lassos(tiny, 2)] == [";a"]

    def test_max_len_must_be_positive(self):
        tiny = FairLts(sigma_star(AB), frozenset({0}))
        with pytest.raises(ValueError):
            enumerate_fair_lassos(tiny, 0)

    def test_unfair_cycles_are_left_out(self):
        # mark only the a-loop; pure b cycles are possible but unfair
        two = FinAutomaton(
            AB, 2, {0}, {0, 1},
            {(0, "a", 0), (0, "b", 1), (1, "b", 1), (1, "a", 0)},
        )
        impl = FairLts(two, frozenset({0}))
        lassos = enumerate_fair_lassos(impl, 3)
        texts = [x.as_text() for x in lassos]
        assert ";a" in texts
        assert ";b" not in texts
        assert all("a" in x.cycle for x in lassos)

    def test_enumeration_is_deterministic_and_canonical(self, rng):
        for _ in range(10):
            alphabet = gen.letters(rng.randint(2, 3))
            a = gen.random_fin(rng, alphabet, max_states=4, all_accepting=True)
            a = canonicalize(a)
            if a.n_states == 0:
                continue
            marks = frozenset(
                q for q in range(a.n_states) if rng.random() < 0.6
            )
            impl = FairLts(a, marks)
            first = enumerate_fair_lassos(impl, 4)
            assert first == enumerate_fair_lassos(impl, 4)
            assert all(x.normalize() == x for x in first)
            fair = impl.as_buchi()
            assert all(lasso_membership(x, fair) for x in first)


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
            assert verify_fair_impl(impl, a, p), (a, f)
            labeling = Labeling.canonical(alphabet)
            for x in enumerate_fair_lassos(impl, 5):
                assert evaluate_lasso(x, labeling, f), (a, f, x.as_text())
            if not satisfies(behavior, p):
                # fairness must be doing real work: some unfair run of the
                # very same structure violates the property
                bad = accepting_lasso(
                    product(limit(impl.underlying), p.complement)
                )
                assert bad is not None, (a, f)
                assert not evaluate_lasso(bad, labeling, f)
                fairness_working += 1
        assert built >= 10
        assert fairness_working >= 3
