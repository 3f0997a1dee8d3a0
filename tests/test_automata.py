"""Automata algebra: canonical forms, products, emptiness, quotients, metric."""

import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import gen
import oracles
from faircheck import automata
from faircheck.abstraction import compute_xtd, image_automaton
from faircheck.formats import format_automaton, parse_automaton
from faircheck.pltl import parse_formula, to_buchi
from faircheck.automata import (
    Alphabet,
    AlphabetMismatchError,
    BuchiAutomaton,
    FinAutomaton,
    InvariantError,
    LassoWord,
    NotPrefixClosedError,
    accepted_lassos,
    accepting_lasso,
    accepts,
    canonicalize,
    cantor_distance,
    is_empty,
    is_prefix_closed,
    language_equal,
    language_subset,
    lasso_automaton,
    lasso_membership,
    left_quotient,
    limit,
    prefix_automaton,
    product,
    product_fin,
    reduce_buchi,
)

AB = Alphabet(("a", "b"))


def infinitely_many_a() -> BuchiAutomaton:
    """Omega-words over {a,b} containing infinitely many a."""
    return BuchiAutomaton(
        AB,
        2,
        frozenset({0}),
        frozenset({1}),
        frozenset({(0, "b", 0), (0, "a", 1), (1, "a", 1), (1, "b", 0)}),
    )


def a_omega() -> BuchiAutomaton:
    return BuchiAutomaton(AB, 1, frozenset({0}), frozenset({0}), frozenset({(0, "a", 0)}))


def sigma_star(alphabet: Alphabet) -> FinAutomaton:
    loops = frozenset((0, s, 0) for s in alphabet)
    return FinAutomaton(alphabet, 1, frozenset({0}), frozenset({0}), loops)


def a_star_b() -> FinAutomaton:
    return FinAutomaton(
        AB, 2, frozenset({0}), frozenset({1}), frozenset({(0, "a", 0), (0, "b", 1)})
    )


class TestAlphabet:
    def test_sorted_and_deduplicated_rejected(self):
        assert Alphabet(("b", "a")).symbols == ("a", "b")
        with pytest.raises(ValueError):
            Alphabet(("a", "a"))

    def test_eps_reserved(self):
        with pytest.raises(ValueError):
            Alphabet(("a", "eps"))

    def test_with_hash_idempotent(self):
        h = AB.with_hash()
        assert "#" in h
        assert h.with_hash() == h
        assert h.symbols == ("#", "a", "b")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Alphabet(())

    def test_non_string_among_strings_rejected(self):
        # letters of mixed types do not sort, so each is checked first
        for symbols in (("a", 1), (1, "a"), ("a", None), (b"a", "b"), ("a", "")):
            with pytest.raises(ValueError, match="non-empty strings"):
                Alphabet(symbols)


class TestLassoWord:
    def test_cycle_required(self):
        with pytest.raises(ValueError):
            LassoWord(("a",), ())

    def test_letters_must_be_non_empty_strings(self):
        with pytest.raises(ValueError, match="lasso letters must be non-empty strings"):
            LassoWord(("a",), (1,))

    def test_normalize_folds_stem_into_cycle(self):
        # a.(ba)^w is (ab)^w
        assert LassoWord(("a",), ("b", "a")).normalize() == LassoWord((), ("a", "b"))

    def test_normalize_primitive_root(self):
        assert LassoWord((), ("a", "b", "a", "b")).normalize() == LassoWord((), ("a", "b"))

    def test_normalize_keeps_minimal_preperiod(self):
        # bab.(ba)^w already has the shortest stem; nothing to fold
        x = LassoWord(("b", "a", "b"), ("b", "a"))
        assert x.normalize() == x

    def test_normalize_collapses_unary(self):
        assert LassoWord(("a", "a"), ("a",)).normalize() == LassoWord((), ("a",))

    def test_letter_at(self):
        x = LassoWord(("a",), ("b", "a"))
        assert [x.letter_at(i) for i in range(5)] == ["a", "b", "a", "b", "a"]

    def test_normalization_preserves_word(self, rng):
        for _ in range(200):
            x = gen.random_lasso(rng, gen.letters(3))
            n = x.normalize()
            assert all(x.letter_at(i) == n.letter_at(i) for i in range(12))

    def test_equal_words_share_normal_form(self, rng):
        # pumping the cycle or shifting it into the stem never changes the form
        for _ in range(100):
            x = gen.random_lasso(rng, gen.letters(2))
            reps = rng.randint(1, 3)
            pumped = LassoWord(x.stem, x.cycle * reps)
            shifted = LassoWord(x.stem + x.cycle, x.cycle)
            rotated = LassoWord(x.stem + x.cycle[:1], x.cycle[1:] + x.cycle[:1])
            target = x.normalize()
            assert pumped.normalize() == target
            assert shifted.normalize() == target
            assert rotated.normalize() == target

    def test_normal_form_predicate_is_normalize_fixing_the_lasso(self, rng):
        for _ in range(400):
            x = gen.random_lasso(rng, gen.letters(2), max_stem=3, max_cycle=6)
            assert automata._is_normal_form(x.stem, x.cycle) == (x.normalize() == x)


class TestValidation:
    def test_state_out_of_range(self):
        with pytest.raises(ValueError):
            FinAutomaton(AB, 1, frozenset({1}), frozenset(), frozenset())

    def test_unknown_letter(self):
        with pytest.raises(ValueError):
            FinAutomaton(AB, 1, frozenset({0}), frozenset(), frozenset({(0, "c", 0)}))

    def test_negative_size_and_foreign_endpoint(self):
        with pytest.raises(ValueError, match="n_states must be >= 0"):
            BuchiAutomaton(AB, -1, set(), set(), set())
        with pytest.raises(ValueError, match=r"transition endpoint out of range: \(0, 'a', 1\)"):
            FinAutomaton(AB, 1, {0}, {0}, {(0, "a", 1)})

    def test_both_kinds_validate_and_compare_by_kind(self):
        with pytest.raises(ValueError):
            BuchiAutomaton(AB, 1, {0}, {2}, set())
        parts = (AB, 1, {0}, {0}, {(0, "a", 0)})
        assert FinAutomaton(*parts) == FinAutomaton(*parts)
        assert FinAutomaton(*parts) != BuchiAutomaton(*parts)
        assert type(BuchiAutomaton.empty(AB)) is BuchiAutomaton
        assert FinAutomaton.empty(AB) != BuchiAutomaton.empty(AB)

    def test_constructed_rows_are_checked_as_invariants(self):
        rows = [[("a", 0), ("b", 0)]]
        built = FinAutomaton._from_rows(AB, 1, {0}, {0}, rows)
        assert built == FinAutomaton(AB, 1, {0}, {0}, {(0, "b", 0), (0, "a", 0)})
        unsorted, repeated = [[("b", 0), ("a", 0)]], [[("a", 0), ("a", 0)]]
        for bad in (unsorted, repeated, [[("a", 1)]], [[("c", 0)]]):
            with pytest.raises(InvariantError):
                FinAutomaton._from_rows(AB, 1, {0}, {0}, bad)
        with pytest.raises(InvariantError):
            BuchiAutomaton._from_rows(AB, 1, {1}, {0}, [[]])
        assert not issubclass(InvariantError, ValueError)

    def test_deterministic_flag(self):
        assert a_star_b().deterministic
        nd = FinAutomaton(
            AB, 2, frozenset({0}), frozenset({1}),
            frozenset({(0, "a", 0), (0, "a", 1)}),
        )
        assert not nd.deterministic
        assert FinAutomaton.empty(AB).deterministic


class TestAccepts:
    def test_a_star_b(self):
        m = a_star_b()
        assert accepts(m, ("b",))
        assert accepts(m, ("a", "a", "b"))
        assert not accepts(m, ())
        assert not accepts(m, ("b", "a"))

    def test_matches_oracle(self, rng):
        for _ in range(40):
            a = gen.random_fin(rng, gen.letters(2), max_states=5)
            for w in oracles.enumerate_words(a.alphabet, 5):
                assert accepts(a, w) == oracles.nfa_accepts(a, w)

    def test_rejects_foreign_letter(self):
        with pytest.raises(AlphabetMismatchError):
            accepts(a_star_b(), ("z",))

    def test_rejects_foreign_letter_after_a_dead_prefix(self):
        # "b b" already kills every run; the foreign letter is still an error
        with pytest.raises(AlphabetMismatchError):
            accepts(a_star_b(), ("b", "b", "zzz"))


class TestCanonicalize:
    def test_ends_with_b_golden(self):
        nfa = FinAutomaton(
            AB, 2, frozenset({0}), frozenset({1}),
            frozenset({(0, "a", 0), (0, "b", 0), (0, "b", 1)}),
        )
        expected = FinAutomaton(
            AB, 2, frozenset({0}), frozenset({1}),
            frozenset({(0, "a", 0), (0, "b", 1), (1, "a", 0), (1, "b", 1)}),
        )
        assert canonicalize(nfa) == expected

    def test_empty_language_collapses(self):
        no_accept = FinAutomaton(AB, 3, frozenset({0}), frozenset(), frozenset({(0, "a", 1)}))
        assert canonicalize(no_accept) == FinAutomaton.empty(AB)
        assert canonicalize(FinAutomaton.empty(AB)) == FinAutomaton.empty(AB)

    def test_idempotent_and_language_preserving(self, rng):
        for _ in range(60):
            a = gen.random_fin(rng, gen.letters(2), max_states=5)
            c = canonicalize(a)
            assert canonicalize(c) == c
            assert c.deterministic
            for w in oracles.enumerate_words(a.alphabet, 5):
                assert accepts(c, w) == oracles.nfa_accepts(a, w)

    def test_prefix_closed_input_gives_all_accepting(self, rng):
        for _ in range(40):
            a = gen.random_fin(rng, gen.letters(3), max_states=6, all_accepting=True)
            c = canonicalize(a)
            assert len(c.accepting) == c.n_states
            assert is_prefix_closed(a)


    def test_trimmed_and_one_state_per_residual(self, rng):
        # u is unreachable but accepting, x reachable but dead: the result
        # must drop both and keep one state per non-empty residual language
        # the useful part of a has at most 3 states, so at most 7 non-empty
        # residuals: each is reached within 6 letters and told apart within 5
        reach_len, tail_len = 6, 5
        tails = list(oracles.enumerate_words(AB, tail_len))
        for _ in range(40):
            a = gen.random_fin(rng, AB, max_states=3)
            n = a.n_states
            u, x = n, n + 1
            t = set(a.transitions) | {
                (u, rng.choice("ab"), rng.randrange(n)),
                (u, rng.choice("ab"), u),
                (rng.randrange(n), rng.choice("ab"), x),
                (x, rng.choice("ab"), x),
            }
            a = FinAutomaton(AB, n + 2, a.initial, a.accepting | {u}, t)
            reached = oracles.shortest_word_lengths(a, a.initial)
            assert u not in reached and x in reached
            assert not oracles.shortest_word_lengths(a, {x}).keys() & a.accepting
            c = canonicalize(a)
            assert oracles.shortest_word_lengths(c, c.initial).keys() == set(c.states)
            for q in c.states:
                assert oracles.shortest_word_lengths(c, {q}).keys() & c.accepting
            accepted = {
                w for w in oracles.enumerate_words(AB, reach_len + tail_len)
                if oracles.nfa_accepts(a, w)
            }
            residuals = {
                frozenset(v for v in tails if w + v in accepted)
                for w in oracles.enumerate_words(AB, reach_len)
            }
            assert c.n_states == len(residuals - {frozenset()})

    def test_moore_classes_are_the_residual_partition(self, rng):
        # on DFAs whose every state reaches acceptance, two states share a
        # class exactly when the same tails of up to n letters lead each to
        # acceptance; the partition itself is compared, not only its size,
        # because _wcc compares the classes of paired states.  In the fixed
        # draw, states 0 and 1 accept a* and b*: they differ only in the
        # letters they move on
        fixed = FinAutomaton(
            AB, 4, {2}, {0, 1, 2, 3}, {(0, "a", 0), (1, "b", 1), (2, "a", 0), (2, "b", 1)}
        )
        split_by_letters = 0
        for a in [fixed] + [_random_trimmed_dfa(rng) for _ in range(150)]:
            classes = automata._moore_classes(a._succ, a.accepting)
            step = {(p, s): q for p, s, q in a.transitions}
            residuals = []
            for q in a.states:
                accepted = set()
                for tail in oracles.enumerate_words(a.alphabet, a.n_states):
                    r = q
                    for s in tail:
                        r = step.get((r, s))
                        if r is None:
                            break
                    else:
                        if r in a.accepting:
                            accepted.add(tail)
                residuals.append(frozenset(accepted))
            for p in a.states:
                for q in a.states:
                    assert (classes[p] == classes[q]) == (residuals[p] == residuals[q]), a
            split_by_letters += any(
                (p in a.accepting) == (q in a.accepting)
                and [s for s, _ in a._succ[p]] != [s for s, _ in a._succ[q]]
                for p in a.states
                for q in a.states
            )
        assert split_by_letters >= 40

    def test_canonical_input_is_returned_as_is(self, rng):
        for _ in range(40):
            c = canonicalize(gen.random_fin(rng, gen.letters(2), max_states=5))
            assert canonicalize(c) is c

    def test_unmarked_copy_is_still_canonicalized(self, rng, minimal_dfa_runs):
        for _ in range(40):
            c = canonicalize(gen.random_fin(rng, gen.letters(2), max_states=5))
            copy = FinAutomaton(c.alphabet, c.n_states, c.initial, c.accepting, c.transitions)
            # the memo takes no part in equality or hashing
            assert copy == c and hash(copy) == hash(c)
            minimal_dfa_runs.clear()
            again = canonicalize(copy)
            assert again == c and again is not copy
            assert len(minimal_dfa_runs) == 1 and minimal_dfa_runs[0] is copy

    def test_canonical_form_is_computed_once_per_automaton(self, rng, minimal_dfa_runs):
        for _ in range(40):
            a = gen.random_fin(rng, gen.letters(2), max_states=5)
            minimal_dfa_runs.clear()
            c = canonicalize(a)
            assert canonicalize(a) is c and canonicalize(c) is c
            assert minimal_dfa_runs == [a]

    def test_recast_with_other_accepting_states_is_canonicalized_afresh(
        self, rng, minimal_dfa_runs
    ):
        # a recast is a new object, so it carries no memo of the canonical
        # automaton it was made from, even where they share every row
        changed = 0
        for _ in range(60):
            c = canonicalize(gen.random_fin(rng, gen.letters(2), max_states=5))
            if not c.accepting:
                continue
            recast = c._recast(FinAutomaton, accepting=c.accepting - {min(c.accepting)})
            minimal_dfa_runs.clear()
            again = canonicalize(recast)
            assert minimal_dfa_runs == [recast]
            copy = FinAutomaton(
                recast.alphabet, recast.n_states, recast.initial, recast.accepting,
                recast.transitions,
            )
            assert again == canonicalize(copy)
            changed += again != recast
        assert changed >= 20

    def test_limit_of_a_canonical_form_determinizes_once(self, rng, minimal_dfa_runs):
        for _ in range(30):
            x = gen.random_fin(rng, gen.letters(3), max_states=6, all_accepting=True)
            minimal_dfa_runs.clear()
            limit(canonicalize(x))
            assert len(minimal_dfa_runs) == 1 and minimal_dfa_runs[0] is x

    def test_deterministic_input_runs_no_subset_construction(self, rng, subset_runs):
        """A deterministic input is walked by state index; an NFA is
        determinized once, unless no initial state reaches acceptance.

        The benchmark's case lists hold no large deterministic system, so
        their timings cannot show this walk; ``perfbench/gen.py``'s
        ``server(6)`` is one, and on it the subset construction costs
        several times the time and memory of the walk by index.
        """
        determinized = 0
        for _ in range(60):
            subset_runs.clear()
            canonicalize(_random_dfa(rng))
            assert subset_runs == []
            nfa = _nondeterministic(rng, gen.random_fin)
            c = canonicalize(nfa)
            ran = [a for a, _ in subset_runs]
            assert ran == ([] if nfa.deterministic or not c.n_states else [nfa])
            determinized += len(ran)
        assert determinized >= 30

    def test_deterministic_walk_agrees_with_the_subset_walk(self, rng):
        # one more initial state, isolated, makes a copy nondeterministic
        # without changing its language, so the copy takes the mask paths;
        # the least shortest witness depends only on the languages
        dead_ends = differences = 0
        for _ in range(150):
            a = _random_dfa(rng)
            n = a.n_states
            masked = FinAutomaton(a.alphabet, n + 1, {0, n}, a.accepting, a.transitions)
            assert a.deterministic and not masked.deterministic
            c, m = canonicalize(a), canonicalize(masked)
            assert c == m
            assert format_automaton(c) == format_automaton(m)
            b = gen.random_fin(rng, a.alphabet, max_states=4, density=2.5)
            verdict = language_subset(a, b)
            assert verdict == language_subset(masked, b)
            differences += not verdict[0]
            reached = oracles.shortest_word_lengths(a, a.initial)
            dead_ends += any(
                not oracles.shortest_word_lengths(a, {q}).keys() & a.accepting for q in reached
            )
        assert dead_ends >= 30 and differences >= 30

    def test_deterministic_left_side_builds_no_move_lookup(self, rng):
        """An inclusion search holds a deterministic left side of a pair as
        a state index and moves it along its rows, so it never derives that
        side's ``_out``; the nondeterministic copy is held as a state set,
        and stepping it derives ``_out`` unless the start pair is bad.

        The benchmark's case lists hold no large deterministic system, so
        their timings cannot show this walk; ``perfbench/gen.py``'s
        ``server(6)`` is one, and on it the search by state set costs
        several times the time and memory of the search by index.
        """
        stepped = 0
        for _ in range(150):
            a = _random_dfa(rng)
            n = a.n_states
            masked = FinAutomaton(a.alphabet, n + 1, {0, n}, a.accepting, a.transitions)
            b = gen.random_fin(rng, a.alphabet, max_states=4, density=2.5)
            assert language_subset(a, b) == language_subset(masked, b)
            assert "_out" not in vars(a)
            stepped += "_out" in vars(masked)
        assert stepped >= 90


class TestLanguageComparisons:
    def test_equal_reflexive(self, rng):
        for _ in range(20):
            a = gen.random_fin(rng, gen.letters(2), max_states=5)
            ok, w = language_equal(a, canonicalize(a))
            assert ok and w is None

    def test_witnesses_are_genuine_and_shortest(self, rng):
        for _ in range(60):
            a = gen.random_fin(rng, gen.letters(2), max_states=4)
            b = gen.random_fin(rng, gen.letters(2), max_states=4)
            ok, w = language_equal(a, b)
            # words come length first, then lex: the first that differs is
            # the least shortest word of the symmetric difference
            differing = (
                v
                for v in oracles.enumerate_words(a.alphabet, 6 if ok else len(w))
                if oracles.nfa_accepts(a, v) != oracles.nfa_accepts(b, v)
            )
            assert next(differing, None) == w
            assert ok == (w is None)

    def test_subset_witnesses(self, rng):
        for _ in range(60):
            a = gen.random_fin(rng, gen.letters(2), max_states=4)
            b = gen.random_fin(rng, gen.letters(2), max_states=4)
            ok, w = language_subset(a, b)
            # the least shortest word of L(a) - L(b), by the same order
            outside = (
                v
                for v in oracles.enumerate_words(a.alphabet, 6 if ok else len(w))
                if oracles.nfa_accepts(a, v) and not oracles.nfa_accepts(b, v)
            )
            assert next(outside, None) == w
            assert ok == (w is None)

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            language_equal(a_star_b(), sigma_star(gen.letters(3)))


class TestLeftQuotient:
    def test_goldens(self):
        m = a_star_b()
        assert language_equal(left_quotient(m, ("a",)), m)[0]
        only_eps = canonicalize(
            FinAutomaton(AB, 1, frozenset({0}), frozenset({0}), frozenset())
        )
        assert language_equal(left_quotient(m, ("b",)), only_eps)[0]
        assert left_quotient(m, ("b", "b")) == FinAutomaton.empty(AB)

    def test_rejects_foreign_letter_after_a_dead_prefix(self):
        with pytest.raises(AlphabetMismatchError):
            left_quotient(a_star_b(), ("zzz",))
        with pytest.raises(AlphabetMismatchError):
            left_quotient(a_star_b(), ("b", "b", "zzz"))

    def test_quotient_membership(self, rng):
        # v in w\L exactly when wv in L
        for _ in range(30):
            a = gen.random_fin(rng, gen.letters(2), max_states=4)
            w = tuple(rng.choice(("a", "b")) for _ in range(rng.randint(0, 3)))
            q = left_quotient(a, w)
            for v in oracles.enumerate_words(a.alphabet, 4):
                assert accepts(q, v) == oracles.nfa_accepts(a, w + v)


class TestProductFin:
    def test_intersection(self, rng):
        for _ in range(40):
            a = gen.random_fin(rng, gen.letters(2), max_states=4)
            b = gen.random_fin(rng, gen.letters(2), max_states=4)
            p = product_fin(a, b)
            for w in oracles.enumerate_words(a.alphabet, 5):
                assert accepts(p, w) == (
                    oracles.nfa_accepts(a, w) and oracles.nfa_accepts(b, w)
                )


def _nondeterministic(rng, make, max_states=6):
    """A random automaton with dense edges and one to three initial states."""
    a = make(rng, gen.letters(3), max_states=max_states, density=3.0)
    initial = rng.sample(range(a.n_states), rng.randint(1, min(3, a.n_states)))
    return type(a)(a.alphabet, a.n_states, initial, a.accepting, a.transitions)


def _structure(a):
    return a.n_states, a.initial, a.accepting, a.transitions


def _closed(g):
    """g with every state accepting: its omega-language is closed."""
    return g._recast(BuchiAutomaton, accepting=g.states)


def _close_in_rotation(i, a, b):
    """Operands with, by ``i % 4``, neither, the left, the right or both closed."""
    return (_closed(a) if i % 4 in (1, 3) else a), (_closed(b) if i % 4 in (2, 3) else b)


def _closed_class(a, b):
    return len(a.accepting) == a.n_states, len(b.accepting) == b.n_states


class TestProductStructure:
    """Both products number states exactly as the per-letter reference does."""

    def test_product_fin_matches_reference(self, rng):
        nondeterministic = 0
        for _ in range(150):
            a = _nondeterministic(rng, gen.random_fin)
            b = _nondeterministic(rng, gen.random_fin)
            nondeterministic += not b.deterministic
            assert _structure(product_fin(a, b)) == oracles.reference_product(a, b, buchi=False)
        assert nondeterministic >= 100

    def test_buchi_product_matches_reference(self, rng):
        classes = set()
        for i in range(160):
            a, b = _close_in_rotation(
                i, _nondeterministic(rng, gen.random_buchi), _nondeterministic(rng, gen.random_buchi)
            )
            classes.add(_closed_class(a, b))
            assert _structure(product(a, b)) == oracles.reference_product(a, b, buchi=True)
        assert len(classes) == 4

    def test_step_mask_matches_raw_transitions(self, rng):
        for _ in range(60):
            a = _nondeterministic(rng, gen.random_fin)
            for mask in range(1 << a.n_states):
                steps = {}
                for s in a.alphabet:
                    expected = 0
                    for p, letter, q in a.transitions:
                        if letter == s and mask >> p & 1:
                            expected |= 1 << q
                    steps[s] = a.step_mask(mask, s)
                    assert steps[s] == expected
                # the successor kernel: every letter with a nonzero step, in letter order
                post = automata._post(a, mask)
                assert post == {s: m for s, m in steps.items() if m}
                assert list(post) == sorted(post)
            for q in a.states:
                for s in a.alphabet:
                    raw = sorted(t for p, letter, t in a.transitions if p == q and letter == s)
                    assert a.successors(q, s) == tuple(raw)


class TestReduceBuchi:
    def test_drops_only_omega_dead(self):
        b = BuchiAutomaton(
            AB, 3, frozenset({0}), frozenset({1, 2}),
            frozenset({(0, "a", 1), (0, "b", 2), (2, "b", 2)}),
        )
        r = reduce_buchi(b)
        expected = BuchiAutomaton(
            AB, 2, frozenset({0}), frozenset({1}), frozenset({(0, "b", 1), (1, "b", 1)})
        )
        assert r == expected

    def test_already_reduced_is_identical(self):
        r = reduce_buchi(infinitely_many_a())
        assert r is infinitely_many_a() or r == infinitely_many_a()
        assert reduce_buchi(r) == r

    def test_preserves_omega_language(self, rng):
        for _ in range(40):
            b = gen.random_buchi(rng, gen.letters(2), max_states=5)
            r = reduce_buchi(b)
            for _ in range(6):
                x = gen.random_lasso(rng, b.alphabet)
                assert oracles.buchi_accepts_lasso(b, x) == oracles.buchi_accepts_lasso(r, x)

    def test_keeps_exactly_the_live_states(self, rng):
        dropped = 0
        for _ in range(200):
            b = _random_unreachable_buchi(rng)
            live = sorted(oracles._live_states(b))
            number = {q: i for i, q in enumerate(live)}
            expected = BuchiAutomaton(
                AB,
                len(live),
                {number[q] for q in b.initial if q in number},
                {number[q] for q in b.accepting if q in number},
                {(number[p], s, number[q]) for p, s, q in b.transitions
                 if p in number and q in number},
            )
            assert reduce_buchi(b) == expected
            dropped += len(live) < b.n_states
        assert 50 < dropped < 200

    def test_reduction_builds_no_predecessor_lists(self, rng, monkeypatch):
        calls = []
        real = automata._predecessors

        def counted(rows):
            calls.append(len(rows))
            return real(rows)

        monkeypatch.setattr(automata, "_predecessors", counted)
        for _ in range(40):
            b = _random_unreachable_buchi(rng)
            reduce_buchi(b)
            prefix_automaton(b)
        assert calls == []


class TestLimitAndPrefix:
    def test_limit_of_sigma_star(self):
        lim = limit(sigma_star(AB))
        assert lasso_membership(LassoWord((), ("a", "b")), lim)
        assert lasso_membership(LassoWord(("b",), ("a",)), lim)

    def test_limit_rejects_non_prefix_closed(self):
        with pytest.raises(NotPrefixClosedError):
            limit(a_star_b())

    def test_limit_of_empty(self):
        assert limit(FinAutomaton.empty(AB)) == BuchiAutomaton.empty(AB)

    def test_prefixes_of_infinitely_many_a(self):
        p = prefix_automaton(infinitely_many_a())
        assert language_equal(p, sigma_star(AB))[0]

    def test_prefixes_of_a_omega(self):
        p = prefix_automaton(a_omega())
        a_star = FinAutomaton(AB, 1, frozenset({0}), frozenset({0}), frozenset({(0, "a", 0)}))
        assert language_equal(p, a_star)[0]

    def test_prefixes_of_empty_language(self):
        dead = BuchiAutomaton(AB, 1, frozenset({0}), frozenset(), frozenset({(0, "a", 0)}))
        assert prefix_automaton(dead) == FinAutomaton.empty(AB)

    def test_views_are_kept_and_equal_the_automata_built_afresh(self, rng):
        # limit is kept by the canonical form and prefix_automaton by its
        # argument; inputs of one size are interleaved, so a view answered
        # from another input's result would differ from the fresh build
        def fresh_prefixes(b):
            r = reduce_buchi(b)
            if not r.initial:
                return FinAutomaton.empty(b.alphabet)
            return r._recast(FinAutomaton, accepting=r.states)

        sizes, empty = set(), 0
        for _ in range(80):
            a = gen.random_fin(rng, gen.letters(2), max_states=5, all_accepting=True)
            lim = limit(a)
            assert limit(a) is lim and limit(canonicalize(a)) is lim
            assert lim == canonicalize(a)._recast(BuchiAutomaton)
            for b in (lim, gen.random_buchi(rng, gen.letters(2), max_states=5)):
                p = prefix_automaton(b)
                assert prefix_automaton(b) is p and p == fresh_prefixes(b)
                sizes.add(p.n_states)
                empty += not p.n_states
        assert len(sizes) >= 5 and empty >= 5

    def test_limit_of_prefix_closed_randoms(self, rng):
        # every prefix of an accepted omega-word stays in the language
        for _ in range(20):
            a = gen.random_fin(rng, gen.letters(2), max_states=5, all_accepting=True)
            lim = limit(a)
            for x in accepted_lassos(lim, 5)[:8]:
                for k in range(6):
                    w = tuple(x.letter_at(i) for i in range(k))
                    assert oracles.nfa_accepts(a, w)


class TestBuchiProduct:
    def test_golden(self):
        p = product(infinitely_many_a(), a_omega())
        assert lasso_membership(LassoWord((), ("a",)), p)
        assert not lasso_membership(LassoWord((), ("a", "b")), p)

    def test_matches_componentwise_membership(self, rng):
        classes = set()
        for i in range(48):
            b1, b2 = _close_in_rotation(
                i,
                gen.random_buchi(rng, gen.letters(2), max_states=4),
                gen.random_buchi(rng, gen.letters(2), max_states=4),
            )
            classes.add(_closed_class(b1, b2))
            p = product(b1, b2)
            for _ in range(8):
                x = gen.random_lasso(rng, b1.alphabet)
                both = oracles.buchi_accepts_lasso(b1, x) and oracles.buchi_accepts_lasso(b2, x)
                assert oracles.buchi_accepts_lasso(p, x) == both
        assert len(classes) == 4


class TestEmptinessAndWitness:
    def test_goldens(self):
        assert is_empty(BuchiAutomaton.empty(AB))
        assert accepting_lasso(a_omega()) == LassoWord((), ("a",))
        dead = BuchiAutomaton(AB, 2, frozenset({0}), frozenset({1}), frozenset({(0, "a", 1)}))
        assert accepting_lasso(dead) is None

    def test_witness_is_accepted(self, rng):
        for _ in range(60):
            b = gen.random_buchi(rng, gen.letters(2), max_states=5)
            x = accepting_lasso(b)
            if x is None:
                assert _brute_nonempty(b) is False
            else:
                assert oracles.buchi_accepts_lasso(b, x)

    def test_witness_stem_is_shortest(self, rng):
        for _ in range(40):
            b = gen.random_buchi(rng, gen.letters(2), max_states=5)
            x = accepting_lasso(b)
            if x is not None:
                assert len(x.stem) <= _brute_min_stem(b)

    def test_cycle_search_only_at_the_shallowest_anchors(self, monkeypatch):
        calls = []
        real = automata._least_cycle

        def counted(b, f):
            calls.append(f)
            return real(b, f)

        monkeypatch.setattr(automata, "_least_cycle", counted)
        n = 300
        ring = BuchiAutomaton(
            AB, n, {0}, set(range(n)), {(q, "a", (q + 1) % n) for q in range(n)}
        )
        assert accepting_lasso(ring) == LassoWord((), ("a",))
        assert calls == [0]

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 5: for stems shorter than the baseline's, the "
        "refinement tries cycles of at most max(baseline cycle, 8) letters",
    )
    def test_shorter_stem_behind_a_long_cycle(self):
        # ring 0 -a-> 1 ... 9 -b-> 0 accepting at 5, and 0 -c-> 10 -d-> 10
        # accepting at 10: the graph witness is c;d, the smallest lasso has
        # the empty stem and the ten-letter ring as its cycle
        letters = Alphabet(("a", "b", "c", "d"))
        ring = {(q, "a", q + 1) for q in range(9)} | {(9, "b", 0)}
        b = BuchiAutomaton(
            letters, 11, {0}, {5, 10}, ring | {(0, "c", 10), (10, "d", 10)}
        )
        ring_word = LassoWord((), tuple("aaaaaaaaab"))
        assert oracles.buchi_accepts_lasso(b, ring_word)
        assert accepting_lasso(b) == ring_word

    def test_no_search_without_a_core_state(self, monkeypatch):
        calls = []
        real = automata._least_words

        def counted(b, start):
            calls.append(start)
            return real(b, start)

        monkeypatch.setattr(automata, "_least_words", counted)
        # accepting states only off every cycle, and a non-accepting cycle
        chain = BuchiAutomaton(
            AB, 3, {0}, {0, 1}, {(0, "a", 1), (1, "b", 2), (2, "a", 2)}
        )
        assert is_empty(chain)
        assert accepting_lasso(chain) is None
        assert calls == []

    def test_no_search_when_no_initial_state_reaches_the_core(self, monkeypatch):
        calls = []
        real = automata._least_words

        def counted(b, start):
            calls.append(start)
            return real(b, start)

        monkeypatch.setattr(automata, "_least_words", counted)
        # state 2's accepting loop is a core state no run reaches; without
        # the live check the walk would go on as long as some word is live
        loop = BuchiAutomaton(AB, 3, {0}, {2}, {(0, "a", 1), (1, "b", 0), (2, "a", 2)})
        assert accepting_lasso(loop) is None
        assert calls == []

    def test_graph_witness_is_the_least_over_all_anchors(self, rng):
        for _ in range(150):
            b = gen.random_buchi(rng, gen.letters(2), max_states=6)
            found = automata._graph_witness(b)
            assert (None if found is None else found[1]) == _least_over_all_anchors(b)

    def test_one_walk_plus_one_per_cycle_search(self, monkeypatch):
        calls = []
        real_walk, real_cycle = automata._least_words, automata._least_cycle

        def counted_walk(b, start):
            calls.append("walk")
            return real_walk(b, start)

        def counted_cycle(b, f):
            calls.append(f)
            return real_cycle(b, f)

        monkeypatch.setattr(automata, "_least_words", counted_walk)
        monkeypatch.setattr(automata, "_least_cycle", counted_cycle)
        # anchors 1 and 2 both one letter deep, and 3 two letters deep
        edges = {(0, "a", 1), (0, "b", 2), (1, "a", 1), (2, "b", 2), (1, "b", 3), (3, "a", 3)}
        b = BuchiAutomaton(AB, 4, {0}, {1, 2, 3}, edges)
        assert accepting_lasso(b) == LassoWord((), ("a",))
        # each cycle search is one walk from its anchor, after the walk from
        # the initial set
        assert calls == ["walk", 1, "walk", 2, "walk"]

    def test_walk_levels_list_at_most_one_stem_per_state(self):
        # a chain 0 -a-> ... -a-> 30 with an accepting a-loop at its end, and
        # a b-edge from every chain state into the automaton of
        # (a|b)* a (a|b)^12, whose reachable state sets number 2^12: a walk
        # over state sets would list each of them before the chain's end
        k, n = 12, 30
        j = [n + 1 + i for i in range(k + 1)]
        edges = {(q, "a", q + 1) for q in range(n)} | {(n, "a", n)}
        edges |= {(q, "b", j[0]) for q in range(n + 1)}
        edges |= {(j[0], "a", j[0]), (j[0], "b", j[0]), (j[0], "a", j[1])}
        edges |= {(j[i], s, j[i + 1]) for i in range(1, k) for s in "ab"}
        b = BuchiAutomaton(AB, n + k + 2, {0}, {n}, edges)
        levels, baseline = automata._graph_witness(b)
        assert len(levels) == n + 1
        assert max(len(level) for level in levels) <= b.n_states
        assert baseline == LassoWord((), ("a",))
        assert accepting_lasso(b) == baseline

    def test_graph_witness_does_not_depend_on_state_numbering(self):
        # two cycles of two letters through the accepting state 0, a b and
        # a a, under both numberings of their middle states: the witness is
        # the least cycle word, a a, normalized, also once the budget is spent
        for one, two in ((1, 2), (2, 1)):
            edges = {(0, "a", one), (one, "b", 0), (0, "a", two), (two, "a", 0)}
            b = BuchiAutomaton(AB, 3, {0}, {0}, edges)
            levels, baseline = automata._graph_witness(b)
            assert baseline == LassoWord((), ("a",))
            assert automata._denotation_minimal_lasso(b, levels, baseline, 0) == baseline


def _refinement_inputs(rng, draws: int):
    """(b, levels, baseline) for each of ``draws`` random automata that has a
    graph witness: some with several initial states, some products."""
    for _ in range(draws):
        letters = gen.letters(rng.randint(2, 3))
        b = gen.random_buchi(rng, letters, max_states=5)
        draw = rng.random()
        if draw < 0.3:  # several initial states
            starts = rng.sample(range(b.n_states), rng.randint(1, b.n_states))
            b = BuchiAutomaton(letters, b.n_states, starts, b.accepting, b.transitions)
        elif draw < 0.6:  # a product, with two open operands when both are
            b = product(b, gen.random_buchi(rng, letters, max_states=2))
        if (found := automata._graph_witness(b)) is not None:
            yield b, *found


def _assert_least_lasso_at_every_budget(b, levels, baseline) -> LassoWord:
    """The refinement gives the brute-force least lasso on each side of the
    charge at which the answer is decided; returns that answer."""
    best, spent = oracles.least_lasso(b, baseline, 24_000)
    for budget in sorted({0, spent // 2, spent - 1, spent, 24_000}):
        expected = best if budget >= spent else oracles.least_lasso(b, baseline, budget)[0]
        assert automata._denotation_minimal_lasso(b, levels, baseline, budget) == expected
    return best


class TestWitnessSearch:
    def test_cyclic_states_against_the_oracle(self, rng):
        for _ in range(250):
            b = _random_unreachable_buchi(rng)
            n, accepting = b.n_states, set(b.accepting)
            succ = {p: {q for pp, _, q in b.transitions if pp == p} for p in range(n)}
            expected = set()
            for comp in oracles._sccs(range(n), succ):
                if len(comp) > 1 or any(q in succ[q] for q in comp):
                    expected |= comp
            # with every state accepting, the core states are the cyclic ones
            assert automata._sccs(b._succ, (range(n),))[0] == expected
            core, live = automata._sccs(b._succ, (b.accepting,))
            assert core == expected & accepting
            assert live == oracles._live_states(b)
            assert is_empty(b) == (not live & b.initial)

    def test_cyclic_states_of_a_long_ring_and_chain(self):
        # deep enough that a recursive search would exceed the recursion limit
        n = 100_000
        everything = set(range(n))
        ring = [(("a", (q + 1) % n),) for q in range(n)]
        assert automata._sccs(ring, (everything,)) == (everything, everything)
        # only the last state is on a cycle: liveness has to flow back along
        # the whole chain
        chain = [(("a", q + 1),) for q in range(n - 1)] + [(("a", n - 1),)]
        assert automata._sccs(chain, (everything,)) == ({n - 1}, everything)

    def test_periodic_acceptance_against_the_oracle(self, rng):
        # a rejection is decided either without a cycle search, when no pass
        # from the closure of the starts is marked, or by one
        outcomes = Counter()
        for _ in range(300):
            b = gen.random_buchi(rng, gen.letters(2), max_states=6)
            n = b.n_states
            starts = sorted(rng.sample(range(n), rng.randint(min(2, n), n)))
            cycle = tuple(rng.choice("ab") for _ in range(rng.randint(1, 5)))
            got = automata._accepts_periodic(b, automata._mask(starts), cycle)
            from_starts = BuchiAutomaton(AB, n, starts, b.accepting, b.transitions)
            assert got == oracles.buchi_accepts_lasso(from_starts, LassoWord((), cycle))
            closure, todo, marked = set(), list(starts), False
            while todo:
                if (q := todo.pop()) not in closure:
                    closure.add(q)
                    unmarked, to_marked = automata._cycle_pass(b, q, cycle)
                    marked |= bool(to_marked)
                    todo.extend(automata._bit_indices(unmarked | to_marked))
            outcomes["accepted" if got else "marked" if marked else "unmarked"] += 1
        assert 50 < outcomes["accepted"] < 250
        assert outcomes["marked"] >= 10 and outcomes["unmarked"] >= 10

    def test_least_lasso_against_brute_force(self, rng):
        improved = 0
        for b, levels, baseline in _refinement_inputs(rng, 60):
            improved += _assert_least_lasso_at_every_budget(b, levels, baseline) != baseline
        assert improved >= 5

    def test_a_cycle_that_dies_on_its_second_pass_gets_no_acceptance_check(self, rng, monkeypatch):
        # a normal form whose stem set cannot read its cycle twice has no run
        # on cycle^omega: it alone is rejected before the acceptance check
        met = []  # [stem, cycle, checked] per normal form the search meets
        real_filter, real_check = automata._is_normal_form, automata._accepts_periodic

        def normal_form(stem, cycle):
            if kept := real_filter(stem, cycle):
                met.append([stem, cycle, False])
            return kept

        def check(b, start, cycle):
            assert cycle == met[-1][1]
            met[-1][2] = True
            return real_check(b, start, cycle)

        monkeypatch.setattr(automata, "_is_normal_form", normal_form)
        monkeypatch.setattr(automata, "_accepts_periodic", check)
        rejected = 0
        for b, levels, baseline in _refinement_inputs(rng, 200):
            met.clear()
            _assert_least_lasso_at_every_budget(b, levels, baseline)
            for stem, cycle, checked in met:
                assert checked == bool(oracles.states_reached(b, b.initial, stem + cycle + cycle))
            rejected += not all(checked for _, _, checked in met)
        assert rejected >= 15

    def test_least_lasso_does_not_depend_on_state_numbering(self, rng):
        # at the default budget; a spent budget falls back to the graph
        # witness, which test_graph_witness_does_not_depend_on_state_numbering
        # covers
        found = 0
        for _ in range(150):
            letters = gen.letters(rng.randint(2, 3))
            b = gen.random_buchi(rng, letters, max_states=6)
            if rng.random() < 0.4:
                b = product(b, gen.random_buchi(rng, letters, max_states=3))
            order = list(b.states)
            rng.shuffle(order)
            renumbered = BuchiAutomaton(
                letters,
                b.n_states,
                {order[q] for q in b.initial},
                {order[q] for q in b.accepting},
                {(order[p], s, order[q]) for p, s, q in b.transitions},
            )
            x = accepting_lasso(b)
            assert accepting_lasso(renumbered) == x
            found += x is not None
        assert found >= 50

    def test_witness_stem_is_the_least_word_of_its_set(self):
        # both x b and x a reach {3}: a walk over states would reach 3 through
        # state 1 first, the walk over state sets takes the least word of {3},
        # which is also what the spent budget falls back to
        letters = Alphabet(("a", "b", "c", "x"))
        edges = {(0, "x", 1), (0, "x", 2), (1, "b", 3), (2, "a", 3), (3, "c", 3)}
        b = BuchiAutomaton(letters, 4, {0}, {3}, edges)
        levels, baseline = automata._graph_witness(b)
        assert baseline == LassoWord(("x", "a"), ("c",))
        assert automata._denotation_minimal_lasso(b, levels, baseline, 0) == baseline
        assert accepting_lasso(b) == baseline

    def test_search_past_a_bogus_witness_is_an_invariant_error(self):
        # nothing is accepted, so the search runs off the end of the range
        loop = BuchiAutomaton(AB, 1, {0}, set(), {(0, "a", 0)})
        with pytest.raises(InvariantError, match="no accepted lasso up to the witness ;a"):
            automata._denotation_minimal_lasso(loop, [[((), 1)]], LassoWord((), ("a",)))


class TestSetListAcceptance:
    """Acceptance by a list of sets, each visited infinitely often, and the
    pair product decided with it."""

    def test_sccs_against_the_oracle(self, rng):
        live_by_count = [0, 0, 0]
        for _ in range(300):
            b = _random_unreachable_buchi(rng)
            n = b.n_states
            sets = tuple(
                {q for q in range(n) if rng.random() < 0.5} for _ in range(rng.randint(0, 2))
            )
            edges = {p: {q for pp, _, q in b.transitions if pp == p} for p in range(n)}
            core, live = automata._sccs(b._succ, sets)
            assert (core, live) == oracles.core_and_live_states(range(n), edges, sets)
            live_by_count[len(sets)] += bool(live)
        assert min(live_by_count) >= 20

    def test_pair_product_against_the_counter_product(self, rng):
        outcomes = []
        for i in range(240):
            if rng.random() < 0.5:
                a, b = (_nondeterministic(rng, gen.random_buchi, 4) for _ in range(2))
            else:
                a, b = (gen.random_buchi(rng, gen.letters(3), max_states=5) for _ in range(2))
            closed = i % 4  # 0: neither operand closed, 1: a, 2: b, 3: both
            a, b = _close_in_rotation(i, a, b)
            counter = product(a, b)
            prefixes = automata._pair_prefixes(a, b)
            assert (prefixes.n_states == 0) == is_empty(counter)
            assert language_equal(prefixes, prefix_automaton(counter))[0]
            if closed:  # at most one open operand: the product is the pair product
                assert prefixes == prefix_automaton(counter)
            outcomes.append((closed, is_empty(counter)))
        for closed in range(4):
            assert (closed, True) in outcomes and (closed, False) in outcomes


class TestProductOnDemand:
    """``_product_lasso`` is ``accepting_lasso`` over the phase-counter
    ``_Product``: it answers ``accepting_lasso(product(a, b))`` and computes
    only the product rows its search reads, each once."""

    def test_against_the_oracles(self, rng, monkeypatch):
        # the reference product is built one letter at a time, its graph
        # witness by the brute-force anchor rule, and the least lasso in the
        # witness's range by listing candidates: no package walk on that side
        real_refine = automata._denotation_minimal_lasso
        real_sccs = automata._sccs
        budget, acyclic = [0], []

        def refine(b, levels, baseline):
            return real_refine(b, levels, baseline, budget[0])

        def sccs(succ, sets):  # run once per accepting state found on no cycle
            acyclic.append(succ)
            return real_sccs(succ, sets)

        monkeypatch.setattr(automata, "_denotation_minimal_lasso", refine)
        monkeypatch.setattr(automata, "_sccs", sccs)
        outcomes = Counter()
        for i in range(600):
            letters = gen.letters(rng.randint(2, 3))
            a, b = (
                gen.random_buchi(rng, letters, max_states=n, density=rng.choice((0.8, 1.6, 2.4)))
                for n in (6, 4)
            )
            a, b = _close_in_rotation(i, a, b)  # neither, the left, the right or both closed
            budget[0] = rng.randint(0, 12) if i % 2 else 24_000
            reference = BuchiAutomaton(letters, *oracles.reference_product(a, b, buchi=True))
            expected = baseline = _least_over_all_anchors(reference)
            if baseline is not None:
                expected, spent = oracles.least_lasso(reference, baseline, budget[0])
                outcomes["budget ran out"] += spent > budget[0]
            acyclic.clear()
            assert automata._product_lasso(a, b) == expected
            if acyclic:
                outcomes["accepting state on no cycle"] += 1
            else:
                outcomes["on demand" if expected else "empty walk"] += 1
            outcomes["empty"] += expected is None
        assert min(outcomes.values()) >= 10, outcomes

    def test_the_masks_record_what_the_rows_number(self, rng):
        # the product keeps its initial and accepting states only as masks:
        # after a partial read the accepting mask holds exactly the numbered
        # triples that accept, and after every row is read on demand, in
        # index order, both masks are those of the eagerly built product
        seen = Counter()
        for i in range(240):
            if i % 8 < 4:
                a, b = (_nondeterministic(rng, gen.random_buchi, 4) for _ in range(2))
            else:
                a, b = (gen.random_buchi(rng, gen.letters(3), max_states=5) for _ in range(2))
            a, b = _close_in_rotation(i, a, b)
            whole = product(a, b)
            g = automata._counter_product(a, b)
            stop = rng.randrange(whole.n_states + 1)
            for q in range(stop):
                g[q]
            accepting = [j for j, t in enumerate(g.order) if g._accepts(t)]
            assert g._accepting_mask == automata._mask(accepting)
            while len(g) < g.n_states:
                g[len(g)]
            assert g._initial_mask == automata._mask(whole.initial)
            assert g._accepting_mask == automata._mask(whole.accepting)
            open_operands = 2 - sum(_closed_class(a, b))
            seen[open_operands] += 1
            seen["numbered after the initial states"] += max(accepting, default=-1) >= len(
                whole.initial
            )
        assert len(seen) == 4 and min(seen.values()) >= 15, seen

    def test_a_pass_marks_the_states_it_discovers(self):
        # the walk stops at the graph witness b;c before state 1's row is
        # read; the refinement's first candidate, ;a, is accepted only
        # through state 2, which the whole-cycle pass from state 1 discovers
        letters = Alphabet(("a", "b", "c"))
        edges = {(0, "a", 1), (1, "a", 2), (2, "a", 1), (0, "b", 3), (3, "c", 3)}
        a = BuchiAutomaton(letters, 4, {0}, {2, 3}, edges)
        everything = BuchiAutomaton(letters, 1, {0}, {0}, {(0, s, 0) for s in letters})
        assert automata._graph_witness(product(a, everything))[1] == LassoWord(("b",), ("c",))
        assert automata._product_lasso(a, everything) == LassoWord((), ("a",))
        assert accepting_lasso(product(a, everything)) == LassoWord((), ("a",))

    def test_a_short_witness_reads_few_rows(self, product_rows):
        # ROADMAP item 16's exit case: an accepting a-loop at the initial
        # state, and behind the letter b a ring of 1,000 states that the
        # witness ;a never reads
        n = 1000
        edges = {(0, "a", 0), (0, "b", 1)} | {(q, "a", q % n + 1) for q in range(1, n + 1)}
        a = BuchiAutomaton(AB, n + 1, {0}, {0}, edges)
        b = infinitely_many_a()
        whole = product(a, b).n_states
        product_rows.clear()
        assert automata._product_lasso(a, b) == LassoWord((), ("a",))
        assert whole > n and sum(product_rows.values()) < 0.05 * whole

    def test_a_holding_product_computes_each_row_once(self, product_rows):
        # a visits its accepting state 0 once, on no cycle: the search from
        # it reads the whole product, finds no cycle back, and no later
        # search enters what it read; no accepting state lies on a cycle
        n = 600
        edges = {(0, "a", 1), (0, "b", 1)} | {(q, "a", q % n + 1) for q in range(1, n + 1)}
        edges |= {(q, "b", q) for q in range(1, n + 1, 5)}
        a = BuchiAutomaton(AB, n + 1, {0}, {0}, edges)
        b = infinitely_many_a()
        whole = product(a, b).n_states
        product_rows.clear()
        assert automata._product_lasso(a, b) is None
        assert len(product_rows) == whole >= n and set(product_rows.values()) == {1}

    def test_no_accepting_state_reached_costs_one_read_per_row(self, monkeypatch, product_rows):
        # a ring q -a-> q+1 with a b-loop at every state never reads c, so
        # its product with "infinitely many c" reaches no accepting state:
        # the depth pass reads each row once, and no level is walked
        n = 2000
        letters = Alphabet(("a", "b", "c"))
        edges = {(q, "a", (q + 1) % n) for q in range(n)} | {(q, "b", q) for q in range(n)}
        a = BuchiAutomaton(letters, n, {0}, range(n), edges)
        many_c = BuchiAutomaton(
            letters, 2, {0}, {1}, {(p, s, int(s == "c")) for p in (0, 1) for s in letters}
        )
        whole = product(a, many_c).n_states
        product_rows.clear()
        walks, reads = [], []

        def read(g, q):  # a read of a row computed earlier or on this read
            reads.append(q)
            return dict.__getitem__(g, q)

        monkeypatch.setattr(automata, "_least_words", lambda *args: walks.append(args))
        monkeypatch.setattr(automata._Product, "__getitem__", read)
        assert automata._product_lasso(a, many_c) is None
        # a row is computed on its first read: each was read exactly once
        assert len(product_rows) == sum(product_rows.values()) == whole == n
        assert len(reads) == n and walks == []

    def test_a_chain_of_acyclic_accepting_states_costs_linear_reads(self, monkeypatch):
        # ROADMAP item 16's exit case: accepting states 0 -a-> ... -a-> n,
        # and a b-loop at n; a search from each chain state alone would
        # read about n^2/2 rows.  Each read of the product's _out is counted,
        # search steps included
        n = 1000
        edges = {(q, "a", q + 1) for q in range(n)} | {(n, "b", n)}
        chain = BuchiAutomaton(AB, n + 1, {0}, range(n + 1), edges)
        everything = BuchiAutomaton(AB, 1, {0}, {0}, {(0, s, 0) for s in AB})
        reads = []

        def read(g, q):  # a read of a row computed earlier or on this read
            reads.append(q)
            return dict.__getitem__(g, q)

        monkeypatch.setattr(automata._Product, "__getitem__", read)
        g = automata._counter_product(chain, everything)
        levels, baseline = automata._graph_witness(g)
        assert baseline == LassoWord(("a",) * n, ("b",)) and len(levels) == n + 1
        assert len(g) == n + 1 and len(reads) <= 5 * (n + 1)


def _least_over_all_anchors(b) -> LassoWord | None:
    """The graph witness by brute force, or None: per reachable accepting
    state on a cycle, the least word reaching it and the least cycle word
    through it; the least (stem length, cycle length, stem, cycle) wins,
    normalized."""
    least: dict = {}
    level = [((), frozenset(b.initial))]  # one length's words in lex order
    while any(q not in least for _, reached in level for q in reached):
        for word, reached in level:
            for q in reached:
                least.setdefault(q, word)
        # a length that reaches no new state has no longer word that does
        level = [
            (word + (s,), after)
            for word, reached in level
            for s in b.alphabet
            if (after := frozenset(oracles.states_reached(b, reached, (s,))))
        ]
    edges = {p: {q for pp, _, q in b.transitions if pp == p} for p in b.states}
    core = oracles.core_and_live_states(b.states, edges, (b.accepting,))[0]
    keys = []
    for f in sorted(core & set(least)):
        cycle = oracles.least_cycle(b, f)
        keys.append((len(least[f]), len(cycle), least[f], cycle))
    return LassoWord(*min(keys)[2:]).normalize() if keys else None


def _random_unreachable_buchi(rng) -> BuchiAutomaton:
    """A random automaton over a b, with up to three initial states and often
    with states no initial state reaches."""
    n = rng.randint(1, 9)
    edges = {
        (rng.randrange(n), rng.choice("ab"), rng.randrange(n))
        for _ in range(rng.randint(0, 2 * n))
    }
    initial = rng.sample(range(n), rng.randint(1, min(n, 3)))
    accepting = {q for q in range(n) if rng.random() < 0.4}
    return BuchiAutomaton(AB, n, initial, accepting, edges)


def _random_trimmed_dfa(rng) -> FinAutomaton:
    """A random partial DFA cut to the states that can reach acceptance.

    About a third of the draws accept in every state, so that only the
    letters states move on tell their residuals apart at first.
    """
    alphabet = gen.letters(rng.randint(1, 3))
    n = rng.randint(1, 5)
    if rng.random() < 0.35:
        acc = set(range(n))
    else:
        acc = {q for q in range(n) if rng.random() < 0.3} | {rng.randrange(n)}
    edges = {(p, s, rng.randrange(n)) for p in range(n) for s in alphabet if rng.random() < 0.6}
    raw = FinAutomaton(alphabet, n, set(), acc, edges)
    keep = [q for q in range(n) if oracles.shortest_word_lengths(raw, {q}).keys() & acc]
    index = {q: i for i, q in enumerate(keep)}
    return FinAutomaton(
        alphabet,
        len(keep),
        {0},
        {index[q] for q in acc},
        {(index[p], s, index[q]) for p, s, q in edges if p in index and q in index},
    )


def _random_dfa(rng) -> FinAutomaton:
    """A random partial DFA from state 0, dead and unreachable states left in."""
    alphabet = gen.letters(rng.randint(1, 3))
    n = rng.randint(1, 6)
    edges = {(p, s, rng.randrange(n)) for p in range(n) for s in alphabet if rng.random() < 0.6}
    accepting = {q for q in range(n) if rng.random() < 0.35}
    return FinAutomaton(alphabet, n, {0}, accepting, edges)


def _random_graph(rng):
    make = gen.random_fin if rng.random() < 0.5 else gen.random_buchi
    return make(rng, gen.letters(2), max_states=6)


class TestGraphSearch:
    def test_tree_words_are_shortest(self, rng):
        for _ in range(120):
            a = _random_graph(rng)
            k = min(a.n_states, rng.randint(1, 2))
            starts = sorted(rng.sample(range(a.n_states), k))
            tree: dict = {}
            list(automata._bfs(a._succ.__getitem__, starts, tree))
            lengths = oracles.shortest_word_lengths(a, starts)
            assert tree.keys() == lengths.keys()
            for q in tree:
                word = automata._spelled(tree[q])
                assert q in oracles.states_reached(a, starts, word)
                assert len(word) == lengths[q]

    def test_explore_numbers_nodes_in_bfs_order_and_keeps_every_edge(self, rng):
        for _ in range(150):
            a = _random_graph(rng)
            starts = rng.sample(range(a.n_states), min(a.n_states, rng.randint(1, 3)))
            moves = a._succ.__getitem__
            nodes, rows = automata._explore(moves, starts)
            assert nodes == list(automata._bfs(moves, starts, {}))
            assert nodes[: len(starts)] == starts
            reachable = oracles.shortest_word_lengths(a, starts).keys()
            assert set(nodes) == reachable
            expected = sorted((p, s, q) for p, s, q in a.transitions if p in reachable)
            assert [moves(u) for u in nodes] == [
                tuple((s, nodes[j]) for s, j in row) for row in rows
            ]
            assert sorted((p, s, q) for p in nodes for s, q in a._succ[p]) == expected

    def test_walk_levels_are_the_least_words_per_new_subset(self, rng):
        walks = 0
        for _ in range(80):
            b = gen.random_buchi(rng, gen.letters(2), max_states=5)
            found = automata._graph_witness(b)
            if found is None:
                continue
            walks += 1
            k = len(found[0]) - 1
            # per length, the least word reaching each state, listed once
            # with its state set unless an earlier length lists that set
            least: dict = {}
            for word in oracles.enumerate_words(b.alphabet, k):
                for q in oracles.states_reached(b, b.initial, word):
                    least.setdefault((len(word), q), word)
            expected, seen = [], set()
            for m in range(k + 1):
                words = sorted({w for (n, _), w in least.items() if n == m})
                level = [(w, frozenset(oracles.states_reached(b, b.initial, w))) for w in words]
                expected.append([(w, r) for w, r in level if r not in seen])
                seen.update(r for _, r in level)
            got = [
                [(stem, frozenset(automata._bit_indices(mask))) for stem, mask in level]
                for level in found[0]
            ]
            assert got == expected
            # the walk stops after the first level reaching an accepting cycle
            anchored = [
                any(
                    q in b.accepting and oracles.least_cycle(b, q) is not None
                    for _, states in level
                    for q in states
                )
                for level in expected
            ]
            assert anchored == [False] * k + [True]
        assert walks >= 20

    def test_least_cycle_on_a_long_ring(self):
        # ring q -a-> q+1 closed by n-1 -b-> 0: the one cycle through each
        # state spells the whole ring, from that state on
        n, m = 10_000, 5_000
        edges = {(q, "a", q + 1) for q in range(n - 1)} | {(n - 1, "b", 0)}
        ring = BuchiAutomaton(AB, n, {0}, {0}, edges)
        word = ("a",) * (n - 1) + ("b",)
        assert automata._least_cycle(ring, 0) == (word, 1)
        assert automata._least_cycle(ring, m) == (word[m:] + word[:m], 1 << m)
        assert accepting_lasso(ring) == LassoWord((), word)

    def test_least_cycle_against_brute_force(self, rng):
        for _ in range(120):
            a = _random_graph(rng)
            for f in a.states:
                expected = oracles.least_cycle(a, f)
                found = automata._least_cycle(a, f)
                if expected is None:
                    assert found is None
                else:
                    reached = oracles.states_reached(a, {f}, expected)
                    assert found == (expected, automata._mask(reached))


def _brute_nonempty(b) -> bool:
    reach = set(b.initial)
    changed = True
    while changed:
        changed = False
        for p, _, q in b.transitions:
            if p in reach and q not in reach:
                reach.add(q)
                changed = True
    for f in sorted(set(b.accepting) & reach):
        back = {q for (p, _, q) in b.transitions if p == f}
        changed = True
        while changed:
            changed = False
            for p, _, q in b.transitions:
                if p in back and q not in back:
                    back.add(q)
                    changed = True
        if f in back:
            return True
    return False


def _brute_min_stem(b) -> int:
    # shortest distance from an initial state to any accepting state on a cycle
    dist = {q: 0 for q in b.initial}
    frontier = set(b.initial)
    d = 0
    while True:
        for f in sorted(frontier):
            if f in b.accepting:
                back = {q for (p, _, q) in b.transitions if p == f}
                while True:
                    grown = {
                        q for (p, _, q) in b.transitions if p in back
                    } | back
                    if grown == back:
                        break
                    back = grown
                if f in back:
                    return d
        nxt = {
            q for (p, _, q) in b.transitions if p in frontier
        } - set(dist)
        if not nxt:
            return 10**9
        d += 1
        for q in nxt:
            dist[q] = d
        frontier = nxt


class TestLassoMembership:
    def test_goldens(self):
        inf_a = infinitely_many_a()
        assert lasso_membership(LassoWord((), ("a", "b")), inf_a)
        assert not lasso_membership(LassoWord((), ("b",)), inf_a)
        everything = limit(sigma_star(AB))
        assert lasso_membership(LassoWord(("b", "a"), ("b",)), everything)

    def test_matches_oracle(self, rng):
        for _ in range(40):
            b = gen.random_buchi(rng, gen.letters(2), max_states=5)
            for _ in range(6):
                x = gen.random_lasso(rng, b.alphabet)
                assert lasso_membership(x, b) == oracles.buchi_accepts_lasso(b, x)

    def test_foreign_letters_raise(self):
        inf_a = infinitely_many_a()
        with pytest.raises(AlphabetMismatchError):
            lasso_membership(LassoWord(("c",), ("a",)), inf_a)
        with pytest.raises(AlphabetMismatchError):
            lasso_membership(LassoWord(("a",), ("a", "c")), inf_a)

    def test_builds_no_product(self, rng, monkeypatch):
        calls = []

        def counted(name):
            real = getattr(automata, name)

            def call(*args):
                calls.append(name)
                return real(*args)

            return call

        for name in ("product", "is_empty"):
            monkeypatch.setattr(automata, name, counted(name))
        for _ in range(20):
            b = gen.random_buchi(rng, gen.letters(2), max_states=5)
            x = gen.random_lasso(rng, b.alphabet)
            assert lasso_membership(x, b) == oracles.buchi_accepts_lasso(b, x)
        assert calls == []

    def test_accepted_lassos_lists_every_accepted_normal_form_in_order(self, rng):
        for _ in range(120):
            b = gen.random_buchi(rng, gen.letters(rng.randint(2, 3)), max_states=4)
            expected = [
                x
                for word in oracles.enumerate_words(b.alphabet, 4)
                for x in (LassoWord(word[:k], word[k:]) for k in range(len(word)))
                if x.normalize() == x and oracles.buchi_accepts_lasso(b, x)
            ]
            # total length, then stem length, then letters
            expected.sort(key=lambda x: (len(x.stem) + len(x.cycle), len(x.stem), x.stem, x.cycle))
            assert accepted_lassos(b, 4) == expected

    def test_accepted_lassos_walks_deeper_than_the_recursion_limit(self):
        # one level per letter: a walk that recursed per letter would need
        # more frames than the lowered limit allows
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        was = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            assert accepted_lassos(a_omega(), depth + 200) == [LassoWord((), ("a",))]
        finally:
            sys.setrecursionlimit(was)

    def test_single_lasso_automaton(self, rng):
        for _ in range(20):
            x = gen.random_lasso(rng, gen.letters(2))
            m = lasso_automaton(x, gen.letters(2))
            assert oracles.buchi_accepts_lasso(m, x)
            y = gen.random_lasso(rng, gen.letters(2))
            same = x.normalize() == y.normalize()
            assert oracles.buchi_accepts_lasso(m, y) == same
        with pytest.raises(AlphabetMismatchError, match="lasso letter 'c' not in alphabet"):
            lasso_automaton(LassoWord(("a",), ("c",)), AB)


class TestCantorDistance:
    def test_identity(self):
        assert cantor_distance(LassoWord((), ("a",)), LassoWord(("a",), ("a", "a"))) == 0

    def test_metric_goldens(self):
        a_w = LassoWord((), ("a",))
        ab_w = LassoWord(("a",), ("b",))
        b_w = LassoWord((), ("b",))
        assert cantor_distance(a_w, ab_w) == Fraction(1, 2)
        assert cantor_distance(a_w, b_w) == Fraction(1, 1)

    def test_symmetry_and_ultrametric(self, rng):
        for _ in range(80):
            x = gen.random_lasso(rng, gen.letters(2), max_stem=3, max_cycle=2)
            y = gen.random_lasso(rng, gen.letters(2), max_stem=3, max_cycle=2)
            z = gen.random_lasso(rng, gen.letters(2), max_stem=3, max_cycle=2)
            assert cantor_distance(x, y) == cantor_distance(y, x)
            assert cantor_distance(x, z) <= max(cantor_distance(x, y), cantor_distance(y, z))

    def test_zero_exactly_on_equal_words(self, rng):
        for _ in range(80):
            x = gen.random_lasso(rng, gen.letters(2), max_stem=2, max_cycle=2)
            y = gen.random_lasso(rng, gen.letters(2), max_stem=2, max_cycle=2)
            d = cantor_distance(x, y)
            assert (d == 0) == (x.normalize() == y.normalize())


FIG2 = Path(__file__).resolve().parent.parent / "fixtures" / "fig2.aut"


def _assert_stored_form(x):
    """Sorted rows without repeats, equal (and equally hashed) to the
    automaton the public constructor builds from the derived triples."""
    assert len(x._succ) == x.n_states
    for row in x._succ:
        assert list(row) == sorted(set(row))
    rebuilt = type(x)(x.alphabet, x.n_states, x.initial, x.accepting, x.transitions)
    assert x == rebuilt and hash(x) == hash(rebuilt)


class TestStoredForm:
    """Successor rows are the stored form; ``transitions`` is derived from them."""

    def test_every_builder_emits_sorted_rows_equal_to_the_public_rebuild(self, rng):
        shared_letter_rows = 0
        for _ in range(60):
            alphabet = gen.letters(rng.randint(2, 3))
            fa = gen.random_fin(rng, alphabet, max_states=5, density=2.5)
            fb = gen.random_fin(rng, alphabet, max_states=5, density=2.5)
            ba = gen.random_buchi(rng, alphabet, max_states=5, density=2.5)
            bb = gen.random_buchi(rng, alphabet, max_states=5, density=2.5)
            system = gen.random_fin(rng, alphabet, max_states=5, all_accepting=True)
            h = gen.random_hom(rng, alphabet, p_hide=0.5)
            f = gen.random_formula(rng, alphabet.symbols, 2)
            products = [product(ba, bb), product_fin(fa, fb)]
            built = products + [
                canonicalize(fa),
                reduce_buchi(ba),
                prefix_automaton(ba),
                limit(canonicalize(system)),
                lasso_automaton(gen.random_lasso(rng, alphabet), alphabet),
                *to_buchi(f, alphabet),
                compute_xtd(system),
                compute_xtd(system, hom=h),
                image_automaton(h, system),
            ]
            for x in built:
                _assert_stored_form(x)
            shared_letter_rows += sum(
                row[i][0] == row[i - 1][0]
                for p in products
                for row in p._succ
                for i in range(1, len(row))
            )
        # product rows with several targets per letter, which need their sort
        assert shared_letter_rows >= 100

    def test_row_equality_is_triple_set_equality(self, rng):
        neighbours = 0
        for _ in range(300):
            alphabet = gen.letters(2)
            a = gen.random_buchi(rng, alphabet, max_states=3)
            if rng.random() < 0.5:  # a neighbour: one transition toggled
                t = (rng.randrange(a.n_states), rng.choice("ab"), rng.randrange(a.n_states))
                b = BuchiAutomaton(
                    alphabet, a.n_states, a.initial, a.accepting, a.transitions ^ {t}
                )
                neighbours += 1
            else:
                b = gen.random_buchi(rng, alphabet, max_states=3)
            fields = lambda x: (x.n_states, x.initial, x.accepting, x.transitions)  # noqa: E731
            assert (a == b) == (fields(a) == fields(b))
            # the same triples in another order, with repeats
            triples = list(a.transitions) * 2
            rng.shuffle(triples)
            c = BuchiAutomaton(alphabet, a.n_states, a.initial, a.accepting, triples)
            assert c == a and hash(c) == hash(a)
        assert neighbours >= 100

    def test_the_check_pipeline_never_derives_transitions(self):
        parsed = parse_automaton(FIG2.read_text())
        system = limit(canonicalize(parsed))
        positive, negative = to_buchi(parse_formula("G (request -> F result)"), system.alphabet)
        conforming = product(system, positive)
        prefixes = prefix_automaton(conforming)
        canonical = canonicalize(prefixes)
        boundary = limit(canonical)
        bad = product(boundary, negative)
        assert accepting_lasso(bad) is not None
        for x in (parsed, system, conforming, prefixes, canonical, boundary, bad):
            assert "transitions" not in vars(x)
