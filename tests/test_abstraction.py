"""Abstraction behavior: images, inverse images, closure checks, padding."""

import json
import random
import re
from pathlib import Path

import pytest

import gen
from oracles import brute_wcc, enumerate_words, nfa_accepts, relative_xtd_accepts
from faircheck import abstraction
from faircheck.automata import (
    EPS_TOKEN,
    HASH_TOKEN,
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
    is_prefix_closed,
    language_equal,
    language_subset,
    lasso_automaton,
    lasso_membership,
    limit,
    prefix_automaton,
    product,
    product_fin,
)
from faircheck.cli import run
from faircheck.formats import (
    format_automaton,
    format_homomorphism,
    parse_automaton,
    parse_homomorphism,
)
from faircheck.pltl import (
    Labeling,
    NotNormalFormError,
    parse_formula,
    substitute_atom,
    transform,
)
from faircheck.relprops import PropertySpec, is_relative_liveness
from faircheck.abstraction import (
    Homomorphism,
    WccReport,
    abstract_behavior,
    apply_hom_lasso,
    compute_xtd,
    image_automaton,
    inverse_image_automaton,
    is_weakly_continuation_closed,
    preserve_check,
    within_fairness_finitary,
)

AB = Alphabet(("a", "b"))
A1 = Alphabet(("a",))
HIDE_B = Homomorphism.hiding(AB, {"b"})
SERVER_HIDE = Homomorphism.hiding(gen.SERVER_SIGMA, {"lock", "free", "no"})
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def a_star_b() -> FinAutomaton:
    return FinAutomaton(AB, 2, {0}, {1}, {(0, "a", 0), (0, "b", 1)})


def sigma_star(alphabet: Alphabet) -> FinAutomaton:
    return FinAutomaton(
        alphabet, 1, {0}, {0}, {(0, c, 0) for c in alphabet}
    )


def random_system(rng: random.Random, alphabet: Alphabet, max_states: int = 4):
    return gen.random_fin(rng, alphabet, max_states=max_states, all_accepting=True)


class TestHomomorphism:
    def test_totality_is_required(self):
        with pytest.raises(ValueError):
            Homomorphism(AB, A1, (("a", "a"),))

    def test_images_must_be_target_letters(self):
        with pytest.raises(ValueError):
            Homomorphism(AB, A1, (("a", "a"), ("b", "c")))

    def test_hiding(self):
        assert HIDE_B.hidden == frozenset({"b"})
        assert HIDE_B.target == A1
        assert HIDE_B.image("b") == "eps"
        with pytest.raises(ValueError):
            Homomorphism.hiding(AB, {"a", "b"})
        with pytest.raises(ValueError, match=r"hidden letters \['c'\] are not in the alphabet"):
            Homomorphism.hiding(AB, {"c"})

    def test_identity(self):
        h = Homomorphism.identity(AB)
        assert h.image("a") == "a" and h.image("b") == "b"
        assert h.hidden == frozenset()

    def test_unknown_letter_rejected(self):
        with pytest.raises(ValueError):
            HIDE_B.image("c")

    def test_lift_hash(self):
        lifted = HIDE_B.lift_hash()
        assert lifted.image("#") == "#"
        assert "#" in lifted.source and "#" in lifted.target
        assert lifted.lift_hash() is lifted

    def test_labeling_tags_letters_with_images(self):
        lab = HIDE_B.labeling()
        assert lab.props("a") == frozenset({"a"})
        assert lab.props("b") == frozenset({"eps"})


class TestApplyHomLasso:
    def test_hidden_letters_drop_out(self):
        img = apply_hom_lasso(HIDE_B, LassoWord((), ("a", "b")))
        assert img == LassoWord((), ("a",))

    def test_fully_hidden_cycle_is_undefined(self):
        img = apply_hom_lasso(HIDE_B, LassoWord(("a",), ("b",)))
        assert img is None

    def test_identity_keeps_the_word(self):
        x = LassoWord(("b",), ("a", "b"))
        assert apply_hom_lasso(Homomorphism.identity(AB), x) == x.normalize()

    def test_source_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            apply_hom_lasso(HIDE_B, LassoWord((), ("c",)))


class TestImageAutomaton:
    def test_a_star_b_collapses_to_a_star(self):
        img = image_automaton(HIDE_B, a_star_b())
        a_star = FinAutomaton(A1, 1, {0}, {0}, {(0, "a", 0)})
        assert language_equal(img, a_star) == (True, None)

    def test_identity_preserves_language(self, rng):
        for _ in range(30):
            a = gen.random_fin(rng, AB, max_states=5)
            img = image_automaton(Homomorphism.identity(AB), a)
            ok, witness = language_equal(img, a)
            assert ok, witness

    def test_prefix_closedness_is_preserved(self, rng):
        for _ in range(30):
            a = random_system(rng, gen.letters(3))
            h = gen.random_hom(rng, a.alphabet)
            assert is_prefix_closed(image_automaton(h, a))

    def test_server_image_has_the_reduced_shape(self):
        img = image_automaton(SERVER_HIDE, gen.releasing_server())
        reduced = FinAutomaton(
            SERVER_HIDE.target,
            2,
            {0},
            {0, 1},
            {(0, "request", 1), (1, "result", 0), (1, "reject", 0)},
        )
        assert language_equal(img, reduced) == (True, None)
        # hiding cannot tell the trapping variant apart
        img2 = image_automaton(SERVER_HIDE, gen.trapping_server())
        assert language_equal(img2, reduced) == (True, None)

    def test_source_mismatch(self):
        with pytest.raises(
            AlphabetMismatchError,
            match=re.escape(
                "automaton alphabet ('a', 'b', 'c') differs from the "
                "source alphabet ('a', 'b')"
            ),
        ):
            image_automaton(HIDE_B, sigma_star(gen.letters(3)))


class TestInverseImage:
    def test_finitary_inverse_of_a_star(self):
        a_star = FinAutomaton(A1, 1, {0}, {0}, {(0, "a", 0)})
        inv = inverse_image_automaton(HIDE_B, a_star)
        assert language_equal(inv, sigma_star(AB)) == (True, None)

    def test_identity_inverse_is_the_language(self, rng):
        for _ in range(20):
            a = gen.random_fin(rng, AB, max_states=5)
            inv = inverse_image_automaton(Homomorphism.identity(AB), a)
            ok, witness = language_equal(inv, a)
            assert ok, witness

    def test_adjunction_language_below_inverse_of_image(self, rng):
        for _ in range(40):
            alphabet = gen.letters(rng.randint(2, 3))
            a = gen.random_fin(rng, alphabet, max_states=5)
            h = gen.random_hom(rng, alphabet)
            back = inverse_image_automaton(h, image_automaton(h, a))
            ok, witness = language_subset(a, back)
            assert ok, witness

    def test_buchi_inverse_demands_infinitely_many_visible_letters(self):
        a_omega = BuchiAutomaton(A1, 1, {0}, {0}, {(0, "a", 0)})
        inv = inverse_image_automaton(HIDE_B, a_omega)
        assert lasso_membership(LassoWord((), ("a", "b")), inv)
        assert lasso_membership(LassoWord((), ("a",)), inv)
        assert not lasso_membership(LassoWord((), ("b",)), inv)
        assert not lasso_membership(LassoWord(("a", "a"), ("b",)), inv)
        for x in accepted_lassos(inv, 5)[:8]:
            assert "a" in set(x.cycle)

    def test_target_mismatch(self):
        with pytest.raises(
            AlphabetMismatchError,
            match=re.escape(
                "automaton alphabet ('a', 'b') differs from the target alphabet ('a',)"
            ),
        ):
            inverse_image_automaton(HIDE_B, sigma_star(AB))


class TestAbstractBehavior:
    def test_non_prefix_closed_input_is_rejected(self):
        with pytest.raises(NotPrefixClosedError):
            abstract_behavior(a_star_b(), HIDE_B)

    def test_identity_on_full_language(self):
        b = abstract_behavior(sigma_star(AB), Homomorphism.identity(AB))
        assert lasso_membership(LassoWord((), ("a", "b")), b)
        assert lasso_membership(LassoWord((), ("b",)), b)

    def test_server_abstract_behavior(self):
        b = abstract_behavior(gen.releasing_server(), SERVER_HIDE)
        reduced = FinAutomaton(
            SERVER_HIDE.target,
            2,
            {0},
            {0, 1},
            {(0, "request", 1), (1, "result", 0), (1, "reject", 0)},
        )
        ok, witness = language_equal(prefix_automaton(b), canonicalize(reduced))
        assert ok, witness


class TestWcc:
    def test_identity_is_always_closed(self, rng):
        for _ in range(20):
            a = random_system(rng, AB)
            report = is_weakly_continuation_closed(a, Homomorphism.identity(AB))
            assert report.closed and not report.violations and bool(report)

    def test_releasing_server_is_closed(self):
        assert is_weakly_continuation_closed(gen.releasing_server(), SERVER_HIDE).closed

    def test_trapping_server_is_not_closed(self):
        report = is_weakly_continuation_closed(gen.trapping_server(), SERVER_HIDE)
        assert not report.closed
        assert report.violations
        assert not bool(report)
        # every witness enters the lock region, where the image keeps
        # promising a result that the concrete quotient can no longer deliver
        for _, _, word in report.violations:
            assert word[0] == "lock"

    def test_report_invariant(self):
        with pytest.raises(InvariantError):
            WccReport(True, ((0, 0, ("a",)),))
        with pytest.raises(InvariantError):
            WccReport(False, ())

    def test_non_prefix_closed_input_is_rejected(self):
        with pytest.raises(NotPrefixClosedError):
            is_weakly_continuation_closed(a_star_b(), HIDE_B)

    def test_agrees_with_brute_force(self, rng):
        # draw until both quotas are met, so that no seed falls short
        closed_hits = open_hits = 0
        for _ in range(600):
            if closed_hits >= 10 and open_hits >= 10:
                break
            alphabet = gen.letters(rng.randint(2, 3))
            a = random_system(rng, alphabet, max_states=4)
            h = gen.random_hom(rng, alphabet, p_hide=0.5)
            report = is_weakly_continuation_closed(a, h)
            got = report.closed
            expected = brute_wcc(a, h)
            assert got == expected, (a, h.entries)
            system, image = canonicalize(a), image_automaton(h, a)
            for q, d, word in report.violations:
                visible = [h.image(c) for c in word if h.image(c) != "eps"]
                assert _run(system, word) == q, (a, h.entries, word)
                assert _run(image, visible) == d, (a, h.entries, word)
            if got:
                closed_hits += 1
            else:
                open_hits += 1
        assert closed_hits >= 10 and open_hits >= 10

    def test_one_image_per_check(self, rng, monkeypatch):
        # the closure check and the relative padding are whole-automaton
        # passes: no image is built per system state
        built = []

        def counting(name, real):
            def wrapper(h, a):
                built.append(name)
                return real(h, a)

            return wrapper

        monkeypatch.setattr(
            abstraction, "_image_nfa", counting("nfa", abstraction._image_nfa)
        )
        monkeypatch.setattr(
            abstraction, "image_automaton", counting("image", abstraction.image_automaton)
        )
        for _ in range(30):
            alphabet = gen.letters(rng.randint(2, 3))
            a = random_system(rng, alphabet, max_states=6)
            h = gen.random_hom(rng, alphabet, p_hide=0.5)
            built.clear()
            is_weakly_continuation_closed(a, h)
            assert built.count("nfa") <= 1 and built.count("image") <= 1
            built.clear()
            compute_xtd(a, hom=h)
            assert built == []

    def test_one_subset_construction_per_check(self, rng, subset_runs):
        # the canonical image is read off the construction seeded at every
        # system state, so the first check on a (canonical system, hom) pair
        # determinizes the image NFA once, and the pair's view keeps the
        # result for every later check; padding a canonical automaton over a
        # #-free alphabet keeps it canonical, so neither padded side is
        # determinized again
        checks = [
            lambda c, h, f: is_weakly_continuation_closed(c, h),
            lambda c, h, f: preserve_check(c, h, f),
            lambda c, h, f: abstract_behavior(c, h),
            lambda c, h, f: compute_xtd(c, hom=h),
        ]
        for i in range(30):
            alphabet = gen.letters(rng.randint(2, 3))
            c = canonicalize(random_system(rng, alphabet, max_states=6))
            h = gen.random_hom(rng, alphabet, p_hide=0.5)
            f = gen.random_extended_formula(rng, h.target.symbols, 2)
            seeded = (abstraction._image_nfa(h, c), [1 << q for q in c.states])
            subset_runs.clear()
            checks[i % 3](c, h, f)
            assert subset_runs == [seeded]
            subset_runs.clear()
            # a hom built afresh with an equal value shares the view
            for hom in (h, Homomorphism(h.source, h.target, h.entries)):
                for check in checks:
                    check(c, hom, f)
            compute_xtd(c)
            assert subset_runs == []
            # a fresh canonical object runs its own construction
            fresh = canonicalize(c._recast(FinAutomaton))
            assert fresh == c and fresh is not c
            checks[(i + 1) % 3](fresh, h, f)
            assert subset_runs == [seeded]

    @pytest.mark.seed_sweep
    def test_views_are_kept_and_equal_the_values_computed_afresh(self, rng):
        # each system is read with two homs of one target alphabet, so a view
        # answered from another hom's result would differ from the fresh
        # computation on a new canonical copy; the plain padding, read after
        # the relative one, would differ from it if answered in its place
        def read(c, h):
            wcc = abstraction._view(c, abstraction._wcc, h)
            return (
                wcc,
                abstraction._view(wcc[1], abstraction._xtd, None),
                abstraction._view(c, abstraction._xtd, h),
                abstraction._view(c, abstraction._hidden_cycle, h),
            )

        closed = differ = padded_apart = 0
        for i in range(80):
            if i % 2 == 0:
                alphabet = gen.letters(rng.randint(2, 3))
                a = random_system(rng, alphabet, max_states=6)
                h = gen.random_hom(rng, alphabet, p_hide=0.5)
                first = None
            else:  # the first hom's images, rotated over the source letters
                images = [img for _, img in h.entries]
                rotated = zip(h.source.symbols, images[1:] + images[:1])
                h = Homomorphism(h.source, h.target, tuple(rotated))
            c = canonicalize(a)
            fields = read(c, h)
            # a second read, through a hom built afresh, gives the same objects
            again = read(c, Homomorphism(h.source, h.target, h.entries))
            assert all(x is y for x, y in zip(again, fields))
            assert is_weakly_continuation_closed(a, h) is fields[0][0]
            assert compute_xtd(a, hom=h) is fields[2]
            assert abstract_behavior(a, h) is limit(fields[0][1])
            plain = compute_xtd(a)
            assert compute_xtd(c) is plain
            copy = canonicalize(c._recast(FinAutomaton))
            assert copy == c and copy is not c
            report, image = abstraction._wcc(copy, h)
            afresh = (
                (report, image),
                abstraction._xtd(image, None),
                abstraction._xtd(copy, h),
                abstraction._hidden_cycle(copy, h),
            )
            assert fields == afresh, (a, h.entries)
            assert plain == abstraction._xtd(copy, None), (a, h.entries)
            assert report.closed == brute_wcc(a, h), (a, h.entries)
            closed += report.closed
            differ += first is not None and first != afresh
            padded_apart += plain != afresh[2]
            first = afresh
        assert closed >= 20 and 80 - closed >= 5 and differ >= 15 and padded_apart >= 5

    def test_the_canonical_image_is_not_canonicalized_again(self, minimal_dfa_runs):
        # the image D comes out of the seeded construction marked as its own
        # canonical form, so the limit that abstract_behavior takes of it
        # determinizes nothing: only the system itself is canonicalized
        system = parse_automaton((FIXTURES / "fig2.aut").read_text())
        hom = parse_homomorphism((FIXTURES / "hide.hom").read_text(), system.alphabet)
        is_weakly_continuation_closed(system, hom)
        abstract_behavior(system, hom)
        assert len(minimal_dfa_runs) == 1 and minimal_dfa_runs[0] is system
        assert system.n_states == 5

    def test_canonical_image_comes_from_the_seeded_construction(self, rng):
        _, d = abstraction._wcc(canonicalize(FinAutomaton.empty(AB)), HIDE_B)
        assert d == image_automaton(HIDE_B, FinAutomaton.empty(AB))
        hidden_cycles = renamings = 0
        for _ in range(240):
            alphabet = gen.letters(rng.randint(2, 3))
            a = random_system(rng, alphabet, max_states=6)
            h = gen.random_hom(rng, alphabet, p_hide=0.5)
            _, d = abstraction._wcc(canonicalize(a), h)
            assert format_automaton(d) == format_automaton(image_automaton(h, a))
            hidden_cycles += gen.has_hidden_cycle(a, h)
            renamings += any(img not in (sym, "eps") for sym, img in h.entries)
        assert hidden_cycles >= 20 and renamings >= 20


def _run(dfa: FinAutomaton, word) -> int:
    state = next(iter(dfa.initial))
    for letter in word:
        (state,) = dfa.successors(state, letter)
    return state


class TestXtd:
    def test_single_maximal_word(self):
        # {eps, a} gains a # tail after its maximal word a
        ea = FinAutomaton(A1, 2, {0}, {0, 1}, {(0, "a", 1)})
        xt = compute_xtd(ea)
        assert xt.alphabet.symbols == ("#", "a")
        assert accepts(xt, ())
        assert accepts(xt, ("a",))
        assert accepts(xt, ("a", "#", "#"))
        assert not accepts(xt, ("#",))
        assert not accepts(xt, ("a", "#", "a"))

    def test_no_maximal_words_means_no_padding(self):
        xt = compute_xtd(sigma_star(AB))
        assert "#" in xt.alphabet
        assert not any(s == "#" for _, s, _ in xt.transitions)

    def test_relative_padding_at_fully_hidden_futures(self):
        # pre(a b*) with b hidden: after a, everything ahead is invisible
        ab_star = FinAutomaton(AB, 2, {0}, {0, 1}, {(0, "a", 1), (1, "b", 1)})
        xt = compute_xtd(ab_star, hom=HIDE_B)
        assert accepts(xt, ("a", "#"))
        assert accepts(xt, ("a", "b", "#", "#"))
        assert not accepts(xt, ("#",))
        # padding states keep their hidden moves, so # and hidden letters
        # interleave; only genuinely new visible futures stay out
        assert accepts(xt, ("a", "#", "b"))
        assert not accepts(xt, ("a", "#", "a"))

    def test_relative_padding_agrees_with_the_definition(self, rng):
        padded_hits = plain_hits = 0
        for i in range(240):
            alphabet = gen.letters(rng.randint(2, 3))
            # every other system is not prefix-closed
            a = gen.random_fin(rng, alphabet, max_states=4, all_accepting=i % 2 == 0)
            h = gen.random_hom(rng, alphabet, p_hide=0.5)
            xt = compute_xtd(a, hom=h)
            for w in enumerate_words(xt.alphabet, 4):
                expected = relative_xtd_accepts(a, h, w)
                assert accepts(xt, w) == expected, (a, h.entries, w)
            if any(s == "#" for _, s, _ in xt.transitions):
                padded_hits += 1
            else:
                plain_hits += 1
        assert padded_hits >= 40 and plain_hits >= 40

    def test_relative_under_identity_matches_plain(self, rng):
        for _ in range(20):
            a = gen.random_fin(rng, AB, max_states=5)
            plain = compute_xtd(a)
            relative = compute_xtd(a, hom=Homomorphism.identity(AB))
            ok, witness = language_equal(plain, relative)
            assert ok, witness

    @pytest.mark.seed_sweep
    def test_padding_keeps_the_canonical_form(self, rng):
        # the padded canonical automaton is returned without canonicalizing
        # it again; canonicalizing an unmarked copy gives it back; the draws
        # go on past 120 until 20 have padding, so that no seed falls short
        padded_hits = 0
        for i in range(360):
            if i >= 120 and padded_hits >= 20:
                break
            alphabet = gen.letters(rng.randint(2, 3))
            a = gen.random_fin(rng, alphabet, max_states=5, all_accepting=i % 2 == 0)
            h = gen.random_hom(rng, alphabet, p_hide=0.5) if i % 3 else None
            xt = compute_xtd(a, hom=h)
            again = canonicalize(xt._recast(FinAutomaton))
            assert xt == again, (a, h)
            assert format_automaton(xt) == format_automaton(again)
            padded_hits += any(s == "#" for _, s, _ in xt.transitions)
        assert padded_hits >= 20

    def test_padding_over_a_hash_alphabet_is_canonicalized(self, minimal_dfa_runs):
        # s0 -a-> s1, s0 -#-> s2 -#-> s2: padding the dead end s1 gives it
        # s2's residual #*, so the two merge
        a = FinAutomaton(
            Alphabet(("#", "a")), 3, {0}, {0, 1, 2}, {(0, "a", 1), (0, "#", 2), (2, "#", 2)}
        )
        c = canonicalize(a)
        minimal_dfa_runs.clear()
        xt = compute_xtd(c)
        assert len(minimal_dfa_runs) == 1
        assert xt.n_states == 2
        assert xt.transitions == {(0, "#", 1), (0, "a", 1), (1, "#", 1)}
        again = canonicalize(xt._recast(FinAutomaton))
        assert xt == again
        assert format_automaton(xt) == format_automaton(again)

    def test_padding_loses_no_information(self, rng):
        # restricting the padded limit's prefixes back to the bare alphabet
        # recovers the language exactly
        for _ in range(40):
            alphabet = gen.letters(rng.randint(2, 3))
            a = random_system(rng, alphabet, max_states=5)
            xt = compute_xtd(a)
            pre = prefix_automaton(limit(xt))
            bare = product_fin(
                pre,
                FinAutomaton(
                    xt.alphabet, 1, {0}, {0}, {(0, c, 0) for c in alphabet}
                ),
            )
            widened = FinAutomaton(
                xt.alphabet, a.n_states, a.initial, a.accepting, a.transitions
            )
            ok, witness = language_equal(bare, widened)
            assert ok, witness


class TestWithinFairnessFinitary:
    def test_padded_tail_satisfies_eps(self):
        ea = FinAutomaton(A1, 2, {0}, {0, 1}, {(0, "a", 1)})
        verdict = within_fairness_finitary(
            ea, Labeling.canonical(A1), parse_formula("G (eps | a)")
        )
        assert bool(verdict)

    def test_full_language_satisfies_double_a(self):
        verdict = within_fairness_finitary(
            sigma_star(AB), Labeling.canonical(AB), parse_formula("F (a & X a)")
        )
        assert bool(verdict)

    def test_empty_word_language_fails_eventualities(self):
        eps_only = FinAutomaton(A1, 1, {0}, {0}, frozenset())
        verdict = within_fairness_finitary(
            eps_only, Labeling.canonical(A1), parse_formula("F a")
        )
        assert not verdict
        assert verdict.witness == ()


def _preimage_lasso(system_limit, h, target):
    """A lasso of the concrete limit whose image is the target, if one exists."""
    inv = inverse_image_automaton(h, lasso_automaton(target, h.target))
    return accepting_lasso(product(system_limit, inv))


class TestLimitExchange:
    def test_limit_and_image_commute_on_prefix_closed_languages(self, rng):
        checked = 0
        for _ in range(100):
            alphabet = gen.letters(rng.randint(2, 3))
            a = random_system(rng, alphabet, max_states=5)
            h = gen.random_hom(rng, alphabet)
            concrete = limit(canonicalize(a))
            abstract = abstract_behavior(a, h)
            for target in accepted_lassos(abstract, 5)[:4]:
                x = _preimage_lasso(concrete, h, target)
                assert x is not None, (a, h.entries, target.as_text())
                assert lasso_membership(x, concrete)
                assert apply_hom_lasso(h, x) == target.normalize()
                checked += 1
            for x in accepted_lassos(concrete, 5)[:4]:
                image = apply_hom_lasso(h, x)
                if image is None:
                    continue
                assert lasso_membership(image, abstract)
                checked += 1
        assert checked >= 150

    def test_the_standard_counterexample_without_prefix_closure(self):
        # all words a^k b are pairwise prefix-incomparable, so the concrete
        # limit is empty, yet the image limit is a^omega
        aut = a_star_b()
        words = [w for w in enumerate_words(AB, 6) if nfa_accepts(aut, w)]
        for i, w1 in enumerate(words):
            for w2 in words[i + 1 :]:
                assert w2[: len(w1)] != w1
        with pytest.raises(NotPrefixClosedError):
            abstract_behavior(aut, HIDE_B)
        image_limit = limit(image_automaton(HIDE_B, aut))
        assert lasso_membership(LassoWord((), ("a",)), image_limit)


class TestPreserveCheck:
    def test_releasing_server_is_certified(self):
        report = preserve_check(
            gen.releasing_server(), SERVER_HIDE, parse_formula("G F result")
        )
        assert report.wcc.closed
        assert report.abstract_holds and report.concrete_holds
        assert report.equivalence_certified
        assert report.note is None

    def test_trapping_server_shows_why_closure_matters(self):
        report = preserve_check(
            gen.trapping_server(), SERVER_HIDE, parse_formula("G F result")
        )
        assert not report.wcc.closed
        assert report.abstract_holds and not report.concrete_holds
        assert not report.equivalence_certified
        assert report.note is not None and "concrete" in report.note

    def test_identity_abstraction_is_always_certified(self, rng):
        for _ in range(25):
            alphabet = gen.letters(rng.randint(2, 3))
            a = random_system(rng, alphabet, max_states=4)
            f = gen.random_extended_formula(rng, alphabet.symbols, 2)
            report = preserve_check(a, Homomorphism.identity(alphabet), f)
            assert report.equivalence_certified
            assert report.abstract_holds == report.concrete_holds

    def test_closure_transfers_the_verdict(self, rng):
        # equality needs one more hypothesis beyond closure: the system must
        # not be able to run forever on hidden letters alone (see the
        # counterexample test below), so equality instances are sampled
        # without reachable hidden cycles
        closed_hits = 0
        for _ in range(150):
            alphabet = gen.letters(rng.randint(2, 3))
            a = random_system(rng, alphabet, max_states=4)
            h = gen.random_hom(rng, alphabet)
            if gen.has_hidden_cycle(a, h):
                continue
            f = gen.random_extended_formula(rng, h.target.symbols, 2)
            report = preserve_check(a, h, f)
            if report.wcc.closed:
                closed_hits += 1
                assert report.abstract_holds == report.concrete_holds, (
                    a,
                    h.entries,
                    f,
                )
        assert closed_hits >= 25

    def test_closure_transfers_abstract_satisfaction_downward(self, rng):
        # without the cycle-free hypothesis one direction still survives:
        # a closed abstraction's positive verdict forces the concrete one
        closed_hits = 0
        for _ in range(100):
            alphabet = gen.letters(rng.randint(2, 3))
            a = random_system(rng, alphabet, max_states=4)
            h = gen.random_hom(rng, alphabet)
            f = gen.random_extended_formula(rng, h.target.symbols, 2)
            report = preserve_check(a, h, f)
            if report.wcc.closed:
                closed_hits += 1
                if report.abstract_holds:
                    assert report.concrete_holds, (a, h.entries, f)
        assert closed_hits >= 25

    @pytest.mark.seed_sweep
    def test_transfer_rules_give_the_computed_concrete_verdict(self, rng):
        # preserve_check takes the concrete verdict from a rule where one
        # applies: a closed abstraction whose abstract verdict holds, or a
        # closed one over a system with no reachable hidden cycle.  Here the
        # concrete verdict is computed on every draw, from the public pieces
        # of its definition, so a rule applied beyond its hypotheses fails
        fired = {"holds": 0, "no hidden cycle": 0}
        hide_a = Homomorphism.hiding(AB, {"a"})
        cases = [(FinAutomaton.empty(AB), hide_a, parse_formula("F G !b"))]
        for _ in range(300):
            alphabet = gen.letters(rng.randint(2, 3))
            a = random_system(rng, alphabet, max_states=5)
            h = gen.random_hom(rng, alphabet)
            f = gen.random_extended_formula(rng, h.target.symbols, rng.randint(1, 3))
            cases.append((a, h, f))
        for a, h, f in cases:
            report = preserve_check(a, h, f)
            cycle = gen.has_hidden_cycle(a, h)
            assert abstraction._hidden_cycle(canonicalize(a), h) == cycle, (a, h.entries)
            padded = compute_xtd(a, h)
            retransformed = transform(substitute_atom(f, EPS_TOKEN, HASH_TOKEN), "R")
            labeling = h.lift_hash().labeling()
            spec = PropertySpec.from_formula(retransformed, padded.alphabet, labeling)
            concrete = is_relative_liveness(limit(padded), spec).holds
            assert report.concrete_holds == concrete, (a, h.entries, f)
            certified = report.wcc.closed and report.abstract_holds == concrete
            assert report.equivalence_certified == certified, (a, h.entries, f)
            if report.wcc.closed and (report.abstract_holds or not cycle):
                fired["holds" if report.abstract_holds else "no hidden cycle"] += 1
                assert concrete == report.abstract_holds, (a, h.entries, f)
        assert min(fired.values()) >= 25, fired

    def test_invisible_forever_branches_defeat_verdict_transfer(self, tmp_path, capsys):
        # the full shuffle over {a,b} with a hidden: the image b* is closed
        # under this abstraction and has no maximal words, so its padded
        # limit is the single computation b^omega and "F G !b" fails there.
        # Concretely, though, every prefix extends with a^omega, and the
        # retransformed obligation is discharged on that invisible tail.
        # Hiding loses the distinction between "stops acting visibly" and
        # "keeps acting visibly", and closure cannot see the difference, so
        # the two verdicts genuinely diverge on such systems.
        full = sigma_star(AB)
        h = Homomorphism.hiding(AB, {"a"})
        report = preserve_check(full, h, parse_formula("F G !b"))
        assert report.wcc.closed
        assert not report.abstract_holds
        assert report.concrete_holds
        assert gen.has_hidden_cycle(full, h)
        # so the equivalence is not certified, and only the downward rule is left
        note = "closed, but the verdicts differ: only a holding abstract verdict transfers"
        assert not report.equivalence_certified and report.note == note
        system, hom = tmp_path / "full.aut", tmp_path / "hide_a.hom"
        system.write_text(format_automaton(full))
        hom.write_text(format_homomorphism(h))
        argv = ["preserve", "--system", str(system), "--hom", str(hom), "--formula", "F G !b"]
        assert run(argv) == 1
        verdict = json.loads(capsys.readouterr().out)["verdict"]
        assert not verdict["equivalence_certified"] and verdict["note"] == note

    def test_formula_must_be_in_extended_normal_form(self):
        with pytest.raises(NotNormalFormError):
            preserve_check(
                sigma_star(AB),
                Homomorphism.identity(AB),
                parse_formula("! (a & b)"),
            )
        with pytest.raises(NotNormalFormError):
            preserve_check(
                sigma_star(AB),
                Homomorphism.identity(AB),
                parse_formula("F eps"),
            )

    def test_non_prefix_closed_input_is_rejected(self):
        with pytest.raises(NotPrefixClosedError):
            preserve_check(a_star_b(), HIDE_B, parse_formula("G a"))
