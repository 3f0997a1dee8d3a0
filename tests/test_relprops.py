"""Tests for the fairness-relative decision procedures."""

from pathlib import Path

import pytest

import gen
import oracles
from faircheck import automata, relprops, synthesis
from faircheck.automata import (
    Alphabet,
    AlphabetMismatchError,
    BuchiAutomaton,
    FinAutomaton,
    InvariantError,
    LassoWord,
    accepted_lassos,
    accepting_lasso,
    accepts,
    canonicalize,
    cantor_distance,
    is_empty,
    language_equal,
    language_subset,
    lasso_membership,
    limit,
    prefix_automaton,
    product,
)
from faircheck.formats import parse_automaton
from faircheck.pltl import Labeling, parse_formula
from faircheck.relprops import (
    PropertySpec,
    Verdict,
    is_machine_closed,
    is_relative_liveness,
    is_relative_safety,
    is_safety_property,
    satisfies,
)
from faircheck.synthesis import synthesize_fair_impl, verify_fair_impl

AB = Alphabet(("a", "b"))


def sigma_omega(alphabet: Alphabet) -> BuchiAutomaton:
    trans = frozenset((0, s, 0) for s in alphabet.symbols)
    return BuchiAutomaton(alphabet, 1, frozenset({0}), frozenset({0}), trans)


def prop(text: str, alphabet: Alphabet = AB) -> PropertySpec:
    return PropertySpec.from_formula(parse_formula(text), alphabet)


def releasing_system() -> BuchiAutomaton:
    return limit(canonicalize(gen.releasing_server()))


def trapping_system() -> BuchiAutomaton:
    return limit(canonicalize(gen.trapping_server()))


class TestVerdict:
    def test_witness_exactly_on_failure(self):
        assert Verdict(True).holds
        assert not Verdict(False, ("a",)).holds
        with pytest.raises(InvariantError):
            Verdict(True, ("a",))
        with pytest.raises(InvariantError):
            Verdict(False)

    def test_empty_word_witness_is_legal(self):
        v = Verdict(False, ())
        assert not v.holds and v.witness == ()

    def test_truthiness(self):
        assert bool(Verdict(True)) and not bool(Verdict(False, ()))


class TestPropertySpec:
    def test_from_formula_builds_complementary_pair(self):
        p = prop("F a")
        x = LassoWord((), ("b",))
        assert not lasso_membership(x, p.positive)
        assert lasso_membership(x, p.complement)

    def test_alphabet_mismatch_rejected(self):
        pos, neg = prop("F a").positive, prop("F a", gen.letters(3)).complement
        with pytest.raises(AlphabetMismatchError):
            PropertySpec(pos, neg)

    def test_from_automata_accepts_genuine_pair(self):
        q = prop("G a")
        p = PropertySpec.from_automata(q.positive, q.complement)
        assert p.alphabet == AB

    def test_from_automata_rejects_non_complementary(self):
        q = prop("G a")
        with pytest.raises(ValueError):
            PropertySpec.from_automata(q.positive, q.positive)
        everything = sigma_omega(AB)
        with pytest.raises(ValueError):
            PropertySpec.from_automata(everything, q.complement)

    def test_from_automata_finds_a_shared_lasso_off_the_samples(self):
        # infinitely many a, against finitely many a plus a branch that
        # cycles through "b b" and "b a b": the two share no short lasso, so
        # only an exact check sees the shared (b a b)^omega
        positive = BuchiAutomaton(
            AB, 2, {0}, {1}, {(0, "a", 1), (0, "b", 0), (1, "a", 1), (1, "b", 0)}
        )
        complement = BuchiAutomaton(
            AB,
            5,
            {0, 2},
            {1, 2},
            {
                (0, "a", 0), (0, "b", 0), (0, "b", 1), (1, "b", 1),
                (2, "b", 3), (3, "b", 2), (3, "a", 4), (4, "b", 2),
            },
        )
        # no shared lasso of at most 2 letters: ;b a b is the least shared one
        assert not set(accepted_lassos(positive, 2)) & set(accepted_lassos(complement, 2))
        with pytest.raises(ValueError, match="both accept ;b a b$"):
            PropertySpec.from_automata(positive, complement)
        shared = LassoWord((), ("b", "a", "b"))
        assert lasso_membership(shared, positive)
        assert lasso_membership(shared, complement)


class TestRelativeLiveness:
    def test_free_monoid_satisfies_doubled_a_within_fairness(self):
        v = is_relative_liveness(sigma_omega(AB), prop("F (a & X a)"))
        assert v.holds

    def test_releasing_server_infinitely_often_result(self):
        p = prop("G F result", gen.SERVER_SIGMA)
        assert is_relative_liveness(releasing_system(), p).holds

    def test_trapping_server_fails_with_lock_witness(self):
        p = prop("G F result", gen.SERVER_SIGMA)
        v = is_relative_liveness(trapping_system(), p)
        assert not v.holds
        assert v.witness == ("lock",)

    def test_full_property_always_holds(self):
        v = is_relative_liveness(releasing_system(), prop("true", gen.SERVER_SIGMA))
        assert v.holds

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            is_relative_liveness(sigma_omega(AB), prop("F a", gen.letters(3)))

    def test_witness_prefix_is_genuinely_dead(self, rng):
        # the witness must be producible yet have no conforming continuation
        for _ in range(40):
            system = limit(canonicalize(gen.random_fin(rng, AB, all_accepting=True)))
            p = prop(gen_formula_text(rng))
            v = is_relative_liveness(system, p)
            good = prefix_automaton(product(system, p.positive))
            # the check compares one way only, which needs this inclusion
            assert language_subset(good, prefix_automaton(system)) == (True, None)
            assert v == Verdict(*language_equal(prefix_automaton(system), good))
            if v.holds:
                continue
            w = v.witness
            assert oracles.nfa_accepts(prefix_automaton(system), w)
            assert not oracles.nfa_accepts(good, w)
            for shorter in oracles.enumerate_words(AB.symbols, len(w) - 1):
                assert oracles.nfa_accepts(good, shorter) == oracles.nfa_accepts(
                    prefix_automaton(system), shorter
                )


def gen_formula_text(rng) -> str:
    from faircheck.pltl import format_formula

    return format_formula(gen.random_formula(rng, ("a", "b"), 3))


def random_system(rng, i: int) -> BuchiAutomaton:
    """For every third ``i`` a random Buchi automaton, whose language need not
    be closed; otherwise the limit of a random prefix-closed language."""
    if i % 3 == 2:
        return gen.random_buchi(rng, AB, max_states=4, density=3.0)
    return limit(canonicalize(gen.random_fin(rng, AB, all_accepting=True)))


def is_closed_system(system: BuchiAutomaton) -> bool:
    return len(system.accepting) == system.n_states


class TestRelativeSafety:
    def test_full_property_is_relatively_safe(self):
        assert is_relative_safety(releasing_system(), prop("true", gen.SERVER_SIGMA)).holds

    def test_doubled_a_fails_on_free_monoid_with_b_omega(self):
        v = is_relative_safety(sigma_omega(AB), prop("F (a & X a)"))
        assert not v.holds
        assert v.witness == LassoWord((), ("b",))

    def test_branching_tail_system_is_safe_for_always_a(self):
        # computations a^omega and a*.b^omega; any b kills all G a continuations
        trans = frozenset({(0, "a", 0), (0, "b", 1), (1, "b", 1)})
        system = BuchiAutomaton(AB, 2, frozenset({0}), frozenset({0, 1}), trans)
        assert is_relative_safety(system, prop("G a")).holds

    def test_witness_lasso_is_genuine(self, rng):
        failed = {True: 0, False: 0}
        for i in range(900):
            if i >= 40 and min(failed.values()) >= 5:
                break
            system = random_system(rng, i)
            p = prop(gen_formula_text(rng))
            v = is_relative_safety(system, p)
            if v.holds:
                continue
            failed[is_closed_system(system)] += 1
            x = v.witness
            assert lasso_membership(x, system)
            assert lasso_membership(x, p.complement)
            good = limit(prefix_automaton(product(system, p.positive)))
            assert lasso_membership(x, good)
        assert min(failed.values()) >= 5


class TestSatisfies:
    def test_a_omega_always_a(self):
        a_only = BuchiAutomaton(
            AB, 1, frozenset({0}), frozenset({0}), frozenset({(0, "a", 0)})
        )
        assert satisfies(a_only, prop("G a")).holds

    def test_releasing_server_does_not_satisfy_outright(self):
        p = prop("G F result", gen.SERVER_SIGMA)
        system = releasing_system()
        v = satisfies(system, p)
        assert not v.holds
        assert lasso_membership(v.witness, system)
        assert lasso_membership(v.witness, p.complement)
        # the locked request loop is one violating computation among them
        looping = LassoWord(("lock",), ("request", "no", "reject"))
        assert lasso_membership(looping, system)
        assert lasso_membership(looping, p.complement)

    def test_witness_lies_in_system_and_complement(self, rng):
        failed = {True: 0, False: 0}
        for i in range(90):
            system = random_system(rng, i)
            p = prop(gen_formula_text(rng))
            v = satisfies(system, p)
            # the pair product decides emptiness without the phase counter
            assert v.holds == (not automata._pair_prefixes(system, p.complement).n_states)
            if v.holds:
                continue
            failed[is_closed_system(system)] += 1
            assert lasso_membership(v.witness, system)
            assert lasso_membership(v.witness, p.complement)
        assert min(failed.values()) >= 5

    def test_empty_system_satisfies_everything(self):
        empty = BuchiAutomaton(AB, 0, frozenset(), frozenset(), frozenset())
        assert satisfies(empty, prop("F (a & X a)")).holds


class TestMachineClosed:
    def test_reflexive(self):
        system = releasing_system()
        assert is_machine_closed(system, system).holds

    def test_a_omega_not_dense_in_free_monoid(self):
        a_only = BuchiAutomaton(
            AB, 1, frozenset({0}), frozenset({0}), frozenset({(0, "a", 0)})
        )
        v = is_machine_closed(sigma_omega(AB), a_only)
        assert not v.holds
        assert v.witness == ("b",)

    def test_holds_without_containment(self):
        # machine closure reads pref(S) against pref(S & L): L may be larger
        a_only = BuchiAutomaton(
            AB, 1, frozenset({0}), frozenset({0}), frozenset({(0, "a", 0)})
        )
        assert is_machine_closed(a_only, sigma_omega(AB)).holds

    def test_is_relative_liveness_of_the_positive_automaton(self, rng):
        # the paper's identity, on systems the positive automaton need not lie in
        outside = 0
        for _ in range(150):
            system = limit(canonicalize(gen.random_fin(rng, AB, all_accepting=True)))
            p = prop(gen_formula_text(rng))
            v = is_machine_closed(system, p.positive)
            assert v == is_relative_liveness(system, p)
            assert v.holds == oracles.brute_rl(system, p.positive)
            # a closed system contains L exactly when it contains L's prefixes
            outside += not language_subset(
                prefix_automaton(p.positive), prefix_automaton(system)
            )[0]
        assert outside >= 30

    def test_matches_the_definition_on_random_sublanguages(self, rng):
        for _ in range(100):
            system = limit(canonicalize(gen.random_fin(rng, AB, all_accepting=True)))
            sub = gen.random_buchi(rng, AB, max_states=4)
            v = is_machine_closed(system, sub)
            assert v.holds == oracles.brute_rl(system, sub)
            if not v.holds:
                assert accepts(prefix_automaton(system), v.witness)

    def test_matches_relative_liveness_on_conforming_restriction(self, rng):
        hits = 0
        for _ in range(100):
            system = limit(canonicalize(gen.random_fin(rng, AB, all_accepting=True)))
            if is_empty(system):
                continue
            p = prop(gen_formula_text(rng))
            conforming = product(system, p.positive)
            expected = is_relative_liveness(system, p).holds
            for sub in (conforming, p.positive):
                assert is_machine_closed(system, sub).holds == expected
            hits += 1
        assert hits >= 30


# every check and the synthesis pair, on a 2-letter system and a 3-letter
# property; the first product each one builds compares the alphabets
MISMATCHED = {
    "is_relative_liveness": lambda lts, p: is_relative_liveness(limit(lts), p),
    "is_relative_safety": lambda lts, p: is_relative_safety(limit(lts), p),
    "satisfies": lambda lts, p: satisfies(limit(lts), p),
    "is_machine_closed": lambda lts, p: is_machine_closed(limit(lts), p.positive),
    "synthesize_fair_impl": synthesize_fair_impl,
    # the implementation has the system's behaviors and is machine closed,
    # so the check reaches its product with the property
    "verify_fair_impl": lambda lts, p: verify_fair_impl(sigma_omega(AB), lts, p),
}


@pytest.mark.parametrize("check", MISMATCHED.values(), ids=MISMATCHED.keys())
def test_a_mismatched_alphabet_is_rejected(check):
    sigma_star = FinAutomaton(AB, 1, {0}, {0}, {(0, c, 0) for c in AB})
    with pytest.raises(AlphabetMismatchError):
        check(sigma_star, prop("F a", gen.letters(3)))


class TestCounterProductOnlyForWitnesses:
    """Emptiness and live prefixes are decided on the pair product: the
    phase-counter product is read only where a witness reads its shape, and
    then on demand: only the rows its witness search reads are computed."""

    @staticmethod
    def count_products(monkeypatch) -> list:
        """Each ``product`` and ``_product_lasso`` call of the two modules, by name."""
        calls = []

        def counted(name, real):
            def call(a, b):
                calls.append(name)
                return real(a, b)

            return call

        for module in (relprops, synthesis):
            monkeypatch.setattr(module, "product", counted("product", product))
            monkeypatch.setattr(
                module, "_product_lasso", counted("_product_lasso", automata._product_lasso)
            )
        return calls

    def test_decisions_build_none(self, rng, monkeypatch):
        fig2 = parse_automaton((Path(__file__).parent.parent / "fixtures/fig2.aut").read_text())
        cases = [(fig2, prop(f, fig2.alphabet)) for f in ("G F result", "G (request -> F result)")]
        for _ in range(40):
            system = gen.random_fin(rng, AB, max_states=5, all_accepting=True)
            cases.append((system, prop(gen_formula_text(rng))))
        # built before counting: synthesis prints the counter product
        impls = [
            synthesize_fair_impl(system, p) if is_relative_liveness(limit(system), p) else None
            for system, p in cases
        ]
        assert sum(impl is not None for impl in impls) >= 10
        calls = self.count_products(monkeypatch)
        for (system, p), impl in zip(cases, impls):
            is_machine_closed(limit(system), p.positive)
            is_safety_property(p)
            PropertySpec.from_automata(p.positive, p.complement)
            if impl is not None:
                assert verify_fair_impl(impl, system, p)
        assert calls == []

    def test_witnesses_still_read_it(self, monkeypatch, product_rows):
        fig2 = parse_automaton((Path(__file__).parent.parent / "fixtures/fig2.aut").read_text())
        p = prop("G F result", fig2.alphabet)
        whole = product(limit(fig2), p.complement).n_states
        calls = self.count_products(monkeypatch)
        product_rows.clear()
        # the accepting states the search meets first lie on no cycle: it
        # decides them from the rows it has read and walks on, so it stops
        # short of the whole product, computing each row once
        assert not satisfies(limit(fig2), p)
        assert calls == ["_product_lasso"] and set(product_rows.values()) == {1}
        assert len(product_rows) < whole
        # here the first accepting state lies on a cycle
        with pytest.raises(ValueError, match="not complementary"):
            PropertySpec.from_automata(p.positive, p.positive)
        assert calls == ["_product_lasso"] * 2


class TestSafetyClassification:
    def test_always_a_is_safety(self):
        assert is_safety_property(prop("G a"))

    def test_eventually_a_is_not(self):
        assert not is_safety_property(prop("F a"))

    def test_no_doubled_a_is_safety(self):
        assert is_safety_property(prop("G (a -> X (!a))"))

    def test_agrees_with_the_determinized_closure(self, rng):
        # reference: the closure read off the canonical prefix automaton;
        # about one random formula in six is not a safety property
        counts = {True: 0, False: 0}
        for _ in range(1500):
            if min(counts.values()) >= 25:
                break
            alphabet = gen.letters(rng.randint(1, 3))
            f = gen.random_formula(rng, alphabet.symbols, 3)
            p = PropertySpec.from_formula(f, alphabet)
            boundary = limit(prefix_automaton(p.positive))
            expected = accepting_lasso(product(boundary, p.complement)) is None
            assert is_safety_property(p) == expected, f
            counts[expected] += 1
        assert min(counts.values()) >= 25


class TestTheorems:
    def test_satisfaction_splits_into_liveness_and_safety(self, rng):
        # on closed and on other systems alike, each check fails alone somewhere
        wanted = {(closed, rl, not rl) for closed in (True, False) for rl in (True, False)}
        outcomes = set()
        for i in range(900):
            if i >= 80 and wanted <= outcomes:
                break
            system = random_system(rng, i)
            p = prop(gen_formula_text(rng))
            whole = satisfies(system, p).holds
            rl = is_relative_liveness(system, p).holds
            rs = is_relative_safety(system, p).holds
            assert whole == (rl and rs)
            outcomes.add((is_closed_system(system), rl, rs))
        assert wanted <= outcomes

    def test_safety_collapses_fair_satisfaction(self, rng):
        hits = 0
        for _ in range(120):
            system = limit(canonicalize(gen.random_fin(rng, AB, all_accepting=True)))
            p = prop(gen_formula_text(rng))
            if not is_safety_property(p):
                continue
            assert is_relative_liveness(system, p).holds == satisfies(system, p).holds
            hits += 1
        assert hits >= 25

    def test_brute_force_oracle_agrees(self, rng):
        for _ in range(60):
            system = limit(canonicalize(gen.random_fin(rng, AB, all_accepting=True)))
            p = prop(gen_formula_text(rng))
            expected = oracles.brute_rl(system, p.positive)
            assert is_relative_liveness(system, p).holds == expected


def _front(x: LassoWord, k: int) -> tuple[str, ...]:
    return tuple(x.letter_at(i) for i in range(k))


def _prefix_then_anything(w, alphabet: Alphabet) -> BuchiAutomaton:
    """Automaton of w.Sigma^omega, for constrained continuation searches."""
    n = len(w) + 1
    trans = {(i, s, i + 1) for i, s in enumerate(w)}
    trans |= {(len(w), s, len(w)) for s in alphabet.symbols}
    return BuchiAutomaton(
        alphabet, n, frozenset({0}), frozenset({len(w)}), frozenset(trans)
    )


class TestTopologicalReadings:
    def test_conforming_computations_are_dense_when_fairly_satisfied(self, rng):
        hits = 0
        for _ in range(60):
            system = limit(canonicalize(gen.random_fin(rng, AB, all_accepting=True)))
            p = prop(gen_formula_text(rng))
            conforming = product(system, p.positive)
            v = is_relative_liveness(system, p)
            if v.holds:
                for x in accepted_lassos(system, 5)[:3]:
                    for n in range(7):
                        w = _front(x, n + 1)
                        y = accepting_lasso(
                            product(_prefix_then_anything(w, AB), conforming)
                        )
                        assert y is not None
                        assert cantor_distance(x, y) < 1 / (n + 1)
                        hits += 1
            else:
                blocked = product(_prefix_then_anything(v.witness, AB), conforming)
                assert is_empty(blocked)
                hits += 1
        assert hits >= 40

    def test_violations_are_isolated_when_relatively_safe(self, rng):
        hits = 0
        for _ in range(80):
            system = limit(canonicalize(gen.random_fin(rng, AB, all_accepting=True)))
            p = prop(gen_formula_text(rng))
            if not is_relative_safety(system, p).holds:
                continue
            violating = product(system, p.complement)
            good = canonicalize(prefix_automaton(product(system, p.positive)))
            members = accepted_lassos(product(system, p.positive), 5)[:4]
            for x in accepted_lassos(violating, 5)[:3]:
                kill = None
                bound = len(x.stem) + len(x.cycle) * (good.n_states + 2)
                for k in range(bound + 1):
                    if not oracles.nfa_accepts(good, _front(x, k)):
                        kill = k
                        break
                assert kill is not None
                for y in members:
                    assert cantor_distance(x, y) >= 1 / (kill + 1)
                    hits += 1
        assert hits >= 5
