"""Synthesis of fair finite-state implementations.

A system that satisfies a property within fairness can be turned into one
that satisfies it outright.  Take a reduced Buchi automaton for the
conforming computations, keep its transition structure as the new system,
and remember the former accepting states as fairness marks: the runs that
visit a mark infinitely often are declared the fair computations, and every
one of them conforms.  Because the system satisfied the property within
fairness to begin with, dropping the acceptance condition loses no
behaviors, so the marked structure is a faithful implementation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .automata import (
    BuchiAutomaton,
    FinAutomaton,
    LassoWord,
    accepted_lassos,
    accepting_lasso,
    language_equal,
    language_subset,
    limit,
    prefix_automaton,
    product,
    reduce_buchi,
)
from .relprops import PropertySpec, Verdict, _check_alphabet, _relative_liveness

__all__ = [
    "FairLts",
    "PreconditionFailedError",
    "enumerate_fair_lassos",
    "synthesize_fair_impl",
    "verify_fair_impl",
]


class PreconditionFailedError(Exception):
    """The construction's hypothesis does not hold for the given inputs."""

    def __init__(self, message: str, verdict: Verdict | None = None) -> None:
        super().__init__(message)
        self.verdict = verdict


@dataclass(frozen=True)
class FairLts:
    """A labelled transition system with strong-fairness marks.

    The underlying automaton carries no acceptance distinction (every state
    accepts, so its language is prefix closed); fairness lives entirely in
    the marks.  Fair computations are the runs visiting a mark infinitely
    often, i.e. the language of as_buchi().
    """

    underlying: FinAutomaton
    fairness_marks: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "fairness_marks", frozenset(self.fairness_marks))
        states = range(self.underlying.n_states)
        if not self.fairness_marks <= set(states):
            raise ValueError("fairness marks must be states of the underlying LTS")
        if self.underlying.accepting != frozenset(states):
            raise ValueError("the underlying LTS must accept at every state")

    def as_buchi(self) -> BuchiAutomaton:
        """The fair computations, as a Buchi automaton over the marks."""
        return self.underlying._recast(BuchiAutomaton, accepting=self.fairness_marks)


def synthesize_fair_impl(system: FinAutomaton, p: PropertySpec) -> FairLts:
    """Build a marked LTS whose fair computations all conform to p.

    Requires the system to satisfy p within fairness; under that hypothesis
    the conforming computations have the same prefixes as the system, so the
    reduced automaton for them, with acceptance demoted to marks, implements
    the system exactly.
    """
    behavior = limit(system)
    _check_alphabet(behavior, p)
    conforming = reduce_buchi(product(behavior, p.positive))
    # every state of the reduced product starts a conforming computation, so
    # with all states accepting it recognizes exactly their prefixes
    underlying = conforming._recast(FinAutomaton, accepting=conforming.states)
    verdict = _relative_liveness(behavior, underlying)
    if not verdict:
        raise PreconditionFailedError(
            "the system does not satisfy the property within fairness; "
            f"prefix {json.dumps(list(verdict.witness))} has no conforming continuation",
            verdict,
        )
    return FairLts(underlying, conforming.accepting)


def verify_fair_impl(impl: FairLts, system: FinAutomaton, p: PropertySpec) -> Verdict:
    """Check that a marked LTS implements the system fairly w.r.t. p.

    Three obligations, checked in order: the unmarked structure must have
    exactly the system's behaviors (compared on the prefixes of both
    limits); every one of those behaviors must extend to a fair computation
    (the fair part is machine closed in the LTS); and every fair computation
    must conform to p.  The witness is the least shortest finite behavior
    that breaks one of the first two, or a violating fair lasso.
    """
    # every state accepts, so as a Buchi automaton the LTS recognizes the
    # limit of its language (Konig's lemma)
    impl_prefixes = prefix_automaton(impl.underlying._recast(BuchiAutomaton))
    system_prefixes = prefix_automaton(limit(system))
    same = Verdict(*language_equal(impl_prefixes, system_prefixes))
    if not same:
        return same
    # the fair computations lie inside the LTS, so no product is needed
    fair = impl.as_buchi()
    closed = Verdict(*language_subset(impl_prefixes, prefix_automaton(fair)))
    if not closed:
        return closed
    violating = accepting_lasso(product(fair, p.complement))
    return Verdict(violating is None, violating)


def enumerate_fair_lassos(impl: FairLts, max_len: int) -> list[LassoWord]:
    """All fair lassos with stem plus cycle at most max_len letters.

    These are the ``accepted_lassos`` of ``impl.as_buchi()``: normal forms
    only, ordered by total length, then stem length, then letters.
    """
    return accepted_lassos(impl.as_buchi(), max_len)
