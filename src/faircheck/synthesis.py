"""Synthesis of fair finite-state implementations.

A system that satisfies a property within fairness can be turned into one
that satisfies it outright.  The implementation is a reduced Buchi automaton
for the conforming computations: its states are (system state, property
state) pairs, its transition structure is the new system, and its accepting
states, the fairness marks, are the pairs whose property state accepts.
The runs that visit a mark infinitely often are the fair computations, and
every one of them conforms.  Because the system satisfied the property
within fairness to begin with, reading every state as accepting loses no
behaviors, so the marked structure is a faithful implementation.
"""

from __future__ import annotations

import json

from .automata import (
    BuchiAutomaton,
    FinAutomaton,
    _check_same_alphabet,
    _pair_prefixes,
    _product_lasso,
    language_equal,
    language_subset,
    limit,
    prefix_automaton,
    product,
    reduce_buchi,
)
from .relprops import PropertySpec, Verdict

__all__ = [
    "PreconditionFailedError",
    "synthesize_fair_impl",
    "verify_fair_impl",
]


class PreconditionFailedError(Exception):
    """The construction's hypothesis does not hold for the given inputs."""

    def __init__(self, message: str, verdict: Verdict | None = None) -> None:
        super().__init__(message)
        self.verdict = verdict


def synthesize_fair_impl(system: FinAutomaton, p: PropertySpec) -> BuchiAutomaton:
    """Build a marked implementation whose fair computations all conform to p.

    The result is the reduced product of the system's behaviors with p; its
    accepting states are the fairness marks.  Requires the system to satisfy
    p within fairness; under that hypothesis the conforming computations
    have the same prefixes as the system, so the structure with every state
    read as accepting implements the system exactly.
    """
    behavior = limit(system)
    impl = reduce_buchi(product(behavior, p.positive))
    # every state of the reduced product starts a conforming computation, so with
    # all states accepting it recognizes exactly their prefixes (prefix_automaton
    # would return the same rows after one more Tarjan pass); they lie inside the
    # system's prefixes, so equality is the other inclusion
    conforming = impl._recast(FinAutomaton, accepting=impl.states)
    verdict = Verdict(*language_subset(prefix_automaton(behavior), conforming))
    if not verdict:
        raise PreconditionFailedError(
            "the system does not satisfy the property within fairness; "
            f"prefix {json.dumps(list(verdict.witness))} has no conforming continuation",
            verdict,
        )
    return impl


def verify_fair_impl(impl: BuchiAutomaton, system: FinAutomaton, p: PropertySpec) -> Verdict:
    """Check that a marked implementation implements the system fairly w.r.t. p.

    The accepting states of impl are the fairness marks; with every state
    accepting instead, it is the implementation's transition system.  Three
    obligations, checked in order: the transition system must have exactly
    the system's behaviors (compared on the prefixes of both limits); every
    one of those behaviors must extend to a fair computation (impl is
    machine closed in the transition system); and every fair computation
    must conform to p, which holds exactly when the pair product of impl
    and p's complement is empty.  The witness is the least shortest finite
    behavior that breaks one of the first two, or a violating fair lasso of
    the witness-shaped ``product``, read only when the last one fails and
    only as far as the witness search needs.
    """
    # a property over another alphabet is rejected before any obligation is reported
    _check_same_alphabet(impl, p.positive)
    # with every state accepting, the Buchi reading recognizes the limit of
    # the transition system's language (Konig's lemma)
    impl_prefixes = prefix_automaton(impl._recast(BuchiAutomaton, accepting=impl.states))
    system_prefixes = prefix_automaton(limit(system))
    same = Verdict(*language_equal(impl_prefixes, system_prefixes))
    if not same:
        return same
    # the fair computations lie inside the transition system, so no product is needed
    closed = Verdict(*language_subset(impl_prefixes, prefix_automaton(impl)))
    if not closed:
        return closed
    # freed before the product is built; the system's prefix automaton stays
    # with the system, as a view of its limit
    del impl_prefixes
    if not _pair_prefixes(impl, p.complement).n_states:
        return Verdict(True)
    return Verdict(False, _product_lasso(impl, p.complement))
