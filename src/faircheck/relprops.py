"""Decision procedures for temporal properties under the fairness reading.

A system satisfies a property within fairness when restricting the system to
the property-conforming computations loses no finite behavior: every prefix
the system can produce still extends to a conforming computation.  The dual
notion, relative safety, confines violations to computations that are limits
of conforming prefixes.  Together they are equivalent to plain satisfaction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import (
    Alphabet,
    BuchiAutomaton,
    InvariantError,
    LassoWord,
    _check_same_alphabet,
    _pair_prefixes,
    _product_lasso,
    language_subset,
    limit,
    prefix_automaton,
    product,
)
from .pltl import Formula, Labeling, to_buchi

__all__ = [
    "PropertySpec",
    "Verdict",
    "is_machine_closed",
    "is_relative_liveness",
    "is_relative_safety",
    "is_safety_property",
    "satisfies",
]


@dataclass(frozen=True)
class Verdict:
    """Outcome of a decision procedure, with a counterexample when it fails.

    The witness is a finite word (tuple of symbols) for prefix-level checks
    and a LassoWord for computation-level checks.
    """

    holds: bool
    witness: tuple[str, ...] | LassoWord | None = None

    def __post_init__(self) -> None:
        if self.holds != (self.witness is None):
            raise InvariantError("witness must be present exactly when the check fails")

    def __bool__(self) -> bool:
        return self.holds


class PropertySpec:
    """A linear-time property packaged as a complementary automaton pair.

    positive accepts the property's computations, complement accepts exactly
    the rest.  A spec made by ``from_formula`` keeps ``to_buchi``'s pair, so
    its complement is translated only when first read: relative liveness,
    ``preserve`` and synthesis read the positive side alone.
    """

    def __init__(self, positive: BuchiAutomaton, complement: BuchiAutomaton) -> None:
        _check_same_alphabet(positive, complement)
        self._pair = (positive, complement)

    @property
    def positive(self) -> BuchiAutomaton:
        return self._pair[0]

    @property
    def complement(self) -> BuchiAutomaton:
        return self._pair[1]

    @property
    def alphabet(self) -> Alphabet:
        return self.positive.alphabet

    @classmethod
    def from_formula(
        cls,
        formula: Formula,
        alphabet: Alphabet,
        labeling: Labeling | None = None,
    ) -> "PropertySpec":
        # both sides are translated over the one alphabet, so there is nothing to check
        spec = cls.__new__(cls)
        spec._pair = to_buchi(formula, alphabet, labeling)
        return spec

    @classmethod
    def from_automata(
        cls, positive: BuchiAutomaton, complement: BuchiAutomaton
    ) -> "PropertySpec":
        """Package a pre-built pair after checking that the two are disjoint.

        Disjointness is decided exactly, by emptiness of the pair product;
        only when they share a computation is the witness-shaped ``product``
        read, as far as its witness search needs, and ValueError names its
        smallest accepted lasso.  Coverage
        (every computation accepted by one of the two) is not checked: it
        would need a complement construction.
        """
        spec = cls(positive, complement)
        if _pair_prefixes(positive, complement).n_states:
            shared = _product_lasso(positive, complement)
            raise ValueError(
                f"automata are not complementary: both accept {shared.as_text()}"
            )
        return spec


def is_relative_liveness(system: BuchiAutomaton, p: PropertySpec) -> Verdict:
    """Does the system satisfy the property within fairness?

    Holds when every finite behavior of the system is a prefix of some
    conforming computation: relative liveness is machine closure of the
    system with the property's positive automaton.  The witness on failure
    is the least shortest system prefix with no conforming continuation.
    """
    return is_machine_closed(system, p.positive)


def is_relative_safety(system: BuchiAutomaton, p: PropertySpec) -> Verdict:
    """Is the property safe relative to the system?

    Holds when every system computation that is a limit of conforming
    prefixes actually conforms.  The witness on failure is such a limit
    computation outside the property.
    """
    return satisfies(product(system, limit(_pair_prefixes(system, p.positive))), p)


def satisfies(system: BuchiAutomaton, p: PropertySpec) -> Verdict:
    """Plain satisfaction: every system computation conforms.

    The witness is the least accepted lasso of ``product(system,
    p.complement)``, whose rows are computed as the search reads them; a
    holding verdict reads them all.
    """
    x = _product_lasso(system, p.complement)
    return Verdict(x is None, x)


def is_machine_closed(system: BuchiAutomaton, sub: BuchiAutomaton) -> Verdict:
    """Does every finite behavior of the system extend into the sublanguage?

    Machine closure of (S, L): pref(S) is contained in pref(S & L), decided
    exactly; L need not lie inside S.  The witness on failure is the least
    shortest system prefix with no continuation in S & L.
    """
    # pref(S & L) lies inside pref(S), so equality is the other inclusion
    good_prefixes = _pair_prefixes(system, sub)
    return Verdict(*language_subset(prefix_automaton(system), good_prefixes))


def is_safety_property(p: PropertySpec) -> bool:
    """Is the property closed under limits of its own prefixes?

    The safety closure lim(pref(L)) is the trimmed positive automaton with
    every state accepting (Konig's lemma), so no determinization is needed.
    """
    closure = prefix_automaton(p.positive)._recast(BuchiAutomaton)
    return not _pair_prefixes(closure, p.complement).n_states
