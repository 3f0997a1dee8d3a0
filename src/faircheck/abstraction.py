"""Alphabet abstractions: letter hiding and renaming as homomorphisms.

An abstraction maps each concrete letter to an abstract letter or erases it.
Images of finite words simply drop the erased letters; the image of an
infinite word is undefined when only finitely many visible letters remain.
This module constructs image and inverse-image automata, decides weak
continuation-closure (the condition under which satisfaction within fairness
transfers across the abstraction boundary), pads dead-end futures with the
reserved letter ``#``, and runs the two-sided preservation check that ties
an abstract formula to its retransformed concrete counterpart.

What depends only on a canonical system and a homomorphism, the closure
report, the canonical image, the ``#``-paddings and the hidden-cycle test,
is computed once: ``_view`` keeps each value in the canonical form, keyed by
the function that computes it and the hom's value, the way ``automata``
keeps a canonical form's ``limit``.  Automata and homs are immutable, so no
view goes stale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .automata import (
    EPS_TOKEN,
    HASH_TOKEN,
    Alphabet,
    AlphabetMismatchError,
    BuchiAutomaton,
    FinAutomaton,
    InvariantError,
    LassoWord,
    _bfs,
    _closure,
    _explore,
    _marked,
    _moore_classes,
    _predecessors,
    _prefix_closed,
    _quotient,
    _sccs,
    _spelled,
    _subsets,
    canonicalize,
    limit,
    product,
    reduce_buchi,
)
from .pltl import (
    Formula,
    Labeling,
    NotNormalFormError,
    check_normal_form,
    format_formula,
    substitute_atom,
    transform,
)
from .relprops import PropertySpec, Verdict, is_relative_liveness

__all__ = [
    "Homomorphism",
    "PreserveReport",
    "WccReport",
    "abstract_behavior",
    "apply_hom_lasso",
    "compute_xtd",
    "image_automaton",
    "inverse_image_automaton",
    "is_weakly_continuation_closed",
    "preserve_check",
    "within_fairness_finitary",
]


@dataclass(frozen=True)
class Homomorphism:
    """Total map from source letters to target letters or the invisible step.

    ``entries`` pairs every source letter with its image; the image is either
    a target letter (renaming) or ``eps`` (hiding).  The target alphabet may
    contain letters no source letter maps to.
    """

    source: Alphabet
    target: Alphabet
    entries: tuple[tuple[str, str], ...]

    def __post_init__(self):
        norm = tuple(sorted(tuple(e) for e in self.entries))
        object.__setattr__(self, "entries", norm)
        if tuple(sym for sym, _ in norm) != self.source.symbols:
            raise ValueError("mapping must cover every source letter exactly once")
        for sym, img in norm:
            if img != EPS_TOKEN and img not in self.target:
                raise ValueError(f"image {img!r} of {sym!r} is not a target letter")

    @classmethod
    def from_map(
        cls, source: Alphabet, target: Alphabet, mapping: dict[str, str]
    ) -> "Homomorphism":
        return cls(source, target, tuple(mapping.items()))

    @classmethod
    def identity(cls, alphabet: Alphabet) -> "Homomorphism":
        return cls(alphabet, alphabet, tuple((a, a) for a in alphabet))

    @classmethod
    def hiding(cls, alphabet: Alphabet, hidden: set[str] | frozenset[str]) -> "Homomorphism":
        """Identity on all letters except the hidden ones, which are erased.

        At least one letter must stay visible, because alphabets are nonempty.
        """
        extra = set(hidden) - set(alphabet.symbols)
        if extra:
            raise ValueError(f"hidden letters {sorted(extra)} are not in the alphabet")
        target = Alphabet(tuple(a for a in alphabet if a not in hidden))
        return cls(
            alphabet,
            target,
            tuple((a, EPS_TOKEN if a in hidden else a) for a in alphabet),
        )

    @cached_property
    def _map(self) -> dict[str, str]:
        return dict(self.entries)

    def image(self, letter: str) -> str:
        """The image of one letter; ``eps`` when the letter is hidden."""
        try:
            return self._map[letter]
        except KeyError:
            raise ValueError(f"letter {letter!r} is not in the source alphabet") from None

    @property
    def hidden(self) -> frozenset[str]:
        return frozenset(sym for sym, img in self.entries if img == EPS_TOKEN)

    def lift_hash(self) -> "Homomorphism":
        """The lifted map on #-extended alphabets; the padding letter is kept visible."""
        if HASH_TOKEN in self.source:
            return self
        return Homomorphism(
            self.source.with_hash(),
            self.target.with_hash(),
            self.entries + ((HASH_TOKEN, HASH_TOKEN),),
        )

    def labeling(self) -> Labeling:
        """Labeling that tags each source letter with its image letter.

        Hidden letters are tagged ``eps``.  Evaluating an abstract formula on
        concrete words goes through exactly this labeling.
        """
        return Labeling(tuple((sym, frozenset({img})) for sym, img in self.entries))


def _check_side(a, alphabet: Alphabet, side: str) -> None:
    if a.alphabet != alphabet:
        raise AlphabetMismatchError(
            f"automaton alphabet {a.alphabet.symbols} differs from the "
            f"{side} alphabet {alphabet.symbols}"
        )


def apply_hom_lasso(h: Homomorphism, x: LassoWord) -> LassoWord | None:
    """Image of a lasso word, with hidden letters dropped.

    Returns None when the entire cycle is hidden: only finitely many visible
    letters remain, so there is no omega-image.  That outcome is a value
    rather than an exception because callers routinely case-split on it.
    """
    bad = x.letters() - set(h.source.symbols)
    if bad:
        raise AlphabetMismatchError(
            f"lasso letters {sorted(bad)} are not in the source alphabet"
        )
    stem = tuple(h.image(c) for c in x.stem if h.image(c) != EPS_TOKEN)
    cycle = tuple(h.image(c) for c in x.cycle if h.image(c) != EPS_TOKEN)
    if not cycle:
        return None
    return LassoWord(stem, cycle).normalize()


def image_automaton(h: Homomorphism, a: FinAutomaton) -> FinAutomaton:
    """Canonical automaton for the image of a finitary language.

    Hidden letters become silent moves, eliminated by forward closure before
    determinization.  Prefix-closedness is preserved: the image of a prefix
    is a prefix of the image.
    """
    _check_side(a, h.source, "source")
    return canonicalize(_image_nfa(h, a))


def _image_nfa(h: Homomorphism, a: FinAutomaton) -> FinAutomaton:
    # same states as a over the target letters: each state moves on the
    # image of every visible edge leaving its hidden-letter closure, so state
    # q accepts the image of the words accepted from q
    hidden = h.hidden
    silent = [[q for c, q in row if c in hidden] for row in a._succ]
    visible = [[(h.image(c), q) for c, q in row if c not in hidden] for row in a._succ]
    rows = []
    accepting: set[int] = set()
    for p in range(a.n_states):
        seen = _closure(silent, [p])
        rows.append(sorted({edge for p1 in seen for edge in visible[p1]}))
        if seen & a.accepting:
            accepting.add(p)
    return FinAutomaton._from_rows(h.target, a.n_states, a.initial, accepting, rows)


def inverse_image_automaton(h: Homomorphism, a):
    """Automaton over the source alphabet for the inverse image.

    Each source letter acts like its image; hidden letters stutter in place.
    The finitary result accepts exactly the words whose image is accepted.
    The Buchi result additionally rejects words whose tail is erased forever,
    because their omega-image is undefined: a two-state component demands
    infinitely many visible letters.
    """
    _check_side(a, h.target, "target")
    rows = [
        [(c, q) for c in h.source
         for q in ((p,) if h.image(c) == EPS_TOKEN else a.successors(p, h.image(c)))]
        for p in a.states
    ]
    if isinstance(a, FinAutomaton):
        return canonicalize(
            FinAutomaton._from_rows(h.source, a.n_states, a.initial, a.accepting, rows)
        )
    stuttering = BuchiAutomaton._from_rows(
        h.source, a.n_states, a.initial, a.accepting, rows
    )
    # state 1 is entered by exactly the visible letters
    entered = [(c, 0 if h.image(c) == EPS_TOKEN else 1) for c in h.source]
    visible_often = BuchiAutomaton._from_rows(h.source, 2, {0}, {1}, [entered, entered])
    return reduce_buchi(product(stuttering, visible_often))


def abstract_behavior(L: FinAutomaton, h: Homomorphism) -> BuchiAutomaton:
    """Buchi automaton for the abstract computations of a prefix-closed system.

    Computed as the limit of the finitary image; for prefix-closed languages
    the limit and the image commute, which is what makes this construction
    the abstract behavior.  Non-prefix-closed input is rejected outright
    since the commutation can fail there even when the image itself happens
    to be prefix-closed.  The image is the one the closure decision builds,
    kept with its report.
    """
    _check_side(L, h.source, "source")
    A = _prefix_closed(L, "the abstract behavior is defined over prefix-closed languages")
    return limit(_view(A, _wcc, h)[1])


@dataclass(frozen=True)
class WccReport:
    """Outcome of the weak-continuation-closure decision.

    Each violation is a triple (system state, abstract state, word): the word
    drives the canonicalized system to the first state while its image drives
    the canonical image automaton to the second, and no abstract continuation
    reconciles the two quotient languages from there.
    """

    closed: bool
    violations: tuple[tuple[int, int, tuple[str, ...]], ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self, "violations", tuple(tuple([q, d, tuple(w)]) for q, d, w in self.violations)
        )
        if self.closed != (not self.violations):
            raise InvariantError("closed exactly when there are no violations")

    def __bool__(self) -> bool:
        return self.closed


def is_weakly_continuation_closed(L: FinAutomaton, h: Homomorphism) -> WccReport:
    """Decide whether the abstraction is weakly continuation-closed on L.

    For every word w of the (prefix-closed) language there must be an
    abstract continuation u of the image of w such that, beyond u, the
    continuations of the image coincide with the images of the continuations
    of w.  Only finitely many cases matter: the concrete quotient depends
    only on the state q reached by w in the canonical system A and the
    abstract quotient only on the state d reached by the image of w in the
    canonical image D.  The decision takes a fixed number of passes over
    whole automata: one subset construction of the image seeded at every
    state of A gives one DFA Y holding every quotient image, and one Moore
    refinement of Y gives its equal-residual classes.  D is Y's quotient
    from the seed of A's initial state, so each state of D is one of those
    classes.  On the synchronized D x Y pair graph, a forward pass from the
    pairs (d, seed(q)) and a backward pass from the pairs whose two states
    share a class find which (q, d) admit a reconciling continuation.
    The report and D are computed once per canonical system and hom value.
    """
    _check_side(L, h.source, "source")
    A = _prefix_closed(L, "weak continuation-closure is checked over prefix-closed languages")
    return _view(A, _wcc, h)[0]


def _wcc(A: FinAutomaton, h: Homomorphism) -> tuple[WccReport, FinAutomaton]:
    # A is canonical and prefix-closed; also returns D, the canonical image
    if A.n_states == 0:
        return WccReport(True, ()), _marked(FinAutomaton.empty(h.target))
    # Y state q is the seed of system state q: the quotient image from q
    subsets, y_rows = _subsets(_image_nfa(h, A), [1 << q for q in range(A.n_states)], -1)
    # every Y state accepts, as every state of the image of a trimmed
    # prefix-closed language does
    ys = range(len(subsets))
    classes = _moore_classes(y_rows, ys)
    D, d_class = _quotient(h.target, y_rows, classes, ys)
    # A, D and Y are deterministic: one move per letter
    d_move = [dict(row) for row in D._succ]
    y_move = [dict(row) for row in y_rows]

    def moves(pair):
        q, d = pair
        for c, q2 in A._succ[q]:
            img = h.image(c)
            yield c, (q2, d if img == EPS_TOKEN else d_move[d][img])

    tree: dict = {}
    order = list(_bfs(moves, [(0, 0)], tree))

    def pair_moves(pair):
        d, y = pair
        for c, d2 in D._succ[d]:
            y2 = y_move[y].get(c)
            if y2 is not None:
                yield c, (d2, y2)

    # the pairs (abstract state, quotient state) reachable from the starts,
    # the starts numbered first, then those of them from which some pair of
    # equal residuals is reachable
    pairs, pair_rows = _explore(pair_moves, [(d, q) for q, d in order])
    closed = _closure(
        _predecessors(pair_rows),
        {i for i, (d, y) in enumerate(pairs) if d_class[d] == classes[y]},
    )
    violations = [
        (q, d, _spelled(tree[q, d]))
        for i, (q, d) in enumerate(order)
        if i not in closed
    ]
    return WccReport(not violations, tuple(violations)), D


def compute_xtd(L: FinAutomaton, hom: Homomorphism | None = None) -> FinAutomaton:
    """Pad dead-end futures with the letter ``#`` so the limit keeps them.

    The plain variant loops ``#`` at every state whose residual language is
    just the empty word, i.e. after a maximal word.  The relative variant
    (``hom`` given) loops ``#`` at every state whose residual language is
    erased to the empty word by the abstraction, i.e. whose entire future is
    hidden.  Both are one backward-reachability pass over the canonical
    automaton: an accepting state is padded exactly when no visible edge
    (without ``hom`` every edge is visible) is reachable from it, which is
    exact because canonical automata are trimmed, so every reachable edge
    lies on an accepted continuation.  The alphabet is extended by ``#`` in
    both variants, whether or not any loop was added.  The result is
    canonical; when ``#`` is not a letter of ``L`` the padded canonical
    automaton already is, with the same states and numbering, and only
    input alphabets holding ``#`` are canonicalized again.  Each variant is
    computed once per canonical automaton (and hom value).
    """
    A = canonicalize(L)
    if hom is not None:
        _check_side(A, hom.source, "source")
    return _view(A, _xtd, hom)


def _xtd(A: FinAutomaton, hom: Homomorphism | None) -> FinAutomaton:
    # A is canonical, so the result is too; it is marked
    sees_visible = _closure(
        _predecessors(A._succ),
        {p for p, row in enumerate(A._succ) for c, _ in row
         if hom is None or hom.image(c) != EPS_TOKEN},
    )
    padded = A.accepting - sees_visible
    rows = [
        sorted({*row, (HASH_TOKEN, q)}) if q in padded else row
        for q, row in enumerate(A._succ)
    ]
    xt = FinAutomaton._from_rows(A.alphabet.with_hash(), A.n_states, A.initial, A.accepting, rows)
    if HASH_TOKEN in A.alphabet:
        # padding can make two residuals equal or give a state a second # edge
        return canonicalize(xt)
    # new self-loops discover no state, leave one move per letter, and
    # restricted to #-free words give back A's distinct residuals
    return _marked(xt)


def within_fairness_finitary(L: FinAutomaton, labeling: Labeling, f: Formula) -> Verdict:
    """Does the finitary language satisfy the formula within fairness?

    Maximal words are padded with ``#`` (labeled as invisible steps) so the
    limit loses no information about terminating computations; the padded
    limit is then checked for relative liveness against the formula.
    """
    return _within_fairness(compute_xtd(L), labeling.eps_extension(), f)


def _within_fairness(padded: FinAutomaton, labeling: Labeling, f: Formula) -> Verdict:
    spec = PropertySpec.from_formula(f, padded.alphabet, labeling)
    return is_relative_liveness(limit(padded), spec)


def _hidden_cycle(A: FinAutomaton, h: Homomorphism) -> bool:
    # A is canonical, so trimmed: is some state on a cycle of hidden letters?
    hidden = h.hidden
    return bool(_sccs([[(c, q) for c, q in row if c in hidden] for row in A._succ], ())[0])


def _view(A: FinAutomaton, f, h):
    """``f(A, h)`` for the canonical automaton A, computed on the first call
    and kept in A by ``f`` and the value of ``h`` for as long as A lives;
    no ``f`` returns None."""
    views = A.__dict__.setdefault("_views", {})
    value = views.get((f, h))
    if value is None:
        value = views[f, h] = f(A, h)
    return value


@dataclass(frozen=True)
class PreserveReport:
    """Two-sided outcome of the abstraction preservation pipeline.

    The abstract verdict concerns the formula on the image behavior, the
    concrete verdict its retransformation on the original behavior.  Two
    transfer rules hold when the abstraction is weakly continuation-closed:
    a holding abstract verdict forces the concrete one, and with no reachable
    cycle of hidden letters alone the two are equal.  Closure alone does not
    make them equal: a system that can run forever on hidden letters can
    discharge an obligation on a future its image cannot express.  So the
    equivalence is certified exactly when the abstraction is closed and the
    verdicts agree; otherwise ``note`` says which direction, if any, transfers.
    """

    wcc: WccReport
    abstract_holds: bool
    concrete_holds: bool
    equivalence_certified: bool
    note: str | None = None


def preserve_check(L: FinAutomaton, h: Homomorphism, f: Formula) -> PreserveReport:
    """Check one property across the abstraction boundary, in both readings.

    The formula is stated over the target alphabet in extended normal form
    (the reserved atom eps only under Always).  Abstractly it is checked
    within fairness on the image language.  Concretely, eps is renamed to the
    padding letter, the formula is retransformed, and the result is checked
    within fairness on the source language padded relative to the
    abstraction, with the lifted map keeping the padding letter visible.

    The concrete verdict is computed only where no transfer rule gives it.
    Under a weakly continuation-closed abstraction it is the abstract
    verdict when that holds, and also when it fails but the system has no
    reachable cycle of hidden letters alone.
    """
    _check_side(L, h.source, "source")
    A = _prefix_closed(L, "the preservation check is defined over prefix-closed languages")
    if not check_normal_form(f, h.target, "extended_sigma"):
        raise NotNormalFormError(
            "formula must be in extended normal form over the target alphabet: "
            + format_formula(f)
        )
    wcc, image = _view(A, _wcc, h)
    abstract = _within_fairness(
        _view(image, _xtd, None), Labeling.canonical(h.target).eps_extension(), f
    )
    if wcc.closed and (abstract or not _view(A, _hidden_cycle, h)):
        concrete = abstract
    else:
        retransformed = transform(substitute_atom(f, EPS_TOKEN, HASH_TOKEN), "R")
        concrete = _within_fairness(_view(A, _xtd, h), h.lift_hash().labeling(), retransformed)
    abstract, concrete = bool(abstract), bool(concrete)
    note = None
    if not wcc.closed:
        if all(image._succ[p] for p in image.accepting):
            note = (
                "not closed: only the concrete verdict transfers to the "
                "abstract level (the image language has no maximal words)"
            )
        else:
            note = "not closed: the verdicts are not transferable"
    elif abstract != concrete:
        note = "closed, but the verdicts differ: only a holding abstract verdict transfers"
    return PreserveReport(wcc, abstract, concrete, wcc.closed and abstract == concrete, note)
