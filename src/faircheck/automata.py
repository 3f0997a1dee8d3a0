"""Finite-word and omega-word automata with the graph algebra used everywhere else.

States are integers ``0..n_states-1`` and every value is immutable: operations
return fresh automata.  The empty language is represented by a distinguished
0-state automaton which all operations accept.  Constructions that must be
reproducible (canonical forms, products, witnesses) iterate letters in sorted
order and number states in breadth-first discovery order.

An automaton stores one successor row per state, its (letter, target) pairs
sorted without repeats; ``==`` and ``hash`` compare rows, which is comparing
edge sets.  Constructions emit rows directly (a malformed one raises
``InvariantError``), the public constructor groups (p, letter, q) triples
into rows (bad input raises ``ValueError``), and ``transitions``, the set of
triples, is a view derived from the rows on first use.  So is ``_out``, the
one move lookup: per state, each letter it moves on mapped to its target
mask.  Every subset walk reads it through ``_post``, which lists only the
letters a state set moves on.  A deterministic automaton's reachable subsets
each hold one state, so canonical forms walk it by state index over its rows,
building no state sets, and inclusion searches hold its side of a pair as a
state index.

One Tarjan pass, ``_sccs``, gives the two state sets every liveness question
needs when a run must visit each of a list of state sets infinitely often
(generalized Buchi; Buchi is the one-set case): core states (states of the
first set in a fair component, one with a cycle meeting every set), where
witnesses are anchored, and live states (those that reach a core state).
So the emptiness and live prefixes of an intersection are decided on the
plain pair product (``_pair_prefixes``).  ``product`` builds the
witness-shaped form, whose phase counts over the accepting sets of the
operands ``_open`` names: with one such operand it is the pair product
too.  Every product is one ``_Product``, which reads that list of sets and
numbers its (p, q, phase) triples as their rows are computed, the sorted
initial triples first.  ``product``, ``product_fin`` and
``_pair_prefixes`` compute every row in index order, which numbers the
states breadth-first; a search reads the product as its own ``_out`` and
computes each row when it first reads it.

Every finitary language compare is one inclusion search, ``_pair_search``,
a breadth-first walk over pairs of subset states (a deterministic left side
is a state index) whose first bad pair gives the least shortest word of the
difference; equality runs it both ways.  Every search tree, ``_bfs``'s as
well as ``_least_words``'s levels, holds a word as a link, (previous word,
letter) or None for the empty word, and ``_spelled`` alone spells one out.
``accepted_lassos`` lists every accepted lasso up to a length, in one fixed
order; ``accepting_lasso`` finds one small witness.

With one acceptance set, a core state is an accepting state that lies on a
cycle, so ``accepting_lasso`` decides core states on the fly, depth by depth
from the initial states (``_graph_witness``): a search from an accepting
state either returns to it or reads a region closed under successors, whose
cyclic states one ``_sccs`` pass marks and which no later search enters
(Couvreur, FM 1999).  The walk reads only rows, so ``_product_lasso``, the
witness of ``product(a, b)`` that ``satisfies`` (and through it
``is_relative_safety``), ``verify_fair_impl`` and
``PropertySpec.from_automata`` take, runs it over the ``_Product`` itself:
only the rows the search reads are computed, and none twice.

``canonicalize`` computes an automaton's canonical form once, as the
``_canonical_form`` view of that object, and a canonical automaton is its own
canonical form.  The memo takes no part in ``==`` or ``hash``.  ``_marked``
records a canonical automaton as its own form: ``_quotient`` on what it
builds (``canonicalize``'s result and the image of ``abstraction._wcc``),
and ``abstraction._xtd`` on padding that keeps a canonical input canonical.  Two more views are kept the same way: a canonical form keeps
its ``limit`` and a Buchi automaton its ``prefix_automaton``.  Automata are
immutable, so no memo goes stale.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import lcm
from typing import Iterable

__all__ = [
    "EPS_TOKEN",
    "HASH_TOKEN",
    "Alphabet",
    "AlphabetMismatchError",
    "BuchiAutomaton",
    "FinAutomaton",
    "InvariantError",
    "LassoWord",
    "NotPrefixClosedError",
    "accepted_lassos",
    "accepting_lasso",
    "accepts",
    "canonicalize",
    "cantor_distance",
    "is_empty",
    "is_prefix_closed",
    "language_equal",
    "language_subset",
    "lasso_automaton",
    "lasso_membership",
    "left_quotient",
    "limit",
    "prefix_automaton",
    "product",
    "product_fin",
    "reduce_buchi",
]

EPS_TOKEN = "eps"
HASH_TOKEN = "#"


class AlphabetMismatchError(ValueError):
    """An operation combined automata or words over different alphabets."""


class NotPrefixClosedError(ValueError):
    """A construction that needs a prefix-closed finitary language got something else."""


class InvariantError(AssertionError):
    """The package broke one of its own invariants: a bug, not bad input."""


@dataclass(frozen=True)
class Alphabet:
    """Sorted set of letter tokens.

    ``eps`` is reserved as the invisible-step proposition and can never be a
    letter; ``#`` is the padding letter that extension constructions append.
    """

    symbols: tuple[str, ...]

    def __post_init__(self):
        letters = tuple(self.symbols)
        # checked before sorting, since letters of mixed types do not compare
        if not all(isinstance(s, str) and s for s in letters):
            raise ValueError("alphabet letters must be non-empty strings")
        if EPS_TOKEN in letters:  # reported before any repeated letter
            raise ValueError("'eps' is reserved and cannot be an alphabet letter")
        syms = tuple(sorted(letters))
        if not syms:
            raise ValueError("alphabet must not be empty")
        seen: set[str] = set()
        for s in syms:
            if s in seen:
                raise ValueError(f"duplicate letter {s!r}")
            seen.add(s)
        object.__setattr__(self, "symbols", syms)
        object.__setattr__(self, "_letters", frozenset(seen))

    def __iter__(self):
        return iter(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, letter: object) -> bool:
        return letter in self._letters

    def with_hash(self) -> "Alphabet":
        """This alphabet extended by the padding letter ``#`` (idempotent)."""
        if HASH_TOKEN in self.symbols:
            return self
        return Alphabet(self.symbols + (HASH_TOKEN,))


@dataclass(frozen=True)
class LassoWord:
    """Ultimately periodic word ``stem . cycle^omega``.

    Two lasso words denote the same omega-word exactly when their
    ``normalize()`` forms are equal.
    """

    stem: tuple[str, ...]
    cycle: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "stem", tuple(self.stem))
        object.__setattr__(self, "cycle", tuple(self.cycle))
        if not self.cycle:
            raise ValueError("lasso cycle must be non-empty")
        for letter in self.stem + self.cycle:
            if not isinstance(letter, str) or not letter:
                raise ValueError("lasso letters must be non-empty strings")

    def letter_at(self, i: int) -> str:
        if i < len(self.stem):
            return self.stem[i]
        return self.cycle[(i - len(self.stem)) % len(self.cycle)]

    def letters(self) -> frozenset[str]:
        return frozenset(self.stem) | frozenset(self.cycle)

    def normalize(self) -> "LassoWord":
        """Canonical form: shortest stem with a primitive cycle.

        The cycle is reduced to its primitive root, then trailing stem letters
        equal to the last cycle letter are absorbed into the cycle (rotating
        it right).  That pins the stem at the word's minimal preperiod and the
        cycle at its minimal period, so the result is the unique
        representative: two lassos denote the same omega-word exactly when
        they normalize identically.
        """
        cycle = list(self.cycle)
        root = _primitive_root_length(cycle)
        cycle = cycle[:root]
        stem = list(self.stem)
        while stem and stem[-1] == cycle[-1]:
            stem.pop()
            cycle = [cycle[-1]] + cycle[:-1]
        return LassoWord(tuple(stem), tuple(cycle))

    def as_text(self) -> str:
        return " ".join(self.stem) + ";" + " ".join(self.cycle)


def _primitive_root_length(cycle) -> int:
    n = len(cycle)
    for p in range(1, n):
        # with p dividing n, a word that a shift by p leaves unchanged is a power
        if n % p == 0 and cycle[p:] == cycle[: n - p]:
            return p
    return n


def _is_normal_form(stem, cycle) -> bool:
    """Is ``LassoWord(stem, cycle)`` its own ``normalize()`` form?

    Exactly when the cycle is primitive and the stem does not end with the
    cycle's last letter.
    """
    return (not stem or stem[-1] != cycle[-1]) and _primitive_root_length(cycle) == len(cycle)


def _mask(states: Iterable[int]) -> int:
    m = 0
    for q in states:
        m |= 1 << q
    return m


def _bit_indices(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True, init=False)
class _Graph:
    """Fields, validation and cached views shared by both kinds of automaton."""

    alphabet: Alphabet
    n_states: int
    initial: frozenset[int]
    accepting: frozenset[int]
    _succ: tuple[tuple[tuple[str, int], ...], ...]  # the stored rows

    def __init__(self, alphabet, n_states, initial, accepting, transitions):
        if n_states < 0:
            raise ValueError("n_states must be >= 0")
        rows: list[list[tuple[str, int]]] = [[] for _ in range(n_states)]
        letters = alphabet._letters
        for p, s, q in frozenset(transitions):
            if not (0 <= p < n_states and 0 <= q < n_states):
                raise ValueError(f"transition endpoint out of range: {(p, s, q)}")
            if s not in letters:
                raise ValueError(f"transition letter {s!r} not in alphabet")
            rows[p].append((s, q))
        for row in rows:  # one small sort per state, not one of the whole set
            row.sort()
        self._fill(alphabet, n_states, initial, accepting, tuple(map(tuple, rows)), ValueError)

    def _fill(self, alphabet, n_states, initial, accepting, succ, error):
        initial, accepting = frozenset(initial), frozenset(accepting)
        for q in initial | accepting:
            if not 0 <= q < n_states:
                raise error(f"state {q} out of range")
        # frozen: the fields are set once, past the dataclass's __setattr__
        self.__dict__.update(
            alphabet=alphabet, n_states=n_states, initial=initial, accepting=accepting, _succ=succ
        )
        return self

    @classmethod
    def _from_rows(cls, alphabet, n_states, initial, accepting, rows):
        """A constructed automaton from its successor rows, checked in one pass."""
        succ = tuple(map(tuple, rows))
        g = cls.__new__(cls)._fill(alphabet, n_states, initial, accepting, succ, InvariantError)
        letters = alphabet._letters
        for p, row in enumerate(g._succ):
            prev = None
            for edge in row:
                s, q = edge
                if s not in letters or not 0 <= q < n_states or (prev and prev >= edge):
                    raise InvariantError(f"malformed successor row {p}: {row}")
                prev = edge
        return g

    @classmethod
    def empty(cls, alphabet: Alphabet):
        """The distinguished 0-state automaton for the empty language."""
        return cls._from_rows(alphabet, 0, (), (), ())

    def _recast(self, cls, initial=None, accepting=None):
        """The same states and rows as a ``cls``, with other initial or
        accepting states where given."""
        initial = self.initial if initial is None else initial
        accepting = self.accepting if accepting is None else accepting
        return cls.__new__(cls)._fill(
            self.alphabet, self.n_states, initial, accepting, self._succ, InvariantError
        )

    @cached_property
    def transitions(self) -> frozenset[tuple[int, str, int]]:
        """Every (p, letter, q) edge, derived from the rows on first use."""
        return frozenset((p, s, q) for p, row in enumerate(self._succ) for s, q in row)

    @cached_property
    def _out(self) -> tuple[dict[str, int], ...]:
        """Per state, each letter it moves on mapped to its target mask, in letter order."""
        out = []
        for row in self._succ:
            moves: dict[str, int] = {}
            for s, q in row:  # rows are sorted, so letters arrive in order
                moves[s] = moves.get(s, 0) | 1 << q
            out.append(moves)
        return tuple(out)

    @cached_property
    def _initial_mask(self) -> int:
        return _mask(self.initial)

    @cached_property
    def _accepting_mask(self) -> int:
        return _mask(self.accepting)

    @property
    def states(self) -> range:
        return range(self.n_states)

    def successors(self, state: int, symbol: str) -> tuple[int, ...]:
        return tuple(_bit_indices(self._out[state].get(symbol, 0)))

    def step_mask(self, mask: int, symbol: str) -> int:
        out = self._out
        if not mask & (mask - 1):  # at most one state: one lookup
            return mask and out[mask.bit_length() - 1].get(symbol, 0)
        after = 0
        for q in _bit_indices(mask):
            after |= out[q].get(symbol, 0)
        return after


class FinAutomaton(_Graph):
    """Automaton over finite words (nondeterministic in general)."""

    @cached_property
    def deterministic(self) -> bool:
        """One initial state and at most one successor per (state, letter)."""
        return self.n_states == 0 or (
            len(self.initial) == 1
            and all(len({s for s, _ in row}) == len(row) for row in self._succ)
        )

    @cached_property
    def _canonical_form(self) -> "FinAutomaton":
        return _minimal_dfa(self)

    @cached_property
    def _limit(self) -> "BuchiAutomaton":
        # read by ``limit`` on canonical prefix-closed forms only
        return self._recast(BuchiAutomaton)


class BuchiAutomaton(_Graph):
    """Automaton over omega-words; a run accepts when it visits accepting states infinitely often."""

    @cached_property
    def _prefix_automaton(self) -> FinAutomaton:
        r = reduce_buchi(self)
        if not r.initial:
            return FinAutomaton.empty(self.alphabet)
        return r._recast(FinAutomaton, accepting=r.states)


def _run(a: FinAutomaton, word: Iterable[str]) -> int:
    """The mask of the states ``word`` leads to; every letter is checked, a dead run's too."""
    mask = a._initial_mask
    for letter in word:
        if letter not in a.alphabet:
            raise AlphabetMismatchError(f"letter {letter!r} not in alphabet")
        mask = a.step_mask(mask, letter)
    return mask


def accepts(a: FinAutomaton, word: Iterable[str]) -> bool:
    """Finite-word membership by subset simulation."""
    return bool(_run(a, word) & a._accepting_mask)


def _check_same_alphabet(a, b) -> None:
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError(
            f"alphabet mismatch: {a.alphabet.symbols} vs {b.alphabet.symbols}"
        )


def _bfs(moves, starts, tree: dict):
    """Breadth-first search, yielding each node when it is discovered.

    ``moves(u)`` lists the (letter, node) edges of ``u`` in the order to
    explore them.  ``tree`` maps each discovered node to its word, a
    ``_least_words`` link: (its parent's word, letter), or None for a start;
    nodes already in it are not discovered again.  Nodes come out in
    breadth-first order, so a caller may stop at the first one it wants and
    spell its shortest word, ``_spelled(tree[node])``.
    """
    queue = deque()
    for u in starts:
        if u not in tree:
            tree[u] = None
            queue.append(u)
            yield u
    while queue:
        u = queue.popleft()
        word = tree[u]
        for letter, v in moves(u):
            if v not in tree:
                tree[v] = (word, letter)
                queue.append(v)
                yield v


def _explore(moves, starts):
    """Every node reachable from the distinct starts, and every edge among them.

    Nodes are listed in ``_bfs``'s discovery order, the starts first.  Row i
    lists node i's edges as (letter, j) over those indices, in the order
    ``moves`` lists them.
    """
    order = list(starts)
    index = {u: i for i, u in enumerate(order)}
    rows = []
    for u in order:  # order grows while we walk it
        row = []
        for letter, v in moves(u):
            j = index.get(v)
            if j is None:
                j = index[v] = len(order)
                order.append(v)
            row.append((letter, j))
        rows.append(row)
    return order, rows


def _closure(edges, targets) -> set:
    """The targets and every node they lead to; ``edges[v]`` lists v's neighbours.

    Over predecessor lists this is backward reachability (the nodes with a
    path to a target), over successor lists forward reachability.
    """
    seen = set(targets)
    stack = list(seen)
    while stack:
        for p in edges[stack.pop()]:
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return seen


def _predecessors(rows) -> list[list[int]]:
    """Predecessor lists of the nodes of (letter, target) successor rows."""
    pred: list[list[int]] = [[] for _ in rows]
    for p, row in enumerate(rows):
        for _, q in row:
            pred[q].append(p)
    return pred


def _post(a, mask: int) -> dict[str, int]:
    """For each letter the state set ``mask`` moves on, its successor mask, in letter order.

    For a single state this is that state's dict in ``_out``: do not mutate it.
    """
    out = a._out
    if not mask & (mask - 1):
        return out[mask.bit_length() - 1] if mask else {}
    post: dict[str, int] = {}
    for q in _bit_indices(mask):
        for s, m in out[q].items():
            post[s] = post.get(s, 0) | m
    return dict(sorted(post.items()))


def _subsets(a, starts: list[int], keep_mask: int):
    """Subset construction from several distinct start sets at once.

    Returns the reached state sets as masks in discovery order (the starts
    first, in the given order) and their successor rows, one move per letter
    in letter order.  Successor sets are cut to ``keep_mask`` (-1 keeps every
    state); empty ones are dropped, so a missing move means the dead sink.
    """

    def moves(mask):
        for s, after in _post(a, mask).items():
            if after := after & keep_mask:
                yield s, after

    return _explore(moves, starts)


def _moore_classes(rows, acc) -> list[int]:
    """Equal-residual classes of deterministic states by Moore refinement.

    ``rows`` are the states' successor rows, one move per letter; a missing
    move goes to an implicit dead sink.  Every state must reach acceptance,
    so a state moves on exactly the letters its residual continues with:
    the first split, by (accepting, letters moved on), is exact, and each
    later round compares only the tuple of target classes, which members of
    one class list letter for letter.
    """
    # a class is numbered when its first member is met
    ids: dict = {}
    cls = [
        ids.setdefault((q in acc, *[s for s, _ in row]), len(ids)) for q, row in enumerate(rows)
    ]
    targets = [[j for _, j in row] for row in rows]
    while True:
        n_classes, ids = len(ids), {}
        cls = [ids.setdefault((c, *[cls[j] for j in t]), len(ids)) for c, t in zip(cls, targets)]
        if len(ids) == n_classes:
            return cls


def _quotient(alphabet: Alphabet, rows, classes, acc):
    """The automaton of the classes reachable from state 0's, and each state's class.

    ``rows`` and ``acc`` are a subset construction's successor rows and
    accepting states, ``classes`` its equal-residual classes; states are
    numbered breadth-first over sorted letters, so the automaton is
    canonical and comes back marked as its own canonical form.
    """
    class_rows: dict[int, list[tuple[str, int]]] = {}
    for q, c in enumerate(classes):
        if c not in class_rows:  # every member has the same (letter, class) moves
            class_rows[c] = [(s, classes[j]) for s, j in rows[q]]
    order, qrows = _explore(class_rows.__getitem__, [classes[0]])
    cacc = {classes[q] for q in acc}
    accepting = {i for i, c in enumerate(order) if c in cacc}
    return _marked(FinAutomaton._from_rows(alphabet, len(order), {0}, accepting, qrows)), order


def canonicalize(a: FinAutomaton) -> FinAutomaton:
    """Minimal trimmed deterministic automaton for the same finitary language.

    The input is cut to the states that can reach acceptance.  A
    deterministic input is then walked by state index from its initial
    state, any other by subset construction from its initial states; either
    walk yields only reachable states or subsets that can all reach
    acceptance too.  Moore refinement with an implicit dead sink and a
    breadth-first quotient over sorted letters follow.  Idempotent; the
    empty language collapses to the 0-state automaton.  Computed once per
    automaton object, and a canonical result is its own canonical form.
    """
    return a._canonical_form


def _marked(a: FinAutomaton) -> FinAutomaton:
    """``a`` itself, recorded as its own canonical form: callers pass only
    canonical automata."""
    a.__dict__["_canonical_form"] = a
    return a


def _minimal_dfa(a: FinAutomaton) -> FinAutomaton:
    keep = _closure(_predecessors(a._succ), a.accepting)
    init = a.initial & keep
    if not init:
        return _marked(FinAutomaton.empty(a.alphabet))
    if a.deterministic:
        # every reachable subset holds one state: the kept rows, walked by
        # index, discover states in the order the subset walk would
        succ = a._succ
        if len(keep) < a.n_states:
            succ = [[(s, q) for s, q in row if q in keep] for row in succ]
        order, rows = _explore(succ.__getitem__, init)
        acc = {i for i, q in enumerate(order) if q in a.accepting}
    else:
        order, rows = _subsets(a, [_mask(init)], _mask(keep))
        acc = {i for i, mask in enumerate(order) if mask & a._accepting_mask}
    return _quotient(a.alphabet, rows, _moore_classes(rows, acc), acc)[0]


def language_subset(
    a: FinAutomaton, b: FinAutomaton
) -> tuple[bool, tuple[str, ...] | None]:
    """Is L(a) a subset of L(b)?  On failure also return the least shortest witness.

    Breadth-first search over pairs of on-the-fly subset states, following
    a's letters in sorted order; a deterministic a is walked by state index,
    its side of a pair one state.  Pairs are discovered in shortlex order of
    their least words, so the first pair that a accepts and b does not gives
    the least shortest word of L(a) - L(b).
    """
    _check_same_alphabet(a, b)
    return _pair_search(a, b)


def language_equal(
    a: FinAutomaton, b: FinAutomaton
) -> tuple[bool, tuple[str, ...] | None]:
    """Language equality; on failure the least shortest word of the symmetric difference.

    Two inclusion searches, one each way: the shortlex-lesser of their
    witnesses is the least shortest word on either side of the difference.
    """
    _check_same_alphabet(a, b)
    witnesses = [w for _, w in (_pair_search(a, b), _pair_search(b, a)) if w is not None]
    if not witnesses:
        return True, None
    return False, min(witnesses, key=lambda w: (len(w), w))


def _pair_search(a, b):
    if a == b:  # equal automata (fields and kind): equal languages, nothing to search
        return True, None

    if a.deterministic:  # a's side of a pair is a state index, its moves its row
        starts, a_moves, a_accepts = a.initial, a._succ.__getitem__, a.accepting.__contains__
    else:
        starts, a_accepts = (a._initial_mask,), a._accepting_mask.__and__

        def a_moves(mask):
            return _post(a, mask).items()

    def moves(pair):
        # only a's letters matter: a pair without an a-state is never bad
        post_b = _post(b, pair[1])
        for s, after in a_moves(pair[0]):
            yield s, (after, post_b.get(s, 0))

    tree: dict = {}
    for pair in _bfs(moves, [(p, b._initial_mask) for p in starts], tree):
        if a_accepts(pair[0]) and not pair[1] & b._accepting_mask:
            return False, _spelled(tree[pair])
    return True, None


def left_quotient(a: FinAutomaton, word: Iterable[str]) -> FinAutomaton:
    """Canonical automaton for ``word \\ L(a)``, the continuations of ``word``."""
    c = canonicalize(a)
    mask = _run(c, word)
    if not mask:
        return FinAutomaton.empty(c.alphabet)
    return canonicalize(c._recast(FinAutomaton, initial=_bit_indices(mask)))


def _sccs(succ, sets) -> tuple[set[int], set[int]]:
    """The core and live states of the successor rows ``succ`` under the
    acceptance sets ``sets``, a tuple of state sets.

    A component is fair when it has a cycle and meets every set.  Core
    states are the states of fair components that lie in the first set
    (with no set, all of them); live states have a path to a core state.
    One iterative pass of Tarjan's algorithm: components close in reverse
    topological order, so a closing component is live exactly when it holds
    a core state or has an edge to a live state.
    """
    n_states = len(succ)
    number = [0] * n_states  # DFS number from 1; 0 while unvisited
    low = [0] * n_states  # n_states + 1 once the state's component is closed
    stack: list[int] = []
    core: set[int] = set()
    live: set[int] = set()
    count = 0
    for root in range(n_states):
        if number[root]:
            continue
        count = number[root] = low[root] = count + 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            u, edges = work[-1]
            for _, v in edges:
                if not number[v]:
                    count = number[v] = low[v] = count + 1
                    stack.append(v)
                    work.append((v, iter(succ[v])))
                    break
                if low[v] < low[u]:
                    low[u] = low[v]
            else:
                work.pop()
                if low[u] == number[u]:  # u roots a component: the stack above it
                    at = len(stack) - 1
                    while stack[at] != u:
                        at -= 1
                    comp = stack[at:]
                    del stack[at:]
                    if len(comp) > 1 or any(v == u for _, v in succ[u]):
                        anchors = [q for q in comp if q in sets[0]] if sets else comp
                        if anchors and all(any(q in s for q in comp) for s in sets[1:]):
                            core.update(anchors)
                    out = (v for w in comp for _, v in succ[w])
                    if not core.isdisjoint(comp) or not live.isdisjoint(out):
                        live.update(comp)
                    for w in comp:
                        low[w] = n_states + 1
                if work:
                    p = work[-1][0]
                    low[p] = min(low[p], low[u])
    return core, live


def _live_part(cls, alphabet, succ, initial, accepting, live):
    """The ``live`` states of the rows ``succ`` as a ``cls``, compacted in order."""
    if not live:
        return cls.empty(alphabet)
    kept = sorted(live)
    number = {q: i for i, q in enumerate(kept)}
    return cls._from_rows(
        alphabet,
        len(kept),
        [number[q] for q in initial if q in live],
        [number[q] for q in accepting if q in live],
        [[(s, number[t]) for s, t in succ[q] if t in live] for q in kept],
    )


def reduce_buchi(b: BuchiAutomaton) -> BuchiAutomaton:
    """Drop every state from which no omega-word can be accepted.

    Keeps exactly the live states of the one Tarjan pass ``_sccs``; they
    are compacted in increasing order, so a reduced automaton comes back
    identical.
    """
    keep = _sccs(b._succ, (b.accepting,))[1]
    if len(keep) == b.n_states:
        return b
    return _live_part(BuchiAutomaton, b.alphabet, b._succ, b.initial, b.accepting, keep)


def prefix_automaton(b: BuchiAutomaton) -> FinAutomaton:
    """Finitary automaton for the prefixes of the accepted omega-words.

    After reduction every remaining state starts some accepted omega-word, so
    marking all states accepting yields exactly the prefix language.
    Computed once per automaton object, which keeps it as a view.
    """
    return b._prefix_automaton


def limit(a: FinAutomaton) -> BuchiAutomaton:
    """Omega-words all of whose prefixes stay in the given prefix-closed language.

    Built on the canonical form, every state of which accepts; any other
    language raises NotPrefixClosedError rather than guessing a semantics.
    Computed once per canonical form, which keeps it as a view, so inputs
    with one canonical form share one limit.
    """
    return _prefix_closed(a, "limit requires a prefix-closed language")._limit


def is_prefix_closed(a: FinAutomaton) -> bool:
    c = canonicalize(a)
    return len(c.accepting) == c.n_states


def _prefix_closed(a: FinAutomaton, message: str) -> FinAutomaton:
    """a's canonical form, computed once; NotPrefixClosedError(message) unless prefix-closed."""
    if not is_prefix_closed(a):
        raise NotPrefixClosedError(message)
    return a._canonical_form


class _Product(dict):
    """The synchronous product of ``a`` and ``b``, numbered as it is read.

    ``sets`` lists the (operand index, accepting set) pairs the phase counts
    over, as ``_open`` gives them: a (p, q, phase) triple steps to the next
    phase when the state of ``sets[phase]``'s operand is in its set, and
    accepts in the last phase at a state of the last set; with no set, no
    triple accepts.  ``order``
    lists the triples numbered so far, the sorted initial ones first;
    ``_initial_mask`` holds those, and ``_accepting_mask`` the accepting
    ones, each set as ``row`` numbers it.  ``row(i)`` walks the out-edges of
    ``a`` (by letter, then target) and looks up ``b``'s targets for each
    letter, numbering new targets in the order of letter, then p2, then q2.
    As its own ``_out``, the product turns a row into moves on its first
    read, so ``n_states`` and the masks cover the states numbered so far.
    With ``step_mask``, that is all ``accepting_lasso`` reads.
    """

    step_mask = _Graph.step_mask

    def __init__(self, a, b, sets=()):
        _check_same_alphabet(a, b)
        super().__init__()
        self.alphabet, self._a_succ, self._b_out, self._sets = a.alphabet, a._succ, b._out, sets
        self.order = sorted((p, q, 0) for p in a.initial for q in b.initial)
        self._index = {t: i for i, t in enumerate(self.order)}
        self._initial_mask = (1 << len(self.order)) - 1
        self._accepting_mask = _mask(i for i, t in enumerate(self.order) if self._accepts(t))

    def _accepts(self, t) -> bool:
        """In the last phase at a state of the last set; never with no set."""
        sets = self._sets
        return t[2] == len(sets) - 1 and t[sets[-1][0]] in sets[-1][1]

    def row(self, i: int) -> list[tuple[str, int]]:
        """Triple i's sorted (letter, target) row, numbering new targets."""
        order, index, sets = self.order, self._index, self._sets
        p, q, phase = order[i]
        if sets and (p, q)[sets[phase][0]] in sets[phase][1]:
            phase = (phase + 1) % len(sets)
        b_out, row = self._b_out[q], []
        for s, p2 in self._a_succ[p]:
            m = b_out.get(s, 0)
            while m:
                low = m & -m
                m ^= low
                t = (p2, low.bit_length() - 1, phase)
                j = index.get(t)
                if j is None:
                    j = index[t] = len(order)
                    order.append(t)
                    if self._accepts(t):
                        self._accepting_mask |= 1 << j
                row.append((s, j))
        row.sort()  # targets of one letter come in (p2, q2) order, not index order
        return row

    @property
    def n_states(self) -> int:
        return len(self.order)

    @property
    def _out(self) -> _Product:  # a property: a self-reference would be a cycle
        return self

    def __missing__(self, i: int) -> dict[str, int]:
        """i's moves, from its row, which numbers the triples it reaches."""
        moves = {}
        for s, j in self.row(i):
            moves[s] = moves.get(s, 0) | 1 << j
        self[i] = moves
        return moves


def _every_row(g: _Product):
    """``g``'s triples, initial and accepting states and rows, computed in index
    order, which numbers the states breadth-first; not ``g``, so its index is freed."""
    rows = []
    while len(rows) < len(g.order):  # order grows while we walk it
        rows.append(g.row(len(rows)))
    return g.order, _bit_indices(g._initial_mask), _bit_indices(g._accepting_mask), rows


def product_fin(a: FinAutomaton, b: FinAutomaton) -> FinAutomaton:
    """Synchronous product for finite words: accepts the intersection."""
    order, initial, _, rows = _every_row(_Product(a, b))
    accepting = [i for i, (p, q, _) in enumerate(order) if p in a.accepting and q in b.accepting]
    return FinAutomaton._from_rows(a.alphabet, len(order), initial, accepting, rows)


def _open(a, b) -> list:
    """The (operand index, accepting set) pairs of the operands that do not
    accept in every state: only these add a condition to an intersection."""
    return [(k, g.accepting) for k, g in enumerate((a, b)) if len(g.accepting) < g.n_states]


def _pair_prefixes(a: BuchiAutomaton, b: BuchiAutomaton) -> FinAutomaton:
    """The prefixes of L(a) & L(b), decided on the plain pair product.

    The accepting set of each operand in ``_open(a, b)`` is one acceptance
    set of the (p, q) pairs; the live pairs, all accepting, recognize the
    prefixes.  Every pair is reachable, so the intersection is empty exactly
    when the result has no state.  It recognizes the language of
    ``prefix_automaton(product(a, b))``; when an operand accepts in every
    state, it is that automaton, shape and all.
    """
    order, initial, _, rows = _every_row(_Product(a, b))
    sets = tuple({i for i, t in enumerate(order) if t[k] in acc} for k, acc in _open(a, b))
    live = _sccs(rows, sets)[1]
    return _live_part(FinAutomaton, a.alphabet, rows, initial, live, live)


def product(a: BuchiAutomaton, b: BuchiAutomaton) -> BuchiAutomaton:
    """Intersection of omega-languages via the phase-counter construction.

    The phase counts over the operands of ``_open(a, b)`` in order (see
    ``_Product``).  Two open operands give the two-phase counter, which
    forces both to accept infinitely often; one keeps phase 0; with none,
    the phase counts over a's accepting set, so every pair accepts.  This
    is the witness-shaped form: lassos and printed automata read its
    states.  Emptiness and live prefixes alone are decided on the pair
    product, by ``_pair_prefixes``.
    """
    order, initial, accepting, rows = _every_row(_counter_product(a, b))
    return BuchiAutomaton._from_rows(a.alphabet, len(order), initial, accepting, rows)


def _counter_product(a, b) -> _Product:
    """``product(a, b)`` before any row is computed."""
    return _Product(a, b, _open(a, b) or [(0, a.accepting)])


def _cycle_pass(b: BuchiAutomaton, q: int, cycle) -> tuple[int, int]:
    """The (unmarked, marked) masks one whole-cycle pass leads to from state q:
    the states it reaches without, and with, an accepting state on the way.

    The accepting mask is read after each letter: an on-demand product
    numbers the states a step discovers, and marks the accepting ones, then.
    """
    out, m0, m1 = b._out, 1 << q, 0
    for s in cycle:
        # an empty or one-state mask, the usual case, steps by one lookup
        n0 = m0 and out[m0.bit_length() - 1].get(s, 0) if not m0 & (m0 - 1) else b.step_mask(m0, s)
        n1 = m1 and out[m1.bit_length() - 1].get(s, 0) if not m1 & (m1 - 1) else b.step_mask(m1, s)
        acc = b._accepting_mask
        m0 = n0 & ~acc
        m1 = n1 | (n0 & acc)
    return m0, m1


def _accepts_periodic(b: BuchiAutomaton, start: int, cycle) -> bool:
    """Does ``b`` accept cycle^omega from some state in the ``start`` mask?

    The mask is closed under whole-cycle passes, each ``_cycle_pass`` from
    one state, computed once; the word is accepted exactly when some marked
    pass u -> v leads back to u in zero or more passes, so a closure with no
    marked pass rejects at once.
    """
    known = {}
    reach, frontier, marks = 0, start, 0
    while frontier:
        reach |= frontier
        nxt = 0
        for q in _bit_indices(frontier):
            known[q] = unmarked, marked = _cycle_pass(b, q, cycle)
            nxt |= unmarked | marked
            marks |= marked
        frontier = nxt & ~reach
    if not marks:
        return False
    onward = {q: unmarked | marked for q, (unmarked, marked) in known.items()}
    for u, (_, marked) in known.items():
        seen = frontier = marked
        while frontier and not seen >> u & 1:
            nxt = 0
            for q in _bit_indices(frontier):
                nxt |= onward[q]
            frontier = nxt & ~seen
            seen |= frontier
        if seen >> u & 1:
            return True
    return False


def _least_words(b: BuchiAutomaton, start: int):
    """Per length k = 0, 1, ..., the least length-k words from the ``start`` mask.

    Each level lists (word, state set it reaches) entries in word order.
    Each state that length-k words reach takes the first entry holding it,
    whose word is the least length-k word reaching the state: that word
    extends the least word reaching a predecessor, so a level steps the
    previous one's entries in (word, letter) order and keeps each step that
    reaches a state no earlier step did.  A level thus lists at most
    ``n_states`` entries.  Endless while some word is live.  A word is a
    link, (previous word, letter) or None for the empty word, so a step
    copies no letters; ``_spelled`` spells one out.
    """
    entries = [(None, start)]
    while entries:
        yield entries
        claimed, steps = 0, []
        for word, mask in entries:
            for s, after in _post(b, mask).items():
                if after & ~claimed:
                    claimed |= after
                    steps.append(((word, s), after))
        entries = steps


def _spelled(word) -> tuple[str, ...]:
    """The letters of a ``_least_words`` link."""
    letters = []
    while word is not None:
        word, s = word
        letters.append(s)
    return tuple(reversed(letters))


def _least_cycle(b: BuchiAutomaton, f: int):
    """f's entry in the first level k >= 1 of ``_least_words`` from f that
    holds f, within ``n_states`` levels, spelled out, or None off every
    cycle: its word is the least of the shortest non-empty words leading
    from f back to f.
    """
    levels = _least_words(b, 1 << f)
    next(levels)
    for entries in islice(levels, b.n_states):
        for word, mask in entries:
            if mask >> f & 1:
                return _spelled(word), mask
    return None


def _graph_witness(b: BuchiAutomaton):
    """The walk that bounds ``accepting_lasso``'s search: (levels, witness), or None.

    A breadth-first pass from the initial set, one depth at a time, finds
    the first depth d that holds a core state: with one acceptance set, an
    accepting state on a cycle.  ``_acyclic_region`` decides each accepting
    state the pass reaches, unless an earlier search has decided it; with
    no core state at any depth the answer is None, and nothing is walked.
    ``levels[k]`` lists, for k up to d, in word order, the entries of
    ``_least_words``'s level k from the initial set whose state set no
    earlier level lists, spelled out: each is (the least length-k word
    reaching some state, the state set it reaches).  A state's depth is the
    first level holding it, so level d is the first to hold a core state.
    Each core state there takes the first entry holding it, whose word is
    the least reaching that state, and ``_least_cycle``'s word through it;
    the witness is the least (cycle length, stem, cycle) of these,
    normalized.  Every row the pass and the searches read is read through
    ``_out``, so over a ``_Product`` only those rows are computed.
    """
    out = b._out
    reached = frontier = b._initial_mask
    decided = cyclic = core = depth = 0
    while frontier:
        for f in _bit_indices(frontier & b._accepting_mask):
            if decided >> f & 1:
                core |= cyclic & 1 << f
            elif not (region := _acyclic_region(b, f, decided)):
                core |= 1 << f
            else:
                # every cycle through the region lies inside it: mark its
                # cyclic states, and let no later search enter it
                states, rows = _explore(
                    lambda q: [(s, t) for s, m in out[q].items() for t in _bit_indices(m & region)],
                    list(_bit_indices(region)),
                )
                cyclic |= _mask(states[i] for i in _sccs(rows, ())[0])
                decided |= region
        if core:
            levels = list(islice(_new_levels(b), depth + 1))
            return levels, _anchored_witness(b, levels[-1], core)
        after = 0
        for q in _bit_indices(frontier):
            for m in out[q].values():
                after |= m
        frontier = after & ~reached
        reached |= frontier
        depth += 1
    return None


def _acyclic_region(b, f: int, decided: int) -> int:
    """The mask of f and the states it reaches outside ``decided`` when f
    lies on no cycle, or 0 when it does.

    ``decided`` must be closed under successors and miss f, so no path
    through it leads back to f and the search does not enter it.  A
    breadth-first search from f's successors that stops when it returns to
    f; without that return, the states it read together with ``decided``
    are closed under successors.
    """
    out, seen, queue = b._out, decided | 1 << f, deque([f])
    while queue:
        for after in out[queue.popleft()].values():
            if after >> f & 1:
                return 0
            if after := after & ~seen:
                seen |= after
                queue.extend(_bit_indices(after))
    return seen & ~decided


def _new_levels(b):
    """Per length k, the entries of ``_least_words``'s level k from the
    initial set whose state set no earlier level lists, spelled out."""
    seen: set[int] = set()
    for entries in _least_words(b, b._initial_mask):
        level = [(_spelled(word), mask) for word, mask in entries if mask not in seen]
        seen.update(mask for _, mask in level)
        yield level


def _anchored_witness(b, level, core: int) -> LassoWord:
    """The least (cycle length, stem, cycle), normalized, over the ``core``
    states that ``level``'s entries hold: each takes the first entry holding
    it as its stem and ``_least_cycle``'s word through it as its cycle."""
    anchors: dict[int, tuple[str, ...]] = {}
    for stem, mask in level:
        for f in _bit_indices(mask & core):
            anchors.setdefault(f, stem)
    cycles = {f: _least_cycle(b, f)[0] for f in anchors}
    _, stem, cycle = min((len(cycles[f]), stem, cycles[f]) for f, stem in anchors.items())
    return LassoWord(stem, cycle).normalize()


def _product_lasso(a: BuchiAutomaton, b: BuchiAutomaton) -> LassoWord | None:
    """``accepting_lasso(product(a, b))``, computing each product row on its first read."""
    return accepting_lasso(_counter_product(a, b))


def _denotation_minimal_lasso(
    b: BuchiAutomaton, levels, baseline: LassoWord, budget: int = 24_000
) -> LassoWord:
    """Least accepted lasso by (stem length, cycle length, stem, cycle) within bounds.

    The range is the stems of ``_graph_witness``'s levels up to the
    baseline's length, each the least word reaching some state with a state
    set new at its level, and cycles up to max(baseline cycle length, 8).
    The first accepted normal form met is the answer.  The range holds one:
    a prefix of a state's least word is the least word reaching a state too,
    so the baseline's stem is an entry of ``_least_words``, and an entry
    whose set an earlier level lists leads to an accepted lasso with a
    shorter stem.  So the search stops by the baseline; running off the
    range is an ``InvariantError``.  Cycles grow one letter at a time from
    the previous length's live cycles (those on which some run from the
    stem survives), each charging its length to the budget; the baseline
    is returned once the budget runs out.  A normal form whose set
    after = post(stem set, cycle) cannot read the cycle again has no run on
    cycle^omega, so that second pass rejects it; ``_accepts_periodic``
    decides the rest.
    """
    p_cap = max(len(baseline.cycle), 8)
    for stems in levels[: len(baseline.stem) + 1]:
        # per stem: the live cycles of the current length, in lex order, each
        # with the state set it leads to
        live = [[((), mask)] for _, mask in stems]
        for p in range(1, p_cap + 1):
            for i, (stem, mask) in enumerate(stems):
                longer = []
                for word, reached in live[i]:
                    for s, after in _post(b, reached).items():
                        cycle = (*word, s)
                        longer.append((cycle, after))
                        budget -= p
                        if budget < 0:
                            return baseline
                        if not _is_normal_form(stem, cycle):
                            continue
                        for t in cycle:  # the second pass, while some run survives
                            if not (after := b.step_mask(after, t)):
                                break
                        else:
                            if _accepts_periodic(b, mask, cycle):
                                return LassoWord(stem, cycle)
                live[i] = longer
    raise InvariantError(f"no accepted lasso up to the witness {baseline.as_text()}")


def accepting_lasso(b: BuchiAutomaton) -> LassoWord | None:
    """A small accepted lasso (stem length, then cycle length, then lex), or None.

    A graph-level witness is found first, by ``_graph_witness``: the least
    word reaching a shallowest core state, an accepting state on a cycle
    (with no core state reachable, nothing is searched), then the least of
    the shortest cycle words through it.  It bounds one range: stems no longer
    than its stem and cycles of at most max(its cycle length, 8) letters.
    The result is the least accepted lasso in that range, which a run-level
    search alone can miss when tracking states forces a longer cycle than
    the word itself needs.  The witness is in the range, so the refinement
    always ends with an answer; if its budget of 24,000 letters of live
    cycles runs out first, the answer is the witness.  A smaller lasso
    outside the range, with a shorter stem and a longer cycle, can exist
    and is not found.  Only rows are read, through ``_out``, so ``b`` may
    be a ``_Product``, which computes only the rows the search reads.
    """
    found = _graph_witness(b)
    return None if found is None else _denotation_minimal_lasso(b, *found)


def is_empty(b: BuchiAutomaton) -> bool:
    """Exactly when no initial state is live in the one Tarjan pass ``_sccs``."""
    return not (_sccs(b._succ, (b.accepting,))[1] & b.initial)


def lasso_automaton(x: LassoWord, alphabet: Alphabet) -> BuchiAutomaton:
    """Single-lasso automaton accepting exactly ``{x}``."""
    for letter in x.stem + x.cycle:
        if letter not in alphabet:
            raise AlphabetMismatchError(f"lasso letter {letter!r} not in alphabet")
    n = len(x.stem) + len(x.cycle)
    rows = [[(x.letter_at(i), i + 1 if i + 1 < n else len(x.stem))] for i in range(n)]
    return BuchiAutomaton._from_rows(alphabet, n, {0}, range(len(x.stem), n), rows)


def lasso_membership(x: LassoWord, b: BuchiAutomaton) -> bool:
    """Does ``b`` accept the omega-word of ``x``?  The stem by subset
    simulation, then ``_accepts_periodic`` from the states it reaches."""
    for letter in x.cycle:  # _run checks the stem's
        if letter not in b.alphabet:
            raise AlphabetMismatchError(f"letter {letter!r} not in alphabet")
    return _accepts_periodic(b, _run(b, x.stem), x.cycle)


def accepted_lassos(b: BuchiAutomaton, max_len: int) -> list[LassoWord]:
    """Every accepted lasso with stem plus cycle at most ``max_len`` letters.

    Only normal forms are listed (each ultimately periodic word once),
    ordered by total length, then stem length, then letters.  The walk
    extends only words on which some run from an initial state survives,
    from an explicit stack, so no length is too deep for it.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    found: list[LassoWord] = []
    stack = [((), b._initial_mask)]
    while stack:
        word, mask = stack.pop()
        for split in range(len(word)):
            stem, cycle = word[:split], word[split:]
            if _is_normal_form(stem, cycle) and lasso_membership(x := LassoWord(stem, cycle), b):
                found.append(x)
        if len(word) < max_len:
            stack.extend((word + (s,), after) for s, after in _post(b, mask).items())
    found.sort(key=lambda x: (len(x.stem) + len(x.cycle), len(x.stem), x.stem, x.cycle))
    return found


def cantor_distance(x: LassoWord, y: LassoWord) -> Fraction:
    """1/(length of common prefix + 1); zero exactly on equal omega-words."""
    nx = x.normalize()
    ny = y.normalize()
    if nx == ny:
        return Fraction(0)
    bound = max(len(nx.stem), len(ny.stem)) + lcm(len(nx.cycle), len(ny.cycle))
    for i in range(bound + 1):
        if nx.letter_at(i) != ny.letter_at(i):
            return Fraction(1, i + 1)
    raise InvariantError("distinct normal forms must differ within the period bound")
