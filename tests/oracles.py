"""Independent brute-force reference implementations.

Used only by tests, as the other side of oracle-agreement checks.  Nothing
here shares algorithms with the package: membership walks the raw transition
set, omega-acceptance is decided by composing whole-cycle step relations, and
the higher-level brute deciders in the per-module test files build on these.
"""

from __future__ import annotations

from itertools import product as iproduct


def enumerate_words(alphabet, max_len: int):
    """All words over the alphabet up to the given length, shortest first."""
    if max_len < 0:
        return
    yield ()
    syms = tuple(alphabet)
    for n in range(1, max_len + 1):
        yield from iproduct(syms, repeat=n)


def nfa_accepts(a, word) -> bool:
    """Finite-word membership by walking the raw transition set."""
    cur = set(a.initial)
    for letter in word:
        cur = {q for u in cur for (p, s, q) in a.transitions if p == u and s == letter}
        if not cur:
            return False
    return bool(cur & set(a.accepting))


def states_reached(a, starts, word) -> set[int]:
    """States in which some run on the word from one of the starts ends."""
    cur = set(starts)
    for letter in word:
        cur = {q for u in cur for (p, s, q) in a.transitions if p == u and s == letter}
    return cur


def shortest_word_lengths(a, starts) -> dict[int, int]:
    """Every state some word leads to from the starts, with the least such length.

    Walks every word of at most ``n_states - 1`` letters, shortest first; no
    state needs a longer word.
    """
    lengths: dict[int, int] = {}
    succ = _raw_succ(a.transitions)
    for word in enumerate_words(a.alphabet, max(a.n_states - 1, 0)):
        for q in _reached(succ, starts, word):
            lengths.setdefault(q, len(word))
    return lengths


def least_cycle(a, f: int) -> tuple[str, ...] | None:
    """Least non-empty word leading from ``f`` back to ``f``, or None.

    Least means shortest, then by letters.  Walks every word of at most
    ``n_states`` letters, shortest first; a shortest cycle visits no state
    twice, so none is longer.
    """
    succ = _raw_succ(a.transitions)
    for word in enumerate_words(a.alphabet, a.n_states):
        if word and f in _reached(succ, {f}, word):
            return word
    return None


def _reached(succ, starts, word) -> set[int]:
    """``states_reached`` through a (state, letter) -> targets table."""
    cur = set(starts)
    for letter in word:
        cur = {q for u in cur for q in succ.get((u, letter), ())}
    return cur


def _cycle_relation_step(succ, accepting, pairs, cycle):
    """Advance (state, seen-accepting) pairs through one full pass of the cycle."""
    frontier = set(pairs)
    for letter in cycle:
        frontier = {
            (q, f or q in accepting) for u, f in frontier for q in succ.get((u, letter), ())
        }
    return frontier


def buchi_accepts_lasso(b, x) -> bool:
    """Does the automaton accept stem.cycle^omega?  Decided directly.

    After the stem, iterate the whole-cycle step relation: the word is
    accepted exactly when some cycle-boundary state loops back to itself
    through an accepting state in one or more passes.
    """
    return _accepts_lasso(b, _raw_succ(b.transitions), x)


def _accepts_lasso(b, succ, x) -> bool:
    """``buchi_accepts_lasso`` with b's transitions tabled once as ``succ``."""
    accepting = set(b.accepting)
    reach = _reached(succ, b.initial, x.stem)
    frontier = set(reach)
    while frontier:
        stepped = _cycle_relation_step(succ, accepting, {(u, False) for u in frontier}, x.cycle)
        nxt = {q for q, _ in stepped}
        frontier = nxt - reach
        reach |= nxt
    for anchor in sorted(reach):
        seen: set[tuple[int, bool]] = set()
        frontier2 = _cycle_relation_step(succ, accepting, {(anchor, False)}, x.cycle)
        while frontier2 - seen:
            seen |= frontier2
            frontier2 = _cycle_relation_step(succ, accepting, frontier2, x.cycle)
        if (anchor, True) in seen:
            return True
    return False


def least_lasso(b, baseline, budget: int):
    """The least accepted lasso in the refinement's range, by listing them.

    Stems of at most ``len(baseline.stem)`` letters, one per distinct
    non-empty state set: the least word reaching it.  Cycles of at most
    ``len(baseline.cycle)`` letters after a stem as long as the baseline's,
    of at most max(that, 8) after a shorter one.  Candidates come in (stem
    length, cycle length, stem, cycle) order.  Every cycle on which some run
    from the stem's states survives charges its length to the budget; once
    the budget is negative the answer is the baseline.  Each length's cycles
    grow from the previous length's live ones, so dead cycles are never
    listed.  The first candidate that ``normalize()`` leaves unchanged and
    that is the baseline or that ``buchi_accepts_lasso`` accepts decides: it
    is the answer when it sorts below the baseline.  Returns the answer and
    the budget charged.
    """
    m_cap, p_base = len(baseline.stem), len(baseline.cycle)
    base_key = (m_cap, p_base, baseline.stem, baseline.cycle)
    letters = sorted(b.alphabet)
    succ = _raw_succ(b.transitions)  # tabled once: the candidates are many
    seen: set[frozenset] = set()
    spent = 0
    for m in range(m_cap + 1):
        stems = []
        for stem in iproduct(letters, repeat=m):
            reached = frozenset(_reached(succ, b.initial, stem))
            if reached and reached not in seen:
                seen.add(reached)
                stems.append((stem, reached))
        # per stem, the live cycles of the current length in lex order, each
        # with the states it leads to: a cycle is live only if its prefix is,
        # and appending letters in sorted order keeps lex order
        live = [[((), reached)] for _, reached in stems]
        for p in range(1, (p_base if m == m_cap else max(p_base, 8)) + 1):
            for i, (stem, _) in enumerate(stems):
                longer = []
                for word, ends in live[i]:
                    for letter in letters:
                        after = _reached(succ, ends, (letter,))
                        if not after:
                            continue
                        cycle = word + (letter,)
                        longer.append((cycle, after))
                        spent += p
                        if spent > budget:
                            return baseline, spent
                        x = type(baseline)(stem, cycle)
                        if x.normalize() != x:
                            continue
                        if x == baseline or _accepts_lasso(b, succ, x):
                            return (x if (m, p, stem, cycle) < base_key else baseline), spent
                live[i] = longer
    return baseline, spent


def _raw_succ(transitions):
    succ: dict[tuple[int, str], set[int]] = {}
    for p, s, q in transitions:
        succ.setdefault((p, s), set()).add(q)
    return succ


def reference_product(a, b, buchi: bool):
    """Synchronous product built one letter at a time, in the package's numbering.

    States are (p, q, phase) triples, numbered in breadth-first discovery
    order: the initial pairs sorted, then, per state, letters in sorted
    order, p2 ascending, q2 ascending.  Without ``buchi`` the phase stays 0
    and a state accepts when both components do.  With it, only the open
    operands (those that do not accept in every state) have a condition.
    With both open, phase 0 waits for an accepting state of ``a`` and phase
    1 for one of ``b``, and the accepting states are the phase-1 ones whose
    ``b`` component accepts.  With one open, the phase stays 0 and a state
    accepts when that operand's component does; with none, every state
    accepts.  Returns (n_states, initial, accepting, transitions).
    """
    sa, sb = _raw_succ(a.transitions), _raw_succ(b.transitions)
    open_ = [k for k, g in enumerate((a, b)) if len(g.accepting) < g.n_states]
    counter = buchi and len(open_) == 2
    starts = sorted((p, q, 0) for p in a.initial for q in b.initial)
    index = {t: i for i, t in enumerate(starts)}
    order = list(starts)
    transitions = set()
    i = 0
    while i < len(order):
        p, q, phase = order[i]
        nphase = 0
        if counter and phase == 0:
            nphase = 1 if p in a.accepting else 0
        elif counter:
            nphase = 0 if q in b.accepting else 1
        for s in sorted(a.alphabet):
            for p2 in sorted(sa.get((p, s), ())):
                for q2 in sorted(sb.get((q, s), ())):
                    t = (p2, q2, nphase)
                    if t not in index:
                        index[t] = len(order)
                        order.append(t)
                    transitions.add((i, s, index[t]))
        i += 1
    if counter:
        accepting = {i for i, (_, q, ph) in enumerate(order) if ph == 1 and q in b.accepting}
    elif buchi and open_:
        k = open_[0]
        accepting = {i for i, t in enumerate(order) if t[k] in (a, b)[k].accepting}
    elif buchi:
        accepting = set(range(len(order)))
    else:
        accepting = {
            i for i, (p, q, _) in enumerate(order) if p in a.accepting and q in b.accepting
        }
    return len(order), frozenset(range(len(starts))), frozenset(accepting), frozenset(transitions)


def _sccs(nodes, edges):
    """Strongly connected components by double DFS on explicit edge lists."""
    order: list = []
    seen: set = set()
    for root in nodes:
        if root in seen:
            continue
        stack = [(root, iter(edges.get(root, ())))]
        seen.add(root)
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, iter(edges.get(nxt, ()))))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()
    redges: dict = {}
    for p, qs in edges.items():
        for q in qs:
            redges.setdefault(q, set()).add(p)
    comp: dict = {}
    for root in reversed(order):
        if root in comp:
            continue
        members = [root]
        comp[root] = root
        queue = [root]
        while queue:
            node = queue.pop()
            for nxt in redges.get(node, ()):
                if nxt not in comp:
                    comp[nxt] = root
                    members.append(nxt)
                    queue.append(nxt)
    groups: dict = {}
    for node, root in comp.items():
        groups.setdefault(root, set()).add(node)
    return list(groups.values())


def _backward_closure(targets, edges, nodes):
    """Nodes from which some target is reachable (targets included)."""
    redges: dict = {}
    for p, qs in edges.items():
        for q in qs:
            redges.setdefault(q, set()).add(p)
    reach = set(targets)
    queue = list(targets)
    while queue:
        node = queue.pop()
        for prev in redges.get(node, ()):
            if prev not in reach:
                reach.add(prev)
                queue.append(prev)
    return reach & set(nodes)


def core_and_live_states(nodes, edges, sets):
    """Core and live nodes when a run must visit every set in ``sets`` infinitely often.

    A component is fair when it has a cycle and meets every set; its nodes
    in the first set (all of them, with no set) are core, and a node is live
    when some fair component is reachable from it.
    """
    fair = set()
    for c in _sccs(nodes, edges):
        if (len(c) > 1 or any(q in edges.get(q, ()) for q in c)) and all(c & set(s) for s in sets):
            fair |= c
    core = fair & set(sets[0]) if sets else fair
    return core, _backward_closure(fair, edges, nodes)


def _live_states(b):
    """States of a Buchi automaton from which some accepting run exists."""
    succ = _raw_succ(b.transitions)
    nodes = list(range(b.n_states))
    edges = {
        p: {q for (pp, s), qs in succ.items() if pp == p for q in qs} for p in nodes
    }
    return core_and_live_states(nodes, edges, (b.accepting,))[1]


def brute_rl(system, positive) -> bool:
    """Definitional relative-liveness check by exhaustive subset search.

    A violation is a producible finite behavior none of whose extensions is a
    computation satisfying the property.  The search walks pairs (set of
    system states, set of product pairs) reached by the same word; the state
    space is finite, so visited-set pruning makes it exhaustive.
    """
    alphabet = system.alphabet.symbols
    sys_succ = _raw_succ(system.transitions)
    pos_succ = _raw_succ(positive.transitions)
    live = _live_states(system)

    pair_succ: dict[tuple, set] = {}
    pairs = {(u, v) for u in system.initial for v in positive.initial}
    queue = list(pairs)
    while queue:
        u, v = queue.pop()
        for s in alphabet:
            nxt = {
                (uu, vv)
                for uu in sys_succ.get((u, s), ())
                for vv in pos_succ.get((v, s), ())
            }
            pair_succ.setdefault(((u, v), s), set()).update(nxt)
            for p in nxt:
                if p not in pairs:
                    pairs.add(p)
                    queue.append(p)
    pair_edges = {
        p: {q for (pp, s), qs in pair_succ.items() if pp == p for q in qs}
        for p in pairs
    }
    fair_cores = set()
    for c in _sccs(list(pairs), pair_edges):
        nontrivial = len(c) > 1 or any(q in pair_edges.get(q, ()) for q in c)
        if not nontrivial:
            continue
        if any(u in system.accepting for u, _ in c) and any(
            v in positive.accepting for _, v in c
        ):
            fair_cores |= c
    fair = _backward_closure(fair_cores, pair_edges, pairs)

    start = (
        frozenset(q for q in system.initial if q in live),
        frozenset(p for p in {(u, v) for u in system.initial for v in positive.initial}),
    )
    if not start[0]:
        return True
    visited = {start}
    frontier = [start]
    while frontier:
        sset, pset = frontier.pop()
        if not (pset & fair):
            return False
        for s in alphabet:
            nsset = frozenset(
                q for u in sset for q in sys_succ.get((u, s), ()) if q in live
            )
            if not nsset:
                continue
            npset = frozenset(
                q for p in pset for q in pair_succ.get((p, s), ())
            )
            nxt = (nsset, npset)
            if nxt not in visited:
                visited.add(nxt)
                frontier.append(nxt)
    return True


# ---------------------------------------------------------------------------
# weak continuation-closure, decided from the definition

def _erased_closure(transitions, image_of, seeds):
    # forward closure over edges whose letter the abstraction erases
    seen = set(seeds)
    stack = list(seeds)
    while stack:
        p = stack.pop()
        for pp, c, q in transitions:
            if pp == p and image_of[c] == "eps" and q not in seen:
                seen.add(q)
                stack.append(q)
    return frozenset(seen)


def _subset_image_dfa(a, h, seeds):
    """Explicit-subset DFA for the image of L(a) rebased at the seed states.

    Returns (start, step, accepting) with subsets of a's states as DFA
    states.  Built directly from the definition: erased letters contribute
    closure, each target letter collects every edge mapping onto it.
    """
    image_of = {c: h.image(c) for c in a.alphabet.symbols}
    trans = list(a.transitions)
    start = _erased_closure(trans, image_of, seeds)
    step: dict[tuple[frozenset, str], frozenset] = {}
    states = {start}
    queue = [start]
    while queue:
        s = queue.pop()
        for t in h.target:
            base = {q for (p, c, q) in trans if p in s and image_of[c] == t}
            if not base:
                continue
            s2 = _erased_closure(trans, image_of, base)
            step[(s, t)] = s2
            if s2 not in states:
                states.add(s2)
                queue.append(s2)
    acc = {s for s in states if s & set(a.accepting)}
    return start, step, acc


def _subset_dfas_equivalent(s1, dfa1, s2, dfa2, symbols):
    # residual-language equality via mismatch search over reachable pairs;
    # None is the shared dead sink
    step1, acc1 = dfa1
    step2, acc2 = dfa2
    seen = {(s1, s2)}
    queue = [(s1, s2)]
    while queue:
        p, q = queue.pop()
        in1 = p is not None and p in acc1
        in2 = q is not None and q in acc2
        if in1 != in2:
            return False
        for t in symbols:
            p2 = step1.get((p, t)) if p is not None else None
            q2 = step2.get((q, t)) if q is not None else None
            if p2 is None and q2 is None:
                continue
            if (p2, q2) not in seen:
                seen.add((p2, q2))
                queue.append((p2, q2))
    return True


def brute_wcc(system, h) -> bool:
    """Definitional weak-continuation-closure decision for small instances.

    Enumerates every class of words in the (prefix-closed, all states
    accepting) language, one class per reachable (state subset, image state)
    pair.  For each class it rebuilds both quotient languages as explicit
    subset DFAs and searches all continuations u, pruned at repeated state
    pairs, for one after which the residual languages coincide.
    """
    image_of = {c: h.image(c) for c in system.alphabet.symbols}
    trans = list(system.transitions)
    d_start, d_step, d_acc = _subset_image_dfa(system, h, system.initial)
    abstract_dfa = (d_step, d_acc)
    if not system.initial:
        return True
    start = (frozenset(system.initial), d_start)
    seen = {start}
    queue = [start]
    while queue:
        s, d = queue.pop()
        if s & set(system.accepting):
            y_start, y_step, y_acc = _subset_image_dfa(system, h, s)
            quotient_dfa = (y_step, y_acc)
            found = False
            upairs = {(d, y_start)}
            uqueue = [(d, y_start)]
            while uqueue and not found:
                d1, y1 = uqueue.pop()
                if d1 in d_acc and _subset_dfas_equivalent(
                    d1, abstract_dfa, y1, quotient_dfa, h.target.symbols
                ):
                    found = True
                    break
                for t in h.target:
                    d2 = d_step.get((d1, t))
                    if d2 is None:
                        continue
                    y2 = y_step.get((y1, t)) if y1 is not None else None
                    if (d2, y2) not in upairs:
                        upairs.add((d2, y2))
                        uqueue.append((d2, y2))
            if not found:
                return False
        for c in system.alphabet:
            s2 = frozenset(q for (p, cc, q) in trans if p in s and cc == c)
            if not s2:
                continue
            t = image_of[c]
            d2 = d if t == "eps" else d_step[(d, t)]
            if (s2, d2) not in seen:
                seen.add((s2, d2))
                queue.append((s2, d2))
    return True


# ---------------------------------------------------------------------------
# padding relative to an abstraction, decided from the definition

def _has_visible_future(a, image_of, word) -> bool:
    """Does some accepted continuation of the word contain a visible letter?

    Searches continuations of up to 2 * n_states letters, layer by layer over
    (state, visible letter seen) pairs; a shortest such continuation visits
    each pair at most once, so the bound loses nothing.
    """
    cur = set(a.initial)
    for letter in word:
        cur = {q for u in cur for (p, s, q) in a.transitions if p == u and s == letter}
    frontier = {(q, False) for q in cur}
    for _ in range(2 * a.n_states):
        frontier = {
            (q, seen or image_of[s] != "eps")
            for u, seen in frontier
            for (p, s, q) in a.transitions
            if p == u
        }
        if any(seen and q in a.accepting for q, seen in frontier):
            return True
    return False


def relative_xtd_accepts(a, h, word) -> bool:
    """Membership in the language padded with "#" relative to the abstraction.

    Dropping every "#" must leave a word of the language, and each "#" must
    follow a prefix (its "#"s dropped) that is accepted and none of whose
    accepted continuations contains a letter the abstraction keeps visible.
    """
    image_of = {c: h.image(c) for c in a.alphabet.symbols}
    prefix: list[str] = []
    for letter in word:
        if letter != "#":
            prefix.append(letter)
        elif not nfa_accepts(a, prefix) or _has_visible_future(a, image_of, prefix):
            return False
    return nfa_accepts(a, prefix)


# ---------------------------------------------------------------------------
# the T and R rewrites, written from their definition in pltl.transform

def _pltl():
    # imported on use: perfbench loads this module without importing faircheck
    from faircheck import pltl

    return pltl


def _operands(f) -> list:
    pltl = _pltl()
    if isinstance(f, (pltl.Not, pltl.Next, pltl.Eventually, pltl.Always)):
        return [f.operand]
    if isinstance(f, (pltl.Atom, pltl.TrueFormula)):
        return []
    return [f.left, f.right]


def _is_boolean(f) -> bool:
    pltl = _pltl()
    temporal = (pltl.Next, pltl.Until, pltl.Before, pltl.Eventually, pltl.Always)
    return not isinstance(f, temporal) and all(_is_boolean(c) for c in _operands(f))


def _reference_n(f):
    """N: each negated atom tightened with "and not eps"."""
    pltl = _pltl()
    if isinstance(f, pltl.Not) and isinstance(f.operand, pltl.Atom):
        return pltl.And(f, pltl.Not(pltl.EPS))
    if not _operands(f):
        return f
    return type(f)(*[_reference_n(c) for c in _operands(f)])


def _retimed(f, kids):
    """The T rule at a non-leaf node, given its rewritten operands."""
    pltl = _pltl()
    eps = pltl.EPS
    if isinstance(f, pltl.Until):
        return pltl.Until(pltl.Or(eps, kids[0]), kids[1])
    if isinstance(f, pltl.Always):
        return pltl.Always(pltl.Or(eps, kids[0]))
    if isinstance(f, pltl.Next):
        return pltl.Until(
            eps, pltl.And(pltl.Not(eps), pltl.Next(pltl.Until(eps, kids[0])))
        )
    return type(f)(*kids)


def _is_g_eps(f) -> bool:
    pltl = _pltl()
    return isinstance(f, pltl.Always) and f.operand == pltl.EPS


def reference_t(f):
    """T by plain recursion over a positive-normal-form formula."""
    pltl = _pltl()
    if _is_g_eps(f):
        return pltl.Always(pltl.Or(pltl.EPS, pltl.EPS))
    if isinstance(f, pltl.Not) or not _operands(f):
        return _reference_n(f)
    return _retimed(f, [reference_t(c) for c in _operands(f)])


def reference_r(f):
    """R: T with each maximal purely Boolean subformula b as ``eps U N(b)``."""
    pltl = _pltl()
    if _is_boolean(f):
        return pltl.Until(pltl.EPS, _reference_n(f))
    if _is_g_eps(f):
        return pltl.Always(pltl.Or(pltl.EPS, pltl.EPS))
    return _retimed(f, [reference_r(c) for c in _operands(f)])
