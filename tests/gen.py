"""Seeded random generators shared by the test modules.

Everything draws from an explicit random.Random so runs are reproducible;
conftest wires the seed to the FAIRCHECK_SEED environment variable.
"""

from __future__ import annotations

import random

import oracles
from faircheck.automata import (
    EPS_TOKEN,
    Alphabet,
    BuchiAutomaton,
    FinAutomaton,
    LassoWord,
)
from faircheck.pltl import (
    EPS,
    TRUE,
    Always,
    And,
    Atom,
    Before,
    Eventually,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    Until,
)

ABC = "abcdef"

SERVER_SIGMA = Alphabet(("free", "lock", "no", "reject", "request", "result"))


def letters(k: int) -> Alphabet:
    return Alphabet(tuple(ABC[:k]))


def releasing_server() -> FinAutomaton:
    """Request server whose lock region can always be left again."""
    trans = {
        (0, "request", 1),
        (1, "result", 0),
        (0, "lock", 2),
        (2, "free", 0),
        (2, "request", 3),
        (3, "no", 4),
        (4, "reject", 2),
    }
    return FinAutomaton(
        SERVER_SIGMA, 5, frozenset({0}), frozenset(range(5)), frozenset(trans)
    )


def trapping_server() -> FinAutomaton:
    """Variant that can reject before locking and never leaves the lock region."""
    trans = {
        (0, "request", 1),
        (1, "result", 0),
        (1, "no", 2),
        (2, "reject", 0),
        (0, "lock", 3),
        (3, "request", 4),
        (4, "no", 5),
        (5, "reject", 3),
    }
    return FinAutomaton(
        SERVER_SIGMA, 6, frozenset({0}), frozenset(range(6)), frozenset(trans)
    )


def random_fin(
    rng: random.Random,
    alphabet: Alphabet,
    max_states: int = 6,
    all_accepting: bool = False,
    density: float = 1.6,
) -> FinAutomaton:
    """Random NFA.  A spanning tree keeps most states reachable; extra edges on top.

    With all_accepting=True the language is prefix-closed and contains the
    empty word, which is the shape the system-side generators need.
    """
    n = rng.randint(1, max_states)
    trans: set[tuple[int, str, int]] = set()
    for q in range(1, n):
        trans.add((rng.randrange(q), rng.choice(alphabet.symbols), q))
    for _ in range(int(density * n)):
        trans.add(
            (rng.randrange(n), rng.choice(alphabet.symbols), rng.randrange(n))
        )
    if all_accepting:
        acc = frozenset(range(n))
    else:
        acc = frozenset(q for q in range(n) if rng.random() < 0.5)
    return FinAutomaton(alphabet, n, frozenset({0}), acc, frozenset(trans))


def random_buchi(
    rng: random.Random, alphabet: Alphabet, max_states: int = 6, density: float = 1.8
) -> BuchiAutomaton:
    n = rng.randint(1, max_states)
    trans: set[tuple[int, str, int]] = set()
    for q in range(1, n):
        trans.add((rng.randrange(q), rng.choice(alphabet.symbols), q))
    for _ in range(int(density * n)):
        trans.add(
            (rng.randrange(n), rng.choice(alphabet.symbols), rng.randrange(n))
        )
    acc = frozenset(q for q in range(n) if rng.random() < 0.5)
    return BuchiAutomaton(alphabet, n, frozenset({0}), acc, frozenset(trans))


def random_lasso(
    rng: random.Random,
    alphabet: Alphabet,
    max_stem: int = 4,
    max_cycle: int = 3,
) -> LassoWord:
    stem = tuple(
        rng.choice(alphabet.symbols) for _ in range(rng.randint(0, max_stem))
    )
    cycle = tuple(
        rng.choice(alphabet.symbols) for _ in range(rng.randint(1, max_cycle))
    )
    return LassoWord(stem, cycle)


# ---------------------------------------------------------------------------
# formulas

def random_formula(rng: random.Random, atom_names, depth: int):
    """Arbitrary formula tree, negations anywhere."""
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.12:
            return TRUE
        return Atom(rng.choice(list(atom_names)))
    kind = rng.choice(
        ["not", "and", "or", "implies", "iff", "next", "until", "before", "ev", "alw"]
    )
    sub = lambda: random_formula(rng, atom_names, depth - 1)
    if kind == "not":
        return Not(sub())
    if kind == "and":
        return And(sub(), sub())
    if kind == "or":
        return Or(sub(), sub())
    if kind == "implies":
        return Implies(sub(), sub())
    if kind == "iff":
        return Iff(sub(), sub())
    if kind == "next":
        return Next(sub())
    if kind == "until":
        return Until(sub(), sub())
    if kind == "before":
        return Before(sub(), sub())
    if kind == "ev":
        return Eventually(sub())
    return Always(sub())


def random_pnf_formula(rng: random.Random, atom_names, depth: int):
    """Formula already in positive normal form (negations only on atoms)."""
    if depth <= 0 or rng.random() < 0.25:
        leaf = Atom(rng.choice(list(atom_names)))
        r = rng.random()
        if r < 0.10:
            return TRUE
        if r < 0.35:
            return Not(leaf)
        return leaf
    kind = rng.choice(
        ["and", "or", "implies", "iff", "next", "until", "before", "ev", "alw"]
    )
    sub = lambda: random_pnf_formula(rng, atom_names, depth - 1)
    if kind == "and":
        return And(sub(), sub())
    if kind == "or":
        return Or(sub(), sub())
    if kind == "implies":
        return Implies(sub(), sub())
    if kind == "iff":
        return Iff(sub(), sub())
    if kind == "next":
        return Next(sub())
    if kind == "until":
        return Until(sub(), sub())
    if kind == "before":
        return Before(sub(), sub())
    if kind == "ev":
        return Eventually(sub())
    return Always(sub())


def random_monotone_boolean(
    rng: random.Random, atom_names, depth: int, allow_true: bool = True
):
    """Pure Boolean formula using only literals, true, conjunction, disjunction.

    Implication and equivalence over atoms are deliberately absent: they hold
    vacuously at positions where every atom is false, which is exactly the
    situation at letters an abstraction hides, so the rewrites tighten them
    with "and not eps", which the reference oracles' N (negated atoms only)
    does not.
    """
    if depth <= 0 or rng.random() < 0.4:
        leaf = Atom(rng.choice(list(atom_names)))
        r = rng.random()
        if allow_true and r < 0.08:
            return TRUE
        if r < 0.38:
            return Not(leaf)
        return leaf
    op = And if rng.random() < 0.5 else Or
    return op(
        random_monotone_boolean(rng, atom_names, depth - 1, allow_true),
        random_monotone_boolean(rng, atom_names, depth - 1, allow_true),
    )


def random_nf_formula(
    rng: random.Random, atom_names, depth: int, allow_mixed_impl: bool = True
):
    """Normal-form formula on which the rewrites match the reference oracles.

    Pure Boolean subtrees are monotone; -> and <-> appear only with at least
    one temporal operand (or, with allow_mixed_impl=False, not at all).  A
    purely Boolean -> or <-> is tightened by the rewrites but not by
    ``oracles.reference_t``/``reference_r``, so these draws leave it out.
    """
    if depth <= 0 or rng.random() < 0.2:
        return random_monotone_boolean(rng, atom_names, 1)
    kinds = ["bool", "and", "or", "until", "before", "next", "ev", "alw"]
    if allow_mixed_impl:
        kinds += ["implies", "iff"]
    kind = rng.choice(kinds)
    sub = lambda: random_nf_formula(rng, atom_names, depth - 1, allow_mixed_impl)
    if kind == "bool":
        return random_monotone_boolean(rng, atom_names, depth - 1)
    if kind == "and":
        return And(sub(), sub())
    if kind == "or":
        return Or(sub(), sub())
    if kind == "until":
        return Until(sub(), sub())
    if kind == "before":
        return Before(sub(), sub())
    if kind == "next":
        return Next(sub())
    if kind == "ev":
        return Eventually(sub())
    if kind == "alw":
        return Always(sub())
    temporal = sub()
    if oracles.is_boolean(temporal):
        wrap = rng.choice([Next, Eventually, Always])
        temporal = wrap(temporal)
    other = sub()
    op = Implies if kind == "implies" else Iff
    if rng.random() < 0.5:
        return op(temporal, other)
    return op(other, temporal)


def _t_operand(rng: random.Random, atom_names, depth: int):
    """Operand for discharge positions of the plain letter-level rewrite.

    Fires only where a letter is visible, or uniformly across a hidden run:
    monotone Booleans, whole temporal subtrees, and their and/or mixes.
    """
    if depth <= 0 or rng.random() < 0.35:
        return random_monotone_boolean(rng, atom_names, 1)
    r = rng.random()
    if r < 0.4:
        return random_purely_temporal(rng, atom_names, depth)
    op = And if rng.random() < 0.5 else Or
    return op(
        _t_operand(rng, atom_names, depth - 1),
        _t_operand(rng, atom_names, depth - 1),
    )


def random_purely_temporal(rng: random.Random, atom_names, depth: int):
    """Temporal formula the plain letter-level rewrite is faithful on.

    Atoms only under temporal operators; -> and <-> only combine two such
    subtrees.  One extra care point: the rewrite leaves the operands of B
    unguarded, so the right operand must either be purely temporal itself or
    be paired with a left operand that is false wherever every atom is.
    """
    d = max(depth - 1, 0)
    kind = rng.choice(["next", "until", "before", "ev", "alw", "bool"])
    if kind == "bool" and depth > 1:
        op = rng.choice([And, Or, Implies, Iff])
        return op(
            random_purely_temporal(rng, atom_names, depth - 1),
            random_purely_temporal(rng, atom_names, depth - 1),
        )
    if kind == "next":
        return Next(_t_operand(rng, atom_names, d))
    if kind == "until":
        return Until(_t_operand(rng, atom_names, d), _t_operand(rng, atom_names, d))
    if kind == "before":
        if rng.random() < 0.5:
            return Before(
                _t_operand(rng, atom_names, d),
                random_purely_temporal(rng, atom_names, d) if d > 0 else Always(
                    random_monotone_boolean(rng, atom_names, 1)
                ),
            )
        return Before(
            random_monotone_boolean(rng, atom_names, 1, allow_true=False),
            _t_operand(rng, atom_names, d),
        )
    if kind == "ev":
        return Eventually(_t_operand(rng, atom_names, d))
    return Always(_t_operand(rng, atom_names, d))


def random_extended_formula(rng: random.Random, atom_names, depth: int):
    """Faithful-fragment formula over the atoms, sprinkled with G eps leaves."""
    base = random_nf_formula(rng, atom_names, depth)
    if rng.random() < 0.5:
        glue = rng.choice([And, Or])
        eps_part = Always(EPS) if rng.random() < 0.5 else Eventually(Always(EPS))
        return glue(base, eps_part) if rng.random() < 0.5 else glue(eps_part, base)
    return base


def random_hom(rng: random.Random, alphabet: Alphabet, p_hide: float = 0.4):
    """Random abstraction over the alphabet: hiding plus optional renaming.

    Keeps at least one letter visible (target alphabets are nonempty) and
    merges visible letters onto a smaller name pool about half of the time.
    """
    from faircheck.abstraction import Homomorphism

    syms = list(alphabet.symbols)
    while True:
        hidden = {a for a in syms if rng.random() < p_hide}
        if len(hidden) < len(syms):
            break
    visible = [a for a in syms if a not in hidden]
    if rng.random() < 0.5:
        images = {a: a for a in visible}
    else:
        pool = ["u", "v", "w", "z"][: rng.randint(1, min(4, len(visible)))]
        images = {a: rng.choice(pool) for a in visible}
        for i, a in enumerate(visible[: len(pool)]):
            images[a] = pool[i]  # make every pool name actually used
    target = Alphabet(tuple(sorted(set(images.values()))))
    entries = tuple(
        (a, EPS_TOKEN if a in hidden else images[a]) for a in syms
    )
    return Homomorphism(alphabet, target, entries)


def has_hidden_cycle(a, h) -> bool:
    """Whether the trimmed system can loop forever on letters h erases.

    Systems with such a cycle can commit to an invisible-forever future;
    their padded image cannot express that choice, so abstract and concrete
    within-fairness verdicts may legitimately diverge even under a closed
    abstraction. Equality suites sample cycle-free instances only.
    """
    from faircheck.automata import canonicalize
    from faircheck.pltl import EPS_TOKEN

    a = canonicalize(a)
    adj: dict[int, set[int]] = {}
    for (p, c, q) in a.transitions:
        if h.image(c) == EPS_TOKEN:
            adj.setdefault(p, set()).add(q)
    color: dict[int, int] = {}

    def dfs(p: int) -> bool:
        color[p] = 1
        for q in adj.get(p, ()):
            state = color.get(q)
            if state == 1 or (state is None and dfs(q)):
                return True
        color[p] = 2
        return False

    return any(dfs(p) for p in range(a.n_states) if p not in color)
