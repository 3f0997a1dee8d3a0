"""Linear temporal logic over finite alphabets: syntax, semantics, transformations.

Formulas are immutable trees.  Semantics is 1-indexed in spirit (the Until
operator includes the present) and is evaluated either directly on ultimately
periodic words or via translation to a pair of Buchi automata, one for the
formula and one for its negation.  The N/T/R rewrites relate a formula over a
visible alphabet to one over a concrete alphabet whose hidden letters carry
the reserved proposition ``eps``.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .automata import (
    Alphabet,
    BuchiAutomaton,
    EPS_TOKEN,
    HASH_TOKEN,
    LassoWord,
    _explore,
    reduce_buchi,
)

__all__ = [
    "EPS",
    "TRUE",
    "Always",
    "And",
    "Atom",
    "Before",
    "Eventually",
    "FormulaSyntaxError",
    "Iff",
    "Implies",
    "Labeling",
    "Next",
    "Not",
    "NotNormalFormError",
    "Or",
    "TrueFormula",
    "Until",
    "atoms_of",
    "check_normal_form",
    "evaluate_lasso",
    "format_formula",
    "parse_formula",
    "substitute_atom",
    "to_buchi",
    "to_positive_normal_form",
    "transform",
]


class FormulaSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotNormalFormError(ValueError):
    """The formula does not have the normal-form shape the operation requires."""


class Formula:
    """Formula node; equality and hashing use a flat preorder, safe at any depth.

    Nodes are immutable, so a node walks its preorder once and keeps it.
    """

    __slots__ = ()

    def _preorder(self) -> tuple:
        kept = getattr(self, "__dict__", {})  # a node with no __dict__ keeps nothing
        if "_walk" not in kept:
            out: list = []
            stack: list[Formula] = [self]
            while stack:
                g = stack.pop()
                out.append(g.name if isinstance(g, Atom) else type(g))
                stack.extend(reversed(children(g)))
            kept["_walk"] = tuple(out)  # stored only once children accepted every node
        return kept["_walk"]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Formula):
            return NotImplemented
        if self is other or type(self) is not type(other):
            return self is other
        return self._preorder() == other._preorder()

    def __hash__(self) -> int:
        return hash(self._preorder())


@dataclass(frozen=True, eq=False)
class TrueFormula(Formula):
    pass


@dataclass(frozen=True, eq=False)
class Atom(Formula):
    name: str


@dataclass(frozen=True, eq=False)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True, eq=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Next(Formula):
    operand: Formula


@dataclass(frozen=True, eq=False)
class Until(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Before(Formula):
    """(xi) B (zeta): no zeta strictly before the first xi fails; dual of Until."""

    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Eventually(Formula):
    operand: Formula


@dataclass(frozen=True, eq=False)
class Always(Formula):
    operand: Formula


TRUE = TrueFormula()
EPS = Atom(EPS_TOKEN)

_UNARY = (Not, Next, Eventually, Always)
_BINARY = (And, Or, Implies, Iff, Until, Before)


def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, _UNARY):
        return (f.operand,)
    if isinstance(f, _BINARY):
        return (f.left, f.right)
    if isinstance(f, (TrueFormula, Atom)):
        return ()
    raise TypeError(f"unknown formula node {f!r}")


def _rebuild(f: Formula, parts: tuple[Formula, ...]) -> Formula:
    if isinstance(f, _UNARY):
        return type(f)(parts[0])
    if isinstance(f, _BINARY):
        return type(f)(parts[0], parts[1])
    return f


def _fold(root, combine, kids=children, key=id):
    """``combine(item, values of kids(item))`` for every item under root, kids first.

    Items are combined in the order a left-to-right recursive walk would
    finish them, but from an explicit stack, so a formula's depth is bounded
    by memory and not by the interpreter's recursion limit.  Items with equal
    keys (by default the same node) are combined once.
    """
    done = {}
    stack = [(root, None)]  # (item, its kids once they are being combined)
    while stack:
        item, ks = stack.pop()
        if ks is not None:
            done[key(item)] = combine(item, [done[key(c)] for c in ks])
        elif key(item) not in done:
            ks = kids(item)
            stack.append((item, ks))
            stack.extend([(c, None) for c in reversed(ks)])
    return done[key(root)]


def atoms_of(f: Formula) -> frozenset[str]:
    # the kept preorder names each atom, and only an atom, by a string
    return frozenset(x for x in f._preorder() if isinstance(x, str))


def substitute_atom(f: Formula, old: str, new: str) -> Formula:
    def substitute(g: Formula, parts: list) -> Formula:
        if isinstance(g, Atom):
            return Atom(new) if g.name == old else g
        return _rebuild(g, parts)

    return _fold(f, substitute)


_TEMPORAL = (Next, Until, Before, Eventually, Always)


# ---------------------------------------------------------------------------
# parsing and printing

_TOKEN_RE = re.compile(r"<->|->|[()!&|#]|[A-Za-z_][A-Za-z0-9_]*")
_WS_RE = re.compile(r"\s*")

_KEYWORDS = {"true", "X", "U", "B", "F", "G"}
_PREFIX_OPS = {"!": Not, "X": Next, "F": Eventually, "G": Always}
# token -> (precedence, right associative, node); prefix operators bind tighter
_BINARY_OPS = {
    "<->": (1, True, Iff),
    "->": (2, True, Implies),
    "|": (3, False, Or),
    "&": (4, False, And),
    "U": (5, True, Until),
    "B": (5, True, Before),
}

# Deeper formula trees are syntax errors.  Later stages walk trees without
# recursion, so the rewrites' deeper outputs (R turns X into four levels) and
# trees built in code are not bounded by it.
MAX_FORMULA_DEPTH = 1000


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens: list[tuple[str, int]] = []
    i = 0
    while i < len(text):
        i = _WS_RE.match(text, i).end()
        if i >= len(text):
            break
        m = _TOKEN_RE.match(text, i)
        if not m:
            raise FormulaSyntaxError(f"unexpected character {text[i]!r}", i)
        tokens.append((m.group(), i))
        i = m.end()
    return tokens


def parse_formula(text: str) -> Formula:
    """Parse the surface syntax: true, atoms, ! & | -> <->, X U B F G, parentheses.

    Operator precedence parsing with explicit stacks, so no input can exhaust
    the interpreter's recursion; trees deeper than MAX_FORMULA_DEPTH are a
    FormulaSyntaxError.
    """
    operands: list[tuple[Formula, int]] = []  # (formula, depth)
    pending: list[tuple[str, int]] = []  # operators and open parentheses
    want_operand = True

    def node(build, depth: int, at: int) -> None:
        if depth > MAX_FORMULA_DEPTH:
            raise FormulaSyntaxError(
                f"formula nested deeper than {MAX_FORMULA_DEPTH} levels", at
            )
        operands.append((build, depth))

    def reduce_binary() -> None:
        tok, at = pending.pop()
        (right, dr), (left, dl) = operands.pop(), operands.pop()
        node(_BINARY_OPS[tok][2](left, right), max(dl, dr) + 1, at)

    def close_operand() -> None:
        while pending and pending[-1][0] in _PREFIX_OPS:
            tok, at = pending.pop()
            f, depth = operands.pop()
            node(_PREFIX_OPS[tok](f), depth + 1, at)

    for tok, at in _tokenize(text):
        if want_operand:
            if tok in _PREFIX_OPS or tok == "(":
                pending.append((tok, at))
                continue
            if tok == "true":
                operands.append((TRUE, 1))
            elif tok in _KEYWORDS or not re.fullmatch(r"#|[A-Za-z_][A-Za-z0-9_]*", tok):
                raise FormulaSyntaxError(f"unexpected token {tok!r}", at)
            else:
                operands.append((Atom(tok), 1))
            close_operand()
            want_operand = False
        elif tok in _BINARY_OPS:
            prec, right_assoc, _ = _BINARY_OPS[tok]
            while pending and pending[-1][0] in _BINARY_OPS:
                top = _BINARY_OPS[pending[-1][0]][0]
                if top < prec or (top == prec and right_assoc):
                    break
                reduce_binary()
            pending.append((tok, at))
            want_operand = True
        elif tok == ")":
            while pending and pending[-1][0] in _BINARY_OPS:
                reduce_binary()
            if not pending:
                raise FormulaSyntaxError(f"unexpected token {tok!r}", at)
            pending.pop()
            close_operand()
        elif any(t == "(" for t, _ in pending):
            raise FormulaSyntaxError("expected ')'", at)
        else:
            raise FormulaSyntaxError(f"unexpected token {tok!r}", at)
    if want_operand:
        raise FormulaSyntaxError("unexpected end of input", len(text))
    while pending:
        if pending[-1][0] == "(":
            raise FormulaSyntaxError("expected ')'", len(text))
        reduce_binary()
    return operands[0][0]


# node -> (token, precedence, right associative) for printing; prefix
# operators bind tighter than every binary one
_PREFIX_PREC = 1 + max(prec for prec, _, _ in _BINARY_OPS.values())
_SYNTAX = {node: (tok, prec, right) for tok, (prec, right, node) in _BINARY_OPS.items()}
_SYNTAX.update((node, (tok, _PREFIX_PREC, False)) for tok, node in _PREFIX_OPS.items())


def _prec(f: Formula) -> int:
    # atoms and true bind tightest of all
    return _SYNTAX[type(f)][1] if type(f) in _SYNTAX else _PREFIX_PREC + 1


def format_formula(f: Formula) -> str:
    """Minimal-parentheses rendering; parse_formula inverts it exactly."""
    return _fold(f, _render)


def _render(f: Formula, parts: list[str]) -> str:
    if isinstance(f, TrueFormula):
        return "true"
    if isinstance(f, Atom):
        return f.name
    op, me, right_assoc = _SYNTAX[type(f)]
    if isinstance(f, _UNARY):
        sub = parts[0] if _prec(f.operand) >= me else f"({parts[0]})"
        return op + sub if isinstance(f, Not) else f"{op} {sub}"
    lt, rt = parts
    if _prec(f.left) < me or (right_assoc and _prec(f.left) == me):
        lt = f"({lt})"
    if _prec(f.right) < me or (not right_assoc and _prec(f.right) == me):
        rt = f"({rt})"
    return f"{lt} {op} {rt}"


# ---------------------------------------------------------------------------
# normal forms

def to_positive_normal_form(f: Formula) -> Formula:
    """Push negations down to atoms (and the constant true) via the dualities."""
    return _fold((f, False), _pnf_step, kids=_pnf_kids, key=_polar_key)


def _polar_key(item: tuple[Formula, bool]) -> tuple[int, bool]:
    return id(item[0]), item[1]


def _pnf_kids(item: tuple[Formula, bool]) -> list[tuple[Formula, bool]]:
    # (subformula, negated) pairs the item's positive normal form is made of
    f, negated = item
    if isinstance(f, Not):
        return [(f.operand, not negated)]
    if not negated:
        return [(c, False) for c in children(f)]
    if isinstance(f, Implies):
        return [(f.left, False), (f.right, True)]
    if isinstance(f, Iff):
        return [(f.left, False), (f.right, True), (f.left, True), (f.right, False)]
    if isinstance(f, (Until, Before)):
        return [(f.left, True), (f.right, False)]
    return [(c, True) for c in children(f)]


def _pnf_step(item: tuple[Formula, bool], parts: list[Formula]) -> Formula:
    f, negated = item
    if isinstance(f, Not):
        return parts[0]
    if not negated:
        return _rebuild(f, parts)
    if isinstance(f, (TrueFormula, Atom)):
        return Not(f)
    if isinstance(f, And):
        return Or(*parts)
    if isinstance(f, (Or, Implies)):
        return And(*parts)
    if isinstance(f, Iff):
        return Or(And(parts[0], parts[1]), And(parts[2], parts[3]))
    dual = {Next: Next, Eventually: Always, Always: Eventually, Until: Before, Before: Until}
    return dual[type(f)](*parts)


def _shape(f: Formula) -> tuple[bool, bool]:
    """(negations only on atoms and true, eps only as ``G eps``) for the formula."""

    def step(g: Formula, parts: list[tuple[bool, bool]]) -> tuple[bool, bool]:
        if g == EPS:
            return True, False
        if isinstance(g, Always) and g.operand == EPS:
            return True, True
        if isinstance(g, Not):
            return isinstance(g.operand, (Atom, TrueFormula)), parts[0][1]
        return all(p for p, _ in parts), all(e for _, e in parts)

    return _fold(f, step)


def check_normal_form(f: Formula, alphabet: Alphabet, mode: str) -> bool:
    """Shape test for the transformation pipeline.

    sigma: positive normal form with atoms drawn from the alphabet.
    extended_sigma: additionally permits the reserved atom eps, but only as
    the immediate operand of Always.
    """
    if mode not in ("sigma", "extended_sigma"):
        raise ValueError(f"unknown normal-form mode {mode!r}")
    positive, eps_ok = _shape(f)
    if mode == "sigma":
        return positive and all(a in alphabet for a in atoms_of(f))
    return positive and eps_ok and all(a in alphabet or a == EPS_TOKEN for a in atoms_of(f))


def _retime(f: Formula, parts: list[Formula]) -> Formula:
    """The T/R step at a node, given its rewritten operands."""
    if isinstance(f, Until):
        return Until(Or(EPS, parts[0]), parts[1])
    if isinstance(f, Always):
        return Always(Or(EPS, parts[0]))
    if isinstance(f, Next):
        return Until(EPS, And(Not(EPS), Next(Until(EPS, parts[0]))))
    return _rebuild(f, parts)


def transform(f: Formula, mode: str) -> Formula:
    """The abstraction-boundary rewrites.

    N tightens each negated atom, and each purely Boolean ``->`` or ``<->``,
    with "and not eps" so invisible steps cannot discharge it (``a -> b``
    holds wherever a does not, and so at every invisible step).  T also
    re-times temporal operators so that runs may take invisible steps between
    visible ones: ``x U y`` becomes ``(eps | T x) U T y``, ``G x`` becomes
    ``G (eps | T x)`` and ``X x`` becomes ``eps U (!eps & X (eps U T x))``;
    every other node keeps its operator over its rewritten operands.  R is T
    with every maximal purely Boolean subformula b replaced by ``eps U N(b)``:
    the property is judged at the next visible position.  N leaves ``G eps``
    as it is; T and R turn it into ``G (eps | eps)``.
    """
    if mode not in ("N", "T", "R"):
        raise ValueError(f"unknown transformation mode {mode!r}")
    positive, eps_ok = _shape(f)
    if not positive:
        raise NotNormalFormError(
            "transformation input must be in positive normal form: "
            f"{format_formula(f)}"
        )
    if not eps_ok:
        raise NotNormalFormError(
            "the reserved atom eps may only occur as G eps: " f"{format_formula(f)}"
        )
    wrap = mode == "R"

    def step(g: Formula, parts: list) -> tuple[Formula, bool]:
        # parts are the (rewritten, purely Boolean) pairs of the operands
        if isinstance(g, Always) and g.operand == EPS:
            # eps is carried through unchanged, never wrapped
            return (g if mode == "N" else Always(Or(EPS, EPS))), False
        boolean = not isinstance(g, _TEMPORAL) and all(b for _, b in parts)
        kids = [Until(EPS, r) if wrap and b and not boolean else r for r, b in parts]
        out = _rebuild(g, kids) if mode == "N" else _retime(g, kids)
        # each of these holds at every invisible step
        negated_atom = isinstance(g, Not) and isinstance(g.operand, Atom)
        if negated_atom or (boolean and isinstance(g, (Implies, Iff))):
            out = And(out, Not(EPS))
        return out, boolean

    out, boolean = _fold(f, step)
    return Until(EPS, out) if wrap and boolean else out


# ---------------------------------------------------------------------------
# labelings and semantics

@dataclass(frozen=True)
class Labeling:
    """Total map from alphabet letters to the sets of propositions they satisfy."""

    entries: tuple[tuple[str, frozenset[str]], ...]

    def __post_init__(self):
        norm = tuple(
            sorted((sym, frozenset(props)) for sym, props in self.entries)
        )
        seen: set[str] = set()
        for sym, _ in norm:
            if sym in seen:
                raise ValueError(f"duplicate labeling entry for {sym!r}")
            seen.add(sym)
        object.__setattr__(self, "entries", norm)

    @classmethod
    def canonical(cls, alphabet: Alphabet) -> "Labeling":
        """Every letter names itself: lambda(a) = {a}."""
        return cls(tuple((a, frozenset({a})) for a in alphabet))

    @classmethod
    def from_map(cls, mapping: dict[str, frozenset[str] | set[str]]) -> "Labeling":
        return cls(tuple((k, frozenset(v)) for k, v in mapping.items()))

    def props(self, symbol: str) -> frozenset[str]:
        try:
            return self._map[symbol]
        except KeyError:
            raise ValueError(f"letter {symbol!r} not covered by the labeling") from None

    @cached_property
    def _map(self) -> dict[str, frozenset[str]]:
        return dict(self.entries)

    def eps_extension(self) -> "Labeling":
        """Padding letter # counts as an invisible step."""
        rest = tuple((s, p) for s, p in self.entries if s != HASH_TOKEN)
        return Labeling(rest + ((HASH_TOKEN, frozenset({EPS_TOKEN})),))


def evaluate_lasso(x: LassoWord, labeling: Labeling, f: Formula) -> bool:
    """Truth of the formula on stem.cycle^omega, by per-subformula fixpoints.

    Positions are the stem letters followed by one copy of the cycle, whose
    last position loops back to the cycle start.
    """
    n = len(x.stem) + len(x.cycle)
    nxt = [i + 1 for i in range(n)]
    nxt[n - 1] = len(x.stem)
    props = [labeling.props(x.letter_at(i)) for i in range(n)]

    def arr(g: Formula, parts: list[list[bool]]) -> list[bool]:
        if isinstance(g, TrueFormula):
            return [True] * n
        if isinstance(g, Atom):
            return [g.name in props[i] for i in range(n)]
        if isinstance(g, Not):
            return [not b for b in parts[0]]
        if isinstance(g, Next):
            s = parts[0]
            return [s[nxt[i]] for i in range(n)]
        if isinstance(g, Eventually):
            s = parts[0]
            return _lfp(n, nxt, lambda i, cur: s[i] or cur[nxt[i]], [False] * n)
        if isinstance(g, Always):
            s = parts[0]
            return _lfp(n, nxt, lambda i, cur: s[i] and cur[nxt[i]], [True] * n)
        l, r = parts
        if isinstance(g, And):
            return [l[i] and r[i] for i in range(n)]
        if isinstance(g, Or):
            return [l[i] or r[i] for i in range(n)]
        if isinstance(g, Implies):
            return [(not l[i]) or r[i] for i in range(n)]
        if isinstance(g, Iff):
            return [l[i] == r[i] for i in range(n)]
        if isinstance(g, Until):
            return _lfp(n, nxt, lambda i, cur: r[i] or (l[i] and cur[nxt[i]]), [False] * n)
        # Before: !(!l U r)
        u = _lfp(n, nxt, lambda i, cur: r[i] or (not l[i] and cur[nxt[i]]), [False] * n)
        return [not b for b in u]

    return _fold(f, arr)[0]


def _lfp(n, nxt, step, start):
    v = list(start)
    changed = True
    while changed:
        changed = False
        for i in range(n - 1, -1, -1):
            new = step(i, v)
            if new != v[i]:
                v[i] = new
                changed = True
    return v


# ---------------------------------------------------------------------------
# translation to Buchi automata (reachable-only expansion)

# Node kinds of the negation normal form the translator works on.  Every
# Boolean subformula (true, false, literals and their combinations) is one
# letter-set node: the bit mask of the alphabet letters whose labels satisfy it.
_LETTERS, _AND, _OR, _NEXT, _UNTIL, _RELEASE = range(6)


_NONE: frozenset[int] = frozenset()


def _prune(covers: list) -> list:
    """Drop repeats, and covers next to one allowing more letters with fewer
    next obligations and fewer postponed untils."""
    unique = list(dict.fromkeys(covers))
    return [
        c for c in unique
        if not any(
            d is not c and not c[0] & ~d[0] and d[1] <= c[1] and d[2] <= c[2]
            for d in unique
        )
    ]


def _product(a: list, b: list) -> list:
    """Covers meeting both sides at once; those no letter satisfies are dropped."""
    return _prune(
        [(ma & mb, na | nb, pa | pb) for ma, na, pa in a for mb, nb, pb in b if ma & mb]
    )


def _nnf_kids(item: tuple[Formula, bool]) -> list[tuple[Formula, bool]]:
    # (subformula, positive) pairs the item's negation normal form is made of
    f, positive = item
    t = type(f)
    if t is Not:
        return [(f.operand, not positive)]
    if t is Implies:
        return [(f.left, not positive), (f.right, positive)]
    if t is Iff:
        return [(f.left, True), (f.left, False), (f.right, True), (f.right, False)]
    if t is Before:
        return [(f.left, positive), (f.right, not positive)]
    return [(c, positive) for c in children(f)]


class _Translator:
    """The Buchi automaton of one side of a formula over one labeled alphabet.

    The formula, or its negation, is put in negation normal form over letter
    sets, and, or, X, U and R (release: ``x R y`` is ``!(!x U !y)``), with
    every node interned as a small integer; a translator interns that one
    root and nothing else.  A state is the set of obligations the rest of
    the word must meet, a degeneralization counter over the root's untils,
    and whether the step into the state completed a round of that counter
    (the accepting states).  Each obligation set is expanded once into
    covers, and only the states reachable from the root are built.
    """

    def __init__(self, alphabet: Alphabet, labeling: Labeling):
        self.alphabet = alphabet
        self.labeling = labeling
        self.full = (1 << len(alphabet)) - 1
        self.nodes: list[tuple[int, int, int]] = []
        self.ids: dict[tuple[int, int, int], int] = {}
        self.atom_masks: dict[str, int] = {}
        self.dnf: list[list] = []  # covers of nodes 0, 1, ... in creation order
        self.cover_cache: dict[frozenset[int], list] = {}
        self.true = self._node(_LETTERS, self.full)
        self.false = self._node(_LETTERS, 0)

    def _node(self, kind: int, x: int, y: int = -1) -> int:
        key = (kind, x, y)
        got = self.ids.get(key)
        if got is None:
            got = self.ids[key] = len(self.nodes)
            self.nodes.append(key)
            # a node's operands are created before it, so their covers are ready
            self.dnf.append(self._expand(got))
        return got

    def _atom(self, name: str) -> int:
        if name not in self.atom_masks:
            self.atom_masks[name] = sum(
                1 << i for i, a in enumerate(self.alphabet) if name in self.labeling.props(a)
            )
        return self.atom_masks[name]

    def _junction(self, kind: int, x: int, y: int) -> int:
        (kx, mx, _), (ky, my, _) = self.nodes[x], self.nodes[y]
        if kx == ky == _LETTERS:
            return self._node(_LETTERS, mx & my if kind == _AND else mx | my)
        unit, zero = (self.true, self.false) if kind == _AND else (self.false, self.true)
        if zero in (x, y):
            return zero
        if x == unit or x == y:
            return y
        if y == unit:
            return x
        return self._node(kind, min(x, y), max(x, y))

    def _temporal(self, kind: int, x: int, y: int = -1) -> int:
        target = x if kind == _NEXT else y
        if target in (self.true, self.false) or x == y:
            return target
        if (kind, x) in ((_UNTIL, self.false), (_RELEASE, self.true)):
            return y
        return self._node(kind, x, y)

    def nnf(self, f: Formula, positive: bool = True) -> int:
        """Interned negation normal form of f, or of !f when not positive."""
        return _fold((f, positive), self._nnf_step, kids=_nnf_kids, key=_polar_key)

    def _nnf_step(self, item: tuple[Formula, bool], parts: list[int]) -> int:
        f, positive = item
        if isinstance(f, TrueFormula):
            return self.true if positive else self.false
        if isinstance(f, Atom):
            m = self._atom(f.name)
            return self._node(_LETTERS, m if positive else self.full & ~m)
        if isinstance(f, Not):
            return parts[0]
        if isinstance(f, (And, Or)):
            kind = _AND if isinstance(f, And) == positive else _OR
            return self._junction(kind, *parts)
        if isinstance(f, Implies):  # !l | r
            return self._junction(_OR if positive else _AND, *parts)
        if isinstance(f, Iff):  # (l & r) | (!l & !r)
            l, nl, r, nr = parts
            if not positive:
                r, nr = nr, r
            return self._junction(_OR, self._junction(_AND, l, r), self._junction(_AND, nl, nr))
        if isinstance(f, Next):
            return self._temporal(_NEXT, parts[0])
        if isinstance(f, (Eventually, Always)):  # true U g, false R g
            if isinstance(f, Eventually) == positive:
                return self._temporal(_UNTIL, self.true, parts[0])
            return self._temporal(_RELEASE, self.false, parts[0])
        if isinstance(f, Until):  # !(l U r) = !l R !r
            return self._temporal(_UNTIL if positive else _RELEASE, *parts)
        # Before: l B r = l R !r
        return self._temporal(_RELEASE if positive else _UNTIL, *parts)

    def _expand(self, g: int) -> list:
        """Covers of one node: (letters allowed now, obligations for the next
        position, untils postponed)."""
        kind, x, y = self.nodes[g]
        if kind == _LETTERS:
            return [(x, _NONE, _NONE)] if x else []
        if kind == _NEXT:
            return [(self.full, frozenset({x}), _NONE)]
        dx, dy = self.dnf[x], self.dnf[y]
        if kind == _AND:
            return _product(dx, dy)
        if kind == _OR:
            return _prune(dx + dy)
        if kind == _UNTIL:  # y now, or x now and the until again next
            again = [(self.full, frozenset({g}), frozenset({g}))]
            return _prune(dy + _product(dx, again))
        # release: x and y now, or y now and the release again next
        again = [(self.full, frozenset({g}), _NONE)]
        return _prune(_product(dx, dy) + _product(dy, again))

    def _covers(self, obligations: frozenset[int]) -> list:
        """Covers of a whole obligation set: the product of its nodes' covers."""
        got = self.cover_cache.get(obligations)
        if got is None:
            got = [(self.full, _NONE, _NONE)]
            for g in sorted(obligations):
                got = _product(got, self.dnf[g])
            self.cover_cache[obligations] = got
        return got

    def automaton(self, f: Formula, positive: bool = True) -> BuchiAutomaton:
        """Reduced Buchi automaton for the words satisfying f, or !f if not positive."""
        root = self.nnf(f, positive)
        untils = [g for g, (kind, _, _) in enumerate(self.nodes) if kind == _UNTIL]
        symbols = self.alphabet.symbols

        def moves(state):
            # one move per cover, on the cover's letter mask
            obligations, k, _ = state
            for mask, nxt, post in self._covers(obligations):
                # the counter waits at the first until this step postpones
                j = k
                while j < len(untils) and untils[j] not in post:
                    j += 1
                target = (nxt, 0, True) if j == len(untils) else (nxt, j, False)
                yield mask, target

        start = (frozenset() if root == self.true else frozenset({root}), 0, False)
        order, mask_rows = _explore(moves, [start])
        rows = [
            sorted({(a, t) for mask, t in row for i, a in enumerate(symbols) if mask >> i & 1})
            for row in mask_rows
        ]
        accepting = [i for i, (_, _, wrapped) in enumerate(order) if wrapped]
        raw = BuchiAutomaton._from_rows(self.alphabet, len(order), {0}, accepting, rows)
        return reduce_buchi(raw)


@lru_cache(maxsize=512)
def _translated(f: Formula, alphabet: Alphabet, labeling: Labeling, positive: bool):
    return _Translator(alphabet, labeling).automaton(f, positive)


class _BuchiPair(Sequence):
    """The pair ``to_buchi`` returns: the formula's automaton, built at once,
    and its negation's, built when index 1 is first read."""

    def __init__(self, f: Formula, alphabet: Alphabet, labeling: Labeling) -> None:
        self._key = (f, alphabet, labeling)
        self._positive = _translated(f, alphabet, labeling, True)

    def __len__(self) -> int:
        return 2

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self)[i]
        return self._positive if range(2)[i] == 0 else _translated(*self._key, False)


def to_buchi(
    f: Formula, alphabet: Alphabet, labeling: Labeling | None = None
) -> Sequence[BuchiAutomaton]:
    """Buchi automata for the formula and for its negation, both reduced.

    Each is built from its own negation normal form; the pair partitions the
    omega-words over the alphabet, which is what lets callers avoid
    complementation entirely.  The pair is indexed and unpacked like a
    tuple.  The formula's automaton is built at once, so a formula the
    translator cannot read fails here; its negation's is built the first
    time ``[1]`` is read (unpacking reads it), as relative liveness never
    reads it.  The last 512 automata built, of either side, are kept.
    """
    if labeling is None:
        labeling = Labeling.canonical(alphabet)
    return _BuchiPair(f, alphabet, labeling)
