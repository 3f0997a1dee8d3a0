"""Line-oriented text formats for automata and letter homomorphisms.

An `.aut` file names an automaton:

    # comments fill whole lines: '#' later in a line is the padding letter
    alphabet: request result reject
    # the acceptance line is absent for finitary automata
    acceptance: buchi
    states: s0 s1
    initial: s0
    # without an accepting line a finitary automaton accepts at every state
    accepting: s0
    trans: s0 request s1
    trans: s1 result s0

A `.hom` file maps every source letter to a target letter or to `eps`:

    lock -> eps
    request -> request

Parsers report 1-based line numbers; printers emit files the parsers map
back to the same object, and raise ``ValueError`` where they cannot.
"""

from __future__ import annotations

from .automata import EPS_TOKEN, Alphabet, BuchiAutomaton, FinAutomaton
from .abstraction import Homomorphism

__all__ = [
    "AutFormatError",
    "HomFormatError",
    "format_automaton",
    "format_homomorphism",
    "parse_automaton",
    "parse_homomorphism",
]


class _LineError(ValueError):
    """Malformed text; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class AutFormatError(_LineError):
    """Malformed automaton text; carries the offending 1-based line number."""


class HomFormatError(_LineError):
    """Malformed homomorphism text; carries the offending 1-based line number."""


def _content_lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield i, line


def parse_automaton(text: str) -> FinAutomaton | BuchiAutomaton:
    """Read an `.aut` file body into an automaton.

    Directive order is free except that `trans:` lines need `alphabet:` and
    `states:` before them.  A finitary file without an `accepting:` line is
    an LTS: every state accepts and the language is prefix closed.
    """
    alphabet: Alphabet | None = None
    acceptance_buchi = False
    names: list[str] | None = None
    index: dict[str, int] = {}
    initial: set[int] | None = None
    accepting: set[int] | None = None
    rows: list[set[tuple[str, int]]] = []
    seen: set[str] = set()
    last_line = 0

    def resolve(token: str, line_no: int) -> int:
        if names is None:
            raise AutFormatError(line_no, "states: must come before this line")
        if token not in index:
            raise AutFormatError(line_no, f"unknown state name {token!r}")
        return index[token]

    for line_no, line in _content_lines(text):
        last_line = line_no
        key, sep, rest = line.partition(":")
        key = key.strip()
        if not sep:
            raise AutFormatError(line_no, "expected 'directive: arguments'")
        fields = rest.split()
        if key == "trans":  # most lines: tested first
            if len(fields) != 3:
                raise AutFormatError(line_no, "expected 'trans: src letter dst'")
            src, sym, dst = fields
            if alphabet is None:
                raise AutFormatError(line_no, "alphabet: must come before trans:")
            if sym not in alphabet:
                raise AutFormatError(line_no, f"letter {sym!r} not in the alphabet")
            p, q = index.get(src), index.get(dst)
            if p is None or q is None:
                p, q = resolve(src, line_no), resolve(dst, line_no)
            rows[p].add((sym, q))
            continue
        if key in seen:
            raise AutFormatError(line_no, f"duplicate {key}: line")
        seen.add(key)
        if key == "alphabet":
            try:
                alphabet = Alphabet(tuple(fields))
            except ValueError as exc:
                raise AutFormatError(line_no, str(exc)) from None
        elif key == "acceptance":
            if fields != ["buchi"]:
                raise AutFormatError(line_no, "only 'acceptance: buchi' is known")
            acceptance_buchi = True
        elif key == "states":
            if len(set(fields)) != len(fields):
                raise AutFormatError(line_no, "duplicate state name")
            names = fields
            index = {name: i for i, name in enumerate(names)}
            rows = [set() for _ in names]
        elif key == "initial":
            initial = {resolve(tok, line_no) for tok in fields}
        elif key == "accepting":
            accepting = {resolve(tok, line_no) for tok in fields}
        else:
            raise AutFormatError(line_no, f"unknown directive {key!r}")

    missing_at = last_line + 1
    if alphabet is None:
        raise AutFormatError(missing_at, "missing alphabet: line")
    if names is None:
        raise AutFormatError(missing_at, "missing states: line")
    if initial is None:
        raise AutFormatError(missing_at, "missing initial: line")
    if accepting is None:
        if acceptance_buchi:
            raise AutFormatError(missing_at, "buchi automata need an accepting: line")
        accepting = set(range(len(names)))
    cls = BuchiAutomaton if acceptance_buchi else FinAutomaton
    return cls._from_rows(alphabet, len(names), initial, accepting, map(sorted, rows))


def format_automaton(a: FinAutomaton | BuchiAutomaton) -> str:
    """Render an automaton as `.aut` text with states named s0, s1, ...

    The `accepting:` line is left out exactly when a finitary automaton
    accepts everywhere, so LTS files stay in LTS form; parsing the output
    reproduces the input automaton.  A letter holding whitespace is a ``ValueError``.
    """
    for letter in a.alphabet:
        if letter.split() != [letter]:
            raise ValueError(f"a .aut letter may hold no whitespace: {letter!r}")
    lines = ["alphabet: " + " ".join(a.alphabet.symbols)]
    if isinstance(a, BuchiAutomaton):
        lines.append("acceptance: buchi")
    lines.append("states: " + " ".join(f"s{i}" for i in range(a.n_states)))
    lines.append("initial: " + " ".join(f"s{i}" for i in sorted(a.initial)))
    if isinstance(a, BuchiAutomaton) or len(a.accepting) < a.n_states:
        lines.append(
            "accepting: " + " ".join(f"s{i}" for i in sorted(a.accepting))
        )
    for src, row in enumerate(a._succ):
        lines.extend(f"trans: s{src} {sym} s{dst}" for sym, dst in row)
    return "\n".join(lines) + "\n"


def parse_homomorphism(text: str, alphabet: Alphabet | None = None) -> Homomorphism:
    """Read a `.hom` file body into a letter homomorphism.

    The source alphabet is the set of left-hand letters (or the given one,
    against which totality is then checked); the target alphabet collects
    the non-eps images.
    """
    mapping: dict[str, str] = {}
    for line_no, line in _content_lines(text):
        parts = line.split("->")
        if len(parts) != 2:
            raise HomFormatError(line_no, "expected 'letter -> letter' or 'letter -> eps'")
        src, dst = parts[0].strip(), parts[1].strip()
        if src.split() != [src] or dst.split() != [dst]:
            raise HomFormatError(line_no, "letters must be single whitespace-free tokens")
        if src == EPS_TOKEN:
            raise HomFormatError(line_no, "'eps' cannot be a source letter")
        if src in mapping:
            raise HomFormatError(line_no, f"letter {src!r} mapped twice")
        mapping[src] = dst
    if not mapping:
        raise HomFormatError(1, "empty homomorphism")
    if alphabet is None:
        alphabet = Alphabet(tuple(mapping))
    else:
        missing = set(alphabet.symbols) - set(mapping)
        extra = set(mapping) - set(alphabet.symbols)
        if missing:
            raise HomFormatError(
                1, f"not total: no image for {sorted(missing)!r}"
            )
        if extra:
            raise HomFormatError(
                1, f"letters {sorted(extra)!r} are not in the alphabet"
            )
    images = sorted(set(mapping.values()) - {EPS_TOKEN})
    if not images:
        raise HomFormatError(1, "all letters are hidden; target alphabet would be empty")
    target = Alphabet(tuple(images))
    return Homomorphism.from_map(alphabet, target, mapping)


def format_homomorphism(h: Homomorphism) -> str:
    """The `.hom` text of the map; ``ValueError`` where the parser would read
    another map back: some target letter is no letter's image (the parser
    takes the images as the target), or a letter holds whitespace or ``->``
    or starts with ``#`` (a line that starts with it is a comment)."""
    for letter in h.source.symbols + h.target.symbols:
        if letter.split() != [letter] or "->" in letter or letter.startswith("#"):
            rule = "may hold no whitespace, '->' or leading '#'"
            raise ValueError(f"a .hom letter {rule}: {letter!r}")
    unused = set(h.target.symbols) - {img for _, img in h.entries}
    if unused:
        raise ValueError(
            f"target letters {sorted(unused)!r} are no letter's image; "
            "a .hom file cannot name them"
        )
    return "".join(f"{a} -> {img}\n" for a, img in h.entries)
