"""Seeded input generator for the benchmark workloads.

Never imports faircheck: the inputs of a run depend only on the seed, so a
change under test cannot alter what it is measured on.  Every generated
system, homomorphism and formula is kept as plain data next to its text, so
the verifier can judge the program's answers without the program's parsers.

Formulas are nested tuples: ("true",), ("atom", name), ("not", f),
("and"|"or"|"implies"|"iff"|"U"|"B", f, g) and ("X"|"F"|"G", f).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

FIXTURE_SIGMA = ("free", "lock", "no", "reject", "request", "result")

# The worked pair from fixtures/, restated as data (five and six states).
FIG2 = (
    ("Free", "BusyF", "Locked", "BusyL", "RejL"),
    (
        ("Free", "request", "BusyF"),
        ("BusyF", "result", "Free"),
        ("Free", "lock", "Locked"),
        ("Locked", "free", "Free"),
        ("Locked", "request", "BusyL"),
        ("BusyL", "no", "RejL"),
        ("RejL", "reject", "Locked"),
    ),
)
FIG3 = (
    ("Free", "BusyF", "RejF", "Locked", "BusyL", "RejL"),
    (
        ("Free", "request", "BusyF"),
        ("BusyF", "result", "Free"),
        ("BusyF", "no", "RejF"),
        ("RejF", "reject", "Free"),
        ("Free", "lock", "Locked"),
        ("Locked", "request", "BusyL"),
        ("BusyL", "no", "RejL"),
        ("RejL", "reject", "Locked"),
    ),
)
HIDE_HOM = {
    "free": "eps",
    "lock": "eps",
    "no": "eps",
    "reject": "reject",
    "request": "request",
    "result": "result",
}


@dataclass(frozen=True)
class System:
    """A prefix-closed NFA: every state accepts, state 0 is initial."""

    alphabet: tuple[str, ...]
    n_states: int
    transitions: frozenset[tuple[int, str, int]]

    def text(self) -> str:
        lines = [
            "alphabet: " + " ".join(self.alphabet),
            "states: " + " ".join(f"q{i}" for i in range(self.n_states)),
            "initial: q0",
        ]
        lines += [f"trans: q{p} {a} q{q}" for p, a, q in sorted(self.transitions)]
        return "\n".join(lines) + "\n"


def hom_text(mapping: dict[str, str]) -> str:
    return "".join(f"{a} -> {b}\n" for a, b in sorted(mapping.items()))


@dataclass(frozen=True)
class Case:
    """One check: a CLI argv plus what the verifier needs to judge its output.

    ``refs`` names the generated objects the argv mentions ("system",
    "hom", "formula", "lasso"), groups checks on one pair for consistency
    ("pair"), orders dependent checks ("writes", "after") and carries known
    answers ("expect", "safety").  An out-of-reach case is expected to hit
    the time limit today; if it is ever decided, its answer is judged too.
    """

    argv: tuple[str, ...]
    refs: dict = field(default_factory=dict, hash=False, compare=False)
    out_of_reach: bool = False


@dataclass
class Workload:
    name: str
    files: dict[str, str]
    systems: dict[str, System]
    homs: dict[str, dict[str, str]]
    formulas: dict[str, tuple]
    cases: list[Case]
    # the cases of the traced run: a prefix, fixed so that counts repeat exactly
    trace_cases: list[int] = field(default_factory=list)

    def set_trace_prefix(self, n: int) -> None:
        self.trace_cases = [i for i in range(n) if not self.cases[i].out_of_reach]

    def digest(self) -> str:
        h = hashlib.sha256()
        for path in sorted(self.files):
            h.update(path.encode() + b"\0" + self.files[path].encode() + b"\0")
        for c in self.cases:
            h.update(json.dumps(c.argv).encode() + b"\n")
        return h.hexdigest()


# ---------------------------------------------------------------------------
# systems


def _named_system(alphabet, named) -> System:
    names, trans = named
    index = {s: i for i, s in enumerate(names)}
    return System(
        tuple(alphabet),
        len(names),
        frozenset((index[p], a, index[q]) for p, a, q in trans),
    )


def fig2() -> System:
    return _named_system(FIXTURE_SIGMA, FIG2)


def fig3() -> System:
    return _named_system(FIXTURE_SIGMA, FIG3)


def random_system(rng: random.Random, n: int, alphabet, density: float) -> System:
    """Random prefix-closed NFA; a spanning tree keeps every state reachable."""
    trans = set()
    for q in range(1, n):
        trans.add((rng.randrange(q), rng.choice(alphabet), q))
    for _ in range(int(density * n)):
        trans.add((rng.randrange(n), rng.choice(alphabet), rng.randrange(n)))
    return System(tuple(alphabet), n, frozenset(trans))


def server(copies: int) -> System:
    """Interleaving of ``copies`` fig2 servers, each with its own letters.

    Letter ``x`` of copy i is ``x<i>``; the product has 5**copies states.
    """
    names, trans = FIG2
    local = {s: i for i, s in enumerate(names)}
    alphabet = tuple(f"{a}{i}" for i in range(1, copies + 1) for a in FIXTURE_SIGMA)
    n = len(names) ** copies

    def encode(digits):
        v = 0
        for d in reversed(digits):
            v = v * len(names) + d
        return v

    out = set()
    for code in range(n):
        digits, v = [], code
        for _ in range(copies):
            digits.append(v % len(names))
            v //= len(names)
        for i in range(copies):
            for p, a, q in trans:
                if digits[i] == local[p]:
                    nd = list(digits)
                    nd[i] = local[q]
                    out.add((code, f"{a}{i + 1}", encode(nd)))
    return System(alphabet, n, frozenset(out))


def random_hom(rng: random.Random, alphabet, p_hide: float = 0.4) -> dict[str, str]:
    """Hiding plus, half of the time, renaming onto a smaller pool of names."""
    while True:
        hidden = {a for a in alphabet if rng.random() < p_hide}
        if len(hidden) < len(alphabet):
            break
    visible = [a for a in alphabet if a not in hidden]
    if rng.random() < 0.5:
        images = {a: a for a in visible}
    else:
        pool = ["u", "v", "w", "z"][: rng.randint(1, min(4, len(visible)))]
        images = {a: rng.choice(pool) for a in visible}
        for i, a in enumerate(visible[: len(pool)]):
            images[a] = pool[i]
    return {a: ("eps" if a in hidden else images[a]) for a in alphabet}


# ---------------------------------------------------------------------------
# formulas

_BINARY_TEXT = {"and": "&", "or": "|", "implies": "->", "iff": "<->", "U": "U", "B": "B"}


def text(f: tuple) -> str:
    """Fully parenthesized surface syntax."""
    op = f[0]
    if op == "true":
        return "true"
    if op == "atom":
        return f[1]
    if op == "not":
        return f"!{_wrap(f[1])}"
    if op in ("X", "F", "G"):
        return f"{op} {_wrap(f[1])}"
    return f"{_wrap(f[1])} {_BINARY_TEXT[op]} {_wrap(f[2])}"


def _wrap(f: tuple) -> str:
    return text(f) if f[0] in ("true", "atom") else f"({text(f)})"


def atom(name: str) -> tuple:
    return ("atom", name)


def conj(parts) -> tuple:
    parts = list(parts)
    out = parts[0]
    for p in parts[1:]:
        out = ("and", out, p)
    return out


def gf_conjunction(names) -> tuple:
    return conj(("G", ("F", atom(a))) for a in names)


def nexts(k: int, f: tuple) -> tuple:
    """X^k f."""
    for _ in range(k):
        f = ("X", f)
    return f


TEMPORAL = frozenset(("X", "F", "G", "U", "B"))


_OPERATORS = ("not", "and", "or", "implies", "iff", "X", "F", "G", "U", "B")


class _TooManyTemporal(Exception):
    pass


def _pick(rng: random.Random, seq):
    # rng.choice, at a third of its cost: most draws of the generator are rejected
    return seq[int(rng.random() * len(seq))]


def random_formula(rng: random.Random, names, depth: int, cap: list[int] | None = None) -> tuple:
    """Arbitrary formula of at most the given depth, negations anywhere.

    With ``cap`` (a one-element list), each temporal operator drawn takes one
    from it, and the draw is abandoned once it would go below zero.
    """
    if depth <= 0 or rng.random() < 0.2:
        return ("true",) if rng.random() < 0.05 else atom(_pick(rng, names))
    op = _pick(rng, _OPERATORS)
    if cap is not None and op in TEMPORAL:
        cap[0] -= 1
        if cap[0] < 0:
            raise _TooManyTemporal
    if op in ("not", "X", "F", "G"):
        return (op, random_formula(rng, names, depth - 1, cap))
    return (op, random_formula(rng, names, depth - 1, cap),
            random_formula(rng, names, depth - 1, cap))


def _monotone(rng: random.Random, names, depth: int) -> tuple:
    if depth <= 0 or rng.random() < 0.5:
        return atom(rng.choice(names))
    op = rng.choice(["and", "or"])
    return (op, _monotone(rng, names, depth - 1), _monotone(rng, names, depth - 1))


def random_nf_formula(rng: random.Random, names, depth: int) -> tuple:
    """Normal-form formula: Boolean parts are monotone, no implication or iff."""
    if depth <= 0 or rng.random() < 0.2:
        return _monotone(rng, names, 1)
    op = rng.choice(["and", "or", "U", "B", "X", "F", "G"])
    if op in ("X", "F", "G"):
        return (op, random_nf_formula(rng, names, depth - 1))
    return (op, random_nf_formula(rng, names, depth - 1), random_nf_formula(rng, names, depth - 1))


def random_extended_formula(rng: random.Random, names, depth: int) -> tuple:
    """Normal-form formula over visible letters, sometimes glued to G eps."""
    base = random_nf_formula(rng, names, depth)
    if rng.random() < 0.5:
        eps_part = ("G", atom("eps")) if rng.random() < 0.5 else ("F", ("G", atom("eps")))
        glue = rng.choice(["and", "or"])
        return (glue, base, eps_part) if rng.random() < 0.5 else (glue, eps_part, base)
    return base


def random_lasso(rng: random.Random, alphabet, max_stem: int = 4, max_cycle: int = 3) -> str:
    stem = [rng.choice(alphabet) for _ in range(rng.randint(0, max_stem))]
    cycle = [rng.choice(alphabet) for _ in range(rng.randint(1, max_cycle))]
    return " ".join(stem) + ";" + " ".join(cycle)


def subset_count(system: System, image=None, cap: int = 10**9) -> int:
    """Reachable subsets of the (image) determinization, a cheap cost proxy.

    With ``image`` (a letter map), letters mapped to eps become silent moves
    and visible letters are grouped by their image, as in the image automaton.
    Counting stops once it passes ``cap``.
    """
    n = system.n_states
    closure = [1 << q for q in range(n)]
    moves: dict[str, list[int]] = {}
    for p, a, q in system.transitions:
        b = a if image is None else image[a]
        if b == "eps":
            closure[p] |= 1 << q
        else:
            moves.setdefault(b, [0] * n)[p] |= 1 << q
    changed = True
    while changed:
        changed = False
        for p in range(n):
            m = closure[p]
            for q in _bits(m):
                m |= closure[q]
            if m != closure[p]:
                closure[p], changed = m, True
    step = {b: [_close(closure, row[p]) for p in range(n)] for b, row in moves.items()}
    start = closure[0]
    seen, stack = {start}, [start]
    while stack and len(seen) <= cap:
        cur = stack.pop()
        for row in step.values():
            nxt = 0
            for p in _bits(cur):
                nxt |= row[p]
            if nxt and nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _close(closure, mask: int) -> int:
    out = 0
    for q in _bits(mask):
        out |= closure[q]
    return out


def temporal_count(f: tuple) -> int:
    own = 1 if f[0] in TEMPORAL else 0
    return own + sum(temporal_count(g) for g in f[1:] if isinstance(g, tuple))


# ---------------------------------------------------------------------------
# workloads
#
# Each workload mixes fixed anchor cases, the same for every seed, into a long
# seeded stream of small independent random units.  The anchors pin the layer
# the workload is about and, where they repeat, make a fixed share of every
# run the same work; the stream's many independent draws keep the
# seed-to-seed spread of a run low.  Every stream is about twice as long as a
# run uses at today's speed, so that generating it stays a small part of the
# set-up time; a run that reaches the end of its stream says so.

TIME_LIMIT_S = 8.0


class _WorkloadMaker:
    def __init__(self, name: str, seed: int) -> None:
        self.w = Workload(name, {}, {}, {}, {}, [])
        self.rng = random.Random(f"{name}:{seed}")

    def system(self, name: str, s: System) -> str:
        path = f"{name}.aut"
        self.w.systems[name] = s
        self.w.files[path] = s.text()
        return name

    def hom(self, name: str, mapping: dict[str, str]) -> str:
        self.w.homs[name] = mapping
        self.w.files[f"{name}.hom"] = hom_text(mapping)
        return name

    def formula(self, f: tuple) -> str:
        name = text(f)
        self.w.formulas[name] = f
        return name

    def case(self, argv, out_of_reach: bool = False, **refs) -> int:
        self.w.cases.append(Case(tuple(argv), refs, out_of_reach))
        return len(self.w.cases) - 1

    def check(self, kind: str, system: str, f: tuple, **refs) -> int:
        fname = self.formula(f)
        return self.case(
            ["check", kind, "--system", f"{system}.aut", "--formula", fname],
            system=system, formula=fname, pair=(system, fname), **refs,
        )

    def synth_and_verify(self, system: str, f: tuple) -> None:
        fname = self.formula(f)
        impl = f"impl{len(self.w.cases)}.aut"
        synth = self.case(
            ["synthesize", "--system", f"{system}.aut", "--formula", fname],
            system=system, formula=fname, pair=(system, fname), writes=impl,
        )
        self.case(
            ["verify-impl", "--impl", impl, "--system", f"{system}.aut", "--formula", fname],
            system=system, formula=fname, after=synth,
        )

    def abstraction(self, system: str, hom: str, f: tuple, small: bool, expect=None) -> None:
        """preserve, wcc, xtd --hom and abstract on one (system, hom) pair."""
        fname = self.formula(f)
        sh = ["--system", f"{system}.aut", "--hom", f"{hom}.hom"]
        refs = dict(system=system, hom=hom, pair=(system, hom), small=small)
        known = {cmd: {"expect": want} for cmd, want in (expect or {}).items()}
        self.case(["preserve", *sh, "--formula", fname], formula=fname,
                  **known.get("preserve", {}), **refs)
        self.case(["wcc", *sh], **known.get("wcc", {}), **refs)
        self.case(["xtd", *sh], **refs)
        self.case(["abstract", *sh], **refs)


def _banded_system(rng, n, letters, density, band) -> System:
    """A random system whose determinization size lies in the band.

    The size is a cheap proxy for the cost of checks on the system; keeping
    it in a band narrows the seed-to-seed spread of a run.
    """
    while True:
        s = random_system(rng, n, letters, density)
        if band[0] <= subset_count(s, cap=band[1]) <= band[1]:
            return s


LARGE_FORMULAS = (
    ("G", ("F", atom("a"))),
    ("G", ("implies", atom("b"), ("F", atom("c")))),
    ("or", ("F", ("G", atom("a"))), ("G", ("F", atom("d")))),
)
SERVER_FORMULAS = (
    ("G", ("F", atom("result1"))),
    ("G", ("implies", atom("request1"), ("F", atom("result1")))),
    ("or", ("F", ("G", atom("lock1"))), ("G", ("F", atom("result2")))),
    ("G", ("F", atom("reject2"))),
)


def large_systems(seed: int, units: int = 64) -> Workload:
    b = _WorkloadMaker("large-systems", seed)
    b.check("rl", b.system("fig3", fig3()), ("G", ("F", atom("result"))),
            expect={"holds": False, "witness": {"word": ["lock"]}})
    srv4 = b.system("server4", server(4))
    for f in SERVER_FORMULAS[::3]:
        _pair_checks(b, srv4, f)
    srv3 = b.system("server3", server(3))
    for u in range(units):
        # a round on the 125-state server every third unit: most of the run
        # is the same work on every seed, and both percentiles fall among it
        if u % 3 == 0:
            for f in SERVER_FORMULAS:
                _pair_checks(b, srv3, f)
        s = b.system(f"nfa{u}", _banded_system(b.rng, 12, ("a", "b", "c", "d"), 1.6, (24, 36)))
        _pair_checks(b, s, LARGE_FORMULAS[u % len(LARGE_FORMULAS)])
        if u == 19:
            b.w.set_trace_prefix(len(b.w.cases))
    return b.w


def _pair_checks(b: _WorkloadMaker, system: str, f: tuple) -> None:
    for kind in ("rl", "rs", "sat"):
        b.check(kind, system, f)
    b.synth_and_verify(system, f)


def _fresh(b: _WorkloadMaker, draw) -> tuple:
    """A formula not used before in the workload."""
    for _ in range(10_000):
        f = draw()
        if text(f) not in b.w.formulas:
            return f
    raise RuntimeError("the formula generator ran out of new formulas")


def _formula_with(rng: random.Random, names, depth: int, temporal: int) -> tuple:
    """A random formula with exactly this many temporal operators.

    The tableau grows exponentially with them; fixing the count keeps the
    cost of one translation within a narrow band from seed to seed.
    """
    while True:
        cap = [temporal]
        try:
            f = random_formula(rng, names, depth, cap)
        except _TooManyTemporal:
            continue
        if cap[0] == 0:
            return f


def _safe_formula(rng: random.Random, names, depth: int) -> tuple:
    """Syntactic safety: literals under and, or, X and G only."""
    if depth <= 0 or rng.random() < 0.25:
        a = atom(rng.choice(names))
        return ("not", a) if rng.random() < 0.4 else a
    op = rng.choice(["and", "or", "X", "G"])
    if op in ("X", "G"):
        return (op, _safe_formula(rng, names, depth - 1))
    return (op, _safe_formula(rng, names, depth - 1), _safe_formula(rng, names, depth - 1))


def _live_formula(rng: random.Random, names) -> tuple:
    """A conjunction of G F literals behind some X: satisfiable by every
    prefix, violated by some word, hence never a safety property."""
    parts = []
    for _ in range(rng.randint(1, 2)):
        a = atom(rng.choice(names))
        parts.append(("G", ("F", ("not", a) if rng.random() < 0.4 else a)))
    return nexts(rng.randint(0, 1), conj(parts))


# No sat in the stream: its lasso witness search has a heavy tail (a few
# draws per seed at 100-300 ms against a median near 5 ms), which moved the
# rate by 15-20% between seeds; sat runs on the fixtures instead.
STREAM_KINDS = ("rl", "rl", "safety-class", "eval", "rl", "eval", "safety-class", "rl")


def distinct_formulas(seed: int, stream: int = 4400) -> Workload:
    b = _WorkloadMaker("distinct-formulas", seed)
    abc, abcdef = ("a", "b", "c"), ("a", "b", "c", "d", "e", "f")

    def safety_class(f, letters, expected, **refs):
        fname = b.formula(f)
        b.case(["safety-class", "--formula", fname, "--alphabet", " ".join(letters)],
               formula=fname, safety=expected, **refs)

    gf = lambda k: [f"a{i}" for i in range(1, k + 1)]
    # the out-of-reach cases first, so that every run meets them
    safety_class(gf_conjunction(gf(5)), gf(5), False, out_of_reach=True)
    safety_class(nexts(16, atom("a")), ("a", "b"), True, out_of_reach=True)
    safety_class(gf_conjunction(gf(1)), ("a1", "z"), False)
    for k in range(2, 5):
        safety_class(gf_conjunction(gf(k)), gf(k), False)
    for k in range(2, 13):
        safety_class(nexts(k, atom("a")), ("a", "b"), True)

    # the fixtures, each formula once (fig3's README check is in large-systems)
    fig2_, fig3_ = b.system("fig2", fig2()), b.system("fig3", fig3())
    b.check("sat", fig2_, ("G", ("F", atom("result"))), small=True,
            expect={"holds": False, "witness": {"lasso": ";lock free"}})
    b.check("rl", fig3_, ("G", ("implies", atom("request"), ("F", atom("result")))), small=True)
    b.check("rl", fig2_, ("or", ("F", ("G", atom("lock"))), ("G", ("F", atom("reject")))), small=True)
    b.check("sat", fig3_, ("G", ("F", atom("free"))), small=True)

    # a prime count, so that each kind in the rotation visits every system
    smalls = [b.system(f"small{i}", random_system(b.rng, 4, abc, 1.6)) for i in range(199)]
    for i in range(stream):
        kind = STREAM_KINDS[i % len(STREAM_KINDS)]
        depth = 3 + (i // 8) % 2
        if kind in ("rl", "sat"):
            s = smalls[i % len(smalls)]
            letters = b.w.systems[s].alphabet
            f = _fresh(b, lambda: _formula_with(b.rng, letters, depth, 3))
            b.check(kind, s, f, small=True)
        elif kind == "safety-class":
            if (i // 8) % 8:
                safety_class(_fresh(b, lambda: _safe_formula(b.rng, abc, 3)), abc, True)
            else:
                safety_class(_fresh(b, lambda: _live_formula(b.rng, abcdef)), abcdef, False)
        else:
            f = _fresh(b, lambda: _formula_with(b.rng, abc, depth, 3))
            fname = b.formula(f)
            lasso = random_lasso(b.rng, abc)
            b.case(["eval", "--formula", fname, "--lasso", lasso], formula=fname, lasso=lasso)
        if i == 199:
            b.w.set_trace_prefix(len(b.w.cases))
    return b.w


PINNED_EVERY = 30  # units per pinned G eps / X case
PINNED = 6         # enough for 180 units


def _small_preserve_formula(rng: random.Random, mapping: dict[str, str]) -> tuple:
    """Extended normal form over the visible letters, at most two temporal
    operators: more next to eps can take minutes (the R rewrite)."""
    visible = sorted({v for v in mapping.values() if v != "eps"})
    while True:
        f = random_extended_formula(rng, visible, 2)
        if temporal_count(f) <= 2:
            return f


def _eps_next(f: tuple) -> bool:
    """G eps glued by and/or to a formula whose only temporal operator is X."""
    g_eps = ("G", atom("eps"))
    if f[0] not in ("and", "or") or g_eps not in f[1:]:
        return False
    base = f[2] if f[1] == g_eps else f[1]
    return temporal_count(base) == 1 and _has_next(base)


def _has_next(f: tuple) -> bool:
    return f[0] == "X" or any(_has_next(g) for g in f[1:] if isinstance(g, tuple))


def _small_preserve(b: _WorkloadMaker, system: str, f: tuple) -> None:
    fname = b.formula(f)
    b.case(["preserve", "--system", f"{system}.aut", "--hom", f"{system}.hom", "--formula", fname],
           system=system, hom=system, formula=fname, small=True)


def abstraction(seed: int, units: int = PINNED * PINNED_EVERY) -> Workload:
    b = _WorkloadMaker("abstraction", seed)
    hide = b.hom("hide", HIDE_HOM)
    gf_result = ("G", ("F", atom("result")))
    fig2_, fig3_ = b.system("fig2", fig2()), b.system("fig3", fig3())
    servers = {}
    for copies in (2, 3):
        srv = server(copies)
        hidden = {a for a in srv.alphabet if HIDE_HOM[a.rstrip("0123456789")] == "eps"}
        h = b.hom(f"server{copies}", {a: "eps" if a in hidden else a for a in srv.alphabet})
        servers[copies] = (b.system(f"server{copies}", srv), h)
    b.abstraction(*servers[3], ("G", ("F", atom("result1"))), small=False)
    abcd, abc = ("a", "b", "c", "d"), ("a", "b", "c")
    tiny = []
    for i in range(20):
        tiny.append(b.system(f"tiny{i}", random_system(b.rng, b.rng.randint(2, 4), abc, 1.6)))
        b.hom(f"tiny{i}", random_hom(b.rng, abc))
    # The slowest shape of the R rewrite, G eps glued to a formula whose one
    # temporal operator is X (up to 2 s on a 4-state system, against a median
    # near 17 ms for the other small cases), is drawn from a fixed pool, the
    # same for every seed, at a fixed rate: a few such draws per run were
    # most of the seed-to-seed spread of the rate.
    pin_rng = random.Random("abstraction:eps-next")
    pinned = []
    for i in range(PINNED):
        name = b.system(f"pinned{i}", random_system(pin_rng, pin_rng.randint(2, 4), abc, 1.6))
        mapping = random_hom(pin_rng, abc)
        b.hom(name, mapping)
        f = _small_preserve_formula(pin_rng, mapping)
        while not _eps_next(f):
            f = _small_preserve_formula(pin_rng, mapping)
        pinned.append((name, f))
    for u in range(units):
        # the fixtures and the 2-copy server every other unit: a fixed share
        # of every run is the same work on every seed
        if u % 2 == 0:
            b.abstraction(fig2_, hide, gf_result, small=True, expect={
                "preserve": {"wcc_closed": True, "concrete_holds": True},
                "wcc": {"closed": True},
            })
            b.abstraction(fig3_, hide, gf_result, small=True, expect={
                "preserve": {"wcc_closed": False},
                "wcc": {"closed": False, "word": ["lock"]},
            })
            b.abstraction(*servers[2], ("G", ("F", atom("result1"))), small=False)
        # the image determinization drives the cost of wcc and xtd; a pair
        # is drawn until both sizes fit, the cheaper test first
        while True:
            system = random_system(b.rng, 10, abcd, 1.6)
            mapping = random_hom(b.rng, abcd)
            if (2 <= subset_count(system, mapping, cap=5) <= 5
                    and 20 <= subset_count(system, cap=28) <= 28):
                break
        s = b.system(f"nfa{u}", system)
        h = b.hom(f"nfa{u}", mapping)
        visible = sorted({v for v in mapping.values() if v != "eps"})
        b.abstraction(s, h, ("G", ("F", atom(b.rng.choice(visible)))), small=True)
        # a small system with a seeded extended-normal-form formula
        t = tiny[u % len(tiny)]
        f = _small_preserve_formula(b.rng, b.w.homs[t])
        while _eps_next(f):
            f = _small_preserve_formula(b.rng, b.w.homs[t])
        _small_preserve(b, t, f)
        if u % PINNED_EVERY == 0:
            _small_preserve(b, *pinned[u // PINNED_EVERY])
        if u == 29:
            b.w.set_trace_prefix(len(b.w.cases))
    return b.w


WORKLOADS = {
    "large-systems": large_systems,
    "distinct-formulas": distinct_formulas,
    "abstraction": abstraction,
}
