"""Judges every check's output against references that avoid the code under test.

Runs after the timed phase and is never timed.  The references are:

* the README's hand-written answers on the fixtures;
* this module's own lasso semantics for formulas (``holds_on``), own system
  membership for words and lassos, and own determinization for languages;
* the brute-force deciders of ``tests/oracles.py`` (``brute_rl``,
  ``brute_wcc``, ``buchi_accepts_lasso``) on the small inputs; ``brute_rl``
  takes its property automaton from the translator, so small ``rl`` verdicts
  are also judged by a bounded search of system lassos with ``holds_on``;
* consistency across checks: ``sat`` holds exactly when ``rl`` and ``rs``
  both hold, ``synthesize`` succeeds exactly when ``rl`` holds, and every
  synthesized implementation passes ``verify-impl``;
* the documented downward transfer of ``preserve``: a closed abstraction and
  an abstract verdict that holds imply a concrete verdict that holds.
"""

from __future__ import annotations

import importlib.util
import json
from dataclasses import dataclass
from pathlib import Path

import gen

ROOT = Path(__file__).resolve().parent.parent


def load_oracles():
    """The repository's independent oracles, loaded by path (no faircheck import)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_oracles", ROOT / "tests" / "oracles.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# formula semantics on lassos


def holds_on(f: tuple, stem, cycle) -> bool:
    """Truth of a generated formula on stem.cycle^omega, one letter per step."""
    word = list(stem) + list(cycle)
    n = len(word)
    nxt = list(range(1, n)) + [len(stem)]
    memo: dict[int, list[bool]] = {}

    def fix(step, start):
        v = [start] * n
        while True:
            new = [step(i, v) for i in range(n)]
            if new == v:
                return v
            v = new

    def val(g):
        key = id(g)
        if key in memo:
            return memo[key]
        op = g[0]
        if op == "true":
            v = [True] * n
        elif op == "atom":
            v = [w == g[1] for w in word]
        elif op == "not":
            v = [not b for b in val(g[1])]
        elif op in ("X", "F", "G"):
            s = val(g[1])
            if op == "X":
                v = [s[nxt[i]] for i in range(n)]
            elif op == "F":
                v = fix(lambda i, cur: s[i] or cur[nxt[i]], False)
            else:
                v = fix(lambda i, cur: s[i] and cur[nxt[i]], True)
        else:
            l, r = val(g[1]), val(g[2])
            if op == "and":
                v = [a and b for a, b in zip(l, r)]
            elif op == "or":
                v = [a or b for a, b in zip(l, r)]
            elif op == "implies":
                v = [(not a) or b for a, b in zip(l, r)]
            elif op == "iff":
                v = [a == b for a, b in zip(l, r)]
            elif op == "U":
                v = fix(lambda i, cur: r[i] or (l[i] and cur[nxt[i]]), False)
            elif op == "B":
                # no right-position ahead, or a left-position strictly before the first
                v = fix(lambda i, cur: (not r[i]) and (l[i] or cur[nxt[i]]), True)
            else:
                raise ValueError(f"unknown operator {op!r}")
        memo[key] = v
        return v

    return val(f)[0]


# ---------------------------------------------------------------------------
# systems (prefix-closed NFAs, every state accepting)


def _succ(transitions):
    out: dict[tuple[int, str], set[int]] = {}
    for p, a, q in transitions:
        out.setdefault((p, a), set()).add(q)
    return out


def _step(succ, states, letter):
    return frozenset(q for p in states for q in succ.get((p, letter), ()))


def is_prefix(system: gen.System, word) -> bool:
    succ = _succ(system.transitions)
    cur = frozenset({0})
    for letter in word:
        cur = _step(succ, cur, letter)
        if not cur:
            return False
    return True


def in_behavior(system: gen.System, stem, cycle) -> bool:
    """Is stem.cycle^omega a computation, i.e. are all of its prefixes words?"""
    succ = _succ(system.transitions)
    cur = frozenset({0})
    for letter in stem:
        cur = _step(succ, cur, letter)
    seen = set()
    while cur and cur not in seen:
        seen.add(cur)
        for letter in cycle:
            cur = _step(succ, cur, letter)
    return bool(cur)


def system_lassos(system: gen.System, extra: int, word=()):
    """Every lasso (stem, cycle) of the system whose word starts with ``word``
    and whose stem and cycle together are at most ``extra`` letters longer."""
    succ = _succ(system.transitions)
    path = [frozenset({0})]  # path[k]: the states after the first k letters
    for letter in word:
        path.append(_step(succ, path[-1], letter))
    if not path[-1]:
        return
    frontier = [(tuple(word), path)]
    for _ in range(extra + 1):
        grown = []
        for v, states in frontier:
            for split in range(len(v)):
                cur, seen = states[split], set()
                while cur and cur not in seen:
                    seen.add(cur)
                    for letter in v[split:]:
                        cur = _step(succ, cur, letter)
                if cur:
                    yield v[:split], v[split:]
            for a in system.alphabet:
                if nxt := _step(succ, states[-1], a):
                    grown.append((v + (a,), states + [nxt]))
        frontier = grown


@dataclass
class Aut:
    """An `.aut` file as printed by the program, read without its parser."""

    alphabet: tuple[str, ...]
    buchi: bool
    n_states: int
    initial: frozenset[int]
    accepting: frozenset[int]
    transitions: frozenset[tuple[int, str, int]]


def parse_aut(text: str) -> Aut:
    fields: dict[str, list[str]] = {}
    trans = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("# "):
            continue
        key, _, rest = line.partition(":")
        if key == "trans":
            trans.append(rest.split())
        else:
            fields[key] = rest.split()
    names = fields["states"]
    index = {s: i for i, s in enumerate(names)}
    accepting = fields.get("accepting")
    return Aut(
        alphabet=tuple(fields["alphabet"]),
        buchi=fields.get("acceptance") == ["buchi"],
        n_states=len(names),
        initial=frozenset(index[s] for s in fields.get("initial", [])),
        accepting=frozenset(range(len(names)))
        if accepting is None
        else frozenset(index[s] for s in accepting),
        transitions=frozenset((index[p], a, index[q]) for p, a, q in trans),
    )


def same_language(a_init, a_trans, a_acc, b_init, b_trans, b_acc, letters) -> bool:
    """Finite-word language equality by a joint subset construction."""
    sa, sb = _succ(a_trans), _succ(b_trans)
    start = (frozenset(a_init), frozenset(b_init))
    seen = {start}
    stack = [start]
    while stack:
        x, y = stack.pop()
        if bool(x & a_acc) != bool(y & b_acc):
            return False
        for letter in letters:
            nxt = (_step(sa, x, letter), _step(sb, y, letter))
            if nxt not in seen and (nxt[0] or nxt[1]):
                seen.add(nxt)
                stack.append(nxt)
    return True


# ---------------------------------------------------------------------------
# duck-typed views for tests/oracles.py


class _Alphabet:
    def __init__(self, symbols):
        self.symbols = tuple(sorted(symbols))

    def __iter__(self):
        return iter(self.symbols)


class OracleAutomaton:
    def __init__(self, alphabet, n_states, initial, accepting, transitions):
        self.alphabet = _Alphabet(alphabet)
        self.n_states = n_states
        self.initial = frozenset(initial)
        self.accepting = frozenset(accepting)
        self.transitions = frozenset(transitions)

    @classmethod
    def of_system(cls, s: gen.System):
        # the behavior of a prefix-closed NFA: same graph, every state accepting
        return cls(s.alphabet, s.n_states, {0}, range(s.n_states), s.transitions)


class OracleHom:
    def __init__(self, mapping: dict[str, str]):
        self.mapping = mapping
        self.target = _Alphabet({v for v in mapping.values() if v != "eps"})

    def image(self, letter):
        return self.mapping[letter]


# ---------------------------------------------------------------------------
# judging outputs


# letters beyond a prefix in the bounded lasso searches of the rl checks: all
# lassos within the bound for a failing verdict, the first satisfying one for
# a holding verdict (which is cheap, so its bound is longer)
REFUTE_LETTERS = 4
CONFIRM_LETTERS = 6


class Wrong(Exception):
    """A check returned an answer the references reject."""


def _report(out: str) -> dict:
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise Wrong(f"output is not a JSON report: {exc}") from None


def _lasso(text: str):
    stem, _, cycle = text.partition(";")
    return tuple(stem.split()), tuple(cycle.split())


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise Wrong(message)


class Verifier:
    """Judges the recorded results of one workload run."""

    def __init__(self, workload: gen.Workload, to_buchi_positive=None, oracles=None):
        self.w = workload
        self.oracles = oracles if oracles is not None else load_oracles()
        # positive Buchi automaton for (formula, alphabet), from the translator;
        # only brute_rl needs it, on the small inputs
        self.to_buchi_positive = to_buchi_positive
        self.unconfirmed: list[str] = []

    def judge(self, results: dict[int, tuple[int, str]]) -> list[str]:
        """One message per wrong result; ``results`` maps case index to (exit code, stdout)."""
        errors = []
        facts: dict[tuple, dict[str, bool]] = {}
        for i, (code, out) in sorted(results.items()):
            case = self.w.cases[i]
            try:
                got = self._one(case, code, out)
            except Wrong as exc:
                errors.append(f"case {i} {' '.join(case.argv)}: {exc}")
                continue
            if got and "pair" in case.refs:
                facts.setdefault(case.refs["pair"], {}).update(got)
        for pair, v in sorted(facts.items()):
            if {"rl", "rs", "sat"} <= v.keys() and v["sat"] != (v["rl"] and v["rs"]):
                errors.append(f"{pair}: sat={v['sat']} but rl={v['rl']} rs={v['rs']}")
            if {"rl", "synthesize"} <= v.keys() and v["synthesize"] != v["rl"]:
                errors.append(f"{pair}: synthesize succeeded={v['synthesize']} but rl={v['rl']}")
            if {"wcc", "preserve"} <= v.keys() and v["wcc"] != v["preserve"]:
                errors.append(f"{pair}: wcc closed={v['wcc']} but preserve says {v['preserve']}")
        return errors

    def _one(self, case: gen.Case, code: int, out: str) -> dict | None:
        """Raise Wrong, or return the verdicts the cross-checks need."""
        refs = case.refs
        cmd = case.argv[0]
        _expect(code in (0, 1), f"exit code {code}")
        system = self.w.systems.get(refs.get("system"))
        formula = self.w.formulas.get(refs.get("formula"))

        if cmd == "check":
            kind = case.argv[1]
            rep = _report(out)
            holds = rep["verdict"]["holds"]
            _expect(code == (0 if holds else 1), "exit code disagrees with verdict")
            witness = rep["verdict"]["witness"]
            if "expect" in refs:
                _expect(holds == refs["expect"]["holds"], f"fixture answer is {refs['expect']}")
                if "witness" in refs["expect"]:
                    _expect(witness == refs["expect"]["witness"], f"fixture witness is {refs['expect']}")
            if kind == "rl":
                if not holds:
                    _expect(is_prefix(system, witness["word"]), "rl witness is not a system prefix")
                if refs.get("small"):
                    _expect(holds == self._brute_rl(system, formula), "brute_rl disagrees")
                    self._rl_by_lassos(system, formula, holds, witness, " ".join(case.argv))
            elif not holds:
                stem, cycle = _lasso(witness["lasso"])
                _expect(in_behavior(system, stem, cycle), "lasso is not a system computation")
                _expect(not holds_on(formula, stem, cycle), "lasso satisfies the formula")
            elif kind == "sat" and refs.get("small"):
                for stem, cycle in system_lassos(system, 5):
                    _expect(holds_on(formula, stem, cycle), f"system lasso {stem};{cycle} violates")
                _expect(self._brute_rl(system, formula), "sat holds but brute_rl fails")
            return {kind: holds}

        if cmd == "safety-class":
            rep = _report(out)
            safe = rep["verdict"]["is_safety"]
            _expect(code == (0 if safe else 1), "exit code disagrees with verdict")
            _expect(safe == refs["safety"], f"formula is {'' if refs['safety'] else 'not '}safety")
            return None

        if cmd == "eval":
            rep = _report(out)
            stem, cycle = _lasso(refs["lasso"])
            _expect(rep["verdict"]["holds"] == holds_on(formula, stem, cycle), "wrong truth value")
            return None

        if cmd == "synthesize":
            if code == 1:
                return {"synthesize": False}
            _expect(parse_aut(out).buchi, "implementation is not a marked (buchi) automaton")
            return {"synthesize": True}

        if cmd == "verify-impl":
            rep = _report(out)
            _expect(rep["verdict"]["holds"] and code == 0, "synthesized implementation fails verify-impl")
            return None

        hom = self.w.homs[refs["hom"]]
        if cmd == "wcc":
            rep = _report(out)
            closed = rep["verdict"]["closed"]
            _expect(code == (0 if closed else 1), "exit code disagrees with verdict")
            for v in rep["verdict"]["violations"]:
                _expect(is_prefix(system, v["word"]), "violation word is not a system prefix")
            if "expect" in refs:
                _expect(closed == refs["expect"]["closed"], f"fixture answer is {refs['expect']}")
                word = refs["expect"].get("word")
                _expect(
                    word is None or any(v["word"] == word for v in rep["verdict"]["violations"]),
                    f"fixture violation {word} missing",
                )
            if refs.get("small"):
                _expect(closed == self._brute_wcc(system, hom), "brute_wcc disagrees")
            return {"wcc": closed}

        if cmd == "preserve":
            v = _report(out)["verdict"]
            if v["wcc_closed"] and v["abstract_holds"]:
                _expect(v["concrete_holds"], "closed and abstract holds, but concrete fails")
            if "expect" in refs:
                for key, want in refs["expect"].items():
                    _expect(v[key] == want, f"fixture answer {key}={want}")
            if refs.get("small"):
                _expect(v["wcc_closed"] == self._brute_wcc(system, hom), "brute_wcc disagrees")
            return {"preserve": v["wcc_closed"]}

        if cmd == "xtd":
            self._judge_xtd(system, hom, parse_aut(out))
            return None

        if cmd == "abstract":
            self._judge_abstract(system, hom, parse_aut(out))
            return None

        raise Wrong(f"no reference for command {cmd!r}")

    def _rl_by_lassos(self, system, formula, holds, witness, label) -> None:
        """The translator-free side of an rl verdict, by bounded lasso search.

        brute_rl judges against the translator's own automaton; this does not.
        A failing verdict is wrong if some computation through its witness
        satisfies the formula.  A holding verdict on a short prefix with no
        satisfying extension within the bound cannot be refuted that way; it
        is listed in ``unconfirmed`` for a closer look.
        """
        if not holds:
            for stem, cycle in system_lassos(system, REFUTE_LETTERS, witness["word"]):
                _expect(not holds_on(formula, stem, cycle),
                        f"rl witness extends to {' '.join(stem)};{' '.join(cycle)}, which satisfies")
            return
        for prefix in [()] + [(a,) for a in system.alphabet]:
            # a prefix with no computation through it asks for nothing
            through = satisfied = False
            for stem, cycle in system_lassos(system, CONFIRM_LETTERS, prefix):
                through = True
                if holds_on(formula, stem, cycle):
                    satisfied = True
                    break
            if through and not satisfied:
                self.unconfirmed.append(f"{label}: holds, but no lasso through "
                                        f"{' '.join(prefix) or 'the empty prefix'} satisfies within "
                                        f"{CONFIRM_LETTERS} letters")
                return

    def _brute_rl(self, system, formula) -> bool:
        positive = self.to_buchi_positive(gen.text(formula), system.alphabet)
        return self.oracles.brute_rl(OracleAutomaton.of_system(system), positive)

    def _brute_wcc(self, system, hom) -> bool:
        return self.oracles.brute_wcc(OracleAutomaton.of_system(system), OracleHom(hom))

    def _judge_xtd(self, system, hom, out: Aut) -> None:
        # the padded system: the system's own language plus '#' self-loops on
        # exactly the states whose whole future the abstraction erases
        _expect(sorted(out.alphabet) == sorted(system.alphabet + ("#",)), "alphabet is not source + #")
        plain = frozenset(t for t in out.transitions if t[1] != "#")
        pads = {p for p, a, q in out.transitions if a == "#"}
        _expect(all(p == q for p, a, q in out.transitions if a == "#"), "# edge is not a self-loop")
        _expect(
            same_language({0}, system.transitions, frozenset(range(system.n_states)),
                          out.initial, plain, out.accepting, system.alphabet),
            "language without # differs from the system's",
        )
        succ = _succ(plain)
        for q in range(out.n_states):
            if q not in out.accepting:
                continue
            seen, stack, hidden_only = {q}, [q], True
            while stack and hidden_only:
                p = stack.pop()
                for a in system.alphabet:
                    for r in succ.get((p, a), ()):
                        if hom[a] != "eps":
                            hidden_only = False
                        elif r not in seen:
                            seen.add(r)
                            stack.append(r)
            _expect((q in pads) == hidden_only, f"state {q}: # loop {'missing' if hidden_only else 'misplaced'}")

    def _judge_abstract(self, system, hom, out: Aut) -> None:
        # every system computation with infinitely many visible letters maps
        # into the printed image behavior
        _expect(out.buchi, "image behavior is not a buchi automaton")
        image = OracleAutomaton(out.alphabet, out.n_states, out.initial, out.accepting, out.transitions)
        for stem, cycle in system_lassos(system, 4):
            img_cycle = tuple(hom[a] for a in cycle if hom[a] != "eps")
            if not img_cycle:
                continue
            img_stem = tuple(hom[a] for a in stem if hom[a] != "eps")
            _expect(
                self.oracles.buchi_accepts_lasso(image, _LassoView(img_stem, img_cycle)),
                f"image of {stem};{cycle} is missing",
            )


@dataclass(frozen=True)
class _LassoView:
    stem: tuple
    cycle: tuple
