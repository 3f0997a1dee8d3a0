"""Spans around the public functions of each faircheck module, from outside.

Installed only in the traced run: every public function of every faircheck
module is replaced, in every faircheck namespace that binds it, by a wrapper
that records a span (layer, function, start, end, parent) and a few counts.
Uninstalling puts the original function objects back.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "formats", "relprops", "abstraction", "synthesis", "pltl", "automata")

# Inclusive time per function (or group of functions), without double counting
# a function that re-enters itself.
TIMED = {
    "pltl": ("to_buchi", "transform", "evaluate_lasso"),
    "automata": (
        "canonicalize", "product", "prefix_automaton", "limit",
        "language_compare", "accepting_lasso",
    ),
    "abstraction": (
        "is_weakly_continuation_closed", "compute_xtd", "image_automaton", "preserve_check",
    ),
    "relprops": ("is_relative_liveness", "is_relative_safety", "satisfies", "is_safety_property"),
    "synthesis": ("synthesize_fair_impl", "verify_fair_impl"),
}
GROUPS = {"language_equal": "language_compare", "language_subset": "language_compare"}
MARK = "__perfbench_traced__"


def faircheck_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "faircheck" or name.startswith("faircheck."))]


def public_functions():
    """(layer, name, function) for every public function a faircheck module defines.

    An alias (a second public name for the same function) is listed under the
    function's own name.
    """
    out = []
    for module in faircheck_modules():
        layer = module.__name__.rpartition(".")[2]
        if layer not in LAYERS:
            continue
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == module.__name__ and name == obj.__name__):
                out.append((layer, name, obj))
    return out


def wrapped_count() -> int:
    """How many names in faircheck namespaces are bound to a tracing wrapper."""
    return sum(
        1 for module in faircheck_modules() for obj in vars(module).values()
        if getattr(obj, MARK, False)
    )


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent id, layer, name, start, end)
        self._open: list[list] = []   # [id, layer, name, start, child seconds]
        self._active: Counter = Counter()
        self.self_s: dict[str, float] = defaultdict(float)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._translated: set = set()
        self._saved: list[tuple] = []
        self._ids = itertools.count()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrappers = {id(fn): self._wrap(layer, name, fn) for layer, name, fn in public_functions()}
        for module in faircheck_modules():
            for attr, obj in list(vars(module).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, w)

    def uninstall(self) -> None:
        for module, attr, obj in self._saved:
            setattr(module, attr, obj)
        self._saved.clear()

    def _wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{GROUPS.get(name, name)}"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._open[-1][0] if tracer._open else None
            frame = [next(tracer._ids), layer, name, perf_counter(), 0.0]
            tracer._open.append(frame)
            tracer._active[key] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._open.pop()
                tracer._active[key] -= 1
                duration = end - frame[3]
                tracer.self_s[layer] += duration - frame[4]
                if tracer._open:
                    tracer._open[-1][4] += duration
                if not tracer._active[key]:
                    tracer.inclusive_s[key] += duration
                tracer.spans.append((frame[0], parent, layer, name, frame[3], end))
            tracer._observe(name, args, kwargs, result)
            return result

        setattr(traced, MARK, True)
        return traced

    # -- counts -------------------------------------------------------------

    def _observe(self, name, args, kwargs, result) -> None:
        c = self.counts
        if name == "to_buchi":
            f, alphabet = args[0], args[1]
            labeling = args[2] if len(args) > 2 else kwargs.get("labeling")
            if labeling is None:
                from faircheck.pltl import Labeling
                labeling = Labeling.canonical(alphabet)
            key = (f, alphabet, labeling)
            c["pltl.to_buchi.calls"] += 1
            c["pltl.to_buchi.repeats"] += key in self._translated
            self._translated.add(key)
            c["pltl.to_buchi.states_out"] += result[0].n_states + result[1].n_states
        elif name == "canonicalize":
            c["automata.canonicalize.calls"] += 1
            c["automata.canonicalize.states_in"] += args[0].n_states
            c["automata.canonicalize.states_out"] += result.n_states
            c["automata.canonicalize.noops"] += args[0] == result
        elif name == "product":
            c["automata.product.calls"] += 1
            c["automata.product.states_out"] += result.n_states
        elif name == "image_automaton":
            c["abstraction.image_automaton.calls"] += 1
            c["abstraction.image_automaton.states_out"] += result.n_states
        elif name == "accepting_lasso":
            c["automata.accepting_lasso.calls"] += 1

    # -- report -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        c = self.counts
        out: dict[str, float] = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        for layer, names in TIMED.items():
            for name in names:
                out[f"{layer}.{name}.s"] = self.inclusive_s[f"{layer}.{name}"]
        for key in (
            "pltl.to_buchi.calls", "pltl.to_buchi.states_out",
            "automata.canonicalize.calls", "automata.canonicalize.states_in",
            "automata.canonicalize.states_out", "automata.product.calls",
            "automata.product.states_out", "automata.accepting_lasso.calls",
            "abstraction.image_automaton.calls", "abstraction.image_automaton.states_out",
        ):
            out[key] = c[key]
        out["pltl.to_buchi.repeat_ratio"] = _ratio(c["pltl.to_buchi.repeats"], c["pltl.to_buchi.calls"])
        out["automata.canonicalize.noop_ratio"] = _ratio(
            c["automata.canonicalize.noops"], c["automata.canonicalize.calls"])
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
