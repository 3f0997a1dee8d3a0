import os
import random
from collections import Counter

import pytest

from faircheck import abstraction, automata

DEFAULT_SEED = 20260816


def seed() -> int:
    return int(os.environ.get("FAIRCHECK_SEED", str(DEFAULT_SEED)))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(seed())


@pytest.fixture
def subset_runs(monkeypatch):
    """The (automaton, start masks) of each subset construction, in call order."""
    runs = []
    real = automata._subsets

    def counted(a, starts, keep_mask):
        runs.append((a, list(starts)))
        return real(a, starts, keep_mask)

    monkeypatch.setattr(automata, "_subsets", counted)
    monkeypatch.setattr(abstraction, "_subsets", counted)
    return runs


@pytest.fixture
def minimal_dfa_runs(monkeypatch):
    """The input of each ``_minimal_dfa`` call, in call order: one per canonicalization."""
    runs = []
    real = automata._minimal_dfa

    def counted(a):
        runs.append(a)
        return real(a)

    monkeypatch.setattr(automata, "_minimal_dfa", counted)
    return runs


@pytest.fixture
def product_rows(monkeypatch):
    """Per (p, q, phase) triple, how many times a product computed its row."""
    rows = Counter()
    real = automata._Product.row

    def counted(g, i):
        rows[g.order[i]] += 1
        return real(g, i)

    monkeypatch.setattr(automata._Product, "row", counted)
    return rows
