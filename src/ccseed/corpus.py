"""Corpus generation: exhaustive enumeration, random terms, contexts.

Everything here is deterministic given a random.Random instance, so any
counterexample a suite reports can be replayed from its seed.  Enumeration
is modulo the multiset representation (parallel composition is a sorted
tuple), i.e. one term per abelian-monoid class.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List, Sequence

from .syntax import (INPUT, NIL_FINITE, OUTPUT, Action, FiniteProcess, Path,
                     PrefixedTerm, Process, _occurrences, check_mode,
                     edit_multiset)

__all__ = [
    "default_actions", "enumerate_finite", "enumerate_processes",
    "random_finite", "random_process", "random_substitution",
    "Context", "multiset_slots", "random_slot", "insert_at", "random_context",
    "compose", "make_redundant",
]

_NAMES = "abcdefghijklmnopqrstuvwxyz"


def default_actions(count: int, mode: str = "base") -> List[Action]:
    """The first ``count`` plain actions, or ``count`` polarized actions.

    In sync mode actions come in co-pairs: count=2 gives a and ~a, count=4
    gives a, ~a, b, ~b, and so on.  A count outside 1..26 (base) or 1..52
    (sync) raises ValueError.
    """
    check_mode(mode)
    names = len(_NAMES) * (1 if mode == "base" else 2)
    if not 1 <= count <= names:
        raise ValueError(f"alphabet {count} outside 1..{names}")
    if mode == "base":
        return [Action(_NAMES[i]) for i in range(count)]
    acts = []
    for i in range((count + 1) // 2):
        acts.append(Action(_NAMES[i], INPUT))
        acts.append(Action(_NAMES[i], OUTPUT))
    return acts[:count]


# ---------------------------------------------------------------------------
# Exhaustive enumeration


def _combos_by_size(max_size: int, actions: Sequence[Action]):
    """combos[s] = all multisets (sorted tuples) of prefixed terms, size s."""
    combos = {0: [()]}
    items: List[PrefixedTerm] = []  # all prefixed terms so far, size ascending
    for s in range(1, max_size + 1):
        fresh = [PrefixedTerm(a, FiniteProcess(c))
                 for c in combos[s - 1] for a in actions]
        fresh.sort(key=lambda t: t.key)
        items.extend(fresh)

        def gen(remaining: int, start: int):
            if remaining == 0:
                yield ()
                return
            for idx in range(start, len(items)):
                t = items[idx]
                if t.size > remaining:
                    break  # items are size-ascending
                for rest in gen(remaining - t.size, idx):
                    yield (t,) + rest

        combos[s] = list(gen(s, 0))
    return combos


def enumerate_finite(max_size: int, actions: Sequence[Action]) -> List[FiniteProcess]:
    """Every finite process of size at most max_size, one per multiset."""
    combos = _combos_by_size(max_size, actions)
    return [FiniteProcess(c)
            for s in range(max_size + 1) for c in combos[s]]


def enumerate_processes(max_size: int, actions: Sequence[Action]) -> List[Process]:
    """Every process (replication permitted) of size at most max_size."""
    combos = _combos_by_size(max_size, actions)
    out = []
    for total in range(max_size + 1):
        for rep_total in range(total + 1):
            for rep in combos[rep_total]:
                for fin in combos[total - rep_total]:
                    out.append(Process(rep, FiniteProcess(fin)))
    return out


# ---------------------------------------------------------------------------
# Random terms (exact size)


def random_finite(rng: random.Random, size: int,
                  actions: Sequence[Action]) -> FiniteProcess:
    comps = []
    remaining = size
    while remaining:
        chunk = rng.randint(1, remaining)
        body_size = rng.randint(0, chunk - 1)
        act = rng.choice(actions)
        body = (random_finite(rng, body_size, actions) if body_size
                else NIL_FINITE)
        comps.append(PrefixedTerm(act, body))
        remaining -= 1 + body_size
    return FiniteProcess(comps)


def random_process(rng: random.Random, size: int, actions: Sequence[Action],
                   replication: bool = True) -> Process:
    if not replication or size == 0:
        return Process((), random_finite(rng, size, actions))
    rep_total = rng.randint(0, size)
    reps = random_finite(rng, rep_total, actions).components
    return Process(reps, random_finite(rng, size - rep_total, actions))


def random_substitution(rng: random.Random, names: Sequence[str]) -> dict:
    """A renaming of the given names; non-injective collapses allowed."""
    return dict(zip(names, [rng.choice(names) for _ in names]))


# ---------------------------------------------------------------------------
# Contexts: a process with one designated multiset slot


@dataclass(frozen=True)
class Context:
    """``base`` plus a slot where extra parallel components can be inserted.

    The slot is a Path naming a multiset: a top one, or the body of an
    occurrence.
    """

    base: Process
    slot: Path

    def plug(self, terms: Iterable[PrefixedTerm]) -> Process:
        return insert_at(self.base, self.slot, tuple(terms))


def insert_at(p: Process, slot: Path, terms: tuple) -> Process:
    """p with ``terms`` added to the multiset ``slot`` names."""
    return edit_multiset(p, slot, lambda comps: comps.extend(terms))


def _slots(p: Process) -> List[tuple]:
    """(rep_index, steps, multiset) for every insertion slot of p, in
    ``multiset_slots`` order: a ``Path``'s fields and the multiset it names."""
    slots = [(None, (), p.finite)]
    slots += [(r, (), t.body) for r, t in enumerate(p.replicated)]
    slots += [(r, steps, c.body) for r, steps, c in _occurrences(p)]
    return slots


def multiset_slots(p: Process) -> List[Path]:
    """All insertion slots of p, ``p.size + 1`` of them, in order: the
    finite part, each replicated component's body by index, then the body
    of every occurrence in ``occurrences`` order."""
    return [Path(rep_index, steps) for rep_index, steps, _ in _slots(p)]


def random_slot(rng: random.Random, p: Process) -> Path:
    """One of p's slots, drawn as ``rng.choice(multiset_slots(p))`` is."""
    rep_index, steps, _ = rng.choice(_slots(p))
    return Path(rep_index, steps)


def random_context(rng: random.Random, size: int, actions: Sequence[Action],
                   finite_only: bool = False) -> Context:
    base = (Process((), random_finite(rng, size, actions)) if finite_only
            else random_process(rng, size, actions))
    return Context(base, random_slot(rng, base))


def compose(p: Process, q: Process) -> Process:
    """Parallel composition of two processes (multiset union)."""
    return Process(p.replicated + q.replicated,
                   FiniteProcess(p.finite.components + q.finite.components))


# ---------------------------------------------------------------------------
# Redundancy: grow a process without changing its behaviour


def make_redundant(rng: random.Random, p: Process, ops: int = 2) -> Process:
    """Apply 1..ops random behaviour-preserving fattening steps to p.

    Steps: insert a copy of a replicated component's prefixed term at any
    slot (absorbable by that component), duplicate a replicated component,
    or fold two equal parallel copies a.F | a.F into a.(F | a.F).  The
    result is bisimilar to p by construction; suites treat a convertibility
    failure on such a pair as a counterexample.
    """
    q = p
    for _ in range(max(1, ops)):
        choice = rng.randrange(3)
        if choice == 0 and q.replicated:
            t = rng.choice(q.replicated)
            q = insert_at(q, random_slot(rng, q), (t,))
        elif choice == 1 and q.replicated:
            t = rng.choice(q.replicated)
            q = Process(q.replicated + (t,), q.finite)
        else:
            folds = []
            for rep_index, steps, fp in _slots(q):
                comps = fp.components
                for i in range(1, len(comps)):
                    if comps[i - 1] is comps[i]:
                        folds.append((rep_index, steps, comps[i]))
                        break
            if not folds:
                continue
            rep_index, steps, c = rng.choice(folds)

            def fold(comps: list):
                comps.remove(c)
                comps.remove(c)
                comps.append(PrefixedTerm(
                    c.action, FiniteProcess(c.body.components + (c,))))

            q = edit_multiset(q, Path(rep_index, steps), fold)
    return q
