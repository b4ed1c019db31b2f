"""Corpus generation: exhaustive enumeration, random terms, contexts.

Everything here is deterministic given a random.Random instance, so any
counterexample a suite reports can be replayed from its seed.  Enumeration
is modulo the multiset representation (parallel composition is a sorted
tuple), i.e. one term per abelian-monoid class.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from .syntax import (INPUT, OUTPUT, Action, FiniteProcess,
                     PrefixedTerm, Process, edit_multiset, occurrences)

__all__ = [
    "default_actions", "enumerate_finite", "enumerate_processes",
    "random_finite", "random_process", "random_substitution",
    "Context", "multiset_slots", "insert_at", "random_context", "compose",
    "make_redundant",
]

_NAMES = "abcdefghijklmnopqrstuvwxyz"


def default_actions(count: int, mode: str = "base") -> List[Action]:
    """The first ``count`` plain actions, or ``count`` polarized actions.

    In sync mode actions come in co-pairs: count=2 gives a and ~a, count=4
    gives a, ~a, b, ~b, and so on.
    """
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
        comps.append(PrefixedTerm(rng.choice(actions),
                                  random_finite(rng, body_size, actions)))
        remaining -= 1 + body_size
    return FiniteProcess(comps)


def random_process(rng: random.Random, size: int, actions: Sequence[Action],
                   replication: bool = True) -> Process:
    if not replication or size == 0:
        return Process((), random_finite(rng, size, actions))
    rep_total = rng.randint(0, size)
    reps = []
    remaining = rep_total
    while remaining:
        chunk = rng.randint(1, remaining)
        body_size = rng.randint(0, chunk - 1)
        reps.append(PrefixedTerm(rng.choice(actions),
                                 random_finite(rng, body_size, actions)))
        remaining -= 1 + body_size
    return Process(reps, random_finite(rng, size - rep_total, actions))


def random_substitution(rng: random.Random, names: Sequence[str],
                        injective_only: bool = False) -> dict:
    """A renaming of the given names; non-injective collapses allowed."""
    if injective_only:
        targets = list(names)
        rng.shuffle(targets)
    else:
        targets = [rng.choice(names) for _ in names]
    return dict(zip(names, targets))


# ---------------------------------------------------------------------------
# Contexts: a process with one designated multiset slot


@dataclass(frozen=True)
class Context:
    """``base`` plus a slot where extra parallel components can be inserted.

    The slot addresses the top-level finite part (area "finite", empty
    steps), or the body of the occurrence reached by descending through
    component indices; replicated-area slots descend into the body of the
    indexed replicated component.
    """

    base: Process
    area: str
    rep_index: Optional[int]
    steps: tuple

    def plug(self, terms: Iterable[PrefixedTerm]) -> Process:
        return insert_at(self.base, (self.area, self.rep_index, self.steps),
                         tuple(terms))

    def is_finite(self) -> bool:
        return self.base.is_finite() and self.area == "finite"


def insert_at(p: Process, slot: tuple, terms: tuple) -> Process:
    """p with ``terms`` added to the multiset ``slot`` addresses."""
    return edit_multiset(p, *slot, lambda comps: comps.extend(terms))


def multiset_slots(p: Process, finite_area_only: bool = False) -> List[tuple]:
    """All insertion slots of p: top finite part and every prefix body."""
    slots = [("finite", None, ())]
    if not finite_area_only:
        for r in range(len(p.replicated)):
            slots.append(("replicated", r, ()))
    for path, _occ in occurrences(p):
        if finite_area_only and path.area != "finite":
            continue
        slots.append((path.area, path.rep_index, path.steps))
    return slots


def random_context(rng: random.Random, size: int, actions: Sequence[Action],
                   finite_only: bool = False) -> Context:
    base = (Process((), random_finite(rng, size, actions)) if finite_only
            else random_process(rng, size, actions))
    slot = rng.choice(multiset_slots(base, finite_area_only=finite_only))
    return Context(base, slot[0], slot[1], slot[2])


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
            slot = rng.choice(multiset_slots(q))
            q = insert_at(q, slot, (t,))
        elif choice == 1 and q.replicated:
            t = rng.choice(q.replicated)
            q = Process(q.replicated + (t,), q.finite)
        else:
            folds = []
            for slot in multiset_slots(q):
                fp = _multiset_at(q, slot)
                comps = fp.components
                for i in range(len(comps) - 1):
                    if comps[i] == comps[i + 1]:
                        folds.append((slot, comps[i]))
                        break
            if not folds:
                continue
            slot, c = rng.choice(folds)

            def fold(comps: list):
                comps.remove(c)
                comps.remove(c)
                comps.append(PrefixedTerm(
                    c.action, FiniteProcess(c.body.components + (c,))))

            q = edit_multiset(q, *slot, fold)
    return q


def _multiset_at(p: Process, slot: tuple) -> FiniteProcess:
    area, rep_index, steps = slot
    fp = p.finite if area == "finite" else p.replicated[rep_index].body
    for i in steps:
        fp = fp.components[i].body
    return fp
