"""Labelled transitions for the replication fragment.

Rules: a prefix fires its action and exposes its body; parallel components
fire independently; a replicated prefix fires its action, persists, and
spawns one copy of its body into the finite part.  In sync mode two parallel
components with complementary actions (a and ~a) may additionally fire
together as a single tau step.

Destinations are returned in canonical form and deduplicated, so the
transition relation is finitely branching and stable under the congruence.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .congruence import canonicalize
from .syntax import (INPUT, OUTPUT, Action, PrefixedTerm,
                     Process)

__all__ = [
    "Label", "TAU", "Transition", "DepthExceeded", "DEFAULT_DEPTH_CAP",
    "transitions", "successors", "reduct_k", "reachable_within", "unfold",
]

DEFAULT_DEPTH_CAP = 12


class DepthExceeded(Exception):
    """A reachability or game request went beyond the configured cap."""


class Label:
    """A visible action or the silent label tau."""

    __slots__ = ("action", "_key")

    def __init__(self, action: Optional[Action]):
        self.action = action
        if action is None:
            self._key = (1, "", 0)
        else:
            self._key = (0, action.name, action.polarity)

    @property
    def key(self):
        return self._key

    def is_tau(self) -> bool:
        return self.action is None

    def __eq__(self, other):
        return isinstance(other, Label) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __lt__(self, other):
        return self._key < other._key

    def __repr__(self):
        return f"Label({self!s})"

    def __str__(self):
        return "tau" if self.action is None else str(self.action)


TAU = Label(None)


class Transition(NamedTuple):
    source: Process
    label: Label
    destination: Process


def _co_fires(a: Action, b: Action) -> bool:
    return (a.name == b.name
            and {a.polarity, b.polarity} == {INPUT, OUTPUT})


def _spawn(fin_components: tuple, drop: Iterable[int], add: Iterable[PrefixedTerm]):
    keep = [c for i, c in enumerate(fin_components) if i not in drop]
    keep.extend(add)
    return keep


_SUCC_CACHE: dict = {}


def successors(p: Process, mode: str = "base") -> tuple:
    """Deduplicated (label, canonical destination) pairs, sorted."""
    key = (p, mode)
    cached = _SUCC_CACHE.get(key)
    if cached is not None:
        return cached

    fin = p.finite.components
    reps = p.replicated
    seen = {}

    def add(label: Label, replicated, finite_comps):
        dest = canonicalize(Process(replicated, finite_comps))
        seen[(label.key, dest.key)] = (label, dest)

    for i, c in enumerate(fin):
        if i and c == fin[i - 1]:
            continue  # same firing as the previous copy
        add(Label(c.action), reps,
            _spawn(fin, (i,), c.body.components))
    fired_reps = set()
    for t in reps:
        if t in fired_reps:
            continue
        fired_reps.add(t)
        add(Label(t.action), reps, _spawn(fin, (), t.body.components))

    if mode == "sync":
        for i, c1 in enumerate(fin):
            for j in range(i + 1, len(fin)):
                c2 = fin[j]
                if _co_fires(c1.action, c2.action):
                    add(TAU, reps,
                        _spawn(fin, (i, j),
                               c1.body.components + c2.body.components))
            for t in reps:
                if _co_fires(c1.action, t.action):
                    add(TAU, reps,
                        _spawn(fin, (i,),
                               c1.body.components + t.body.components))
        for a in range(len(reps)):
            for b in range(a + 1, len(reps)):
                if _co_fires(reps[a].action, reps[b].action):
                    add(TAU, reps,
                        _spawn(fin, (),
                               reps[a].body.components + reps[b].body.components))
    elif mode != "base":
        raise ValueError(f"unknown mode {mode!r}")

    result = tuple(seen[k] for k in sorted(seen))
    _SUCC_CACHE[key] = result
    return result


def transitions(p: Process, mode: str = "base") -> tuple:
    """All transitions of p, destinations canonical, deterministic order."""
    return tuple(Transition(p, label, dest)
                 for label, dest in successors(p, mode))


def reduct_k(p: Process, q: Process, k: int) -> bool:
    """True iff some k-step sequence from p ends congruent to q.

    Steps use the fragment rules without synchronisation, whatever the
    polarity of the actions involved.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    target = canonicalize(q)
    level = {canonicalize(p)}
    for _ in range(k):
        nxt = set()
        for x in level:
            for _label, dest in successors(x, "base"):
                nxt.add(dest)
        level = nxt
        if not level:
            return False
    return target in level


def unfold(p: Process, depth: int, mode: str = "base",
           cap: int = DEFAULT_DEPTH_CAP) -> tuple:
    """Breadth-first unfolding: (states, edges) within ``depth`` steps.

    ``states`` are canonical, in discovery order, p first; ``edges`` are the
    (source, label, destination) transitions out of every state reached in
    fewer than ``depth`` steps, grouped by source in that same order.
    """
    if depth > cap:
        raise DepthExceeded(f"depth {depth} exceeds cap {cap}")
    if depth < 0:
        raise ValueError("depth must be non-negative")
    start = canonicalize(p)
    states = [start]
    seen = {start}
    edges = []
    frontier = [start]
    for _ in range(depth):
        nxt = []
        for x in frontier:
            for label, dest in successors(x, mode):
                edges.append((x, label, dest))
                if dest not in seen:
                    seen.add(dest)
                    nxt.append(dest)
        if not nxt:
            break
        states.extend(nxt)
        frontier = nxt
    return states, edges


def reachable_within(p: Process, depth: int, mode: str = "base",
                     cap: int = DEFAULT_DEPTH_CAP) -> frozenset:
    """Canonical processes reachable in at most ``depth`` steps."""
    return frozenset(unfold(p, depth, mode, cap)[0])
