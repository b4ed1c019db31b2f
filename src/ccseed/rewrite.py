"""Target-guided rewriting: seeds and convertibility.

Two axioms rewrite a process toward a target, working modulo the congruence:

  B1  delete one prefixed-term occurrence that is congruent to a replicated
      component of the target (the target can regenerate such copies);
  B2  drop one of two congruent replicated components (target-independent).

Both strictly decrease size, so every rewrite sequence terminates.  The seed
of a process is the smallest process it rewrites to when guided by that very
process; seeds are unique modulo the congruence, and two processes are
bisimilar exactly when their seeds are congruent.  ``compute_seed``
enumerates only the replicated parts a deletion descendant can have,
smallest first, and runs one guided exploration per guide table; every
state it reaches with that replicated part is verified.  ``convertible``
compares the seeds of both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .congruence import canonical_components, canonicalize, process_of
from .lts import bounded_class
from .syntax import (Path, PrefixedTerm, Process, delete_at, memo_table,
                     occurrences)

__all__ = [
    "RewriteStep", "SeedResult", "ConvertibilityResult", "UniquenessError",
    "step_b1", "step_b2", "rewrites_to", "compute_seed", "convertible",
]


class UniquenessError(AssertionError):
    """Two non-congruent minimal verified candidates: seed uniqueness broken."""


@dataclass(frozen=True)
class RewriteStep:
    """One axiom application; ``before`` and ``after`` are canonical."""

    axiom: str                              # "B1" or "B2"
    before: Process
    after: Process
    path: Optional[Path] = None             # B1: the deleted occurrence
    matched: Optional[PrefixedTerm] = None  # B1: justifying replicated component
    dropped: Optional[PrefixedTerm] = None  # B2: the dropped replicated component

    def __post_init__(self):
        if self.axiom not in ("B1", "B2"):
            raise ValueError(f"unknown axiom {self.axiom!r}")
        if not self.after.size < self.before.size:
            raise ValueError("rewrite steps must strictly decrease size")


def _b1_match_table(target: Process) -> dict:
    """Canonical occurrence -> justifying replicated component of target.

    A replicated component whose canonical form dissolves into several
    parallel copies can never match a single occurrence of a canonical
    process, so only single-component ones enter the table.
    """
    table = {}
    for t in canonicalize(target).replicated:
        comps = canonical_components(t)
        if len(comps) == 1:
            table.setdefault(comps[0], t)
    return table


def _b1_deletions(state: Process, table: Optional[dict]):
    """Every B1 deletion from a canonical state.

    Yields ("B1", after, path, justification) with ``after`` canonical, the
    deleted occurrence's path and the replicated component of the target
    that justifies it.  ``table`` is a ``_b1_match_table``; ``None``
    deletes every occurrence unguided.
    """
    if table is None:
        for path, _occ in occurrences(state):
            yield "B1", canonicalize(delete_at(state, path)), path, None
    elif table:
        for path, occ in occurrences(state):
            just = table.get(occ)
            if just is not None:
                yield "B1", canonicalize(delete_at(state, path)), path, just


def _b2_deletions(state: Process):
    """Every B2 deletion: ("B2", after, None, dropped component)."""
    reps = state.replicated
    for i, t in enumerate(reps):
        if (not i or t != reps[i - 1]) and reps.count(t) >= 2:
            remaining = list(reps)
            remaining.remove(t)
            yield "B2", canonicalize(Process(remaining, state.finite)), None, t


def _deletions(state: Process, table: Optional[dict]):
    """Every B1, then every B2 deletion from a canonical state."""
    yield from _b1_deletions(state, table)
    yield from _b2_deletions(state)


def _step(before: Process, axiom: str, after: Process, path,
          just) -> RewriteStep:
    if axiom == "B1":
        return RewriteStep("B1", before, after, path=path, matched=just)
    return RewriteStep("B2", before, after, dropped=just)


def step_b1(p: Process, target: Process) -> tuple:
    """All single B1 steps from p guided by target."""
    before = canonicalize(p)
    table = _b1_match_table(target)
    return tuple(_step(before, *d) for d in _b1_deletions(before, table))


def step_b2(p: Process) -> tuple:
    """All single B2 steps from p (one per duplicated replicated component)."""
    before = canonicalize(p)
    return tuple(_step(before, *d) for d in _b2_deletions(before))


# Audit trail for termination checks: one (start size, states visited)
# entry per guided exploration; empty it with search_audit.clear().
search_audit: list = []


def _explore(start: Process, table: Optional[dict], floor: int = 0) -> dict:
    """Breadth-first closure of a canonical state under deletions.

    Maps every state of size at least ``floor`` that B1 (guided by the
    ``_b1_match_table`` ``table``, unguided when it is None) and B2 reach
    from ``start`` to its first-discovery ``(parent, axiom, path,
    justification)``; ``start`` maps to None.  Deletions only shrink a
    state, so states below a goal's size are never on its way and the
    goal's ancestry does not depend on the floor.
    """
    parents = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for state in frontier:
            for axiom, after, path, just in _deletions(state, table):
                if after.size >= floor and after not in parents:
                    parents[after] = (state, axiom, path, just)
                    nxt.append(after)
        frontier = nxt
    if table is not None:
        search_audit.append((start.size, len(parents)))
    return parents


def _trace(parents: dict, goal: Process) -> Optional[tuple]:
    """The steps from an exploration's start to ``goal``, or None."""
    if goal not in parents:
        return None
    trace = []
    while parents[goal] is not None:
        prev, axiom, path, just = parents[goal]
        trace.append(_step(prev, axiom, goal, path, just))
        goal = prev
    return tuple(reversed(trace))


def rewrites_to(p: Process, target: Process) -> Optional[tuple]:
    """A guided rewrite trace from p to target, or None if unreachable."""
    goal = canonicalize(target)
    return _trace(_explore(canonicalize(p), _b1_match_table(goal),
                           goal.size), goal)


# ---------------------------------------------------------------------------
# Seeds

@dataclass(frozen=True)
class SeedResult:
    seed: Process
    trace: tuple  # from the canonical input to the seed

    @cached_property
    def candidates_checked(self) -> int:
        """Deletion descendants of the input, at most the seed's size, that
        pass the prefilter: the candidates an exhaustive search checks."""
        start = self.trace[0].before if self.trace else self.seed
        pcls = bounded_class(start, _PREFILTER_DEPTH)
        return sum(1 for c in _explore(start, None)
                   if c.size <= self.seed.size
                   and bounded_class(c, _PREFILTER_DEPTH) == pcls)


_SEED_CACHE = memo_table()

# A descendant whose behaviour already differs from p at this depth cannot
# be reached by guided rewriting (a successful rewrite implies
# bisimilarity).  Only ``candidates_checked`` applies it, to count the
# descendants an exhaustive search would check; every state the seed
# search verifies passes it.
_PREFILTER_DEPTH = 2


def compute_seed(p: Process) -> SeedResult:
    """The minimal process p rewrites to under its own guidance.

    A deletion descendant c verifies when the exploration guided by
    ``c.replicated`` reaches it.  Deletions never move terms between the
    replicated and the finite area, so the replicated parts to try are
    those of the descendants of p's replicated part alone, taken smallest
    first.  At the minimal verified size all verified states must agree
    (uniqueness), otherwise UniquenessError is raised.
    """
    start = canonicalize(p)
    cached = _SEED_CACHE.get(start)
    if cached is not None:
        return cached

    verified = []
    # One guided exploration per guide table; parts that differ only in
    # multiplicity share one.
    guided = {}
    # start's replicated part alone is canonical already.
    parts = _explore(Process(start.replicated), None)
    for part in sorted(parts, key=lambda r: r.size):
        if verified and part.size > verified[0][0].size:
            break  # p itself verifies, so some part does
        table = _b1_match_table(part)
        parents = guided.get(tuple(table))
        if parents is None:
            parents = guided[tuple(table)] = _explore(start, table)
        for state in parents:
            if state.replicated != part.replicated:
                continue
            if not verified or state.size < verified[0][0].size:
                verified = [(state, parents)]
            elif state.size == verified[0][0].size:
                verified.append((state, parents))
    if len(verified) > 1:
        raise UniquenessError(
            "distinct minimal seeds for "
            f"{start!r}: {[v[0] for v in verified]!r}")
    seed, parents = verified[0]
    result = SeedResult(seed, _trace(parents, seed))
    _SEED_CACHE[start] = result
    return result


@dataclass(frozen=True)
class ConvertibilityResult:
    left: SeedResult
    right: SeedResult

    @property
    def equivalent(self) -> bool:
        return self.left.seed == self.right.seed


def convertible(p: Process, q: Process) -> ConvertibilityResult:
    """Decide bisimilarity by comparing seeds.

    Both sides rewrite, guided by their own seeds; they are bisimilar
    exactly when the seeds coincide (they are canonical, so congruence is
    plain equality).
    """
    return ConvertibilityResult(compute_seed(process_of(p)),
                                compute_seed(process_of(q)))
