"""Target-guided rewriting: seeds and convertibility.

Two axioms rewrite a process toward a target, working modulo the congruence:

  B1  delete one prefixed-term occurrence that is congruent to a replicated
      component of the target (the target can regenerate such copies);
  B2  drop one of two congruent replicated components (target-independent).

Both strictly decrease size, so every rewrite sequence terminates.  The seed
of a process is the smallest process it rewrites to when guided by that very
process; seeds are unique modulo the congruence, and two processes are
bisimilar exactly when their seeds are congruent.  ``compute_seed``
enumerates deletion descendants smallest-first and verifies each candidate
by a guided search; ``convertible`` compares the seeds of both sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .congruence import canonical_components, canonicalize, process_of
from .lts import successors
from .syntax import (Path, PrefixedTerm, Process, delete_at,
                     occurrences)

__all__ = [
    "RewriteStep", "SeedResult", "ConvertibilityResult", "UniquenessError",
    "step_b1", "step_b2", "rewrites_to", "compute_seed", "convertible",
    "seed_of", "clear_seed_cache",
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


def _deletions(state: Process, table: Optional[dict]):
    """Every B1, then every B2 deletion from a canonical state.

    Yields (axiom, after, path, justification) with ``after`` canonical:
    for B1 the deleted occurrence's path and the replicated component of
    the target that justifies it, for B2 no path and the dropped component.
    ``table`` is a ``_b1_match_table``; ``None`` deletes every occurrence
    unguided.
    """
    if table is None:
        for path, _occ in occurrences(state):
            yield "B1", canonicalize(delete_at(state, path)), path, None
    elif table:
        for path, occ in occurrences(state):
            just = table.get(occ)
            if just is not None:
                yield "B1", canonicalize(delete_at(state, path)), path, just
    reps = state.replicated
    for i, t in enumerate(reps):
        if (not i or t != reps[i - 1]) and reps.count(t) >= 2:
            remaining = list(reps)
            remaining.remove(t)
            yield "B2", canonicalize(Process(remaining, state.finite)), None, t


def _step(before: Process, axiom: str, after: Process, path,
          just) -> RewriteStep:
    if axiom == "B1":
        return RewriteStep("B1", before, after, path=path, matched=just)
    return RewriteStep("B2", before, after, dropped=just)


def step_b1(p: Process, target: Process) -> tuple:
    """All single B1 steps from p guided by target."""
    before = canonicalize(p)
    table = _b1_match_table(target)
    return tuple(_step(before, *d) for d in _deletions(before, table)
                 if d[0] == "B1")


def step_b2(p: Process) -> tuple:
    """All single B2 steps from p (one per duplicated replicated component)."""
    before = canonicalize(p)
    return tuple(_step(before, *d) for d in _deletions(before, {}))


# Audit trail for termination checks: one (start size, states visited)
# entry per guided search.  Cleared by clear_search_audit().
search_audit: list = []


def _guided_search(p: Process, target: Process):
    """(trace to target or None, number of states visited)."""
    start = canonicalize(p)
    goal = canonicalize(target)
    if start == goal:
        search_audit.append((start.size, 1))
        return (), 1
    table = _b1_match_table(goal)
    parents = {start: None}
    frontier = [start]
    visited = 1
    try:
        while frontier:
            nxt = []
            for state in frontier:
                # Expanded in full before the goal test, so perfbench's traced
                # counts stay comparable; stopping early is a separate change.
                for axiom, after, path, just in tuple(
                        _deletions(state, table)):
                    if after in parents or after.size < goal.size:
                        continue
                    parents[after] = (state, axiom, path, just)
                    visited += 1
                    if after == goal:
                        trace = []
                        while parents[after] is not None:
                            prev, axiom, path, just = parents[after]
                            trace.append(_step(prev, axiom, after, path, just))
                            after = prev
                        return tuple(reversed(trace)), visited
                    nxt.append(after)
            frontier = nxt
        return None, visited
    finally:
        search_audit.append((start.size, visited))


def clear_search_audit() -> None:
    search_audit.clear()


def rewrites_to(p: Process, target: Process) -> Optional[tuple]:
    """A guided rewrite trace from p to target, or None if unreachable."""
    trace, _ = _guided_search(p, target)
    return trace


# ---------------------------------------------------------------------------
# Seeds

_SIG_CACHE: dict = {}


def _shallow_sig(p: Process, depth: int):
    """Depth-bounded transition signature, used to prune seed candidates.

    A candidate whose behaviour already differs from p at depth 2 cannot be
    reached by guided rewriting (a successful rewrite implies bisimilarity),
    so it is skipped without running the search.
    """
    if depth == 0:
        return 0
    key = (p, depth)
    cached = _SIG_CACHE.get(key)
    if cached is None:
        cached = frozenset((label.key, _shallow_sig(dest, depth - 1))
                           for label, dest in successors(p, "base"))
        _SIG_CACHE[key] = cached
    return cached


def _deletion_descendants(p: Process) -> dict:
    """All canonical processes reachable by unguided deletions, keyed by key."""
    start = canonicalize(p)
    out = {start.key: start}
    frontier = [start]
    while frontier:
        nxt = []
        for state in frontier:
            for _axiom, r, _path, _just in _deletions(state, None):
                if r.key not in out:
                    out[r.key] = r
                    nxt.append(r)
        frontier = nxt
    return out


@dataclass(frozen=True)
class SeedResult:
    seed: Process
    trace: tuple
    candidates_checked: int = field(compare=False, default=0)


_SEED_CACHE: dict = {}
_PREFILTER_DEPTH = 2


def compute_seed(p: Process, order: str = "asc") -> SeedResult:
    """The minimal process p rewrites to under its own guidance.

    Candidates are the deletion descendants of p, tested smallest size
    first; at the minimal verified size all verified candidates must agree
    (uniqueness), otherwise UniquenessError is raised.  ``order`` picks the
    enumeration order inside each size class ("asc" or "desc"); the result
    must not depend on it.
    """
    if order not in ("asc", "desc"):
        raise ValueError(f"unknown order {order!r}")
    start = canonicalize(p)
    cache_key = (start.key, order)
    cached = _SEED_CACHE.get(cache_key)
    if cached is not None:
        return cached

    candidates = sorted(_deletion_descendants(start).values(),
                        key=lambda c: (c.size, c.key),
                        reverse=(order == "desc"))
    if order == "desc":
        # still smallest size first, only the within-size order flips
        candidates.sort(key=lambda c: c.size)

    psig = _shallow_sig(start, _PREFILTER_DEPTH)
    checked = 0
    by_size = {}
    for c in candidates:
        by_size.setdefault(c.size, []).append(c)
    result = None
    for sz in sorted(by_size):
        verified = []
        for cand in by_size[sz]:
            if _shallow_sig(cand, _PREFILTER_DEPTH) != psig:
                continue
            checked += 1
            trace, _ = _guided_search(start, cand)
            if trace is not None:
                verified.append((cand, trace))
        if verified:
            if len(verified) > 1:
                raise UniquenessError(
                    "distinct minimal seeds for "
                    f"{start!r}: {[v[0] for v in verified]!r}")
            cand, trace = verified[0]
            result = SeedResult(cand, trace, checked)
            break
    if result is None:  # unreachable: p itself always verifies
        result = SeedResult(start, (), checked)
    _SEED_CACHE[cache_key] = result
    return result


def seed_of(p: Process) -> Process:
    return compute_seed(p).seed


def clear_seed_cache() -> None:
    _SEED_CACHE.clear()
    _SIG_CACHE.clear()


@dataclass(frozen=True)
class ConvertibilityResult:
    equivalent: bool
    witness: Optional[Process]        # the common seed when equivalent
    seed_p: Process
    seed_q: Process
    trace_p: tuple
    trace_q: tuple


def convertible(p: Process, q: Process) -> ConvertibilityResult:
    """Decide bisimilarity by comparing seeds.

    Both sides rewrite, guided by their own seeds; they are bisimilar
    exactly when the seeds coincide (they are canonical, so congruence is
    plain equality).
    """
    rp = compute_seed(process_of(p))
    rq = compute_seed(process_of(q))
    eqv = rp.seed == rq.seed
    return ConvertibilityResult(eqv, rp.seed if eqv else None,
                                rp.seed, rq.seed, rp.trace, rq.trace)
