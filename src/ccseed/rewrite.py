"""Target-guided rewriting: seeds and convertibility.

Two axioms rewrite a process toward a target, working modulo the congruence:

  B1  delete one prefixed-term occurrence that is congruent to a replicated
      component of the target (the target can regenerate such copies);
  B2  drop one of two congruent replicated components (target-independent).

Both strictly decrease size, so every rewrite sequence terminates.  The seed
of a process is the smallest process it rewrites to when guided by that very
process; seeds are unique modulo the congruence, and two processes are
bisimilar exactly when their seeds are congruent.  ``compute_seed``
first seeds the replicated part alone (stage 1), one component at a
time: B1 edits the body of one replicated component, which stays one
component, and B2 drops one of two equal components, so a guided
exploration of the part is a product of its components' explorations.
Each component's deletions form one graph, walked per guide.  Stage 1
lists each component's descendants with one walk under the widest guide
a seed can have (every term carrying a component's top action, which B1
never deletes), matches sets of them instead of exploring the part, and
returns the seed's replicated part as a set.  Stage 2 seeds
the finite part under that set's guide, one finite component at a time:
B1 edits one finite component and canonical forms are built per
component, so what the finite part reaches is the multiset sums of what
its components reach alone.  A component's reach is a set of processes,
not of components (``b.b.a.0`` less ``a.0`` is ``b.0 | b.0``), so stage
2 explores each distinct component instead of walking a graph.  No call
explores the whole process, an empty part explores nothing, and the
trace is found on first read.  Stage 1 rests on the seed theorem and the
cancellation law for replicated parts; this is argued and checked, not
proved.
``convertible`` compares seeds.

A target's guide is the set of its canonical replicated components that
stay one component: B1 deletes an occurrence exactly when it is in the
guide.  So a B1 step's justification, ``RewriteStep.matched``, is the
deleted occurrence itself, read off the step's path.

Deletions run on state ids, as firing does in ``lts``.  Each distinct
component has a memoized deletion table: its occurrences in preorder,
each with its steps and the component ids of what deleting it leaves,
canonical.  As a finite component the table starts with the component
itself, and a deletion leaves the canonical components of the rest; as a
replicated one it lists the body's occurrences, and a deletion leaves
``_with_body`` of the canonical body, one component.  A state's
deletions splice these tables into its parts (``congruence._PARTS_OF``)
and number each destination with ``parts_id``: no process is rebuilt
or canonicalized again, and they come out in ``occurrences`` order,
with its paths.  ``_explore`` walks ids and reads a state and the
deletion that discovered it back, through ``congruence.state``, only
when asked, so a trace reads back only its chain and the count of
candidates none; stage 1's deletion graph reads its edges off the
replicated tables.
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .congruence import (_COMPS, _PARTS_OF, _STATE_IDS,
                         _canonical_components, _with_body, canonical_id,
                         canonicalize, component_id, parts_id, process_of,
                         state)
from .lts import _class, bounded_class
from .syntax import (FiniteProcess, Path, PrefixedTerm, Process, memo_table,
                     resolve)

__all__ = [
    "RewriteStep", "SeedResult", "ConvertibilityResult", "UniquenessError",
    "step_b1", "step_b2", "rewrites_to", "compute_seed", "convertible",
]


class UniquenessError(AssertionError):
    """A seed stage found several minimal states: seed uniqueness broken."""


@dataclass(frozen=True)
class RewriteStep:
    """One axiom application; ``before`` and ``after`` are canonical."""

    axiom: str                              # "B1" or "B2"
    before: Process
    after: Process
    path: Optional[Path] = None             # B1: the deleted occurrence
    dropped: Optional[PrefixedTerm] = None  # B2: the dropped replicated component

    def __post_init__(self):
        if self.axiom not in ("B1", "B2"):
            raise ValueError(f"unknown axiom {self.axiom!r}")
        if not self.after.size < self.before.size:
            raise ValueError("rewrite steps must strictly decrease size")

    @property
    def matched(self) -> Optional[PrefixedTerm]:
        """B1: the justifying replicated component of the target.

        B1 deletes a.F because the target has !a.F, so the justification
        is the deleted occurrence itself, read off ``before`` at ``path``.
        """
        if self.axiom != "B1" or self.path is None:
            return None
        return resolve(self.before, self.path)


def _guide(target: Process) -> frozenset:
    """The B1 guide: the occurrences target's replication can regenerate.

    These are target's canonical replicated components.  One whose
    canonical form dissolves into several parallel copies can never equal
    a single occurrence of a canonical process, so only those that stay
    one component are kept.
    """
    return _guide_of(canonicalize(target).replicated)


def _guide_of(replicated) -> frozenset:
    """The guide of a process whose replicated components are these
    canonical terms, read off them without building the process."""
    return frozenset(t for t in replicated
                     if len(_canonical_components(t)) == 1)


# A component id's deletions, one entry per occurrence in preorder:
# (steps to it, the occurrence, what is left).  As a finite component it
# is deleted itself first, and what is left is the ids of the canonical
# components of the rest; as a replicated one only its body's
# occurrences are, and what is left is the id of ``_with_body`` of the
# canonical body.
_FINITE_DELETIONS = memo_table()
_REPLICATED_DELETIONS = memo_table()


def _body_deletions(t: PrefixedTerm) -> list:
    """(steps, occurrence, canonical body left) for every occurrence in
    t's body, in preorder, spliced from its components' finite tables."""
    comps = t.body.components
    out = []  # a loop, not a comprehension: two frames per nesting level
    for n, h in enumerate(comps):
        for steps, occ, left in _finite_deletions(component_id(h)):
            body = comps[:n] + tuple(map(_COMPS.__getitem__, left))
            out.append(((n,) + steps, occ,
                        FiniteProcess(body + comps[n + 1:])))
    return out


def _finite_deletions(k: int) -> tuple:
    """Component k's deletion table as a finite component."""
    got = _FINITE_DELETIONS.get(k)
    if got is None:
        t = _COMPS[k]
        got = _FINITE_DELETIONS[k] = (((), t, ()),) + tuple(
            (steps, occ, tuple(map(component_id, _canonical_components(
                PrefixedTerm(t.action, body)))))
            for steps, occ, body in _body_deletions(t))
    return got


def _replicated_deletions(k: int) -> tuple:
    """Component k's deletion table as a replicated component."""
    got = _REPLICATED_DELETIONS.get(k)
    if got is None:
        t = _COMPS[k]
        got = _REPLICATED_DELETIONS[k] = tuple(
            (steps, occ, component_id(_with_body(t, body)))
            for steps, occ, body in _body_deletions(t))
    return got


def _comp_key(k: int) -> tuple:
    return _COMPS[k].key


def _state_size(i: int) -> int:
    """The size of state i, read off its parts."""
    reps, fin = _PARTS_OF[i]
    return sum(_COMPS[k].size for k in reps + fin)


def _b1_deletions(i: int, guide: Optional[frozenset]):
    """Every B1 deletion from state i, in ``occurrences`` order.

    Yields (destination id, "B1", rep index or None, steps), a ``Path``'s
    fields.  Each component's table is spliced into i's parts and the
    destination numbered by ``parts_id``: nothing is built.  ``guide`` is
    a ``_guide``; ``None`` deletes every occurrence unguided.
    """
    if guide is not None and not guide:
        return  # an empty guide justifies nothing: walk no occurrence
    reps, fin = _PARTS_OF[i]
    spliced = {}  # finite component id -> its (destination, steps)
    for n, k in enumerate(sorted(fin, key=_comp_key)):
        dests = spliced.get(k)
        if dests is None:
            cut = fin.index(k)
            rest = fin[:cut] + fin[cut + 1:]
            dests = spliced[k] = [
                (parts_id(reps, tuple(sorted(rest + left))), steps)
                for steps, occ, left in _finite_deletions(k)
                if guide is None or occ in guide]
        for j, steps in dests:
            yield j, "B1", None, (n,) + steps
    for r, k in enumerate(reps):
        for steps, occ, d in _replicated_deletions(k):
            if guide is None or occ in guide:
                after = list(reps)
                after[r] = d
                after.sort(key=_comp_key)
                yield parts_id(tuple(after), fin), "B1", r, steps


def _b2_deletions(i: int):
    """Every B2 deletion from state i: (destination id, "B2", dropped
    component id, None), one per duplicated replicated component."""
    reps, fin = _PARTS_OF[i]
    for n, k in enumerate(reps):
        if (not n or k != reps[n - 1]) and reps.count(k) >= 2:
            yield parts_id(reps[:n] + reps[n + 1:], fin), "B2", k, None


def _deletions(i: int, guide: Optional[frozenset]):
    """Every B1, then every B2 deletion from state i."""
    yield from _b1_deletions(i, guide)
    yield from _b2_deletions(i)


def _step_fields(before: Process, deletion: tuple) -> tuple:
    """A deletion from ``before`` as ``RewriteStep`` fields, its
    destination read through ``state``."""
    j, axiom, where, steps = deletion
    if axiom == "B1":
        return ("B1", before, state(j), Path(where, steps), None)
    return ("B2", before, state(j), None, _COMPS[where])


def step_b1(p: Process, target: Process) -> tuple:
    """All single B1 steps from p guided by target."""
    i = canonical_id(p)
    return tuple(RewriteStep(*_step_fields(state(i), d))
                 for d in _b1_deletions(i, _guide(target)))


def step_b2(p: Process) -> tuple:
    """All single B2 steps from p (one per duplicated replicated component)."""
    i = canonical_id(p)
    return tuple(RewriteStep(*_step_fields(state(i), d))
                 for d in _b2_deletions(i))


# Audit trail for termination checks: one (start size, states visited)
# entry per guided exploration and per walk of a component's deletion
# graph; empty it with search_audit.clear().
search_audit: list = []


def _explore(start: Process, guide: Optional[frozenset]) -> "_Explored":
    """Breadth-first closure of a canonical state under deletions.

    Maps every state that B1 (guided by ``guide``, unguided when it is
    None) and B2 reach from ``start`` to the deletion that first
    discovered it, as ``RewriteStep`` fields; ``start`` maps to None.
    The walk runs on state ids; a state and its discovering deletion are
    read back as a process and a path only when asked for.
    """
    first = canonical_id(start)
    found = {first: None}  # state id -> (source id, discovering deletion)
    frontier = [first]
    while frontier:
        nxt = []
        for i in frontier:
            for deletion in _deletions(i, guide):
                j = deletion[0]
                if j not in found:
                    found[j] = (i, deletion)
                    nxt.append(j)
        frontier = nxt
    if guide is not None:
        search_audit.append((start.size, len(found)))
    return _Explored(found)


class _Explored(Mapping):
    """An exploration's map from states to discovering deletions, over
    the state ids it found; a state and its deletion are read back
    through ``state`` on demand, so a trace reads back only its chain.
    States iterate in discovery order, the (canonical) start first.

    It is valid only until the next ``clear_caches()``, which renumbers
    state ids: read what is needed from it before clearing.
    """

    def __init__(self, found: dict):
        self._found = found

    def __len__(self):
        return len(self._found)

    def __iter__(self):
        return map(state, self._found)

    def ids(self):
        """The state ids found, in discovery order, none read back."""
        return iter(self._found)

    def __contains__(self, p):
        i = _STATE_IDS.get(p)
        return i in self._found and state(i) is p

    def __getitem__(self, p):
        if p not in self:
            raise KeyError(p)
        how = self._found[_STATE_IDS[p]]
        return None if how is None else _step_fields(state(how[0]), how[1])


def _trace(parents: Mapping, goal: Process) -> Optional[tuple]:
    """The steps from an exploration's start to ``goal``, or None."""
    if goal not in parents:
        return None
    trace = []
    how = parents[goal]
    while how is not None:
        step = RewriteStep(*how)
        trace.append(step)
        how = parents[step.before]
    return tuple(reversed(trace))


def rewrites_to(p: Process, target: Process) -> Optional[tuple]:
    """A guided rewrite trace from p to target, or None if unreachable."""
    goal = canonicalize(target)
    return _trace(_explore(canonicalize(p), _guide(goal)), goal)


# ---------------------------------------------------------------------------
# Seeds

@dataclass(frozen=True)
class SeedResult:
    """A seed and the canonical input it was computed from.

    The trace is found on first read, by one exploration of the whole
    input guided by the seed; ``compute_seed`` itself never explores it.
    """

    seed: Process
    start: Process = field(compare=False)  # the canonical input

    @cached_property
    def trace(self) -> tuple:
        """The guided steps from ``start`` to the seed; none when they are
        equal, without exploring."""
        if self.seed == self.start:
            return ()
        return rewrites_to(self.start, self.seed)

    @cached_property
    def candidates_checked(self) -> int:
        """Deletion descendants of the input, at most the seed's size, that
        pass the prefilter: the candidates an exhaustive search checks."""
        pcls = bounded_class(self.start, _PREFILTER_DEPTH)
        return sum(1 for i in _explore(self.start, None).ids()
                   if _state_size(i) <= self.seed.size
                   and _class(i, _PREFILTER_DEPTH, "base") == pcls)


_SEED_CACHE = memo_table()
_DELETIONS = memo_table()
_REACH = memo_table()
_COMPONENT_SEEDS = memo_table()

# A descendant whose behaviour already differs from p at this depth cannot
# be reached by guided rewriting (a successful rewrite implies
# bisimilarity).  Only ``candidates_checked`` applies it, to count the
# descendants an exhaustive search would check; every state the seed
# search verifies passes it.
_PREFILTER_DEPTH = 2


def _component_deletions(d: PrefixedTerm) -> tuple:
    """The deletion graph's edges out of ``!d``, a canonical component.

    B1 edits the body of one replicated component, which stays one
    component, and B2 needs two; so every deletion from ``!d`` is a B1
    step to some ``!d'``.  The edges are the distinct pairs (deleted
    occurrence, d'), read off d's replicated deletion table: a guide
    keeps those whose occurrence it holds.  The graph of a component is
    what its edges reach.
    """
    edges = _DELETIONS.get(d)
    if edges is None:
        edges = _DELETIONS[d] = tuple(dict.fromkeys(
            (occ, _COMPS[k])
            for _, occ, k in _replicated_deletions(component_id(d))))
    return edges


def _reach(t: PrefixedTerm, guide: frozenset) -> frozenset:
    """The components d such that ``!t`` rewrites to ``!d`` under ``guide``.

    A walk of t's deletion graph over the edges whose occurrence is in
    ``guide``, or whose action is, for the widest guide: a set of
    actions standing for every term that carries one (equality is
    identity, so a term is never equal to an action).  It builds no
    terms beyond the graph, and each walk logs one ``search_audit``
    entry.
    """
    key = (t, guide)
    reached = _REACH.get(key)
    if reached is None:
        seen = {t}
        todo = [t]
        while todo:
            for occ, d in _component_deletions(todo.pop()):
                if d not in seen and (occ in guide or occ.action in guide):
                    seen.add(d)
                    todo.append(d)
        reached = _REACH[key] = frozenset(seen)
        search_audit.append((t.size, len(seen)))
    return reached


def _smallest(states: list, start: Process) -> Process:
    """The one smallest of ``states``, else UniquenessError."""
    size = min((s.size for s in states), default=None)
    smallest = [s for s in states if s.size == size]
    if len(smallest) != 1:
        raise UniquenessError(f"minimal seeds for {start!r}: {smallest!r}")
    return smallest[0]


def _onto(part: frozenset, copies: tuple, reach: dict) -> bool:
    """Whether each copy can be sent to a member of ``part`` it reaches
    (``reach[t]``), every member receiving one: a bipartite matching of
    the members into the copies, once every copy reaches some member."""
    if any(reach[t].isdisjoint(part) for t in copies):
        return False
    held = [None] * len(copies)  # the member matched to each copy

    def place(d, tried: set) -> bool:
        for i, t in enumerate(copies):
            if i not in tried and d in reach[t]:
                tried.add(i)
                if held[i] is None or place(held[i], tried):
                    held[i] = d
                    return True
        return False

    return all(place(d, set()) for d in part)


def _seed_replicated(copies: tuple) -> frozenset:
    """Stage 1: the seed's replicated part, a set, from the canonical
    replicated components ``copies = (t_1, ..., t_n)`` of the input.

    Under a fixed guide g every deletion of ``!t_1 | ... | !t_n`` edits
    one component, which stays one (B1), or drops one of two equal
    components (B2).  So the part reaches exactly the processes whose
    components are the images of a map sending each copy t_i to a member
    of ``_reach(t_i, g)``.  A reached process with duplicates is not
    minimal (its B2 reduct has the same guide and is smaller), so the
    seed's replicated part is a set S onto which the copies map:
    ``_onto``, a matching.  S verifies when that holds under
    ``_guide_of(S)``.

    The sets S are searched smallest first over the members of
    ``_reach(t_i, tops)``, under the widest guide: ``tops``, the copies'
    top actions, stands for every term carrying one.  B1 never edits a
    component's top prefix, so each member of S keeps the top action of
    a copy that reaches it, ``_guide_of(S)`` lies in the widest guide,
    and reaches grow with the guide: it drops only sets that cannot
    verify.  A best-first search sends the copies in turn, each to a
    member already chosen that it reaches or to a new one, so every
    complete set maps onto under the widest guide; its priority adds the
    least member size still needed.  Every set verified has the size of
    the first, and exactly one must verify, else UniquenessError.  When
    each copy reaches only itself under the widest guide, the set of the
    copies is returned at once.
    """
    tops = frozenset(t.action for t in copies)
    reach = {t: _reach(t, tops) for t in copies}
    if all(len(r) == 1 for r in reach.values()):
        return frozenset(reach)
    members = [sorted(reach[t]) for t in copies]  # smallest first
    least = [m[0].size for m in members]
    limit = sum(t.size for t in reach)  # no larger: the deduplicated input

    def priority(j, part, size):
        return size + max((least[i] for i in range(j, len(copies))
                           if reach[copies[i]].isdisjoint(part)), default=0)

    queue = [(priority(0, frozenset(), 0), 0, 0, frozenset(), 0)]
    seen = {(0, frozenset())}
    verified = []
    while queue and (not verified or queue[0][0] == limit):
        _, _, j, part, size = heapq.heappop(queue)
        if j == len(copies):
            guide = _guide_of(part)
            if _onto(part, copies, {t: _reach(t, guide) for t in reach}):
                verified.append(part)
                limit = size  # every later verified set has this size
            continue
        sent = [(part, size)] if not reach[copies[j]].isdisjoint(part) else []
        sent += [(part | {d}, size + d.size) for d in members[j]
                 if d not in part and size + d.size <= limit]
        for after, after_size in sent:
            if (j + 1, after) not in seen:
                seen.add((j + 1, after))
                heapq.heappush(queue, (priority(j + 1, after, after_size),
                                       len(seen), j + 1, after, after_size))
    if len(verified) != 1:
        raise UniquenessError(f"minimal seeds for {copies!r}: {verified!r}")
    return verified[0]


def _seed_component(c: PrefixedTerm, guide: frozenset,
                    start: Process) -> tuple:
    """Stage 2 for one finite component: the components of the one
    smallest state that ``c`` alone reaches under ``guide``.

    Memoized on ``(c, guide)``; a tie raises UniquenessError naming
    ``start``, the input, and is not stored.
    """
    key = (c, guide)
    got = _COMPONENT_SEEDS.get(key)
    if got is None:
        reached = _explore(Process((), (c,)), guide)
        got = _COMPONENT_SEEDS[key] = _smallest(
            list(reached), start).finite.components
    return got


def compute_seed(p: Process) -> SeedResult:
    """The minimal process p rewrites to under its own guidance.

    Stage 1 (``_seed_replicated``) seeds p's replicated part alone, as a
    set.  Stage 2 seeds p's finite part under that set's guide, and the
    seed, the one process built, is the set beside the result.  Under a
    fixed guide every deletion touches one part only and ``canonicalize``
    works per component, so exploring p would give exactly the pairs of
    a state of each part.  The finite part has no B2 step and each B1
    step edits one of its components, so the states it reaches are the
    multiset sums of a state reached by each component alone, and its
    smallest state is the sum of the components' smallest states
    (``_seed_component``), one per component of p, copies included.
    That sum is the one smallest exactly when each component's smallest
    is unique: with two tied states for one component, fixing the others
    gives two sums of equal size.  A replication-free p has no guide and no B2 step, so it is
    its own seed and neither stage runs.  Each stage raises
    UniquenessError unless exactly one state is minimal.
    """
    start = canonicalize(p)
    cached = _SEED_CACHE.get(start)
    if cached is not None:
        return cached

    seed = start
    if start.replicated:
        part = _seed_replicated(start.replicated)
        guide = _guide_of(part)
        seed = Process(part, [d for c in start.finite.components
                              for d in _seed_component(c, guide, start)])
    result = SeedResult(seed, start)
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
