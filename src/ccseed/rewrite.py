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
returns the seed's replicated part as a set, memoized with its guide per
canonical replicated part: inputs that share one run stage 1 once, and
their stage 2s share one guide object.  Stage 2 seeds
the finite part under that set's guide, one finite component at a time:
B1 edits one finite component and canonical forms are built per
component, so what the finite part reaches is the multiset sums of what
its components reach alone.  A component's reach is a set of processes,
not of components (``b.b.a.0`` less ``a.0`` is ``b.0 | b.0``): a row of
its deletion table leaves k copies of one term, whose smallest state,
taken k times, is that row's.  So stage 2 reads each distinct
component's smallest state off its rows.  ``compute_seed`` explores no
state, and the trace is found on first read.  Stage 1 rests on the seed
theorem and the cancellation law for replicated parts; this is argued
and checked, not proved.
``convertible`` compares seeds.

A target's guide is the set of its canonical replicated components that
stay one component: B1 deletes an occurrence exactly when it is in the
guide.  So a B1 step's justification, ``RewriteStep.matched``, is the
deleted occurrence itself, read off the step's path.

Deletions run on state ids, as firing does in ``lts``: a deletion is
its destination's id.  Each distinct component has one memoized
deletion table: its body's occurrences in preorder, each beside the
component with it deleted; a copy of a body component leaves what the
copy before it left, so it takes that copy's row objects.  A deletion
leaves that term in a replicated component and its canonical components
in a finite one, whose own deletion, leaving nothing, comes first.  A
state's deletions splice these tables into its parts
(``congruence._PARTS_OF``) and number each destination with
``parts_id``: no process is rebuilt or canonicalized again, and they
come out in ``occurrences`` order, so a step, built only where it is
read, takes its path from there.  ``_explore`` maps each id it reaches
to the id it was first reached from and reads no state back: a trace
reads back only its chain, through ``congruence.state``, and the count
of candidates none; stage 1's walks and stage 2's smallest states read
their edges off the same tables.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .congruence import (_PARTS_OF, _canonical_components, canonical_id,
                         canonicalize, parts_id, process_of, state)
from .lts import _class, bounded_class
from .syntax import (_KEY, FiniteProcess, Path, PrefixedTerm, Process,
                     memo_table, occurrences, resolve)

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


# A component's deletions, one row per occurrence in its body, in
# preorder: (the occurrence, the component with it deleted).  As a
# replicated component a deletion leaves the second field, whose body is
# canonical: one component.  As a finite one it leaves that term's
# canonical components, one or copies of one term, and the component's
# own deletion, which leaves nothing, is not a row: ``_b1_deletions``
# puts it first.
_DELETION_TABLES = memo_table()


def _deletion_table(t: PrefixedTerm) -> list:
    """t's deletion table, spliced from its body components' tables."""
    got = _DELETION_TABLES.get(t)
    if got is None:
        comps = t.body.components
        got = []  # a loop, not a comprehension: one frame per nesting level
        for n, h in enumerate(comps):
            if n and comps[n - 1] is h:  # copies are adjacent in key order
                # a copy leaves what the copy before it left: take its rows
                got += got[-1 - len(_deletion_table(h)):]
                continue
            head, tail = comps[:n], comps[n + 1:]
            got.append((h, PrefixedTerm(t.action, FiniteProcess(head + tail))))
            for occ, d in _deletion_table(h):
                got.append((occ, PrefixedTerm(t.action, FiniteProcess(
                    head + _canonical_components(d) + tail))))
        _DELETION_TABLES[t] = got
    return got


def _state_size(i: int) -> int:
    """The size of state i, read off its parts."""
    reps, fin = _PARTS_OF[i]
    return sum(t.size for t in reps + fin)


def _insert(rest: tuple, left: tuple) -> tuple:
    """rest, key-ordered, with ``left`` put in: one or copies of one
    term.  Positions and keys only: ``==`` between terms is slow."""
    at = bisect_left(rest, left[0].key, key=_KEY)
    return rest[:at] + left + rest[at:]


def _b1_deletions(i: int, guide: Optional[frozenset]):
    """The destination id of every B1 deletion from state i, one per
    guided occurrence, in ``occurrences`` order.

    Each component's table is spliced into i's parts and the destination
    numbered by ``parts_id``: nothing is built.  ``guide`` is a
    ``_guide``; ``None`` deletes every occurrence unguided.
    """
    if guide is not None and not guide:
        return  # an empty guide justifies nothing: walk no occurrence
    reps, fin = _PARTS_OF[i]
    for n, t in enumerate(fin):
        if not n or fin[n - 1] is not t:  # copies are adjacent in key order
            rest = fin[:n] + fin[n + 1:]
            dests = [parts_id(reps, rest)] if (
                guide is None or t in guide) else []
            dests += [parts_id(reps, _insert(rest, _canonical_components(d)))
                      for occ, d in _deletion_table(t)
                      if guide is None or occ in guide]
        yield from dests
    for r, t in enumerate(reps):
        rest = reps[:r] + reps[r + 1:]
        for occ, d in _deletion_table(t):
            if guide is None or occ in guide:
                yield parts_id(_insert(rest, (d,)), fin)


def _b2_deletions(i: int):
    """Every B2 deletion from state i: (destination id, dropped
    component), one per duplicated replicated component."""
    reps, fin = _PARTS_OF[i]
    for n, t in enumerate(reps[:-1]):
        # copies are adjacent in key order
        if reps[n + 1] is t and (not n or reps[n - 1] is not t):
            yield parts_id(reps[:n] + reps[n + 1:], fin), t


def _deletions(i: int, guide: Optional[frozenset]):
    """Every B1, then every B2 deletion from state i: destination ids."""
    yield from _b1_deletions(i, guide)
    for j, _ in _b2_deletions(i):
        yield j


def _b1_paths(i: int, guide: Optional[frozenset]):
    """Each B1 deletion from state i beside its path: the guided
    occurrences of ``state(i)``, which come in the same order."""
    return zip(_b1_deletions(i, guide),
               (path for path, occ in occurrences(state(i))
                if guide is None or occ in guide), strict=True)


def step_b1(p: Process, target: Process) -> tuple:
    """All single B1 steps from p guided by target."""
    i = canonical_id(p)
    return tuple(RewriteStep("B1", state(i), state(j), path)
                 for j, path in _b1_paths(i, _guide(target)))


def step_b2(p: Process) -> tuple:
    """All single B2 steps from p (one per duplicated replicated component)."""
    i = canonical_id(p)
    return tuple(RewriteStep("B2", state(i), state(j), dropped=t)
                 for j, t in _b2_deletions(i))


# Audit trail for termination checks: one (start size, states visited)
# entry per guided exploration (a trace) and per stage-1 walk of a
# component's deletion graph; empty it with search_audit.clear().
search_audit: list = []


def _explore(start: Process, guide: Optional[frozenset]) -> dict:
    """Breadth-first closure of a canonical state under deletions.

    Maps the id of every state that B1 (guided by ``guide``, unguided
    when it is None) and B2 reach from ``start``, in discovery order, to
    the id it was first reached from; ``start``'s id maps to None.  No
    state is read back.  The ids are valid only until the next
    ``clear_caches()``, which renumbers them: read what is needed
    (``state`` reads a process) before clearing.
    """
    first = canonical_id(start)
    found = {first: None}
    frontier = [first]
    while frontier:
        nxt = []
        for i in frontier:
            for j in _deletions(i, guide):
                if j not in found:
                    found[j] = i
                    nxt.append(j)
        frontier = nxt
    if guide is not None:
        search_audit.append((start.size, len(found)))
    return found


def rewrites_to(p: Process, target: Process) -> Optional[tuple]:
    """A guided rewrite trace from p to target, or None if unreachable.

    Read back from target along the ids each state was first reached
    from: each link i -> j is the first deletion from i to j, the one
    ``_explore`` took, so only the chain's states are built.
    """
    goal = canonicalize(target)
    guide = _guide(goal)
    found = _explore(canonicalize(p), guide)
    j = canonical_id(goal)
    if j not in found:
        return None
    trace = []
    while found[j] is not None:
        i = found[j]
        step = next((RewriteStep("B1", state(i), state(j), path)
                     for k, path in _b1_paths(i, guide) if k == j), None)
        trace.append(step or next(
            RewriteStep("B2", state(i), state(j), dropped=t)
            for k, t in _b2_deletions(i) if k == j))
        j = i
    return tuple(reversed(trace))


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
        return sum(1 for i in _explore(self.start, None)
                   if _state_size(i) <= self.seed.size
                   and _class(i, _PREFILTER_DEPTH, "base") == pcls)


_SEED_CACHE = memo_table()
_REACH = memo_table()
_REPLICATED_SEEDS = memo_table()
_COMPONENT_SEEDS = memo_table()

# A descendant whose behaviour already differs from p at this depth cannot
# be reached by guided rewriting (a successful rewrite implies
# bisimilarity).  Only ``candidates_checked`` applies it, to count the
# descendants an exhaustive search would check; every state the seed
# search verifies passes it.
_PREFILTER_DEPTH = 2


def _reach(t: PrefixedTerm, guide: frozenset) -> frozenset:
    """The components d such that ``!t`` rewrites to ``!d`` under ``guide``.

    B1 edits the body of one replicated component, which stays one
    component, and B2 needs two; so every deletion from ``!d`` is a B1
    step to ``!d'``, d' the component a row of d's deletion table leaves.
    The walk follows the rows whose occurrence is in ``guide``, or whose
    action is, for the widest guide: a set of actions standing for every
    term that carries one (equality is identity, so a term is never
    equal to an action).  It builds no terms beyond the tables, and each
    walk logs one ``search_audit`` entry.
    """
    key = (t, guide)
    reached = _REACH.get(key)
    if reached is None:
        seen = {t}
        todo = [t]
        while todo:
            for occ, d in _deletion_table(todo.pop()):
                if d not in seen and (occ in guide or occ.action in guide):
                    seen.add(d)
                    todo.append(d)
        reached = _REACH[key] = frozenset(seen)
        search_audit.append((t.size, len(seen)))
    return reached


def _onto(part: frozenset, copies: tuple, reach: dict) -> bool:
    """Whether each copy can be sent to a member of ``part`` it reaches
    (``reach[t]``), every member receiving one: a bipartite matching of
    the members into the copies, once every copy reaches some member."""
    if any(reach[t].isdisjoint(part) for t in copies):
        return False
    held = [None] * len(copies)  # the member matched to each copy
    return all(_place(d, copies, reach, held, set()) for d in part)


def _place(d, copies: tuple, reach: dict, held: list, tried: set) -> bool:
    """Match member d to a copy that reaches it and is not in ``tried``,
    moving the member ``held`` there along an augmenting path."""
    for i, t in enumerate(copies):
        if i not in tried and d in reach[t]:
            tried.add(i)
            if held[i] is None or _place(held[i], copies, reach, held,
                                         tried):
                held[i] = d
                return True
    return False


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

    Read off the deletion rows, with no state explored.  ``c`` reaches
    itself, nothing when it is in ``guide``, and, through each row whose
    occurrence is in ``guide``, the sums of k states that d' reaches,
    where the row leaves d'^k (``_canonical_components``).  So its
    smallest state is nothing, or the least over those rows of k times
    the smallest state of d', or ``c`` when no row is in ``guide``.  A
    tie, two distinct states of the least size or a tied d' at it,
    raises UniquenessError naming ``start``, the input; a tie above the
    least size does not.

    ``_COMPONENT_SEEDS`` maps ``(c, guide)`` to (size, components), the
    components None on a tie.  Rows lead to smaller terms, so the walk
    keeps its own stack: a chain of rows is as long as ``c`` is large,
    not as deep as it is nested.  A row that leaves nothing ends a scan,
    since the empty state is the only one of size 0, and a row that is
    the row before it, a copy's, is skipped: it offers the same state.
    """
    got = _COMPONENT_SEEDS.get((c, guide))
    if got is None:
        stack = [[c, 0, c.size, (c,)]]  # a term, its next row, its least
        while stack:
            frame = stack[-1]
            t, n, least, comps = frame
            if t in guide:
                least, comps, rows = 0, (), ()
            else:
                rows = _deletion_table(t) if guide else ()
            pending = None
            while least and n < len(rows):
                occ, d = rows[n]
                if occ in guide and not (n and rows[n - 1] is rows[n]):
                    copies = _canonical_components(d)
                    sub = _COMPONENT_SEEDS.get((copies[0], guide))
                    if sub is None:  # seed it, then read row n again
                        pending = copies[0]
                        break
                    size = sub[0] * len(copies)
                    if size <= least:
                        seed = sub[1]
                        if seed is not None and len(copies) > 1:
                            seed = tuple(sorted(seed * len(copies),
                                                key=_KEY))
                        if size < least:
                            least, comps = size, seed
                        elif seed is None or seed != comps:
                            comps = None
                n += 1
            if pending is None:
                _COMPONENT_SEEDS[t, guide] = (least, comps)
                stack.pop()
            else:
                frame[1:] = n, least, comps
                stack.append([pending, 0, pending.size, (pending,)])
        got = _COMPONENT_SEEDS[c, guide]
    if got[1] is None:
        raise UniquenessError(
            f"minimal seeds for {start!r}: a tie in {c!r}")
    return got[1]


def compute_seed(p: Process) -> SeedResult:
    """The minimal process p rewrites to under its own guidance.

    Stage 1 (``_seed_replicated``) seeds p's replicated part alone, as a
    set, which depends on nothing else: ``_REPLICATED_SEEDS`` keeps it
    and its guide per canonical replicated part, and a tie stores
    nothing.  Stage 2 seeds p's finite part under that set's guide, and the
    seed, the one process built, is the set beside the result.  Under a
    fixed guide every deletion touches one part only and ``canonicalize``
    works per component, so exploring p would give exactly the pairs of
    a state of each part.  The finite part has no B2 step and each B1
    step edits one of its components, so the states it reaches are the
    multiset sums of a state reached by each component alone, and its
    smallest state is the sum of the components' smallest states
    (``_seed_component``, read off their deletion rows), one per
    component of p, copies included.  That sum is the one smallest
    exactly when each component's smallest is unique: with two tied
    states for one component, fixing the others gives two sums of equal
    size.  No state is explored.  A replication-free p has no guide and
    no B2 step, so it is its own seed and neither stage runs.  Each
    stage raises UniquenessError unless exactly one state is minimal.
    """
    start = canonicalize(p)
    cached = _SEED_CACHE.get(start)
    if cached is not None:
        return cached

    seed = start
    if start.replicated:
        got = _REPLICATED_SEEDS.get(start.replicated)
        if got is None:  # a tie raises here and stores nothing
            part = _seed_replicated(start.replicated)
            guide = _guide_of(part)
            if guide == part:  # most parts: keep one object, not two
                guide = part
            got = _REPLICATED_SEEDS[start.replicated] = part, guide
        part, guide = got
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
