"""Canonical forms for the structural congruence with the distribution law.

The congruence is generated by the abelian-monoid laws of parallel
composition (already baked into the multiset representation) together with

    a.(F | a.F | ... | a.F)  =  a.F | a.F | ... | a.F

with the same number of F occurrences on both sides.  Reading it left to
right distributes a prefix over the copies it guards; the n = 0 instance is
the familiar a.a.0 = a.0 | a.0.

``canonicalize`` rewrites innermost-first.  At a prefix node whose body
components are already canonical, a redex fires at most once and its result
components are canonical, so a single bottom-up pass suffices.  Replicated
bodies are canonicalized as finite processes; the law's outer constructor is
a prefix, so a bang component itself never fires (the result would not be a
process of the grammar).

Left-to-right rewriting is size-preserving and terminates; uniqueness of the
resulting form is validated exhaustively against the finite bisimilarity
oracle rather than proved here.  The pass recurses twice per nesting level;
``canonicalize``, ``canonical_id`` and ``canonical_finite`` raise
StructureError on a term nested deeper than the recursion limit allows.

Canonical states are numbered here, in one table: every process met maps
to the id of its canonical form.  A state is its parts: its replicated
components, and the sorted ids that ``component_id`` gives its finite
ones.  ``canonical_id`` reads a process's parts off its components and
numbers the state by them, and ``lts`` fires states as their parts and
numbers the destinations it meets by them, so neither builds a
``Process``: ``state`` builds the one canonical object of an id on first
read, and ``canonicalize`` returns that object.  A canonical process met first is
that object itself, not an equal copy.  ``lts`` and ``oracle`` read states
by these ids.

``_PARTS`` indexes states by their parts, nested as {replicated part:
{finite ids: state id}}.  Every state is entered there when it is first
numbered, so a process equal to a fired state is found in the index even
when that state was never built, and firing finds the states numbered
before.
"""

from __future__ import annotations

from typing import Union

from .syntax import (_KEY, FiniteProcess, PrefixedTerm, Process,
                     StructureError, memo_table)

__all__ = [
    "canonicalize", "canonical_id", "state", "state_parts",
    "component_id",
    "canonical_finite",
    "congruent", "process_of",
]

_CANON_COMPS = memo_table()
_CANON_FIN = memo_table()
_STATE_IDS = memo_table()
# id -> canonical Process, for the states built so far
_STATES = memo_table()
# id -> (replicated part, sorted finite ids), for every id
_PARTS_OF = memo_table()
# replicated part -> {sorted finite ids: id}
_PARTS = memo_table()
_COMP_IDS = memo_table()
_COMPS = memo_table()


def _canonical_components(t: PrefixedTerm) -> tuple:
    """Canonical form of a prefixed term, as its multiset of components.

    The result is a single term unless the distribution law fires at the
    root, in which case it is n+1 copies of one canonical prefixed term.
    """
    cached = _CANON_COMPS.get(t)
    if cached is not None:
        return cached

    body = _canonical_finite(t.body)
    # c = a.F fires when the body is F plus copies of c.  Two firing
    # components would each lie in the other's F, so at most one fires.
    act_key = t.action.key
    for c in set(body.components):
        if c.action.key == act_key:
            rest = tuple(k for k in body.key if k != c.key)
            if rest == c.body.key:
                result = (c,) * (len(body) - len(rest) + 1)
                break
    else:
        result = (PrefixedTerm(t.action, body),)
    _CANON_COMPS[t] = result
    return result


def _canonical_finite(fp: FiniteProcess) -> FiniteProcess:
    cached = _CANON_FIN.get(fp)
    if cached is not None:
        return cached
    out = []
    for c in fp.components:
        out.extend(_canonical_components(c))
    result = FiniteProcess(out)
    _CANON_FIN[fp] = result
    _CANON_FIN[result] = result
    return result


def canonical_finite(fp: FiniteProcess) -> FiniteProcess:
    try:
        return _canonical_finite(fp)
    except RecursionError:  # two frames per nesting level
        raise StructureError("term nested too deeply") from None


def _number(reps: tuple, fin: tuple) -> int:
    """The id of the state with these parts, numbered on first use."""
    known = _PARTS.get(reps)
    if known is None:
        known = _PARTS[reps] = {}
    got = known.get(fin)
    if got is None:
        got = known[fin] = _new_state((reps, fin))
    return got


def _new_state(parts: tuple) -> int:
    """A new id, with its parts."""
    got = len(_PARTS_OF)
    _PARTS_OF[got] = parts
    return got


def state(i: int) -> Process:
    """The canonical process of state i, built on first read."""
    got = _STATES.get(i)
    if got is None:
        reps, fin = _PARTS_OF[i]
        got = _STATES[i] = Process(reps, map(_COMPS.__getitem__, fin))
        _STATE_IDS[got] = i
    return got


def state_parts(i: int) -> tuple:
    """State i as (replicated part, sorted finite ids, the index of its
    replicated part)."""
    reps, fin = _PARTS_OF[i]
    return reps, fin, _PARTS[reps]


def component_id(t: PrefixedTerm) -> int:
    """The id of t, a component of a canonical state."""
    got = _COMP_IDS.get(t)
    if got is None:
        got = _COMP_IDS[t] = len(_COMPS)
        _COMPS[got] = t
    return got


def canonical_id(p: Process) -> int:
    """The id of p's canonical form, numbered by its parts with no
    ``Process`` built; p itself is stored as that form when it is one."""
    try:
        got = _STATE_IDS.get(p)
        if got is None:
            reps = tuple(sorted(
                (PrefixedTerm(t.action, _canonical_finite(t.body))
                 for t in p.replicated), key=_KEY))
            canonical = reps == p.replicated
            fin = []
            for t in p.finite.components:
                comps = _canonical_components(t)
                canonical = canonical and comps == (t,)
                fin += map(component_id, comps)
            fin.sort()
            if canonical:  # the stored state shares its tuple with the key
                got = _number(p.replicated, tuple(fin))
                _STATES[got] = p
            else:
                got = _number(reps, tuple(fin))
            _STATE_IDS[p] = got
        return got
    except RecursionError:
        raise StructureError("term nested too deeply") from None


def canonicalize(p: Process) -> Process:
    """The canonical representative of p's congruence class."""
    return state(canonical_id(p))


def process_of(term: Union[Process, FiniteProcess, PrefixedTerm]) -> Process:
    """View any term as a Process (prefixed terms become one finite component)."""
    if isinstance(term, Process):
        return term
    if isinstance(term, FiniteProcess):
        return Process((), term)
    if isinstance(term, PrefixedTerm):
        return Process((), FiniteProcess((term,)))
    raise TypeError(f"not a term: {term!r}")


def congruent(p: Process, q: Process) -> bool:
    """Decide the congruence: equal canonical forms."""
    return canonical_id(process_of(p)) == canonical_id(process_of(q))
