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
to the id of its canonical form.  A state is its parts, two tuples of the
ids that ``component_id`` gives its components: its replicated ones in
key order and its finite ones sorted.  ``parts_id`` numbers a state by
its parts, in the flat bijection ``_PARTS`` / ``_PARTS_OF``, and is the
only writer of either.  ``canonical_id`` reads a process's parts off its
components and numbers the state by them, and ``lts`` fires states as
their parts and numbers the destinations it meets by them, so neither
builds a ``Process``: ``state`` builds the one canonical object of an id
on first read, and ``canonicalize`` returns that object.  A canonical
process met first is that object itself, not an equal copy.  ``lts`` and
``oracle`` read states by these ids.
"""

from __future__ import annotations

from typing import Union

from .syntax import (_KEY, FiniteProcess, PrefixedTerm, Process,
                     StructureError, memo_table)

__all__ = [
    "canonicalize", "canonical_id", "state", "parts_id", "component_id",
    "canonical_finite",
    "congruent", "process_of",
]

_CANON_COMPS = memo_table()
_CANON_FIN = memo_table()
_STATE_IDS = memo_table()
# id -> canonical Process, for the states built so far
_STATES = memo_table()
# id -> (replicated ids in key order, sorted finite ids), for every id
_PARTS_OF = memo_table()
# the inverse of _PARTS_OF
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
    for c in set(body.components):
        if c.action is t.action:
            rest = tuple(k for k in body.components if k is not c)
            if rest == c.body.components:
                result = (c,) * (len(body) - len(rest) + 1)
                break
    else:
        result = (_with_body(t, body),)
    _CANON_COMPS[t] = result
    return result


def _with_body(t: PrefixedTerm, body: FiniteProcess) -> PrefixedTerm:
    """t with this body: t itself when the body is t's own."""
    return t if body is t.body else PrefixedTerm(t.action, body)


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


def state(i: int) -> Process:
    """The canonical process of state i, built on first read."""
    got = _STATES.get(i)
    if got is None:
        reps, fin = _PARTS_OF[i]
        got = _STATES[i] = Process(map(_COMPS.__getitem__, reps),
                                   map(_COMPS.__getitem__, fin))
        _STATE_IDS[got] = i
    return got


def parts_id(reps: tuple, fin: tuple) -> int:
    """The id of the state with these parts, numbered on first use."""
    parts = (reps, fin)
    got = _PARTS.get(parts)
    if got is None:
        got = _PARTS[parts] = len(_PARTS_OF)
        _PARTS_OF[got] = parts
    return got


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
                (_with_body(t, _canonical_finite(t.body))
                 for t in p.replicated), key=_KEY))
            canonical = reps == p.replicated
            fin = []
            for t in p.finite.components:
                comps = _canonical_components(t)
                canonical = canonical and comps == (t,)
                fin += map(component_id, comps)
            fin.sort()
            # replicated ids after the finite ones: a digest pins the order
            got = parts_id(tuple(map(component_id, reps)), tuple(fin))
            if canonical:
                _STATES[got] = p
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
