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
to the id of its canonical form, and each id to the one stored canonical
object, which ``canonicalize`` returns.  A canonical process met first is
that object itself, not an equal copy.  ``lts`` and ``oracle`` read states
by these ids.

The components of canonical states are numbered too: ``component_id``
gives each distinct prefixed term one id.  A canonical state is then also
its parts, the ids of its replicated components in key order and the
sorted ids of its finite ones.  ``_PARTS`` indexes the states ``lts`` fires
and reaches by their parts, nested as {replicated ids: {finite ids: state
id}}, so a destination that is known already is found without building
it.  States that only ``canonicalize`` numbers have no entry there.
"""

from __future__ import annotations

from typing import Union

from .syntax import (FiniteProcess, PrefixedTerm, Process, StructureError,
                     memo_table)

__all__ = [
    "canonicalize", "canonical_id", "state_id", "component_id",
    "canonical_finite",
    "congruent", "process_of",
]

_CANON_COMPS = memo_table()
_CANON_FIN = memo_table()
_STATE_IDS = memo_table()
_STATES = memo_table()
_COMP_IDS = memo_table()
_COMPS = memo_table()
_PARTS = memo_table()


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


def state_id(c: Process) -> int:
    """The id of c, a process already in canonical form."""
    got = _STATE_IDS.get(c)
    if got is None:
        got = _STATE_IDS[c] = len(_STATES)
        _STATES[got] = c
    return got


def component_id(t: PrefixedTerm) -> int:
    """The id of t, a component of a canonical state."""
    got = _COMP_IDS.get(t)
    if got is None:
        got = _COMP_IDS[t] = len(_COMPS)
        _COMPS[got] = t
    return got


def canonical_id(p: Process) -> int:
    """The id of p's canonical form; p itself is stored when it is one."""
    try:
        got = _STATE_IDS.get(p)
        if got is None:
            c = Process((PrefixedTerm(t.action, _canonical_finite(t.body))
                         for t in p.replicated), _canonical_finite(p.finite))
            got = _STATE_IDS[p] = state_id(p if c == p else c)
        return got
    except RecursionError:
        raise StructureError("term nested too deeply") from None


def canonicalize(p: Process) -> Process:
    """The canonical representative of p's congruence class."""
    return _STATES[canonical_id(p)]


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
    return canonicalize(process_of(p)) == canonicalize(process_of(q))
