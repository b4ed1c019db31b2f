"""Labelled transitions for the replication fragment.

Rules: a prefix fires its action and exposes its body; parallel components
fire independently; a replicated prefix fires its action, persists, and
spawns one copy of its body into the finite part.  In sync mode two parallel
components with complementary actions (a and ~a) may additionally fire
together as a single tau step.

Destinations are returned in canonical form and deduplicated, so the
transition relation is finitely branching and stable under the congruence.
A process fires as its canonical form.  The components of a canonical
process and the bodies they spawn are canonical already, so a destination
is made of them directly and never canonicalized again.

A state fires as its parts, the ids ``congruence`` gives its components: a
destination is the sorted tuple of the finite ids kept plus the ids of the
bodies spawned, next to the state's own replicated ids.  ``parts_id``
finds it among every state numbered so far, however it was met, or
numbers it; firing builds no ``Process`` and writes no ``congruence``
table.

States are the ids of ``congruence``'s table of canonical states, and
labels are small int ids too, handed out as labels are first met; this
module keeps the labels and the moves, one table per mode.  A state's
moves in a mode are fired once and kept as {label id: destination ids},
labels in the key order of their ``Label`` and each label's destinations
as sorted ids, a canonical order that the game compares.  Keyed by ints
only, a moves dict is not tracked by the garbage collector.
``successors`` and ``unfold`` are views of them: they build the labels and
states they return, through ``_LABEL_OF`` and ``congruence.state``, and
list each label's destinations in key order.  ``bounded_class`` and the
bounded game and witness search of ``oracle`` read them by id.
"""

from __future__ import annotations

from typing import Optional
from weakref import WeakValueDictionary

from .congruence import (_COMPS, _PARTS_OF, canonical_id, component_id,
                         parts_id, state)
from .syntax import PLAIN, Action, Keyed, Process, check_mode, memo_table

__all__ = [
    "Label", "TAU", "DepthExceeded", "DEFAULT_DEPTH_CAP", "check_depth",
    "successors", "unfold", "bounded_class",
]

DEFAULT_DEPTH_CAP = 12


class DepthExceeded(Exception):
    """A reachability or game request went beyond the depth cap."""


def check_depth(depth: int) -> None:
    """Reject a depth outside 0..DEFAULT_DEPTH_CAP."""
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if depth > DEFAULT_DEPTH_CAP:
        raise DepthExceeded(
            f"depth {depth} exceeds cap {DEFAULT_DEPTH_CAP}")


class Label(Keyed):
    """A visible action or the silent label tau; one object per action."""

    __slots__ = ("action",)

    def __new__(cls, action: Optional[Action]):
        self = _LABELS.get(action)
        if self is None:
            self = _LABELS[action] = object.__new__(cls)
            self.action = action
            if action is None:
                self.key = (1, "", 0)
            else:
                self.key = (0, action.name, action.polarity)
        return self

    def __reduce__(self):
        return Label, (self.action,)

    def __repr__(self):
        return f"Label({self!s})"

    def __str__(self):
        return "tau" if self.action is None else str(self.action)


_LABELS = WeakValueDictionary()  # the intern table of labels, by action
TAU = Label(None)


# The id of each label met, by its action (None for tau); the one Label of
# id n at _LABEL_OF[n], and the id of the label it handshakes with at
# _CO[n], None when it has none.
_LABEL_IDS = memo_table()
_LABEL_OF = memo_table()
_CO = memo_table()
# A component id's label id and the sorted ids of its body's components.
_FIRERS = memo_table()
# The moves of state id i, at _BASE_MOVES[i] and _SYNC_MOVES[i].
_BASE_MOVES = memo_table()
_SYNC_MOVES = memo_table()


def _label(action: Optional[Action]) -> int:
    """The id of an action's label, tau's for None; numbered on first use,
    together with the label it handshakes with."""
    n = _LABEL_IDS.get(action)
    if n is None:
        n = _LABEL_IDS[action] = len(_LABEL_OF)
        _LABEL_OF[n] = TAU if action is None else Label(action)
        _CO[n] = (None if action is None or action.polarity == PLAIN
                  else _label(action.co()))
    return n


def _label_key(n: int) -> tuple:
    return _LABEL_OF[n].key


def _moves(i: int, mode: str) -> dict:
    """State i's moves, fired on first use."""
    table = _SYNC_MOVES if mode == "sync" else _BASE_MOVES
    got = table.get(i)
    if got is None:
        got = table[i] = _fire(i, mode)
    return got


def successors(p: Process, mode: str = "base") -> tuple:
    """Deduplicated (label, canonical destination) pairs, sorted.

    p fires as its canonical form: each distinct component fires once; a
    finite one is consumed, a replicated one persists.  In sync mode each
    handshaking pair of them also fires once, together, as one tau.
    """
    check_mode(mode)
    moves = _moves(canonical_id(p), mode)
    return tuple((_LABEL_OF[lab], state(j)) for lab, ids in moves.items()
                 for j in sorted(ids, key=_state_key))


def _firer(k: int) -> tuple:
    """Component k's label id and the ids it spawns when it fires."""
    got = _FIRERS.get(k)
    if got is None:
        t = _COMPS[k]
        got = _FIRERS[k] = (_label(t.action), tuple(sorted(
            map(component_id, t.body.components))))
    return got


def _state_key(j: int) -> tuple:
    return state(j).key


def _fire(i: int, mode: str) -> dict:
    """The moves of state i, fired on its parts; nothing is built."""
    reps, fin = _PARTS_OF[i]

    # (ids consumed, label, ids spawned) per distinct component
    firers = [((k,), *_firer(k)) for k in dict.fromkeys(fin)]
    firers += [((), *_firer(k)) for k in dict.fromkeys(reps)]
    moves = firers
    if mode == "sync":
        tau = _label(None)
        moves = firers + [(gone + other_gone, tau, body + other)
                          for n, (gone, label, body) in enumerate(firers)
                          for other_gone, other_label, other in firers[n + 1:]
                          if _CO[label] == other_label]

    dests: dict = {}
    for gone, label, spawned in moves:
        kept = list(fin)
        for k in gone:
            kept.remove(k)
        kept += spawned
        kept.sort()
        dests.setdefault(label, set()).add(parts_id(reps, tuple(kept)))
    return {label: tuple(sorted(dests[label]))
            for label in sorted(dests, key=_label_key)}


def unfold(p: Process, depth: int, mode: str = "base") -> tuple:
    """Breadth-first unfolding: (states, edges) within ``depth`` steps.

    ``states`` are canonical, in discovery order, p first; ``edges`` are the
    (source, label, destination) transitions out of every state reached in
    fewer than ``depth`` steps, grouped by source in that same order.
    """
    check_depth(depth)
    check_mode(mode)
    start = canonical_id(p)
    order = [start]
    seen = {start}
    edges = []
    frontier = [start]
    for _ in range(depth):
        nxt = []
        for i in frontier:
            for label, ids in _moves(i, mode).items():
                for j in sorted(ids, key=_state_key):
                    edges.append((i, label, j))
                    if j not in seen:
                        seen.add(j)
                        nxt.append(j)
        if not nxt:
            break
        order.extend(nxt)
        frontier = nxt
    return ([state(i) for i in order],
            [(state(i), _LABEL_OF[lab], state(j)) for i, lab, j in edges])


_CLASS = memo_table()
_CLASS_IDS = memo_table()


def bounded_class(p: Process, depth: int, mode: str = "base") -> int:
    """Class id of p under ``depth``-round bisimilarity.

    The signature of a state is the set of (label, class of the destination
    one round less deep) over its moves; equal signatures get equal ids.
    Ids are comparable at one depth and mode, and only until
    ``clear_caches`` re-interns them.
    """
    check_depth(depth)
    check_mode(mode)
    return _class(canonical_id(p), depth, mode)


def _class(i: int, depth: int, mode: str) -> int:
    if depth == 0:
        return 0
    key = (i, depth, mode)
    got = _CLASS.get(key)
    if got is None:
        sig = frozenset((label, _class(j, depth - 1, mode))
                        for label, ids in _moves(i, mode).items()
                        for j in ids)
        got = _CLASS_IDS.setdefault((depth, mode, sig), len(_CLASS_IDS))
        _CLASS[key] = got
    return got
