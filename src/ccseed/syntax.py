"""Terms of a CCS fragment: prefixes, parallel composition, top-level replication.

Finite terms are built from 0, action prefixing and parallel composition.  A
full process is a parallel composition of finite terms and replicated
prefixed terms; replication never occurs under a prefix.  Parallel
composition is commutative, associative and absorbs 0, so both the finite
part of a process and every prefix body are stored as flattened multisets
(sorted tuples) of prefixed terms.  Structural equality of two terms
therefore already identifies them up to the abelian-monoid laws.

Concrete syntax::

    process := term ("|" term)*
    term    := "0" | "!"? act "." atom | "(" process ")"
    atom    := "0" | act "." atom | "(" process ")"
    act     := "~"? name          # "~" marks an output, sync mode only
    name    := [a-z][a-z0-9_]*

Whitespace is insignificant.  Parentheses are grouping only: a group under
a prefix is a finite process (no "!"), while a group at the top level may
contain replicated components, since top-level composition is a flat
multiset either way.  ``parse`` reads base-mode terms (all actions plain)
or sync-mode terms (every action an input ``a`` or an output ``~a``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Optional, Union

__all__ = [
    "PLAIN", "INPUT", "OUTPUT",
    "Action", "PrefixedTerm", "FiniteProcess", "Process", "Path",
    "ParseError", "StructureError",
    "parse", "render", "size", "alphabet", "apply_substitution",
    "occurrences", "delete_at", "resolve", "edit_multiset",
    "NIL_FINITE", "NIL",
]

PLAIN = 0
INPUT = 1
OUTPUT = 2

_NAME_RE = re.compile(r"[a-z][a-z0-9_]*")


class ParseError(Exception):
    """Malformed input text.  ``position`` is a 0-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class StructureError(Exception):
    """Text is lexically fine but violates a grammar constraint."""

    def __init__(self, message: str, position: Optional[int] = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class Action:
    """An action symbol: a name plus a polarity (plain, input or output)."""

    __slots__ = ("name", "polarity", "_key", "_hash")

    def __init__(self, name: str, polarity: int = PLAIN):
        if not _NAME_RE.fullmatch(name):
            raise ValueError(f"illegal action name {name!r}")
        if polarity not in (PLAIN, INPUT, OUTPUT):
            raise ValueError(f"illegal polarity {polarity!r}")
        self.name = name
        self.polarity = polarity
        self._key = (name, polarity)
        self._hash = hash(self._key)

    @property
    def key(self):
        return self._key

    def co(self) -> "Action":
        """The complementary action (inputs and outputs swap)."""
        if self.polarity == PLAIN:
            raise ValueError("plain actions have no co-action")
        return Action(self.name, INPUT if self.polarity == OUTPUT else OUTPUT)

    def __eq__(self, other):
        return isinstance(other, Action) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self._key < other._key

    def __repr__(self):
        return f"Action({self!s})"

    def __str__(self):
        return "~" + self.name if self.polarity == OUTPUT else self.name


class FiniteProcess:
    """A multiset of prefixed terms, kept as a tuple sorted by structural key."""

    __slots__ = ("components", "size", "_key", "_hash")

    def __init__(self, components: Iterable["PrefixedTerm"] = ()):
        comps = sorted(components, key=lambda t: t._key)
        self.components = tuple(comps)
        self.size = sum(t.size for t in comps)
        self._key = tuple(t._key for t in comps)
        self._hash = hash(self._key)

    @property
    def key(self):
        return self._key

    def is_nil(self) -> bool:
        return not self.components

    def __eq__(self, other):
        return isinstance(other, FiniteProcess) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self._key < other._key

    def __iter__(self) -> Iterator["PrefixedTerm"]:
        return iter(self.components)

    def __len__(self):
        return len(self.components)

    def __repr__(self):
        return f"FiniteProcess({render(self)!r})"


class PrefixedTerm:
    """action.body — the only non-trivial finite constructor."""

    __slots__ = ("action", "body", "size", "_key", "_hash")

    def __init__(self, action: Action, body: FiniteProcess = None):
        if body is None:
            body = NIL_FINITE
        self.action = action
        self.body = body
        self.size = 1 + body.size
        # Size leads the key so small terms order first; acceptance rendering
        # depends on this (b.0 sorts before a.c.0).
        self._key = (self.size, action.name, action.polarity, body._key)
        self._hash = hash(self._key)

    @property
    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, PrefixedTerm) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self._key < other._key

    def __repr__(self):
        return f"PrefixedTerm({_render_prefixed(self)!r})"


class Process:
    """Replicated components in parallel with a finite part.

    ``replicated`` holds the prefixed terms under a bang, ``finite`` the rest.
    Both are multisets; the bang itself carries no prefix, so the size of a
    process counts prefixes only.
    """

    __slots__ = ("replicated", "finite", "size", "_key", "_hash")

    def __init__(self, replicated: Iterable[PrefixedTerm] = (),
                 finite: Union[FiniteProcess, Iterable[PrefixedTerm]] = ()):
        reps = sorted(replicated, key=lambda t: t._key)
        if not isinstance(finite, FiniteProcess):
            finite = FiniteProcess(finite)
        self.replicated = tuple(reps)
        self.finite = finite
        self.size = sum(t.size for t in reps) + finite.size
        self._key = (tuple(t._key for t in reps), finite._key)
        self._hash = hash(self._key)

    @property
    def key(self):
        return self._key

    def is_finite(self) -> bool:
        return not self.replicated

    def is_nil(self) -> bool:
        return not self.replicated and self.finite.is_nil()

    def __eq__(self, other):
        return isinstance(other, Process) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self._key < other._key

    def __repr__(self):
        return f"Process({render(self)!r})"


NIL_FINITE = FiniteProcess(())
NIL = Process((), NIL_FINITE)


# ---------------------------------------------------------------------------
# Parsing


class _Parser:
    def __init__(self, text: str, mode: str):
        self.text = text
        self.pos = 0
        self.mode = mode

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, ch: str) -> None:
        self.skip_ws()
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def action(self) -> Action:
        self.skip_ws()
        polarity = PLAIN if self.mode == "base" else INPUT
        if self.peek() == "~":
            if self.mode == "base":
                raise StructureError(
                    "output action ~ requires sync mode", self.pos)
            polarity = OUTPUT
            self.pos += 1
        m = _NAME_RE.match(self.text, self.pos)
        if not m:
            raise self.error("expected an action name")
        self.pos = m.end()
        return Action(m.group(), polarity)

    def process(self, top_level: bool) -> Process:
        replicated = []
        finite = []
        while True:
            self.term(top_level, replicated, finite)
            self.skip_ws()
            if self.peek() == "|":
                self.pos += 1
            else:
                break
        return Process(replicated, finite)

    def term(self, top_level: bool, replicated: list, finite: list) -> None:
        self.skip_ws()
        ch = self.peek()
        if ch == "":
            raise self.error("unexpected end of input")
        if ch == "0":
            self.pos += 1
            return
        if ch == "(":
            self.pos += 1
            group = self.process(top_level)
            self.eat(")")
            replicated.extend(group.replicated)
            finite.extend(group.finite.components)
            return
        if ch == "!":
            if not top_level:
                raise StructureError(
                    "replication is only allowed at the top level", self.pos)
            self.pos += 1
            self.skip_ws()
            if self.peek() in ("0", "(", "!", "|", ""):
                raise StructureError(
                    "replication applies only to a prefixed term", self.pos)
            act = self.action()
            self.eat(".")
            body = self.atom()
            replicated.append(PrefixedTerm(act, body))
            return
        act = self.action()
        self.eat(".")
        finite.append(PrefixedTerm(act, self.atom()))

    def atom(self) -> FiniteProcess:
        self.skip_ws()
        ch = self.peek()
        if ch == "0":
            self.pos += 1
            return NIL_FINITE
        if ch == "(":
            self.pos += 1
            inner = self.process(top_level=False)
            self.eat(")")
            return inner.finite
        if ch == "!":
            raise StructureError(
                "replication is only allowed at the top level", self.pos)
        act = self.action()
        self.eat(".")
        return FiniteProcess((PrefixedTerm(act, self.atom()),))


def parse(text: str, mode: str = "base") -> Process:
    """Parse ``text`` into a Process.

    ``mode`` is "base" (plain actions, ~ rejected) or "sync" (bare names are
    inputs, ~name outputs).  Raises ParseError on malformed text and
    StructureError on grammar-constraint violations.
    """
    if mode not in ("base", "sync"):
        raise ValueError(f"unknown mode {mode!r}")
    p = _Parser(text, mode)
    p.skip_ws()
    if p.peek() == "":
        raise p.error("empty input")
    result = p.process(top_level=True)
    p.skip_ws()
    if p.pos != len(text):
        raise p.error("trailing input")
    return result


# ---------------------------------------------------------------------------
# Rendering

def _render_prefixed(t: PrefixedTerm) -> str:
    act = str(t.action)
    body = t.body
    if body.is_nil():
        return f"{act}.0"
    if len(body.components) == 1:
        return f"{act}.{_render_prefixed(body.components[0])}"
    inner = " | ".join(_render_prefixed(c) for c in body.components)
    return f"{act}.({inner})"


def render(term: Union[Process, FiniteProcess, PrefixedTerm]) -> str:
    """Deterministic concrete syntax; components in structural-key order."""
    if isinstance(term, PrefixedTerm):
        return _render_prefixed(term)
    if isinstance(term, FiniteProcess):
        if term.is_nil():
            return "0"
        return " | ".join(_render_prefixed(c) for c in term.components)
    parts = ["!" + _render_prefixed(t) for t in term.replicated]
    parts.extend(_render_prefixed(c) for c in term.finite.components)
    return " | ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Measures and renamings

def size(term: Union[Process, FiniteProcess, PrefixedTerm]) -> int:
    """Number of prefixes (replication adds none)."""
    return term.size


def alphabet(term: Union[Process, FiniteProcess, PrefixedTerm]) -> frozenset:
    """All actions occurring in the term."""
    acts = set()

    def walk_finite(fp: FiniteProcess):
        for c in fp.components:
            acts.add(c.action)
            walk_finite(c.body)

    if isinstance(term, PrefixedTerm):
        acts.add(term.action)
        walk_finite(term.body)
    elif isinstance(term, FiniteProcess):
        walk_finite(term)
    else:
        for t in term.replicated:
            acts.add(t.action)
            walk_finite(t.body)
        walk_finite(term.finite)
    return frozenset(acts)


def apply_substitution(term, sigma: Mapping[str, str]):
    """Rename action names by ``sigma`` (identity where unmapped).

    Polarities are preserved; non-injective renamings are allowed.  Works on
    Process, FiniteProcess and PrefixedTerm alike.
    """

    def ren_action(a: Action) -> Action:
        return Action(sigma.get(a.name, a.name), a.polarity)

    def ren_prefixed(t: PrefixedTerm) -> PrefixedTerm:
        return PrefixedTerm(ren_action(t.action), ren_finite(t.body))

    def ren_finite(fp: FiniteProcess) -> FiniteProcess:
        return FiniteProcess(ren_prefixed(c) for c in fp.components)

    if isinstance(term, PrefixedTerm):
        return ren_prefixed(term)
    if isinstance(term, FiniteProcess):
        return ren_finite(term)
    return Process((ren_prefixed(t) for t in term.replicated),
                   ren_finite(term.finite))


# ---------------------------------------------------------------------------
# Occurrence paths
#
# A Path addresses one prefixed-term occurrence: either inside the finite
# part or inside the body of a replicated component (never the replicated
# prefix itself).  ``steps`` picks a component at each multiset level of the
# process the path was built for; the last index names the occurrence.


@dataclass(frozen=True)
class Path:
    area: str                      # "finite" or "replicated"
    rep_index: Optional[int]       # index into Process.replicated, or None
    steps: tuple                   # non-empty tuple of component indices

    def __post_init__(self):
        if self.area not in ("finite", "replicated"):
            raise ValueError(f"bad path area {self.area!r}")
        if (self.rep_index is not None) != (self.area == "replicated"):
            raise ValueError("rep_index is required exactly for replicated paths")
        if not self.steps:
            raise ValueError("a path must address a prefixed term, not a bang")


def occurrences(p: Process) -> Iterator[tuple]:
    """Yield (Path, PrefixedTerm) for every addressable occurrence in ``p``."""

    def walk(fp: FiniteProcess, area: str, rep_index, prefix: tuple):
        for i, c in enumerate(fp.components):
            steps = prefix + (i,)
            yield Path(area, rep_index, steps), c
            yield from walk(c.body, area, rep_index, steps)

    yield from walk(p.finite, "finite", None, ())
    for r, t in enumerate(p.replicated):
        yield from walk(t.body, "replicated", r, ())


def _at(items, i: int):
    if not 0 <= i < len(items):
        raise IndexError("path does not match process")
    return items[i]


def _edit_finite(fp: FiniteProcess, steps: tuple,
                 edit: Callable[[list], None]) -> FiniteProcess:
    comps = list(fp.components)
    if not steps:
        edit(comps)
    else:
        i = steps[0]
        t = _at(comps, i)
        comps[i] = PrefixedTerm(t.action, _edit_finite(t.body, steps[1:], edit))
    return FiniteProcess(comps)


def edit_multiset(p: Process, area: str, rep_index: Optional[int],
                  steps: tuple, edit: Callable[[list], None]) -> Process:
    """Rebuild p after ``edit`` mutates the component list of one multiset.

    The multiset is the finite part or replicated body ``rep_index``, then
    the body picked by each index of ``steps``.  IndexError if none matches.
    """
    if area == "finite":
        return Process(p.replicated, _edit_finite(p.finite, steps, edit))
    reps = list(p.replicated)
    t = _at(reps, rep_index)
    reps[rep_index] = PrefixedTerm(t.action, _edit_finite(t.body, steps, edit))
    return Process(reps, p.finite)


def resolve(p: Process, path: Path) -> PrefixedTerm:
    """The occurrence a path addresses in ``p``; IndexError if none."""
    fp = (p.finite if path.area == "finite"
          else _at(p.replicated, path.rep_index).body)
    for i in path.steps[:-1]:
        fp = _at(fp.components, i).body
    return _at(fp.components, path.steps[-1])


def delete_at(p: Process, path: Path) -> Process:
    """Replace the addressed occurrence by nil (drop it from its multiset)."""
    i = path.steps[-1]

    def drop(comps: list):
        _at(comps, i)
        del comps[i]

    return edit_multiset(p, path.area, path.rep_index, path.steps[:-1], drop)
