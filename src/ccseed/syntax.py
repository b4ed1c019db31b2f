"""Terms of a CCS fragment: prefixes, parallel composition, top-level replication.

Finite terms are built from 0, action prefixing and parallel composition.  A
full process is a parallel composition of finite terms and replicated
prefixed terms; replication never occurs under a prefix.  Parallel
composition is commutative, associative and absorbs 0, so both the finite
part of a process and every prefix body are stored as flattened multisets
(sorted tuples) of prefixed terms.  Structural equality of two terms
therefore already identifies them up to the abelian-monoid laws.

Terms are hash-consed: every constructor returns the one live object of
its term, found in a weak intern table by its arguments (an action by
name and polarity, a prefixed term by its action and body objects, a
multiset by its sorted component tuple, a process by its replicated
tuple and finite part).  Structurally equal terms are therefore one
object, and equality and hashing are by identity, in constant time
however deep the term.  The tables are weak, so a term no one else holds
is freed, and they are not memo tables: ``clear_caches`` leaves them.

Concrete syntax::

    process := term ("|" term)*
    term    := "0" | "!"? act "." atom | "(" process ")"
    atom    := "0" | act "." atom | "(" process ")"
    act     := "~"? name          # "~" marks an output, sync mode only
    name    := [a-z][a-z0-9_]*    # but not "tau" in sync mode

Whitespace is insignificant.  Parentheses are grouping only: a group under
a prefix is a finite process (no "!"), while a group at the top level may
contain replicated components, since top-level composition is a flat
multiset either way.  ``parse`` reads base-mode terms (all actions plain)
or sync-mode terms (every action an input ``a`` or an output ``~a``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping, Optional, Union
from weakref import WeakValueDictionary

__all__ = [
    "PLAIN", "INPUT", "OUTPUT", "check_mode", "Keyed", "memo_table",
    "clear_caches",
    "Action", "PrefixedTerm", "FiniteProcess", "Process", "Path",
    "ParseError", "StructureError",
    "parse", "render", "apply_substitution",
    "occurrences", "delete_at", "resolve", "edit_multiset",
    "NIL_FINITE",
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


def check_mode(mode: str) -> None:
    """Reject a mode other than "base" and "sync"."""
    if mode not in ("base", "sync"):
        raise ValueError(f"unknown mode {mode!r}")


_MEMO_TABLES: list = []


def memo_table() -> dict:
    """A new module-level memo dict, registered for ``clear_caches``."""
    table: dict = {}
    _MEMO_TABLES.append(table)
    return table


def clear_caches() -> None:
    """Empty the memo tables of every layer; results do not change.

    The intern tables of the term classes are not memo tables and stay:
    a term kept across a clear is still the object equal terms built
    after it are.
    """
    for table in _MEMO_TABLES:
        table.clear()


_KEY = attrgetter("key")


class Keyed:
    """A hash-consed term: one live object per distinct term.

    Each subclass builds its objects in ``__new__``, which looks the
    constructor's arguments up (component tuples sorted, subterms by
    identity) in the class's weak intern table, a ``WeakValueDictionary``,
    and returns the live object when there is one.  So equal terms are
    one object, and equality and hashing are the built-in identity ones.
    ``key``, the structural key set once per object, only orders terms
    (render order, state order) and is never hashed.  ``__init__`` only
    accepts the constructor's arguments, and ``__reduce__`` rebuilds
    through the constructor, so a pickled or copied term comes back as
    the live one.
    """

    __slots__ = ("key", "__weakref__")

    def __init__(self, *args, **kwargs):
        # Kept so that construction can still be counted by wrapping
        # ``__init__``, as perfbench's tracer does for ``terms_built``.
        pass

    def __lt__(self, other):
        return self.key < other.key


class Action(Keyed):
    """An action symbol: a name plus a polarity (plain, input or output).

    Inputs and outputs may not be named ``tau``, the label of a handshake.
    """

    __slots__ = ("name", "polarity")

    def __new__(cls, name: str, polarity: int = PLAIN):
        key = (name, polarity)
        self = _ACTIONS.get(key)
        if self is None:
            if not _NAME_RE.fullmatch(name):
                raise ValueError(f"illegal action name {name!r}")
            if polarity not in (PLAIN, INPUT, OUTPUT):
                raise ValueError(f"illegal polarity {polarity!r}")
            if name == "tau" and polarity != PLAIN:
                raise ValueError("the name tau is reserved for the silent "
                                 "label in sync mode")
            self = _ACTIONS[key] = object.__new__(cls)
            self.name = name
            self.polarity = polarity
            self.key = key
        return self

    def __reduce__(self):
        return Action, self.key

    def co(self) -> "Action":
        """The complementary action (inputs and outputs swap)."""
        if self.polarity == PLAIN:
            raise ValueError("plain actions have no co-action")
        return Action(self.name, INPUT if self.polarity == OUTPUT else OUTPUT)

    def handshakes(self, other: "Action") -> bool:
        """An input and an output on one name: together they fire one tau."""
        return (self.name == other.name
                and self.polarity != other.polarity
                and self.polarity != PLAIN != other.polarity)

    def __repr__(self):
        return f"Action({self!s})"

    def __str__(self):
        return "~" + self.name if self.polarity == OUTPUT else self.name


class FiniteProcess(Keyed):
    """A multiset of prefixed terms, kept as a tuple sorted by structural key."""

    __slots__ = ("components", "size")

    def __new__(cls, components: Iterable["PrefixedTerm"] = ()):
        comps = tuple(sorted(components, key=_KEY))
        self = _FINITES.get(comps)
        if self is None:
            self = _FINITES[comps] = object.__new__(cls)
            self.components = comps
            self.size = sum(t.size for t in comps)
            self.key = tuple(t.key for t in comps)
        return self

    def __reduce__(self):
        return FiniteProcess, (self.components,)

    def is_nil(self) -> bool:
        return not self.components

    def __iter__(self) -> Iterator["PrefixedTerm"]:
        return iter(self.components)

    def __len__(self):
        return len(self.components)

    def __repr__(self):
        return f"FiniteProcess({render(self)!r})"


class PrefixedTerm(Keyed):
    """action.body — the only non-trivial finite constructor."""

    __slots__ = ("action", "body", "size")

    def __new__(cls, action: Action, body: FiniteProcess = None):
        if body is None:
            body = NIL_FINITE
        pair = (action, body)
        self = _PREFIXED.get(pair)
        if self is None:
            self = _PREFIXED[pair] = object.__new__(cls)
            self.action = action
            self.body = body
            self.size = 1 + body.size
            # Size leads the key so small terms order first; acceptance
            # rendering depends on this (b.0 sorts before a.c.0).
            self.key = (self.size, action.name, action.polarity, body.key)
        return self

    def __reduce__(self):
        return PrefixedTerm, (self.action, self.body)

    def __repr__(self):
        return f"PrefixedTerm({render(self)!r})"


class Process(Keyed):
    """Replicated components in parallel with a finite part.

    ``replicated`` holds the prefixed terms under a bang, ``finite`` the rest.
    Both are multisets; the bang itself carries no prefix, so the size of a
    process counts prefixes only.
    """

    __slots__ = ("replicated", "finite", "size")

    def __new__(cls, replicated: Iterable[PrefixedTerm] = (),
                finite: Union[FiniteProcess, Iterable[PrefixedTerm]] = ()):
        reps = tuple(sorted(replicated, key=_KEY))
        if not isinstance(finite, FiniteProcess):
            finite = FiniteProcess(finite)
        pair = (reps, finite)
        self = _PROCESSES.get(pair)
        if self is None:
            self = _PROCESSES[pair] = object.__new__(cls)
            self.replicated = reps
            self.finite = finite
            self.size = sum(t.size for t in reps) + finite.size
            self.key = (tuple(t.key for t in reps), finite.key)
        return self

    def __reduce__(self):
        return Process, (self.replicated, self.finite)

    def is_finite(self) -> bool:
        return not self.replicated

    def is_nil(self) -> bool:
        return not self.replicated and self.finite.is_nil()

    def __repr__(self):
        return f"Process({render(self)!r})"


# The intern tables: the live term of each construction key.  Weak, so an
# entry dies with its term; not memo tables, so ``clear_caches`` keeps them.
_ACTIONS = WeakValueDictionary()
_FINITES = WeakValueDictionary()
_PREFIXED = WeakValueDictionary()
_PROCESSES = WeakValueDictionary()

NIL_FINITE = FiniteProcess(())


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
        try:
            act = Action(m.group(), polarity)
        except ValueError as exc:  # a reserved name
            raise StructureError(str(exc), self.pos) from None
        self.pos = m.end()
        return act

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
    StructureError on grammar-constraint violations and on nesting too deep
    for the recursive parser.
    """
    check_mode(mode)
    p = _Parser(text, mode)
    p.skip_ws()
    if p.peek() == "":
        raise p.error("empty input")
    try:
        result = p.process(top_level=True)
    except RecursionError:  # the parser recurses once per nesting level
        raise StructureError("term nested too deeply") from None
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
    """Deterministic concrete syntax; components in structural-key order.

    Raises StructureError on nesting too deep for the recursive renderer.
    """
    try:
        if isinstance(term, PrefixedTerm):
            return _render_prefixed(term)
        if isinstance(term, FiniteProcess):
            if term.is_nil():
                return "0"
            return " | ".join(_render_prefixed(c) for c in term.components)
        parts = ["!" + _render_prefixed(t) for t in term.replicated]
        parts.extend(_render_prefixed(c) for c in term.finite.components)
        return " | ".join(parts) if parts else "0"
    except RecursionError:  # one frame per nesting level
        raise StructureError("term nested too deeply") from None


# ---------------------------------------------------------------------------
# Renamings

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
# Paths


@dataclass(frozen=True)
class Path:
    """A place in a process: a top multiset, or one occurrence and its body.

    ``rep_index`` picks the body of a replicated component (never the
    replicated prefix itself), None the finite part; ``steps`` then picks a
    component at each multiset level.  Empty steps name that top multiset;
    otherwise the last index names an occurrence, whose body is the
    multiset ``edit_multiset`` edits.
    """

    rep_index: Optional[int]
    steps: tuple

    @property
    def area(self) -> str:
        return "finite" if self.rep_index is None else "replicated"


def occurrences(p: Process) -> Iterator[tuple]:
    """Yield (Path, PrefixedTerm) for every addressable occurrence in ``p``."""

    def walk(fp: FiniteProcess, rep_index, prefix: tuple):
        for i, c in enumerate(fp.components):
            steps = prefix + (i,)
            yield Path(rep_index, steps), c
            yield from walk(c.body, rep_index, steps)

    yield from walk(p.finite, None, ())
    for r, t in enumerate(p.replicated):
        yield from walk(t.body, r, ())


def _at(items, i: int):
    if not 0 <= i < len(items):
        raise IndexError("path does not match process")
    return items[i]


def _top(p: Process, rep_index: Optional[int]) -> FiniteProcess:
    return p.finite if rep_index is None else _at(p.replicated, rep_index).body


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


def _edit(p: Process, rep_index: Optional[int], steps: tuple,
          edit: Callable[[list], None]) -> Process:
    if rep_index is None:
        return Process(p.replicated, _edit_finite(p.finite, steps, edit))
    reps = list(p.replicated)
    t = _at(reps, rep_index)
    reps[rep_index] = PrefixedTerm(t.action, _edit_finite(t.body, steps, edit))
    return Process(reps, p.finite)


def edit_multiset(p: Process, path: Path,
                  edit: Callable[[list], None]) -> Process:
    """Rebuild p after ``edit`` mutates the component list of the multiset
    ``path`` names; IndexError if none matches."""
    return _edit(p, path.rep_index, path.steps, edit)


def _multiset(p: Process, path: Path) -> FiniteProcess:
    """The multiset ``edit_multiset`` would edit; IndexError if none."""
    return resolve(p, path).body if path.steps else _top(p, path.rep_index)


def resolve(p: Process, path: Path) -> PrefixedTerm:
    """The occurrence a path addresses in ``p``; IndexError if none."""
    if not path.steps:
        raise IndexError("path does not match process")
    fp = _top(p, path.rep_index)
    for i in path.steps:
        t = _at(fp.components, i)
        fp = t.body
    return t


def delete_at(p: Process, path: Path) -> Process:
    """Replace the addressed occurrence by nil (drop it from its multiset)."""
    if not path.steps:
        raise IndexError("path does not match process")
    i = path.steps[-1]

    def drop(comps: list):
        _at(comps, i)
        del comps[i]

    return _edit(p, path.rep_index, path.steps[:-1], drop)
