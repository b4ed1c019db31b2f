"""In-process tracing of the ccseed layers, installed from outside the package.

Every wrapped function is replaced on every ``ccseed`` module attribute bound
to it, because ``rewrite``, ``lts``, ``oracle`` and ``cli`` import names such
as ``canonicalize`` and ``successors`` directly: patching only the defining
module would miss most calls.  Term constructors are wrapped on the classes.

Coarse boundaries record one span each (name, start, end, parent span, item
id), kept in memory and written out by ``write_spans``.  Fine-grained hot
calls (hundreds of thousands per run) keep only counts and accumulated time.
Both kinds sit on one frame stack, so each frame's duration is charged to the
frame that encloses it and self time = duration - child time.
"""

from __future__ import annotations

import itertools
import json
from time import perf_counter


def _process_arg(args, kwargs):
    return args[0] if args else kwargs["p"]


def _state_arg(args, kwargs):
    mode = args[1] if len(args) > 1 else kwargs.get("mode", "base")
    return (_process_arg(args, kwargs), mode)


# (metric name, module, attribute, records a span, distinct-argument key)
FUNCTIONS = [
    ("syntax.parse", "syntax", "parse", True, None),
    ("syntax.render", "syntax", "render", True, None),
    ("congruence.canonicalize", "congruence", "canonicalize", False,
     _process_arg),
    ("lts.successors", "lts", "successors", False, _state_arg),
    ("rewrite.compute_seed", "rewrite", "compute_seed", True, None),
    ("rewrite.convertible", "rewrite", "convertible", True, None),
    ("oracle.bounded_bisim", "oracle", "bounded_bisim", True, None),
    ("cli.main", "cli", "main", True, None),
]
CONSTRUCTED = ("Process", "FiniteProcess", "PrefixedTerm")
CONSTRUCT = "syntax.construct"


class Tracer:
    def __init__(self):
        self.stack = []        # frames: [start, child seconds, span id]
        self.stats = {}        # name -> [calls, self seconds, errors]
        self.distinct = {}     # name -> set of distinct argument keys
        self.spans = []        # (id, name, start, end, parent id, item id)
        self.item = None
        self.seed_results = {}   # id -> distinct SeedResult returned
        self._ids = itertools.count()
        self._undo = []

    def _wrap(self, name, fn, span, key):
        stats = self.stats.setdefault(name, [0, 0.0, 0])
        seen = self.distinct.setdefault(name, set()) if key else None
        stack = self.stack
        spans = self.spans
        ids = self._ids
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1][2] if stack else None
            sid = next(ids) if span else parent
            frame = [perf_counter(), 0.0, sid]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stats[2] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[0]
                stats[0] += 1
                stats[1] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if seen is not None:
                    seen.add(key(args, kwargs))
                if span:
                    spans.append((sid, name, frame[0], end, parent,
                                  tracer.item))

        return wrapper

    def install(self, lib):
        """Wrap the traced functions on every module attribute bound to them.

        ``lib`` has the loaded ccseed modules as attributes ("syntax",
        "rewrite", ...) and lists every loaded ccseed module in ``lib.all``.
        """
        for name, mod, attr, span, key in FUNCTIONS:
            orig = getattr(getattr(lib, mod), attr)
            wrapper = self._wrap(name, orig, span, key)
            if attr == "compute_seed":
                wrapper = self._collect_seed_results(wrapper)
            for module in lib.all:
                for bound, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, bound, wrapper)
                        self._undo.append((module, bound, orig))
        for cls_name in CONSTRUCTED:
            cls = getattr(lib.syntax, cls_name)
            orig = cls.__init__
            cls.__init__ = self._wrap(CONSTRUCT, orig, False, None)
            self._undo.append((cls, "__init__", orig))

    def _collect_seed_results(self, fn):
        # A cached SeedResult comes back as the same object; keyed by id it
        # counts once, so the sum is the candidates actually checked.
        results = self.seed_results

        def wrapper(*args, **kwargs):
            res = fn(*args, **kwargs)
            results.setdefault(id(res), res)
            return res

        return wrapper

    def uninstall(self):
        for target, bound, orig in reversed(self._undo):
            setattr(target, bound, orig)
        self._undo.clear()

    def layer_metrics(self) -> dict:
        """calls / self_s / errors per wrapped function plus derived counts."""
        out = {}
        for name, (calls, self_s, errors) in self.stats.items():
            if name == CONSTRUCT:
                out["syntax.terms_built"] = calls
            else:
                out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            out[f"{name}.errors"] = errors
        canon = self.stats["congruence.canonicalize"][0]
        out["congruence.canonicalize.repeat_ratio"] = (
            1 - len(self.distinct["congruence.canonicalize"]) / canon
            if canon else 0.0)
        out["lts.successors.distinct_states"] = len(
            self.distinct["lts.successors"])
        checked = sum(r.candidates_checked for r in self.seed_results.values())
        out["rewrite.candidates_checked"] = checked
        out["rewrite.seeds_per_candidate"] = (
            len(self.seed_results) / checked if checked else 0.0)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, item in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "item": item}) + "\n")
