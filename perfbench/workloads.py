"""The three benchmark workloads: inputs, the timed call, and its checks.

Inputs come from ``ccseed.corpus`` and depend only on the seed and the item
index, so a shorter run checks a prefix of a longer one.  Item ``k`` takes
its size and kind from ``k`` in a fixed cycle, which keeps the mix of sizes
and kinds the same in every seed and every stretch of the run.  All inputs
of a run are distinct terms (pairs: distinct pairs).

Each workload has
  ``rate``                    items per second of ``--seconds`` (fixed work);
  ``items(lib, rng)``         the endless stream of inputs (set-up);
  ``generate(lib, rng, n)``   its first n inputs;
  ``run(lib, item)``          the timed call, returning its output;
  ``golden(lib, item, out)``  the entry compared against expected/;
  ``check(lib, item, out)``   independent checks, run after the timed loop;
                              returns a failure reason or None;
  ``properties``              the input-property report.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
from collections import Counter

GAME_DEPTH = 6
MAX_TRIES = 5


def _digest(text: str, length: int = 12) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:length]


def _redundant(lib, rng, p, max_size):
    """A distinct behaviour-preserving fattening of p of size <= max_size."""
    for _ in range(MAX_TRIES):
        q = lib.corpus.make_redundant(rng, p)
        if q != p and q.size <= max_size:
            return q
    return None


def _pair_properties(items, distinguished, different):
    sizes = Counter()
    for it in items:
        sizes[it["p"].size] += 1
        sizes[it["q"].size] += 1
    n = len(items)
    return {
        "size_histogram": dict(sorted(sizes.items())),
        "replication_free_share": sum(
            it["p"].is_finite() and it["q"].is_finite() for it in items) / n,
        "bisimilar_by_construction_share": sum(
            it["by_construction"] for it in items) / n,
        "distinguished_share": distinguished / n,
        "seeds_differ_share": different / n,
    }


class Workload:
    def generate(self, lib, rng, n):
        return list(itertools.islice(self.items(lib, rng), n))


class SeedRep(Workload):
    """compute_seed on distinct random base-mode processes over 3 actions.

    Sizes 8-12 in a fixed cycle; one item in eight is generated without
    replication.  Time goes to ``rewrite`` (descendant enumeration and one
    guided search per candidate) and term construction; ``oracle`` and
    ``parse`` never run, so game and CLI changes should not move it.
    From size 13 on single seeds take over 1.5 s, and a run's figures would
    depend on which of those rare inputs a seed draws.
    """

    name = "seed-rep"
    rate = 66
    SIZES = range(8, 13)

    def items(self, lib, rng):
        acts = lib.corpus.default_actions(3)
        seen = set()
        k = 0
        while True:
            size = self.SIZES[k % len(self.SIZES)]
            replication = (k // len(self.SIZES)) % 8 != 7
            p = lib.corpus.random_process(rng, size, acts,
                                          replication=replication)
            if p.key not in seen:
                seen.add(p.key)
                k += 1
                yield {"p": p}

    def run(self, lib, item):
        return lib.rewrite.compute_seed(item["p"])

    def golden(self, lib, item, out):
        return [_digest(lib.syntax.render(item["p"])),
                lib.syntax.render(out.seed)]

    def check(self, lib, item, out):
        game = lib.oracle.bounded_bisim(item["p"], out.seed,
                                        lib.oracle.GameConfig(depth=GAME_DEPTH))
        if not game.equivalent:
            return "seed is not game-equivalent to its process at depth 6"
        if out.seed.size > item["p"].size:
            return "seed is larger than its process"
        return None

    def distinguished(self, outs):
        return 0, 0

    def properties(self, lib, items, outs):
        sizes = Counter(it["p"].size for it in items)
        n = len(items)
        return {
            "size_histogram": dict(sorted(sizes.items())),
            "replication_free_share": sum(
                it["p"].is_finite() for it in items) / n,
            "bisimilar_by_construction_share": None,
            "distinguished_share": None,
            "seed_smaller_share": sum(
                o is not None and o.seed.size < it["p"].size
                for it, o in zip(items, outs)) / n,
        }


def _replicated_synchronise(p) -> bool:
    """Two replicated components of p have co-named prefixes (a and ~a)."""
    acts = {t.action for t in p.replicated}
    return any(a.co() in acts for a in acts)


class CheckSync(Workload):
    """``ccs check --sync --oracle`` as library calls, over a, ~a, b, ~b.

    Sizes 3-6 on both sides.  Items alternate in blocks of four: pairs
    bisimilar by construction (``make_redundant``) and independent random
    pairs.  Each pair runs ``convertible`` and then the depth-6 sync game,
    so ``oracle`` and ``lts`` (tau successors) take most of the time.

    From size 7 on a few pairs in a thousand take 0.2-1.3 s, and which of
    them a seed draws moved throughput and tail latency by a fifth between
    seeds; small pairs, many of them, keep a run's figures steady.

    No input has two replicated components with co-named prefixes.  Such a
    pair fires tau forever, spawning new material at every step, and the
    depth-6 game on some of these inputs runs for minutes (one in a few
    thousand pairs; for example ``!a.0 | !a.0 | !a.0 | !~b.~a.0 |
    !b.~b.a.0 | ~b.0`` against ``!~b.0 | !a.a.0 | !b.b.0 | !~b.~a.0 | a.0 |
    ~b.0`` does not finish depth 3 in two minutes), which no run could
    finish.  A faster game should bring them back as a workload of their own.
    """

    name = "check-sync"
    rate = 400
    SIZES = range(3, 7)

    def items(self, lib, rng):
        acts = lib.corpus.default_actions(4, "sync")
        seen = set()
        k = 0
        while True:
            size = self.SIZES[k % len(self.SIZES)]
            by_construction = (k // len(self.SIZES)) % 2 == 0
            p = lib.corpus.random_process(rng, size, acts)
            if _replicated_synchronise(p):
                continue
            if by_construction:
                q = _redundant(lib, rng, p, self.SIZES[-1])
                if q is None:
                    continue
            else:
                q = lib.corpus.random_process(rng, size, acts)
                if _replicated_synchronise(q):
                    continue
            if (p.key, q.key) not in seen:
                seen.add((p.key, q.key))
                k += 1
                yield {"p": p, "q": q, "by_construction": by_construction}

    def run(self, lib, item):
        conv = lib.rewrite.convertible(item["p"], item["q"])
        game = lib.oracle.bounded_bisim(
            item["p"], item["q"],
            lib.oracle.GameConfig(depth=GAME_DEPTH, mode="sync"))
        return conv, game

    def golden(self, lib, item, out):
        conv, game = out
        text = lib.syntax.render(item["p"]) + " ; " + lib.syntax.render(item["q"])
        return [_digest(text), conv.equivalent, game.equivalent]

    def check(self, lib, item, out):
        conv, game = out
        if item["by_construction"] and not conv.equivalent:
            return "pair bisimilar by construction reported different"
        if conv.equivalent and not game.equivalent:
            return "convertible pair distinguished by the game"
        if game.distinguisher is not None and not lib.oracle.replay_distinguisher(
                item["p"], item["q"], game.distinguisher, "sync"):
            return "distinguisher does not replay"
        return None

    def distinguished(self, outs):
        outs = [o for o in outs if o is not None]
        return (sum(g.distinguisher is not None for c, g in outs
                    if not c.equivalent),
                sum(not c.equivalent for c, g in outs))

    def properties(self, lib, items, outs):
        hit, different = self.distinguished(outs)
        return _pair_properties(items, hit, different)


class CliCheck(Workload):
    """``cli.main(["check", l, r, "--json"])`` in-process on rendered pairs.

    Base mode over a, b.  Every fourth pair is replication-free with sizes
    10-14, where the seed is just the canonical form; the rest have sizes
    5-9.  Half the pairs are bisimilar by construction and share structure.
    The only workload that runs ``parse``, ``render`` and ``cli``.
    """

    name = "cli-check"
    rate = 66
    SIZES = {True: range(10, 15), False: range(5, 10)}

    def items(self, lib, rng):
        acts = lib.corpus.default_actions(2)
        render = lib.syntax.render
        seen = set()
        k = 0
        while True:
            rep_free = k % 4 == 3
            by_construction = (k // 4) % 2 == 0
            sizes = self.SIZES[rep_free]
            size = sizes[(k // 8) % len(sizes)]
            p = lib.corpus.random_process(rng, size, acts,
                                          replication=not rep_free)
            if by_construction:
                q = _redundant(lib, rng, p, sizes[-1])
                if q is None:
                    continue
            else:
                q = lib.corpus.random_process(rng, size, acts,
                                              replication=not rep_free)
            if (p.key, q.key) not in seen:
                seen.add((p.key, q.key))
                k += 1
                yield {"p": p, "q": q, "left": render(p), "right": render(q),
                       "by_construction": by_construction}

    def run(self, lib, item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = lib.cli.main(["check", item["left"], item["right"],
                                 "--json"])
        return code, buf.getvalue()

    def golden(self, lib, item, out):
        code, stdout = out
        return [_digest(item["left"] + " ; " + item["right"]), code,
                _digest(stdout, 16)]

    def _distinguisher(self, lib, doc):
        moves = []
        for mv in doc["moves"]:
            label = (lib.lts.TAU if mv["label"] == "tau" else
                     lib.lts.Label(lib.syntax.Action(mv["label"])))
            succ = lib.congruence.canonicalize(
                lib.syntax.parse(mv["successor"]))
            moves.append(lib.oracle.Move(mv["side"], label, succ))
        return lib.oracle.Distinguisher(tuple(moves))

    def check(self, lib, item, out):
        code, stdout = out
        doc = json.loads(stdout)
        if code != (0 if doc["equivalent"] else 1):
            return f"exit code {code} does not match the verdict"
        if item["by_construction"] and not doc["equivalent"]:
            return "pair bisimilar by construction reported different"
        p = lib.syntax.parse(item["left"])
        q = lib.syntax.parse(item["right"])
        if doc["equivalent"]:
            game = lib.oracle.bounded_bisim(
                p, q, lib.oracle.GameConfig(depth=GAME_DEPTH))
            if not game.equivalent:
                return "convertible pair distinguished by the game"
        if "distinguisher" in doc and not lib.oracle.replay_distinguisher(
                p, q, self._distinguisher(lib, doc["distinguisher"])):
            return "distinguisher does not replay"
        return None

    def distinguished(self, outs):
        docs = [json.loads(o[1]) for o in outs if o is not None]
        return (sum("distinguisher" in d for d in docs
                    if not d["equivalent"]),
                sum(not d["equivalent"] for d in docs))

    def properties(self, lib, items, outs):
        hit, different = self.distinguished(outs)
        return _pair_properties(items, hit, different)


WORKLOADS = {w.name: w for w in (SeedRep(), CheckSync(), CliCheck())}
