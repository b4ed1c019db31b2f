"""Independent oracles for the rewriting decision procedure.

``finite_bisim`` decides strong bisimilarity of finite processes exactly, by
interning recursive transition signatures over the raw multiset terms; it
never consults the congruence machinery, so it can sit on the other side of
a cross-check.  ``bounded_bisim`` plays the k-round bisimulation game on
arbitrary processes (states identified up to the congruence, a sound up-to
technique here) and produces a replayable distinguisher on failure.
``dis_check`` and ``purg_check`` decide the two finite-process predicates
the theory leans on.  ``lemma_suite`` fuzzes the lot and reports hypothesis
hits so vacuous passes are visible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import corpus
from .congruence import canonical_finite, canonicalize, process_of
from .lts import DEFAULT_DEPTH_CAP, DepthExceeded, Label, TAU, successors
from .rewrite import compute_seed, convertible
from .syntax import (INPUT, OUTPUT, FiniteProcess, PrefixedTerm,
                     Process, apply_substitution, render)

__all__ = [
    "GameConfig", "GameResult", "Move", "Distinguisher",
    "finite_bisim", "bounded_bisim", "replay_distinguisher",
    "dis_check", "purg_check",
    "finite_partition", "bounded_partition",
    "PropertyStats", "SuiteReport", "lemma_suite", "lemma_suite_sharded",
]


def _as_finite(f: Union[FiniteProcess, Process]) -> FiniteProcess:
    if isinstance(f, FiniteProcess):
        return f
    if isinstance(f, Process):
        if f.replicated:
            raise ValueError("expected a finite process")
        return f.finite
    raise TypeError(f"not a process: {f!r}")


# ---------------------------------------------------------------------------
# Exact bisimilarity on finite processes (congruence-free engine)

def _finite_successors(fp: FiniteProcess, mode: str) -> tuple:
    comps = fp.components
    out = {}
    for i, c in enumerate(comps):
        if i and c == comps[i - 1]:
            continue
        dest = FiniteProcess(comps[:i] + comps[i + 1:] + c.body.components)
        out[((0, c.action.key), dest.key)] = (Label(c.action), dest)
    if mode == "sync":
        for i, c1 in enumerate(comps):
            for j in range(i + 1, len(comps)):
                c2 = comps[j]
                if (c1.action.name == c2.action.name and
                        {c1.action.polarity, c2.action.polarity} == {INPUT, OUTPUT}):
                    rest = comps[:i] + comps[i + 1:j] + comps[j + 1:]
                    dest = FiniteProcess(rest + c1.body.components
                                         + c2.body.components)
                    out[((1, None), dest.key)] = (TAU, dest)
    return tuple(out.values())


_FIN_CLASS: dict = {}
_FIN_INTERN: dict = {}


def _finite_class(fp: FiniteProcess, mode: str) -> int:
    key = (fp, mode)
    got = _FIN_CLASS.get(key)
    if got is not None:
        return got
    sig = frozenset((lab.key, _finite_class(dest, mode))
                    for lab, dest in _finite_successors(fp, mode))
    cid = _FIN_INTERN.setdefault((mode, sig), len(_FIN_INTERN))
    _FIN_CLASS[key] = cid
    return cid


def finite_bisim(f1, f2, mode: str = "base") -> bool:
    """Exact strong bisimilarity of two finite processes."""
    return (_finite_class(_as_finite(f1), mode)
            == _finite_class(_as_finite(f2), mode))


def finite_partition(fps: Sequence[FiniteProcess], mode: str = "base") -> dict:
    """fp -> bisimilarity class id, for a whole corpus at once."""
    return {fp: _finite_class(fp, mode) for fp in fps}


# ---------------------------------------------------------------------------
# Bounded game on arbitrary processes


@dataclass(frozen=True)
class GameConfig:
    depth: int = 6
    mode: str = "base"
    cap: int = DEFAULT_DEPTH_CAP


@dataclass(frozen=True)
class Move:
    side: str                # "left" or "right": where the attacker moved
    label: Label
    successor: Process       # the attacker's chosen successor, canonical


@dataclass(frozen=True)
class Distinguisher:
    """An attacker move sequence that wins against every defender reply.

    Replaying keeps, besides the attacker's current process, the set of all
    processes the defender may have reached; the defender loses when that
    set empties before the moves run out.
    """

    moves: Tuple[Move, ...]


@dataclass(frozen=True)
class GameResult:
    equivalent: bool
    depth: int
    distinguisher: Optional[Distinguisher] = None


_GAME: dict = {}


def _grouped(p: Process, mode: str) -> dict:
    g: dict = {}
    for lab, dest in successors(p, mode):
        g.setdefault(lab.key, []).append(dest)
    return g


def _game_eq(p: Process, q: Process, d: int, mode: str) -> bool:
    if p == q or d == 0:
        return True
    if p.key > q.key:
        p, q = q, p
    mk = (p, q, d, mode)
    got = _GAME.get(mk)
    if got is not None:
        return got
    gp, gq = _grouped(p, mode), _grouped(q, mode)
    result = set(gp) == set(gq)
    if result:
        for lab, ps in gp.items():
            qs = gq[lab]
            if not all(any(_game_eq(x, y, d - 1, mode) for y in qs) for x in ps):
                result = False
                break
            if not all(any(_game_eq(x, y, d - 1, mode) for x in ps) for y in qs):
                result = False
                break
    _GAME[mk] = result
    return result


def _witness(single: Process, others: tuple, d: int, single_side: str,
             mode: str, memo: dict):
    """Moves forcing every process in ``others`` stuck within d rounds.

    The attacker moves on the single side first; against a lone other
    process it may also move there, with ``single`` as the defender.
    """
    if d == 0:
        return None
    key = (single, others, d, single_side)
    if key in memo:
        return memo[key]
    attacks = [(single, others, single_side)]
    if len(others) == 1:
        other_side = "right" if single_side == "left" else "left"
        attacks.append((others[0], (single,), other_side))
    for attacker, defenders, side in attacks:
        for lab, succ in successors(attacker, mode):
            alive = sorted({y for o in defenders
                            for l, y in successors(o, mode) if l == lab})
            sub = _witness(succ, tuple(alive), d - 1, side, mode,
                           memo) if alive else ()
            if sub is not None:
                memo[key] = result = (Move(side, lab, succ),) + sub
                return result
    memo[key] = None
    return None


def bounded_bisim(p: Process, q: Process,
                  cfg: GameConfig = GameConfig()) -> GameResult:
    """Play the k-round game; distinguished results carry a witness."""
    if cfg.depth < 0:
        raise ValueError("depth must be non-negative")
    if cfg.depth > cfg.cap:
        raise DepthExceeded(f"depth {cfg.depth} exceeds cap {cfg.cap}")
    cp, cq = canonicalize(process_of(p)), canonicalize(process_of(q))
    if _game_eq(cp, cq, cfg.depth, cfg.mode):
        return GameResult(True, cfg.depth)
    memo: dict = {}
    dist = None
    for d in range(1, max(cfg.depth, cfg.cap) + 1):
        moves = _witness(cp, (cq,), d, "left", cfg.mode, memo)
        if moves is not None:
            dist = Distinguisher(moves)
            break
    return GameResult(False, cfg.depth, dist)


def replay_distinguisher(p: Process, q: Process, dist: Distinguisher,
                         mode: str = "base") -> bool:
    """Check a distinguisher: every defender branch must die before the end."""

    def run(single: Process, others: tuple, single_side: str,
            moves: tuple) -> bool:
        if not others:
            return True
        if not moves:
            return False
        mv = moves[0]
        if mv.side == single_side:
            if (mv.label, mv.successor) not in successors(single, mode):
                return False
            alive = sorted({y for o in others
                            for l, y in successors(o, mode) if l == mv.label})
            return run(mv.successor, tuple(alive), single_side, moves[1:])
        if len(others) != 1:
            return False
        if (mv.label, mv.successor) not in successors(others[0], mode):
            return False
        alive = sorted({y for l, y in successors(single, mode)
                        if l == mv.label})
        return run(mv.successor, tuple(alive), mv.side, moves[1:])

    return run(canonicalize(process_of(p)), (canonicalize(process_of(q)),),
               "left", dist.moves)


def bounded_partition(procs: Sequence[Process], depth: int,
                      mode: str = "base") -> dict:
    """process -> class id of k-round equivalence, over a whole corpus.

    Signature refinement stratified by remaining depth; agrees with
    ``bounded_bisim`` verdicts pairwise (the suites cross-check this).
    """
    memo: dict = {}
    intern: dict = {}

    def cls(p: Process, d: int) -> int:
        if d == 0:
            return 0
        k = (p, d)
        got = memo.get(k)
        if got is None:
            sig = frozenset((lab.key, cls(dest, d - 1))
                            for lab, dest in successors(p, mode))
            got = intern.setdefault((d, sig), len(intern))
            memo[k] = got
        return got

    return {p: cls(canonicalize(p), depth) for p in procs}


# ---------------------------------------------------------------------------
# The dis / purg predicates


def _require_replicated_only(s: Process) -> Process:
    s = canonicalize(process_of(s))
    if s.finite.components:
        raise ValueError("expected a process with replicated components only")
    return s


def dis_check(s: Process, f: Union[FiniteProcess, Process]) -> bool:
    """No derivative of f is congruent to a replicated body of s.

    Equivalently: f contains no sub-behaviour the replicated components of s
    could have spawned as a guarded copy.
    """
    s = _require_replicated_only(s)
    targets = {canonicalize(process_of(t)).key for t in s.replicated}
    if not targets:
        return True
    start = canonicalize(process_of(_as_finite(f)))
    if start.key in targets:
        return False
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for _lab, dest in successors(x, "base"):
                if dest not in seen:
                    if dest.key in targets:
                        return False
                    seen.add(dest)
                    nxt.append(dest)
        frontier = nxt
    return True


def purg_check(s: Process, r: Union[FiniteProcess, Process]) -> bool:
    """r is a residue s can spawn: s reaches s | r in at least one step.

    Spawned copies evolve independently, so this holds exactly when the
    parallel components of r partition into groups, each group a derivative
    of some replicated body of s; r = 0 needs one fully exhausted copy.
    """
    s = _require_replicated_only(s)
    if not s.replicated:
        return False
    rc = canonical_finite(_as_finite(r))
    if rc.is_nil():
        return True
    deriv_keys = set()
    for t in set(s.replicated):
        start = canonicalize(Process((), t.body))
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            deriv_keys.add(x.key)
            for _lab, dest in successors(x, "base"):
                if dest not in seen:
                    seen.add(dest)
                    stack.append(dest)
    memo: dict = {}

    def can_split(comps: tuple) -> bool:
        if not comps:
            return True
        got = memo.get(comps)
        if got is not None:
            return got
        first, rest = comps[0], comps[1:]
        m = len(rest)
        ok = False
        for mask in range(1 << m):
            group = [first] + [rest[i] for i in range(m) if mask >> i & 1]
            if Process((), FiniteProcess(group)).key in deriv_keys:
                remaining = tuple(rest[i] for i in range(m)
                                  if not mask >> i & 1)
                if can_split(remaining):
                    ok = True
                    break
        memo[comps] = ok
        return ok

    return can_split(rc.components)


# ---------------------------------------------------------------------------
# Property suite


@dataclass
class PropertyStats:
    instances: int = 0
    hits: int = 0
    counterexamples: List[dict] = field(default_factory=list)

    def probe(self, hit: bool) -> bool:
        self.instances += 1
        if hit:
            self.hits += 1
        return hit

    def fail(self, **info) -> None:
        self.counterexamples.append(info)

    @property
    def ok(self) -> bool:
        return not self.counterexamples


@dataclass
class SuiteReport:
    seed: int
    mode: str
    properties: Dict[str, PropertyStats]

    @property
    def ok(self) -> bool:
        """Counterexample-free; an empty run passes vacuously."""
        return all(st.ok for st in self.properties.values())

    @property
    def all_hypotheses_hit(self) -> bool:
        return all(st.hits > 0 for st in self.properties.values())

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "mode": self.mode,
            "ok": self.ok,
            "allHypothesesHit": self.all_hypotheses_hit,
            "properties": {
                name: {"instances": st.instances, "hits": st.hits,
                       "counterexamples": st.counterexamples}
                for name, st in self.properties.items()
            },
        }


def _pp(p) -> str:
    return render(canonicalize(process_of(p)))


def _random_replicated_seed(rng: random.Random, actions,
                            max_size: int) -> Optional[Process]:
    p = corpus.random_process(rng, rng.randint(1, max_size), actions)
    p = Process(p.replicated + p.finite.components, ())
    sd = compute_seed(p).seed
    if sd.replicated and not sd.finite.components:
        return sd
    return None


def _random_residue(rng: random.Random, s: Process) -> FiniteProcess:
    parts: list = []
    terms = [t for t in s.replicated if t.body.size] or list(s.replicated)
    for _ in range(rng.randint(1, 2)):
        t = rng.choice(terms)
        state = canonicalize(Process((), t.body))
        for _step in range(rng.randint(0, max(0, t.body.size - 1))):
            succ = successors(state, "base")
            if not succ:
                break
            state = rng.choice(succ)[1]
        parts.extend(state.finite.components)
    return FiniteProcess(parts)


def lemma_suite(seed: int = 0, rounds: int = 120, max_size: int = 5,
                action_count: int = 2, mode: str = "base",
                game_depth: int = 6) -> SuiteReport:
    """Fuzz the supporting laws; report hits and counterexamples.

    Every generated instance is derived from ``seed`` only, so failures
    replay.  Hypothesis-laden properties mix constructive instances (the
    hypothesis holds by construction) with random probes.
    """
    rng = random.Random(seed)
    actions = corpus.default_actions(action_count, mode)
    names = sorted({a.name for a in actions})
    cfg = GameConfig(depth=game_depth, mode=mode)
    props: Dict[str, PropertyStats] = {
        name: PropertyStats() for name in (
            "hole_copy_absorption",
            "bang_absorbs_matched_prefix",
            "seed_finite_part_disjoint",
            "absorbed_residue_is_nil",
            "replicated_parts_cancel_finite",
            "finite_parts_cancel_under_dis",
            "seed_decision_matches_game",
            "seed_unique_across_orders",
            "substitution_closure",
            "predicates_closed_under_steps",
            "witness_replays",
        )
    }

    for round_no in range(rounds):
        constructive = round_no % 2 == 0

        # --- a context equivalent to !a.F | P absorbs a.F at its hole
        st = props["hole_copy_absorption"]
        act = rng.choice(actions)
        body = corpus.random_finite(rng, rng.randint(0, 3), actions)
        rep_term = PrefixedTerm(act, body)
        if constructive:
            base = corpus.random_process(rng, rng.randint(0, max_size), actions)
            base = Process(base.replicated + (rep_term,), base.finite)
            slot = rng.choice(corpus.multiset_slots(base))
            ctx = corpus.Context(base, slot[0], slot[1], slot[2])
            remainder = list(base.replicated)
            remainder.remove(rep_term)
            partner = Process(remainder, base.finite)
        else:
            ctx = corpus.random_context(rng, rng.randint(0, max_size), actions)
            partner = corpus.random_process(rng, rng.randint(0, max_size),
                                            actions)
        held = convertible(ctx.plug(()),
                           corpus.compose(Process((rep_term,), ()),
                                          partner)).equivalent
        if st.probe(held):
            filled = ctx.plug((rep_term,))
            hole_nil = ctx.plug(())
            if not (convertible(hole_nil, filled).equivalent
                    and _game_eq(canonicalize(hole_nil), canonicalize(filled),
                                 game_depth, mode)):
                st.fail(context=_pp(ctx.base), copy=_pp(rep_term),
                        partner=_pp(partner))

        # --- a replicated soup absorbs any prefixed component it is
        # equivalent to alongside
        st = props["bang_absorbs_matched_prefix"]
        soup_fin = corpus.random_finite(rng, rng.randint(1, max_size), actions)
        soup = Process(soup_fin.components, ())
        if constructive:
            comp = rng.choice(soup_fin.components)
            partner = soup
        else:
            comp = PrefixedTerm(rng.choice(actions),
                                corpus.random_finite(rng, rng.randint(0, 2),
                                                     actions))
            partner = corpus.random_process(rng, rng.randint(0, max_size),
                                            actions)
        held = convertible(soup,
                           corpus.compose(Process((), (comp,)),
                                          partner)).equivalent
        if st.probe(held):
            if not convertible(soup,
                               corpus.compose(soup,
                                              Process((), (comp,)))).equivalent:
                st.fail(soup=_pp(soup), component=_pp(comp),
                        partner=_pp(partner))

        # --- a seed's finite part never overlaps its replicated bodies
        st = props["seed_finite_part_disjoint"]
        p = corpus.random_process(rng, rng.randint(1, max_size + 2), actions)
        sd = compute_seed(p).seed
        if st.probe(bool(sd.replicated) and bool(sd.finite.components)):
            if not dis_check(Process(sd.replicated, ()), sd.finite):
                st.fail(process=_pp(p), seed=_pp(sd))

        # --- a non-nil spawnable residue is never absorbed
        st = props["absorbed_residue_is_nil"]
        sd = _random_replicated_seed(rng, actions, max_size)
        if sd is not None:
            residue = _random_residue(rng, sd)
            if not purg_check(sd, residue):
                st.probe(False)
                st.fail(seed=_pp(sd), residue=_pp(residue),
                        reason="constructed residue not recognised")
            elif st.probe(not residue.is_nil()):
                if convertible(sd, corpus.compose(
                        sd, Process((), residue))).equivalent:
                    st.fail(seed=_pp(sd), residue=_pp(residue))
        else:
            props["absorbed_residue_is_nil"].instances += 1

        # --- equivalence of full processes cancels to replicated parts
        st = props["replicated_parts_cancel_finite"]
        g = corpus.random_finite(rng, rng.randint(1, max_size), actions)
        g2 = corpus.random_finite(rng, rng.randint(0, 3), actions)
        p = Process(g.components, g2)
        q = corpus.make_redundant(rng, p, rng.randint(1, 3))
        if st.probe(convertible(p, q).equivalent):
            if not convertible(Process(p.replicated, ()),
                               Process(q.replicated, ())).equivalent:
                st.fail(left=_pp(p), right=_pp(q))

        # --- equivalence cancels finite parts when nothing overlaps
        st = props["finite_parts_cancel_under_dis"]
        sd = _random_replicated_seed(rng, actions, 3)
        f1 = extra = None
        if sd is not None:
            for _try in range(6):
                cand_x = PrefixedTerm(rng.choice(actions),
                                      corpus.random_finite(
                                          rng, rng.randint(0, 1), actions))
                cand = FiniteProcess(
                    corpus.random_finite(rng, rng.randint(0, 3),
                                         actions).components
                    + (cand_x, cand_x))
                if dis_check(sd, cand):
                    f1, extra = cand, cand_x
                    break
        if f1 is not None:
            folded = PrefixedTerm(extra.action,
                                  FiniteProcess(extra.body.components
                                                + (extra,)))
            comps = list(f1.components)
            comps.remove(extra)
            comps.remove(extra)
            f2 = FiniteProcess(comps + [folded])
            if dis_check(sd, f2):
                hyp = convertible(corpus.compose(sd, Process((), f1)),
                                  corpus.compose(sd, Process((), f2))).equivalent
                if st.probe(hyp):
                    if not finite_bisim(f1, f2, "base"):
                        st.fail(seed=_pp(sd), left=render(f1), right=render(f2))
            else:
                st.instances += 1
        else:
            st.instances += 1

        # --- the seed decision agrees with the bounded game
        st = props["seed_decision_matches_game"]
        p = corpus.random_process(rng, rng.randint(0, max_size + 2), actions)
        if constructive:
            q = corpus.make_redundant(rng, p, rng.randint(1, 2))
        else:
            q = corpus.random_process(rng, rng.randint(0, max_size + 2),
                                      actions)
        st.probe(True)
        conv = convertible(p, q).equivalent
        game = _game_eq(canonicalize(p), canonicalize(q), game_depth, mode)
        if conv and not game:
            st.fail(left=_pp(p), right=_pp(q), convertible=conv,
                    game_equivalent=game)

        # --- distinguished verdicts carry a replayable witness
        st = props["witness_replays"]
        if not conv:
            result = bounded_bisim(p, q, cfg)
            if st.probe(not result.equivalent):
                if (result.distinguisher is None
                        or not replay_distinguisher(p, q,
                                                    result.distinguisher,
                                                    mode)):
                    st.fail(left=_pp(p), right=_pp(q))
        else:
            st.instances += 1

        # --- both candidate-enumeration orders land on the same seed
        st = props["seed_unique_across_orders"]
        p = corpus.random_process(rng, rng.randint(0, max_size + 1), actions)
        st.probe(True)
        asc = compute_seed(p, order="asc").seed
        desc = compute_seed(p, order="desc").seed
        if asc != desc:
            st.fail(process=_pp(p), ascending=_pp(asc), descending=_pp(desc))

        # --- convertible pairs stay convertible under renamings
        st = props["substitution_closure"]
        p = corpus.random_process(rng, rng.randint(0, max_size), actions)
        q = corpus.make_redundant(rng, p, rng.randint(1, 2))
        if st.probe(convertible(p, q).equivalent):
            sigma = corpus.random_substitution(rng, names)
            if not convertible(apply_substitution(p, sigma),
                               apply_substitution(q, sigma)).equivalent:
                st.fail(left=_pp(p), right=_pp(q), renaming=sigma)

        # --- dis and purg are closed under transitions of their right side
        st = props["predicates_closed_under_steps"]
        sd = _random_replicated_seed(rng, actions, 3)
        if sd is not None:
            f = corpus.random_finite(rng, rng.randint(1, max_size), actions)
            checked = False
            if dis_check(sd, f):
                for _lab, dest in successors(Process((), f), "base"):
                    checked = True
                    if not dis_check(sd, dest.finite):
                        st.fail(seed=_pp(sd), start=render(f),
                                successor=_pp(dest), predicate="dis")
            residue = _random_residue(rng, sd)
            if purg_check(sd, residue):
                for _lab, dest in successors(Process((), residue), "base"):
                    checked = True
                    if not purg_check(sd, dest.finite):
                        st.fail(seed=_pp(sd), start=render(residue),
                                successor=_pp(dest), predicate="purg")
            st.probe(checked)
        else:
            st.instances += 1

    return SuiteReport(seed, mode, props)


def _suite_shard(args: tuple) -> SuiteReport:
    shard_seed, rounds, max_size, action_count, mode, game_depth = args
    return lemma_suite(shard_seed, rounds, max_size, action_count, mode,
                       game_depth)


def lemma_suite_sharded(seed: int = 0, rounds: int = 120, shards: int = 4,
                        max_size: int = 5, action_count: int = 2,
                        mode: str = "base", game_depth: int = 6,
                        parallel: bool = True) -> SuiteReport:
    """Split the suite across worker shards and merge the reports.

    Each shard draws from its own stream derived from ``seed``, every check
    is a pure function, and the merge is a shard-ordered sum, so the result
    is identical whether shards run in parallel or sequentially.
    """
    if shards < 1:
        raise ValueError("shards must be positive")
    shards = min(shards, rounds) or 1
    base, extra = divmod(rounds, shards)
    shard_args = [(seed * 1000003 + i, base + (1 if i < extra else 0),
                   max_size, action_count, mode, game_depth)
                  for i in range(shards)]
    reports = None
    if parallel and shards > 1:
        import concurrent.futures
        try:
            with concurrent.futures.ProcessPoolExecutor(shards) as pool:
                reports = list(pool.map(_suite_shard, shard_args))
        except OSError:
            reports = None
    if reports is None:
        reports = [_suite_shard(a) for a in shard_args]
    merged: Dict[str, PropertyStats] = {}
    for rep in reports:
        for name, st in rep.properties.items():
            acc = merged.setdefault(name, PropertyStats())
            acc.instances += st.instances
            acc.hits += st.hits
            acc.counterexamples.extend(st.counterexamples)
    return SuiteReport(seed, mode, merged)
