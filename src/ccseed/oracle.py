"""Independent oracles for the rewriting decision procedure.

``finite_bisim`` decides strong bisimilarity of finite processes exactly, by
interning recursive transition signatures over the raw multiset terms; it
never consults the congruence machinery, so it can sit on the other side of
a cross-check.  ``bounded_bisim`` plays the k-round bisimulation game on
arbitrary processes (states identified up to the congruence, a sound up-to
technique here) and produces a replayable distinguisher on failure.  The
game is also played up to parallel context: k-round bisimilarity is
preserved by parallel composition, so a pair that survives k rounds with
the finite components it shares taken out survives them with those put
back.  Only that "survives" answer is used; the converse fails, so a pair
whose smaller pair is told apart is played in full, and every verdict is
exact.
``dis_check`` and ``purg_check`` decide the two finite-process predicates
the theory leans on.  ``lemma_suite`` fuzzes the lot and reports hypothesis
hits so vacuous passes are visible.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import corpus
from .congruence import (_PARTS_OF, canonical_finite, canonical_id,
                         canonicalize, parts_id, process_of, state)
from .lts import (Label, TAU, _LABEL_OF, _firer, _moves, _state_key,
                  bounded_class, check_depth, successors)
from .rewrite import _explore, compute_seed, convertible, rewrites_to
from .syntax import (FiniteProcess, PrefixedTerm, Process,
                     apply_substitution, check_mode, memo_table, render)

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
    firers = [i for i, c in enumerate(comps) if not (i and c == comps[i - 1])]
    moves = [(Label(comps[i].action), (i,)) for i in firers]
    if mode == "sync":
        moves += [(TAU, (i, j)) for n, i in enumerate(firers)
                  for j in firers[n + 1:]
                  if comps[i].action.handshakes(comps[j].action)]
    out = {}
    for label, fired in moves:
        dest = FiniteProcess([c for k, c in enumerate(comps) if k not in fired]
                             + [b for k in fired for b in comps[k].body])
        out[(label, dest)] = None
    return tuple(out)


_FIN_CLASS = memo_table()
_FIN_INTERN = memo_table()


def _finite_class(fp: FiniteProcess, mode: str) -> int:
    key = (fp, mode)
    got = _FIN_CLASS.get(key)
    if got is not None:
        return got
    sig = frozenset((lab, _finite_class(dest, mode))
                    for lab, dest in _finite_successors(fp, mode))
    cid = _FIN_INTERN.setdefault((mode, sig), len(_FIN_INTERN))
    _FIN_CLASS[key] = cid
    return cid


def finite_bisim(f1, f2, mode: str = "base") -> bool:
    """Exact strong bisimilarity of two finite processes."""
    check_mode(mode)
    return (_finite_class(_as_finite(f1), mode)
            == _finite_class(_as_finite(f2), mode))


def finite_partition(fps: Sequence[FiniteProcess], mode: str = "base") -> dict:
    """fp -> bisimilarity class id, for a whole corpus at once."""
    check_mode(mode)
    return {fp: _finite_class(fp, mode) for fp in fps}


# ---------------------------------------------------------------------------
# Bounded game on arbitrary processes


@dataclass(frozen=True)
class GameConfig:
    depth: int = 6
    mode: str = "base"


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
    distinguisher: Optional[Distinguisher] = None


# The game plays on the state ids of ``congruence``'s table of canonical
# states and on the moves ``lts`` keeps for them, {label id: destination
# ids}, so it hashes and compares plain ints only.  Depth 1 compares the
# visible labels two states can fire, read off their components with
# nothing fired (``_labels``).  From depth 2 a pair that shares finite
# components is first played with them taken out (``_cancels``): a
# "survives" answer of that smaller pair answers the pair, a
# "distinguished" one does not, and the pair is then played in full.
# Its memo keys an unordered pair of distinct ids by (i, j, mode) with
# i < j and holds (deepest depth known equal, shallowest depth known
# distinguished): k-round equivalence only shrinks as k grows, so one entry
# answers every depth outside that gap.  The smaller pairs share it.
_GAME = memo_table()
_UNKNOWN = (0, math.inf)


def _game_eq(p: Process, q: Process, d: int, mode: str) -> bool:
    """p and q survive d rounds of the game."""
    return _ids_eq(canonical_id(p), canonical_id(q), d, mode)


def _ids_eq(i: int, j: int, d: int, mode: str) -> bool:
    """States i and j survive d rounds."""
    if i == j or d == 0:
        return True
    if i > j:
        i, j = j, i
    key = (i, j, mode)
    equal_to, apart_from = _GAME.get(key, _UNKNOWN)
    if d <= equal_to:
        return True
    if d >= apart_from:
        return False
    if d == 1:
        result = _labels(i) == _labels(j)
    elif _cancels(i, j, d, mode):
        result = True
    else:
        gi, gj = _moves(i, mode), _moves(j, mode)
        result = gi.keys() == gj.keys()
        if result:
            for lab, xs in gi.items():
                ys = gj[lab]
                if xs == ys:
                    continue
                if not (_covers(xs, ys, d - 1, mode)
                        and _covers(ys, xs, d - 1, mode)):
                    result = False
                    break
    # the recursion may have stored a bound for this pair meanwhile
    equal_to, apart_from = _GAME.get(key, _UNKNOWN)
    _GAME[key] = ((max(equal_to, d), apart_from) if result
                  else (equal_to, min(apart_from, d)))
    return result


def _cancels(i: int, j: int, d: int, mode: str) -> bool:
    """States i and j survive d rounds with the finite components they
    share taken out; False also when they share none.

    Each move of a shared component, alone or in a handshake, is answered
    by the same move on the other side, so a pair that survives d rounds
    still does with the same components put back on both sides.  The
    converse fails (a.0 | a.0 and a.0 at depth 1), so only a True is an
    answer for i and j.
    """
    reps_i, fin_i = _PARTS_OF[i]
    reps_j, fin_j = _PARTS_OF[j]
    if set(fin_i).isdisjoint(fin_j):
        return False
    rest_i, rest_j = list(fin_i), []
    for k in fin_j:
        if k in rest_i:
            rest_i.remove(k)
        else:
            rest_j.append(k)
    a, b = parts_id(reps_i, tuple(rest_i)), parts_id(reps_j, tuple(rest_j))
    # labels apart is the depth-1 answer, which needs nothing fired
    return _labels(a) == _labels(b) and _ids_eq(a, b, d, mode)


def _labels(i: int) -> set:
    """The ids of the visible labels state i can fire, read off its
    components.  In sync mode it also fires tau exactly when two of them
    handshake, so states with equal visible labels fire equal labels."""
    reps, fin = _PARTS_OF[i]
    return {_firer(k)[0] for k in reps + fin}


def _covers(xs: tuple, ys: tuple, d: int, mode: str) -> bool:
    """Every state in xs is in ys or survives d rounds against one there."""
    for x in xs:
        if x in ys:
            continue
        for y in ys:
            if _ids_eq(x, y, d, mode):
                break
        else:
            return False
    return True


def _witness(single: int, others: tuple, d: int, single_side: str,
             mode: str, memo: dict):
    """Moves forcing every state in ``others`` stuck within d rounds.

    The attacker moves on the single side first; against a lone other
    state it may also move there, with ``single`` as the defender.
    """
    key = (single, others, d, single_side)
    if key in memo:
        return memo[key]
    attacks = [(single, others, single_side)]
    if len(others) == 1:
        other_side = "right" if single_side == "left" else "left"
        attacks.append((others[0], (single,), other_side))
    for attacker, defenders, side in attacks:
        replies = [_moves(o, mode) for o in defenders]
        for lab, succs in _moves(attacker, mode).items():
            alive = tuple(sorted({y for m in replies for y in m.get(lab, ())}))
            # in key order, so the witness found does not depend on the
            # order in which ids were handed out
            for succ in sorted(succs, key=_state_key):
                # a defender equal to succ for d-1 rounds outlives any
                # sub-witness; at d = 1 that is any defender
                if any(_ids_eq(succ, y, d - 1, mode) for y in alive):
                    continue
                sub = _witness(succ, alive, d - 1, side, mode,
                               memo) if alive else ()
                if sub is not None:
                    move = Move(side, _LABEL_OF[lab], state(succ))
                    memo[key] = result = (move,) + sub
                    return result
    memo[key] = None
    return None


def bounded_bisim(p: Process, q: Process,
                  cfg: GameConfig = GameConfig()) -> GameResult:
    """Play the k-round game.

    The pair is played at depths 1, 2, ... up to ``cfg.depth`` and stops
    at the first depth that tells it apart; the memo carries what each
    depth learnt to the next.  A distinguished result carries the shortest
    linear witness of at most ``cfg.depth`` moves, searched from that first
    depth on, since no shorter one exists, or None when there is no such
    witness.
    """
    check_depth(cfg.depth)
    check_mode(cfg.mode)
    i, j = (canonical_id(process_of(x)) for x in (p, q))
    # apart at some depth is apart at every deeper one
    first = next((d for d in range(1, cfg.depth + 1)
                  if not _ids_eq(i, j, d, cfg.mode)), None)
    if first is None:
        return GameResult(True)
    memo: dict = {}
    for d in range(first, cfg.depth + 1):
        moves = _witness(i, (j,), d, "left", cfg.mode, memo)
        if moves is not None:
            return GameResult(False, Distinguisher(moves))
    return GameResult(False)


def replay_distinguisher(p: Process, q: Process, dist: Distinguisher,
                         mode: str = "base") -> bool:
    """Check a distinguisher: every defender branch must die before the end."""
    check_mode(mode)

    def run(single: Process, others: tuple, single_side: str,
            moves: tuple) -> bool:
        if not others:
            return True
        if not moves:
            return False
        mv = moves[0]
        if mv.side == single_side:
            attacker, defenders = single, others
        elif len(others) == 1:
            attacker, defenders = others[0], (single,)
        else:
            return False
        if (mv.label, mv.successor) not in successors(attacker, mode):
            return False
        alive = sorted({y for o in defenders
                        for l, y in successors(o, mode) if l == mv.label})
        return run(mv.successor, tuple(alive), mv.side, moves[1:])

    return run(canonicalize(process_of(p)), (canonicalize(process_of(q)),),
               "left", dist.moves)


def bounded_partition(procs: Sequence[Process], depth: int,
                      mode: str = "base") -> dict:
    """process -> class id of k-round equivalence, over a whole corpus.

    Signature refinement stratified by remaining depth (``bounded_class``);
    agrees with ``bounded_bisim`` verdicts pairwise (the suites cross-check
    this against ``_game_eq``, which shares only the state ids and their
    moves with it).
    """
    check_depth(depth)
    check_mode(mode)
    return {p: bounded_class(p, depth, mode) for p in procs}


# ---------------------------------------------------------------------------
# The dis / purg predicates


def _require_replicated_only(s: Process) -> Process:
    s = canonicalize(process_of(s))
    if s.finite.components:
        raise ValueError("expected a process with replicated components only")
    return s


def _derivatives(start: Process) -> set:
    """Every canonical state a canonical process reaches in base mode."""
    seen = {start}
    stack = [start]
    while stack:
        for _lab, dest in successors(stack.pop(), "base"):
            if dest not in seen:
                seen.add(dest)
                stack.append(dest)
    return seen


def dis_check(s: Process, f: Union[FiniteProcess, Process]) -> bool:
    """No derivative of f is congruent to a replicated body of s.

    Equivalently: f contains no sub-behaviour the replicated components of s
    could have spawned as a guarded copy.
    """
    s = _require_replicated_only(s)
    targets = {canonicalize(process_of(t)) for t in s.replicated}
    return not targets or targets.isdisjoint(
        _derivatives(canonicalize(process_of(_as_finite(f)))))


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
    derivs = set().union(*(_derivatives(canonicalize(Process((), t.body)))
                           for t in set(s.replicated)))
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
            if Process((), FiniteProcess(group)) in derivs:
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
        for _ in range(rng.randint(0, max(0, t.body.size - 1))):
            succ = successors(state, "base")
            if not succ:
                break
            state = rng.choice(succ)[1]
        parts.extend(state.finite.components)
    return FiniteProcess(parts)


def lemma_suite(seed: int = 0, rounds: int = 120, max_size: int = 5,
                action_count: int = 2, mode: str = "base") -> SuiteReport:
    """Fuzz the supporting laws; report hits and counterexamples.

    Every generated instance is derived from ``seed`` only, so failures
    replay.  Hypothesis-laden properties mix constructive instances (the
    hypothesis holds by construction) with random probes.  Games are played
    to ``GameConfig``'s default depth.  ``rounds=0`` is an empty run that
    passes vacuously; a negative count raises ValueError.
    """
    check_mode(mode)
    if rounds < 0:
        raise ValueError("rounds must not be negative")
    rng = random.Random(seed)
    actions = corpus.default_actions(action_count, mode)
    names = sorted({a.name for a in actions})
    cfg = GameConfig(mode=mode)
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
            ctx = corpus.Context(base, rng.choice(corpus.multiset_slots(base)))
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
                    and _game_eq(hole_nil, filled, cfg.depth, mode)):
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
            st.probe(False)

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
        if f1 is not None and dis_check(sd, f2):
            hyp = convertible(corpus.compose(sd, Process((), f1)),
                              corpus.compose(sd, Process((), f2))).equivalent
            if st.probe(hyp):
                if not finite_bisim(f1, f2, "base"):
                    st.fail(seed=_pp(sd), left=render(f1), right=render(f2))
        else:
            st.probe(False)

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
        game = _game_eq(p, q, cfg.depth, mode)
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
            st.probe(False)

        # --- guided rewriting reaches no other state as small as the seed
        st = props["seed_unique_across_orders"]
        p = corpus.random_process(rng, rng.randint(0, max_size + 1), actions)
        st.probe(True)
        sd = compute_seed(p).seed
        rival = next((d for d in _explore(canonicalize(p), None)
                      if d.size <= sd.size and d != sd
                      and rewrites_to(p, d) is not None), None)
        if rival is not None:
            st.fail(process=_pp(p), seed=_pp(sd), rival=_pp(rival))

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
            st.probe(False)

    return SuiteReport(seed, mode, props)


def _suite_shard(args: tuple) -> SuiteReport:
    return lemma_suite(*args)


def lemma_suite_sharded(seed: int = 0, rounds: int = 120, shards: int = 4,
                        max_size: int = 5, action_count: int = 2,
                        mode: str = "base") -> SuiteReport:
    """Split the suite across worker processes and merge the reports.

    Each shard draws from its own stream derived from ``seed``, every check
    is a pure function, and the merge is a shard-ordered sum, so the result
    is identical whether shards run in parallel or, where no worker process
    can be started, sequentially.
    """
    corpus.default_actions(action_count, mode)  # fail here, not in a worker
    if shards < 1:
        raise ValueError("shards must be positive")
    if rounds < 0:
        raise ValueError("rounds must not be negative")
    shards = min(shards, rounds) or 1
    base, extra = divmod(rounds, shards)
    shard_args = [(seed * 1000003 + i, base + (1 if i < extra else 0),
                   max_size, action_count, mode)
                  for i in range(shards)]
    reports = map(_suite_shard, shard_args)  # lazily, in this process
    if shards > 1:
        import concurrent.futures
        try:
            # every worker is forked at once, so never more than the CPUs
            workers = min(shards, os.cpu_count() or 1)
            with concurrent.futures.ProcessPoolExecutor(workers) as pool:
                reports = list(pool.map(_suite_shard, shard_args))
        except OSError:
            pass  # no worker process can start: run the shards here
    merged: Dict[str, PropertyStats] = {}
    for rep in reports:
        for name, st in rep.properties.items():
            acc = merged.setdefault(name, PropertyStats())
            acc.instances += st.instances
            acc.hits += st.hits
            acc.counterexamples.extend(st.counterexamples)
    return SuiteReport(seed, mode, merged)
