import concurrent.futures
import dataclasses
import hashlib
import json
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from ccseed import clear_caches, corpus, lts, oracle
from ccseed.congruence import canonical_id, canonicalize, state
from ccseed.lts import DepthExceeded, bounded_class, successors, unfold
from ccseed.oracle import (Distinguisher, GameConfig, _game_eq, bounded_bisim,
                           bounded_partition, dis_check, finite_bisim,
                           finite_partition, lemma_suite, lemma_suite_sharded,
                           purg_check, replay_distinguisher)
from ccseed.rewrite import convertible
from ccseed.syntax import (FiniteProcess, PrefixedTerm, Process, parse,
                           render)

P1 = "!a.(b.0|a.c.0) | !a.(c.0|a.b.0)"
P2 = "!a.b.0 | !a.c.0"


def fin(text, mode="base"):
    return parse(text, mode).finite


# ---------------------------------------------------------------------------
# finite_bisim


def test_finite_bisim_golden():
    assert finite_bisim(fin("a.(b.0|a.b.0)"), fin("a.b.0|a.b.0"))
    assert finite_bisim(fin("0"), fin("0"))
    assert not finite_bisim(fin("a.b.0"), fin("a.0"))


def test_finite_bisim_distribution_instances():
    assert finite_bisim(fin("a.a.0"), fin("a.0|a.0"))
    assert not finite_bisim(fin("a.b.0"), fin("a.0|b.0"))
    assert not finite_bisim(fin("a.0"), fin("a.0|a.0"))


def test_finite_bisim_sync_handshake_counted():
    # tau successors join the signature in sync mode
    assert finite_bisim(fin("a.0|~a.0", "sync"), fin("a.0|~a.0", "sync"),
                        "sync")
    assert not finite_bisim(fin("a.0|~a.0", "sync"), fin("a.0|a.0", "sync"),
                            "sync")
    # distribution instances hold for output prefixes under tau challenges
    assert finite_bisim(fin("~a.~a.0", "sync"), fin("~a.0|~a.0", "sync"),
                        "sync")


def test_finite_bisim_rejects_replicated_arguments():
    with pytest.raises(ValueError):
        finite_bisim(parse("!a.0"), fin("a.0"))
    # a replication-free Process stands for its finite part
    assert finite_bisim(parse("a.0 | b.0"), parse("b.0 | a.0"))
    assert purg_check(parse("!a.b.0"), parse("b.0"))
    with pytest.raises(TypeError):
        finite_bisim("a.0", parse("a.0"))
    with pytest.raises(TypeError):
        purg_check(parse("!a.b.0"), "b.0")


def test_finite_partition_groups_equivalent_terms():
    terms = [fin("a.a.0"), fin("a.0|a.0"), fin("a.0"), fin("0")]
    part = finite_partition(terms)
    assert part[terms[0]] == part[terms[1]]
    assert len({part[terms[1]], part[terms[2]], part[terms[3]]}) == 3


# ---------------------------------------------------------------------------
# bounded game


def test_sync_finite_partition_matches_recorded_blocks():
    # Recorded before the finite engine's firing rule was rewritten: the
    # sync-mode classes of every finite process of size <= 4 over a, ~a, b, ~b.
    fps = corpus.enumerate_finite(4, corpus.default_actions(4, "sync"))
    blocks: dict = {}
    for fp, cid in finite_partition(fps, "sync").items():
        blocks.setdefault(cid, []).append(render(fp))
    blocks = sorted(sorted(b) for b in blocks.values())
    assert (len(fps), len(blocks)) == (1718, 1340)
    assert hashlib.sha256(json.dumps(blocks).encode()).hexdigest() == (
        "eb83a18d757f0dd724c2c4de261d950e217835a4b1ee0b9099027436ddce216e")


A0, B0 = parse("a.0"), parse("b.0")


@pytest.mark.parametrize("call", [
    lambda: finite_bisim(A0, B0, "bogus"),
    lambda: finite_bisim(A0, A0, "bogus"),
    lambda: finite_partition([A0], "bogus"),
    lambda: finite_partition([], "bogus"),
    lambda: bounded_bisim(A0, A0, GameConfig(mode="bogus")),
    lambda: bounded_bisim(A0, B0, GameConfig(depth=0, mode="bogus")),
    lambda: bounded_partition([A0], 0, "bogus"),
    lambda: bounded_partition([], 3, "bogus"),
    lambda: bounded_class(canonicalize(A0), 0, "bogus"),
    lambda: unfold(A0, 0, "bogus"),
    lambda: replay_distinguisher(A0, A0, Distinguisher(()), "bogus"),
    lambda: lemma_suite(rounds=0, mode="bogus"),
    lambda: lemma_suite_sharded(rounds=0, mode="bogus"),
    lambda: corpus.default_actions(2, "bogus"),
], ids=["finite_bisim-different", "finite_bisim-same", "finite_partition",
        "finite_partition-empty", "bounded_bisim", "bounded_bisim-depth0",
        "bounded_partition-depth0",
        "bounded_partition-empty", "bounded_class-depth0", "unfold-depth0",
        "replay_distinguisher",
        "lemma_suite-no-rounds", "lemma_suite_sharded-no-rounds",
        "default_actions"])
def test_unknown_mode_is_rejected_whatever_the_input(call):
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        call()


def test_bounded_bisim_distinguishes_at_depth_two():
    result = bounded_bisim(parse("!a.b.0"), parse("!a.c.0"),
                           GameConfig(depth=2))
    assert not result.equivalent
    assert result.distinguisher is not None
    assert len(result.distinguisher.moves) == 2
    labels = [str(mv.label) for mv in result.distinguisher.moves]
    assert labels[0] == "a" and labels[1] in ("b", "c")


def test_bounded_bisim_reflexive():
    p = parse(P1)
    assert bounded_bisim(p, p, GameConfig(depth=8)).equivalent


def test_bounded_bisim_golden_pair_equivalent():
    assert bounded_bisim(parse(P1), parse(P2), GameConfig(depth=6)).equivalent


def test_bounded_bisim_depth_zero_is_vacuous():
    assert bounded_bisim(parse("a.0"), parse("b.b.0"),
                         GameConfig(depth=0)).equivalent


def test_bounded_bisim_depth_validation():
    with pytest.raises(ValueError):
        bounded_bisim(parse("0"), parse("0"), GameConfig(depth=-1))
    with pytest.raises(DepthExceeded):
        bounded_bisim(parse("0"), parse("0"), GameConfig(depth=13))


@pytest.mark.parametrize("text", ["!a.0", "a.b.0"])
def test_bounded_partition_depth_validation(text):
    with pytest.raises(ValueError):
        bounded_partition([parse(text)], -1)
    with pytest.raises(DepthExceeded):
        bounded_partition([parse(text)], 13)
    # bounded_class, called once per process, checks its depth too
    for depth, error in ((-1, ValueError), (13, DepthExceeded),
                         (200, DepthExceeded)):
        with pytest.raises(error):
            bounded_class(parse(text), depth)


def test_bounded_bisim_sync_mode():
    # polarity is part of the label, and tau challenges are played
    p, q = parse("a.0|~a.0", "sync"), parse("a.~a.0", "sync")
    result = bounded_bisim(p, q, GameConfig(depth=3, mode="sync"))
    assert not result.equivalent
    assert replay_distinguisher(p, q, result.distinguisher, "sync")
    assert bounded_bisim(parse("~a.~a.0", "sync"), parse("~a.0|~a.0", "sync"),
                         GameConfig(depth=4, mode="sync")).equivalent


def test_distinguisher_replays():
    pairs = [("!a.b.0", "!a.c.0"), ("a.b.0", "a.0"), ("a.0", "0"),
             ("!a.0|b.0", "!a.0"), ("a.(b.0|c.0)", "a.b.0|a.c.0")]
    for left, right in pairs:
        p, q = parse(left), parse(right)
        result = bounded_bisim(p, q, GameConfig(depth=6))
        assert not result.equivalent, (left, right)
        assert result.distinguisher is not None
        assert replay_distinguisher(p, q, result.distinguisher)


def test_replay_rejects_bogus_witness():
    p, q = parse("a.0"), parse("a.0")
    bogus = bounded_bisim(parse("a.b.0"), parse("a.0"),
                          GameConfig(depth=4)).distinguisher
    assert not replay_distinguisher(p, q, bogus)
    # left a, left b, right c wins; after the first move the right side
    # has 2 defenders, a.0 | b.0 | c.0 and a.(b.0 | c.0)
    p, q = parse("a.b.0 | a.c.0"), parse("a.(b.0 | c.0) | a.0")
    moves = bounded_bisim(p, q, GameConfig(depth=6)).distinguisher.moves
    assert [(m.side, str(m.label)) for m in moves] == [
        ("left", "a"), ("left", "b"), ("right", "c")]
    assert replay_distinguisher(p, q, Distinguisher(moves))
    # the moves run out while a defender is alive
    assert not replay_distinguisher(p, q, Distinguisher(moves[:-1]))
    # switching sides needs a single defender to attack from
    flipped = dataclasses.replace(moves[1], side="right")
    assert not replay_distinguisher(
        p, q, Distinguisher((moves[0], flipped, moves[2])))


PARTITION_TERMS = {
    "base": ["0", "a.0", "a.a.0", "a.0|a.0", "!a.0", "!a.0|!a.0",
             "!a.b.0", "!a.c.0", P1, P2, "b.0", "a.b.0"],
    "sync": ["0", "a.0", "~a.0", "a.0|~a.0", "a.~a.0|~a.a.0", "a.~a.0",
             "!a.0|~a.0", "!a.0|~a.0|a.0", "!a.0|~a.0|~a.0", "!a.b.0|~a.0",
             "!a.0|~a.b.0", "!~a.0|a.0", "a.(b.0|~b.0)", "~a.~a.~a.0",
             "~a.~a.~a.~a.0", "b.b.(a.0|~a.0)", "b.b.(a.~a.0|~a.a.0)"],
}


# Depth 2 in base mode is the seed prefilter's use of bounded_class.
@pytest.mark.parametrize("depth,mode", [(2, "base"), (6, "base"),
                                        (2, "sync"), (6, "sync")],
                         ids=["2-base", "6-base", "2-sync", "6-sync"])
def test_bounded_partition_matches_pairwise_games(depth, mode):
    procs = [parse(t, mode) for t in PARTITION_TERMS[mode]]
    part = bounded_partition(procs, depth, mode)
    cfg = GameConfig(depth=depth, mode=mode)
    for p in procs:
        for q in procs:
            same = part[p] == part[q]
            assert same == bounded_bisim(p, q, cfg).equivalent


# Pairs of these first differ at depths 4, 5 and 6, which random terms
# this small rarely do.
DEEP_TERMS = ["a.a.a.a.a.b.0", "a.a.a.a.a.a.0", "a.a.a.a.b.0",
              "!b.a.a.a.b.0 | a.0", "!b.a.a.a.a.0 | a.0",
              "b.0 | b.a.a.a.a.0", "b.a.0 | b.a.a.a.0"]


@pytest.mark.parametrize("mode", ["base", "sync"])
def test_game_answers_each_depth_alike_in_any_query_order(mode):
    # One game memo entry per pair serves every depth, so an answer must
    # not depend on which depths were asked before it.
    rng = random.Random(6)
    acts = corpus.default_actions(2, mode)
    procs = sorted({canonicalize(p) for p in
                    [corpus.random_process(rng, rng.randint(2, 7), acts)
                     for _ in range(30)]
                    + [parse(t, mode) for t in DEEP_TERMS]})
    pairs = [(p, q) for p in procs for q in procs]
    expected = {k: [bounded_class(p, k, mode) == bounded_class(q, k, mode)
                    for p, q in pairs] for k in range(7)}
    first_apart = {next((k for k in range(7) if not expected[k][n]), None)
                   for n in range(len(pairs))}
    assert first_apart == {1, 2, 3, 4, 5, 6, None}
    shuffled = list(range(7))
    random.Random(7).shuffle(shuffled)
    for order in (range(6, -1, -1), range(7), shuffled):
        clear_caches()
        for k in order:
            assert [_game_eq(p, q, k, mode) for p, q in pairs] == expected[k]


def _replicated_synchronise(p) -> bool:
    """Two replicated components of p have co-named prefixes (a and ~a):
    such a pair fires tau forever, spawning both bodies at every step.
    ``_game_pairs`` leaves these out, so the recorded digest keeps its
    pairs; ``test_game_on_co_named_replicated_pairs`` plays them."""
    acts = {t.action for t in p.replicated}
    return any(a.co() in acts for a in acts)


def _game_pairs(rng, mode, count):
    """Random pairs, and pairs sharing a fattened context around two
    different finite parts, whose witnesses run up to 5 moves."""
    acts = corpus.default_actions(3 if mode == "base" else 4, mode)
    pairs = []
    while len(pairs) < count:
        p = corpus.random_process(rng, rng.randint(2, 7), acts)
        if len(pairs) % 3 == 0:
            q = corpus.random_process(rng, rng.randint(2, 7), acts)
        else:
            f, g = (Process((), corpus.random_finite(rng, rng.randint(1, 6),
                                                     acts)) for _ in "fg")
            q = corpus.make_redundant(rng, corpus.compose(p, g),
                                      rng.randint(1, 2))
            p = corpus.compose(p, f)
        if mode == "base" or not (_replicated_synchronise(p)
                                  or _replicated_synchronise(q)):
            pairs.append((p, q))
    return pairs


def test_verdicts_and_distinguishers_match_recorded_digest():
    # Recorded before the game and the witness search moved onto the
    # transition table: every verdict and every move of every witness.
    # The DEEP_TERMS pairs add the 6-move witnesses.
    rng = random.Random(1515)
    h = hashlib.sha256()
    lengths = set()
    for mode in ("base", "sync"):
        cfg = GameConfig(mode=mode)
        deep = [parse(t, mode) for t in DEEP_TERMS]
        for p, q in _game_pairs(rng, mode, 300) + [
                (p, q) for p in deep for q in deep if p != q]:
            result = bounded_bisim(p, q, cfg)
            h.update(f"{mode} {render(p)} ; {render(q)} "
                     f"{result.equivalent}\n".encode())
            if result.distinguisher is not None:
                moves = result.distinguisher.moves
                lengths.add(len(moves))
                assert replay_distinguisher(p, q, result.distinguisher, mode)
                for mv in moves:
                    h.update(f"  {mv.side} {mv.label} "
                             f"{render(mv.successor)}\n".encode())
    assert lengths == {1, 2, 3, 4, 5, 6}
    assert h.hexdigest() == (
        "f852c2495b288e56044857f478ce3f7123ea3bde67bde2bc1efa80fcdcdea59a")


def test_game_on_co_named_replicated_pairs():
    # Sync pairs whose left side, and every other right side, has two
    # co-named replicated components; the other right sides are fattened
    # copies of the left, bisimilar by construction.  At every depth the
    # game's verdict is the bounded classes' and each witness replays.
    rng = random.Random(25)
    acts = corpus.default_actions(4, "sync")

    def draw():
        while True:
            p = corpus.random_process(rng, rng.randint(3, 6), acts)
            if _replicated_synchronise(p):
                return p

    distinguished = 0
    for n in range(150):
        p = draw()
        q = (corpus.make_redundant(rng, p, rng.randint(1, 2)) if n % 2 == 0
             else draw())
        for depth in range(1, 7):
            assert _game_eq(p, q, depth, "sync") == (
                bounded_class(p, depth, "sync")
                == bounded_class(q, depth, "sync")), (render(p), render(q))
        result = bounded_bisim(p, q, GameConfig(mode="sync"))
        if not result.equivalent:
            distinguished += 1
            assert replay_distinguisher(p, q, result.distinguisher, "sync")
    assert distinguished == 73


def _shared_context_pairs(rng, mode, count):
    """Pairs that share finite components: a random process against a
    fattening of it, or two random processes in one finite context."""
    acts = corpus.default_actions(2, mode)
    pairs = []
    for n in range(count):
        p = corpus.random_process(rng, rng.randint(2, 5), acts)
        if n % 2 == 0:
            q = corpus.make_redundant(rng, p, rng.randint(1, 2))
        else:
            r = Process((), corpus.random_finite(rng, rng.randint(1, 3), acts))
            q = corpus.compose(
                corpus.random_process(rng, rng.randint(1, 4), acts), r)
            p = corpus.compose(p, r)
        pairs.append((p, q))
    return pairs


@pytest.mark.parametrize("mode,compared", [("base", 80), ("sync", 77)],
                         ids=["base", "sync"])
def test_absorbing_game_on_shared_context_pairs_matches_bounded_classes(
        mode, compared, monkeypatch):
    # Pairs that share finite components, played at every depth: the
    # game's verdict is the bounded classes', which play every state as it
    # is.  The recorded count of (pair, depth) games that reach the move
    # comparison keeps the test from passing with the pairs answered before
    # it.
    fired = []
    moves = oracle._moves

    def recording(i, mode):
        fired.append(i)
        return moves(i, mode)

    monkeypatch.setattr(oracle, "_moves", recording)
    clear_caches()
    reached = 0
    for p, q in _shared_context_pairs(random.Random(26), mode, 150):
        for depth in range(1, 7):
            fired.clear()
            assert _game_eq(p, q, depth, mode) == (
                bounded_class(p, depth, mode)
                == bounded_class(q, depth, mode)), (render(p), render(q),
                                                    depth)
            reached += bool(fired)
    assert reached == compared


def _handshakes(r, p) -> bool:
    """A component of r has a prefix co-named to one of p's."""
    tops = {t.action for t in p.replicated + p.finite.components}
    return any(t.action.handshakes(a) for t in r.finite.components
               for a in tops)


@pytest.mark.parametrize("mode,expected", [("base", (201, 0)),
                                           ("sync", (214, 175))])
def test_bounded_classes_survive_a_finite_parallel_context(mode, expected):
    # Bounded classes are preserved by a finite parallel context: p and q
    # equal at depth k stay equal at k beside a finite r, also when r
    # handshakes with them.  No game code rests on this law; it checks
    # bounded_class on its own.
    rng = random.Random(27)
    acts = corpus.default_actions(2 if mode == "base" else 4, mode)
    procs = [corpus.random_process(rng, rng.randint(1, 5), acts)
             for _ in range(40)]
    procs += [corpus.make_redundant(rng, p, 1) for p in procs[:10]]
    instances = handshaking = 0
    for k in range(1, 7):
        by_class: dict = {}
        for p in procs:
            by_class.setdefault(bounded_class(p, k, mode), []).append(p)
        for group in by_class.values():
            for p, q in zip(group, group[1:]):
                if canonicalize(p) == canonicalize(q):
                    continue
                contexts = [corpus.random_finite(rng, rng.randint(1, 3), acts)]
                if mode == "sync":
                    # a prefix co-named to one of p's, so r handshakes
                    act = rng.choice([t.action for t in p.replicated
                                      + p.finite.components])
                    body = corpus.random_finite(rng, rng.randint(0, 2), acts)
                    contexts.append(FiniteProcess(
                        (PrefixedTerm(act.co(), body),)
                        + contexts[0].components))
                for fin_r in contexts:
                    r = Process((), fin_r)
                    assert bounded_class(corpus.compose(p, r), k, mode) == (
                        bounded_class(corpus.compose(q, r), k, mode)), (
                        render(p), render(q), render(r), k)
                    instances += 1
                    handshaking += _handshakes(r, p) or _handshakes(r, q)
    assert (instances, handshaking) == expected


@pytest.mark.parametrize("mode", ["base", "sync"])
def test_a_shared_context_does_not_cancel_from_equal_bounded_classes(mode):
    # The converse of that law fails: a.0 | a.0 and a.0 agree at depth 1,
    # a.0 and 0 do not, so a shared component cannot be taken out of a
    # pair told apart.  The game and the bounded classes agree on both.
    two, one, nil = (parse(t, mode) for t in ("a.0 | a.0", "a.0", "0"))
    assert bounded_class(two, 1, mode) == bounded_class(one, 1, mode)
    assert bounded_class(one, 1, mode) != bounded_class(nil, 1, mode)
    assert _game_eq(two, one, 1, mode) and not _game_eq(one, nil, 1, mode)
    assert not _game_eq(two, one, 2, mode)


@pytest.mark.parametrize("mode", ["base", "sync"])
def test_labels_read_off_components_tell_states_apart_as_fired_labels(mode):
    # Depth 1 of the game compares the visible labels of two states, read
    # off their components with nothing fired; that must answer as the
    # labels their moves are keyed by, tau included.
    rng = random.Random(28)
    acts = corpus.default_actions(2, mode)
    ids = sorted({canonical_id(s) for _ in range(40)
                  for s in unfold(corpus.random_process(rng, rng.randint(1, 6),
                                                        acts), 3, mode)[0]})
    fired = {i: lts._moves(i, mode).keys() for i in ids}
    for i in ids:
        for j in ids:
            assert (oracle._labels(i) == oracle._labels(j)) == (
                fired[i] == fired[j]), (render(state(i)), render(state(j)))
    assert len(ids) > 100


WORK_LEFT = ("!a.0 | b.0 | c.0 | d.0 | b.c.0 | c.d.0 | d.b.0 | b.d.0 | "
             "c.b.0 | d.c.0")
WORK_RIGHT = ("!a.0 | b.0 | c.0 | d.0 | b.c.0 | c.b.0 | c.d.0 | d.b.0 | "
              "d.c.0 | b.d.a.0")


@pytest.mark.parametrize("mode", ["base", "sync"])
def test_game_on_a_pair_sharing_nine_components_fires_few_states(mode):
    # The two sides differ in one component, b.d.0 against b.d.a.0, which
    # !a.0 makes alike; the game once replayed every interleaving of the
    # nine shared ones and fired 1151 states.
    clear_caches()
    assert _game_eq(parse(WORK_LEFT, mode), parse(WORK_RIGHT, mode), 6, mode)
    assert len(lts._BASE_MOVES) + len(lts._SYNC_MOVES) <= 50


@pytest.mark.parametrize("mode,size,absorbing", [("base", 6, 7917),
                                                 ("sync", 5, 1815)],
                         ids=["base", "sync"])
def test_absorbed_states_are_bisimilar_at_every_depth(mode, size, absorbing):
    # The game compares the moves of a state's absorbed form, with its
    # replicated components replaced by their roots and the occurrences of
    # those, at any depth, and its repeated replicated components taken
    # out.  On the canonical processes of an exhaustive corpus and their
    # states within two moves, in both modes and at every
    # depth, the absorbed form is in the bounded class of the state, which
    # knows nothing of absorption.  The count of states with something to
    # absorb keeps the test from passing with absorption never taken.
    clear_caches()
    procs = corpus.enumerate_processes(size, corpus.default_actions(2, mode))
    ids = frontier = {canonical_id(p) for p in procs}
    for _ in range(2):
        frontier = {j for i in frontier
                    for js in lts._moves(i, mode).values() for j in js} - ids
        ids = ids | frontier
    absorbed = 0
    for i in ids:
        a = oracle._absorbed(i)
        assert oracle._absorbed(a) == a, render(state(i))
        if a == i:
            continue
        absorbed += 1
        for played in ("base", "sync"):
            for k in range(1, 7):
                assert bounded_class(state(a), k, played) == bounded_class(
                    state(i), k, played), (render(state(i)), played, k)
    assert absorbed == absorbing


@pytest.mark.parametrize("mode", ["base", "sync"])
@pytest.mark.parametrize("left,right,most", [
    ("!a.b.0 | a.b.0 | a.b.0", "!a.b.0", 0),
    ("!a.0 | !b.0 | !a.b.0", "!a.0 | !b.0 | !a.a.0 | !a.b.0", 2)],
    ids=["copies", "spawned"])
def test_game_on_absorbed_copies_fires_few_states(mode, left, right, most):
    # The left side of the first pair absorbs to the right side, so the
    # game fires nothing (it fired 3 states when it played every copy).
    # In the second pair every a.0 that !a.a.0 spawns is a copy of !a.0's
    # term (the game once fired 20 states).
    clear_caches()
    assert _game_eq(parse(left, mode), parse(right, mode), 6, mode)
    assert len(lts._BASE_MOVES) + len(lts._SYNC_MOVES) <= most


@pytest.mark.parametrize("mode,left,right", [
    ("sync", "!~a.0 | !~a.(~b.0 | a.a.0)", "!~a.0 | !~a.(~b.0 | a.a.~a.0)"),
    ("base", "!a.0 | !a.(b.0 | c.c.0)", "!a.0 | !a.(b.0 | c.c.a.0)")],
    ids=["sync", "base"])
def test_game_absorbs_replicated_terms_below_a_prefix(mode, left, right):
    # The two sides differ in an a.0 (~a.0 in sync mode) two prefixes down
    # in a replicated body, which !a.0 absorbs there: both absorbed forms
    # are one state, so the game fires nothing.  With only top-level copies
    # absorbed it fired 23 states in sync mode and 17 in base mode.
    clear_caches()
    assert _game_eq(parse(left, mode), parse(right, mode), 6, mode)
    assert len(lts._BASE_MOVES) + len(lts._SYNC_MOVES) == 0


@pytest.mark.parametrize("mode,left,right", [
    ("sync", "!b.~b.~b.0", "!b.~b.~b.b.~b.~b.0"),
    ("sync", "!~a.0 | !b.a.0", "!~a.0 | !~a.0 | !b.a.b.a.0"),
    ("base", "!a.b.0 | !b.a.0", "!b.a.0 | !a.b.a.b.0")],
    ids=["unfolded", "unfolded-beside", "unfolded-base"])
def test_game_absorbs_a_replicated_terms_own_unfoldings(mode, left, right):
    # Deleting the copies of the left side's replicated term from the
    # right side's replicated body leaves that term, so the right side's
    # component plays as it (its root): both absorbed forms are one
    # state, and the game fires nothing.  Without roots it fired 30, 14
    # and 22 states.
    clear_caches()
    assert _game_eq(parse(left, mode), parse(right, mode), 6, mode)
    assert len(lts._BASE_MOVES) + len(lts._SYNC_MOVES) == 0


@pytest.mark.parametrize("mode", ["base", "sync"])
def test_absorbed_keeps_a_body_that_deletes_to_no_subterm(mode):
    # Deleting a.0 from a.(a.0 | a.b.0) leaves a.a.b.0, and deleting
    # a.b.0 leaves a.a.0: neither is the term deleted, so the component is
    # its own root, and the game still tells it apart from !a.b.0, which
    # fires b after one a.
    clear_caches()
    p, q = parse("!a.(a.0 | a.b.0)", mode), parse("!a.b.0", mode)
    assert oracle._absorbed(canonical_id(p)) == canonical_id(p)
    assert _game_eq(p, q, 1, mode) and not _game_eq(p, q, 2, mode)


def _self_insertions(rng, mode, count):
    """Replicated terms !u of size at most 12, u a random prefixed term t
    with one to three copies of t inserted into its own body, each at a
    random slot of the body built so far."""
    acts = corpus.default_actions(2, mode)
    procs = []
    for _ in range(count):
        copies = rng.randint(1, 3)
        t = PrefixedTerm(rng.choice(acts), corpus.random_finite(
            rng, rng.randint(0, 12 // (copies + 1) - 1), acts))
        p = Process((t,), ())
        for _ in range(copies):
            # slot 0 is the finite part; the rest are in the replicated body
            slot = rng.choice(corpus.multiset_slots(p)[1:])
            p = corpus.insert_at(p, slot, (t,))
        procs.append(p)
    return procs


@pytest.mark.parametrize("mode", ["base", "sync"])
def test_absorbed_self_insertions_are_bisimilar_at_every_depth(mode):
    # A replicated term with copies of its own term inserted plays as that
    # term.  On such terms and their states within two moves, in both
    # modes and at every depth, the absorbed form is in the bounded class
    # of the state, which knows nothing of roots.  The floor on the terms
    # whose root is not themselves (all 83 distinct ones, in either mode)
    # keeps the test from passing with roots never taken.
    clear_caches()
    procs = _self_insertions(random.Random(43), mode, 150)
    ids = frontier = {canonical_id(p) for p in procs}
    for _ in range(2):
        frontier = {j for i in frontier
                    for js in lts._moves(i, mode).values() for j in js} - ids
        ids = ids | frontier
    for i in ids:
        a = oracle._absorbed(i)
        if a == i:
            continue
        for played in ("base", "sync"):
            for k in range(1, 7):
                assert bounded_class(state(a), k, played) == bounded_class(
                    state(i), k, played), (render(state(i)), played, k)
    rooted = {u for p in procs for u in canonicalize(p).replicated
              if oracle._root(u) is not u}
    assert len(rooted) >= 80


@pytest.mark.parametrize("mode", ["base", "sync"])
@pytest.mark.parametrize("left,right", [
    ("!a.b.0 | a.b.0", "!a.b.0"),
    ("!a.b.0 | a.b.0 | c.0", "!a.b.0 | c.0")], ids=["copy", "beside"])
def test_absorbed_pair_fires_nothing_and_leaves_no_memo_entry(mode, left,
                                                              right):
    # Both sides absorb to one state, so the pair is bisimilar and the game
    # answers it at every depth before the memo: bounded_bisim's deepening
    # fires no state and stores nothing.  A memo keyed by the pairs as they
    # are stored the pair, and the second pair's smaller pair without c.0.
    clear_caches()
    assert bounded_bisim(parse(left, mode), parse(right, mode),
                         GameConfig(depth=6, mode=mode)).equivalent
    assert not lts._BASE_MOVES and not lts._SYNC_MOVES
    assert oracle._GAME == {}


@pytest.mark.parametrize("mode", ["base", "sync"])
def test_game_memo_keys_absorbed_pairs_only(mode):
    # The game reads each state as its absorbed form once it has passed
    # depth 1, so every memo key is a pair of absorbed ids.  The floors on
    # the keys and on the played states that absorb to another keep the
    # test from passing with the memo or absorption never used.
    clear_caches()
    rooted = 0
    for p, q in _shared_context_pairs(random.Random(45), mode, 200):
        _game_eq(p, q, 6, mode)
        rooted += sum(oracle._absorbed(i) != i
                      for i in (canonical_id(p), canonical_id(q)))
    for i, j, played in oracle._GAME:
        assert played == mode
        assert (oracle._absorbed(i), oracle._absorbed(j)) == (i, j)
    assert len(oracle._GAME) >= 150 and rooted >= 200


@pytest.mark.parametrize("mode", ["base", "sync"])
def test_witness_search_starts_at_the_first_separating_depth(mode,
                                                             monkeypatch):
    # No witness is shorter than the first depth that tells a pair apart,
    # so bounded_bisim asks for none below it; the recursion inside the
    # search asks for shallower ones and is not counted.
    asked = []
    nesting = 0
    witness = oracle._witness

    def recording(single, others, d, *rest):
        nonlocal nesting
        if nesting == 0:
            asked.append(d)
        nesting += 1
        try:
            return witness(single, others, d, *rest)
        finally:
            nesting -= 1

    monkeypatch.setattr(oracle, "_witness", recording)
    deep = [parse(t, mode) for t in DEEP_TERMS]
    firsts = set()
    for p in deep:
        for q in deep:
            if p == q:
                continue
            first = next(k for k in range(1, 7)
                         if bounded_class(p, k, mode) != bounded_class(q, k,
                                                                       mode))
            asked.clear()
            result = bounded_bisim(p, q, GameConfig(mode=mode))
            assert not result.equivalent
            assert asked == list(range(first, first + len(asked)))
            assert len(result.distinguisher.moves) == asked[-1]
            firsts.add(first)
    assert firsts == {1, 2, 5, 6}


# Pairs whose two sides fire different labels, so the game tells them apart
# at depth 1.  In base mode the last pair's sides handshake, a and ~a, but
# fire no tau there.
DEPTH_ONE_PAIRS = {
    "base": [("a.0 | b.0", "a.0 | c.0"), ("!a.b.0", "b.a.0"),
             ("a.b.0 | c.0", "c.b.0"), ("a.0 | ~a.0 | b.0", "a.0 | ~a.0")],
    "sync": [("a.0 | ~a.0 | b.0", "a.0 | ~a.0 | ~b.0"),
             ("a.0 | ~a.0", "a.0 | a.0"), ("!b.(a.0 | ~a.0)", "~b.0"),
             ("b.0 | a.0 | ~a.0", "b.0")],
}


@pytest.mark.parametrize("mode", ["base", "sync"])
def test_a_pair_told_apart_at_depth_one_fires_nothing(mode):
    # Depth 1 of the game and of the witness search read the labels off the
    # components; the one successor numbered is the witness's own.
    for left, right in DEPTH_ONE_PAIRS[mode]:
        # terms with outputs are parsed as sync terms, whatever the mode
        written = "sync" if "~" in left + right else mode
        p, q = parse(left, written), parse(right, written)
        clear_caches()
        result = bounded_bisim(p, q, GameConfig(mode=mode))
        assert not result.equivalent
        assert len(result.distinguisher.moves) == 1
        assert not lts._BASE_MOVES and not lts._SYNC_MOVES, (left, right)
        assert replay_distinguisher(p, q, result.distinguisher, mode)


@pytest.mark.parametrize("mode", ["base", "sync"])
def test_depth_one_answers_leave_no_memo_entry(mode):
    # Depth 1 is read off the labels and never stored: a pair apart at
    # depth 1 leaves the memo empty, and a pair apart at depth 2 leaves its
    # own entry only, none for b.0 against c.0 or for itself at depth 1.
    clear_caches()
    assert not bounded_bisim(A0, B0, GameConfig(mode=mode)).equivalent
    assert oracle._GAME == {}
    clear_caches()
    p, q = parse("a.b.0"), parse("a.c.0")
    assert not bounded_bisim(p, q, GameConfig(mode=mode)).equivalent
    key = oracle._key(canonical_id(p), canonical_id(q), mode)
    assert oracle._GAME == {key: (0, 2)}


def _depth_one_reference(single, others, mode):
    """The first label, in ``successors`` order, that the attacker fires
    and no defender does, and the attacker's first successor on it; the
    single side attacks first, then a lone other side."""
    attacks = [(single, others, "left")]
    if len(others) == 1:
        attacks.append((others[0], [single], "right"))
    for attacker, defenders, side in attacks:
        fired = {lab for o in defenders for lab, _ in successors(o, mode)}
        for lab, succ in successors(attacker, mode):
            if lab not in fired:
                return side, lab, succ
    return None


@pytest.mark.parametrize("mode", ["base", "sync"])
def test_depth_one_witness_matches_a_reference_read_off_successors(mode):
    rng = random.Random(33)
    # base mode also plays terms over a, ~a, b, ~b, which fire no tau there
    alphabets = [corpus.default_actions(4, "sync")]
    if mode == "base":
        alphabets.append(corpus.default_actions(3))
    cases = []
    if mode == "sync":
        # after b the attacker a.0 | ~a.0 wins by tau against defenders
        # that fire a and ~a but no tau
        cases.append((parse("a.0 | ~a.0", mode),
                      [parse("a.0 | b.~a.0", mode),
                       parse("~a.0 | b.a.0", mode)]))
    for _ in range(300):
        acts = rng.choice(alphabets)
        single, *others = (
            corpus.random_process(rng, rng.randint(0, 5), acts)
            for _ in range(rng.randint(2, 4)))
        cases.append((single, others))
    won = set()
    for single, others in cases:
        # number labels in a different order for each case
        clear_caches()
        i = canonical_id(single)
        ids = tuple(sorted({canonical_id(o) for o in others}))
        got = oracle._witness(i, ids, 1, "left", mode, {})
        expected = _depth_one_reference(
            canonicalize(single), [state(j) for j in ids], mode)
        if expected is None:
            assert got is None
            continue
        (move,) = got
        assert (move.side, move.label, move.successor) == expected
        won.add((move.side, len(ids), move.label == lts.TAU))
    assert {(side, n) for side, n, _ in won} >= {
        ("left", 1), ("right", 1), ("left", 2), ("left", 3)}
    assert any(tau for _, _, tau in won) == (mode == "sync")
    # the pair whose distinguisher ends with that tau
    if mode == "sync":
        p, q = parse("b.(a.0 | ~a.0)", mode), parse("b.a.0 | b.~a.0", mode)
        moves = bounded_bisim(p, q, GameConfig(mode=mode)).distinguisher.moves
        assert [(mv.side, str(mv.label), render(mv.successor))
                for mv in moves] == [("left", "b", "a.0 | ~a.0"),
                                     ("left", "tau", "0")]


@pytest.mark.parametrize("mode", ["base", "sync"])
def test_labels_are_the_bit_set_of_the_labels_fired(mode):
    # _labels reads a state's labels off its components, tau included
    # when two of them handshake; that is the labels its moves are keyed by.
    rng = random.Random(34)
    acts = corpus.default_actions(2 if mode == "base" else 4, mode)
    ids = {canonical_id(s) for _ in range(40)
           for s in unfold(corpus.random_process(rng, rng.randint(1, 6),
                                                 acts), 3, mode)[0]}
    taus = 0
    for i in ids:
        fired = lts._moves(i, mode).keys()
        assert oracle._labels(i) == sum(1 << lab for lab in fired), render(
            state(i))
        taus += lts._label(None) in fired
    assert len(ids) > 100 and (taus > 0) == (mode == "sync")


@pytest.mark.parametrize("mode", ["base", "sync"])
def test_bounded_class_of_a_term_is_the_class_of_its_canonical_form(mode):
    for text in ("a.a.0", "a.(b.0 | a.b.0) | !b.b.0", "!a.(a.0 | a.0)"):
        p = parse(text, mode)
        for depth in (1, 2, 3):
            assert bounded_class(p, depth, mode) == bounded_class(
                canonicalize(p), depth, mode)
    assert bounded_class(parse("a.a.0"), 2, mode) == bounded_class(
        parse("a.0 | a.0"), 2, mode)


# ---------------------------------------------------------------------------
# dis / purg


def test_dis_examples():
    assert not dis_check(parse("!a.b.0"), fin("c.a.b.0"))
    assert dis_check(parse("!a.b.0"), fin("c.0"))
    assert not dis_check(parse("!a.(b.0|c.0)"), fin("a.(c.0|b.0)"))
    assert dis_check(parse("0"), fin("a.0"))
    assert dis_check(parse("!a.b.0"), fin("0"))
    assert not dis_check(parse("!a.b.0"), fin("b.a.b.0|c.0"))


def test_dis_matches_modulo_congruence():
    # b.a.a.0 folds to b.(a.0|a.0), which is the replicated body
    assert not dis_check(parse("!b.(a.0|a.0)"), fin("c.b.a.a.0"))
    # a.a.a.0 folds all the way to the dissolved body class a.0|a.0|a.0
    assert not dis_check(parse("!a.(a.0|a.0)"), fin("c.a.a.a.0"))
    # whereas a.a.0 lands in the two-copy class, which is a different one
    assert dis_check(parse("!a.(a.0|a.0)"), fin("b.a.a.0"))


def test_dis_rejects_bad_left_argument():
    with pytest.raises(ValueError):
        dis_check(parse("!a.0|b.0"), fin("0"))


def test_purg_examples():
    assert purg_check(parse("!a.(b.0|c.0)"), fin("b.0"))
    assert purg_check(parse("!a.b.0"), fin("0"))
    assert not purg_check(parse("!a.b.0"), fin("c.0"))
    assert purg_check(parse("!a.b.0"), fin("b.0|b.0"))
    assert not purg_check(parse("!a.0"), fin("a.0"))
    assert not purg_check(parse("0"), fin("0"))


def test_purg_groups_can_mix_bodies():
    s = parse("!a.(b.0|c.0) | !d.e.0")
    assert purg_check(s, fin("b.0|e.0"))
    assert purg_check(s, fin("b.0|c.0|e.0|e.0"))
    assert not purg_check(s, fin("b.0|d.0"))


def test_purg_respects_grouping_not_just_membership():
    # c.0|c.0 is not a derivative of the single body b.(c.0|c.0), but two
    # copies each contribute one c.0
    s = parse("!a.b.c.0")
    assert purg_check(s, fin("c.0|c.0"))
    s2 = parse("!a.(b.0|b.0)")
    assert purg_check(s2, fin("b.0|b.0|b.0|b.0"))
    assert purg_check(s2, fin("b.0"))


# ---------------------------------------------------------------------------
# suites

ACTIONS = corpus.default_actions(2, "base")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_game_agrees_with_convertibility_on_random_pairs(seed):
    rng = random.Random(seed)
    p = corpus.random_process(rng, rng.randint(0, 6), ACTIONS)
    if rng.random() < 0.5:
        q = corpus.make_redundant(rng, p, rng.randint(1, 2))
    else:
        q = corpus.random_process(rng, rng.randint(0, 6), ACTIONS)
    conv = convertible(p, q).equivalent
    game = bounded_bisim(p, q, GameConfig(depth=6))
    if conv:
        assert game.equivalent
    if not game.equivalent:
        assert not conv


def test_lemma_suite_small_run_is_clean():
    report = lemma_suite(seed=5, rounds=40)
    assert report.ok
    assert report.all_hypotheses_hit
    doc = report.to_dict()
    assert doc["ok"] and doc["allHypothesesHit"]
    assert set(doc["properties"]) == {
        "hole_copy_absorption", "bang_absorbs_matched_prefix",
        "seed_finite_part_disjoint", "absorbed_residue_is_nil",
        "replicated_parts_cancel_finite", "finite_parts_cancel_under_dis",
        "seed_decision_matches_game", "seed_unique_across_orders",
        "substitution_closure", "predicates_closed_under_steps",
        "witness_replays"}


def test_lemma_suite_empty_run_passes_vacuously():
    report = lemma_suite(seed=1, rounds=0)
    assert report.ok
    assert not report.all_hypotheses_hit


@pytest.mark.parametrize("suite", [lemma_suite, lemma_suite_sharded])
def test_lemma_suite_rejects_negative_rounds(suite):
    # a negative count once ran no round and reported ok
    with pytest.raises(ValueError, match="rounds must not be negative"):
        suite(rounds=-5)


@pytest.mark.parametrize("suite", [lemma_suite, lemma_suite_sharded])
@pytest.mark.parametrize("count,mode,names", [
    (0, "base", 26), (27, "base", 26), (0, "sync", 52), (53, "sync", 52)])
def test_lemma_suite_rejects_alphabet_out_of_range(suite, count, mode, names):
    # an empty or too large alphabet once failed with an IndexError
    with pytest.raises(ValueError,
                       match=f"^alphabet {count} outside 1..{names}$"):
        suite(rounds=2, action_count=count, mode=mode)
    with pytest.raises(ValueError,
                       match=f"^alphabet {count} outside 1..{names}$"):
        corpus.default_actions(count, mode)


def _fallback_suite(monkeypatch, **kwargs) -> dict:
    """The sharded suite as run where no worker process can be started."""
    def no_pool(*args):
        raise OSError("no worker processes")

    with monkeypatch.context() as m:
        m.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        return lemma_suite_sharded(**kwargs).to_dict()


def test_sharded_suite_merges_deterministically(monkeypatch):
    pooled = lemma_suite_sharded(seed=2, rounds=24, shards=3)
    assert pooled.to_dict() == _fallback_suite(monkeypatch, seed=2, rounds=24,
                                               shards=3)
    assert pooled.ok


def test_sharded_suite_forks_at_most_one_worker_per_cpu(monkeypatch):
    opened = []

    class RecordingPool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return map(fn, args)

    fallback = _fallback_suite(monkeypatch, seed=2, rounds=6, shards=6)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    report = lemma_suite_sharded(seed=2, rounds=6, shards=6)
    assert opened == [2]
    assert report.to_dict() == fallback


def test_sharded_suite_validates_shards():
    with pytest.raises(ValueError):
        lemma_suite_sharded(shards=0)
