import gc
import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from ccseed import clear_caches, congruence, corpus, lts
from ccseed.congruence import canonical_id, canonicalize, congruent
from ccseed.lts import (DEFAULT_DEPTH_CAP, DepthExceeded, Label, TAU,
                        bounded_class, successors, unfold)
from ccseed.syntax import Action, PrefixedTerm, Process, parse, render


def succ_strs(text, mode="base"):
    p = parse(text, mode)
    return sorted((str(lab), render(dest)) for lab, dest in successors(p, mode))


def test_prefix_fires():
    assert succ_strs("a.0") == [("a", "0")]
    assert succ_strs("a.b.0") == [("a", "b.0")]


def test_parallel_components_fire_independently():
    assert succ_strs("a.0|b.0") == [("a", "b.0"), ("b", "a.0")]


def test_duplicate_components_yield_one_transition():
    assert succ_strs("a.0|a.0") == [("a", "a.0")]


def test_replication_persists_and_spawns():
    assert succ_strs("!a.b.0") == [("a", "!a.b.0 | b.0")]
    # a nil body spawns nothing visible
    assert succ_strs("!a.0") == [("a", "!a.0")]


def test_destinations_are_canonical():
    # firing b exposes a.a.0, which normalizes to two parallel copies
    assert succ_strs("b.a.a.0") == [("b", "a.0 | a.0")]


def test_label_rendering():
    assert str(TAU) == "tau"
    assert str(Label(Action("a"))) == "a"
    assert Label(None) == TAU
    assert Label(Action("a")) != TAU


def test_sync_tau_between_components():
    assert ("tau", "0") in succ_strs("a.0|~a.0", "sync")
    # nesting is not parallelism: no internal handshake here
    assert all(lab != "tau" for lab, _ in succ_strs("a.~a.0", "sync"))


def test_sync_tau_with_replication():
    p = succ_strs("!a.0|~a.b.0", "sync")
    assert ("tau", "!a.0 | b.0") in p
    q = succ_strs("!a.0|!~a.0", "sync")
    assert ("tau", "!a.0 | !~a.0") in q


def test_sync_successors_of_every_handshake_kind():
    # finite x finite, finite x replicated and replicated x replicated
    # handshakes, next to a finite component present twice
    p = parse("a.0 | a.0 | ~a.b.0 | !~a.0 | !a.c.0", "sync")
    assert [(str(lab), render(dest)) for lab, dest in successors(p, "sync")] == [
        ("a", "!~a.0 | !a.c.0 | a.0 | a.0 | c.0 | ~a.b.0"),
        ("a", "!~a.0 | !a.c.0 | a.0 | ~a.b.0"),
        ("~a", "!~a.0 | !a.c.0 | a.0 | a.0 | b.0"),
        ("~a", "!~a.0 | !a.c.0 | a.0 | a.0 | ~a.b.0"),
        ("tau", "!~a.0 | !a.c.0 | a.0 | a.0 | b.0 | c.0"),
        ("tau", "!~a.0 | !a.c.0 | a.0 | a.0 | c.0 | ~a.b.0"),
        ("tau", "!~a.0 | !a.c.0 | a.0 | b.0"),
        ("tau", "!~a.0 | !a.c.0 | a.0 | ~a.b.0"),
    ]


def test_successor_lists_match_recorded_digest():
    # Recorded before the firing rule was rewritten: every successor list,
    # in both modes, of the exhaustive size-<=5 base corpus (2 actions) and
    # the size-<=4 sync corpus over a, ~a, b, ~b (5839 processes).
    digest = hashlib.sha256()
    edges = 0
    for acts, max_size in ((corpus.default_actions(2, "base"), 5),
                           (corpus.default_actions(4, "sync"), 4)):
        for p in corpus.enumerate_processes(max_size, acts):
            for mode in ("base", "sync"):
                succ = successors(p, mode)
                edges += len(succ)
                digest.update(json.dumps(
                    [render(p), mode,
                     [[str(lab), render(dest)] for lab, dest in succ]]
                ).encode() + b"\n")
    assert edges == 32331
    assert digest.hexdigest() == (
        "d6e53973238a6185e7d153fac717bb052274b5375eca54c87f74807c8bdb6a36")


def test_unfold_states_and_edges_match_recorded_digest():
    # Every depth-3 unfolding, in both modes, of the exhaustive size-<=5
    # base corpus (2 actions) and the size-<=4 sync corpus over a, ~a, b, ~b
    # (16,034 unfoldings): the rendered states in discovery order, and each
    # edge as (source index, label, destination index) into them.
    digest = hashlib.sha256()
    counts = [0, 0]
    for acts, max_size in ((corpus.default_actions(2, "base"), 5),
                           (corpus.default_actions(4, "sync"), 4)):
        for p in corpus.enumerate_processes(max_size, acts):
            for mode in ("base", "sync"):
                states, edges = unfold(p, 3, mode)
                index = {s: n for n, s in enumerate(states)}
                counts[0] += len(states)
                counts[1] += len(edges)
                digest.update(json.dumps(
                    [render(p), mode, [render(s) for s in states],
                     [[index[s], str(lab), index[d]] for s, lab, d in edges]]
                ).encode() + b"\n")
    assert counts == [108867, 170759]
    assert digest.hexdigest() == (
        "177357f96a6b7a768668fe2a07411b65b84d6c459451ce6b75812ca95868125e")


def _successors_canonicalizing_each_destination(p, mode):
    """The firing rule before destinations were built canonical: fire the
    components of p as given, then canonicalize every destination."""
    fin = p.finite.components
    reps = p.replicated
    firers = [(c.action, c.body.components, i) for i, c in enumerate(fin)
              if not (i and c == fin[i - 1])]
    firers += [(t.action, t.body.components, None)
               for i, t in enumerate(reps) if not (i and t == reps[i - 1])]
    moves = [(Label(act), (i,), body) for act, body, i in firers]
    if mode == "sync":
        moves += [(TAU, (i, j), body + other)
                  for n, (act, body, i) in enumerate(firers)
                  for other_act, other, j in firers[n + 1:]
                  if act.handshakes(other_act)]
    seen = {}
    for label, consumed, spawned in moves:
        kept = [c for i, c in enumerate(fin) if i not in consumed]
        dest = canonicalize(Process(reps, kept + list(spawned)))
        seen[(label.key, dest.key)] = (label, dest)
    return tuple(seen[k] for k in sorted(seen))


# Not canonical: each has a prefix the distribution law rewrites, at the
# top, inside a body that fires, or inside a replicated body.
NON_CANONICAL = {
    "base": ["a.a.0 | a.(b.0|a.b.0)", "!a.a.0 | b.(a.0|a.a.0)",
             "!b.(a.0|a.a.0) | a.(a.0|a.0|a.a.0) | a.a.0",
             "b.a.(b.0|a.b.0) | !a.(b.0|a.b.0)"],
    "sync": ["a.a.0 | ~a.(b.0|a.b.0)", "!~a.a.a.0 | a.(~a.0|a.~a.0)",
             "~a.~a.0 | a.b.b.0 | !b.(~b.0|b.~b.0)",
             "a.(b.0|a.b.0) | ~a.(b.0|a.b.0)"],
}


@pytest.mark.parametrize("corpus_mode", ["base", "sync"])
def test_successors_match_the_rule_that_canonicalizes_each_destination(
        corpus_mode):
    # Fired as its canonical form, a process has the successors that
    # firing it as given and canonicalizing each destination gives, and
    # each destination is the one object canonicalize returns for it.
    clear_caches()
    procs = corpus.enumerate_processes(
        5, corpus.default_actions(2, corpus_mode))
    raw = [parse(t, corpus_mode) for t in NON_CANONICAL[corpus_mode]]
    assert all(canonicalize(p) != p for p in raw)
    for p in procs + raw:
        for mode in ("base", "sync"):
            got = successors(p, mode)
            assert got == _successors_canonicalizing_each_destination(
                p, mode), (render(p), mode)
            assert got == successors(canonicalize(p), mode)
            assert all(canonicalize(dest) is dest for _lab, dest in got)


def test_no_tau_in_base_mode():
    p = parse("a.0|a.0")
    assert all(lab != TAU for lab, _ in successors(p, "base"))


def test_mode_validation():
    with pytest.raises(ValueError):
        successors(parse("a.0"), "weird")


def test_reachable_within():
    states, _edges = unfold(parse("a.b.0"), 2)
    assert {render(s) for s in states} == {"a.b.0", "b.0", "0"}
    assert unfold(parse("a.b.0"), 0)[0] == [canonicalize(parse("a.b.0"))]


def test_unfold_discovery_order_and_edges():
    states, edges = unfold(parse("a.b.0|b.a.0"), 2)
    assert [render(s) for s in states] == [
        "a.b.0 | b.a.0", "b.0 | b.a.0", "a.0 | a.b.0", "a.0 | b.0",
        "b.a.0", "a.b.0"]
    assert [(render(s), str(l), render(d)) for s, l, d in edges] == [
        ("a.b.0 | b.a.0", "a", "b.0 | b.a.0"),
        ("a.b.0 | b.a.0", "b", "a.0 | a.b.0"),
        ("b.0 | b.a.0", "b", "a.0 | b.0"),
        ("b.0 | b.a.0", "b", "b.a.0"),
        ("a.0 | a.b.0", "a", "a.0 | b.0"),
        ("a.0 | a.b.0", "a", "a.b.0"),
    ]


def test_unfold_stops_when_nothing_is_left():
    states, edges = unfold(parse("a.0"), 5)
    assert [render(s) for s in states] == ["a.0", "0"]
    assert len(edges) == 1
    assert unfold(parse("a.a.0"), 0) == ([canonicalize(parse("a.0|a.0"))], [])


def test_unfold_validates_depth():
    with pytest.raises(DepthExceeded):
        unfold(parse("a.0"), DEFAULT_DEPTH_CAP + 1)
    with pytest.raises(ValueError):
        unfold(parse("a.0"), -1)


def test_successors_deterministic_and_cached(monkeypatch):
    p = parse("!a.b.0 | c.0")
    first = successors(p, "base")
    assert list(first) == sorted(first, key=lambda t: (t[0].key, t[1].key))

    def no_firing(q, mode):
        raise AssertionError(f"fired again: {q!r}")

    # the second call reads the stored moves and fires nothing
    monkeypatch.setattr(lts, "_fire", no_firing)
    assert successors(p, "base") == first


def test_fired_corpora_keep_one_id_per_state():
    # Firing numbers destinations by their parts, their components: no
    # canonical state gets a second id, every state's parts are its
    # replicated and its finite components, each in key order, the parts
    # index is the exact inverse, and ids are handed out in an order that
    # does not depend on how objects hash (the digest holds under any
    # PYTHONHASHSEED).  Every id is read through ``state``, which builds
    # what firing left unbuilt.
    clear_caches()
    for mode in ("base", "sync"):
        # largest first, so that firing meets new destinations
        for p in reversed(corpus.enumerate_processes(
                5, corpus.default_actions(2, mode))):
            successors(p, "base")
            successors(p, "sync")
    states = [congruence.state(j) for j in range(len(congruence._PARTS_OF))]
    assert all(canonical_id(s) == j for j, s in enumerate(states))
    assert all(congruence.state(j) is s for j, s in enumerate(states))
    comps = {}  # the components, in the order the states first hold them
    for j, s in enumerate(states):
        reps, fin = parts = congruence._PARTS_OF[j]
        assert type(reps) is tuple and type(fin) is tuple
        assert parts == (s.replicated, s.finite.components)
        assert congruence._PARTS[parts] == j
        comps.update(dict.fromkeys(reps + fin))
    indexed = len(congruence._PARTS)
    assert (len(states), len(comps), indexed) == (4157, 328, 4157)
    digest = hashlib.sha256()
    for t in states + list(comps):
        digest.update(render(t).encode() + b"\n")
    assert digest.hexdigest() == (
        "6f2d7f89c6d146ffaed252e41ad9ecf77774d9b86d19a64e1edc1df179ec7b5f")


def test_firing_onto_numbered_destinations_builds_no_process(monkeypatch):
    # Firing reads its source's parts and hands out destination ids from
    # the parts index, in either mode, for new destinations and numbered
    # ones alike: it builds no Process.  Only the readers build, each state
    # once, on first read: successors its destinations, unfold its states.
    clear_caches()
    p = parse("!a.b.0 | !~a.0 | a.0 | a.0 | ~a.b.0 | c.a.0", "sync")
    i = canonical_id(p)
    c = canonicalize(p)
    built = []
    init = Process.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(Process, "__init__", counting)
    for mode in ("sync", "base"):
        lts._moves(i, mode)
        # fires every state within 3 steps
        bounded_class(p, 4, mode)
    assert built == [] and len(congruence._PARTS_OF) == 50
    sync = successors(p, "sync")
    # one destination is p itself, built when p was numbered
    assert c in [d for _lab, d in sync]
    assert sorted(map(id, built)) == sorted(
        {id(d) for _lab, d in sync} - {id(c)})
    built.clear()
    assert successors(p, "sync") == sync and built == []
    assert set(successors(p, "base")) < set(sync) and built == []
    states, _edges = unfold(p, 2, "sync")
    old = {id(c)} | {id(d) for _lab, d in sync}
    assert sorted(map(id, built)) == sorted(
        id(s) for s in states if id(s) not in old)
    assert built


def test_moves_dicts_are_keyed_by_ints_and_left_untracked():
    # A state's moves are {label id: destination ids}, ints only, so the
    # cyclic garbage collector untracks each moves dict and never scans it
    # again.
    clear_caches()
    p = parse("!a.b.0 | !~a.0 | a.0 | a.0 | ~a.b.0 | c.a.0", "sync")
    unfold(p, 5, "sync")
    gc.collect()
    moves = list(lts._SYNC_MOVES.values())
    assert len(moves) == 50
    assert all(type(k) is int for m in moves for k in m)
    assert not any(gc.is_tracked(m) for m in moves)


@pytest.mark.parametrize("first,label", [("!~a.0", "~a"), ("!a.0", "a")])
def test_handshakes_do_not_depend_on_which_polarity_is_numbered_first(
        first, label):
    # Label ids are handed out as labels are first met; a handshake pair is
    # found by comparing ids, whichever of its two labels came first.
    clear_caches()
    successors(parse(first, "sync"), "sync")
    assert str(lts._LABEL_OF[0]) == label
    p = parse("a.0 | ~a.b.0 | !~a.0", "sync")
    got = successors(p, "sync")
    assert got == _successors_canonicalizing_each_destination(p, "sync")
    assert sum(lab == TAU for lab, _dest in got) == 2


def _fired(p, label, mode="base"):
    """The destination ids of p's moves under ``label``, fired by id."""
    moves = lts._moves(canonical_id(p), mode)
    return next(ids for lab, ids in moves.items()
                if str(lts._LABEL_OF[lab]) == label)


def test_a_state_numbered_before_firing_keeps_one_id_per_state():
    # canonicalize first, then fire a state with the same replicated part
    # that reaches it: once numbered before that part fired, once after;
    # firing finds the numbered state, and its object stays the one
    clear_caches()
    before = canonicalize(parse("!a.0 | b.0"))
    i = canonical_id(before)
    # numbered by its parts at once, though its replicated part never fired
    assert congruence._PARTS_OF[i] == (before.replicated,
                                       before.finite.components)
    assert congruence._PARTS[congruence._PARTS_OF[i]] == i
    assert _fired(parse("!a.0 | c.b.0"), "c") == (i,)
    after = canonicalize(parse("!a.0 | d.0"))
    j = canonical_id(after)
    assert congruence._PARTS_OF[j] is not None
    assert _fired(parse("!a.0 | c.d.0"), "c") == (j,)
    for text, state in (("!a.0 | c.b.0", before), ("!a.0 | c.d.0", after)):
        [dest] = [d for lab, d in successors(parse(text)) if str(lab) == "c"]
        assert dest is state and canonicalize(dest) is state
    assert congruence.state(i) is before and congruence.state(j) is after


def test_a_state_fired_before_it_is_read_keeps_one_id_per_state():
    # fire first, by id, so the destinations are not built; then number
    # equal processes parsed from text, canonical or not: each gets the
    # fired id, and the object built on that first read is returned from
    # then on
    clear_caches()
    [i] = _fired(parse("!a.0 | c.(b.0 | b.0) | d.e.e.0"), "c")
    [j] = _fired(parse("!a.0 | c.(b.0 | b.0) | d.e.e.0"), "d")
    assert i not in congruence._STATES and j not in congruence._STATES
    canon = parse("!a.0 | b.0 | b.0 | d.(e.0 | e.0)")
    assert canonical_id(canon) == i
    assert canonicalize(canon) is canon and congruence.state(i) is canon
    raw = parse("!a.0 | c.(b.0 | b.0) | e.e.0")
    assert canonicalize(raw) != raw
    assert canonical_id(raw) == j
    built = congruence.state(j)
    assert canonicalize(raw) is built
    assert canonicalize(parse("!a.0 | c.(b.0 | b.0) | e.0 | e.0")) is built
    dests = [d for _lab, d in successors(
        parse("!a.0 | c.(b.0 | b.0) | d.e.e.0"))]
    assert any(d is canon for d in dests) and any(d is built for d in dests)


def test_a_raw_process_numbered_by_its_parts_keeps_one_id_per_state(
        monkeypatch):
    # numbering a raw process reads its parts off its components and builds
    # nothing; the first canonicalize builds its canonical form once and
    # later calls build nothing; firing onto that state later hands out the
    # same id
    clear_caches()
    raw = parse("!c.a.a.0 | b.a.a.0 | d.d.0")
    source = parse("!c.a.a.0 | e.(b.a.a.0 | d.d.0)")
    built = []
    init = Process.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(Process, "__init__", counting)
    i = canonical_id(raw)
    assert built == []
    c = canonicalize(raw)
    assert c != raw and built == [c]
    assert canonicalize(raw) is c and canonicalize(c) is c
    assert canonical_id(c) == i and built == [c]
    assert _fired(source, "e") == (i,) and built == [c]
    [dest] = [d for lab, d in successors(source) if str(lab) == "e"]
    assert dest is c
    assert render(c) == "!c.(a.0 | a.0) | d.0 | d.0 | b.(a.0 | a.0)"
    # a new state whose components are canonical already: once its bodies
    # are canonicalized, numbering it reuses each component, building no
    # term, and stores the process itself
    q = parse("!c.(a.0 | a.0) | b.(a.0 | a.0) | d.0")
    for t in q.replicated + q.finite.components:
        congruence.canonical_finite(t.body)
    terms = []
    term_init = PrefixedTerm.__init__

    def counting_terms(self, *args):
        terms.append(self)
        term_init(self, *args)

    monkeypatch.setattr(PrefixedTerm, "__init__", counting_terms)
    built.clear()
    assert canonical_id(q) != i and terms == []
    assert canonicalize(q) is q and built == []


def _fire_corpora_by_id():
    """Fire every process of both size-<=5 corpora in both modes, by id,
    largest first; the ids numbered while firing each corpus end below the
    returned bounds."""
    clear_caches()
    bounds = []
    for mode in ("base", "sync"):
        for p in reversed(corpus.enumerate_processes(
                5, corpus.default_actions(2, mode))):
            i = canonical_id(p)
            lts._moves(i, "base")
            lts._moves(i, "sync")
        bounds.append(len(congruence._PARTS_OF))
    return bounds


def test_ids_read_back_after_firing_keep_one_id_per_state():
    # Every id numbered while firing both corpora reads back, through
    # ``state``, as a process whose id is that same id.  Fired again from
    # empty tables, each id is then found for an equal process parsed from
    # text before anything is built for it.
    bounds = _fire_corpora_by_id()
    n = bounds[-1]
    assert sum(j not in congruence._STATES for j in range(n)) == 1460
    states = [congruence.state(j) for j in range(n)]
    assert [canonical_id(s) for s in states] == list(range(n))
    assert len(set(states)) == n == len(congruence._PARTS_OF)
    texts = [render(s) for s in states]
    assert _fire_corpora_by_id() == bounds
    unbuilt = [j not in congruence._STATES for j in range(n)]
    for j, text in enumerate(texts):
        x = parse(text, "base" if j < bounds[0] else "sync")
        assert canonical_id(x) == j, text
        assert canonicalize(x) is congruence.state(j)
        assert not unbuilt[j] or congruence.state(j) is x
    assert len(congruence._PARTS_OF) == n



def test_state_key_orders_ids_as_the_keys_of_their_states():
    # Ids are ordered by their parts, which builds no process: terms are
    # equal only when identical and compare by key, so that is the order
    # of the states' own keys.
    rng = random.Random(35)
    ids = []
    for mode in ("base", "sync"):
        acts = corpus.default_actions(3 if mode == "base" else 4, mode)
        for _ in range(30):
            p = corpus.random_process(rng, rng.randint(0, 6), acts)
            ids += map(canonical_id, unfold(p, 3, mode)[0])
    rng.shuffle(ids)
    assert sorted(ids, key=lts._state_key) == sorted(
        ids, key=lambda j: congruence.state(j).key)
    assert len(set(ids)) > 150


@pytest.mark.parametrize("mode", ["base", "sync"])
def test_moves_list_each_labels_destinations_in_state_key_order(mode):
    # Firing stores each label's destinations in the key order of their
    # states, the one order the readers and the game read them in; over
    # the size-<=4 corpus, 18 base labels and 22 sync labels have
    # destinations whose ids were handed out in another order.
    clear_caches()
    labels = id_ordered = 0
    for p in corpus.enumerate_processes(4, corpus.default_actions(2, mode)):
        for ids in lts._moves(canonical_id(p), mode).values():
            assert list(ids) == sorted(ids, key=lts._state_key)
            labels += 1
            id_ordered += list(ids) == sorted(ids)
    assert labels - id_ordered == {"base": 18, "sync": 22}[mode]


ACTIONS = corpus.default_actions(2, "base")
SYNC_ACTIONS = corpus.default_actions(2, "sync")


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_congruent_states_have_matching_successors(seed):
    # the congruence is a bisimulation whose moves match up to the congruence
    # itself, so raw and canonical states yield identical successor sets
    rng = random.Random(seed)
    p = corpus.random_process(rng, rng.randint(0, 7), ACTIONS)
    q = canonicalize(p)
    assert congruent(p, q)
    ps = {(lab.key, dest) for lab, dest in successors(p, "base")}
    qs = {(lab.key, dest) for lab, dest in successors(q, "base")}
    assert ps == qs


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_visible_steps_shrink_finite_processes(seed):
    rng = random.Random(seed)
    fp = corpus.random_finite(rng, rng.randint(1, 7), ACTIONS)
    p = canonicalize(Process((), fp))
    assert successors(p, "base")
    for _lab, dest in successors(p, "base"):
        assert dest.size == p.size - 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_sync_steps_consume_one_or_two_prefixes(seed):
    rng = random.Random(seed)
    fp = corpus.random_finite(rng, rng.randint(2, 7), SYNC_ACTIONS)
    p = canonicalize(Process((), fp))
    for lab, dest in successors(p, "sync"):
        assert dest.size == p.size - (2 if lab == TAU else 1)


def test_bounded_class_keeps_modes_apart():
    # one memo table serves both modes; base mode ignores synchronisation,
    # so only sync mode tells these two apart
    p, q = (canonicalize(parse(t, "sync"))
            for t in ("a.0|~a.0", "a.~a.0|~a.a.0"))
    assert bounded_class(p, 2, "sync") != bounded_class(q, 2, "sync")
    assert bounded_class(p, 2, "base") == bounded_class(q, 2, "base")
