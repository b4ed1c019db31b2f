import random

import pytest
from hypothesis import given, settings, strategies as st

from ccseed import corpus
from ccseed.congruence import canonicalize, congruent
from ccseed.lts import (DEFAULT_DEPTH_CAP, DepthExceeded, Label, TAU,
                        reachable_within, reduct_k, successors, transitions,
                        unfold)
from ccseed.syntax import Action, Process, parse, render


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
    assert TAU.is_tau()
    assert not Label(Action("a")).is_tau()


def test_sync_tau_between_components():
    assert ("tau", "0") in succ_strs("a.0|~a.0", "sync")
    # nesting is not parallelism: no internal handshake here
    assert all(lab != "tau" for lab, _ in succ_strs("a.~a.0", "sync"))


def test_sync_tau_with_replication():
    p = succ_strs("!a.0|~a.b.0", "sync")
    assert ("tau", "!a.0 | b.0") in p
    q = succ_strs("!a.0|!~a.0", "sync")
    assert ("tau", "!a.0 | !~a.0") in q


def test_no_tau_in_base_mode():
    p = parse("a.0|a.0")
    assert all(not lab.is_tau() for lab, _ in successors(p, "base"))


def test_mode_validation():
    with pytest.raises(ValueError):
        successors(parse("a.0"), "weird")


def test_transitions_wrap_successors():
    p = parse("a.0")
    (tr,) = transitions(p, "base")
    assert tr.source == canonicalize(p)
    assert str(tr.label) == "a"
    assert render(tr.destination) == "0"


def test_reduct_k_exact_steps():
    p = parse("a.b.0")
    assert reduct_k(p, p, 0)
    assert reduct_k(p, parse("b.0"), 1)
    assert not reduct_k(p, parse("0"), 1)
    assert reduct_k(p, parse("0"), 2)
    assert not reduct_k(p, parse("b.0"), 2)


def test_reduct_k_modulo_congruence():
    # target supplied in non-canonical shape still matches
    assert reduct_k(parse("b.a.a.0"), parse("a.a.0"), 1)
    assert reduct_k(parse("b.a.a.0"), parse("a.0|a.0"), 1)


def test_reduct_k_replication():
    p = parse("!a.0")
    assert reduct_k(p, p, 3)
    assert reduct_k(parse("!a.b.0"), parse("!a.b.0|b.0|b.0"), 2)


def test_reduct_k_validation():
    with pytest.raises(ValueError):
        reduct_k(parse("a.0"), parse("0"), -1)


def test_reachable_within():
    states = reachable_within(parse("a.b.0"), 2)
    assert {render(s) for s in states} == {"a.b.0", "b.0", "0"}
    assert reachable_within(parse("a.b.0"), 0) == frozenset(
        {canonicalize(parse("a.b.0"))})


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
    assert reachable_within(parse("a.b.0|b.a.0"), 2) == frozenset(states)


def test_unfold_stops_when_nothing_is_left():
    states, edges = unfold(parse("a.0"), 5)
    assert [render(s) for s in states] == ["a.0", "0"]
    assert len(edges) == 1
    assert unfold(parse("a.a.0"), 0) == ([canonicalize(parse("a.0|a.0"))], [])


def test_unfold_validates_depth():
    with pytest.raises(DepthExceeded):
        unfold(parse("a.0"), DEFAULT_DEPTH_CAP + 1)
    with pytest.raises(DepthExceeded):
        unfold(parse("a.0"), 3, cap=2)
    with pytest.raises(ValueError):
        unfold(parse("a.0"), -1)


def test_reachable_within_cap():
    with pytest.raises(DepthExceeded):
        reachable_within(parse("a.0"), DEFAULT_DEPTH_CAP + 1)


def test_successors_deterministic_and_cached():
    p = parse("!a.b.0 | c.0")
    first = successors(p, "base")
    assert first is successors(p, "base")
    assert list(first) == sorted(first, key=lambda t: (t[0].key, t[1].key))


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
        assert dest.size == p.size - (2 if lab.is_tau() else 1)