import contextlib
import gc
import hashlib
import itertools
import json
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from ccseed import clear_caches, congruence, corpus
from ccseed.cli import _trace_json
from ccseed.congruence import canonicalize
from ccseed.oracle import finite_bisim
from ccseed import rewrite
from ccseed.rewrite import (RewriteStep, UniquenessError, compute_seed,
                            convertible, rewrites_to, search_audit, step_b1,
                            step_b2)
from ccseed.syntax import (FiniteProcess, Process, delete_at, occurrences,
                           parse, render)

P1 = "!a.(b.0|a.c.0) | !a.(c.0|a.b.0)"
P2 = "!a.b.0 | !a.c.0"


def _explored(start, guide):
    """The states ``_explore`` finds, read back, in discovery order."""
    return [congruence.state(i) for i in rewrite._explore(start, guide)]


def test_rewrite_step_validates_size_decrease():
    p, q = canonicalize(parse("a.0|a.0")), canonicalize(parse("a.0"))
    RewriteStep("B1", p, q)
    with pytest.raises(ValueError):
        RewriteStep("B1", q, p)
    with pytest.raises(ValueError):
        RewriteStep("B1", p, p)
    with pytest.raises(ValueError):
        RewriteStep("B9", p, q)


def test_step_b1_deletes_matching_finite_component():
    steps = step_b1(parse("!a.b.0 | a.b.0"), parse("!a.b.0"))
    assert len(steps) == 1
    assert render(steps[0].after) == "!a.b.0"
    assert steps[0].axiom == "B1"
    assert render(steps[0].matched) == "a.b.0"


def test_step_b1_deletes_inside_bodies():
    steps = step_b1(parse("!a.(c.0|a.b.0) | !a.b.0"), parse("!a.c.0 | !a.b.0"))
    afters = {render(s.after) for s in steps}
    assert "!a.b.0 | !a.c.0" in afters


def test_step_b1_matches_modulo_congruence():
    # the occurrence a.a.0 only matches !(a.0|a.0)-style targets after
    # canonicalization folds it to two parallel copies
    steps = step_b1(parse("b.a.a.0 | !a.0"), parse("!a.0"))
    afters = {render(s.after) for s in steps}
    assert "!a.0 | b.0" in afters or "!a.0 | b.a.0" in afters


def test_step_b1_deletes_under_prefixes():
    steps = step_b1(parse("a.b.0 | c.0"), parse("!b.0"))
    assert "a.0 | c.0" in {render(s.after) for s in steps}


def test_step_b1_requires_target_justification():
    assert step_b1(parse("a.b.0 | c.0"), parse("!c.b.0")) == ()


def test_step_b1_builds_no_b2_destinations():
    # B2 could drop either duplicated bang (two size-4 destinations); a B1
    # step never needs them, so only p, the target and c.0's deletion are
    # numbered as states.
    clear_caches()
    steps = step_b1(parse("!a.0|!a.0|!b.0|!b.0|c.0"), parse("!c.0"))
    assert [render(s.after) for s in steps] == ["!a.0 | !a.0 | !b.0 | !b.0"]
    a, b, c = (parse(t).finite.components[0] for t in ("a.0", "b.0", "c.0"))
    for reps in ((a, b, b), (a, a, b)):
        assert (reps, (c,)) not in congruence._PARTS
    assert len(congruence._PARTS) == 3


def test_step_b2_drops_duplicate_replicated_component():
    steps = step_b2(parse("!a.0 | !a.0"))
    assert len(steps) == 1
    assert render(steps[0].after) == "!a.0"
    assert steps[0].axiom == "B2"
    assert render(steps[0].dropped) == "a.0"
    assert step_b2(parse("!a.0 | !b.0")) == ()


def test_rewrites_to_identity_and_failure():
    p = parse("a.0|a.0")
    assert rewrites_to(p, parse("a.a.0")) == ()
    assert rewrites_to(parse("a.0"), parse("b.0")) is None


def test_rewrites_to_golden_pair():
    trace = rewrites_to(parse(P1), parse(P2))
    assert trace is not None and len(trace) > 0
    for step in trace:
        assert step in step_b1(step.before, parse(P2)) + step_b2(step.before)
    sizes = [step.before.size for step in trace] + [trace[-1].after.size]
    assert sizes == sorted(sizes, reverse=True)
    assert trace[-1].after == canonicalize(parse(P2))


def test_seed_golden_examples():
    for text, seed in [("!a.(b.0|a.b.0)", "!a.b.0"), (P1, "!a.b.0 | !a.c.0"),
                       ("0", "0"), ("a.a.0", "a.0 | a.0"),
                       ("!a.0|!a.0|!a.0", "!a.0")]:
        assert render(compute_seed(parse(text)).seed) == seed


def test_seed_trace_reaches_seed():
    result = compute_seed(parse("!a.(b.0|a.b.0)"))
    assert len(result.trace) == 1
    assert result.trace[0].after == result.seed
    assert result.candidates_checked >= 1


def test_seed_result_cached():
    p = parse(P1)
    assert compute_seed(p) is compute_seed(p)


def test_convertible_golden():
    res = convertible(parse(P1), parse(P2))
    assert res.equivalent
    assert render(res.left.seed) == "!a.b.0 | !a.c.0"
    assert res.right.seed == res.left.seed
    # P2 is already its own seed
    assert res.right.trace == ()


def test_convertible_negative():
    res = convertible(parse("!a.b.0"), parse("!a.c.0"))
    assert not res.equivalent
    assert render(res.left.seed) == "!a.b.0"
    assert render(res.right.seed) == "!a.c.0"


def test_convertible_is_symmetric_and_reflexive():
    p, q = parse(P1), parse(P2)
    assert convertible(p, p).equivalent
    assert convertible(p, q).equivalent == convertible(q, p).equivalent


ACTIONS = corpus.default_actions(2, "base")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_seed_is_congruent_invariant(seed):
    # congruent inputs share one seed object
    rng = random.Random(seed)
    p = corpus.random_process(rng, rng.randint(0, 7), ACTIONS)
    assert compute_seed(p).seed == compute_seed(canonicalize(p)).seed


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_seed_of_finite_process_is_bisimilar(seed):
    # the independent finite-game oracle agrees the seed preserves behaviour
    rng = random.Random(seed)
    fp = corpus.random_finite(rng, rng.randint(0, 6), ACTIONS)
    sd = compute_seed(Process((), fp)).seed
    assert not sd.replicated
    assert finite_bisim(fp, sd.finite)
    assert sd.size <= fp.size


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_fattened_processes_stay_convertible(seed):
    rng = random.Random(seed)
    p = corpus.random_process(rng, rng.randint(0, 6), ACTIONS)
    q = corpus.make_redundant(rng, p, rng.randint(1, 3))
    res = convertible(p, q)
    assert res.equivalent
    assert res.left.seed == compute_seed(p).seed


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_traces_shrink_monotonically(seed):
    rng = random.Random(seed)
    p = corpus.random_process(rng, rng.randint(0, 7), ACTIONS)
    result = compute_seed(p)
    cur = canonicalize(p)
    for step in result.trace:
        assert step.before == cur
        assert step.after.size < step.before.size
        assert step in (step_b1(step.before, result.seed)
                        + step_b2(step.before))
        cur = step.after
    assert cur == result.seed


def test_seeds_traces_and_counts_match_recorded_digest():
    # Recorded before the guided searches were shared across candidates:
    # seeds, candidate counts and traces of the exhaustive size-<=5 corpus
    # must not change with the search's shape.  Each line is hashed twice,
    # once per candidate order that the digest was first recorded with.
    digest = hashlib.sha256()
    for p in corpus.enumerate_processes(5, ACTIONS):
        res = compute_seed(p)
        line = json.dumps([render(res.seed), res.candidates_checked,
                           _trace_json(res.trace)]).encode() + b"\n"
        digest.update(line + line)
    assert digest.hexdigest() == (
        "c4e0f386398e5df9a5b50d7db16910a00bf93fdb136bc393a0556ebe57653ab2")


def test_random_sizes_6_to_10_seeds_traces_and_counts_match_recorded_digest():
    # Recorded before seeds were searched from the replicated part: the
    # sizes the exhaustive digest above does not reach, over 3 actions,
    # one process in eight without replication.
    rng = random.Random(608)
    acts = corpus.default_actions(3)
    digest = hashlib.sha256()
    for k in range(150):
        p = corpus.random_process(rng, 6 + k % 5, acts,
                                  replication=k % 8 != 7)
        res = compute_seed(p)
        digest.update(json.dumps([render(res.seed), res.candidates_checked,
                                  _trace_json(res.trace)]).encode() + b"\n")
    assert digest.hexdigest() == (
        "211a6b8ae6fd0ec4ccc6003e99112639c172422d6b30aa4aa6ff6a0d33e6e865")


def test_guided_steps_and_traces_match_recorded_digest():
    # Recorded before the B1 guide became a set of terms: single B1 steps
    # toward the process, its seed and a fattening, the B2 steps, and
    # rewrites_to toward a few deletion descendants, in base mode (3
    # actions) and sync mode (a, ~a, b, ~b), sizes 1-8.
    rng = random.Random(1010)
    digest = hashlib.sha256()
    for mode, acts in (("base", corpus.default_actions(3)),
                       ("sync", corpus.default_actions(4, "sync"))):
        for _ in range(100):
            p = corpus.random_process(rng, rng.randint(1, 8), acts)
            seed = compute_seed(p).seed
            targets = (p, seed, corpus.make_redundant(rng, p, 1))
            descendants = _explored(canonicalize(p), None)
            goals = [rng.choice(descendants) for _ in range(3)]
            traces = [rewrites_to(p, d) for d in goals]
            line = [mode, render(p), render(seed),
                    [_trace_json(step_b1(p, t)) for t in targets],
                    _trace_json(step_b2(p)),
                    [None if tr is None else _trace_json(tr)
                     for tr in traces]]
            digest.update(json.dumps(line).encode() + b"\n")
    assert digest.hexdigest() == (
        "c0612b08363de4ef38020869c75cc48314e3ae3d0a6555151af4d83ddc8f81e5")


def test_search_visits_stay_within_exponential_bound():
    search_audit.clear()
    rng = random.Random(11)
    for _ in range(200):
        p = corpus.random_process(rng, rng.randint(0, 8), ACTIONS)
        q = corpus.make_redundant(rng, p, 1)
        convertible(p, q)
    assert search_audit
    assert all(visited <= 2 ** size for size, visited in search_audit)


def test_uniqueness_error_is_an_assertion():
    assert issubclass(UniquenessError, AssertionError)


def _plant_rows(monkeypatch, planted: dict):
    """Give each term of ``planted`` extra deletion rows, read before its
    own: one to each of its listed terms, as if deleting the occurrence
    a.b.0 left that term.  The real tables are built first, so no
    enclosing table takes the extra rows in."""
    occ = canonicalize(parse("!a.b.0")).replicated[0]
    extra = {}
    for part, twins in planted.items():
        (t,) = canonicalize(parse(part)).finite.components
        extra[t] = [(occ, u) for twin in twins
                    for u in canonicalize(parse(twin)).finite.components]
    deletion_table = rewrite._deletion_table
    monkeypatch.setattr(rewrite, "_deletion_table",
                        lambda t: extra.get(t, []) + deletion_table(t))


@pytest.mark.parametrize("part, twin, others", [
    pytest.param("!a.b.0", "!a.c.0", "", id="!a.b.0-!a.c.0"),
    pytest.param("c.0", "d.0", "", id="c.0-d.0"),
    pytest.param("b.a.b.0", "d.0", " | a.c.0 | b.a.b.0", id="b.a.b.0-d.0"),
    # deleting a.b.0 from the last component leaves b.(b.0 | b.0), whose
    # canonical form is three copies of b.0: b.0's tie is tripled
    pytest.param("b.0", "d.0", " | b.(a.b.0 | b.0 | b.0)",
                 id="b.0-d.0-copies"),
])
def test_each_seed_stage_raises_uniqueness_error_on_a_tie(monkeypatch, part,
                                                          twin, others):
    # A replicated component that reaches a second component as small as
    # itself (stage 1), or a finite component given a deletion row to a
    # second state as small as its least one (stage 2), leaves no unique
    # seed, even when the other finite components have one; so does such
    # a row in a term that a finite component's least state is copies
    # of.  Each stage-2 row deletes the guide's a.b.0.
    p = parse("!a.b.0 | c.0" + others)
    compute_seed(p)  # unique without the tie
    start = canonicalize(parse(part))
    if start.replicated:
        (t,), (u,) = start.replicated, canonicalize(parse(twin)).replicated
        reach = rewrite._reach

        def tied(comp, guide):
            reached = reach(comp, guide)
            return reached | {u} if comp == t else reached

        monkeypatch.setattr(rewrite, "_reach", tied)
    else:
        _plant_rows(monkeypatch, {part: [twin]})
    monkeypatch.setattr(rewrite, "_SEED_CACHE", {})
    monkeypatch.setattr(rewrite, "_REPLICATED_SEEDS", {})
    monkeypatch.setattr(rewrite, "_COMPONENT_SEEDS", {})
    with pytest.raises(UniquenessError):
        compute_seed(p)


def test_a_tie_above_a_components_least_state_is_not_raised(monkeypatch):
    # b.a.b.0 reaches b.0 by deleting a.b.0.  A planted row, read first,
    # also takes it to d.e.0, and a second one ties d.e.0 with e.d.0: a
    # tie of size 2, above b.a.b.0's least state, which stays the seed.
    p = parse("!a.b.0 | c.0 | b.a.b.0")
    seed = compute_seed(p).seed
    assert render(seed) == "!a.b.0 | b.0 | c.0"
    _plant_rows(monkeypatch, {"b.a.b.0": ["d.e.0"], "d.e.0": ["e.d.0"]})
    monkeypatch.setattr(rewrite, "_SEED_CACHE", {})
    monkeypatch.setattr(rewrite, "_COMPONENT_SEEDS", {})
    assert compute_seed(p).seed is seed
    (c,) = canonicalize(parse("d.e.0")).finite.components
    guide = rewrite._guide(seed)
    with pytest.raises(UniquenessError):  # the planted tie is one
        rewrite._seed_component(c, guide, p)


def test_stage_1_runs_once_per_replicated_part(monkeypatch):
    # Stage 1 seeds the replicated part alone, so inputs that share it
    # but not their finite parts run it once: the second reads the part
    # and its guide from _REPLICATED_SEEDS.  Each seed is the one its
    # input gets from cold caches.
    texts = ["!a.0 | !b.a.0 | c.0", "!a.0 | !b.a.0 | c.b.a.0"]
    cold = []
    for text in texts:
        clear_caches()
        cold.append(compute_seed(parse(text)).seed)
    calls = []
    seed_replicated = rewrite._seed_replicated

    def counting(copies):
        calls.append(copies)
        return seed_replicated(copies)

    monkeypatch.setattr(rewrite, "_seed_replicated", counting)
    clear_caches()
    assert [compute_seed(parse(text)).seed for text in texts] == cold
    assert len(calls) == 1
    assert [render(s) for s in cold] == ["!a.0 | !b.0 | c.0"] * 2


def test_stage_1_matching_leaves_no_cyclic_garbage():
    # Stage 1 verifies a set by a bipartite matching, whose augmenting
    # step recurses; as a closure that referred to itself through its own
    # cell it left a cycle of 8 objects per call to the cyclic collector.
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        clear_caches()
        compute_seed(parse("!a.0 | !a.(a.0 | b.0) | !b.a.0 | !a.b.0"))
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_a_stage_1_tie_is_not_memoized(monkeypatch):
    # A tie in stage 1 raises UniquenessError and stores no part, so the
    # input raises again once its seed cache is emptied.
    p = parse("!a.b.0 | c.0")
    (t,) = canonicalize(parse("!a.b.0")).replicated
    (u,) = canonicalize(parse("!a.c.0")).replicated
    reach = rewrite._reach

    def tied(comp, guide):
        reached = reach(comp, guide)
        return reached | {u} if comp is t else reached

    monkeypatch.setattr(rewrite, "_reach", tied)
    clear_caches()
    for _ in range(2):
        monkeypatch.setattr(rewrite, "_SEED_CACHE", {})
        with pytest.raises(UniquenessError):
            compute_seed(p)
    assert (t,) not in rewrite._REPLICATED_SEEDS


@pytest.mark.parametrize("text", [
    "!a.b.0",                   # each copy reaches only itself
    "!a.0 | !a.0",              # the same, with a duplicate to drop
    "!a.0 | !b.a.0",            # the search over sets
    "!a.0 | !b.a.0 | c.b.a.0",  # the search, then a finite part
])
def test_a_seed_from_warm_tables_builds_one_process(monkeypatch, text):
    # Stage 1 returns the seed's replicated part as a set and stage 2
    # reads its guide off that set, so with every table but the seed
    # cache warm, the seed is the one Process that compute_seed builds.
    p = parse(text)
    seed = compute_seed(p).seed
    monkeypatch.setattr(rewrite, "_SEED_CACHE", {})
    built = []
    init = Process.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(Process, "__init__", counting)
    assert compute_seed(p).seed == seed
    assert len(built) == 1


def _mixed_processes(rng, count, acts):
    """``count`` random processes of sizes 11-15, each with a non-empty
    replicated and a non-empty finite part."""
    out = []
    while len(out) < count:
        p = corpus.random_process(rng, 11 + len(out) % 5, acts)
        if p.replicated and p.finite.components:
            out.append(p)
    return out


def test_random_mixed_sizes_11_to_15_seeds_and_traces_match_recorded_digest():
    # Recorded before seeds were computed in two stages: inputs with both
    # a replicated and a finite part, past the sizes the digests above
    # reach, in base mode (3 actions) and sync mode (a, ~a, b, ~b).
    rng = random.Random(1111)
    digest = hashlib.sha256()
    for mode, count, acts in (("base", 90, corpus.default_actions(3)),
                              ("sync", 30, corpus.default_actions(4, "sync"))):
        for p in _mixed_processes(rng, count, acts):
            res = compute_seed(p)
            digest.update(json.dumps([mode, render(p), render(res.seed),
                                      _trace_json(res.trace)]).encode()
                          + b"\n")
    assert digest.hexdigest() == (
        "799403f7d3b6e5ab5755416fa55e7318df4e615ecd9642a43681247f56a8767b")


def _replicated_heavy_processes(rng, count, acts):
    """``count`` random processes of sizes 12-15 with at least two
    replicated components holding three quarters of the size or more;
    every fourth is replicated-only."""
    out = []
    while len(out) < count:
        p = corpus.random_process(rng, 12 + len(out) % 4, acts)
        if len(out) % 4 == 3:
            p = Process(p.replicated + p.finite.components)
        if (len(p.replicated) >= 2
                and 4 * sum(t.size for t in p.replicated) >= 3 * p.size):
            out.append(p)
    return out


def test_replicated_heavy_sizes_12_to_15_seeds_and_traces_match_recorded_digest():
    # Recorded before stage 1 listed its candidates under a bounded guide:
    # inputs whose replicated part has many deletion descendants, in base
    # mode (3 actions) and sync mode (a, ~a, b, ~b).
    rng = random.Random(1212)
    digest = hashlib.sha256()
    for mode, count, acts in (("base", 30, corpus.default_actions(3)),
                              ("sync", 10, corpus.default_actions(4, "sync"))):
        for p in _replicated_heavy_processes(rng, count, acts):
            res = compute_seed(p)
            digest.update(json.dumps([mode, render(p), render(res.seed),
                                      _trace_json(res.trace)]).encode()
                          + b"\n")
    assert digest.hexdigest() == (
        "4fe270598c564ef918e82ac6d279d1002342dc95f56d98c9e9341257b446fc1a")


def test_seed_explores_an_input_with_a_finite_part_once(monkeypatch):
    # The replicated and the finite part are explored on their own, so no
    # guided exploration starts at the whole input until the trace is
    # first read, and that read explores it once, or not at all when the
    # seed is the input itself; one exploration of the whole input per
    # guide explored the first input 31 times.
    found = parse("!b.0 | !c.0 | !c.b.0 | "
                  "!c.(b.0 | b.0 | c.0 | c.0 | b.a.0 | b.(a.0 | c.0)) | "
                  "c.0 | c.0")
    rng = random.Random(77)
    acts = corpus.default_actions(3)
    inputs = [found] + [p for p in (corpus.random_process(rng, 16, acts)
                                    for _ in range(30))
                        if p.finite.components]
    starts = []
    explore = rewrite._explore

    def recording(start, guide):
        if guide is not None:
            starts.append(start)
        return explore(start, guide)

    monkeypatch.setattr(rewrite, "_explore", recording)
    irreducible = 0
    for p in inputs:  # found is drawn again among the random inputs
        monkeypatch.setattr(rewrite, "_SEED_CACHE", {})
        starts.clear()
        result = compute_seed(p)
        assert convertible(p, found).left is result
        assert canonicalize(p) not in starts, render(p)
        assert canonicalize(found) not in starts, render(p)
        reduced = result.seed != result.start
        irreducible += not reduced
        assert bool(result.trace) == reduced, render(p)
        assert starts.count(canonicalize(p)) == reduced, render(p)
        starts.clear()
        result.trace
        assert not starts, render(p)
    assert irreducible and irreducible < len(inputs)


def test_seed_skips_the_stages_that_can_delete_nothing(monkeypatch):
    # Without replicated components there is no guide and no B2 step, so a
    # replication-free input is its own seed with no exploration; a
    # replicated-only input has a nil finite part, which is not explored.
    # Each such exploration logged a one-state entry, (0, 1) for the nil
    # process.
    rng = random.Random(1313)
    inputs = [corpus.random_process(rng, rng.randint(1, 10), ACTIONS)
              for _ in range(60)]
    starts = []
    explore = rewrite._explore

    def recording(start, guide):
        starts.append(start)
        return explore(start, guide)

    monkeypatch.setattr(rewrite, "_explore", recording)
    monkeypatch.setattr(rewrite, "_SEED_CACHE", {})
    search_audit.clear()
    replicated_only = 0
    for p in inputs:
        free = Process((), p.replicated + p.finite.components)
        assert compute_seed(free).seed == canonicalize(free), render(free)
        assert not starts, render(free)
        if p.replicated:
            only = Process(p.replicated + p.finite.components)
            compute_seed(only)
            assert Process() not in starts, render(only)
            replicated_only += 1
            starts.clear()
    assert replicated_only >= 30
    assert search_audit and (0, 1) not in search_audit


def test_fattened_draw_stays_within_work_budget(monkeypatch):
    # The size-24 replicated-only fattening that random.Random(1418937128)
    # draws in test_fattened_processes_stay_convertible: listing stage 1's
    # candidates by an unguided exploration of its replicated part took
    # 66,555 canonicalize calls (1.2-1.6 s) from cold caches.
    rng = random.Random(1418937128)
    p = corpus.random_process(rng, rng.randint(0, 6), ACTIONS)
    q = corpus.make_redundant(rng, p, rng.randint(1, 3))
    assert q.size == 24 and not q.finite.components
    calls = 0

    def counting_canonicalize(p):
        nonlocal calls
        calls += 1
        if calls > 5000:
            pytest.fail("more than 5000 rewrite.canonicalize calls")
        return canonicalize(p)

    monkeypatch.setattr(rewrite, "canonicalize", counting_canonicalize)
    clear_caches()
    assert convertible(p, q).equivalent


def test_work_budget_inputs_number_few_states():
    # The work budgets above and in test_cli.py count rewrite.canonicalize
    # calls, and deletions no longer make any: they splice component
    # tables into state ids.  States numbered count that work instead.
    # Walking the deletion descendants would number 9212 states of the
    # replication-free size-21 pair, and 4949 of the size-24 fattening's
    # replicated part.
    free = ("a.0 | b.0 | c.0 | a.b.0 | b.c.0 | c.a.0 | a.b.c.0 | b.c.a.0 | "
            "c.a.b.0 | a.c.b.0")
    rng = random.Random(1418937128)
    p = corpus.random_process(rng, rng.randint(0, 6), ACTIONS)
    q = corpus.make_redundant(rng, p, rng.randint(1, 3))
    for left, right in ((parse(free), parse(free)), (p, q)):
        clear_caches()
        assert convertible(left, right).equivalent
        assert len(congruence._PARTS_OF) <= 100


def test_one_large_sync_component_builds_a_small_deletion_graph(monkeypatch):
    # A size-29 sync term whose one large component has a body full of
    # actions other than its top action ~a: its unguided deletion graph
    # has 105,735 nodes and took about a minute to build.  Stage 1 walks
    # only the edges that delete an occurrence carrying a top action.
    p = parse("!~a.(~a.~b.0 | b.(~b.0 | ~a.(~a.~b.0 | b.(~b.0 | a.b.0)) | "
              "a.(b.0 | ~a.(~a.~b.0 | b.(~b.0 | a.b.0 | ~a.(~a.~b.0 | "
              "b.(~b.0 | a.b.0))))))) | ~a.0", "sync")
    deletion_table = rewrite._deletion_table

    def counting(t):
        if len(rewrite._DELETION_TABLES) > 100:
            pytest.fail("more than 100 deletion tables")
        return deletion_table(t)

    monkeypatch.setattr(rewrite, "_deletion_table", counting)
    clear_caches()
    assert (render(compute_seed(p).seed)
            == "!~a.(~a.~b.0 | b.(~b.0 | a.b.0)) | ~a.0")
    assert len(rewrite._DELETION_TABLES) <= 100


@pytest.mark.parametrize("text,seed,most", [
    ("!a.0 | !a.0 | !a.0 | !a.0 | !b.0 | !b.0 | !c.0 | !c.0 | !b.a.b.0 | "
     "!c.(b.0 | c.0) | !b.(a.0 | b.0 | c.c.0) | !c.(b.0 | a.c.0 | b.c.0)",
     "!a.0 | !b.0 | !c.0", 7),
    ("!b.0 | !b.0 | !c.0 | !b.(a.0 | b.0 | c.0 | c.(a.0 | b.0)) | "
     "!b.(b.0 | b.0 | c.0 | a.a.0 | b.(a.0 | b.0))",
     "!b.0 | !c.0 | !b.(a.0 | c.a.0) | !b.(a.0 | a.0 | b.a.0)", 33)],
    ids=["size25", "size19"])
def test_deletion_tables_canonicalize_only_what_is_spliced(text, seed, most):
    # A deletion table row holds the component it leaves, and its
    # canonical components are read only where a finite splice or an
    # enclosing table uses them: stage 1 walks replicated rows only, so
    # it canonicalizes few terms (29 and 70 when every row held them).
    p = parse(text)
    clear_caches()
    assert render(compute_seed(p).seed) == seed
    assert len(congruence._CANON_COMPS) <= most


@pytest.mark.parametrize("mode", ["base", "sync"])
def test_stage_1_candidates_hold_every_guide_and_every_verified_part(mode):
    # B1 never edits a component's top prefix, so every unguided deletion
    # descendant r of a replicated part R0 has a guide made of terms that
    # carry a top action of R0's copies, and each copy reaches no more
    # under that guide than under the widest guide, the set ``tops`` of
    # those actions.  So every r that verifies is made of candidates,
    # members of the copies' walks under ``tops``.  Those walks stay
    # inside each copy's unguided deletion graph and prune it for some.
    parts = {Process(canonicalize(p).replicated)
             for p in corpus.enumerate_processes(5, corpus.default_actions(
                 2, mode))}
    verified = pruned = 0
    for rep in parts:
        tops = frozenset(t.action for t in rep.replicated)
        widest = {t: rewrite._reach(t, tops) for t in rep.replicated}
        for t in rep.replicated:
            graph = {s.replicated[0]
                     for s in _explored(Process((t,)), None)}
            assert widest[t] <= graph, render(t)
            pruned += widest[t] < graph
        candidates = frozenset().union(*widest.values())
        for r in _explored(rep, None):
            guide = rewrite._guide(r)
            assert all(g.action in tops for g in guide), render(r)
            assert all(rewrite._reach(t, guide) <= reached
                       for t, reached in widest.items()), render(r)
            if r in _explored(rep, guide):
                verified += 1
                assert set(r.replicated) <= candidates, render(r)
    assert verified > len(parts) and pruned


@pytest.mark.parametrize("mode", ["base", "sync"])
def test_guided_exploration_is_the_product_of_its_parts(mode):
    # Under the seed's guide, exploring the whole input gives exactly the
    # pairs of an explored replicated part and an explored finite part.
    rng = random.Random(1213)
    acts = corpus.default_actions(3 if mode == "base" else 4, mode)
    for p in _mixed_processes(rng, 30, acts):
        start = canonicalize(p)
        guide = rewrite._guide(compute_seed(start).seed)
        reps = _explored(Process(start.replicated), guide)
        finites = _explored(Process((), start.finite), guide)
        product = {Process(r.replicated, f.finite)
                   for r in reps for f in finites}
        assert set(_explored(start, guide)) == product, render(start)


@pytest.mark.parametrize("mode", ["base", "sync"])
def test_finite_exploration_is_the_product_of_its_components(mode):
    # Under the seed's guide a B1 step edits one finite component, there
    # is no B2 step, and canonical forms are built per component, so
    # exploring the finite part gives exactly the multiset sums of a state
    # reached by each component alone.  Such a state may have several
    # components: b.b.a.0 less a.0 is b.0 | b.0.
    rng = random.Random(1919)
    acts = corpus.default_actions(3 if mode == "base" else 4, mode)
    split = 0
    for p in _mixed_processes(rng, 30, acts):
        start = canonicalize(p)
        guide = rewrite._guide(compute_seed(start).seed)
        reaches = [_explored(Process((), (c,)), guide)
                   for c in start.finite.components]
        sums = {Process((), [d for state in states
                             for d in state.finite.components])
                for states in itertools.product(*reaches)}
        assert (set(_explored(Process((), start.finite), guide))
                == sums), render(start)
        split += any(len(state.finite) > 1 for reach in reaches
                     for state in reach)
    assert split


def _replicated_only_processes(rng, count, acts, sizes):
    """``count`` random replicated-only processes, their sizes cycling
    through ``sizes``: every component of a random process replicated."""
    out = []
    for k in range(count):
        p = corpus.random_process(rng, sizes[k % len(sizes)], acts)
        out.append(Process(p.replicated + p.finite.components))
    return out


def test_replicated_only_sizes_13_to_19_seeds_and_traces_match_recorded_digest():
    # Recorded before stage 1 was seeded one component at a time: inputs
    # with no finite part, past the sizes the digests above reach, in base
    # mode (3 actions) and sync mode (a, ~a, b, ~b).
    rng = random.Random(1819)
    sizes = range(13, 20)
    digest = hashlib.sha256()
    for mode, count, acts in (("base", 14, corpus.default_actions(3)),
                              ("sync", 7, corpus.default_actions(4, "sync"))):
        for p in _replicated_only_processes(rng, count, acts, sizes):
            res = compute_seed(p)
            digest.update(json.dumps([mode, render(p), render(res.seed),
                                      _trace_json(res.trace)]).encode()
                          + b"\n")
    assert digest.hexdigest() == (
        "0a8ddd8524f64a3945f80cde9f332767165f66e6f6249a95f8a267d158ffde59")


def _listed_seed_replicated(rep):
    """Stage 1 as it was before it was seeded one component at a time: the
    states of rep's exploration under the bound B, taken smallest first,
    each verified by an exploration of rep under its own guide."""
    bound = frozenset().union(*(rewrite._guide(d) for t in rep.replicated
                                for d in _explored(Process((t,)), None)))
    candidates = _explored(rep, bound)
    guided = {bound: candidates}
    verified = []
    for r in sorted(candidates, key=lambda c: c.size):
        if verified and r.size > verified[0].size:
            break
        guide = rewrite._guide(r)
        if guide not in guided:
            guided[guide] = _explored(rep, guide)
        if r in guided[guide]:
            verified.append(r)
    return _smallest(verified, rep)


def _outcome(seed_of, p):
    """The rendered seed_of(p), or "UniquenessError" if it raises one."""
    try:
        return render(seed_of(p))
    except UniquenessError:
        return "UniquenessError"


@pytest.mark.parametrize("mode", ["base", "sync"])
def test_stage_1_matches_the_whole_part_search(mode):
    # The per-component search returns the seed, or raises, exactly as the
    # exploration of the whole replicated part did: on every replicated
    # part of the size-<=5 corpus, on random parts of sizes 6-14, and on a
    # part whose copies each reach a member of a smaller set that no
    # matching sends them onto.
    acts = corpus.default_actions(3 if mode == "base" else 4, mode)
    parts = {Process(canonicalize(p).replicated)
             for p in corpus.enumerate_processes(5, corpus.default_actions(
                 2, mode))}
    rng = random.Random(1414)
    randoms = [canonicalize(p) for p in _replicated_only_processes(
        rng, 150, acts, range(6, 15))]
    unmatched = canonicalize(parse(
        "!a.b.0 | !a.(a.0 | b.0) | !b.(c.0 | c.0)" if mode == "base" else
        "!~a.0 | !a.b.0 | !~a.(a.0 | b.0) | !~b.(a.0 | ~a.0) | "
        "!~b.(a.0 | ~b.0 | ~b.0)", mode))
    checked = 0
    for rep in sorted(parts) + randoms + [unmatched]:
        if rep.replicated:
            checked += 1
            assert (_outcome(lambda r: Process(rewrite._seed_replicated(
                        r.replicated)), rep)
                    == _outcome(_listed_seed_replicated, rep)), render(rep)
    assert checked >= 550


def _finite_heavy_processes(rng, count, acts, sizes):
    """``count`` random processes with a replicated part and at least four
    finite components, their sizes cycling through ``sizes``."""
    out = []
    while len(out) < count:
        p = corpus.random_process(rng, sizes[len(out) % len(sizes)], acts)
        if p.replicated and len(p.finite.components) >= 4:
            out.append(p)
    return out


def test_finite_heavy_sizes_14_to_20_seeds_and_traces_match_recorded_digest():
    # Recorded before stage 2 was seeded one finite component at a time:
    # inputs whose finite part has many components, past the sizes the
    # mixed digest above reaches, in base mode (3 actions) and sync mode
    # (a, ~a, b, ~b).
    rng = random.Random(1920)
    sizes = range(14, 21)
    digest = hashlib.sha256()
    for mode, count, acts in (("base", 40, corpus.default_actions(3)),
                              ("sync", 20, corpus.default_actions(4, "sync"))):
        for p in _finite_heavy_processes(rng, count, acts, sizes):
            res = compute_seed(p)
            digest.update(json.dumps([mode, render(p), render(res.seed),
                                      _trace_json(res.trace)]).encode()
                          + b"\n")
    assert digest.hexdigest() == (
        "c622aeed1607cd7c3ce1708db7c9a9e2bb5f763683028c4a90566d16953402e6")


def _smallest(states: list, start: Process) -> Process:
    """The one smallest of ``states``, else UniquenessError."""
    size = min((s.size for s in states), default=None)
    smallest = [s for s in states if s.size == size]
    if len(smallest) != 1:
        raise UniquenessError(f"minimal seeds for {start!r}: {smallest!r}")
    return smallest[0]


def _whole_part_seed(p):
    """compute_seed as it was before stage 2 was seeded one finite
    component at a time: the smallest state of one exploration of the
    whole finite part, under the guide of the replicated part's seed."""
    start = canonicalize(p)
    rep = rewrite._seed_replicated(start.replicated)
    finite = _smallest(_explored(Process((), start.finite),
                                 rewrite._guide_of(rep)), start)
    return Process(rep, finite.finite)


@pytest.mark.parametrize("mode", ["base", "sync"])
def test_stage_2_matches_the_whole_part_exploration(mode):
    # Seeding each finite component alone returns the seed, or raises,
    # exactly as one exploration of the whole finite part did: on every
    # input with both parts in the size-<=5 corpus (3 actions in base
    # mode, a and ~a in sync mode) and on random finite-heavy inputs of
    # sizes 8-16.
    small = corpus.enumerate_processes(5, corpus.default_actions(
        3 if mode == "base" else 2, mode))
    rng = random.Random(2020)
    heavy = _finite_heavy_processes(rng, 60, corpus.default_actions(
        3 if mode == "base" else 4, mode), range(8, 17))
    checked = 0
    for p in small + heavy:
        if p.replicated and p.finite.components:
            checked += 1
            assert (_outcome(lambda q: compute_seed(q).seed, p)
                    == _outcome(_whole_part_seed, p)), render(p)
    assert checked >= 650


def test_row_walk_matches_component_explorations():
    # Stage 2's walk over deletion rows returns, or raises, exactly what
    # exploring the component's states and taking the smallest did: on
    # each distinct finite component of random inputs of sizes 6-16,
    # beside the replicated part of each input of its batch of 15, under
    # that part's stage-1 guide; in base mode over 3 and over 2 actions,
    # and in sync mode over a, ~a, b, ~b.
    rng = random.Random(2121)
    checked = 0
    for acts in (corpus.default_actions(3), corpus.default_actions(2),
                 corpus.default_actions(4, "sync")):
        pairs = set()
        for _ in range(70):
            batch = [canonicalize(corpus.random_process(
                rng, rng.randint(6, 16), acts)) for _ in range(15)]
            guides = set()
            for p in batch:
                with contextlib.suppress(UniquenessError):
                    guides.add(rewrite._guide_of(rewrite._seed_replicated(
                        p.replicated)))
            pairs |= {(c, guide) for p in batch for c in p.finite.components
                      for guide in guides}
        for c, guide in pairs:
            start = Process((), (c,))
            assert (_outcome(lambda s: Process((), rewrite._seed_component(
                        c, guide, s)), start)
                    == _outcome(lambda s: _smallest(_explored(s, guide), s),
                                start)), render(c)
        checked += len(pairs)
    assert checked >= 15000


def test_finite_components_are_seeded_off_their_deletion_rows(monkeypatch):
    # 14 distinct finite components, each holding one deletable a.0: one
    # exploration of the finite part visited all 2^14 sums of their
    # states, and exploring each component alone two states each.  Stage
    # 2 reads each smallest state off the components' deletion rows and
    # explores none.  On the size-29 input, whose one large finite
    # component reaches 59,896 states, exploring them built 60,083
    # deletion tables.
    words = [w for n in (1, 2, 3) for w in itertools.product("bc", repeat=n)]
    p = parse("!a.0 | " + " | ".join(".".join(w) + ".a.0" for w in words))
    assert len(p.finite) == 14
    starts = []
    explore = rewrite._explore

    def recording(start, guide):
        starts.append(start)
        return explore(start, guide)

    monkeypatch.setattr(rewrite, "_explore", recording)
    clear_caches()
    seed = compute_seed(p).seed
    assert render(seed) == (
        "!a.0 | b.0 | b.0 | b.0 | b.0 | b.0 | b.0 | c.0 | c.0 | c.0 | c.0 | "
        "c.0 | c.0 | b.c.0 | c.b.0 | b.(c.0 | c.0) | b.b.c.0 | b.c.b.0 | "
        "c.(b.0 | b.0) | c.b.c.0 | c.c.b.0")
    assert not starts
    clear_caches()
    cliff = parse("!a.0 | !b.0 | a.(a.0 | a.0 | b.0 | b.(a.0 | a.0) | "
                  "b.(a.0 | b.0) | a.(b.0 | b.b.0 | a.(a.0 | b.0) | a.b.a.0 | "
                  "a.(b.0 | b.0 | a.b.0 | b.b.0)))")
    assert render(compute_seed(cliff).seed) == "!a.0 | !b.0"
    assert not starts
    assert len(rewrite._DELETION_TABLES) <= 50


def test_a_long_chain_of_rows_is_walked_without_recursion():
    # Deleting the 200 copies of b.0 one at a time is a chain of 200 rows,
    # each to a smaller term; the walk keeps its own stack, so a Python
    # stack only 100 frames deeper than this test's is enough.
    p = parse("!b.0 | a.(" + " | ".join(["b.0"] * 200) + ")")
    clear_caches()
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        seed = compute_seed(p).seed
    finally:
        sys.setrecursionlimit(limit)
    assert render(seed) == "!b.0 | a.0"


def test_copies_of_a_body_component_share_their_rows(monkeypatch):
    # A copy of a body component leaves what the copy before it left, so
    # its rows are the earlier copy's row objects: the 45,150 rows of the
    # chain of a.(b.0 | ... 300 copies) build about two bodies per term,
    # and the top term's 300 rows are one object.  Rebuilding each copy's
    # rows made 45,452 bodies.
    p = parse("!b.0 | a.(" + " | ".join(["b.0"] * 300) + ")")
    clear_caches()
    built = []
    init = FiniteProcess.__init__

    def counting(self, *args):
        built.append(self)
        init(self)

    monkeypatch.setattr(FiniteProcess, "__init__", counting)
    assert render(compute_seed(p).seed) == "!b.0 | a.0"
    assert len(built) <= 900
    rows = rewrite._deletion_table(canonicalize(p).finite.components[0])
    assert len(rows) == 300 and len(set(map(id, rows))) == 1


def test_a_trace_reads_back_only_its_chain(monkeypatch):
    # The trace's exploration of 6 finite components, each holding one
    # deletable a.0, finds all 2^6 sums of their states, but reading the
    # trace builds only the states on its chain to the seed: one per
    # step.  Reading every found state back built 62 of them.
    p = parse("!a.0 | b.a.0 | c.a.0 | b.b.a.0 | b.c.a.0 | c.b.a.0 | c.c.a.0")
    clear_caches()
    result = compute_seed(p)
    sizes = []
    explore = rewrite._explore

    def recording(start, guide):
        parents = explore(start, guide)
        sizes.append(len(parents))
        return parents

    built = []
    init = Process.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(rewrite, "_explore", recording)
    monkeypatch.setattr(Process, "__init__", counting)
    trace = result.trace
    assert sizes == [2 ** 6] and len(trace) == 6
    assert [s.after for s in trace][-1] is result.seed
    assert len(built) == len(trace) - 1  # the seed was built by the seed


def _rebuilt_deletions(c, guide):
    """The deletions from canonical c as ``RewriteStep`` fields, each
    destination rebuilt whole: ``delete_at`` and ``canonicalize`` over
    ``occurrences`` (B1), then one dropped copy of each duplicated
    replicated component (B2)."""
    out = [("B1", c, canonicalize(delete_at(c, path)), path, None)
           for path, occ in occurrences(c) if guide is None or occ in guide]
    reps = c.replicated
    out += [("B2", c, canonicalize(Process(reps[:n] + reps[n + 1:],
                                           c.finite)), None, t)
            for n, t in enumerate(reps)
            if (not n or t != reps[n - 1]) and reps.count(t) >= 2]
    return out


def _spliced_deletions(c, guide):
    """The deletions from canonical c as ``RewriteStep`` fields, read off
    the spliced tables: each B1 destination id beside its path
    (``rewrite._b1_paths``), then each B2 destination id beside its
    dropped component."""
    i = congruence.canonical_id(c)
    return ([("B1", c, congruence.state(j), path, None)
             for j, path in rewrite._b1_paths(i, guide)]
            + [("B2", c, congruence.state(j), None, t)
               for j, t in rewrite._b2_deletions(i)])


def _deletion_states(source):
    """Canonical states: the exhaustive corpora of size 5 (base over three
    actions, sync over ``a, ~a``), or 300 random fattened states with
    their first finite and first replicated component doubled."""
    if source != "random":
        acts = corpus.default_actions(3 if source == "base" else 2, source)
        return {canonicalize(p): None
                for p in corpus.enumerate_processes(5, acts)}
    rng = random.Random(2727)
    states = {}
    for n in range(300):
        mode = ("base", "sync")[n % 2]
        p = corpus.make_redundant(rng, corpus.random_process(
            rng, rng.randint(6, 12), corpus.default_actions(3, mode)), 2)
        states[canonicalize(Process(
            p.replicated + p.replicated[:1],
            p.finite.components + p.finite.components[:1]))] = None
    return states


@pytest.mark.parametrize("source", ["base", "sync", "random"])
def test_spliced_deletions_match_whole_rebuilt_deletions(source):
    # Deletions splice each component's table into a state's parts; every
    # one must be the rebuilt deletion at the same place, in the same
    # order, unguided, under the empty guide, under the state's own guide
    # and under a guide of every other occurrence.  The random states hold
    # duplicated finite and replicated components, and deletions that fire
    # the distribution law (one component left as several).
    clear_caches()
    dup_fin = dup_rep = fired = 0
    for c in _deletion_states(source):
        i = congruence.canonical_id(c)
        others = frozenset(occ for n, (_, occ) in enumerate(occurrences(c))
                           if n % 2)
        for guide in (others, rewrite._guide(c), frozenset(), None):
            deletions = list(rewrite._deletions(i, guide))
            spliced = _spliced_deletions(c, guide)
            assert spliced == _rebuilt_deletions(c, guide), render(c)
            # each destination id has the parts its process has: replicated
            # and finite components in key order, so one id per state
            assert all(congruence._PARTS_OF[j] == (
                s[2].replicated, s[2].finite.components)
                for j, s in zip(deletions, spliced, strict=True)), render(c)
        comps = c.finite.components
        dup_fin += len(set(comps)) < len(comps)
        dup_rep += len(set(c.replicated)) < len(c.replicated)
        fired += sum(1 for _, _, after, path, _ in spliced
                     if path and len(after.finite) > len(comps))
    assert dup_fin and dup_rep and fired
    if source == "random":
        assert (dup_fin, dup_rep, fired) == (278, 262, 57)


def test_deleting_onto_numbered_destinations_builds_no_process(monkeypatch):
    # Deleting reads a state's parts, splices its components' tables into
    # them and hands out destination ids from the parts index, for new
    # destinations and numbered ones alike: it builds no Process.  Only
    # reading a deletion as a step builds, each destination once, so an
    # exploration from the state builds only the states two or more
    # deletions away.
    clear_caches()
    p = parse("!a.b.0 | !a.b.0 | !b.(a.0 | b.a.0) | b.b.a.0 | b.b.a.0 | "
              "c.(a.0 | c.a.0)")
    i = congruence.canonical_id(p)
    c = canonicalize(p)
    built = []
    init = Process.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(Process, "__init__", counting)
    deletions = list(rewrite._deletions(i, None))
    numbered = len(congruence._PARTS_OF)
    assert built == [] and numbered > 1 and len(deletions) == 16
    assert list(rewrite._deletions(i, None)) == deletions
    assert built == [] and len(congruence._PARTS_OF) == numbered
    steps = _spliced_deletions(c, None)
    assert sorted(map(id, built)) == sorted({id(s[2]) for s in steps})
    assert len(built) == numbered - 1
    built.clear()
    assert _spliced_deletions(c, None) == steps
    assert set(_explored(c, None)) > {s[2] for s in steps}
    assert built and all(s.size < p.size - 1 for s in built)
