"""Acceptance gate: one test, and one ``pytest -v`` line, per guarantee.

Heavier than the unit suites on purpose: exhaustive small corpora, a
five-digit random corpus per action discipline, and thousand-instance law
checks. Everything is deterministic (fixed RNG seeds), so the frozen class
counts double as regression anchors.
"""

import random

import pytest

from ccseed import clear_caches
from ccseed.cli import main
from ccseed.congruence import (canonical_finite, canonicalize, congruent,
                               process_of, state)
from ccseed.corpus import (compose, default_actions, enumerate_finite,
                           enumerate_processes, make_redundant,
                           random_context, random_finite, random_process,
                           random_substitution)
from ccseed.lts import successors
from ccseed.oracle import (GameConfig, bounded_bisim, bounded_partition,
                           finite_bisim, finite_partition, lemma_suite_sharded,
                           replay_distinguisher)
from ccseed.rewrite import (RewriteStep, _explore, compute_seed, convertible,
                            rewrites_to, search_audit)
from ccseed.syntax import (FiniteProcess, PrefixedTerm, Process,
                           apply_substitution, delete_at, occurrences, parse,
                           render, resolve)

GAME_DEPTH = 6
ACTS_BASE = default_actions(2)
ACTS_SYNC = default_actions(2, "sync")


def _corpus(mode, rng_seed, random_count=10200, max_random_size=8):
    acts = default_actions(2, mode)
    procs = enumerate_processes(5, acts)
    rng = random.Random(rng_seed)
    procs += [random_process(rng, rng.randint(1, max_random_size), acts)
              for _ in range(random_count)]
    return procs


def _bundle(mode, rng_seed):
    corpus = _corpus(mode, rng_seed)
    seeds = [compute_seed(p) for p in corpus]
    keys = [s.seed.key for s in seeds]
    classes = bounded_partition(corpus, GAME_DEPTH, mode=mode)
    return corpus, seeds, keys, classes


@pytest.fixture(scope="module")
def base_bundle():
    return _bundle("base", 2026)


@pytest.fixture(scope="module")
def sync_bundle():
    return _bundle("sync", 2027)


@pytest.fixture(scope="module")
def exhaustive_base_6():
    corpus = enumerate_processes(6, ACTS_BASE)
    return corpus, [compute_seed(p) for p in corpus]


def _cross_check(corpus, keys, classes, mode, rng_seed, samples=250):
    """Explicit pairwise games against the two partition maps.

    Convertible pairs must never be distinguished; every produced
    distinguisher must replay. Returns the number of convertible pairs
    exercised so callers can assert non-vacuity.
    """
    rng = random.Random(rng_seed)
    by_key = {}
    for i, k in enumerate(keys):
        by_key.setdefault(k, []).append(i)
    rich = [g for g in by_key.values() if len(g) >= 2]
    cfg = GameConfig(depth=GAME_DEPTH, mode=mode)
    convertible_pairs = 0
    for n in range(samples):
        if n % 2 and rich:
            group = rng.choice(rich)
            i, j = rng.sample(group, 2)
        else:
            i, j = rng.randrange(len(corpus)), rng.randrange(len(corpus))
        p, q = corpus[i], corpus[j]
        conv = convertible(p, q)
        assert conv.equivalent == (keys[i] == keys[j])
        game = bounded_bisim(p, q, cfg)
        assert game.equivalent == (classes[p] == classes[q])
        if conv.equivalent:
            convertible_pairs += 1
            assert game.equivalent
            assert game.distinguisher is None
        if not game.equivalent:
            assert not conv.equivalent
            assert replay_distinguisher(p, q, game.distinguisher, mode=mode)
    return convertible_pairs


def test_criterion_1_golden_examples(capsys):
    code = main(["check", "!a.(b.0|a.c.0)|!a.(c.0|a.b.0)", "!a.b.0|!a.c.0"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "bisimilar"
    assert "seed: !a.b.0 | !a.c.0" in out

    code = main(["seed", "!a.(b.0|a.b.0)"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "!a.b.0"

    code = main(["normalize", "a.(b.0|a.b.0)"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "a.b.0 | a.b.0"

    res = convertible(parse("!a.(b.0|a.c.0)|!a.(c.0|a.b.0)"),
                      parse("!a.b.0|!a.c.0"))
    assert res.equivalent
    assert render(res.left.seed) == "!a.b.0 | !a.c.0"


def test_criterion_2_congruence_is_finite_bisimilarity():
    fps = enumerate_finite(5, ACTS_BASE)
    assert len(fps) == 601

    game = finite_partition(fps)
    by_congruence = {}
    by_game = {}
    for i, fp in enumerate(fps):
        by_congruence.setdefault(canonical_finite(fp).key, []).append(i)
        by_game.setdefault(game[fp], []).append(i)
    blocks_c = {frozenset(g) for g in by_congruence.values()}
    blocks_g = {frozenset(g) for g in by_game.values()}
    assert blocks_c == blocks_g
    assert len(blocks_c) == 312

    rng = random.Random(2)
    for _ in range(2000):
        f1, f2 = rng.choice(fps), rng.choice(fps)
        assert (congruent(process_of(f1), process_of(f2))
                == finite_bisim(f1, f2))


def test_criterion_3_rewriting_agrees_with_bounded_game(base_bundle):
    corpus, _seeds, keys, classes = base_bundle
    assert len(corpus) == 12378

    groups = {}
    for p, k in zip(corpus, keys):
        groups.setdefault(k, set()).add(classes[p])
    assert all(len(cls) == 1 for cls in groups.values())
    assert len(groups) == 1219
    assert len(set(classes.values())) == 1019

    exercised = _cross_check(corpus, keys, classes, "base", rng_seed=3)
    assert exercised >= 100


def test_criterion_4_steps_shrink_and_searches_stay_bounded():
    clear_caches()
    search_audit.clear()

    rng = random.Random(4)
    work = enumerate_processes(5, ACTS_BASE)
    work += [random_process(rng, rng.randint(1, 8), ACTS_BASE)
             for _ in range(800)]
    checked = []
    for p in work:
        checked.append((canonicalize(p), compute_seed(p)))
    for _ in range(200):
        p = random_process(rng, rng.randint(1, 6), ACTS_BASE)
        q = make_redundant(rng, p, rng.randint(1, 2))
        assert convertible(p, q).equivalent
        checked.append((canonicalize(q), compute_seed(q)))

    for start, res in checked:
        state = start
        for step in res.trace:
            assert step.axiom in ("B1", "B2")
            assert step.before == state
            assert step.after.size < step.before.size
            state = step.after
        assert state == res.seed

    with pytest.raises(ValueError):
        RewriteStep("B1", parse("a.0"), parse("a.0|b.0"))

    assert len(search_audit) > 1000
    assert all(visited <= 2 ** size for size, visited in search_audit)


def test_criterion_5_seed_is_the_only_small_descendant_reached(base_bundle):
    corpus, seeds, _keys, _classes = base_bundle
    exhaustive = 2178
    picks = list(range(exhaustive)) + list(range(exhaustive, len(corpus), 7))
    for i in picks:
        p, seed = corpus[i], seeds[i].seed
        assert rewrites_to(p, seed) is not None
        for d in map(state, _explore(canonicalize(p), None)):
            if d.size <= seed.size and d != seed:
                assert rewrites_to(p, d) is None, (render(p), render(d))


def test_criterion_6_copy_absorption_laws_hold():
    rng = random.Random(6)
    for _ in range(1000):
        act = rng.choice(ACTS_BASE)
        body = random_finite(rng, rng.randint(0, 3), ACTS_BASE)
        bang = Process((PrefixedTerm(act, body),), FiniteProcess())
        ctx = random_context(rng, rng.randint(0, 4), ACTS_BASE)
        with_copy = compose(bang, ctx.plug((PrefixedTerm(act, body),)))
        without = compose(bang, ctx.plug(()))
        assert convertible(with_copy, without).equivalent

    for _ in range(1000):
        act = rng.choice(ACTS_BASE)
        ctx = random_context(rng, rng.randint(0, 3), ACTS_BASE,
                             finite_only=True)
        once = PrefixedTerm(act, ctx.plug(()).finite)
        twice = PrefixedTerm(act, ctx.plug((once,)).finite)
        assert convertible(Process((twice,), FiniteProcess()),
                           Process((once,), FiniteProcess())).equivalent


def test_criterion_7_sync_mode_agreement(sync_bundle):
    corpus, _seeds, keys, classes = sync_bundle
    assert len(corpus) == 12378

    groups = {}
    for p, k in zip(corpus, keys):
        groups.setdefault(k, set()).add(classes[p])
    assert all(len(cls) == 1 for cls in groups.values())
    assert len(groups) == 1177
    assert len(set(classes.values())) == 1141

    exercised = _cross_check(corpus, keys, classes, "sync", rng_seed=7)
    assert exercised >= 100


def test_criterion_8_convertibility_closed_under_renaming():
    rng = random.Random(8)
    acts = default_actions(3)
    names = [a.name for a in acts]
    saw_non_injective = False
    for n in range(1000):
        p = random_process(rng, rng.randint(1, 5), acts)
        if n % 2:
            q = make_redundant(rng, p, rng.randint(1, 2))
        else:
            q = compute_seed(p).seed
        assert convertible(p, q).equivalent
        sigma = random_substitution(rng, names)
        saw_non_injective |= len(set(sigma.values())) < len(names)
        assert convertible(apply_substitution(p, sigma),
                           apply_substitution(q, sigma)).equivalent
    assert saw_non_injective


def test_criterion_9_lemma_suites_clean_and_nonvacuous():
    for mode in ("base", "sync"):
        report = lemma_suite_sharded(seed=90, rounds=120, shards=4, mode=mode)
        assert report.ok
        assert report.all_hypotheses_hit
        for stats in report.properties.values():
            assert stats.counterexamples == []
            assert stats.hits > 0
            assert stats.instances >= stats.hits


@pytest.mark.parametrize("bundle, mode, depth, count", [
    ("base_bundle", "base", 9, 1219),
    ("sync_bundle", "sync", 8, 1177),
    ("exhaustive_base_6", "base", 10, 2779),
])
def test_criterion_10_different_seeds_are_not_bisimilar(request, bundle, mode,
                                                        depth, count):
    # Criteria 3 and 7 check that equal seeds are game-equivalent; this is
    # the other direction.  The corpus's distinct seeds each get their own
    # class at a finite game depth, and processes a game distinguishes are
    # not bisimilar.
    seeds = request.getfixturevalue(bundle)[1]
    distinct = list(dict.fromkeys(s.seed for s in seeds))
    assert len(distinct) == count
    classes = bounded_partition(distinct, depth, mode=mode)
    assert len(set(classes.values())) == count


def _seed_bisimulation_failures(seeds, mode):
    """The processes of ``seeds`` (canonical process -> its seed) whose
    moves, read up to seeds, differ from their seed's moves.

    With none, equal seeds form a bisimulation.  Seeds of states outside
    the map are computed.
    """
    def seed_of(x):
        return seeds[x] if x in seeds else compute_seed(x).seed

    def moves(x):
        return {(label, seed_of(y)) for label, y in successors(x, mode)}

    return [render(p) for p in seeds if moves(p) != moves(seed_of(p))]


@pytest.mark.parametrize("work, mode, distinct, planted", [
    ("base_bundle", "base", 3957, "a.b.0"),
    ("sync_bundle", "sync", 4034, "a.~a.0"),
    ("exhaustive_base_6", "base", 5660, "a.b.0"),
])
def test_criterion_11_equal_seeds_form_a_bisimulation(request, work, mode,
                                                      distinct, planted):
    # Criteria 3 and 7 play equal seeds against the game at depth 6; this
    # checks with no depth that "equal seeds" is a bisimulation: every
    # process and its seed make the same moves up to seeds.
    corpus, seeds = request.getfixturevalue(work)[:2]
    seed_map = {canonicalize(p): s.seed for p, s in zip(corpus, seeds)}
    assert len(seed_map) == distinct
    assert _seed_bisimulation_failures(seed_map, mode) == []
    # non-vacuity: one seed replaced by a process not bisimilar to it
    key = canonicalize(parse(planted, mode))
    assert seed_map[key] != parse("a.0")
    seed_map[key] = parse("a.0")
    assert planted in _seed_bisimulation_failures(seed_map, mode)


def check_trace(p, trace, target):
    """The faults of ``trace`` as a guided rewrite from p to target.

    Empty when the steps chain from ``canonicalize(p)`` to
    ``canonicalize(target)``, each B1 step deletes an occurrence of a
    replicated component of the target that stays one component (and
    lands on the canonical result), and each B2 step drops one of two
    equal replicated components.  Written apart from the exploration that
    finds traces: it redoes each step with ``delete_at`` and
    ``canonicalize`` only.
    """
    goal = canonicalize(target)
    guide = {t for t in goal.replicated
             if canonical_finite(FiniteProcess((t,))).components == (t,)}
    faults = []
    state = canonicalize(p)
    for i, step in enumerate(trace):
        if step.before != state:
            faults.append(f"step {i} does not start where step {i - 1} ends")
        if step.axiom == "B1":
            deleted = resolve(step.before, step.path)
            if deleted not in guide:
                faults.append(f"step {i} deletes {render(deleted)}, "
                              "not a replicated component of the target")
            after = canonicalize(delete_at(step.before, step.path))
        else:
            reps = list(step.before.replicated)
            if reps.count(step.dropped) < 2:
                faults.append(f"step {i} drops a component with no twin")
            else:
                reps.remove(step.dropped)
            after = canonicalize(Process(reps, step.before.finite))
        if step.after != after:
            faults.append(f"step {i} does not land on its deletion")
        state = step.after
    if state != goal:
        faults.append("the trace does not end at the target")
    return faults


@pytest.mark.parametrize("bundle, distinct, reduced", [
    ("base_bundle", 3957, 2778),
    ("sync_bundle", 4034, 2898),
])
def test_criterion_12_seed_traces_pass_an_independent_check(request, bundle,
                                                            distinct,
                                                            reduced):
    # Criterion 4 checks that steps shrink; this redoes every step of
    # every distinct process's trace to its seed, apart from the search.
    corpus, seeds = request.getfixturevalue(bundle)[:2]
    results = {canonicalize(p): s for p, s in zip(corpus, seeds)}
    assert len(results) == distinct
    for start, res in results.items():
        assert check_trace(start, res.trace, res.seed) == [], render(start)
    assert sum(bool(res.trace) for res in results.values()) == reduced
    # non-vacuity: a trace whose first step deletes an occurrence the
    # seed does not replicate, or drops a replicated component with no twin
    start, res, wrong = next(
        (start, res, RewriteStep("B1", step.before, canonicalize(
            delete_at(step.before, path)), path))
        for start, res in results.items() for step in res.trace[:1]
        for path, occ in occurrences(step.before)
        if occ not in res.seed.replicated)
    assert any("not a replicated component of the target" in fault
               for fault in check_trace(start, (wrong,) + res.trace[1:],
                                        res.seed))
    start, res, wrong = next(
        (start, res, RewriteStep("B2", step.before, canonicalize(
            Process(step.before.replicated[1:], step.before.finite)),
            dropped=step.before.replicated[0]))
        for start, res in results.items() for step in res.trace[:1]
        if len(set(step.before.replicated)) == len(step.before.replicated))
    assert "step 0 drops a component with no twin" in check_trace(
        start, (wrong,) + res.trace[1:], res.seed)


@pytest.mark.parametrize(
    "mode, size, alphabet, renamed_alphabet, nontrivial", [
        ("base", 5, 3, 3, (4500, 4321)),
        ("sync", 6, 2, 4, (4744, 2515)),
    ])
def test_criterion_13_seeds_commute_with_parallel_and_renaming(
        mode, size, alphabet, renamed_alphabet, nontrivial):
    # The paper's congruence result, as seed identities: bisimilarity is
    # closed under parallel composition and under renaming (polarities
    # kept), so seed(p | r) == seed(seed(p) | r) and
    # seed(sigma p) == seed(sigma seed(p)), non-injective sigma included.
    # One r and one sigma per process of the exhaustive corpus.  Renamings
    # over the one name of a, ~a are identities, so in sync the renaming
    # check draws its process at random over a, ~a, b, ~b instead.
    rng = random.Random(13)
    acts = default_actions(alphabet, mode)
    renamed_acts = default_actions(renamed_alphabet, mode)
    names = sorted({a.name for a in renamed_acts})

    def seed(p):
        return compute_seed(p).seed

    reduced = renamed = 0
    for p in enumerate_processes(size, acts):
        r = random_process(rng, rng.randint(0, 3), acts)
        assert seed(compose(p, r)) == seed(compose(seed(p), r)), render(p)
        q = p if mode == "base" else random_process(
            rng, rng.randint(0, size), renamed_acts)
        sigma = random_substitution(rng, names)
        assert (seed(apply_substitution(q, sigma))
                == seed(apply_substitution(seed(q), sigma))), render(q)
        # non-vacuity: checks whose sides start from different terms, and
        # renamings that move a name
        reduced += seed(p) != canonicalize(p)
        renamed += (seed(q) != canonicalize(q)
                    and any(sigma[n] != n for n in names))
    assert (reduced, renamed) == nontrivial
