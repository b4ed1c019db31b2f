import random

import pytest
from hypothesis import given, settings, strategies as st

import ccseed
from ccseed import congruence, corpus, lts, oracle, rewrite, syntax
from ccseed.congruence import canonicalize, congruent, process_of
from ccseed.oracle import (GameConfig, bounded_bisim, bounded_partition,
                           finite_bisim, finite_partition)
from ccseed.rewrite import compute_seed
from ccseed.syntax import FiniteProcess, Process, parse, render


def canon_str(text, mode="base"):
    return render(canonicalize(parse(text, mode)))


@pytest.mark.parametrize("text,expected", [
    ("0", "0"),
    ("a.0", "a.0"),
    ("a.a.0", "a.0 | a.0"),
    ("a.(b.0|a.b.0)", "a.b.0 | a.b.0"),
    ("a.(a.0|a.0)", "a.0 | a.0 | a.0"),
    ("a.(b.0|c.0)", "a.(b.0 | c.0)"),
    ("a.(b.0|a.(b.0|a.b.0))", "a.b.0 | a.b.0 | a.b.0"),
    ("b.a.a.0", "b.(a.0 | a.0)"),
    ("a.b.b.0", "a.(b.0 | b.0)"),
])
def test_canonical_golden(text, expected):
    assert canon_str(text) == expected


def test_distribution_needs_all_other_components_equal():
    # a.(b.0 | a.b.0 | c.0) does not fire: c.0 is not part of a b-copy
    assert canon_str("a.(b.0|a.b.0|c.0)") == "a.(b.0 | c.0 | a.b.0)"
    # two distinct candidate prefixes, neither matches the full multiset
    assert canon_str("a.(b.0|a.c.0)") == "a.(b.0 | a.c.0)"


def test_inner_firing_feeds_outer():
    # the inner redex must collapse before the outer prefix can fire
    assert canon_str("a.(b.b.0|a.(b.0|b.0))") == "a.(b.0 | b.0) | a.(b.0 | b.0)"


def test_replicated_roots_never_fire():
    assert canon_str("!a.a.0") == "!a.a.0"
    assert canon_str("!a.(b.0|a.b.0)") == "!a.(b.0 | a.b.0)"
    # but bodies underneath a bang still canonicalize
    assert canon_str("!c.a.(b.0|a.b.0)") == "!c.(a.b.0 | a.b.0)"


def test_finite_part_and_replicated_bodies_canonicalize():
    assert canon_str("!b.a.a.0 | a.a.0") == "!b.(a.0 | a.0) | a.0 | a.0"


def test_multiple_copies_fold():
    # n existing copies absorb into n+1
    assert canon_str("a.(b.0|a.b.0|a.b.0)") == "a.b.0 | a.b.0 | a.b.0"


def test_sync_polarity_must_match_to_fire():
    # an output prefix over an input copy is not a redex
    assert canon_str("~a.a.0", "sync") == "~a.a.0"
    assert canon_str("~a.~a.0", "sync") == "~a.0 | ~a.0"
    assert canon_str("a.(b.0|a.b.0)", "sync") == "a.b.0 | a.b.0"


def test_canonicalize_idempotent_on_goldens():
    for text in ["a.(b.0|a.b.0)", "!a.a.0|b.a.a.0", "a.(a.0|a.0|b.0)"]:
        c = canonicalize(parse(text))
        assert canonicalize(c) == c


def test_congruent():
    assert congruent(parse("a.a.0"), parse("a.0|a.0"))
    assert congruent(parse("a.(b.0|a.b.0)"), parse("a.b.0|a.b.0"))
    assert not congruent(parse("a.b.0"), parse("b.a.0"))
    assert congruent(parse("0"), parse("0|0"))


def test_process_of():
    fp = parse("a.0|b.0").finite
    assert process_of(fp) == parse("a.0|b.0")
    term = fp.components[0]
    assert process_of(term) == parse("a.0")
    assert process_of(parse("!a.0")) == parse("!a.0")
    with pytest.raises(TypeError):
        process_of("a.0")


ACTIONS = corpus.default_actions(2, "base")


@st.composite
def rng_seeds(draw):
    return draw(st.integers(0, 2**31 - 1))


@settings(max_examples=100, deadline=None)
@given(rng_seeds())
def test_canonicalize_idempotent(seed):
    rng = random.Random(seed)
    p = corpus.random_process(rng, rng.randint(0, 8), ACTIONS)
    c = canonicalize(p)
    assert canonicalize(c) == c


@settings(max_examples=100, deadline=None)
@given(rng_seeds())
def test_canonicalize_preserves_size(seed):
    rng = random.Random(seed)
    p = corpus.random_process(rng, rng.randint(0, 8), ACTIONS)
    assert canonicalize(p).size == p.size


@settings(max_examples=80, deadline=None)
@given(rng_seeds())
def test_congruence_implies_bisimilarity_on_finite_terms(seed):
    # the independent game oracle agrees that canonicalization is sound
    rng = random.Random(seed)
    fp = corpus.random_finite(rng, rng.randint(0, 7), ACTIONS)
    assert finite_bisim(fp, canonicalize(Process((), fp)).finite)


@settings(max_examples=60, deadline=None)
@given(rng_seeds())
def test_canonical_forms_identify_composed_redexes(seed):
    # composing with a fired copy then canonicalizing lands in one class
    rng = random.Random(seed)
    fp = corpus.random_finite(rng, rng.randint(1, 4), ACTIONS)
    comp = rng.choice(fp.components)
    folded = parse(render(Process((), FiniteProcess((comp,)))))
    unfolded = canonicalize(folded)
    assert congruent(folded, unfolded)


def _groups(partition: dict) -> set:
    """The classes of a partition as sets of members (ids are arbitrary)."""
    by_id: dict = {}
    for x, cid in partition.items():
        by_id.setdefault(cid, set()).add(x)
    return {frozenset(members) for members in by_id.values()}


def _memo_dicts():
    return {f"{mod.__name__}.{name}": value
            for mod in (congruence, lts, rewrite, oracle)
            for name, value in vars(mod).items()
            if isinstance(value, dict) and not name.startswith("__")}


def test_clear_caches_keeps_results_stable():
    p = parse("a.(b.0|a.b.0) | !c.a.a.0")
    procs = [p] + [parse(t) for t in ("!a.b.0 | !a.b.0 | a.b.0", "!a.b.0",
                                      "a.a.0", "a.0 | a.0", "a.b.0")]
    fins = [parse(t).finite for t in ("a.a.0", "a.0 | a.0", "a.b.0", "0")]

    def run_all():
        return (render(canonicalize(p)),
                render(compute_seed(procs[1]).seed),
                bounded_bisim(procs[1], procs[2], GameConfig(depth=4)),
                bounded_bisim(procs[1], procs[5], GameConfig(depth=4)),
                _groups(finite_partition(fins)),
                _groups(bounded_partition(procs, 3)),
                _groups(bounded_partition(procs, 2, "sync")))

    before = run_all()
    assert all(_memo_dicts().values())  # every layer cached something
    ccseed.clear_caches()
    registered = {id(t) for t in syntax._MEMO_TABLES}
    assert all(not t for t in syntax._MEMO_TABLES)
    assert {name for name, d in _memo_dicts().items()
            if id(d) not in registered} == set()
    assert run_all() == before


def test_one_table_numbers_each_canonical_state_once():
    # a raw process, its canonical form, an equal canonical process built
    # fresh (the same object: terms are hash-consed) and an equal successor
    # destination are one state: one id and one stored object
    ccseed.clear_caches()
    raw = parse("!c.a.a.0 | b.a.a.0")
    canon = canonicalize(raw)
    fresh = parse(render(canon))
    [dest] = [d for label, d in lts.successors(parse("!c.a.a.0 | d.b.a.a.0"))
              if str(label) == "d"]
    assert raw != canon and fresh is canon
    procs = [raw, canon, fresh, dest]
    assert {congruence.canonical_id(x) for x in procs} == {
        congruence.canonical_id(canon)}
    assert all(canonicalize(x) is canon for x in procs)
    parts = (congruence._COMP_IDS, congruence._COMPS, congruence._PARTS,
             congruence._PARTS_OF)
    assert all(parts)
    ccseed.clear_caches()
    assert not congruence._STATE_IDS and not congruence._STATES
    assert not any(parts)
    assert [congruence.canonical_id(x) for x in (fresh, raw, parse("a.0"))] == [
        0, 0, 1]
    # component ids restart at 0 too, in the order numbering meets them:
    # fresh's finite component, then its replicated one, then a.0, then
    # b.0 | a.c.0 and what its a.c.0 spawns when it fires
    lts.successors(parse("b.0 | a.c.0"))
    assert {k: render(t) for k, t in congruence._COMPS.items()} == {
        0: "b.(a.0 | a.0)", 1: "c.(a.0 | a.0)", 2: "a.0", 3: "b.0",
        4: "a.c.0", 5: "c.0"}


def test_an_unnumbered_canonical_process_is_stored_itself():
    # canonical already, but in no table yet: numbering it keeps the
    # argument instead of an equal copy built from it
    ccseed.clear_caches()
    q = parse("!a.b.0 | !b.0 | c.(a.0 | b.0)")
    assert canonicalize(q) is q
    assert canonicalize(parse(render(q))) is q
    raw = parse("!b.a.a.0 | c.c.0")
    assert canonicalize(raw) is not raw
    assert canonicalize(raw) is canonicalize(parse(render(canonicalize(raw))))


def test_terms_built_too_deep_raise_structure_error():
    # Built directly, not parsed: the recursive layers past the parser
    # report the same typed error that parse does, then work as before.
    a = syntax.Action("a")
    fp = syntax.NIL_FINITE
    for _ in range(5000):
        fp = FiniteProcess((syntax.PrefixedTerm(a, fp),))
    deep = Process((), fp)
    for call, arg in ((canonicalize, deep), (congruence.canonical_finite, fp),
                      (render, deep), (render, fp), (compute_seed, deep)):
        with pytest.raises(syntax.StructureError,
                           match="^term nested too deeply$"):
            call(arg)
    shallow = parse("a.(b.0 | a.b.0)")
    assert render(canonicalize(shallow)) == "a.b.0 | a.b.0"
    assert render(congruence.canonical_finite(shallow.finite)) == (
        "a.b.0 | a.b.0")
    assert render(compute_seed(shallow).seed) == "a.b.0 | a.b.0"
