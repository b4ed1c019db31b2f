import random

import pytest
from hypothesis import given, settings, strategies as st

from ccseed import corpus
from ccseed.syntax import (INPUT, OUTPUT, PLAIN, Action, FiniteProcess,
                           ParseError, Path, PrefixedTerm, Process,
                           StructureError, alphabet, apply_substitution,
                           delete_at, edit_multiset, occurrences, parse,
                           render, resolve, size)


def test_action_basics():
    a = Action("a")
    assert a.polarity == PLAIN
    assert str(a) == "a"
    out = Action("a", OUTPUT)
    assert str(out) == "~a"
    assert out.co() == Action("a", INPUT)
    assert Action("a", INPUT).co() == out


def test_action_name_validation():
    with pytest.raises(ValueError):
        Action("A")
    with pytest.raises(ValueError):
        Action("")
    with pytest.raises(ValueError):
        Action("9x")


@pytest.mark.parametrize("text,canonical", [
    ("0", "0"),
    ("a.0", "a.0"),
    ("a.b.0", "a.b.0"),
    ("a.0|b.0", "a.0 | b.0"),
    ("(a.0|b.0)", "a.0 | b.0"),
    ("a.(b.0|c.0)", "a.(b.0 | c.0)"),
    ("!a.0", "!a.0"),
    ("!a.0|!b.0|c.0", "!a.0 | !b.0 | c.0"),
    ("0|0|0", "0"),
    ("a.0|0", "a.0"),
    ("  a.0  |  b.0  ", "a.0 | b.0"),
    ("((a.0))", "a.0"),
])
def test_parse_render(text, canonical):
    assert render(parse(text)) == canonical


def test_parse_sorts_components():
    # parallel composition is a multiset; rendering is order-insensitive
    assert render(parse("b.0|a.0")) == render(parse("a.0|b.0"))
    assert parse("b.0|a.0|b.0") == parse("b.0|b.0|a.0")


def test_parse_sync_polarities():
    p = parse("~a.0 | a.0", mode="sync")
    assert render(p) == "a.0 | ~a.0"
    assert parse("~a.b.0", mode="sync").finite.components[0].action.polarity == OUTPUT


def test_output_action_rejected_in_base_mode():
    with pytest.raises(StructureError):
        parse("~a.0")


@pytest.mark.parametrize("bad", [
    "", "|", "a", "a.", "a.0|", "a.0 b.0", "(a.0", "a.0)", "!0", "!(a.0)",
    "a..0", "0.0", "A.0", "!",
])
def test_parse_errors(bad):
    with pytest.raises((ParseError, StructureError)):
        parse(bad)


@pytest.mark.parametrize("nested", [
    "a.!b.0", "a.(b.0|!c.0)", "(!a.0).0",
])
def test_replication_only_at_top_level(nested):
    with pytest.raises((StructureError, ParseError)):
        parse(nested)


def test_parens_at_top_level_preserve_replication():
    # grouping is inert for the top-level multiset
    assert render(parse("(a.0|!b.0)")) == "!b.0 | a.0"
    assert parse("(a.0|!b.0) | c.0") == parse("a.0 | !b.0 | c.0")
    # but a group under a prefix is finite
    with pytest.raises(StructureError):
        parse("a.(b.0|!c.0)")


def test_parse_mode_validation():
    with pytest.raises(ValueError):
        parse("a.0", mode="weird")


def test_size():
    assert size(parse("0")) == 0
    assert size(parse("a.0")) == 1
    assert size(parse("a.b.0|c.0")) == 3
    assert size(parse("!a.(b.0|c.0)")) == 3


def test_alphabet():
    assert alphabet(parse("0")) == frozenset()
    assert alphabet(parse("a.b.0|!c.0")) == frozenset(
        {Action("a"), Action("b"), Action("c")})
    assert alphabet(parse("a.0|~a.0", mode="sync")) == frozenset(
        {Action("a", INPUT), Action("a", OUTPUT)})


def test_process_structure():
    p = parse("!a.0 | b.0 | !c.0")
    assert len(p.replicated) == 2
    assert len(p.finite.components) == 1
    assert not p.is_finite()
    assert parse("a.0|b.0").is_finite()
    assert parse("0").is_nil()


def test_equality_and_hash_are_structural():
    p = parse("a.0 | b.c.0")
    q = parse("b.c.0 | a.0")
    assert p == q
    assert hash(p) == hash(q)
    assert p != parse("a.0 | b.0")


def test_occurrences_exclude_replicated_roots():
    p = parse("!a.b.0 | c.0")
    occs = list(occurrences(p))
    # the bang root a.b.0 is not an occurrence, but its body subterm is
    rendered = sorted(render(t) for _path, t in occs)
    assert rendered == ["b.0", "c.0"]


def test_occurrences_cover_every_prefix_node():
    p = parse("a.(b.0|c.d.0) | e.0")
    assert len(list(occurrences(p))) == 5


def test_resolve_and_delete_at():
    p = parse("a.(b.0|c.0) | d.0")
    for path, term in occurrences(p):
        assert resolve(p, path) == term
        smaller = delete_at(p, path)
        assert size(smaller) == size(p) - size(term)


def test_delete_at_inside_replicated_body():
    p = parse("!a.(b.0|c.0)")
    targets = {render(t): path for path, t in occurrences(p)}
    q = delete_at(p, targets["b.0"])
    assert render(q) == "!a.c.0"


@pytest.mark.parametrize("area,rep_index,steps", [
    ("finite", None, (2,)),          # past the end of the finite part
    ("finite", None, (-1,)),         # negative index
    ("finite", None, (0, 0, 0)),     # a.(b.0|c.0) has no grandchild there
    ("finite", None, (0, -1)),
    ("replicated", 1, (0,)),         # only one replicated component
    ("replicated", -1, (0,)),
    ("replicated", 0, (1,)),
])
def test_mismatched_path_raises_index_error(area, rep_index, steps):
    p = parse("!e.f.0 | a.(b.0|c.0) | d.0")
    path = Path(area, rep_index, steps)
    with pytest.raises(IndexError):
        resolve(p, path)
    with pytest.raises(IndexError):
        delete_at(p, path)
    with pytest.raises(IndexError):
        corpus.insert_at(p, (area, rep_index, steps), (PrefixedTerm(
            Action("g")),))


def test_insert_at_slot_without_steps_rejects_bad_replicated_index():
    p = parse("!e.f.0 | d.0")
    for rep_index in (-1, 1):
        with pytest.raises(IndexError):
            corpus.insert_at(p, ("replicated", rep_index, ()), ())


def test_edit_multiset_at_each_level():
    p = parse("!e.f.0 | a.(b.0|c.0) | d.0")
    g = PrefixedTerm(Action("g"))

    def add(comps):
        comps.append(g)

    assert render(edit_multiset(p, "finite", None, (), add)) == (
        "!e.f.0 | d.0 | g.0 | a.(b.0 | c.0)")
    assert render(edit_multiset(p, "finite", None, (1,), add)) == (
        "!e.f.0 | d.0 | a.(b.0 | c.0 | g.0)")
    assert render(edit_multiset(p, "replicated", 0, (), add)) == (
        "!e.(f.0 | g.0) | d.0 | a.(b.0 | c.0)")
    assert render(edit_multiset(p, "replicated", 0, (0,), add)) == (
        "!e.f.g.0 | d.0 | a.(b.0 | c.0)")
    assert render(p) == "!e.f.0 | d.0 | a.(b.0 | c.0)"


def test_path_validation():
    with pytest.raises(ValueError):
        Path("finite", None, ())
    with pytest.raises(ValueError):
        Path("replicated", None, (0,))
    with pytest.raises(ValueError):
        Path("nowhere", None, (0,))


def test_apply_substitution():
    p = parse("a.b.0 | !c.0")
    sigma = {"a": "c", "b": "c"}
    assert render(apply_substitution(p, sigma)) == "!c.0 | c.c.0"
    q = parse("~a.0 | b.0", mode="sync")
    renamed = apply_substitution(q, {"a": "b"})
    assert render(renamed) == "b.0 | ~b.0"


ACTIONS = corpus.default_actions(2, "base")


@st.composite
def process_seeds(draw):
    return draw(st.integers(0, 2**31 - 1))


@settings(max_examples=80, deadline=None)
@given(process_seeds())
def test_parse_render_round_trip(seed):
    rng = random.Random(seed)
    p = corpus.random_process(rng, rng.randint(0, 8), ACTIONS)
    assert parse(render(p)) == p


@settings(max_examples=80, deadline=None)
@given(process_seeds())
def test_render_deterministic_under_component_shuffle(seed):
    rng = random.Random(seed)
    p = corpus.random_process(rng, rng.randint(0, 6), ACTIONS)
    shuffled_fin = list(p.finite.components)
    shuffled_rep = list(p.replicated)
    rng.shuffle(shuffled_fin)
    rng.shuffle(shuffled_rep)
    q = Process(tuple(shuffled_rep), FiniteProcess(tuple(shuffled_fin)))
    assert render(q) == render(p)


@settings(max_examples=60, deadline=None)
@given(process_seeds())
def test_sizes_add_up(seed):
    rng = random.Random(seed)
    p = corpus.random_process(rng, rng.randint(0, 8), ACTIONS)
    total = sum(size(t) for t in p.replicated) + size(p.finite)
    assert size(p) == total


def test_prefixed_term_ordering_puts_small_terms_first():
    big = parse("a.(b.0|c.0)").finite.components[0]
    small = parse("b.0").finite.components[0]
    fp = FiniteProcess((big, small))
    assert fp.components[0] == small


def test_nested_body_renders_with_parens():
    t = PrefixedTerm(Action("a"),
                     FiniteProcess(parse("b.0|c.0").finite.components))
    assert render(Process((), FiniteProcess((t,)))) == "a.(b.0 | c.0)"
