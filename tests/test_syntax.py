import copy
import gc
import hashlib
import importlib
import json
import os
import pickle
import pkgutil
import platform
import random
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import ccseed
from ccseed import corpus, lts, syntax
from ccseed.syntax import (INPUT, OUTPUT, PLAIN, Action, FiniteProcess,
                           ParseError, Path, PrefixedTerm, Process,
                           StructureError, apply_substitution,
                           delete_at, edit_multiset, occurrences, parse,
                           render, resolve)


def test_action_basics():
    a = Action("a")
    assert a.polarity == PLAIN
    assert str(a) == "a"
    out = Action("a", OUTPUT)
    assert str(out) == "~a"
    assert out.co() == Action("a", INPUT)
    assert Action("a", INPUT).co() == out


def test_handshake_is_an_input_and_an_output_on_one_name():
    polarities = (PLAIN, INPUT, OUTPUT)
    for left in polarities:
        for right in polarities:
            expected = {left, right} == {INPUT, OUTPUT}
            assert Action("a", left).handshakes(Action("a", right)) is expected
            assert Action("a", left).handshakes(Action("b", right)) is False


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


@pytest.mark.parametrize("text, position", [("tau.0", 0), ("a.~tau.0", 3)])
def test_sync_mode_reserves_tau_for_the_silent_label(text, position):
    # An input or output named tau would print like a handshake's label;
    # base mode has no silent label, so tau.0 stays legal there.
    with pytest.raises(StructureError, match="reserved") as err:
        parse(text, mode="sync")
    assert err.value.position == position
    for polarity in (INPUT, OUTPUT):
        with pytest.raises(ValueError):
            Action("tau", polarity)
    assert render(parse("tau.0")) == "tau.0"


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


@pytest.mark.parametrize("deep", [
    "a." * 2000 + "0", "(" * 600 + "0" + ")" * 600,
    "!a.(" + "b.(" * 600 + "0" + ")" * 601,
], ids=["prefixes", "parentheses", "replicated-body"])
def test_parse_reports_deep_nesting_as_structure_error(deep):
    with pytest.raises(StructureError, match="^term nested too deeply$"):
        parse(deep)


def test_parse_mode_validation():
    with pytest.raises(ValueError):
        parse("a.0", mode="weird")


def test_size():
    assert parse("0").size == 0
    assert parse("a.0").size == 1
    assert parse("a.b.0|c.0").size == 3
    assert parse("!a.(b.0|c.0)").size == 3


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


def _one_of_each_term_class():
    p = parse("!a.(b.0 | c.d.0) | ~e.0 | e.(a.0 | a.0)", mode="sync")
    return [p, p.finite, p.replicated[0], p.replicated[0].action,
            lts.Label(p.finite.components[0].action), lts.TAU]


def test_equal_terms_are_one_object():
    p = parse("a.0 | b.c.0 | !d.(a.0 | b.0)")
    q = parse("!d.(b.0 | a.0) | b.c.0 | a.0")
    assert p is q and p.finite is q.finite
    assert Process(p.replicated, p.finite) is p
    assert FiniteProcess(reversed(p.finite.components)) is p.finite
    t = p.finite.components[1]
    assert PrefixedTerm(Action("b"), parse("c.0").finite) is t
    assert Action("b") is t.action
    assert lts.Label(Action("b")) is lts.Label(t.action)
    assert lts.Label(None) is lts.TAU


@pytest.mark.parametrize("term", _one_of_each_term_class(), ids=[
    "Process", "FiniteProcess", "PrefixedTerm", "Action", "Label", "TAU"])
def test_pickle_and_copy_keep_identity(term):
    assert pickle.loads(pickle.dumps(term)) is term
    assert copy.deepcopy(term) is term
    assert copy.copy(term) is term


def test_a_term_kept_across_clear_caches_is_an_equal_term_built_after():
    p = parse("!a.b.0 | c.(a.0 | b.0)")
    ccseed.canonicalize(p)
    ccseed.clear_caches()
    assert parse(render(p)) is p
    assert PrefixedTerm(Action("c"), parse("a.0 | b.0").finite) is (
        p.finite.components[0])


def test_a_dropped_term_leaves_no_intern_entry():
    tables = (syntax._ACTIONS, syntax._FINITES, syntax._PREFIXED,
              syntax._PROCESSES, lts._LABELS)
    text = "!unseen.(once.0 | only.here.0) | twice.(unseen.0 | here.0)"
    gc.collect()
    before = [len(t) for t in tables]
    p = parse(text)
    label = lts.Label(p.finite.components[0].action)
    built = [len(t) for t in tables]
    assert all(n > m for n, m in zip(built, before))
    del p, label
    gc.collect()
    assert [len(t) for t in tables] == before
    # Rebuilt, the text is one live object again, with one entry per table
    # for each of its terms.
    p = parse(text)
    label = lts.Label(p.finite.components[0].action)
    assert parse(text) is p
    assert [len(t) for t in tables] == built
    twice = p.finite.components[0]
    for table, key, term in (
            (syntax._ACTIONS, ("twice", PLAIN), twice.action),
            (syntax._FINITES, (twice,), p.finite),
            (syntax._PREFIXED, (twice.action, twice.body), twice),
            (syntax._PROCESSES, (p.replicated, p.finite), p),
            (lts._LABELS, twice.action, label)):
        assert table.get(key)() is term
    # A stale entry's callback, run late, after an equal term was interned
    # again, finds another entry under its key and leaves it in place.
    stale = syntax._PROCESSES.get((p.replicated, p.finite))
    drop = stale.__callback__  # cleared once it has run
    del p, twice, label, table, key, term
    assert stale() is None and stale.key not in syntax._PROCESSES.entries
    p = parse(text)
    drop(stale)
    assert syntax._PROCESSES.get(stale.key, syntax._GONE)() is p


_SET_ORDER = """
import shift_addresses, sys
from ccseed.syntax import parse, render
if sys.argv[1] == "shift":
    shift_addresses.shift()
terms = set(parse("p.0 | q.0 | r.0 | p.q.0 | q.r.0 | r.p.0 | p.p.0 | q.q.0")
            .finite.components)
print(" | ".join(render(t) for t in terms))
"""


def test_shift_addresses_reorders_a_set_of_terms():
    """``shift_addresses``, the plugin of CI's third digest run, moves
    terms to addresses at which a set of them iterates in another order.
    Run with address space randomization off, so that without the shift
    the order repeats."""
    setarch = shutil.which("setarch")
    if setarch is None:
        pytest.skip("needs setarch to turn address randomization off")
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(syntax.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((src, here)),
           "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}

    def order(mode):
        done = subprocess.run(
            [setarch, platform.machine(), "-R", sys.executable, "-c",
             _SET_ORDER, mode],
            capture_output=True, text=True, env=env, timeout=60)
        if done.returncode:
            pytest.skip(f"setarch -R failed: {done.stderr.strip()}")
        return done.stdout

    plain = order("plain")
    if order("plain") != plain:
        pytest.skip("address randomization stayed on")
    assert order("shift") != plain


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
        assert smaller.size == p.size - term.size


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
    path = Path(rep_index, steps)
    assert path.area == area
    with pytest.raises(IndexError):
        resolve(p, path)
    with pytest.raises(IndexError):
        delete_at(p, path)
    with pytest.raises(IndexError):
        corpus.insert_at(p, path, (PrefixedTerm(Action("g")),))


def test_insert_at_slot_without_steps_rejects_bad_replicated_index():
    p = parse("!e.f.0 | d.0")
    for rep_index in (-1, 1):
        with pytest.raises(IndexError):
            corpus.insert_at(p, Path(rep_index, ()), ())


def test_edit_multiset_at_each_level():
    p = parse("!e.f.0 | a.(b.0|c.0) | d.0")
    g = PrefixedTerm(Action("g"))

    def add(comps):
        comps.append(g)

    assert render(edit_multiset(p, Path(None, ()), add)) == (
        "!e.f.0 | d.0 | g.0 | a.(b.0 | c.0)")
    assert render(edit_multiset(p, Path(None, (1,)), add)) == (
        "!e.f.0 | d.0 | a.(b.0 | c.0 | g.0)")
    assert render(edit_multiset(p, Path(0, ()), add)) == (
        "!e.(f.0 | g.0) | d.0 | a.(b.0 | c.0)")
    assert render(edit_multiset(p, Path(0, (0,)), add)) == (
        "!e.f.g.0 | d.0 | a.(b.0 | c.0)")
    assert render(p) == "!e.f.0 | d.0 | a.(b.0 | c.0)"


def test_paths_slots_and_contexts_match_recorded_digest():
    # Recorded before slots and contexts were addressed by Path: every
    # occurrence path with what it resolves to and deletes, every slot's
    # insertion, and the fattening and context draws, base and sync.
    rng = random.Random(909)
    digest = hashlib.sha256()
    for k in range(200):
        acts = corpus.default_actions(3) if k % 2 else corpus.default_actions(
            4, "sync")
        p = corpus.random_process(rng, rng.randint(0, 8), acts,
                                  replication=k % 8 != 7)
        t = PrefixedTerm(rng.choice(acts),
                         corpus.random_finite(rng, rng.randint(0, 2), acts))
        rows = [render(p), render(t)]
        for path, occ in occurrences(p):
            rows.append([path.area, path.rep_index, list(path.steps),
                         render(occ), render(resolve(p, path)),
                         render(delete_at(p, path))])
        rows.append([render(corpus.insert_at(p, slot, (t,)))
                     for slot in corpus.multiset_slots(p)])
        rows.append(render(corpus.make_redundant(rng, p, 3)))
        ctx = corpus.random_context(rng, rng.randint(0, 6), acts,
                                    finite_only=k % 5 == 0)
        rows.append([render(ctx.base), render(ctx.plug((t,)))])
        digest.update(json.dumps(rows).encode() + b"\n")
    assert digest.hexdigest() == (
        "258795b7ddd218d6c14d2b88d04994b4353d44d7d1fefeffd817469c111b06b4")


def test_top_multiset_paths_edit_but_address_no_occurrence():
    # Empty steps name a top multiset: the finite part, or the body of a
    # replicated component.  Inserting there works; there is no occurrence
    # to resolve or delete.
    p = parse("!e.f.0 | d.0")
    g = PrefixedTerm(Action("g"))
    top_finite, top_rep = Path(None, ()), Path(0, ())
    assert (top_finite.area, top_rep.area) == ("finite", "replicated")
    assert render(corpus.insert_at(p, top_finite, (g,))) == "!e.f.0 | d.0 | g.0"
    assert render(corpus.insert_at(p, top_rep, (g,))) == "!e.(f.0 | g.0) | d.0"
    assert render(edit_multiset(p, top_rep, list.clear)) == "!e.0 | d.0"
    for path in (top_finite, top_rep):
        with pytest.raises(IndexError, match="^path does not match process$"):
            resolve(p, path)
        with pytest.raises(IndexError, match="^path does not match process$"):
            delete_at(p, path)


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
    total = sum(t.size for t in p.replicated) + p.finite.size
    assert p.size == total


def test_prefixed_term_ordering_puts_small_terms_first():
    big = parse("a.(b.0|c.0)").finite.components[0]
    small = parse("b.0").finite.components[0]
    fp = FiniteProcess((big, small))
    assert fp.components[0] == small


def test_nested_body_renders_with_parens():
    t = PrefixedTerm(Action("a"),
                     FiniteProcess(parse("b.0|c.0").finite.components))
    assert render(Process((), FiniteProcess((t,)))) == "a.(b.0 | c.0)"


@pytest.mark.parametrize("module", ["ccseed"] + [
    "ccseed." + m.name for m in pkgutil.iter_modules(ccseed.__path__)])
def test_every_exported_name_exists(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", ())  # cli declares none
    assert [n for n in exported if not hasattr(mod, n)] == []
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(exported) <= set(namespace)
