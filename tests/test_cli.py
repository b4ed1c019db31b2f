import argparse
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ccseed import clear_caches, cli, corpus, lts, oracle, rewrite
from ccseed.cli import main
from ccseed.congruence import canonicalize
from ccseed.rewrite import UniquenessError, convertible
from ccseed.syntax import parse, render

P1 = "!a.(b.0|a.c.0)|!a.(c.0|a.b.0)"
P2 = "!a.b.0|!a.c.0"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_golden_pair(capsys):
    code, out, _ = run(capsys, "check", P1, P2)
    assert code == 0
    assert out.splitlines()[0] == "bisimilar"
    assert "seed: !a.b.0 | !a.c.0" in out


def test_check_trivial(capsys):
    code, out, _ = run(capsys, "check", "0", "0")
    assert code == 0
    assert "bisimilar" in out


def test_check_not_bisimilar_exit_and_distinguisher(capsys):
    code, out, _ = run(capsys, "check", "!a.b.0", "!a.c.0")
    assert code == 1
    assert "not bisimilar" in out
    assert "distinguisher (depth 2):" in out


def test_check_json_document(capsys):
    code, out, _ = run(capsys, "check", P1, P2, "--json", "--oracle",
                       "--trace")
    assert code == 0
    doc = json.loads(out)
    assert doc["verb"] == "check"
    assert doc["equivalent"] is True
    assert doc["seed"] == "!a.b.0 | !a.c.0"
    assert doc["oracle"]["agrees"] is True
    assert isinstance(doc["trace"]["left"], list)
    step = doc["trace"]["left"][0]
    assert set(step) >= {"axiom", "before", "after", "path"}


def test_check_json_negative_has_distinguisher(capsys):
    code, out, _ = run(capsys, "check", "a.b.0", "a.0", "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["equivalent"] is False
    assert doc["distinguisher"]["depth"] == 2
    sides = {mv["side"] for mv in doc["distinguisher"]["moves"]}
    assert sides <= {"left", "right"}


def test_check_oracle_agreement_line(capsys):
    code, out, _ = run(capsys, "check", P1, P2, "--oracle")
    assert code == 0
    assert "oracle (depth 6): equivalent up to depth, agrees" in out


def test_seed_golden(capsys):
    code, out, _ = run(capsys, "seed", "!a.(b.0|a.b.0)")
    assert code == 0
    assert out.strip() == "!a.b.0"


def test_seed_trace_json(capsys):
    code, out, _ = run(capsys, "seed", "!a.(b.0|a.b.0)", "--json", "--trace")
    doc = json.loads(out)
    assert doc["seed"] == "!a.b.0"
    assert doc["sizeBefore"] == 4
    assert doc["sizeAfter"] == 2
    assert len(doc["trace"]) == 1
    assert doc["trace"][0]["axiom"] in ("B1", "B2")


def test_normalize_golden(capsys):
    code, out, _ = run(capsys, "normalize", "a.(b.0|a.b.0)")
    assert code == 0
    assert out.strip() == "a.b.0 | a.b.0"


def test_lts_depth_one(capsys):
    code, out, _ = run(capsys, "lts", "!a.b.0", "--depth", "1")
    assert code == 0
    assert out.splitlines() == ["state: !a.b.0", "  a -> !a.b.0 | b.0"]


def test_lts_json(capsys):
    code, out, _ = run(capsys, "lts", "a.0|~a.0", "--sync", "--depth", "1",
                       "--json")
    doc = json.loads(out)
    labels = {tr["label"] for tr in doc["transitions"]}
    assert labels == {"a", "~a", "tau"}
    assert doc["states"][0] == "a.0 | ~a.0"


def test_lts_depth_cap(capsys):
    code, _out, err = run(capsys, "lts", "a.0", "--depth", "13")
    assert code == 2
    assert "cap" in err


def test_parse_error_exits_2(capsys):
    code, _out, err = run(capsys, "check", "a.(", "a.0")
    assert code == 2
    assert "error:" in err


def test_structure_error_exits_2(capsys):
    code, _out, err = run(capsys, "seed", "a.!b.0")
    assert code == 2
    assert "replication" in err


def test_tau_is_a_name_in_base_mode_and_reserved_in_sync_mode(capsys):
    # In sync mode an action named tau would print, and go into --json,
    # like the label of the handshake it takes part in.
    code, out, _ = run(capsys, "lts", "tau.0")
    assert code == 0
    assert out.splitlines() == ["state: tau.0", "  tau -> 0"]
    code, out, err = run(capsys, "lts", "--sync", "tau.0|~tau.0")
    assert (code, out) == (2, "")
    assert err == ("error: the name tau is reserved for the silent label "
                   "in sync mode (at position 0)\n")


def test_sync_flag_required_for_outputs(capsys):
    code, _out, err = run(capsys, "normalize", "~a.0")
    assert code == 2
    code, out, _ = run(capsys, "normalize", "~a.0", "--sync")
    assert code == 0
    assert out.strip() == "~a.0"


def test_unknown_verb_exits_2(capsys):
    assert run(capsys, "bogus")[0] == 2


def test_missing_argument_exits_2(capsys):
    assert run(capsys, "check", "a.0")[0] == 2


def test_stdin_terms(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("a.a.0\na.0|a.0\n"))
    code, out, _ = run(capsys, "check", "-", "-")
    assert code == 0
    assert "bisimilar" in out


def test_stdin_single_term(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("  a.(b.0|a.b.0)  \n"))
    code, out, _ = run(capsys, "normalize", "-")
    assert code == 0
    assert out.strip() == "a.b.0 | a.b.0"


def test_stdin_empty_is_parse_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    code, _out, err = run(capsys, "seed", "-")
    assert code == 2
    assert "stdin" in err


def test_fuzz_clean_run(capsys):
    code, out, _ = run(capsys, "fuzz", "--rounds", "12", "--shards", "2",
                       "--seed", "3")
    assert code == 0
    assert out.splitlines()[-1] == "ok"
    assert "seed_decision_matches_game" in out


def test_fuzz_json(capsys):
    code, out, _ = run(capsys, "fuzz", "--rounds", "8", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["verb"] == "fuzz"
    assert doc["ok"] is True
    for stats in doc["properties"].values():
        assert stats["counterexamples"] == []


def test_fuzz_counterexample_exits_1(capsys, monkeypatch):
    # with the game saying no finite pair is bisimilar, each folded pair
    # the seeds call equivalent is a counterexample
    monkeypatch.setattr(oracle, "finite_bisim", lambda *args: False)
    argv = ("fuzz", "--rounds", "20", "--shards", "1")
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert "    counterexample: " in out
    assert out.splitlines()[-1] == "COUNTEREXAMPLES FOUND"
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_fuzz_max_size_cap(capsys):
    code, _out, err = run(capsys, "fuzz", "--max-size", "9")
    assert code == 2
    assert "cap" in err


def test_output_deterministic(capsys):
    first = run(capsys, "check", P1, P2, "--json", "--oracle", "--trace")
    second = run(capsys, "check", P1, P2, "--json", "--oracle", "--trace")
    assert first == second
    f1 = run(capsys, "fuzz", "--rounds", "10", "--seed", "7", "--json")
    f2 = run(capsys, "fuzz", "--rounds", "10", "--seed", "7", "--json")
    assert f1 == f2


def test_internal_error_exits_3_not_a_verdict(capsys, monkeypatch):
    def broken(p, q):
        raise UniquenessError("two minimal seeds")

    monkeypatch.setattr(cli, "convertible", broken)
    code, out, err = run(capsys, "check", "a.0", "b.0")
    assert code == 3
    assert out == ""
    assert err.startswith("error: internal error: UniquenessError: ")


# SHA-256 of `ccs fuzz --json` stdout: the suite's RNG draws fix these bytes.
FUZZ_DIGESTS = {
    "base-seed7": (("--seed", "7", "--rounds", "20", "--max-size", "6"),
                   "7d1ea80854701a7f156cd5fd78c1621782e25510a473eef3ec4eb0923322499f"),
    "sync-seed11": (("--sync", "--seed", "11", "--rounds", "20"),
                    "c85574d94f4e61c365a4df43a4b476f80777e1b1d83159f6944d0609be4da367"),
    "one-shard-seed5": (("--seed", "5", "--shards", "1", "--rounds", "20"),
                        "a665a450c7224f7b7bc5a3af23b366ca7246a184d38a7275853e4ef3cea715a0"),
}


@pytest.mark.parametrize("case", sorted(FUZZ_DIGESTS))
def test_fuzz_json_golden_digest(capsys, case):
    argv, digest = FUZZ_DIGESTS[case]
    code, out, err = run(capsys, "fuzz", "--json", *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Golden outputs: the exact bytes of `lts` unfolds deeper than one step
# (each term reaches some state twice) and of seed traces with a B1
# deletion inside a replicated body, a nested path and a B2 step.

def _lts_json(mode, depth, states, edges):
    doc = {"verb": "lts", "mode": mode, "process": states[0], "depth": depth,
           "states": states,
           "transitions": [{"source": s, "label": l, "destination": d}
                           for s, l, d in edges]}
    return json.dumps(doc, indent=2) + "\n"


LTS_DIAMOND_STATES = ["a.b.0 | b.a.0", "b.0 | b.a.0", "a.0 | a.b.0",
                      "a.0 | b.0", "b.a.0", "a.b.0", "b.0", "a.0"]
LTS_DIAMOND_EDGES = [
    ("a.b.0 | b.a.0", "a", "b.0 | b.a.0"),
    ("a.b.0 | b.a.0", "b", "a.0 | a.b.0"),
    ("b.0 | b.a.0", "b", "a.0 | b.0"),
    ("b.0 | b.a.0", "b", "b.a.0"),
    ("a.0 | a.b.0", "a", "a.0 | b.0"),
    ("a.0 | a.b.0", "a", "a.b.0"),
    ("a.0 | b.0", "a", "b.0"),
    ("a.0 | b.0", "b", "a.0"),
    ("b.a.0", "b", "a.0"),
    ("a.b.0", "a", "b.0"),
]

LTS_SYNC_STATES = ["a.b.0 | ~a.~b.0", "b.0 | ~a.~b.0", "~b.0 | a.b.0",
                   "b.0 | ~b.0", "~a.~b.0", "a.b.0", "~b.0", "b.0", "0"]
LTS_SYNC_EDGES = [
    ("a.b.0 | ~a.~b.0", "a", "b.0 | ~a.~b.0"),
    ("a.b.0 | ~a.~b.0", "~a", "~b.0 | a.b.0"),
    ("a.b.0 | ~a.~b.0", "tau", "b.0 | ~b.0"),
    ("b.0 | ~a.~b.0", "~a", "b.0 | ~b.0"),
    ("b.0 | ~a.~b.0", "b", "~a.~b.0"),
    ("~b.0 | a.b.0", "a", "b.0 | ~b.0"),
    ("~b.0 | a.b.0", "~b", "a.b.0"),
    ("b.0 | ~b.0", "b", "~b.0"),
    ("b.0 | ~b.0", "~b", "b.0"),
    ("b.0 | ~b.0", "tau", "0"),
    ("~a.~b.0", "~a", "~b.0"),
    ("a.b.0", "a", "b.0"),
    ("~b.0", "~b", "0"),
    ("b.0", "b", "0"),
]


def test_lts_golden_text_base(capsys):
    code, out, _ = run(capsys, "lts", "a.b.0|b.a.0", "--depth", "3")
    assert code == 0
    assert out == """\
state: a.b.0 | b.a.0
  a -> b.0 | b.a.0
  b -> a.0 | a.b.0
state: b.0 | b.a.0
  b -> a.0 | b.0
  b -> b.a.0
state: a.0 | a.b.0
  a -> a.0 | b.0
  a -> a.b.0
state: a.0 | b.0
  a -> b.0
  b -> a.0
state: b.a.0
  b -> a.0
state: a.b.0
  a -> b.0
"""


def test_lts_golden_text_replicated_revisits_start(capsys):
    code, out, _ = run(capsys, "lts", "!a.b.0|b.0", "--depth", "3")
    assert code == 0
    assert out == """\
state: !a.b.0 | b.0
  a -> !a.b.0 | b.0 | b.0
  b -> !a.b.0
state: !a.b.0 | b.0 | b.0
  a -> !a.b.0 | b.0 | b.0 | b.0
  b -> !a.b.0 | b.0
state: !a.b.0
  a -> !a.b.0 | b.0
state: !a.b.0 | b.0 | b.0 | b.0
  a -> !a.b.0 | b.0 | b.0 | b.0 | b.0
  b -> !a.b.0 | b.0 | b.0
"""


def test_lts_golden_text_sync(capsys):
    code, out, _ = run(capsys, "lts", "a.b.0|~a.~b.0", "--sync",
                       "--depth", "3")
    assert code == 0
    lines = []
    for state in LTS_SYNC_STATES[:-1]:
        lines.append(f"state: {state}")
        lines.extend(f"  {l} -> {d}" for s, l, d in LTS_SYNC_EDGES
                     if s == state)
    assert out == "\n".join(lines) + "\n"


def test_lts_golden_json_base(capsys):
    code, out, _ = run(capsys, "lts", "a.b.0|b.a.0", "--depth", "3", "--json")
    assert code == 0
    assert out == _lts_json("base", 3, LTS_DIAMOND_STATES, LTS_DIAMOND_EDGES)


def test_lts_golden_json_sync(capsys):
    code, out, _ = run(capsys, "lts", "a.b.0|~a.~b.0", "--sync",
                       "--depth", "4", "--json")
    assert code == 0
    assert out == _lts_json("sync", 4, LTS_SYNC_STATES, LTS_SYNC_EDGES)


def test_lts_depth_zero_prints_the_start_state(capsys):
    code, out, _ = run(capsys, "lts", "a.0|a.0", "--depth", "0")
    assert code == 0
    assert out == "state: a.0 | a.0\n"


def test_lts_negative_depth_exits_2(capsys):
    code, out, err = run(capsys, "lts", "a.0", "--depth", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: depth must be non-negative\n"


def _path(area, rep_index, steps):
    return {"area": area, "replicatedIndex": rep_index, "steps": steps}


def test_seed_trace_json_golden_b1_in_replicated_body_then_b2(capsys):
    code, out, _ = run(capsys, "seed", "!a.(b.0|a.b.0)|!a.b.0", "--trace",
                       "--json")
    assert code == 0
    assert out == json.dumps({
        "verb": "seed", "mode": "base",
        "input": "!a.b.0 | !a.(b.0 | a.b.0)", "seed": "!a.b.0",
        "sizeBefore": 6, "sizeAfter": 2, "candidatesChecked": 1,
        "trace": [
            {"axiom": "B1", "before": "!a.b.0 | !a.(b.0 | a.b.0)",
             "after": "!a.b.0 | !a.b.0",
             "path": _path("replicated", 1, [1]), "matched": "a.b.0"},
            {"axiom": "B2", "before": "!a.b.0 | !a.b.0", "after": "!a.b.0",
             "path": None, "dropped": "a.b.0"},
        ]}, indent=2) + "\n"


def test_seed_trace_golden_nested_paths(capsys):
    code, out, _ = run(capsys, "seed", "!a.(b.0|a.b.0)|!b.0|!b.0|b.0",
                       "--trace")
    assert code == 0
    trace = [
        {"axiom": "B1", "before": "!b.0 | !b.0 | !a.(b.0 | a.b.0) | b.0",
         "after": "!b.0 | !b.0 | !a.(b.0 | a.b.0)",
         "path": _path("finite", None, [0]), "matched": "b.0"},
        {"axiom": "B1", "before": "!b.0 | !b.0 | !a.(b.0 | a.b.0)",
         "after": "!b.0 | !b.0 | !a.a.b.0",
         "path": _path("replicated", 2, [0]), "matched": "b.0"},
        {"axiom": "B1", "before": "!b.0 | !b.0 | !a.a.b.0",
         "after": "!b.0 | !b.0 | !a.a.0",
         "path": _path("replicated", 2, [0, 0]), "matched": "b.0"},
        {"axiom": "B1", "before": "!b.0 | !b.0 | !a.a.0",
         "after": "!a.0 | !b.0 | !b.0",
         "path": _path("replicated", 2, [0]), "matched": "a.0"},
        {"axiom": "B2", "before": "!a.0 | !b.0 | !b.0",
         "after": "!a.0 | !b.0", "path": None, "dropped": "b.0"},
    ]
    assert out == f"!a.0 | !b.0\ntrace: {json.dumps(trace)}\n"


def test_check_golden_distinguisher_attacks_from_the_right(capsys):
    code, out, _ = run(capsys, "check", "a.0", "a.0|b.0")
    assert code == 1
    assert out == """\
not bisimilar
left seed: a.0
right seed: a.0 | b.0
distinguisher (depth 1):
  1. right fires b -> a.0
"""


def test_check_golden_distinguisher_switches_sides(capsys):
    code, out, _ = run(capsys, "check", "!a.a.b.0", "!a.b.0")
    assert code == 1
    assert out == """\
not bisimilar
left seed: !a.a.b.0
right seed: !a.b.0
distinguisher (depth 2):
  1. left fires a -> !a.a.b.0 | a.b.0
  2. right fires b -> !a.b.0
"""
    code, out, _ = run(capsys, "check", "!a.a.b.0", "!a.b.0", "--json")
    assert code == 1
    assert json.loads(out)["distinguisher"] == {
        "depth": 2,
        "moves": [
            {"side": "left", "label": "a", "successor": "!a.a.b.0 | a.b.0"},
            {"side": "right", "label": "b", "successor": "!a.b.0"},
        ]}


def test_check_sync_pair_without_linear_witness_stays_within_work_budget(
        capsys, monkeypatch):
    # The two sides differ at game depth 3, but no linear distinguisher of
    # at most 6 moves exists; the witness search once ran for minutes here.
    # The game and the witness search read each state's moves off the
    # transition table, so the budget counts those reads.
    calls = 0

    def counting_moves(i, mode):
        nonlocal calls
        calls += 1
        if calls > 200_000:
            pytest.fail("more than 200,000 oracle transition table reads")
        return lts._moves(i, mode)

    clear_caches()
    monkeypatch.setattr(oracle, "_moves", counting_moves)
    code, out, _ = run(capsys, "check", "--sync",
                       "!a.0 | !a.0 | !a.0 | !~b.~a.0 | !b.~b.a.0 | ~b.0",
                       "!~b.0 | !a.a.0 | !b.b.0 | !~b.~a.0 | a.0 | ~b.0")
    assert code == 1
    assert calls > 0
    assert out == """\
not bisimilar
left seed: !a.0 | !b.~b.0 | !~b.~a.0 | ~b.0
right seed: !a.0 | !b.0 | !~b.0 | !~b.~a.0
"""


# Replication-free, size 21, ten distinct canonical components: 9212
# deletion descendants, which the seed search once walked in full.
FREE_LEFT = ("a.0 | b.0 | c.0 | a.b.0 | b.c.0 | c.a.0 | a.b.c.0 | b.c.a.0 | "
             "c.a.b.0 | a.c.b.0")
FREE_RIGHT = ("a.c.b.0 | c.a.b.0 | b.c.a.0 | a.b.c.0 | c.a.0 | b.c.0 | a.b.0 | "
              "c.0 | b.0 | a.0")


def test_replication_free_seeds_stay_within_work_budget(capsys, monkeypatch):
    # Without replication the seed is the canonical input; finding it must
    # not cost a walk over the deletion descendants.
    calls = 0

    def counting_canonicalize(p):
        nonlocal calls
        calls += 1
        if calls > 20_000:
            pytest.fail("more than 20,000 rewrite.canonicalize calls")
        return canonicalize(p)

    monkeypatch.setattr(rewrite, "canonicalize", counting_canonicalize)
    clear_caches()
    assert convertible(parse(FREE_LEFT), parse(FREE_RIGHT)).equivalent
    clear_caches()
    code, out, _ = run(capsys, "check", FREE_LEFT, FREE_RIGHT)
    assert (code, out.splitlines()[0]) == (0, "bisimilar")
    clear_caches()
    code, out, _ = run(capsys, "seed", FREE_LEFT)
    assert (code, out) == (0, render(canonicalize(parse(FREE_LEFT))) + "\n")


DEEP_PREFIXES = "a." * 3000 + "0"
DEEP_GROUPS = "(" * 2000 + "a.0" + ")" * 2000


@pytest.mark.parametrize("argv", [
    ("check", DEEP_PREFIXES, "a.0"),
    ("check", "a.0", DEEP_GROUPS),
    ("seed", DEEP_GROUPS),
    ("seed", DEEP_PREFIXES),
    ("normalize", DEEP_PREFIXES),
    ("lts", DEEP_GROUPS),
])
def test_deep_nesting_is_a_bound_error_not_a_verdict(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: term nested too deeply\n"


@pytest.mark.parametrize("argv,message", [
    (("--alphabet", "0"), "alphabet 0 outside 1..26"),
    (("--alphabet", "27"), "alphabet 27 outside 1..26"),
    (("--alphabet", "53", "--sync"), "alphabet 53 outside 1..52"),
    (("--max-size", "0"), "max-size must be positive"),
    (("--max-size", "-1"), "max-size must be positive"),
    (("--rounds", "0"), "rounds must be positive"),
    (("--rounds", "-1"), "rounds must be positive"),
])
def test_fuzz_rejects_bad_arguments(capsys, argv, message):
    code, out, err = run(capsys, "fuzz", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("right,depth,message", [
    ("a.0", "99", "depth 99 exceeds cap 12"),
    ("b.0", "99", "depth 99 exceeds cap 12"),
    ("a.0", "-1", "depth must be non-negative"),
    ("b.0", "-1", "depth must be non-negative"),
], ids=["bisimilar-99", "different-99", "bisimilar-neg", "different-neg"])
def test_check_rejects_oracle_depth_whatever_the_verdict(capsys, right, depth,
                                                         message):
    code, out, err = run(capsys, "check", "a.0", right,
                         "--oracle-depth", depth)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


NESTED_PREFIXES = "a." * 450 + "0"
NESTED_GROUPS = "(" * 450 + "a.0" + ")" * 450


@pytest.mark.parametrize("argv", [
    ("normalize", NESTED_PREFIXES),
    ("normalize", NESTED_GROUPS),
    ("lts", NESTED_PREFIXES),
    ("lts", NESTED_GROUPS),
], ids=["normalize-prefixes", "normalize-groups", "lts-prefixes",
        "lts-groups"])
def test_450_nesting_levels_are_accepted(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert err == ""
    assert out


HELP = {
    "check": """\
usage: ccs check [-h] [--sync] [--json] [--oracle] [--oracle-depth N]
                 [--trace]
                 left right

positional arguments:
  left              process term, or - to read stdin
  right             process term, or - to read stdin

options:
  -h, --help        show this help message and exit
  --sync            synchronised calculus: ~a outputs, tau moves
  --json            emit a JSON document instead of text
  --oracle          cross-check with the bounded game oracle
  --oracle-depth N  game rounds for the oracle (default 6)
  --trace           include the rewrite traces
""",
    "seed": """\
usage: ccs seed [-h] [--sync] [--json] [--trace] term

positional arguments:
  term        process term, or - to read stdin

options:
  -h, --help  show this help message and exit
  --sync      synchronised calculus: ~a outputs, tau moves
  --json      emit a JSON document instead of text
  --trace     include the rewrite trace
""",
    "normalize": """\
usage: ccs normalize [-h] [--sync] [--json] term

positional arguments:
  term        process term, or - to read stdin

options:
  -h, --help  show this help message and exit
  --sync      synchronised calculus: ~a outputs, tau moves
  --json      emit a JSON document instead of text
""",
    "lts": """\
usage: ccs lts [-h] [--sync] [--json] [--depth N] term

positional arguments:
  term        process term, or - to read stdin

options:
  -h, --help  show this help message and exit
  --sync      synchronised calculus: ~a outputs, tau moves
  --json      emit a JSON document instead of text
  --depth N   unfold depth (default 1, cap 12)
""",
    "fuzz": """\
usage: ccs fuzz [-h] [--sync] [--json] [--seed N] [--rounds N] [--shards N]
                [--max-size N] [--alphabet N]

options:
  -h, --help    show this help message and exit
  --sync        synchronised calculus: ~a outputs, tau moves
  --json        emit a JSON document instead of text
  --seed N      random seed (default 0)
  --rounds N    suite rounds (default 120)
  --shards N    worker shards (default 4)
  --max-size N  largest generated process (default 5, cap 8)
  --alphabet N  action alphabet size (default 2)
""",
}


@pytest.mark.parametrize("verb", sorted(HELP))
def test_help_golden(capsys, monkeypatch, verb):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal
    code, out, err = run(capsys, verb, "--help")
    assert code == 0
    assert err == ""
    assert out == HELP[verb]


def test_help_reads_columns_when_printed_not_when_built(capsys, monkeypatch):
    # The parser is built once per process; an earlier, wider help must not
    # change how a later one wraps.
    monkeypatch.setenv("COLUMNS", "200")
    code, wide, _ = run(capsys, "check", "--help")
    assert code == 0 and wide != HELP["check"]
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, "check", "--help") == (0, HELP["check"], "")


def test_main_builds_the_parser_once(capsys, monkeypatch):
    built = 0
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    run(capsys, "check", P1, P2)  # warm-up: the parser may be built here
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for _ in range(5):
        assert run(capsys, "check", "--sync", "a.0", "~a.0")[0] == 1
        assert run(capsys, "seed", "--json", P1)[0] == 0
    assert built == 0


def _fresh_process(argv):
    """(exit code, stdout, stderr) of ``ccs argv`` in a new interpreter."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-m", "ccseed.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("calls", [
    [["check", "--sync", "!a.0|~a.a.0", "!a.0|~a.0"],
     ["check", "--json", "a.0|b.0", "a.b.0"]],
    [["check", "--json", "--oracle", "--trace", P1, P2],
     ["check", "a.0|a.0", "a.b.0"]],
], ids=["sync-then-base", "json-oracle-trace-then-plain"])
def test_repeated_main_calls_print_what_fresh_processes_print(capsys, calls):
    # No flag of one call leaks into the next through the shared parser.
    for argv in calls:
        assert run(capsys, *argv) == _fresh_process(argv), argv


# The CLI boundary: whatever the input, every verb answers 0, 1 or 2, with
# no traceback and no internal error, within a bounded amount of work.
TERM_CHARS = "ab~!.0|() -"
ADVERSARIAL = ["", "   ", "\t\n", DEEP_PREFIXES, "(" * 600 + "0" + ")" * 600,
               "(" * 600, "ä.0", "a.0 | λ.0", "a.0\u00a0|\u00a0b.0", "-"]


def _generated_term(seed, mode, size):
    actions = corpus.default_actions(2 if mode == "base" else 4, mode)
    return render(corpus.random_process(random.Random(seed), size, actions))


generated_terms = st.builds(_generated_term, st.integers(0, 2**31 - 1),
                            st.sampled_from(["base", "sync"]),
                            st.integers(0, 8))


@st.composite
def mutated_terms(draw):
    # insert (cut 0), replace or delete (cut 1) one character
    text = draw(generated_terms)
    i = draw(st.integers(0, len(text)))
    cut = draw(st.integers(0, 1))
    return text[:i] + draw(st.sampled_from(["", *TERM_CHARS])) + text[i + cut:]


cli_terms = st.one_of(st.text(TERM_CHARS, max_size=40), generated_terms,
                      mutated_terms(), st.sampled_from(ADVERSARIAL))

VERB_FLAGS = {"check": ["--sync", "--json", "--trace", "--oracle"],
              "seed": ["--sync", "--json", "--trace"],
              "normalize": ["--sync", "--json"],
              "lts": ["--sync", "--json"]}


@st.composite
def cli_invocations(draw):
    verb = draw(st.sampled_from(sorted(VERB_FLAGS)))
    flags = [f for f in VERB_FLAGS[verb] if draw(st.booleans())]
    terms = [draw(cli_terms) for _ in range(2 if verb == "check" else 1)]
    return [verb, *flags, *terms]


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(cli_invocations())
def test_cli_answers_0_1_or_2_on_any_input(argv):
    calls = 0

    def counting(fn):
        def wrapper(*args):
            nonlocal calls
            calls += 1
            if calls > 20_000:
                pytest.fail(f"more than 20,000 calls on {argv!r}")
            return fn(*args)
        return wrapper

    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(rewrite, "canonicalize", counting(canonicalize)), \
            mock.patch.object(oracle, "_moves", counting(lts._moves)), \
            mock.patch.object(lts, "_moves", counting(lts._moves)), \
            mock.patch("sys.stdin", io.StringIO("")), \
            redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert "error: internal error" not in err.getvalue()
