import io
import json

import pytest

from ccseed.cli import main

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
