"""Command-line front end.

Verbs: check, seed, normalize, lts, fuzz.  Exit codes are a function of the
verdict alone: 0 for bisimilar / success, 1 for not bisimilar (or a fuzz
counterexample), 2 for usage, parse, or bound errors, 3 for an internal
error (a bug, never a verdict); a term nested too deeply to process is a
bound error.  Output is deterministic: byte-identical across runs for the
same inputs and flags.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from typing import List, Optional

from .congruence import canonicalize
from .lts import DEFAULT_DEPTH_CAP, DepthExceeded, check_depth, unfold
from .oracle import (Distinguisher, GameConfig, bounded_bisim,
                     lemma_suite_sharded)
from .rewrite import compute_seed, convertible
from .syntax import ParseError, StructureError, parse, render

EXIT_OK = 0
EXIT_DIFFERENT = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _read_term(arg: str, stdin_lines: List[str]) -> str:
    if arg != "-":
        return arg
    while stdin_lines:
        line = stdin_lines.pop(0).strip()
        if line:
            return line
    raise ParseError("no term supplied on stdin", 0)


def _trace_json(trace) -> list:
    out = []
    for step in trace:
        entry = {
            "axiom": step.axiom,
            "before": render(step.before),
            "after": render(step.after),
        }
        if step.path is not None:
            entry["path"] = {
                "area": step.path.area,
                "replicatedIndex": step.path.rep_index,
                "steps": list(step.path.steps),
            }
        else:
            entry["path"] = None
        if step.matched is not None:
            entry["matched"] = render(step.matched)
        if step.dropped is not None:
            entry["dropped"] = render(step.dropped)
        out.append(entry)
    return out


def _distinguisher_json(dist: Distinguisher) -> dict:
    return {
        "depth": len(dist.moves),
        "moves": [{"side": mv.side, "label": str(mv.label),
                   "successor": render(mv.successor)} for mv in dist.moves],
    }


def _emit(doc: dict, as_json: bool, text_lines: List[str]) -> None:
    if as_json:
        print(json.dumps(doc, indent=2, sort_keys=False))
    else:
        for line in text_lines:
            print(line)


def cmd_check(args, stdin_lines: List[str]) -> int:
    p = parse(_read_term(args.left, stdin_lines), args.mode)
    q = parse(_read_term(args.right, stdin_lines), args.mode)
    check_depth(args.oracle_depth)  # exits 2 whatever the verdict would be
    result = convertible(p, q)
    doc: dict = {
        "verb": "check",
        "mode": args.mode,
        "left": render(canonicalize(p)),
        "right": render(canonicalize(q)),
        "equivalent": result.equivalent,
    }
    lines: List[str] = []
    if result.equivalent:
        doc["seed"] = render(result.left.seed)
        lines.append("bisimilar")
        lines.append(f"seed: {doc['seed']}")
    else:
        doc["leftSeed"] = render(result.left.seed)
        doc["rightSeed"] = render(result.right.seed)
        lines.append("not bisimilar")
        lines.append(f"left seed: {doc['leftSeed']}")
        lines.append(f"right seed: {doc['rightSeed']}")
    if args.trace:
        doc["trace"] = {"left": _trace_json(result.left.trace),
                        "right": _trace_json(result.right.trace)}
        lines.append("left trace: " + json.dumps(doc["trace"]["left"]))
        lines.append("right trace: " + json.dumps(doc["trace"]["right"]))

    game = None
    if args.oracle or not result.equivalent:
        game = bounded_bisim(p, q, GameConfig(depth=args.oracle_depth,
                                              mode=args.mode))
    if args.oracle:
        doc["oracle"] = {
            "depth": args.oracle_depth,
            "equivalentUpToDepth": game.equivalent,
            "agrees": game.equivalent == result.equivalent,
        }
        verdict = ("equivalent up to depth" if game.equivalent
                   else "distinguished")
        agreement = "agrees" if doc["oracle"]["agrees"] else "DISAGREES"
        lines.append(f"oracle (depth {args.oracle_depth}): "
                     f"{verdict}, {agreement}")
    if game is not None and game.distinguisher is not None:
        doc["distinguisher"] = _distinguisher_json(game.distinguisher)
        lines.append(f"distinguisher (depth {len(game.distinguisher.moves)}):")
        for i, mv in enumerate(game.distinguisher.moves, 1):
            lines.append(f"  {i}. {mv.side} fires {mv.label} -> "
                         f"{render(mv.successor)}")
    _emit(doc, args.json, lines)
    return EXIT_OK if result.equivalent else EXIT_DIFFERENT


def cmd_seed(args, stdin_lines: List[str]) -> int:
    p = parse(_read_term(args.term, stdin_lines), args.mode)
    result = compute_seed(p)
    doc = {
        "verb": "seed",
        "mode": args.mode,
        "input": render(canonicalize(p)),
        "seed": render(result.seed),
        "sizeBefore": p.size,
        "sizeAfter": result.seed.size,
    }
    if args.json:  # the count costs an exhaustive enumeration; text omits it
        doc["candidatesChecked"] = result.candidates_checked
    lines = [doc["seed"]]
    if args.trace:
        doc["trace"] = _trace_json(result.trace)
        lines.append("trace: " + json.dumps(doc["trace"]))
    _emit(doc, args.json, lines)
    return EXIT_OK


def cmd_normalize(args, stdin_lines: List[str]) -> int:
    raw = _read_term(args.term, stdin_lines)
    p = parse(raw, args.mode)
    canon = render(canonicalize(p))
    doc = {"verb": "normalize", "mode": args.mode, "input": raw.strip(),
           "canonical": canon}
    _emit(doc, args.json, [canon])
    return EXIT_OK


def cmd_lts(args, stdin_lines: List[str]) -> int:
    order, edges = unfold(parse(_read_term(args.term, stdin_lines), args.mode),
                          args.depth, args.mode)
    doc = {
        "verb": "lts",
        "mode": args.mode,
        "process": render(order[0]),
        "depth": args.depth,
        "states": [render(s) for s in order],
        "transitions": [{"source": render(s), "label": str(l),
                         "destination": render(d)} for s, l, d in edges],
    }
    lines = []
    # unfold lists each state's transitions together, in discovery order
    for state, out in itertools.groupby(edges, key=lambda e: e[0]):
        lines.append(f"state: {render(state)}")
        lines.extend(f"  {l} -> {render(d)}" for _s, l, d in out)
    _emit(doc, args.json, lines or [f"state: {render(order[0])}"])
    return EXIT_OK


def cmd_fuzz(args, stdin_lines: List[str]) -> int:
    if args.max_size > 8:
        raise DepthExceeded(f"max-size {args.max_size} exceeds cap 8")
    if args.max_size < 1:
        raise ValueError("max-size must be positive")
    if args.rounds < 1:
        raise ValueError("rounds must be positive")
    report = lemma_suite_sharded(seed=args.seed, rounds=args.rounds,
                                 shards=args.shards, max_size=args.max_size,
                                 action_count=args.alphabet, mode=args.mode)
    doc = report.to_dict()
    doc["verb"] = "fuzz"
    lines = [f"fuzz seed={args.seed} rounds={args.rounds} mode={args.mode}"]
    for name, st in report.properties.items():
        lines.append(f"  {name}: instances={st.instances} hits={st.hits} "
                     f"counterexamples={len(st.counterexamples)}")
        for ce in st.counterexamples:
            lines.append(f"    counterexample: {json.dumps(ce)}")
    lines.append("ok" if report.ok else "COUNTEREXAMPLES FOUND")
    _emit(doc, args.json, lines)
    return EXIT_OK if report.ok else EXIT_DIFFERENT


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``ccs`` parser, built on the first call and shared after it.

    Reuse is safe: ``parse_args`` fills a fresh namespace on every call,
    and help and usage text read ``COLUMNS`` when printed, not when built.
    """
    ap = argparse.ArgumentParser(
        prog="ccs",
        description="Decide strong bisimilarity of replicated CCS processes "
                    "by seed extraction.")
    sub = ap.add_subparsers(dest="verb", required=True)

    def common(sp, term_args):
        for name in term_args:
            sp.add_argument(name, help="process term, or - to read stdin")
        sp.add_argument("--sync", dest="mode", action="store_const",
                        const="sync", default="base",
                        help="synchronised calculus: ~a outputs, tau moves")
        sp.add_argument("--json", action="store_true",
                        help="emit a JSON document instead of text")

    sp = sub.add_parser("check", help="decide bisimilarity of two processes")
    common(sp, ("left", "right"))
    sp.add_argument("--oracle", action="store_true",
                    help="cross-check with the bounded game oracle")
    sp.add_argument("--oracle-depth", type=int, default=6, metavar="N",
                    help="game rounds for the oracle (default 6)")
    sp.add_argument("--trace", action="store_true",
                    help="include the rewrite traces")
    sp.set_defaults(run=cmd_check)

    sp = sub.add_parser("seed", help="compute the minimal bisimilar process")
    common(sp, ("term",))
    sp.add_argument("--trace", action="store_true",
                    help="include the rewrite trace")
    sp.set_defaults(run=cmd_seed)

    sp = sub.add_parser("normalize", help="print the canonical form")
    common(sp, ("term",))
    sp.set_defaults(run=cmd_normalize)

    sp = sub.add_parser("lts", help="unfold the transition system")
    common(sp, ("term",))
    sp.add_argument("--depth", type=int, default=1, metavar="N",
                    help=f"unfold depth (default 1, cap {DEFAULT_DEPTH_CAP})")
    sp.set_defaults(run=cmd_lts)

    sp = sub.add_parser("fuzz", help="run the property suite")
    common(sp, ())
    sp.add_argument("--seed", type=int, default=0, metavar="N",
                    help="random seed (default 0)")
    sp.add_argument("--rounds", type=int, default=120, metavar="N",
                    help="suite rounds (default 120)")
    sp.add_argument("--shards", type=int, default=4, metavar="N",
                    help="worker shards (default 4)")
    sp.add_argument("--max-size", type=int, default=5, metavar="N",
                    help="largest generated process (default 5, cap 8)")
    sp.add_argument("--alphabet", type=int, default=2, metavar="N",
                    help="action alphabet size (default 2)")
    sp.set_defaults(run=cmd_fuzz)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    stdin_lines: List[str] = []
    term_args = [getattr(args, name, None)
                 for name in ("left", "right", "term")]
    if "-" in term_args:
        stdin_lines = sys.stdin.read().splitlines()
    try:
        return args.run(args, stdin_lines)
    except (ParseError, StructureError, DepthExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("error: term nested too deeply", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
