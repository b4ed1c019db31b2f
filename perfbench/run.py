"""Run one ccseed benchmark workload and print its metrics.

    python3 perfbench/run.py --workload seed-rep --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; the library is imported from its ``src/``.
One process, one closed-loop client, no threads: the next item starts when
the previous one has returned.

The work of a run is fixed by ``--seconds``: the workload's ``rate`` items
per second, which at the baseline took about that long.  Fixed work keeps the
memory figure and the traced counts comparable between commits; a faster
commit finishes the same items sooner.

Times are reported at a fixed host speed: a reference task from speed.py runs
between items and during set-up, and each measured time is scaled by how
much slower or faster than nominal the host ran the reference around it.
The report also prints the unscaled wall times.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs the items once untraced and once, on a freshly imported library, with
the tracer installed, and prints the per-layer metrics, including the
tracing overhead (traced minus untraced time, both scaled).  Spans go to
perfbench/out/.

After the timed loop every output is compared with expected/ (when a file
for the seed exists) and checked independently (see workloads.py).  Any
exception or failed check counts in ``failed`` and makes the exit code 1.
The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import random
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from speed import NOMINAL_S, Gauge
from tracer import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected"
OUT = HERE / "out"

DEFAULT_SEED = 1
HELD_OUT_SEED = 4099          # not used while tuning; re-check claimed gains on it
SETUP_REPEATS = 3
TIME_LIMIT_S = 150            # items not finished (or checked) by then fail
TAIL_LADDER = (50, 90, 95, 99, 99.9)
MODULES = ("syntax", "congruence", "lts", "rewrite", "oracle", "corpus", "cli")


class TimeLimit(Exception):
    """Raised inside a running item when the run's time limit is reached."""


def _expire(signum, frame):
    raise TimeLimit(f"time limit of {TIME_LIMIT_S} s reached")


def item_count(workload, seconds: float) -> int:
    return max(1, round(seconds * workload.rate))


def load_library() -> SimpleNamespace:
    """Import ccseed afresh from this checkout (module caches start empty)."""
    for name in [m for m in sys.modules
                 if m == "ccseed" or m.startswith("ccseed.")]:
        del sys.modules[name]
    pkg = importlib.import_module("ccseed")
    if SRC.resolve() not in Path(pkg.__file__).resolve().parents:
        raise ImportError(f"ccseed imported from {pkg.__file__}, not {SRC}")
    lib = SimpleNamespace(**{m: importlib.import_module("ccseed." + m)
                             for m in MODULES})
    lib.all = [pkg] + [getattr(lib, m) for m in MODULES]
    return lib


def set_up(workload, seed: int, n: int):
    """Import plus input generation, SETUP_REPEATS times.

    Returns the library, the items, and the median set-up time, scaled to
    the nominal host speed and unscaled."""
    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # free the previous repetition outside the timing
        gauge = Gauge()
        lib = gauge.time(load_library)
        stream = workload.items(lib, random.Random(seed))
        items = [gauge.time(next, stream) for _ in range(n)]
        gauge.finish()
        times.append(sum(gauge.took))
        scaled.append(sum(gauge.scaled()))
    gc.collect()
    return lib, items, statistics.median(scaled), statistics.median(times)


class Pass:
    """Outputs and timings of one pass over the items."""

    def __init__(self):
        self.outs = []
        self.wall = []           # seconds per item
        self.latencies = []      # seconds per item at the nominal host speed
        self.errors = {}         # item index -> reason
        self.reference_ms = None  # median reference task time in the pass


def timed_pass(workload, lib, items, deadline, tracer=None) -> Pass:
    res = Pass()
    gauge = Gauge()
    for i, item in enumerate(items):
        if perf_counter() > deadline:
            break
        if tracer is not None:
            tracer.item = i
        gauge.before_step()
        t0 = perf_counter()
        try:
            out = workload.run(lib, item)
        except Exception as exc:  # one failed item must not stop the run
            out = None
            res.errors[i] = f"raised {exc!r}"
        gauge.step_took(perf_counter() - t0)
        res.outs.append(out)
    gauge.finish()
    res.wall = gauge.took
    res.latencies = gauge.scaled()
    res.reference_ms = gauge.median_time() * 1e3
    return res


def load_expected(workload, seed: int):
    path = EXPECTED / f"{workload.name}-seed{seed}.json"
    if not path.is_file():
        return None, path
    with open(path) as fh:
        return json.load(fh)["items"], path


def golden_entries(workload, lib, items, outs):
    entries = []
    for item, out in zip(items, outs):
        try:
            entries.append(None if out is None
                           else workload.golden(lib, item, out))
        except Exception:  # verify() reports the same failure
            entries.append(None)
    return entries


def verify(workload, lib, items, outs, errors, expected, deadline):
    """item index -> failure reason, for every item that failed."""
    failures = dict(errors)
    entries = []
    for i in range(len(outs), len(items)):
        failures[i] = "not run within the time limit"
    for i, out in enumerate(outs):
        if i in failures:
            entries.append(None)
            continue
        if perf_counter() > deadline:
            failures[i] = "not checked within the time limit"
            entries.append(None)
            continue
        entry = None
        try:
            entry = workload.golden(lib, items[i], out)
            if expected is not None and i < len(expected) \
                    and entry != expected[i]:
                reason = f"output {entry} differs from expected {expected[i]}"
            else:
                reason = workload.check(lib, items[i], out)
        except Exception as exc:  # a crashing check is a failed item
            reason = f"check raised {exc!r}"
        entries.append(entry)
        if reason:
            failures[i] = reason
    return failures, entries


def tail_latency(latencies):
    """(value, percentile, samples beyond): the highest ladder percentile
    with at least ten samples beyond it, by nearest rank."""
    ordered = sorted(latencies)
    n = len(ordered)
    fitting = [p for p in TAIL_LADDER if n - math.ceil(p / 100 * n) >= 10]
    pct = fitting[-1] if fitting else 100
    rank = max(1, math.ceil(pct / 100 * n))
    return ordered[rank - 1], pct, n - rank


def end_to_end(setup_s, latencies):
    """The end-to-end metrics from the set-up time and per-item seconds."""
    tail, pct, beyond = tail_latency(latencies)
    metrics = {
        "setup_s": setup_s,
        "throughput_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    note = f"p{pct} of {len(latencies)} samples, {beyond} beyond it"
    return metrics, note


def per_layer(workload, lib, tracer, outs, audit_before, untraced, traced):
    metrics = tracer.layer_metrics()
    audit = getattr(lib.rewrite, "search_audit", [])[audit_before:]
    metrics["rewrite.searches"] = len(audit)
    metrics["rewrite.states_visited"] = sum(v for _size, v in audit)
    hit, different = workload.distinguished(outs)
    metrics["oracle.distinguished_ratio"] = hit / different if different else 0.0
    metrics["tracing.overhead_s"] = traced - untraced
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = perf_counter() + TIME_LIMIT_S
    # A single item can run for minutes (see README); the alarm interrupts
    # it, so the run still ends, with that item and the rest failed.
    signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path.insert(0, str(SRC))
    try:
        load_library()
    except ImportError as exc:
        print(f"error: cannot import ccseed from {SRC}: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    n = item_count(workload, args.seconds)
    lib, items, setup_s, setup_wall = set_up(workload, args.seed, n)
    first = res = timed_pass(workload, lib, items, deadline)
    metrics, tail_note = end_to_end(setup_s, first.latencies)
    unscaled, _ = end_to_end(setup_wall, first.wall)
    wall = sum(first.latencies)

    if args.trace:
        untraced_entries = golden_entries(workload, lib, items, first.outs)
        lib = load_library()
        items = workload.generate(lib, random.Random(args.seed), n)
        gc.collect()
        tracer = Tracer()
        audit_before = len(getattr(lib.rewrite, "search_audit", []))
        tracer.install(lib)
        try:
            res = timed_pass(workload, lib, items, deadline, tracer)
        finally:
            tracer.uninstall()
        traced_wall = sum(res.latencies)
        metrics = per_layer(workload, lib, tracer, res.outs, audit_before,
                            wall, traced_wall)
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write_spans(spans)

    expected, expected_path = load_expected(workload, args.seed)
    failures, entries = verify(workload, lib, items, res.outs, res.errors,
                               expected, deadline)
    signal.setitimer(signal.ITIMER_REAL, 0)
    if args.trace:
        for i, reason in first.errors.items():
            failures.setdefault(i, f"untraced pass: {reason}")
        for i, (a, b) in enumerate(zip(untraced_entries, entries)):
            if a is not None and b is not None and a != b:
                failures.setdefault(i, f"traced output {b} differs from "
                                       f"untraced output {a}")

    print(f"workload {workload.name}  seed {args.seed}  items {n}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print(f"  host speed: reference task took {first.reference_ms:.3f} ms "
          f"(median), nominal {NOMINAL_S * 1e3:g} ms; times below are scaled "
          "to the nominal speed")
    if args.trace:
        print(f"  untraced {wall:.3f} s, traced {traced_wall:.3f} s (scaled),"
              f" {len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")
    units = {m["name"]: m["unit"] for m in wanted}
    for name, unit in units.items():
        value = metrics[name]
        shown = f"{value}" if isinstance(value, int) else f"{value:.6g}"
        note = f"  ({tail_note})" if name == "latency_tail_ms" else ""
        if name in unscaled and name != "peak_rss_mib":
            note += f"  (unscaled {unscaled[name]:.6g})"
        print(f"  {name:38s} {shown} {unit}{note}")
    print(f"  {'failed_ratio':38s} {len(failures) / n:.6g} ratio  "
          f"({len(failures)} of {n} items)")
    if res.outs:
        props = workload.properties(lib, items[:len(res.outs)], res.outs)
        print("inputs: " + json.dumps(props, sort_keys=True))
    if expected is None:
        print(f"expected outputs: none for seed {args.seed}; "
              "independent checks only")
    else:
        print(f"expected outputs: {min(len(expected), len(res.outs))} of {n} "
              f"items compared with {expected_path.relative_to(ROOT)}")
    for i in sorted(failures)[:10]:
        print(f"FAILED item {i}: {failures[i]}")

    result = {
        "correct": not failures,
        "attempted": n,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
