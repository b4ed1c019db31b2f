"""Record the expected outputs for the default and the held-out seed.

    python3 perfbench/record_expected.py

Writes perfbench/expected/<workload>-seed<seed>.json for every workload, with
as many items as a run of BENCHMARK.json's run_seconds has.  Nothing is
written unless every output passes the independent checks.  Re-record only
in a change that is meant to alter outputs, and say so in that change.
"""

from __future__ import annotations

import json
import math
import random
import sys

import run
from workloads import WORKLOADS


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]
    sys.path.insert(0, str(run.SRC))
    recorded = {}
    for name, workload in WORKLOADS.items():
        n = run.item_count(workload, seconds)
        for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
            lib = run.load_library()
            items = workload.generate(lib, random.Random(seed), n)
            res = run.timed_pass(workload, lib, items, math.inf)
            failures, entries = run.verify(workload, lib, items, res.outs,
                                           res.errors, None, math.inf)
            if failures:
                i = min(failures)
                print(f"{name} seed {seed}: item {i} failed: {failures[i]}",
                      file=sys.stderr)
                return 1
            recorded[f"{name}-seed{seed}.json"] = (name, seed, entries)
            print(f"{name} seed {seed}: {len(entries)} items checked")
    run.EXPECTED.mkdir(exist_ok=True)
    for filename, (name, seed, entries) in recorded.items():
        with open(run.EXPECTED / filename, "w") as fh:
            fh.write(f'{{"workload": "{name}", "seed": {seed}, "items": [\n')
            fh.write(",\n".join(json.dumps(e) for e in entries))
            fh.write("\n]}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
