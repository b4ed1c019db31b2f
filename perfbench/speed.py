"""A fixed pure-Python reference task that gauges the host's current speed.

The machines this benchmark runs on share their cores, and their speed moves
by up to a half within a minute; the library and a plain loop slow down and
speed up largely together (the library's times move 0.7-0.9 times as much as
this task's).  Timing the library alone would mostly measure that drift.  So the runner interleaves this task
with the items and with the steps of set-up (one call per
``REFERENCE_EVERY_S`` of timed work) and scales each step's time by
``NOMINAL_S / the median reference time around it``: the figures it reports
are times on a host where this task takes ``NOMINAL_S``.

The task does the kind of work the library does (building, hashing, sorting
and memoising small tuples and frozensets) but uses no library code, so a
change to the library cannot change it.  The garbage collector is off while
it runs: it builds no cycles, and a collection would charge it the cost of
scanning the library's caches.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

NOMINAL_S = 0.0015         # the reference task's time on the baseline host
REFERENCE_EVERY_S = 0.05   # item time between two reference calls
WINDOW = 7                 # reference calls in the median around an item


def _canon(t, memo):
    if isinstance(t, int):
        return t
    got = memo.get(t)
    if got is None:
        got = tuple(sorted((_canon(c, memo) for c in t), key=hash))
        memo[t] = got
    return got


def _task() -> int:
    memo = {}
    seen = set()
    x = 12345
    for i in range(60):
        leaves = []
        for j in range(8):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            leaves.append((x % 5, (x >> 3) % 7, j % 3))
        tree = (tuple(leaves[:4]), tuple(leaves[4:]), (i % 4, (i, i % 3)))
        c = _canon(tree, memo)
        seen.add(frozenset(c))
    return len(seen) + len(memo)


def reference_time() -> float:
    """Seconds one reference task takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _task()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Gauge:
    """Reference times taken between timed steps, and the steps' times."""

    def __init__(self):
        self.times = []        # reference task seconds, in order
        self.after = []        # per step: reference calls made before it
        self.took = []         # per step: seconds
        self._since = 0.0

    def before_step(self):
        if not self.times or self._since >= REFERENCE_EVERY_S:
            self.times.append(reference_time())
            self._since = 0.0
        self.after.append(len(self.times))

    def step_took(self, seconds: float):
        self.took.append(seconds)
        self._since += seconds

    def time(self, fn, *args):
        """fn(*args), timed as one step."""
        self.before_step()
        t0 = perf_counter()
        out = fn(*args)
        self.step_took(perf_counter() - t0)
        return out

    def finish(self):
        self.times.append(reference_time())

    def scaled(self):
        """Per step: its seconds times NOMINAL_S / the median reference time
        around it.  Call after finish()."""
        half = WINDOW // 2
        local = []
        for j in range(len(self.times)):
            lo = max(0, min(j - half, len(self.times) - WINDOW))
            local.append(statistics.median(self.times[lo:lo + WINDOW]))
        # step k runs between reference calls after[k] - 1 and after[k]
        return [t * NOMINAL_S * 2 / (local[a - 1] + local[a])
                for t, a in zip(self.took, self.after)]

    def median_time(self) -> float:
        return statistics.median(self.times)
