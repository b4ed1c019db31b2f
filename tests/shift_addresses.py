"""A pytest plugin that moves the objects each test allocates.

Terms hash by identity, so a set of terms iterates in the order of their
addresses, which no hash seed fixes.  Before each test this plugin fills
the small-object size classes that terms fall in (48 to 112 bytes) with
a few thousand tuples and frees every other one: the test's first
objects land in the holes left, in reverse order and two blocks apart,
instead of where they would land without it.  Run from the repository
root as

    PYTHONPATH=src:tests python -m pytest -p shift_addresses ...
"""

_HELD = []  # the kept half of the last shift's tuples


def shift() -> None:
    """Interleave live and freed blocks in the 48- to 112-byte classes."""
    made = [tuple(range(n)) for n in range(1, 10) for _ in range(1000)]
    _HELD[:] = made[::2]


def pytest_runtest_setup(item):
    shift()
