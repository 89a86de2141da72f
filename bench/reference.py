"""The reference loop that end-to-end times are counted in.

It imports nothing from ``hopftrees``.  One call does a fixed amount of the
kinds of interpreter work the library does: exact rational arithmetic merged
into a dict and sorted by a text key, canonicalising small trees of nested
tuples by sorting children on their text encodings, and plain integer
arithmetic.  On this kind of shared machine the interpreter's speed moves by
up to 1.8x from one second to the next; this mix slows and speeds up with it
in the same proportion as the workloads do (a loop of only the first part
read 2-3% high whenever the machine was fast).

The cyclic garbage collector is paused while a call runs, so garbage the
program left behind is neither collected on its time nor able to speed it up.
A call frees everything it allocates, so it leaves the collector's counts as
it found them.
"""

from __future__ import annotations

import gc
import random
import time
from fractions import Fraction


def _random_tree(rng: random.Random, nodes: int) -> tuple:
    kids: list[list[int]] = [[] for _ in range(nodes)]
    for k in range(1, nodes):
        kids[rng.randrange(k)].append(k)

    def build(k: int) -> tuple:
        return tuple(build(c) for c in kids[k])

    return build(0)


_TREES = [_random_tree(random.Random(5), 8) for _ in range(40)]


def _encode(t: tuple) -> str:
    return "(" + "".join(_encode(c) for c in t) + ")"


def _canonical(t: tuple) -> tuple:
    return tuple(sorted((_canonical(c) for c in t), key=_encode))


def reference_work() -> int:
    acc: dict = {}
    for i in range(100):
        key = (i % 7, (i % 11, (i % 3,)))
        acc[key] = acc.get(key, 0) + Fraction(i % 5 + 1, i % 4 + 1)
    merged = sorted(acc.items(), key=lambda kv: repr(kv[0]))
    shapes: dict = {}
    for t in _TREES:
        c = _canonical(t)
        shapes[c] = shapes.get(c, 0) + 1
    total = 0
    for i in range(8000):
        total += i * i % 7
    return len(merged) + len(shapes) + total


def timed_reference() -> float:
    """Seconds taken by one reference call, with the cyclic collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
