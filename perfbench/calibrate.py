"""A fixed calibration kernel that tracks the shared host's speed.

The benchmark's host is a few vCPUs of a shared machine whose speed
drifts by 20-40% over minutes, and by 2x over hours, with no change to
the code.  A run therefore times this kernel again and again between
its measurements and scales its time metrics to a nominal host speed::

    scaled = raw * NOMINAL_S / median(kernel times of this run)

The kernel does the kind of work the verifier does -- small objects,
tuples and strings allocated and dropped, dict lookups, recursive
Python calls and a sort -- so a neighbour that slows the verifier (a
busy sibling hyperthread, a shared cache being thrashed) slows it
alike; a tight arithmetic loop tracks the verifier less well.  It uses
nothing from ``repro``, so no change to the program can move it.

A single kernel time is as noisy as the host (+-20%); only the median
of many, taken all through the run, is steady enough to scale by.
"""

from __future__ import annotations

import statistics
import time
from random import Random

#: kernel seconds the scaled metrics are expressed against; about one
#: kernel run on the reference host (2-vCPU shared VM, Python 3.11)
NOMINAL_S = 0.03


class _Node:
    __slots__ = ("key", "left", "right")

    def __init__(self, key, left, right):
        self.key = key
        self.left = left
        self.right = right


def _build(rng: Random, depth: int) -> _Node | None:
    if depth == 0:
        return None
    return _Node(f"k{rng.randrange(1 << 20)}", _build(rng, depth - 1),
                 _build(rng, depth - 1))


def _walk(node: _Node | None, seen: dict) -> int:
    if node is None:
        return 0
    seen[node.key] = seen.get(node.key, 0) + 1
    return 1 + _walk(node.left, seen) + _walk(node.right, seen)


def kernel() -> float:
    """Wall seconds of one fixed unit of verifier-like work."""
    start = time.perf_counter()
    rng = Random(20130616)
    table = {}
    for i in range(12_000):
        table[(rng.random(), i)] = [i, str(i)]
    total = sum(table[key][0] for key in sorted(table)[::3])
    seen: dict = {}
    total += _walk(_build(rng, 12), seen) + len(seen)
    if total <= 0:
        raise AssertionError("calibration kernel computed nothing")
    return time.perf_counter() - start


class Calibration:
    """Kernel times taken through one run, and the scale they give."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, count: int = 1) -> None:
        self.samples += [kernel() for _ in range(count)]

    def median_s(self) -> float:
        return statistics.median(self.samples)

    def scale(self) -> float:
        """Multiply a raw time by this (divide a rate by it)."""
        return NOMINAL_S / self.median_s()
