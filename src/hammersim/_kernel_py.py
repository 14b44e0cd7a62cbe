"""Pure-Python build of the hot kernels, and the reference for the
compiled one.

Same classes and behavior as `_kernel.c`, the hand-written C extension;
`kernel` uses this one when the compiled build does not import.  A
change to the kernel edits both files together, and the parity tests in
`tests/test_kernel.py` and the golden digests tie the two.  Kept free of
any package-internal imports so it can be exercised standalone in tests.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, insort
from typing import Dict, List, Optional, Tuple

KERNEL_BUILD = "python"

AGGRESSOR = 0
VICTIM = 1
NONE = 2


class CounterCore:
    """Saturating per-row activation counters for one bank.

    Rows are grouped into subarrays of `dsa_rows`; victim-side updates
    never cross a subarray edge.  `_below[p]` and `_above[p]` hold the
    offsets of the neighbours of a row at place `p` of its subarray, in
    row order and clipped at the edges, so a victim ACT walks
    below, self, above with no per-call bounds arithmetic.  Interior
    places share one tuple; only the `br` places at each edge get their
    own.  The full-bank scans `max_count` and `argmax` serve tests and
    tools; the engine makes none.
    """

    __slots__ = ("n_rows", "dsa_rows", "br", "cap", "_c", "_below",
                 "_above")

    def __init__(self, n_rows: int, dsa_rows: int, br: int, cap: int) -> None:
        if n_rows <= 0 or dsa_rows <= 0 or n_rows % dsa_rows != 0:
            raise ValueError("n_rows must be a positive multiple of dsa_rows")
        if br < 1 or cap < 1:
            raise ValueError("br and cap must be >= 1")
        self.n_rows = n_rows
        self.dsa_rows = dsa_rows
        self.br = br
        self.cap = cap
        self._c = array("L", [0]) * n_rows
        below = [tuple(range(-br, 0))] * dsa_rows
        above = [tuple(range(1, br + 1))] * dsa_rows
        for p in range(min(br, dsa_rows)):
            below[p] = tuple(range(-p, 0))
        for p in range(max(0, dsa_rows - br), dsa_rows):
            above[p] = tuple(range(1, dsa_rows - p))
        self._below = below
        self._above = above

    def act(self, row: int, sem: int) -> List[Tuple[int, int]]:
        """Apply one activation of `row`; return rows whose count changed."""
        c = self._c
        if sem == AGGRESSOR:
            v = c[row]
            if v < self.cap:
                c[row] = v + 1
                return [(row, v + 1)]
            return []
        changed: List[Tuple[int, int]] = []
        if sem == NONE:
            return changed
        # VICTIM: bump in-subarray neighbors and reset self, in row order.
        cap = self.cap
        place = row % self.dsa_rows
        for o in self._below[place]:
            n = row + o
            v = c[n]
            if v < cap:
                c[n] = v + 1
                changed.append((n, v + 1))
        if c[row]:
            c[row] = 0
            changed.append((row, 0))
        for o in self._above[place]:
            n = row + o
            v = c[n]
            if v < cap:
                c[n] = v + 1
                changed.append((n, v + 1))
        return changed

    def get(self, row: int) -> int:
        return self._c[row]

    def reset(self, row: int) -> int:
        old = self._c[row]
        self._c[row] = 0
        return old

    def fill(self, value: int) -> None:
        if not 0 <= value <= self.cap:
            raise ValueError("fill value outside [0, cap]")
        for i in range(self.n_rows):
            self._c[i] = value

    def load(self, values) -> None:
        if len(values) != self.n_rows:
            raise ValueError("length mismatch")
        for i, v in enumerate(values):
            if not 0 <= v <= self.cap:
                raise ValueError("value outside [0, cap]")
            self._c[i] = v

    def snapshot(self) -> List[int]:
        return list(self._c)

    def max_count(self) -> int:
        return max(self._c)

    def argmax(self) -> int:
        """Lowest row index holding the maximum count."""
        c = self._c
        return c.index(max(c))


class TopQueue:
    """Fixed-depth queue of the highest-count rows seen so far.

    Insert-or-update: a row already present just has its count rewritten.
    A new row lands in a free slot, or, when full, displaces the current
    minimum only if its count is strictly larger; among equal minima the
    higher-numbered row is displaced first (the lower row is retained).
    `pop_max` yields count-descending, row-ascending.

    A `row -> count` dict answers membership, and `_keys` holds one
    `(count, -row)` key per row in ascending order, so `_keys[0]` is the
    eviction candidate and `_keys[-1]` is what `pop_max` returns.
    """

    __slots__ = ("depth", "_counts", "_keys")

    def __init__(self, depth: int) -> None:
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.depth = depth
        self._counts: Dict[int, int] = {}
        self._keys: List[Tuple[int, int]] = []

    def __len__(self) -> int:
        return len(self._keys)

    def update(self, row: int, count: int) -> int:
        """Returns the evicted row, -1 if none, -2 if rejected."""
        counts = self._counts
        keys = self._keys
        old = counts.get(row)
        evicted = -1
        if old is not None:
            del keys[bisect_left(keys, (old, -row))]
        elif len(keys) == self.depth:
            low_count, low_neg_row = keys[0]
            if count <= low_count:
                return -2
            del keys[0]
            evicted = -low_neg_row
            del counts[evicted]
        counts[row] = count
        insort(keys, (count, -row))
        return evicted

    def remove(self, row: int) -> bool:
        count = self._counts.pop(row, None)
        if count is None:
            return False
        keys = self._keys
        del keys[bisect_left(keys, (count, -row))]
        return True

    def pop_max(self) -> Optional[Tuple[int, int]]:
        if not self._keys:
            return None
        count, neg_row = self._keys.pop()
        del self._counts[-neg_row]
        return -neg_row, count

    def peek_max_count(self) -> int:
        return self._keys[-1][0] if self._keys else -1

    def min_count(self) -> int:
        return self._keys[0][0] if self._keys else -1

    def items(self) -> List[Tuple[int, int]]:
        return [(-neg_row, count) for count, neg_row in reversed(self._keys)]
