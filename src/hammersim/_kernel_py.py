"""Pure-Python build of the hot kernels, and the reference for the
compiled one.

Same codes (`AGGRESSOR`, `VICTIM`), classes and behavior as `_kernel.c`,
the hand-written C extension; `kernel` uses this one when the compiled
build does not import.  A change to the kernel edits both files
together, and the parity tests in `tests/test_kernel.py` and the golden
digests tie the two.  Kept free of any package-internal imports so it
can be exercised standalone in tests.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from operator import index
from typing import Dict, List, Optional, Tuple

KERNEL_BUILD = "python"

AGGRESSOR = 0
VICTIM = 1

# A queue key's low 64 bits hold `_ROW_TOP - row`; the `_OPEN` floor lies
# below every count a C `long` holds.
_ROW_TOP = (1 << 63) - 1
_ROW_MASK = (1 << 64) - 1
_OPEN = -(1 << 63) - 1


class CounterCore:
    """Saturating per-row activation counters for one bank.

    `act` counts one activation under one of the two disciplines,
    `AGGRESSOR` or `VICTIM`; any other int code raises `ValueError` and
    any other code `TypeError`, whatever the row, before any counter
    moves.  A negative row raises `IndexError` instead of indexing from
    the end of the list.

    `_c` is a plain list of ints, one per row.  Reading a list element
    hands back the stored int, where an `array` would box a new one.
    CPython shares the ints up to 256, so a row at such a count costs one
    8-byte slot, as in an `array("L")`; a larger count adds its own int
    object.  `cap` must fit in 32 bits, as the compiled build's counters do.

    Rows are grouped into subarrays of `dsa_rows`; victim-side updates
    never cross a subarray edge.  `_below[p]` and `_above[p]` hold the
    offsets of the neighbours of a row at place `p` of its subarray, in
    row order and clipped at the edges, so a victim ACT walks
    below, self, above with no per-call bounds arithmetic.  Interior
    places share one tuple; only the `br` places at each edge get their
    own.  The full-bank scans `max_count` and `argmax` serve tests and
    tools; the engine makes none.
    """

    __slots__ = ("_dsa_rows", "_cap", "_c", "_below", "_above")

    def __init__(self, n_rows: int, dsa_rows: int, br: int, cap: int) -> None:
        if n_rows <= 0 or dsa_rows <= 0 or n_rows % dsa_rows != 0:
            raise ValueError("n_rows must be a positive multiple of dsa_rows")
        if br < 1 or cap < 1:
            raise ValueError("br and cap must be >= 1")
        if cap > 0xFFFFFFFF:
            raise OverflowError("cap does not fit in 32 bits")
        self._dsa_rows = dsa_rows
        self._cap = cap
        self._c = [0] * n_rows
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
        if sem is AGGRESSOR:
            if row < 0:
                raise IndexError("row out of range")
            v = c[row]
            if v < self._cap:
                c[row] = v + 1
                return [(row, v + 1)]
            return []
        if sem is not VICTIM:
            # A code that is not one of the two int objects: a non-int
            # raises TypeError, as in the compiled build.
            code = index(sem)
            if code != AGGRESSOR and code != VICTIM:
                raise ValueError(f"unknown counting code {sem}")
            return self.act(row, AGGRESSOR if code == AGGRESSOR else VICTIM)
        if row < 0:
            raise IndexError("row out of range")
        # VICTIM: bump in-subarray neighbors and reset self, in row order.
        # A row past the bank fails at its first index, before any change.
        changed: List[Tuple[int, int]] = []
        cap = self._cap
        place = row % self._dsa_rows
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
        if row < 0:
            raise IndexError("row out of range")
        return self._c[row]

    def reset(self, row: int) -> int:
        if row < 0:
            raise IndexError("row out of range")
        old = self._c[row]
        self._c[row] = 0
        return old

    def load(self, values) -> None:
        c = self._c
        if len(values) != len(c):
            raise ValueError("length mismatch")
        for i, v in enumerate(values):
            v = index(v)
            if not 0 <= v <= self._cap:
                raise ValueError("value outside [0, cap]")
            c[i] = v

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

    Each queued row has one int key, `(count << 64) + (2**63 - 1 - row)`,
    which sorts as `(count, -row)` for every row and count a C `long`
    holds, as in the compiled build.  A `row -> key` dict answers
    membership, and `_keys` holds the keys in ascending order, so
    `_keys[0]` is the eviction candidate and `_keys[-1]` is what `pop_max`
    returns.  `_floor` is the minimum count while the queue is full and
    `_OPEN`, below every count, otherwise: a new row at or below it is
    rejected before any other work.  `remove` and `pop_max` leave the
    queue short, so they reset it to `_OPEN`.
    """

    __slots__ = ("_depth", "_key_of", "_keys", "_floor")

    def __init__(self, depth: int) -> None:
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self._depth = depth
        self._key_of: Dict[int, int] = {}
        self._keys: List[int] = []
        self._floor = _OPEN

    def __len__(self) -> int:
        return len(self._keys)

    def update(self, row: int, count: int) -> int:
        """Returns the evicted row, -1 if none, -2 if rejected."""
        key_of = self._key_of
        if count <= self._floor and row not in key_of:
            return -2
        keys = self._keys
        old = key_of.get(row)
        evicted = -1
        if old is not None:
            del keys[bisect_left(keys, old)]
        elif len(keys) == self._depth:
            evicted = _ROW_TOP - (keys.pop(0) & _ROW_MASK)
            del key_of[evicted]
        key = (count << 64) + (_ROW_TOP - row)
        key_of[row] = key
        insort(keys, key)
        if len(keys) == self._depth:
            self._floor = keys[0] >> 64
        return evicted

    def remove(self, row: int) -> bool:
        key = self._key_of.pop(row, None)
        if key is None:
            return False
        keys = self._keys
        del keys[bisect_left(keys, key)]
        self._floor = _OPEN
        return True

    def pop_max(self) -> Optional[Tuple[int, int]]:
        if not self._keys:
            return None
        key = self._keys.pop()
        row = _ROW_TOP - (key & _ROW_MASK)
        del self._key_of[row]
        self._floor = _OPEN
        return row, key >> 64

    def peek_max_count(self) -> int:
        return self._keys[-1] >> 64 if self._keys else -1

    def min_count(self) -> int:
        return self._keys[0] >> 64 if self._keys else -1

    def items(self) -> List[Tuple[int, int]]:
        return [(_ROW_TOP - (key & _ROW_MASK), key >> 64)
                for key in reversed(self._keys)]
