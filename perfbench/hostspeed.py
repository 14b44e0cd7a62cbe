"""Host-speed calibration for the benchmark's timings.

On a shared host the CPU speed itself changes: a fixed pure-Python loop
runs up to 1.5x slower for a minute or two and then recovers, and the
process's CPU time tracks its wall time, so the slowdown is not time
spent descheduled.  Each timing is therefore taken next to `calibrate()`
and reported scaled to a host on which that loop takes REFERENCE_S
seconds; the raw seconds are printed alongside.
"""

from __future__ import annotations

import time

# The loop's median time on the 2-core Intel Xeon host the reference
# figures in NOTES.md were taken on.
REFERENCE_S = 0.25

_ROUNDS = 750_000


def _work() -> int:
    table: dict = {}
    ring = [0] * 64
    total = 0
    for i in range(_ROUNDS):
        key = (i * 7919) & 1023
        table[key] = table.get(key, 0) + 1
        ring[i & 63] = ring[(i + 1) & 63] + key
        total += len(ring)
    return total


def calibrate() -> float:
    """Seconds a fixed CPU-bound Python loop takes right now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def scaled(seconds: float, calibration_s: float) -> float:
    """`seconds` as it would read on the reference host."""
    return seconds * REFERENCE_S / calibration_s
