"""Per-row counter storage and the counter-subarray (CSA) models.

Two counting disciplines share one store:

* aggressor counting — an activation increments the activated row's own
  counter (read-modify-write inside the row cycle);
* victim counting — an activation *resets* the activated row's counter and
  increments the counters of its neighbors within the blast radius, clipped
  to the row's subarray.

`AGGRESSOR_COUNT` and `VICTIM_COUNT` are the kernel's two codes and the
package's one name for a discipline.

`CounterBank` holds one bank's counters in a kernel `CounterCore`, which
exists in two interchangeable builds (compiled and pure Python; see
`kernel`); its readers read `bank.core`.  `neighbour_offsets` is the
victim rule for everything outside the kernel; `tests/test_kernel.py`
ties the kernel's own copy to it.
The rest of the module models the counter subarray (CSA): its access
timings (the `CSA_T*` constants, integer ps), the latency of one
counter update (`csa_scaled_latency`) and its layouts.  `CsaLayout` is
the one home of the CSA cost rule: how many CSA row cycles an ACT or a
REF batch costs, which `energy` charges at one cost per cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, NamedTuple, Tuple

from .dram import DeviceGeometry
from .kernel import (AGGRESSOR as AGGRESSOR_COUNT, VICTIM as VICTIM_COUNT,
                     CounterCore)
from .units import ns, to_ns


@lru_cache(maxsize=None)
def neighbour_offsets(geometry: DeviceGeometry) -> Tuple[Tuple[int, ...], ...]:
    """Victim offsets of a row, indexed by the row's place in its subarray.

    A row's victims are the rows within blast_radius, nearest first on
    each side (-1, +1, -2, +2, ...).  Disturbance does not cross subarray
    boundaries, so offsets that leave the row's DSA are dropped.  Built
    once per geometry and shared; interior places share one tuple.
    """
    dsa, br = geometry.rows_per_dsa, geometry.blast_radius
    inner = tuple(s * d for d in range(1, br + 1) for s in (-1, 1))
    edges = {p: tuple(o for o in inner if 0 <= p + o < dsa)
             for p in (*range(br), *range(dsa - br, dsa))}
    return tuple(edges.get(p, inner) for p in range(dsa))


def victim_set(row: int, geometry: DeviceGeometry) -> List[int]:
    """Rows within blast_radius of `row` inside the same subarray, sorted."""
    offsets = neighbour_offsets(geometry)[row % geometry.rows_per_dsa]
    return sorted(row + o for o in offsets)


# Counter-subarray access timings and the per-counter update step, ps.
CSA_TRCD = ns(7.6)
CSA_TRAS = ns(16.7)
CSA_TRP = ns(4.1)
CSA_TWR = ns(19.2)
CSA_TUP = ns(0.83)

#: Rows per CSA chunk.  A counter group that straddles a chunk boundary
#: costs the optimized dual layout two CSA activations, one per subarray.
CSA_CHUNK_ROWS = 128


@dataclass(frozen=True)
class CsaLayout:
    """Where the counters live, and the CSA row cycles each event costs.

    InDsaRow keeps the counters in the data subarray: no CSA cycle.
    NaiveCsa pays one cycle per counted activation and one per refreshed
    row.  OptimizedDualCsa pays one half-size cycle per counted
    activation (two, issued in parallel, when the counter group straddles
    a chunk boundary) and packs a whole refresh batch into one cycle.
    """

    kind: str = "OptimizedDualCsa"  # InDsaRow | NaiveCsa | OptimizedDualCsa

    def __post_init__(self) -> None:
        if self.kind not in ("InDsaRow", "NaiveCsa", "OptimizedDualCsa"):
            raise ValueError(f"unknown CSA layout kind {self.kind!r}")

    def act_cycles(self, row: int, geometry: DeviceGeometry) -> int:
        """CSA row cycles to count one activation of `row`.

        The counter group is the row and its victims, clipped to the
        row's subarray; it spans two chunks when its lowest and highest
        rows fall in different ones.
        """
        if self.kind == "InDsaRow":
            return 0
        if self.kind == "NaiveCsa":
            return 1
        group = (0, *neighbour_offsets(geometry)[row % geometry.rows_per_dsa])
        lo, hi = row + min(group), row + max(group)
        return 2 if lo // CSA_CHUNK_ROWS != hi // CSA_CHUNK_ROWS else 1

    def ref_cycles(self, n_rows: int) -> int:
        """CSA row cycles to update the counters of a refresh batch of
        `n_rows` rows."""
        if self.kind == "InDsaRow":
            return 0
        return n_rows if self.kind == "NaiveCsa" else 1


class CounterBank:
    """Counters for one bank: `core`, the kernel's `CounterCore` sized
    from `geometry`, looked up in this module when the bank is built."""

    def __init__(self, geometry: DeviceGeometry) -> None:
        self.geometry = geometry
        self.core = CounterCore(
            geometry.rows_per_bank, geometry.rows_per_dsa,
            geometry.blast_radius, geometry.counter_cap,
        )

    def apply_activation(self, row: int, semantics: int
                         ) -> List[Tuple[int, int]]:
        """Apply one activation; returns the changed (row, count) entries."""
        if not 0 <= row < self.geometry.rows_per_bank:
            raise ValueError(f"row {row} outside bank")
        return self.core.act(row, semantics)


# Scaling model for banks bigger than the 64K-row baseline.  The
# short-CSA access component starts from the 32-row dual-CSA figure and
# grows per doubling of bank rows; the update step shrinks slightly as the
# synthesized logic is re-balanced.  Constants are calibrated against the
# target component shares (91.6 / 92.0 / 92.8 % at BR=1).
CSA_COMPONENT_64K_NS = 27.155
CSA_COMPONENT_GROWTH = 1.08707
CSA_UPDATE_SHRINK = 0.87880


class CsaLatency(NamedTuple):
    """One counter update at a bank size and blast radius, in ns.

    tRCD, tWR and tRP are `CSA_TRCD`, `CSA_TWR` and `CSA_TRP` grown per
    doubling; `update_ns` is the 2*BR + 1 shrunk `CSA_TUP` steps.
    `scaled_total_ns` adds the update steps to the calibrated short-CSA
    access component, and `share` is that component's part of it.
    """

    tRCD_ns: float
    update_ns: float
    tWR_ns: float
    tRP_ns: float
    scaled_total_ns: float
    share: float

    @property
    def total_ns(self) -> float:
        """tRCD + update + tWR + tRP: one in-CSA counter update, whose
        2*BR + 1 counters are updated serially after tRCD and then
        written back."""
        return self.tRCD_ns + self.update_ns + self.tWR_ns + self.tRP_ns


def csa_scaled_latency(rows_per_bank: int, blast_radius: int) -> CsaLatency:
    """The counter-update components for a bank of `rows_per_bank` rows.

    Valid for rows_per_bank in {64K, 128K, 256K}; the model extrapolates
    geometrically for other powers of two.
    """
    if blast_radius < 1:
        raise ValueError("blast_radius must be >= 1")
    if rows_per_bank < 65536 or rows_per_bank % 65536 != 0:
        raise ValueError("rows_per_bank must be a multiple of 65536")
    doublings = (rows_per_bank // 65536).bit_length() - 1
    if 65536 << doublings != rows_per_bank:
        raise ValueError("rows_per_bank must be a power-of-two multiple")
    grow = CSA_COMPONENT_GROWTH ** doublings
    upd = ((2 * blast_radius + 1) * to_ns(CSA_TUP)
           * CSA_UPDATE_SHRINK ** doublings)
    csa = CSA_COMPONENT_64K_NS * grow
    total = csa + upd
    return CsaLatency(to_ns(CSA_TRCD) * grow, upd, to_ns(CSA_TWR) * grow,
                      to_ns(CSA_TRP) * grow, total, csa / total)


def dual_activation_rows(geometry: DeviceGeometry) -> List[int]:
    """All rows of one DSA whose update needs both subarrays (optimized
    layout).  Exhaustive enumeration used by tests and docs."""
    layout = CsaLayout("OptimizedDualCsa")
    return [r for r in range(geometry.rows_per_dsa)
            if layout.act_cycles(r, geometry) == 2]
