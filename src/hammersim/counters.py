"""Per-row counter storage and the counter-subarray (CSA) models.

Two counting disciplines share one store:

* aggressor counting — an activation increments the activated row's own
  counter (read-modify-write inside the row cycle);
* victim counting — an activation *resets* the activated row's counter and
  increments the counters of its neighbors within the blast radius, clipped
  to the row's subarray.

`AGGRESSOR_COUNT`, `VICTIM_COUNT` and `NO_COUNT` (count nothing) are the
kernel's codes and the package's one name for a discipline.

`CounterBank` holds one bank's counters in a kernel `CounterCore`, which
exists in two interchangeable builds (compiled and pure Python); see
`kernel`.  `neighbour_offsets` is the victim rule for everything outside
the kernel; `tests/test_kernel.py` ties the kernel's own copy to it.
The rest of the module models the counter subarray (CSA): its layouts,
its access timings, the latency of one counter update and how many CSA
row cycles an ACT or a REF costs, which `energy` charges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, NamedTuple, Sequence, Tuple

from .dram import DeviceGeometry
from .kernel import (AGGRESSOR as AGGRESSOR_COUNT, NONE as NO_COUNT,
                     VICTIM as VICTIM_COUNT, CounterCore)
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


@dataclass(frozen=True)
class CsaLayout:
    kind: str = "OptimizedDualCsa"  # InDsaRow | NaiveCsa | OptimizedDualCsa
    chunk_rows: int = 128

    def __post_init__(self) -> None:
        if self.kind not in ("InDsaRow", "NaiveCsa", "OptimizedDualCsa"):
            raise ValueError(f"unknown CSA layout kind {self.kind!r}")


@dataclass(frozen=True)
class CsaTiming:
    """Counter-subarray access timings plus the counter-update step, ps."""

    tRCD_csa: int = ns(7.6)
    tRAS_csa: int = ns(16.7)
    tRP_csa: int = ns(4.1)
    tWR_csa: int = ns(19.2)
    tUP: int = ns(0.83)

    def __post_init__(self) -> None:
        for name in ("tRCD_csa", "tRAS_csa", "tRP_csa", "tWR_csa", "tUP"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


class CounterBank:
    """Counters for one bank: the kernel's `CounterCore` plus the reads
    the engine and the CLI make of it."""

    def __init__(self, geometry: DeviceGeometry) -> None:
        self.geometry = geometry
        self.core = CounterCore(
            geometry.rows_per_bank, geometry.rows_per_dsa,
            geometry.blast_radius, geometry.counter_cap,
        )

    def get(self, row: int) -> int:
        return self.core.get(row)

    def snapshot(self) -> List[int]:
        return self.core.snapshot()

    def apply_activation(self, row: int, semantics: int
                         ) -> List[Tuple[int, int]]:
        """Apply one activation; returns the changed (row, count) entries."""
        if not 0 <= row < self.geometry.rows_per_bank:
            raise ValueError(f"row {row} outside bank")
        return self.core.act(row, semantics)


def counter_update_latency(timing: CsaTiming, blast_radius: int) -> int:
    """Latency (ps) of one in-CSA counter update for an activation.

    One CSA activation covers the activated row's counter and the 2*BR
    neighbor counters, updated serially after tRCD, then written back:
    tRCD + (2*BR + 1) * tUP + tWR + tRP.
    """
    if blast_radius < 1:
        raise ValueError("blast_radius must be >= 1")
    updates = 2 * blast_radius + 1
    return (timing.tRCD_csa + updates * timing.tUP
            + timing.tWR_csa + timing.tRP_csa)


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

    tRCD, tWR and tRP are the `CsaTiming` steps grown per doubling;
    `update_ns` is the 2*BR + 1 shrunk update steps.  `scaled_total_ns`
    adds the update steps to the calibrated short-CSA access component,
    and `share` is that component's part of it.
    """

    tRCD_ns: float
    update_ns: float
    tWR_ns: float
    tRP_ns: float
    scaled_total_ns: float
    share: float

    @property
    def total_ns(self) -> float:
        """tRCD + update + tWR + tRP."""
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
    timing = CsaTiming()
    grow = CSA_COMPONENT_GROWTH ** doublings
    upd = ((2 * blast_radius + 1) * to_ns(timing.tUP)
           * CSA_UPDATE_SHRINK ** doublings)
    csa = CSA_COMPONENT_64K_NS * grow
    total = csa + upd
    return CsaLatency(to_ns(timing.tRCD_csa) * grow, upd,
                      to_ns(timing.tWR_csa) * grow,
                      to_ns(timing.tRP_csa) * grow, total, csa / total)


def _spans_chunk_boundary(row: int, geometry: DeviceGeometry,
                          layout: CsaLayout) -> bool:
    group = [row] + victim_set(row, geometry)
    chunks = {r // layout.chunk_rows for r in group}
    return len(chunks) > 1


def csa_activations_for_event(layout: CsaLayout, event: str,
                              geometry: DeviceGeometry,
                              row: int | None = None,
                              rows: Sequence[int] | None = None) -> int:
    """CSA row activations needed to service one DSA event.

    event == "NormalAct": single CSA activation, except in the optimized
    dual layout when the activated row's counter group straddles a 128-row
    chunk boundary (two activations, one per subarray, issued in parallel).

    event == "Refresh": the naive layout updates each refreshed row's
    counter with its own CSA row cycle; the optimized layout packs the
    whole refresh group's counters into a single CSA row and pays one.
    """
    if layout.kind == "InDsaRow":
        # Counters live in the data subarray itself; no CSA involved.
        return 0
    if event == "NormalAct":
        if row is None:
            raise ValueError("NormalAct needs a row")
        if layout.kind == "NaiveCsa":
            return 1
        return 2 if _spans_chunk_boundary(row, geometry, layout) else 1
    if event == "Refresh":
        if rows is None:
            raise ValueError("Refresh needs the refreshed rows")
        if layout.kind == "NaiveCsa":
            return len(rows)
        return 1
    raise ValueError(f"unknown CSA event {event!r}")


def dual_activation_rows(geometry: DeviceGeometry,
                         layout: CsaLayout) -> List[int]:
    """All rows of one DSA whose update needs both subarrays (optimized
    layout).  Exhaustive enumeration used by tests and docs."""
    return [r for r in range(geometry.rows_per_dsa)
            if _spans_chunk_boundary(r, geometry, layout)]
