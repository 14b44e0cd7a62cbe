"""Latency-proportional energy accounting over engine event logs.

Absolute units are arbitrary; one row access at the default tRC (ACT+PRE,
48 ns) defines 1.0 energy unit, and every command charges its occupancy
x one per-ns coefficient: `dsa_per_ns` for the data subarray's ACTs,
REFs and RFMs, `csa_per_ns` for a counter-subarray (CSA) row cycle.
How many CSA cycles an event costs is the layout's rule
(`counters.CsaLayout`); what one cycle costs is `EnergyModel.csa_cycle`.
The CSA coefficient is calibrated so that the naive layout adds 20.1% of
an access per counted activation and the optimized dual layout adds
~19.8% on average (two half-size cycles on the 12-per-512 boundary
rows, one otherwise); refresh batches make the layouts diverge: one CSA
row cycle per refreshed row (naive) against a single packed cycle
(optimized).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .counters import (CSA_TRAS, CSA_TRP, CSA_TUP, CsaLayout,
                       dual_activation_rows)
from .dram import (DEFAULT_TRC_NS, RFM_NS, STANDARD_TRFC_NS, DeviceGeometry,
                   RefreshConfig, rows_per_refresh)
from .schemes import SchemeConfig
from .units import ns, to_ns

#: Calibration targets, as fractions of one normal access energy.
CSA_PER_ACCESS_NAIVE = 0.201
CSA_PER_ACCESS_OPTIMIZED = 0.198
CSA_PER_REF_NAIVE = 1.61
CSA_PER_REF_OPTIMIZED = 0.193

CLASSES = ("dsa_act", "ref", "rfm", "csa_act", "csa_update")


def _csa_cycle_ns(br: int) -> Tuple[float, float]:
    """(activation ns, update ns) of one full-size CSA row cycle."""
    return to_ns(CSA_TRAS + CSA_TRP), (2 * br + 1) * to_ns(CSA_TUP)


@dataclass(frozen=True)
class EnergyModel:
    """Per-ns energy coefficients of the data and the counter subarray.

    A CSA row cycle is an activation (tRAS + tRP) plus a 2*br + 1 step
    update pipeline.  half_csa_discount scales the activation component
    of a half-size (32-row) cycle, which the optimized dual layout uses,
    relative to the full 64-row cycle; the update component is
    size-independent.
    """

    dsa_per_ns: float
    csa_per_ns: float
    half_csa_discount: float
    br: int = 2

    def __post_init__(self) -> None:
        for name in ("dsa_per_ns", "csa_per_ns"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0 < self.half_csa_discount <= 1:
            raise ValueError("half_csa_discount must be in (0, 1]")

    def access_energy(self, tRC_ns: float) -> float:
        return tRC_ns * self.dsa_per_ns

    def csa_cycle(self, layout: CsaLayout) -> Tuple[float, float, float]:
        """(activation energy, update energy, occupancy ns) of one CSA
        row cycle under `layout`."""
        act_ns, upd_ns = _csa_cycle_ns(self.br)
        act = act_ns * self.csa_per_ns
        if layout.kind == "OptimizedDualCsa":
            act *= self.half_csa_discount
        return act, upd_ns * self.csa_per_ns, act_ns + upd_ns

    # -- calibration checks -------------------------------------------

    def per_access_csa_ratio(self, layout: CsaLayout,
                             geometry: DeviceGeometry) -> float:
        """Average CSA energy per counted activation, over one DSA's
        rows, as a fraction of a default-tRC access."""
        base = self.access_energy(DEFAULT_TRC_NS)
        act, upd, _occ = self.csa_cycle(layout)
        rows = geometry.rows_per_dsa
        cycles = sum(layout.act_cycles(r, geometry) for r in range(rows))
        return cycles * (act + upd) / rows / base

    def per_ref_csa_ratio(self, layout: CsaLayout,
                          geometry: DeviceGeometry) -> float:
        """CSA energy per default refresh batch as a fraction of one
        access."""
        base = self.access_energy(DEFAULT_TRC_NS)
        act, upd, _occ = self.csa_cycle(layout)
        cycles = layout.ref_cycles(rows_per_refresh(geometry,
                                                    RefreshConfig()))
        return cycles * (act + upd) / base


def default_energy_model(geometry: Optional[DeviceGeometry] = None
                         ) -> EnergyModel:
    """Coefficients derived from the calibration ratios.

    The CSA power level is set so a full row cycle plus its update
    pipeline costs exactly the naive per-access ratio; the half-size
    discount is then solved from the optimized per-access ratio after
    removing the boundary-row double activations.
    """
    geometry = geometry or DeviceGeometry()
    br = geometry.blast_radius
    # One default-tRC access defines the unit.
    per_ns = 1.0 / DEFAULT_TRC_NS
    act_ns, upd_ns = _csa_cycle_ns(br)
    csa_power = CSA_PER_ACCESS_NAIVE / (act_ns + upd_ns)
    dual = len(dual_activation_rows(geometry))
    rows = geometry.rows_per_dsa
    mult = (rows + dual) / rows  # avg CSA cycles per counted activation
    single = CSA_PER_ACCESS_OPTIMIZED / mult
    discount = (single - upd_ns * csa_power) / (act_ns * csa_power)
    return EnergyModel(dsa_per_ns=per_ns, csa_per_ns=csa_power,
                       half_csa_discount=discount, br=br)


@dataclass(frozen=True)
class EnergyReport:
    occupancy_ns: Dict[str, float]
    energy: Dict[str, float]
    total: float
    baseline: float
    normalized_total: float

    def to_csv_lines(self) -> List[str]:
        lines = ["class,occupancy_ns,energy,fraction_of_total"]
        for cls in CLASSES:
            occ = self.occupancy_ns.get(cls, 0.0)
            e = self.energy.get(cls, 0.0)
            frac = e / self.total if self.total else 0.0
            lines.append(f"{cls},{occ:.3f},{e:.6f},{frac:.6f}")
        lines.append(f"total,,{self.total:.6f},1.000000"
                     if self.total else "total,,0.000000,0.000000")
        lines.append(f"normalized_vs_baseline,,{self.normalized_total:.6f},")
        return lines


def energy_report(log: Iterable[Tuple[int, str, int, int]],
                  scheme: SchemeConfig,
                  layout: CsaLayout,
                  geometry: Optional[DeviceGeometry] = None,
                  refresh: Optional[RefreshConfig] = None) -> EnergyReport:
    """Per-class energy of an engine log, normalized against the same
    demand stream with mitigation disabled and the default tRC.

    The baseline charges each logged ACT at the default tRC and each REF
    at the standard tRFC, with no CSA or RFM work; the report's own
    classes use the scheme's tRC and the run's tRFC.  An RFM command (one
    log line per mitigated row, all at its issue time) is charged once;
    counter maintenance inside it is charged per logged mitigated row.
    """
    geometry = geometry or DeviceGeometry()
    refresh = refresh or RefreshConfig(tRFC=ns(scheme.tRFC_ns))
    model = default_energy_model(geometry)
    trc_ns = scheme.tRC_ns
    trfc_ns = to_ns(refresh.tRFC)
    ref_cycles = layout.ref_cycles(rows_per_refresh(geometry, refresh))
    cycle_act, cycle_upd, cycle_ns = model.csa_cycle(layout)
    occ = {cls: 0.0 for cls in CLASSES}
    nrg = {cls: 0.0 for cls in CLASSES}
    n_acts = 0
    n_refs = 0
    last_rfm = None
    for t, kind, row, _c in log:
        if kind == "ACT":
            n_acts += 1
            occ["dsa_act"] += trc_ns
            nrg["dsa_act"] += model.access_energy(trc_ns)
            cycles = layout.act_cycles(row, geometry)
        elif kind == "REF":
            n_refs += 1
            occ["ref"] += trfc_ns
            nrg["ref"] += trfc_ns * model.dsa_per_ns
            cycles = ref_cycles
        elif kind == "RFM":
            if t != last_rfm:  # the command's first mitigated row
                last_rfm = t
                occ["rfm"] += RFM_NS
                nrg["rfm"] += RFM_NS * model.dsa_per_ns
            cycles = layout.act_cycles(row, geometry) if row >= 0 else 0
        elif kind == "PROACT":
            # Rides inside the refresh envelope: no DSA occupancy, but
            # the mitigated row's counter write still cycles the CSA.
            cycles = layout.act_cycles(row, geometry) if row >= 0 else 0
        elif kind == "ALERT":
            continue
        else:
            raise ValueError(f"log/scheme mismatch: unknown event {kind!r}")
        nrg["csa_act"] += cycles * cycle_act
        nrg["csa_update"] += cycles * cycle_upd
        occ["csa_act"] += cycles * cycle_ns
    total = sum(nrg.values())
    baseline = (n_acts * model.access_energy(DEFAULT_TRC_NS)
                + n_refs * STANDARD_TRFC_NS * model.dsa_per_ns)
    normalized = total / baseline if baseline else (1.0 if not total else
                                                    float("inf"))
    return EnergyReport(occupancy_ns=occ, energy=nrg, total=total,
                        baseline=baseline, normalized_total=normalized)
