"""Latency-proportional energy accounting over engine event logs.

Absolute units are arbitrary; one Default-timing row access (ACT+PRE,
48 ns) defines 1.0 energy unit, and every command class charges
occupancy x a per-ns coefficient.  Counter-subarray work is calibrated
so that the naive layout adds 20.1% of an access per counted activation
and the optimized dual layout adds ~19.8% on average (two half-size
activations on the 12-per-512 boundary rows, one otherwise); refresh
batches make the layouts diverge: one CSA row cycle per refreshed row
(naive) against a single packed cycle (optimized).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .counters import (CsaLayout, CsaTiming, csa_activations_for_event,
                       dual_activation_rows)
from .dram import (RFM_NS, DeviceGeometry, RefreshConfig,
                   builtin_timing_set, rows_per_refresh)
from .schemes import SchemeConfig
from .units import ns, to_ns

#: Calibration targets, as fractions of one normal access energy.
CSA_PER_ACCESS_NAIVE = 0.201
CSA_PER_ACCESS_OPTIMIZED = 0.198
CSA_PER_REF_NAIVE = 1.61
CSA_PER_REF_OPTIMIZED = 0.193

CLASSES = ("dsa_act", "ref", "rfm", "csa_act", "csa_update")


def _csa_occupancies(timing: CsaTiming, br: int) -> Tuple[float, float]:
    """(activation ns, update-pipeline ns) for one CSA row cycle."""
    act = to_ns(timing.tRAS_csa + timing.tRP_csa)
    upd = (2 * br + 1) * to_ns(timing.tUP)
    return act, upd


@dataclass(frozen=True)
class EnergyModel:
    """Per-ns energy coefficients for the five command classes.

    half_csa_discount scales the activation component of a half-size
    (32-row) CSA cycle relative to the full 64-row cycle; the update
    component is size-independent.
    """

    dsa_act_per_ns: float
    ref_row_per_ns: float
    rfm_row_per_ns: float
    csa_act_per_ns: float
    csa_update_per_ns: float
    half_csa_discount: float
    csa_timing: CsaTiming = field(default_factory=CsaTiming)
    br: int = 2

    def __post_init__(self) -> None:
        for name in ("dsa_act_per_ns", "ref_row_per_ns", "rfm_row_per_ns",
                     "csa_act_per_ns", "csa_update_per_ns"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0 < self.half_csa_discount <= 1:
            raise ValueError("half_csa_discount must be in (0, 1]")

    def access_energy(self, tRC_ns: float) -> float:
        return tRC_ns * self.dsa_act_per_ns

    def csa_cycle_energy(self, half: bool) -> Tuple[float, float]:
        """(activation energy, update energy) of one CSA row cycle."""
        act_ns, upd_ns = _csa_occupancies(self.csa_timing, self.br)
        act = act_ns * self.csa_act_per_ns
        if half:
            act *= self.half_csa_discount
        return act, upd_ns * self.csa_update_per_ns

    def csa_for_act(self, layout: CsaLayout, geometry: DeviceGeometry,
                    row: int) -> Tuple[float, float, float]:
        """(act energy, update energy, occupancy ns) to count one
        activation of `row` under `layout`."""
        return self._csa_cycles(layout, csa_activations_for_event(
            layout, "NormalAct", geometry, row=row))

    def csa_for_ref(self, layout: CsaLayout, geometry: DeviceGeometry,
                    refreshed_rows: Sequence[int]
                    ) -> Tuple[float, float, float]:
        """Same triple for one refresh batch."""
        return self._csa_cycles(layout, csa_activations_for_event(
            layout, "Refresh", geometry, rows=refreshed_rows))

    def _csa_cycles(self, layout: CsaLayout, n: int
                    ) -> Tuple[float, float, float]:
        """(act energy, update energy, occupancy ns) of `n` CSA row
        cycles under `layout`."""
        if n == 0:
            return 0.0, 0.0, 0.0
        act, upd = self.csa_cycle_energy(half=(layout.kind ==
                                               "OptimizedDualCsa"))
        act_ns, upd_ns = _csa_occupancies(self.csa_timing, self.br)
        return n * act, n * upd, n * (act_ns + upd_ns)

    # -- calibration checks -------------------------------------------

    def per_access_csa_ratio(self, layout: CsaLayout,
                             geometry: DeviceGeometry) -> float:
        """Average CSA energy per counted activation, over one DSA's
        rows, as a fraction of a Default-timing access."""
        if layout.kind == "InDsaRow":
            return 0.0
        base = self.access_energy(to_ns(builtin_timing_set("Default").tRC))
        if layout.kind == "NaiveCsa":
            act, upd = self.csa_cycle_energy(half=False)
            return (act + upd) / base
        dual = len(dual_activation_rows(geometry, layout))
        act, upd = self.csa_cycle_energy(half=True)
        per = act + upd
        rows = geometry.rows_per_dsa
        total = per * (rows - dual) + 2 * per * dual
        return total / rows / base

    def per_ref_csa_ratio(self, layout: CsaLayout,
                          geometry: DeviceGeometry) -> float:
        """CSA energy per default refresh batch as a fraction of one
        access."""
        base = self.access_energy(to_ns(builtin_timing_set("Default").tRC))
        batch = list(range(rows_per_refresh(geometry, RefreshConfig())))
        a, u, _occ = self.csa_for_ref(layout, geometry, batch)
        return (a + u) / base


def default_energy_model(geometry: Optional[DeviceGeometry] = None
                         ) -> EnergyModel:
    """Coefficients derived from the calibration ratios.

    The CSA power level is set so a full row cycle plus its update
    pipeline costs exactly the naive per-access ratio; the half-size
    discount is then solved from the optimized per-access ratio after
    removing the boundary-row double activations.
    """
    geometry = geometry or DeviceGeometry()
    timing = CsaTiming()
    br = geometry.blast_radius
    access = 1.0  # one Default access defines the unit
    per_ns = access / to_ns(builtin_timing_set("Default").tRC)
    act_ns, upd_ns = _csa_occupancies(timing, br)
    csa_power = CSA_PER_ACCESS_NAIVE * access / (act_ns + upd_ns)
    layout = CsaLayout(kind="OptimizedDualCsa")
    dual = len(dual_activation_rows(geometry, layout))
    rows = geometry.rows_per_dsa
    mult = (rows + dual) / rows  # avg CSA cycles per counted activation
    single = CSA_PER_ACCESS_OPTIMIZED * access / mult
    discount = (single - upd_ns * csa_power) / (act_ns * csa_power)
    return EnergyModel(dsa_act_per_ns=per_ns, ref_row_per_ns=per_ns,
                       rfm_row_per_ns=per_ns, csa_act_per_ns=csa_power,
                       csa_update_per_ns=csa_power,
                       half_csa_discount=discount,
                       csa_timing=timing, br=br)


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


def _rfm_commands(log: Sequence[Tuple[int, str, int, int]]
                  ) -> "OrderedDict[int, List[int]]":
    """Group RFM log lines (one per mitigated row) into commands by
    issue time."""
    cmds: "OrderedDict[int, List[int]]" = OrderedDict()
    for t, kind, row, _c in log:
        if kind == "RFM":
            cmds.setdefault(t, [])
            if row >= 0:
                cmds[t].append(row)
    return cmds


def energy_report(log: Sequence[Tuple[int, str, int, int]],
                  scheme: SchemeConfig,
                  layout: CsaLayout,
                  geometry: Optional[DeviceGeometry] = None,
                  refresh: Optional[RefreshConfig] = None,
                  model: Optional[EnergyModel] = None) -> EnergyReport:
    """Per-class energy of an engine log, normalized against the same
    demand stream with mitigation disabled and Default timing.

    The baseline charges each logged ACT at Default tRC and each REF at
    the standard tRFC, with no CSA or RFM work; the report's own classes
    use the run's actual timing.  Counter maintenance inside an RFM is
    charged per logged mitigated row.
    """
    geometry = geometry or DeviceGeometry()
    refresh = refresh or RefreshConfig(tRFC=ns(scheme.tRFC_ns))
    model = model or default_energy_model(geometry)
    known = {"ACT", "REF", "RFM", "ALERT", "PROACT"}
    for entry in log:
        if entry[1] not in known:
            raise ValueError(f"log/scheme mismatch: unknown event "
                             f"{entry[1]!r}")
    trc_ns = to_ns(scheme.timing_set().tRC)
    trfc_ns = to_ns(refresh.tRFC)
    rpr = rows_per_refresh(geometry, refresh)
    occ = {cls: 0.0 for cls in CLASSES}
    nrg = {cls: 0.0 for cls in CLASSES}
    n_acts = 0
    n_refs = 0
    batch = list(range(rpr))
    for t, kind, row, _c in log:
        if kind == "ACT":
            n_acts += 1
            occ["dsa_act"] += trc_ns
            nrg["dsa_act"] += model.access_energy(trc_ns)
            a, u, o = model.csa_for_act(layout, geometry, row)
            nrg["csa_act"] += a
            nrg["csa_update"] += u
            occ["csa_act"] += o
        elif kind == "REF":
            n_refs += 1
            occ["ref"] += trfc_ns
            nrg["ref"] += trfc_ns * model.ref_row_per_ns
            a, u, o = model.csa_for_ref(layout, geometry, batch)
            nrg["csa_act"] += a
            nrg["csa_update"] += u
            occ["csa_act"] += o
        elif kind == "PROACT":
            # Rides inside the refresh envelope: no DSA occupancy, but
            # the mitigated row's counter write still cycles the CSA.
            if row >= 0:
                a, u, o = model.csa_for_act(layout, geometry, row)
                nrg["csa_act"] += a
                nrg["csa_update"] += u
                occ["csa_act"] += o
    for _t, rows in _rfm_commands(log).items():
        occ["rfm"] += RFM_NS
        nrg["rfm"] += RFM_NS * model.rfm_row_per_ns
        for row in rows:
            a, u, o = model.csa_for_act(layout, geometry, row)
            nrg["csa_act"] += a
            nrg["csa_update"] += u
            occ["csa_act"] += o
    total = sum(nrg.values())
    base_trc = to_ns(builtin_timing_set("Default").tRC)
    baseline = (n_acts * model.access_energy(base_trc)
                + n_refs * to_ns(RefreshConfig().tRFC) * model.ref_row_per_ns)
    normalized = total / baseline if baseline else (1.0 if not total else
                                                    float("inf"))
    return EnergyReport(occupancy_ns=occ, energy=nrg, total=total,
                        baseline=baseline, normalized_total=normalized)
