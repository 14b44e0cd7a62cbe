"""Scenario runner: each subcommand reads a strict YAML config, writes
CSV outputs plus a manifest echoing the fully resolved configuration,
and exits 0 on success, 2 on configuration errors, 3 when a run-time
invariant check fails.  Reruns with the same config and seed are
byte-identical.
"""

from __future__ import annotations

import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from typing import (Any, Dict, Iterator, List, Mapping, Optional, Sequence,
                    Tuple)

import click

from .attacks import RoundRobinSpec, gen_benign, gen_round_robin, \
    lines_to_trace
from .config import (ConfigError, check_keys, dump_manifest, geometry_from,
                     get_section, get_value, load_config, refresh_from,
                     scheme_from)
from .counters import csa_scaled_latency
from .dram import DeviceGeometry, RefreshConfig
from .engine import BankEngine, audit_log, log_to_csv_lines
from .schemes import DEFAULT_QUEUE_DEPTH, SchemeConfig, preset
from .security import (AnalysisParams, RecurrenceConfig, brute_force_oracle,
                       bw_bound, oracle_point, security_table,
                       small_oracle_geometry, solve_nbo)
from .units import ns

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3


def _write_text(path: str, lines: Sequence[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def _write_manifest(outdir: str, scenario: str, seed: int,
                    resolved: Mapping[str, Any]) -> None:
    doc = {"scenario": scenario, "seed": seed}
    doc.update(resolved)
    _write_text(os.path.join(outdir, "manifest.yaml"),
                dump_manifest(doc).splitlines())


def _get_list(sec: Mapping[str, Any], key: str, elem_types, path: str,
              default: List[Any]) -> List[Any]:
    val = sec.get(key, None)
    if val is None:
        return list(default)
    if not isinstance(val, list) or not val:
        raise ConfigError(f"{path}.{key} must be a non-empty list")
    for i, item in enumerate(val):
        if isinstance(item, bool) or not isinstance(item, elem_types):
            raise ConfigError(f"{path}.{key}[{i}] has the wrong type")
    return list(val)


def _get_windows(sec: Mapping[str, Any], key: str, path: str,
                 default: int) -> int:
    """A count of refresh windows: an int of at least 1."""
    val = get_value(sec, key, (int,), path, default)
    if val < 1:
        raise ConfigError(f"{path}.{key} must be >= 1")
    return val


@contextmanager
def _config_errors(where: str) -> Iterator[None]:
    """Report a domain constructor's ValueError as a ConfigError that
    names `where`."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _fmt(x: float) -> str:
    return f"{x:.6f}"


# ---------------------------------------------------------------------------
# scenarios


def _run_domino(cfg: Dict[str, Any], outdir: str, seed: int,
                jobs: int) -> int:
    check_keys(cfg, ('domino', 'geometry', 'refresh'), "")
    sec = get_section(cfg, "domino")
    check_keys(sec, ("windows", "schemes", "n_bo", "n_mit", "queue_depth"),
               "domino")
    windows = _get_windows(sec, "windows", "domino", 64)
    names = _get_list(sec, "schemes", (str,), "domino", ["PRAC", "PVAC"])
    n_bo = get_value(sec, "n_bo", (int,), "domino", 64)
    n_mit = get_value(sec, "n_mit", (int,), "domino", 4)
    depth = get_value(sec, "queue_depth", (int,), "domino",
                      DEFAULT_QUEUE_DEPTH)
    geometry = geometry_from(cfg)
    with _config_errors("domino"):
        schemes = [preset(name, n_bo=n_bo, n_mit=n_mit, queue_depth=depth)
                   for name in names]
        for scheme in schemes:
            scheme.check_fits(geometry)

    rows = ["scheme,window,counter_mean,bandwidth,rfm_count,alert_count"]
    for name, scheme in zip(names, schemes):
        refresh = refresh_from(cfg, scheme)
        engine = BankEngine(scheme, geometry, refresh, collect_log=False)
        means: List[float] = []
        for w in range(windows):
            engine.advance_to((w + 1) * refresh.window_ps)
            snap = engine.scheme.bank.snapshot()
            means.append(sum(snap) / len(snap))
        metrics = engine.finalize(windows * refresh.window_ps)
        for w, stats in enumerate(metrics.windows):
            rows.append(f"{name},{w},{means[w]:.4f},"
                        f"{stats.bandwidth:.6f},{stats.rfm_count},"
                        f"{stats.alert_count}")
    _write_text(os.path.join(outdir, "domino.csv"), rows)
    _write_text(os.path.join(outdir, "plot.gnuplot"), [
        'set datafile separator ","',
        "set key autotitle columnhead",
        "set xlabel 'refresh window'",
        "set ylabel 'bandwidth'",
        "plot 'domino.csv' using 2:(strcol(1) eq 'PRAC' ? $4 : 1/0) "
        "with lines title 'PRAC', \\",
        "     'domino.csv' using 2:(strcol(1) eq 'PVAC' ? $4 : 1/0) "
        "with lines title 'PVAC'",
    ])
    _write_manifest(outdir, "domino", seed, {
        "domino": {"windows": windows, "schemes": names, "n_bo": n_bo,
                   "n_mit": n_mit, "queue_depth": depth},
        "geometry": _geometry_doc(geometry),
    })
    return EXIT_OK


def _geometry_doc(g: DeviceGeometry) -> Dict[str, int]:
    return {"rows_per_bank": g.rows_per_bank, "banks": g.banks,
            "rows_per_dsa": g.rows_per_dsa, "counter_bits": g.counter_bits,
            "blast_radius": g.blast_radius}


def _run_security_table(cfg: Dict[str, Any], outdir: str, seed: int,
                        jobs: int) -> int:
    check_keys(cfg, ('security_table',), "")
    sec = get_section(cfg, "security_table")
    check_keys(sec, ("max_hc", "schemes", "n_mits", "variant",
                     "granularity", "setup_budget_ns"), "security_table")
    max_hcs = _get_list(sec, "max_hc", (int,), "security_table",
                        [32, 64, 128, 2048])
    names = _get_list(sec, "schemes", (str,), "security_table",
                      ["PVAC", "PRAC", "Chronus"])
    n_mits = _get_list(sec, "n_mits", (int,), "security_table", [1, 2, 4])
    variant = get_value(sec, "variant", (str,), "security_table", "literal")
    gran = get_value(sec, "granularity", (str,), "security_table", "body")
    budget = sec.get("setup_budget_ns", RecurrenceConfig().setup_budget_ns)
    if budget is not None and (isinstance(budget, bool)
                               or not isinstance(budget, (int, float))):
        raise ConfigError("security_table.setup_budget_ns must be a number "
                          "or null")
    with _config_errors("security_table"):
        rec = RecurrenceConfig(variant=variant, granularity=gran,
                               setup_budget_ns=budget)
        points = security_table(max_hcs, tuple(names), tuple(n_mits), rec)
    rows = ["scheme,n_mit,max_hc,n_bo,worst_r1,nr,feasible"]
    for p in points:
        rows.append(f"{p.scheme},{p.n_mit},{p.max_hc},{p.label},"
                    f"{p.worst_r1},{p.nr},{str(p.feasible).lower()}")
    _write_text(os.path.join(outdir, "security_table.csv"), rows)
    _write_text(os.path.join(outdir, "plot.gnuplot"), [
        'set datafile separator ","',
        "set key autotitle columnhead",
        "set logscale xy 2",
        "set xlabel 'tolerated hammer count'",
        "set ylabel 'alert threshold'",
        "plot 'security_table.csv' using 3:4 with points",
    ])
    _write_manifest(outdir, "security-table", seed, {
        "security_table": {"max_hc": max_hcs, "schemes": names,
                           "n_mits": n_mits, "variant": variant,
                           "granularity": gran,
                           "setup_budget_ns": budget},
    })
    return EXIT_OK


_BW_DEFAULT_POINTS = [
    {"n_mit": 4, "n_bo": 237, "tRC_ns": 48.0},
    {"n_mit": 4, "n_bo": 52, "tRC_ns": 52.0},
    {"n_mit": 1, "n_bo": 15, "tRC_ns": 48.0},
    {"n_mit": 4, "n_bo": 43, "tRC_ns": 48.0},
]


def _run_bw_bound(cfg: Dict[str, Any], outdir: str, seed: int,
                  jobs: int) -> int:
    check_keys(cfg, ('bw_bound',), "")
    sec = get_section(cfg, "bw_bound")
    check_keys(sec, ("points",), "bw_bound")
    raw = sec.get("points", _BW_DEFAULT_POINTS)
    if not isinstance(raw, list) or not raw:
        raise ConfigError("bw_bound.points must be a non-empty list")
    rows = ["n_mit,n_bo,tRC_ns,bound"]
    resolved = []
    for i, item in enumerate(raw):
        if not isinstance(item, Mapping):
            raise ConfigError(f"bw_bound.points[{i}] must be a mapping")
        check_keys(item, ("n_mit", "n_bo", "tRC_ns"), f"bw_bound.points[{i}]")
        m = get_value(item, "n_mit", (int,), f"bw_bound.points[{i}]")
        b = get_value(item, "n_bo", (int,), f"bw_bound.points[{i}]")
        trc = get_value(item, "tRC_ns", (int, float),
                        f"bw_bound.points[{i}]")
        with _config_errors(f"bw_bound.points[{i}]"):
            bound = bw_bound(m, b, trc)
        rows.append(f"{m},{b},{_fmt(trc)},{_fmt(bound)}")
        resolved.append({"n_mit": m, "n_bo": b, "tRC_ns": float(trc)})
    _write_text(os.path.join(outdir, "bw_bound.csv"), rows)
    _write_manifest(outdir, "bw-bound", seed, {"bw_bound":
                                               {"points": resolved}})
    return EXIT_OK


def _run_csa_latency(cfg: Dict[str, Any], outdir: str, seed: int,
                     jobs: int) -> int:
    check_keys(cfg, ('csa_latency',), "")
    sec = get_section(cfg, "csa_latency")
    check_keys(sec, ("rows", "brs"), "csa_latency")
    row_counts = _get_list(sec, "rows", (int,), "csa_latency",
                           [65536, 131072, 262144])
    brs = _get_list(sec, "brs", (int,), "csa_latency", [1, 2, 4])
    out = ["rows,br,tRCD_csa_ns,update_ns,tWR_csa_ns,tRP_csa_ns,"
           "total_ns,scaled_total_ns,csa_share"]
    for rows in row_counts:
        for br in brs:
            with _config_errors(f"csa_latency: rows {rows}, br {br}"):
                lat = csa_scaled_latency(rows, br)
            out.append(f"{rows},{br},{lat.tRCD_ns:.3f},{lat.update_ns:.3f},"
                       f"{lat.tWR_ns:.3f},{lat.tRP_ns:.3f},"
                       f"{lat.total_ns:.3f},{lat.scaled_total_ns:.3f},"
                       f"{lat.share:.4f}")
    _write_text(os.path.join(outdir, "csa_latency.csv"), out)
    _write_text(os.path.join(outdir, "plot.gnuplot"), [
        'set datafile separator ","',
        "set key autotitle columnhead",
        "set style data histograms",
        "set style histogram rowstacked",
        "set style fill solid border -1",
        "plot 'csa_latency.csv' using 3:xtic(1), '' using 4, "
        "'' using 5, '' using 6",
    ])
    _write_manifest(outdir, "csa-latency", seed, {
        "csa_latency": {"rows": row_counts, "brs": brs},
    })
    return EXIT_OK


def _run_simulate(cfg: Dict[str, Any], outdir: str, seed: int,
                  jobs: int) -> int:
    check_keys(cfg, ('scheme', 'geometry', 'refresh', 'simulate'), "")
    scheme = scheme_from(cfg)
    geometry = geometry_from(cfg)
    with _config_errors("scheme"):
        scheme.check_fits(geometry)
    refresh = refresh_from(cfg, scheme)
    sec = get_section(cfg, "simulate")
    check_keys(sec, ("kind", "trace", "duration_windows", "n", "stride",
                     "base_row", "act_gap_ns", "count", "write_events"),
               "simulate")
    kind = get_value(sec, "kind", (str,), "simulate", "idle")
    trace_path = get_value(sec, "trace", (str,), "simulate", None)
    dur_windows = _get_windows(sec, "duration_windows", "simulate", 1)
    n = get_value(sec, "n", (int,), "simulate", 8)
    stride = get_value(sec, "stride", (int,), "simulate", 1)
    base_row = get_value(sec, "base_row", (int,), "simulate", 0)
    act_gap_ns = get_value(sec, "act_gap_ns", (int, float), "simulate", 60.0)
    count = get_value(sec, "count", (int,), "simulate", 1000)
    write_events = get_value(sec, "write_events", (bool,), "simulate", False)
    duration = dur_windows * refresh.window_ps

    if trace_path is not None:
        kind = "file"
        try:
            with open(trace_path, "r", encoding="utf-8") as fh:
                events = lines_to_trace(fh.read().splitlines())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"simulate.trace: {exc}") from exc
        n_rows = geometry.rows_per_bank
        for _kind, row, _t, _d in events:
            if not 0 <= row < n_rows:
                raise ConfigError(f"simulate.trace: row {row} is outside "
                                  f"the {n_rows}-row bank")
    elif kind == "idle":
        events = []
    elif kind in ("round_robin", "benign"):
        with _config_errors("simulate"):
            if kind == "round_robin":
                spec = RoundRobinSpec(n=n, stride=stride, base_row=base_row)
                events = gen_round_robin(spec, geometry)
            else:
                events = gen_benign(geometry, seed, ns(act_gap_ns), count)
    else:
        raise ConfigError(f"simulate.kind: unknown kind {kind!r}")

    engine = BankEngine(scheme, geometry, refresh)
    metrics = engine.run_trace(events, duration)
    rows = ["window,bandwidth,rfm_count,alert_count,blocked_ns"]
    for w in metrics.windows:
        rows.append(f"{w.index},{w.bandwidth:.6f},{w.rfm_count},"
                    f"{w.alert_count},{w.blocked_ps / 1000.0:.3f}")
    rows.append(f"total,,{metrics.rfms_issued},{metrics.alerts_raised},"
                f"{metrics.act_blocked_ps / 1000.0:.3f}")
    _write_text(os.path.join(outdir, "summary.csv"), rows)
    if write_events:
        _write_text(os.path.join(outdir, "events.csv"),
                    log_to_csv_lines(engine.log))
    problems = audit_log(engine.log, scheme, refresh)
    if problems:
        _write_text(os.path.join(outdir, "audit.txt"), problems)
        click.echo(f"audit failed: {len(problems)} violations "
                   f"(see audit.txt)", err=True)
        return EXIT_INVARIANT
    _write_manifest(outdir, "simulate", seed, {
        "scheme": {"name": scheme.scheme, "n_bo": scheme.n_bo,
                   "n_mit": scheme.n_mit,
                   "queue_depth": scheme.queue_depth},
        "geometry": _geometry_doc(geometry),
        "refresh": {"tREFW_ns": refresh.tREFW / 1000.0,
                    "tREFI_ns": refresh.tREFI / 1000.0,
                    "tRFC_ns": refresh.tRFC / 1000.0},
        "simulate": {"kind": kind, "trace": trace_path,
                     "duration_windows": dur_windows, "n": n,
                     "stride": stride, "base_row": base_row,
                     "act_gap_ns": float(act_gap_ns), "count": count,
                     "write_events": write_events},
    })
    return EXIT_OK


def _sweep_point(args: Tuple) -> Tuple[Tuple[int, int], str]:
    """One (hc, stride) cell; `scheme` is None where hc is infeasible."""
    hc, stride, n, scheme, windows, geometry = args
    if scheme is None:
        return (hc, stride), (f"{hc},{stride},{n},inf,,,,")
    refresh = RefreshConfig(tRFC=ns(scheme.tRFC_ns))
    engine = BankEngine(scheme, geometry, refresh, collect_log=False)
    duration = windows * refresh.window_ps
    metrics = engine.run_trace(
        gen_round_robin(RoundRobinSpec(n=n, stride=stride)), duration)
    bw = sum(w.bandwidth for w in metrics.windows) / max(
        1, len(metrics.windows))
    line = (f"{hc},{stride},{n},{scheme.n_bo},{bw:.6f},"
            f"{metrics.rfms_issued},{metrics.alerts_raised},"
            f"{metrics.acts_issued}")
    return (hc, stride), line


def _run_sweep_stride(cfg: Dict[str, Any], outdir: str, seed: int,
                      jobs: int) -> int:
    check_keys(cfg, ('sweep_stride', 'geometry'), "")
    sec = get_section(cfg, "sweep_stride")
    check_keys(sec, ("hc", "strides", "n", "scheme", "n_mit",
                     "queue_depth", "windows"), "sweep_stride")
    hcs = _get_list(sec, "hc", (int,), "sweep_stride", [32, 64])
    strides = _get_list(sec, "strides", (int,), "sweep_stride",
                        [1, 2, 3, 4, 5])
    n = get_value(sec, "n", (int,), "sweep_stride", 128)
    name = get_value(sec, "scheme", (str,), "sweep_stride", "PVAC")
    n_mit = get_value(sec, "n_mit", (int,), "sweep_stride", 4)
    depth = get_value(sec, "queue_depth", (int,), "sweep_stride",
                      DEFAULT_QUEUE_DEPTH)
    windows = _get_windows(sec, "windows", "sweep_stride", 1)
    geometry = geometry_from(cfg)
    for i, stride in enumerate(strides):
        with _config_errors(f"sweep_stride: strides[{i}]={stride} with "
                            f"n={n}"):
            RoundRobinSpec(n=n, stride=stride).check_fits(geometry)
    # Solve each hc's threshold here, so a scheme that cannot run is a
    # config error before any job starts.
    schemes: Dict[int, SchemeConfig] = {}  # feasible hcs only
    with _config_errors("sweep_stride"):
        params = AnalysisParams(n_mit=n_mit, br=geometry.blast_radius,
                                rows_per_bank=geometry.rows_per_bank)
        for hc in hcs:
            point = solve_nbo(name, hc, params)
            if point.feasible:
                schemes[hc] = preset(name, n_bo=point.n_bo, n_mit=n_mit,
                                     queue_depth=depth)
                schemes[hc].check_fits(geometry)
    tasks = [(hc, stride, n, schemes.get(hc), windows, geometry)
             for hc in hcs for stride in strides]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_point, tasks))
    else:
        results = [_sweep_point(t) for t in tasks]
    results.sort(key=lambda kv: kv[0])
    rows = ["hc,stride,n,n_bo,bandwidth,rfm_count,alert_count,acts"]
    rows.extend(line for _key, line in results)
    _write_text(os.path.join(outdir, "sweep_stride.csv"), rows)
    _write_text(os.path.join(outdir, "plot.gnuplot"), [
        'set datafile separator ","',
        "set key autotitle columnhead",
        "set xlabel 'stride'",
        "set ylabel 'RFM commands per window'",
        "plot 'sweep_stride.csv' using 2:6 with linespoints",
    ])
    _write_manifest(outdir, "sweep-stride", seed, {
        "sweep_stride": {"hc": hcs, "strides": strides, "n": n,
                         "scheme": name, "n_mit": n_mit,
                         "queue_depth": depth, "windows": windows},
        "geometry": _geometry_doc(geometry),
    })
    return EXIT_OK


def _run_oracle_check(cfg: Dict[str, Any], outdir: str, seed: int,
                      jobs: int) -> int:
    check_keys(cfg, ('oracle_check',), "")
    sec = get_section(cfg, "oracle_check")
    check_keys(sec, ("schemes", "n_bos", "n_mits", "rows"), "oracle_check")
    names = _get_list(sec, "schemes", (str,), "oracle_check",
                      ["PVAC", "PRAC", "Chronus"])
    n_bos = _get_list(sec, "n_bos", (int,), "oracle_check", [8, 12, 16, 24])
    n_mits = _get_list(sec, "n_mits", (int,), "oracle_check", [1, 4])
    rows = get_value(sec, "rows", (int,), "oracle_check", 256)
    grid = [(name, n_mit, n_bo) for name in sorted(names)
            for n_mit in sorted(n_mits) for n_bo in sorted(n_bos)]
    with _config_errors("oracle_check"):
        geometry = small_oracle_geometry(rows=rows)
    for name, n_mit, n_bo in grid:
        with _config_errors(f"oracle_check: {name} n_bo={n_bo} "
                            f"n_mit={n_mit}"):
            oracle_point(name, n_bo, n_mit, geometry)
    out = ["scheme,n_mit,n_bo,r1,observed_hc,bound_hc,sound"]
    unsound = 0
    for name, n_mit, n_bo in grid:
        check = brute_force_oracle(name, n_bo, n_mit, geometry)
        out.append(f"{name},{n_mit},{n_bo},{check.r1},"
                   f"{check.observed_hc},{check.bound_hc},"
                   f"{str(check.sound).lower()}")
        if not check.sound:
            unsound += 1
    _write_text(os.path.join(outdir, "oracle_check.csv"), out)
    _write_manifest(outdir, "oracle-check", seed, {
        "oracle_check": {"schemes": names, "n_bos": n_bos,
                         "n_mits": n_mits, "rows": rows},
    })
    if unsound:
        click.echo(f"oracle check: {unsound} grid points exceed the "
                   f"analytical bound", err=True)
        return EXIT_INVARIANT
    return EXIT_OK


# ---------------------------------------------------------------------------
# click wiring

_SCENARIOS = {
    "domino": _run_domino,
    "security-table": _run_security_table,
    "bw-bound": _run_bw_bound,
    "csa-latency": _run_csa_latency,
    "simulate": _run_simulate,
    "sweep-stride": _run_sweep_stride,
    "oracle-check": _run_oracle_check,
}


@click.group()
def main() -> None:
    """Command-level disturbance-mitigation simulator and analyzer."""


def _scenario_command(name: str):
    runner = _SCENARIOS[name]

    @click.option("--config", "config_path", required=False, default=None,
                  type=click.Path(), help="YAML configuration file.")
    @click.option("--out", "outdir", required=True,
                  type=click.Path(file_okay=False),
                  help="Output directory (created if missing).")
    @click.option("--seed", default=0, show_default=True, type=int)
    @click.option("--jobs", default=1, show_default=True, type=int)
    def command(config_path: Optional[str], outdir: str, seed: int,
                jobs: int) -> None:
        try:
            cfg = load_config(config_path) if config_path else {}
            os.makedirs(outdir, exist_ok=True)
            code = runner(cfg, outdir, seed, max(1, jobs))
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)
        sys.exit(code)

    command.__name__ = name.replace("-", "_")
    return main.command(name=name)(command)


for _name in _SCENARIOS:
    _scenario_command(_name)


if __name__ == "__main__":
    main()
