"""Scenario runner: each subcommand reads a strict YAML config, writes
CSV outputs plus a manifest echoing the fully resolved configuration,
and exits 0 on success, 2 on configuration errors, 3 when a run-time
invariant check fails.  Reruns with the same config and seed are
byte-identical.

Each command's config keys, their types and their defaults sit in one
table per config section, above its runner; `TABLES` holds them all.
`_scenario_command` runs the protocol every command shares: it reads the
command's own section (its name with `_` for `-`) for the runner and
writes the manifest the runner's return asks for, on an exit 3 too.
`--jobs` is read only by `sweep-stride`, which starts at most that many
worker processes and never more than it has cells.
"""

from __future__ import annotations

import os
import sys
from collections import deque
from contextlib import ExitStack, contextmanager
from dataclasses import asdict
from itertools import chain, islice
from typing import (Any, Callable, Deque, Dict, Iterable, Iterator, List,
                    Optional, TextIO, Tuple)

import click

from .attacks import (RoundRobinSpec, TraceError, gen_benign,
                      gen_round_robin, lines_to_trace)
from .config import (GEOMETRY, REFRESH, SCHEME, ConfigError, Key,
                     config_errors, dump_manifest, geometry_from,
                     load_config, read_section, refresh_doc, refresh_from,
                     scheme_doc, scheme_from)
from .counters import csa_scaled_latency
from .dram import DEFAULT_TRC_NS, N_MITS, PRAC_TRC_NS
from .engine import BankEngine, EventLog, audit_log, log_to_csv_lines
from .schemes import (DEFAULT_QUEUE_DEPTH, SchemeConfig, check_n_mit,
                      preset)
from .security import (AnalysisParams, RecurrenceConfig, brute_force_oracle,
                       bw_bound, oracle_point, security_table,
                       small_oracle_geometry, solve_nbo)
from .units import ns

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3

# Each command's config, one table per section it takes; see `Key`.
# Config's builders read the `geometry`, `refresh` and `scheme` sections.
TABLES: Dict[str, Dict[str, Tuple[Key, ...]]] = {}


@click.group()
def main() -> None:
    """Command-level disturbance-mitigation simulator and analyzer."""


def _scenario_command(name: str, **tables: Tuple[Key, ...]):
    """Make the decorated runner the command `name`, whose config is read
    against `tables`.  The command loads the config, makes the output
    directory (so a config error leaves it empty), reads its own section
    `opts` and calls `runner(cfg, opts, outdir, seed, jobs)`.  The runner
    returns its exit code and the sections the manifest echoes besides
    `opts`.  The manifest holds those sections, `opts` as the runner left
    it, `scenario` and `seed`."""
    TABLES[name] = tables
    section = name.replace("-", "_")

    def register(runner: Callable[..., Tuple]) -> Callable[..., Tuple]:
        @click.option("--config", "config_path", type=click.Path(),
                      help="YAML configuration file.")
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
                opts = read_section(cfg, section, tables)
                code, sections = runner(cfg, opts, outdir, seed, max(1, jobs))
            except ConfigError as exc:
                click.echo(f"config error: {exc}", err=True)
                sys.exit(EXIT_CONFIG)
            doc = {**sections, section: opts, "scenario": name, "seed": seed}
            _write_text(outdir, "manifest.yaml",
                        dump_manifest(doc).splitlines())
            sys.exit(code)

        main.command(name=name)(command)
        return runner
    return register


def _write_text(outdir: str, name: str, lines: Iterable[str]) -> None:
    """Write `lines`, each ended by a newline."""
    with open(os.path.join(outdir, name), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.writelines(f"{line}\n" for line in lines)


def _write_plot(outdir: str, *commands: str) -> None:
    """plot.gnuplot over a CSV with a header row."""
    _write_text(outdir, "plot.gnuplot", [
        'set datafile separator ","', "set key autotitle columnhead",
        *commands])


# ---------------------------------------------------------------------------
# scenarios


@_scenario_command("domino", domino=(
    Key("windows", (int,), 64, 1),
    Key("schemes", [str], ["PRAC", "PVAC"]),
    Key("n_bo", (int,), 64),
    Key("n_mit", (int,), 4),
    Key("queue_depth", (int,), DEFAULT_QUEUE_DEPTH),
), geometry=GEOMETRY, refresh=REFRESH)
def _run_domino(cfg: Dict[str, Any], opts: Dict[str, Any], outdir: str,
                seed: int, jobs: int) -> Tuple[int, dict]:
    windows, names = opts["windows"], opts["schemes"]
    geometry = geometry_from(cfg)
    with config_errors("domino"):
        schemes = [preset(name, n_bo=opts["n_bo"], n_mit=opts["n_mit"],
                          queue_depth=opts["queue_depth"])
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
            snap = engine.scheme.bank.core.snapshot()
            means.append(sum(snap) / len(snap))
        metrics = engine.finalize(windows * refresh.window_ps)
        for w, stats in enumerate(metrics.windows):
            rows.append(f"{name},{w},{means[w]:.4f},"
                        f"{stats.bandwidth:.6f},{stats.rfm_count},"
                        f"{stats.alert_count}")
    _write_text(outdir, "domino.csv", rows)
    series = [f"'domino.csv' using 2:(strcol(1) eq '{name}' ? $4 : 1/0) "
              f"with lines title '{name}'" for name in names]
    _write_plot(outdir, "set xlabel 'refresh window'",
                "set ylabel 'bandwidth'",
                "plot " + ", \\\n     ".join(series))
    # The refresh section is not echoed.
    return EXIT_OK, {"geometry": asdict(geometry)}


@_scenario_command("security-table", security_table=(
    Key("max_hc", [int], [32, 64, 128, 2048]),
    Key("schemes", [str], ["PVAC", "PRAC", "Chronus"]),
    Key("n_mits", [int], list(N_MITS)),
    Key("variant", (str,), RecurrenceConfig.variant),
    Key("granularity", (str,), RecurrenceConfig.granularity),
    # An int budget is echoed as an int.
    Key("setup_budget_ns", (int, float, type(None)),
        RecurrenceConfig.setup_budget_ns),
))
def _run_security_table(cfg: Dict[str, Any], opts: Dict[str, Any], outdir: str,
                        seed: int, jobs: int) -> Tuple[int, dict]:
    with config_errors("security_table"):
        rec = RecurrenceConfig(variant=opts["variant"],
                               granularity=opts["granularity"],
                               setup_budget_ns=opts["setup_budget_ns"])
        points = security_table(opts["max_hc"], tuple(opts["schemes"]),
                                tuple(opts["n_mits"]), rec)
    rows = ["scheme,n_mit,max_hc,n_bo,worst_r1,nr,feasible"]
    for p in points:
        rows.append(f"{p.scheme},{p.n_mit},{p.max_hc},{p.label},"
                    f"{p.worst_r1},{p.nr},{str(p.feasible).lower()}")
    _write_text(outdir, "security_table.csv", rows)
    _write_plot(outdir, "set logscale xy 2",
                "set xlabel 'tolerated hammer count'",
                "set ylabel 'alert threshold'",
                "plot 'security_table.csv' using 3:4 with points")
    return EXIT_OK, {}


_BW_POINT = (Key("n_mit", (int,)), Key("n_bo", (int,)),
             Key("tRC_ns", (float,)))


@_scenario_command("bw-bound", bw_bound=(
    Key("points", [_BW_POINT], [
        {key.name: val for key, val in zip(_BW_POINT, point)}
        for point in ((4, 237, DEFAULT_TRC_NS), (4, 52, PRAC_TRC_NS),
                      (1, 15, DEFAULT_TRC_NS), (4, 43, DEFAULT_TRC_NS))]),
))
def _run_bw_bound(cfg: Dict[str, Any], opts: Dict[str, Any], outdir: str,
                  seed: int, jobs: int) -> Tuple[int, dict]:
    rows = ["n_mit,n_bo,tRC_ns,bound"]
    for i, point in enumerate(opts["points"]):
        with config_errors(f"bw_bound.points[{i}]"):
            bound = bw_bound(**point)
        rows.append(f"{point['n_mit']},{point['n_bo']},"
                    f"{point['tRC_ns']:.6f},{bound:.6f}")
    _write_text(outdir, "bw_bound.csv", rows)
    return EXIT_OK, {}


@_scenario_command("csa-latency", csa_latency=(
    Key("rows", [int], [65536, 131072, 262144]),
    Key("brs", [int], [1, 2, 4]),
))
def _run_csa_latency(cfg: Dict[str, Any], opts: Dict[str, Any], outdir: str,
                     seed: int, jobs: int) -> Tuple[int, dict]:
    out = ["rows,br,tRCD_csa_ns,update_ns,tWR_csa_ns,tRP_csa_ns,"
           "total_ns,scaled_total_ns,csa_share"]
    for rows in opts["rows"]:
        for br in opts["brs"]:
            with config_errors(f"csa_latency: rows {rows}, br {br}"):
                lat = csa_scaled_latency(rows, br)
            out.append(f"{rows},{br},{lat.tRCD_ns:.3f},{lat.update_ns:.3f},"
                       f"{lat.tWR_ns:.3f},{lat.tRP_ns:.3f},"
                       f"{lat.total_ns:.3f},{lat.scaled_total_ns:.3f},"
                       f"{lat.share:.4f}")
    _write_text(outdir, "csa_latency.csv", out)
    _write_plot(outdir, "set style data histograms",
                "set style histogram rowstacked",
                "set style fill solid border -1",
                "plot 'csa_latency.csv' using 3:xtic(1), '' using 4, "
                "'' using 5, '' using 6")
    return EXIT_OK, {}


def _undecodable_line(path: str, exc: UnicodeDecodeError) -> str:
    """Name the first line of the file at `path` that is not UTF-8.

    The text reader decodes in chunks, so `exc` gives an offset into a
    chunk; the file is read again as bytes, split into lines the way the
    text reader splits them, and the first one that fails to decode is
    reported by its 1-based number."""
    with open(path, "rb") as fh:
        lines = (line for raw in fh for line in raw.splitlines())
        for number, line in enumerate(lines, 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as line_exc:
                return f"line {number}: {line_exc}"
    return str(exc)


@contextmanager
def _events_csv(outdir: str) -> Iterator[TextIO]:
    """events.csv, open for writing under a temporary name that becomes
    `events.csv` once the block succeeds; a failed block leaves no file."""
    path = os.path.join(outdir, "events.csv")
    part = path + ".part"
    try:
        with open(part, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(part, path)
    finally:
        if os.path.exists(part):
            os.remove(part)


def _write_events(chunks: Iterable[EventLog],
                  fh: TextIO) -> Iterator[EventLog]:
    """Pass `chunks` on, each once its CSV lines are written to `fh`.

    `log_to_csv_lines` is called once, on a pipe that holds the chunks
    not yet written: after the header it makes one line per event, so
    taking a chunk's length in lines empties the pipe again."""
    pipe: Deque[EventLog] = deque()
    lines = log_to_csv_lines(chain.from_iterable(iter(pipe.popleft, None)))
    fh.write(next(lines) + "\n")
    for chunk in chunks:
        if chunk:
            pipe.append(chunk)
            batch = list(islice(lines, len(chunk)))
            batch.append("")  # the last line's newline
            fh.write("\n".join(batch))
        yield chunk


@_scenario_command("simulate", scheme=SCHEME, geometry=GEOMETRY,
                   refresh=REFRESH, simulate=(
    Key("kind", (str,), "idle"),
    Key("trace", (str,), None),
    Key("duration_windows", (int,), 1, 1),
    Key("n", (int,), 8),
    Key("stride", (int,), 1),
    Key("base_row", (int,), 0),
    Key("act_gap_ns", (float,), 60.0),
    Key("count", (int,), 1000),
    Key("write_events", (bool,), False),
))
def _run_simulate(cfg: Dict[str, Any], opts: Dict[str, Any], outdir: str,
                  seed: int, jobs: int) -> Tuple[int, dict]:
    """Run the trace, streaming its event log into `events.csv` (when
    asked for) and the auditor in one pass as the engine drains it.

    A config error, a broken trace line among them, leaves no output."""
    scheme = scheme_from(cfg)
    geometry = geometry_from(cfg)
    with config_errors("scheme"):
        scheme.check_fits(geometry)
    refresh = refresh_from(cfg, scheme)
    kind = opts["kind"]
    engine = BankEngine(scheme, geometry, refresh)
    duration_ps = opts["duration_windows"] * refresh.window_ps
    with ExitStack() as stack:
        if opts["trace"] is not None:
            opts["kind"] = "file"
            try:
                trace = stack.enter_context(
                    open(opts["trace"], "r", encoding="utf-8"))
            except OSError as exc:
                raise ConfigError(f"simulate.trace: {exc}") from exc
            events = lines_to_trace(trace, geometry.rows_per_bank)
        elif kind == "idle":
            events = []
        elif kind in ("round_robin", "benign"):
            with config_errors("simulate"):
                if kind == "round_robin":
                    spec = RoundRobinSpec(n=opts["n"], stride=opts["stride"],
                                          base_row=opts["base_row"])
                    events = gen_round_robin(spec, geometry)
                else:
                    events = gen_benign(geometry, seed,
                                        ns(opts["act_gap_ns"]), opts["count"])
        else:
            raise ConfigError(f"simulate.kind: unknown kind {kind!r}")
        try:
            chunks = engine.stream_trace(events, duration_ps)
            if opts["write_events"]:
                csv = stack.enter_context(_events_csv(outdir))
                chunks = _write_events(chunks, csv)
            problems = audit_log(chain.from_iterable(chunks), scheme, refresh)
            if opts["trace"] is not None:
                for _event in events:  # lines past the run are checked too
                    pass
        except UnicodeDecodeError as exc:
            raise ConfigError(
                f"simulate.trace: {_undecodable_line(opts['trace'], exc)}"
            ) from exc
        except TraceError as exc:
            raise ConfigError(f"simulate.trace: {exc}") from exc
    metrics = engine.metrics
    rows = ["window,bandwidth,rfm_count,alert_count,blocked_ns"]
    for w in metrics.windows:
        rows.append(f"{w.index},{w.bandwidth:.6f},{w.rfm_count},"
                    f"{w.alert_count},{w.blocked_ps / 1000.0:.3f}")
    rows.append(f"total,,{metrics.rfms_issued},{metrics.alerts_raised},"
                f"{metrics.act_blocked_ps / 1000.0:.3f}")
    _write_text(outdir, "summary.csv", rows)
    if problems:
        _write_text(outdir, "audit.txt", problems)
        click.echo(f"audit failed: {len(problems)} violations "
                   f"(see audit.txt)", err=True)
    return (EXIT_INVARIANT if problems else EXIT_OK), {
        "scheme": scheme_doc(scheme), "geometry": asdict(geometry),
        "refresh": refresh_doc(refresh)}


def _sweep_point(args: Tuple) -> Tuple[Tuple[int, int], str]:
    """One (hc, stride) cell; `scheme` is None where hc is infeasible."""
    hc, stride, n, scheme, windows, geometry = args
    if scheme is None:
        return (hc, stride), (f"{hc},{stride},{n},inf,,,,")
    engine = BankEngine(scheme, geometry, collect_log=False)
    duration = windows * engine.refresh.window_ps
    metrics = engine.run_trace(
        gen_round_robin(RoundRobinSpec(n=n, stride=stride)), duration)
    bw = sum(w.bandwidth for w in metrics.windows) / max(
        1, len(metrics.windows))
    line = (f"{hc},{stride},{n},{scheme.n_bo},{bw:.6f},"
            f"{metrics.rfms_issued},{metrics.alerts_raised},"
            f"{metrics.acts_issued}")
    return (hc, stride), line


@_scenario_command("sweep-stride", sweep_stride=(
    Key("hc", [int], [32, 64]),
    Key("strides", [int], [1, 2, 3, 4, 5]),
    Key("n", (int,), 128),
    Key("scheme", (str,), "PVAC"),
    Key("n_mit", (int,), 4),
    Key("queue_depth", (int,), DEFAULT_QUEUE_DEPTH),
    Key("windows", (int,), 1, 1),
), geometry=GEOMETRY)
def _run_sweep_stride(cfg: Dict[str, Any], opts: Dict[str, Any], outdir: str,
                      seed: int, jobs: int) -> Tuple[int, dict]:
    hcs, strides, n = opts["hc"], opts["strides"], opts["n"]
    name, n_mit = opts["scheme"], opts["n_mit"]
    geometry = geometry_from(cfg)
    for i, stride in enumerate(strides):
        with config_errors(f"sweep_stride: strides[{i}]={stride} with "
                           f"n={n}"):
            RoundRobinSpec(n=n, stride=stride).check_fits(geometry)
    # Solve each hc's threshold here, so a scheme that cannot run is a
    # config error before any job starts.
    schemes: Dict[int, SchemeConfig] = {}  # feasible hcs only
    with config_errors("sweep_stride"):
        # Before any solve, so no hc needs to be feasible to reject it.
        check_n_mit(name, n_mit)
        params = AnalysisParams(n_mit=n_mit, br=geometry.blast_radius,
                                rows_per_bank=geometry.rows_per_bank)
        for hc in hcs:
            point = solve_nbo(name, hc, params)
            if point.feasible:
                schemes[hc] = SchemeConfig(name, point.n_bo, n_mit,
                                           opts["queue_depth"])
                schemes[hc].check_fits(geometry)
    tasks = [(hc, stride, n, schemes.get(hc), opts["windows"], geometry)
             for hc in hcs for stride in strides]
    if jobs > 1:
        # Imported here: loading the pool costs every other command.
        from concurrent.futures import ProcessPoolExecutor

        # The pool starts all its workers at once: no more than cells.
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            results = list(pool.map(_sweep_point, tasks))
    else:
        results = [_sweep_point(t) for t in tasks]
    results.sort(key=lambda kv: kv[0])
    rows = ["hc,stride,n,n_bo,bandwidth,rfm_count,alert_count,acts"]
    rows.extend(line for _key, line in results)
    _write_text(outdir, "sweep_stride.csv", rows)
    _write_plot(outdir, "set xlabel 'stride'",
                "set ylabel 'RFM commands per window'",
                "plot 'sweep_stride.csv' using 2:6 with linespoints")
    return EXIT_OK, {"geometry": asdict(geometry)}


@_scenario_command("oracle-check", oracle_check=(
    Key("schemes", [str], ["PVAC", "PRAC", "Chronus"]),
    Key("n_bos", [int], [8, 12, 16, 24]),
    Key("n_mits", [int], [1, 4]),
    Key("rows", (int,), 256),
))
def _run_oracle_check(cfg: Dict[str, Any], opts: Dict[str, Any], outdir: str,
                      seed: int, jobs: int) -> Tuple[int, dict]:
    grid = [(name, n_mit, n_bo) for name in sorted(opts["schemes"])
            for n_mit in sorted(opts["n_mits"])
            for n_bo in sorted(opts["n_bos"])]
    with config_errors("oracle_check"):
        geometry = small_oracle_geometry(rows=opts["rows"])
    for name, n_mit, n_bo in grid:
        with config_errors(f"oracle_check: {name} n_bo={n_bo} "
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
    _write_text(outdir, "oracle_check.csv", out)
    if unsound:
        click.echo(f"oracle check: {unsound} grid points exceed the "
                   f"analytical bound", err=True)
        return EXIT_INVARIANT, {}
    return EXIT_OK, {}


if __name__ == "__main__":
    main()
