"""End-to-end runs of the scenario commands through click's test runner.

Each scenario gets at least one happy-path run asserting on the CSV it
writes, plus the manifest/rerun contract: a manifest.yaml accompanies
every output directory, and rerunning with the same config and seed
reproduces the files byte for byte.
"""

import concurrent.futures
import random

import pytest
import yaml
from click.testing import CliRunner

from hammersim import attacks, cli, config, counters, schemes
from hammersim.cli import EXIT_CONFIG, EXIT_INVARIANT, EXIT_OK, main
from hammersim.engine import LOG_CHUNK, EventLog, audit_log, log_to_csv_lines
from hammersim.units import ns
from test_kernel import kernels


def run_cli(*argv, **kwargs):
    return CliRunner().invoke(main, list(argv), catch_exceptions=False,
                              **kwargs)


def all_text(result):
    """stdout plus stderr, tolerant of click versions that split them."""
    text = result.output
    try:
        text += result.stderr
    except (ValueError, AttributeError):
        pass
    return text


def write_cfg(tmp_path, text, name="scenario.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def csv_rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


# ---------------------------------------------------------------------------
# command surface


def test_exit_codes_are_the_documented_triple():
    assert (EXIT_OK, EXIT_CONFIG, EXIT_INVARIANT) == (0, 2, 3)


def test_group_exposes_all_seven_scenarios():
    assert set(main.commands) == {
        "domino", "security-table", "bw-bound", "csa-latency",
        "simulate", "sweep-stride", "oracle-check",
    }
    result = run_cli("--help")
    assert result.exit_code == 0
    for name in main.commands:
        assert name in result.output


def test_missing_out_is_a_usage_error():
    result = run_cli("bw-bound")
    assert result.exit_code == 2


# A small config per command for the protocol test; a command not named
# here runs on its defaults.
PROTOCOL_CONFIGS = {
    "domino": "domino: {windows: 1, n_bo: 8, n_mit: 1}\n"
              "geometry: {rows_per_bank: 512, rows_per_dsa: 512}\n"
              "refresh: {tREFW_ns: 8000000}\n",
    "security-table": "security_table: {max_hc: [64], schemes: [PVAC], "
                      "n_mits: [4]}\n",
    "simulate": "scheme: {name: PVAC, n_bo: 32}\n"
                "geometry: {rows_per_bank: 1024}\n"
                "refresh: {tREFW_ns: 1000000}\n",
    "sweep-stride": "sweep_stride: {hc: [64], strides: [1], n: 8}\n",
    "oracle-check": "oracle_check: {schemes: [PVAC], n_bos: [8], "
                    "n_mits: [4], rows: 64}\n",
}


@pytest.mark.parametrize("command", sorted(main.commands))
def test_every_command_manifest_names_its_run_and_section(
        tmp_path, monkeypatch, command):
    """The protocol `cli._scenario_command` runs for every command: the
    manifest names the command and the seed and echoes the command's own
    section, every key of its table resolved."""
    monkeypatch.setattr(cli, "_sweep_point", solved_only)
    text = PROTOCOL_CONFIGS.get(command)
    outdir = tmp_path / "out"
    argv = [command, "--out", str(outdir), "--seed", "7"]
    if text is not None:
        argv += ["--config", write_cfg(tmp_path, text)]
    result = run_cli(*argv)
    assert result.exit_code == EXIT_OK, all_text(result)
    manifest = yaml.safe_load((outdir / "manifest.yaml").read_text())
    section = command.replace("-", "_")
    assert manifest["scenario"] == command
    assert manifest["seed"] == 7
    assert set(manifest[section]) == {
        key.name for key in cli.TABLES[command][section]}
    given = yaml.safe_load(text or "{}").get(section, {})
    assert manifest[section] == dict(manifest[section], **given)


@pytest.mark.parametrize("command, yaml_text, section", [
    ("domino", "domino: {n_mit: 3}\n", "domino"),
    ("domino", "domino: {n_bo: 300}\n", "domino"),
    ("domino", "domino: {windows: -1}\n", "domino"),
    ("simulate", "scheme: {name: PVAC, n_bo: 300}\n", "scheme"),
    ("sweep-stride", "sweep_stride: {n_mit: 3}\n", "sweep_stride"),
    ("sweep-stride", "sweep_stride: {windows: 0}\n", "sweep_stride"),
    ("sweep-stride", "sweep_stride: {hc: [2048]}\n", "sweep_stride"),
    ("sweep-stride", "sweep_stride: {scheme: MOAT, n_mit: 4, hc: [64]}\n",
     "sweep_stride"),
    ("security-table", "security_table: {schemes: [MOAT], n_mits: [1, 4]}\n",
     "security_table"),
    ("oracle-check", "oracle_check: {n_bos: [1]}\n", "oracle_check"),
    ("oracle-check", "oracle_check: {n_mits: [3]}\n", "oracle_check"),
    ("bw-bound", "bw_bound: {points: [{n_mit: 0, n_bo: 4, tRC_ns: 48}]}\n",
     "bw_bound"),
    ("simulate", "scheme: {name: PVAC, n_bo: 32}\nrefresh: {tRFC_ns: -100}\n",
     "refresh"),
    ("simulate", "scheme: {name: PVAC, n_bo: 32}\n"
     "refresh: {tREFI_ns: -100, tRFC_ns: -200}\n", "refresh"),
    ("domino", "geometry: {counter_bits: 33}\n", "geometry"),
], ids=["domino_n_mit", "domino_n_bo_past_counter_cap", "domino_windows",
        "simulate_n_bo_past_counter_cap", "sweep_n_mit", "sweep_windows",
        "sweep_solved_n_bo_past_counter_cap", "sweep_single_mitigation_n_mit",
        "security_table_single_mitigation_n_mit",
        "oracle_n_bo", "oracle_n_mit", "bw_bound_n_mit",
        "simulate_negative_tRFC", "simulate_negative_tREFI_and_tRFC",
        "domino_counter_bits_past_kernel"])
def test_out_of_range_values_exit_2_before_any_output(tmp_path, command,
                                                      yaml_text, section):
    # The default bank has 8-bit counters, so n_bo=300 cannot be counted,
    # nor the n_bo of about 2000 that PVAC solves for at hc=2048.
    cfg = write_cfg(tmp_path, yaml_text)
    outdir = tmp_path / "out"
    result = run_cli(command, "--config", cfg, "--out", str(outdir))
    assert result.exit_code == EXIT_CONFIG
    text = all_text(result)
    assert f"config error: {section}" in text, text
    assert not list(outdir.glob("*.csv"))


def _wrong(types):
    """A value that no key of `types` takes; for a list, a list holding
    one wrong item."""
    if isinstance(types, list):
        item = types[0]
        return [_wrong((item,)) if isinstance(item, type) else "x"]
    return 1 if str in types else "x"


def _base_config(command):
    """The least config `command` runs with: simulate needs a scheme."""
    if "scheme" in cli.TABLES[command]:
        return {"scheme": {"name": "PVAC", "n_bo": 32}}
    return {}


def _item_table(key):
    """The table each item of a list-of-mappings key is read against."""
    item = key.types[0] if isinstance(key.types, list) else None
    return item if isinstance(item, tuple) else ()


def _key_cases(value_of):
    """(command, section, section body, key path) for each key in every
    command's tables, and each key of a list of mappings, set to
    `value_of(key)`; a key it maps to None is left out."""
    for command, tables in cli.TABLES.items():
        for section, table in tables.items():
            for key in table:
                if value_of(key) is not None:
                    yield (command, section, {key.name: value_of(key)},
                           f"{section}.{key.name}")
                for inner in _item_table(key):
                    if value_of(inner) is not None:
                        point = dict(key.default[0])
                        point[inner.name] = value_of(inner)
                        yield (command, section, {key.name: [point]},
                               f"{section}.{key.name}[0].{inner.name}")


def _run_with(tmp_path, command, section, body):
    cfg = _base_config(command)
    cfg[section] = dict(cfg.get(section, {}), **body)
    outdir = tmp_path / "out"
    result = run_cli(command, "--config",
                     write_cfg(tmp_path, yaml.safe_dump(cfg)),
                     "--out", str(outdir))
    return result, outdir


def _key_params(value_of):
    # Test ids without nested brackets: points[0].n_mit is points.0.n_mit.
    return [pytest.param(*case, id=f"{case[0]}:{case[3]}".replace(
        "[", ".").replace("]", "")) for case in _key_cases(value_of)]


@pytest.mark.parametrize("command, section, body, path",
                         _key_params(lambda key: _wrong(key.types)))
def test_every_tabled_key_rejects_a_wrong_type(tmp_path, command, section,
                                               body, path):
    result, outdir = _run_with(tmp_path, command, section, body)
    assert result.exit_code == EXIT_CONFIG
    text = all_text(result)
    assert f"config error: {path}" in text, text
    assert not list(outdir.glob("*.csv"))


@pytest.mark.parametrize("command, section, body, path", _key_params(
    lambda key: None if key.minimum is None else key.minimum - 1))
def test_every_tabled_count_rejects_a_value_below_its_minimum(
        tmp_path, command, section, body, path):
    result, outdir = _run_with(tmp_path, command, section, body)
    assert result.exit_code == EXIT_CONFIG
    assert f"config error: {path} must be >= " in all_text(result)
    assert not list(outdir.glob("*.csv"))


# ---------------------------------------------------------------------------
# bw-bound


def test_bw_bound_default_points(tmp_path):
    outdir = tmp_path / "deep" / "nested" / "out"
    result = run_cli("bw-bound", "--out", str(outdir))
    assert result.exit_code == EXIT_OK
    header, rows = csv_rows(outdir / "bw_bound.csv")
    assert header == ["n_mit", "n_bo", "tRC_ns", "bound"]
    got = {(r[0], r[1]): float(r[3]) for r in rows}
    assert got[("4", "237")] == pytest.approx(0.1095804, abs=5e-7)
    assert got[("4", "52")] == pytest.approx(0.3411306, abs=5e-7)
    assert got[("1", "15")] == pytest.approx(0.3271028, abs=5e-7)
    assert got[("4", "43")] == pytest.approx(0.4041570, abs=5e-7)
    manifest = (outdir / "manifest.yaml").read_text()
    assert "scenario: bw-bound" in manifest
    assert "seed: 0" in manifest


def test_bw_bound_custom_point(tmp_path):
    cfg = write_cfg(tmp_path, """\
bw_bound:
  points:
    - {n_mit: 1, n_bo: 15, tRC_ns: 48.0}
""")
    outdir = tmp_path / "out"
    result = run_cli("bw-bound", "--config", cfg, "--out", str(outdir))
    assert result.exit_code == EXIT_OK
    _, rows = csv_rows(outdir / "bw_bound.csv")
    assert len(rows) == 1
    assert rows[0][:2] == ["1", "15"]
    assert float(rows[0][3]) == pytest.approx(0.3271028, abs=5e-7)


@pytest.mark.parametrize("yaml_text, needle", [
    ("bogus: 1\n", "bogus"),
    ("a: [unclosed\n", "not valid YAML"),
    ("bw_bound:\n  points: [3]\n", "must be a mapping"),
    ("bw_bound:\n  points: 3\n", "must be a non-empty list"),
    ("bw_bound:\n  points:\n    - {n_mit: 1, n_bo: 15}\n",
     "missing required key"),
])
def test_bw_bound_config_errors(tmp_path, yaml_text, needle):
    cfg = write_cfg(tmp_path, yaml_text)
    result = run_cli("bw-bound", "--config", cfg, "--out",
                     str(tmp_path / "out"))
    assert result.exit_code == EXIT_CONFIG
    assert needle in all_text(result)


@pytest.mark.parametrize("command, yaml_text, key, line", [
    # PyYAML alone keeps the second section and runs at the default n_bo.
    ("domino", "domino: {n_bo: 8, windows: 1}\n"
     "geometry: {rows_per_bank: 512, rows_per_dsa: 512}\n"
     "domino: {windows: 2}\n", "domino", 3),
    ("bw-bound", "bw_bound:\n  points:\n    - {n_mit: 1, n_bo: 15,\n"
     "       n_mit: 2}\n", "n_mit", 4),
], ids=["top-level", "in-a-list-item"])
def test_a_duplicated_key_exits_2_naming_it_and_its_line(
        tmp_path, command, yaml_text, key, line):
    cfg = write_cfg(tmp_path, yaml_text)
    result = run_cli(command, "--config", cfg, "--out",
                     str(tmp_path / "out"))
    assert result.exit_code == EXIT_CONFIG
    assert f"duplicate key {key!r}" in all_text(result)
    assert f"line {line}," in all_text(result)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("yaml_text, needle", [
    ("1: 2\nx: 3\n", "unknown key 1 "),
    ("bw_bound:\n  points:\n    - {n_mit: 1, n_bo: 15, 7: 1, z: 2}\n",
     "unknown key 'bw_bound.points[0].7'"),
], ids=["top-level", "in-a-list-item"])
def test_unknown_keys_of_mixed_types_exit_2(tmp_path, yaml_text, needle):
    cfg = write_cfg(tmp_path, yaml_text)
    result = run_cli("bw-bound", "--config", cfg, "--out",
                     str(tmp_path / "out"))
    assert result.exit_code == EXIT_CONFIG
    assert needle in all_text(result)


def test_absent_config_file_exits_2(tmp_path):
    result = run_cli("bw-bound", "--config", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path / "out"))
    assert result.exit_code == EXIT_CONFIG
    assert "config error" in all_text(result)


# ---------------------------------------------------------------------------
# csa-latency


def test_csa_latency_default_grid(tmp_path):
    outdir = tmp_path / "out"
    result = run_cli("csa-latency", "--out", str(outdir))
    assert result.exit_code == EXIT_OK
    header, rows = csv_rows(outdir / "csa_latency.csv")
    assert header[:2] == ["rows", "br"]
    assert len(rows) == 9
    by_point = {(r[0], r[1]): r for r in rows}
    base = by_point[("65536", "2")]
    assert base[3] == "4.150"                    # update component
    assert float(base[6]) == pytest.approx(35.05, abs=0.01)
    assert float(by_point[("65536", "1")][8]) == pytest.approx(
        0.916, abs=5e-4)
    # scaled access stays under the 48 ns activation budget everywhere
    assert all(float(r[7]) < 48.0 for r in rows)
    assert (outdir / "plot.gnuplot").exists()


@pytest.mark.parametrize("yaml_text, needle", [
    ("csa_latency:\n  rows: [100000]\n", "multiple of 65536"),
    ("csa_latency:\n  brs: [0]\n", "blast_radius"),
], ids=["rows_not_a_power_of_two_multiple", "zero_blast_radius"])
def test_csa_latency_rejects_bad_points(tmp_path, yaml_text, needle):
    cfg = write_cfg(tmp_path, yaml_text)
    outdir = tmp_path / "out"
    result = run_cli("csa-latency", "--config", cfg, "--out", str(outdir))
    assert result.exit_code == EXIT_CONFIG
    assert needle in all_text(result)
    assert not (outdir / "csa_latency.csv").exists()


# ---------------------------------------------------------------------------
# security-table


SEC_CFG = """\
security_table:
  max_hc: [32, 64]
  schemes: [PVAC, Chronus]
  n_mits: [1, 4]
"""


def test_security_table_values_and_rerun(tmp_path):
    cfg = write_cfg(tmp_path, SEC_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("security-table", "--config", cfg, "--out",
                   str(out1)).exit_code == EXIT_OK
    assert run_cli("security-table", "--config", cfg, "--out",
                   str(out2)).exit_code == EXIT_OK
    for name in ("security_table.csv", "manifest.yaml"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    text = (out1 / "security_table.csv").read_text()
    assert text.startswith("scheme,n_mit,max_hc,n_bo,")
    assert "PVAC,4,32,11," in text
    assert "PVAC,4,64,43," in text
    assert "Chronus,1,32,7," in text
    # a single mitigation per alert cannot protect PVAC at max_hc=32;
    # the row is kept, marked infeasible, and the run still succeeds
    inf_line = [ln for ln in text.splitlines()
                if ln.startswith("PVAC,1,32,")]
    assert len(inf_line) == 1
    assert inf_line[0].split(",")[3] == "inf"
    assert inf_line[0].endswith("false")


def test_security_table_manifest_echoes_an_int_budget(tmp_path):
    # An int setup budget stays an int in the echo; the other keys take
    # their defaults.
    cfg = write_cfg(tmp_path, "security_table: {max_hc: [32], schemes: "
                    "[PVAC], n_mits: [4], setup_budget_ns: 1000000}\n")
    outdir = tmp_path / "out"
    assert run_cli("security-table", "--config", cfg, "--out",
                   str(outdir)).exit_code == EXIT_OK
    assert (outdir / "manifest.yaml").read_text() == """\
scenario: security-table
security_table:
  granularity: body
  max_hc:
  - 32
  n_mits:
  - 4
  schemes:
  - PVAC
  setup_budget_ns: 1000000
  variant: literal
seed: 0
"""


def test_security_table_rejects_bad_variant(tmp_path):
    cfg = write_cfg(tmp_path, "security_table:\n  variant: sideways\n")
    result = run_cli("security-table", "--config", cfg, "--out",
                     str(tmp_path / "out"))
    assert result.exit_code == EXIT_CONFIG
    assert "security_table" in all_text(result)


# ---------------------------------------------------------------------------
# domino


DOMINO_PLOT_HEAD = """\
set datafile separator ","
set key autotitle columnhead
set xlabel 'refresh window'
set ylabel 'bandwidth'
"""


def test_domino_small_bank_separates_the_schemes(tmp_path):
    # On a 512-row bank the refresh sweep laps every 512 tREFI, so an
    # accumulating counter crosses n_bo=8 well inside the first window;
    # a self-resetting one never climbs past 6 and stays silent.
    cfg = write_cfg(tmp_path, """\
domino:
  windows: 2
  schemes: [PRAC, PVAC]
  n_bo: 8
  n_mit: 1
geometry:
  rows_per_bank: 512
  rows_per_dsa: 512
""")
    outdir = tmp_path / "out"
    result = run_cli("domino", "--config", cfg, "--out", str(outdir))
    assert result.exit_code == EXIT_OK
    header, rows = csv_rows(outdir / "domino.csv")
    assert header == ["scheme", "window", "counter_mean", "bandwidth",
                      "rfm_count", "alert_count"]
    assert len(rows) == 4
    prac = {int(r[1]): r for r in rows if r[0] == "PRAC"}
    pvac = {int(r[1]): r for r in rows if r[0] == "PVAC"}
    assert int(prac[0][5]) > 0
    assert all(int(r[5]) == 0 for r in pvac.values())
    assert all(int(r[4]) == 0 for r in pvac.values())
    for r in rows:
        assert 0.0 <= float(r[3]) <= 1.0
    assert (outdir / "plot.gnuplot").read_text() == DOMINO_PLOT_HEAD + (
        "plot 'domino.csv' using 2:(strcol(1) eq 'PRAC' ? $4 : 1/0) "
        "with lines title 'PRAC', \\\n"
        "     'domino.csv' using 2:(strcol(1) eq 'PVAC' ? $4 : 1/0) "
        "with lines title 'PVAC'\n")
    assert "scenario: domino" in (outdir / "manifest.yaml").read_text()


def test_domino_plots_each_scheme_it_runs(tmp_path):
    cfg = write_cfg(tmp_path, """\
domino: {windows: 1, schemes: [QPRAC, MOAT], n_bo: 8}
geometry: {rows_per_bank: 512, rows_per_dsa: 512}
refresh: {tREFW_ns: 8000000}
""")
    outdir = tmp_path / "out"
    result = run_cli("domino", "--config", cfg, "--out", str(outdir))
    assert result.exit_code == EXIT_OK
    assert (outdir / "plot.gnuplot").read_text() == DOMINO_PLOT_HEAD + (
        "plot 'domino.csv' using 2:(strcol(1) eq 'QPRAC' ? $4 : 1/0) "
        "with lines title 'QPRAC', \\\n"
        "     'domino.csv' using 2:(strcol(1) eq 'MOAT' ? $4 : 1/0) "
        "with lines title 'MOAT'\n")


def test_domino_unknown_scheme_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, "domino:\n  schemes: [PVACC]\n")
    result = run_cli("domino", "--config", cfg, "--out",
                     str(tmp_path / "out"))
    assert result.exit_code == EXIT_CONFIG
    assert "PVACC" in all_text(result)


# ---------------------------------------------------------------------------
# simulate


SIM_PREFIX = """\
scheme: {name: PVAC, n_bo: 32, n_mit: 4}
geometry: {rows_per_bank: 4096}
"""


def test_simulate_round_robin_summary(tmp_path):
    # 128 aggressors with a two-row gap leave ~256 victims climbing at
    # once — far more than the proactive hook can service — so the run
    # must raise alerts and back them with RFM bursts.
    cfg = write_cfg(tmp_path, SIM_PREFIX + """\
simulate:
  kind: round_robin
  n: 128
  stride: 3
  base_row: 100
""")
    outdir = tmp_path / "out"
    result = run_cli("simulate", "--config", cfg, "--out", str(outdir))
    assert result.exit_code == EXIT_OK
    assert not (outdir / "audit.txt").exists()
    lines = (outdir / "summary.csv").read_text().splitlines()
    assert lines[0] == "window,bandwidth,rfm_count,alert_count,blocked_ns"
    assert len(lines) == 3                      # one window plus totals
    total = lines[-1].split(",")
    assert total[0] == "total"
    assert int(total[2]) > 0 and int(total[3]) > 0
    window = lines[1].split(",")
    assert 0.0 < float(window[1]) < 1.0
    manifest = (outdir / "manifest.yaml").read_text()
    assert "kind: round_robin" in manifest
    assert "base_row: 100" in manifest
    assert "stride: 3" in manifest


def test_simulate_benign_rerun_is_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, SIM_PREFIX + """\
simulate:
  kind: benign
  count: 200
  act_gap_ns: 60.0
  write_events: true
""")
    out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for outdir, seed in ((out1, "7"), (out2, "7"), (out3, "8")):
        result = run_cli("simulate", "--config", cfg, "--out", str(outdir),
                         "--seed", seed)
        assert result.exit_code == EXIT_OK
    for name in ("summary.csv", "events.csv", "manifest.yaml"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert ((out1 / "events.csv").read_bytes()
            != (out3 / "events.csv").read_bytes())
    assert "ACT" in (out1 / "events.csv").read_text()


def test_simulate_manifest_echoes_the_resolved_config(tmp_path):
    # The int gap echoes as a float; MOAT's preset forces n_mit to 1 and
    # stretches tRFC to 410 ns, and the echo shows what ran.
    cfg = write_cfg(tmp_path, """\
scheme: {name: MOAT, n_bo: 32, n_mit: 2}
geometry: {rows_per_bank: 4096}
simulate: {kind: benign, count: 20, act_gap_ns: 60}
""")
    outdir = tmp_path / "out"
    assert run_cli("simulate", "--config", cfg, "--out",
                   str(outdir)).exit_code == EXIT_OK
    assert (outdir / "manifest.yaml").read_text() == """\
geometry:
  banks: 32
  blast_radius: 2
  counter_bits: 8
  rows_per_bank: 4096
  rows_per_dsa: 512
refresh:
  tREFI_ns: 3900.0
  tREFW_ns: 32000000.0
  tRFC_ns: 410.0
scenario: simulate
scheme:
  n_bo: 32
  n_mit: 1
  name: MOAT
  queue_depth: 20
seed: 0
simulate:
  act_gap_ns: 60.0
  base_row: 0
  count: 20
  duration_windows: 1
  kind: benign
  n: 8
  stride: 1
  trace: null
  write_events: false
"""


def test_simulate_trace_file(tmp_path):
    trace = tmp_path / "attack.trace"
    trace.write_text("# two touches, one timed\n"
                     "ASAP,0,ACT,10\n"
                     "7000,0,ACT,44\n")
    cfg = write_cfg(tmp_path, SIM_PREFIX
                    + f"simulate: {{trace: '{trace}'}}\n")
    outdir = tmp_path / "out"
    result = run_cli("simulate", "--config", cfg, "--out", str(outdir))
    assert result.exit_code == EXIT_OK
    assert "kind: file" in (outdir / "manifest.yaml").read_text()


def test_simulate_rejects_broken_traces(tmp_path):
    # The bank has 4096 rows and is bank 0; the run stops at the first
    # broken line, which the message names, and writes no output.
    for body, needle in ((b"ASAP,0,REF,0\n", "REF"),
                         (b"ASAP,0,ACT\n", "values"),
                         (b"ASAP,0,ACT,ten\n", "ten"),
                         (b"ASAP,0,ACT,5\n9000,0,ACT,4096\n", "row 4096 "),
                         (b"ASAP,0,ACT,-1\nASAP,0,ACT,5000\n", "row -1 "),
                         (b"ASAP,x,ACT,5\n", "bank 'x'"),
                         (b"ASAP,0,ACT,5\nASAP,7,ACT,6\n", "line 2: bank '7'"),
                         (b"ASAP,0,ACT,5\n-5,0,ACT,3\n", "line 2: time -5 "),
                         (b"ASAP,0,ACT,5\n\xff,0,ACT,3\n", "byte 0xff"),
                         (b"ASAP,0,ACT,5\n" * 1000 + b"\xff,0,ACT,3\n",
                          "line 1001: 'utf-8' codec can't decode byte 0xff"),
                         (b"ASAP,0,ACT,5\rASAP,0,ACT,5\r\n\xff,0,ACT,3\n",
                          "line 3: ")):
        trace = tmp_path / "attack.trace"
        trace.write_bytes(body)
        cfg = write_cfg(tmp_path, SIM_PREFIX
                        + f"simulate: {{trace: '{trace}'}}\n")
        outdir = tmp_path / "out"
        result = run_cli("simulate", "--config", cfg, "--out", str(outdir))
        assert result.exit_code == EXIT_CONFIG, body
        text = all_text(result)
        assert "simulate.trace" in text and needle in text, (body, text)
        assert not (outdir / "summary.csv").exists()


def test_simulate_checks_trace_lines_past_the_run(tmp_path):
    # The one-window run ends at the 33 ms ACT; the broken line after it
    # is still read and rejected.
    trace = tmp_path / "attack.trace"
    trace.write_text("ASAP,0,ACT,5\n33000000,0,ACT,6\nASAP,0,ACT,4096\n")
    cfg = write_cfg(tmp_path, SIM_PREFIX + f"simulate: {{trace: '{trace}'}}\n")
    outdir = tmp_path / "out"
    result = run_cli("simulate", "--config", cfg, "--out", str(outdir))
    assert result.exit_code == EXIT_CONFIG
    assert "simulate.trace: line 3: row 4096 " in all_text(result)
    assert not (outdir / "summary.csv").exists()


def test_simulate_trace_run_keeps_engine_faults_apart(tmp_path, monkeypatch):
    # Only the file's own errors are config errors; a fault inside the
    # run is not blamed on the trace.
    def broken_run(self, events, duration_ps):
        raise ValueError("engine fault")
    monkeypatch.setattr(cli.BankEngine, "stream_trace", broken_run)
    trace = tmp_path / "attack.trace"
    trace.write_text("ASAP,0,ACT,5\n")
    cfg = write_cfg(tmp_path, SIM_PREFIX + f"simulate: {{trace: '{trace}'}}\n")
    with pytest.raises(ValueError, match="^engine fault$"):
        run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "out"))


def test_simulate_bad_line_inside_the_run_leaves_no_output(tmp_path):
    # The broken line is read mid-run, after events.csv has begun: the
    # run still exits 2 and leaves the output directory empty.
    trace = tmp_path / "attack.trace"
    trace.write_text("ASAP,0,ACT,5\n" * 3000 + "ASAP,0,ACT,4096\n")
    cfg = write_cfg(tmp_path, SIM_PREFIX + f"simulate: {{trace: '{trace}', "
                    "write_events: true}\n")
    outdir = tmp_path / "out"
    result = run_cli("simulate", "--config", cfg, "--out", str(outdir))
    assert result.exit_code == EXIT_CONFIG
    assert "simulate.trace: line 3001: row 4096 " in all_text(result)
    assert list(outdir.iterdir()) == []


def test_simulate_events_csv_write_error_is_not_the_trace(tmp_path,
                                                          monkeypatch):
    # An OSError raised while events.csv is written is no trace error;
    # it leaves no events.csv, whole or partial, behind.
    def failing_lines(log):
        yield "time_ns,bank,event,row,counter_after"
        raise OSError(28, "No space left on device")
    monkeypatch.setattr(cli, "log_to_csv_lines", failing_lines)
    trace = tmp_path / "attack.trace"
    trace.write_text("ASAP,0,ACT,5\n" * 3000)
    cfg = write_cfg(tmp_path, SIM_PREFIX + f"simulate: {{trace: '{trace}', "
                    "write_events: true}\n")
    outdir = tmp_path / "out"
    with pytest.raises(OSError, match="No space left on device"):
        run_cli("simulate", "--config", cfg, "--out", str(outdir))
    assert list(outdir.iterdir()) == []


class FastActEngine(cli.BankEngine):
    """An engine that admits ACTs half the scheme's tRC apart."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._tRC //= 2


def test_simulate_audit_failure_exits_3_with_its_outputs(tmp_path,
                                                         monkeypatch):
    monkeypatch.setattr(cli, "BankEngine", FastActEngine)
    cfg = write_cfg(tmp_path, SIM_PREFIX + """\
refresh: {tREFW_ns: 1000000}
simulate: {kind: round_robin, n: 8, stride: 3, write_events: true}
""")
    outdir = tmp_path / "out"
    result = run_cli("simulate", "--config", cfg, "--out", str(outdir))
    assert result.exit_code == EXIT_INVARIANT
    problems = (outdir / "audit.txt").read_text().splitlines()
    assert f"audit failed: {len(problems)} violations" in all_text(result)
    assert sum("violates tRC" in p for p in problems) > 1000
    events = (outdir / "events.csv").read_text().splitlines()
    assert events[0] == "time_ns,bank,event,row,counter_after"
    assert sum(",ACT," in line for line in events) > 1000
    assert (outdir / "summary.csv").exists()
    manifest = yaml.safe_load((outdir / "manifest.yaml").read_text())
    assert manifest["scenario"] == "simulate"


# Each simulate kind on a 1024-row bank with a 1 ms tREFW, each long
# enough that the engine drains its log several times.
STREAM_PREFIX = """\
scheme: {name: PVAC, n_bo: 16, n_mit: 4}
geometry: {rows_per_bank: 1024, rows_per_dsa: 256}
refresh: {tREFW_ns: 1000000}
"""
STREAM_CASES = {
    "idle": "{kind: idle, duration_windows: 12}",
    "round_robin": "{kind: round_robin, n: 8, stride: 3, base_row: 40}",
    "benign": "{kind: benign, count: 5000, act_gap_ns: 100.0}",
    "file": "{trace: attack.trace}",
    "fast_act": "{kind: round_robin, n: 8, stride: 3}",
}


def stream_trace_file(path):
    """Timed background ACTs with an ASAP burst after every 100th."""
    rng = random.Random(5)
    lines = []
    for k in range(3000):
        lines.append(f"{300 * (k + 1)},0,ACT,{rng.randrange(1024)}")
        if k % 100 == 0:
            lines.extend(f"ASAP,0,ACT,{500 + 2 * (j % 3)}" for j in range(40))
    path.write_text("\n".join(lines) + "\n")


def kept_log_outputs(cfg, trace, seed):
    """events.csv, summary.csv and the audit problems of the config's
    run on the kept-log path: `run_trace`, then the whole log to
    `log_to_csv_lines` and `audit_log`."""
    sim = cfg["simulate"]
    scheme, geometry = config.scheme_from(cfg), config.geometry_from(cfg)
    refresh = config.refresh_from(cfg, scheme)
    engine = cli.BankEngine(scheme, geometry, refresh)
    if "trace" in sim:
        with open(trace, encoding="utf-8") as fh:
            events = list(attacks.lines_to_trace(fh, geometry.rows_per_bank))
    elif sim["kind"] == "idle":
        events = []
    elif sim["kind"] == "round_robin":
        events = attacks.gen_round_robin(attacks.RoundRobinSpec(
            n=sim["n"], stride=sim["stride"], base_row=sim.get("base_row", 0)))
    else:
        events = attacks.gen_benign(geometry, seed, ns(sim["act_gap_ns"]),
                                    sim["count"])
    metrics = engine.run_trace(
        events, sim.get("duration_windows", 1) * refresh.window_ps)
    summary = [f"{w.index},{w.bandwidth:.6f},{w.rfm_count},"
               f"{w.alert_count},{w.blocked_ps / 1000.0:.3f}"
               for w in metrics.windows]
    summary.append(f"total,,{metrics.rfms_issued},{metrics.alerts_raised},"
                   f"{metrics.act_blocked_ps / 1000.0:.3f}")
    return (len(engine.log), "\n".join(log_to_csv_lines(engine.log)) + "\n",
            summary, audit_log(engine.log, scheme, refresh))


@pytest.mark.parametrize("mod", kernels(), ids=lambda m: m.KERNEL_BUILD)
@pytest.mark.parametrize("case", sorted(STREAM_CASES))
def test_simulate_stream_matches_the_kept_log(tmp_path, monkeypatch, mod,
                                              case):
    monkeypatch.setattr(counters, "CounterCore", mod.CounterCore)
    monkeypatch.setattr(schemes, "TopQueue", mod.TopQueue)
    if case == "fast_act":
        monkeypatch.setattr(cli, "BankEngine", FastActEngine)
    monkeypatch.chdir(tmp_path)
    stream_trace_file(tmp_path / "attack.trace")
    text = (STREAM_PREFIX + "simulate: " + STREAM_CASES[case][:-1]
            + ", write_events: true}\n")
    cfg = write_cfg(tmp_path, text)
    outdir = tmp_path / "out"
    result = run_cli("simulate", "--config", cfg, "--out", str(outdir),
                     "--seed", "3")
    events, csv_text, summary, problems = kept_log_outputs(
        yaml.safe_load(text), tmp_path / "attack.trace", 3)
    assert events > 2 * LOG_CHUNK
    assert (outdir / "events.csv").read_text() == csv_text
    _header, rows = csv_rows(outdir / "summary.csv")
    assert [",".join(row) for row in rows] == summary
    if case == "fast_act":
        assert problems
        assert result.exit_code == EXIT_INVARIANT
        assert (outdir / "audit.txt").read_text().splitlines() == problems
    else:
        assert problems == []
        assert result.exit_code == EXIT_OK
        assert not (outdir / "audit.txt").exists()


def test_simulate_keeps_a_bounded_log(tmp_path, monkeypatch):
    # A saturating stride-3 PVAC run of six 1 ms windows logs over 100k
    # events; at each drain the log keeps fewer than LOG_CHUNK events
    # plus those of the step, an ACT or an idle REF, that filled it.
    kept_at_drain, step_events = [], [0]
    drain = EventLog.drain

    def spy_drain(log):
        kept_at_drain.append(len(log.kinds))
        return drain(log)

    def step_spy(method):
        def step(engine, *args):
            before = len(engine.log)
            result = method(engine, *args)
            step_events[0] = max(step_events[0], len(engine.log) - before)
            return result
        return step
    monkeypatch.setattr(EventLog, "drain", spy_drain)
    for name in ("issue_act", "advance_to"):
        monkeypatch.setattr(cli.BankEngine, name,
                            step_spy(getattr(cli.BankEngine, name)))
    cfg = write_cfg(tmp_path, STREAM_PREFIX + """\
simulate: {kind: round_robin, n: 8, stride: 3, duration_windows: 6,
           write_events: true}
""")
    outdir = tmp_path / "out"
    result = run_cli("simulate", "--config", cfg, "--out", str(outdir))
    assert result.exit_code == EXIT_OK
    logged = sum(kept_at_drain)
    print(f"{logged} events in {len(kept_at_drain)} drains, at most "
          f"{max(kept_at_drain)} kept; largest step {step_events[0]}")
    assert logged >= 100_000
    assert logged + 1 == len(
        (outdir / "events.csv").read_text().splitlines())
    assert 0 < step_events[0] < 64
    assert max(kept_at_drain) <= LOG_CHUNK - 1 + step_events[0]


@pytest.mark.parametrize("body, needle", [
    ("count: -1", "count >= 0"),
    ("act_gap_ns: 0", "act_gap_ps must be >= 1"),
], ids=["negative_count", "zero_gap"])
def test_simulate_benign_rejects_bad_input(tmp_path, body, needle):
    cfg = write_cfg(tmp_path, SIM_PREFIX
                    + f"simulate: {{kind: benign, {body}}}\n")
    outdir = tmp_path / "out"
    result = run_cli("simulate", "--config", cfg, "--out", str(outdir))
    assert result.exit_code == EXIT_CONFIG
    text = all_text(result)
    assert "simulate" in text and needle in text
    assert not (outdir / "summary.csv").exists()


def test_simulate_unknown_kind_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, SIM_PREFIX + "simulate: {kind: flood}\n")
    result = run_cli("simulate", "--config", cfg, "--out",
                     str(tmp_path / "out"))
    assert result.exit_code == EXIT_CONFIG
    assert "flood" in all_text(result)


# ---------------------------------------------------------------------------
# sweep-stride


def test_sweep_stride_jobs_do_not_change_the_bytes(tmp_path):
    cfg = write_cfg(tmp_path, """\
sweep_stride:
  hc: [32]
  strides: [1, 2]
  n: 8
  scheme: PVAC
  n_mit: 4
  windows: 1
""")
    out1, out2 = tmp_path / "serial", tmp_path / "parallel"
    assert run_cli("sweep-stride", "--config", cfg, "--out", str(out1),
                   "--jobs", "1").exit_code == EXIT_OK
    assert run_cli("sweep-stride", "--config", cfg, "--out", str(out2),
                   "--jobs", "2").exit_code == EXIT_OK
    for name in ("sweep_stride.csv", "manifest.yaml"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    header, rows = csv_rows(out1 / "sweep_stride.csv")
    assert header[0] == "hc"
    assert [r[1] for r in rows] == ["1", "2"]   # sorted by stride
    for r in rows:
        assert r[3] == "11"                     # solver's n_bo for hc=32
        assert int(r[7]) > 0


def solved_only(args):
    """A sweep cell that only reports its scheme's n_bo."""
    hc, stride, n, config, _windows, _geometry = args
    return (hc, stride), f"{hc},{stride},{n},{config.n_bo},,,,"


@pytest.mark.parametrize("scheme, n_bo", [("PVAC", "47"), ("PRAC", "19")])
def test_sweep_stride_solves_n_bo_for_the_geometry_blast_radius(
        tmp_path, monkeypatch, scheme, n_bo):
    # At blast radius 1 the hc-64 thresholds are 47 and 19; the radius-2
    # solution would be 46 and 5.  Each job only reports its scheme's n_bo.
    monkeypatch.setattr(cli, "_sweep_point", solved_only)
    cfg = write_cfg(tmp_path, f"""\
sweep_stride: {{hc: [64], strides: [1], n: 8, scheme: {scheme}}}
geometry: {{rows_per_bank: 4096, blast_radius: 1}}
""")
    outdir = tmp_path / "out"
    assert run_cli("sweep-stride", "--config", cfg, "--out",
                   str(outdir)).exit_code == EXIT_OK
    _header, rows = csv_rows(outdir / "sweep_stride.csv")
    assert [r[3] for r in rows] == [n_bo]


def test_sweep_stride_manifest_echoes_the_resolved_config(tmp_path,
                                                         monkeypatch):
    monkeypatch.setattr(cli, "_sweep_point", solved_only)
    cfg = write_cfg(tmp_path, """\
sweep_stride: {hc: [64], strides: [1], n: 8, scheme: PVAC}
geometry: {rows_per_bank: 4096, blast_radius: 1}
""")
    outdir = tmp_path / "out"
    assert run_cli("sweep-stride", "--config", cfg, "--out",
                   str(outdir)).exit_code == EXIT_OK
    assert (outdir / "manifest.yaml").read_text() == """\
geometry:
  banks: 32
  blast_radius: 1
  counter_bits: 8
  rows_per_bank: 4096
  rows_per_dsa: 512
scenario: sweep-stride
seed: 0
sweep_stride:
  hc:
  - 64
  n: 8
  n_mit: 4
  queue_depth: 20
  scheme: PVAC
  strides:
  - 1
  windows: 1
"""


def test_sweep_stride_starts_no_more_workers_than_cells(tmp_path,
                                                       monkeypatch):
    # A stand-in pool records its size and maps in this process.
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(cli, "_sweep_point", solved_only)
    cfg = write_cfg(tmp_path, "sweep_stride: {hc: [32], strides: [1, 2], "
                    "n: 8}\n")
    for jobs, size in (("5000", 2), ("2", 2)):
        outdir = tmp_path / jobs
        assert run_cli("sweep-stride", "--config", cfg, "--out", str(outdir),
                       "--jobs", jobs).exit_code == EXIT_OK
        assert sizes.pop() == size
        _header, rows = csv_rows(outdir / "sweep_stride.csv")
        assert [r[1] for r in rows] == ["1", "2"]


def test_sweep_stride_unknown_scheme_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, "sweep_stride:\n  scheme: Nonesuch\n")
    result = run_cli("sweep-stride", "--config", cfg, "--out",
                     str(tmp_path / "out"))
    assert result.exit_code == EXIT_CONFIG
    assert "Nonesuch" in all_text(result)


@pytest.mark.parametrize("body, needle", [
    ("strides: [1, 6]", "strides[1]=6 with n=128: stride must be in 1..5"),
    ("n: 20000", "strides[3]=4 with n=20000: pool spans rows up to 79996"),
    ("n: 0", "strides[0]=1 with n=0: pool size must be >= 1"),
], ids=["stride_out_of_range", "pool_past_the_bank", "empty_pool"])
def test_sweep_stride_rejects_bad_pools_before_any_job(tmp_path, body,
                                                       needle):
    # The default bank has 65536 rows: a 20000-row pool fits at strides
    # 1..3 and first leaves the bank at stride 4.
    cfg = write_cfg(tmp_path, f"sweep_stride: {{{body}}}\n")
    outdir = tmp_path / "out"
    result = run_cli("sweep-stride", "--config", cfg, "--out", str(outdir))
    assert result.exit_code == EXIT_CONFIG
    assert f"sweep_stride: {needle}" in all_text(result)
    assert not (outdir / "sweep_stride.csv").exists()


# ---------------------------------------------------------------------------
# oracle-check


def test_oracle_check_small_grid_is_sound(tmp_path):
    cfg = write_cfg(tmp_path, """\
oracle_check:
  schemes: [PVAC]
  n_bos: [8]
  n_mits: [4]
  rows: 64
""")
    outdir = tmp_path / "out"
    result = run_cli("oracle-check", "--config", cfg, "--out", str(outdir))
    assert result.exit_code == EXIT_OK
    header, rows = csv_rows(outdir / "oracle_check.csv")
    assert header == ["scheme", "n_mit", "n_bo", "r1", "observed_hc",
                      "bound_hc", "sound"]
    assert len(rows) == 1
    assert rows[0][:3] == ["PVAC", "4", "8"]
    assert rows[0][6] == "true"
    assert int(rows[0][4]) <= int(rows[0][5])


def test_oracle_check_names_a_point_the_scheme_cannot_run(tmp_path):
    # MOAT's n_mit-1 point is valid and sorts first; the n_mit-4 point
    # still stops the grid before any run.
    cfg = write_cfg(tmp_path, """\
oracle_check:
  schemes: [MOAT]
  n_bos: [8]
  n_mits: [1, 4]
  rows: 64
""")
    outdir = tmp_path / "out"
    result = run_cli("oracle-check", "--config", cfg, "--out", str(outdir))
    assert result.exit_code == EXIT_CONFIG
    text = all_text(result)
    assert "config error: oracle_check: MOAT n_bo=8 n_mit=4" in text, text
    assert not (outdir / "oracle_check.csv").exists()


def test_oracle_check_rejects_out_of_range_banks(tmp_path):
    for rows in (8, 8192):
        cfg = write_cfg(tmp_path, f"oracle_check:\n  rows: {rows}\n")
        result = run_cli("oracle-check", "--config", cfg, "--out",
                         str(tmp_path / "out"))
        assert result.exit_code == EXIT_CONFIG
        assert "oracle_check: " in all_text(result)
        assert "[16, 4096]" in all_text(result)
    # A bank too small to build is a config error too, not a crash.
    cfg = write_cfg(tmp_path, "oracle_check:\n  rows: 0\n")
    result = run_cli("oracle-check", "--config", cfg, "--out",
                     str(tmp_path / "out"))
    assert result.exit_code == EXIT_CONFIG
    assert not (tmp_path / "out" / "oracle_check.csv").exists()
