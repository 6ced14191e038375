import csv
import inspect
import json
import math
import re
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import pytest

from blindjam import cli, experiments
from blindjam.cli import entrypoint, parse_int_list, parse_p_grid
from blindjam.constellation import DminRow, fit_dmin_exponent
from blindjam.experiments import ComparisonReport, SerRow, SweepRow, fit_dof, write_rows
from blindjam.schemes import schedule_q

FAST_SWEEP = ["--mi-samples", "200", "--ser-trials", "400", "--min-errors", "5"]


def test_parse_p_grid_forms():
    assert parse_p_grid("1e2,1e3,1e4") == [100.0, 1000.0, 10000.0]
    assert parse_p_grid([1e2, 1e3]) == [100.0, 1000.0]
    assert parse_p_grid("1e2:1e4:1") == pytest.approx([100.0, 1000.0, 10000.0])
    assert parse_p_grid("1e2:1e3:2") == pytest.approx(
        [100.0, 100.0 * 10**0.5, 1000.0])
    # a range ends at its last point not above stop
    assert parse_p_grid("1e2:5e2:1") == [100.0]
    assert parse_p_grid("1:9:1") == [1.0]
    assert parse_p_grid("1e2:3e3:2") == pytest.approx([100.0, 100.0 * 10**0.5, 1000.0])
    assert parse_p_grid("1e2:1e5:3")[-1] == pytest.approx(1e5)
    assert len(parse_p_grid("1e2:1e5:3")) == 10
    with pytest.raises(ValueError):
        parse_p_grid("1e2:1e4")
    with pytest.raises(ValueError):
        parse_p_grid("1e4:1e2:1")
    with pytest.raises(ValueError):
        parse_p_grid("")


@pytest.mark.parametrize("grid", ["1e2,1e3,inf", "1e2,nan", "0,1e2", "1e2,-1e3",
                                  "1e2:inf:2", "0:1e3:2", "1e2:1e3:x"])
def test_bad_power_grid_exits_2(grid, capsys):
    with pytest.raises(SystemExit) as ei:
        entrypoint(["sweep", "--m", "1", "--p", grid])
    assert ei.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_parse_int_list():
    assert parse_int_list("2,4,8") == [2, 4, 8]
    assert parse_int_list([2, 4]) == [2, 4]
    with pytest.raises(ValueError):
        parse_int_list("")


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as ei:
        entrypoint(["sweep", "--p", "1e2,1e3,1e4"])
    assert ei.value.code == 2


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as ei:
        entrypoint(["frobnicate"])
    assert ei.value.code == 2
    # the leakage slope is `sweep --no-ser` plus `report`, not a command
    with pytest.raises(SystemExit) as ei:
        entrypoint(["leakage", "--m", "1", "--p", "1e2,1e3,1e4"])
    assert ei.value.code == 2


def test_sweep_row_cardinality_and_manifest(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = entrypoint(["sweep", "--m", "1", "--delta", "0.05",
                     "--p", "1e2,1e3,1e4", "--draws", "5", "--seed", "42",
                     "--out", str(out)] + FAST_SWEEP)
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 16  # header + 5 draws x 3 powers
    manifest = tmp_path / "sweep.manifest.json"
    assert manifest.exists()
    payload = json.loads(manifest.read_text())
    assert payload["command"] == "sweep" and payload["seed"] == 42
    assert "15 rows" in capsys.readouterr().out


def test_sweep_identical_invocations_identical_bytes(tmp_path):
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--m", "1", "--p", "1e2,1e3,1e4", "--draws", "2",
            "--seed", "7", "--out", str(out)] + FAST_SWEEP
    assert entrypoint(args) == 0
    first_csv = out.read_bytes()
    first_manifest = (tmp_path / "sweep.manifest.json").read_bytes()
    assert entrypoint(args) == 0
    assert out.read_bytes() == first_csv
    assert (tmp_path / "sweep.manifest.json").read_bytes() == first_manifest


def test_sweep_worker_count_invariant(tmp_path):
    base = ["sweep", "--m", "1", "--p", "1e2,1e3,1e4", "--draws", "2",
            "--seed", "7"] + FAST_SWEEP
    out1, out3 = tmp_path / "w1.csv", tmp_path / "w3.csv"
    assert entrypoint(base + ["--out", str(out1), "--workers", "1"]) == 0
    assert entrypoint(base + ["--out", str(out3), "--workers", "3"]) == 0
    assert out1.read_bytes() == out3.read_bytes()


def test_config_file_defaults_and_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"m": 1, "p": "1e2,1e3,1e4", "draws": 4,
                               "seed": 7, "mi_samples": 200,
                               "ser_trials": 400, "min_errors": 5}))
    out = tmp_path / "sweep.csv"
    rc = entrypoint(["sweep", "--config", str(cfg), "--draws", "2",
                     "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 1 + 2 * 3  # flag wins over file


def _bad_config(tmp_path, text):
    cfg = tmp_path / "run.json"
    if text is not None:
        cfg.write_text(text)
    return str(cfg)


@pytest.mark.parametrize("command, text", [
    ("sweep", None),  # no such file
    ("sweep", "{bad"),
    ("sweep", "[1, 2]"),
    ("compare", json.dumps({"m": "x", "p": "1e2,1e3,1e4"})),
    # list entries are not cast: 3.5 is no integer, true no number
    ("dmin", json.dumps({"m": 1, "q": [2, 3.5, 8]})),
    ("dmin", json.dumps({"m": 1, "q": [2, True, 8]})),
    ("ser", json.dumps({"m": 1, "p": [True, 10, 100]})),
    # a kind outside KINDS exits 2, as the flag does
    ("sweep", json.dumps({"m": 1, "p": "1e2,1e3,1e4", "kind": "Foo"})),
])
def test_bad_config_exits_2(command, text, tmp_path, capsys):
    with pytest.raises(SystemExit) as ei:
        entrypoint([command, "--config", _bad_config(tmp_path, text),
                    "--out", str(tmp_path / "out.csv")])
    assert ei.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command, args, extra", [
    ("sweep", ["--m", "1", "--p", "1e2,1e3,1e4", "--draws", "1"] + FAST_SWEEP,
     {"sigma1": 0.5, "trials": 7, "command": "ser", "package_version": "0.0.0"}),
    ("dmin", ["--m", "1", "--q", "2,4,8", "--draws", "2"],
     {"kind": "Foo", "workers": 0, "p": "x", "gamma_rule": "other"}),
])
def test_config_keys_the_command_does_not_take_are_ignored(command, args, extra, tmp_path):
    # neither applied nor recorded: the run and its manifest are those of
    # the same flags without the file
    plain, configured = tmp_path / "plain.csv", tmp_path / "configured.csv"
    assert entrypoint([command, "--out", str(plain)] + args) == 0
    (tmp_path / "run.json").write_text(json.dumps(extra))
    assert entrypoint([command, "--config", str(tmp_path / "run.json"),
                       "--out", str(configured)] + args) == 0
    assert configured.read_bytes() == plain.read_bytes()
    first = json.loads((tmp_path / "plain.manifest.json").read_text())
    again = json.loads((tmp_path / "configured.manifest.json").read_text())
    assert again.pop("out") == str(configured) and first.pop("out") == str(plain)
    assert again == first


# each command's flags besides --help and --config
HELP_FLAGS = {
    "sweep": ("--m --p --kind --delta --draws --seed --workers --mi-samples --ser-trials "
              "--min-errors --no-ser --out"),
    "ser": "--m --p --kind --delta --draws --seed --workers --trials --min-errors --sigma1 --out",
    "eve": "--m --p --delta --draws --seed --workers --trials --out",
    "dmin": "--m --q --draws --seed --out",
    "compare": "--m --p --delta --draws --seed --workers --mi-samples --exclude-lowest --out",
    "report": "--input --exclude-lowest --out",
}


@pytest.mark.parametrize("command", sorted(HELP_FLAGS))
def test_help_lists_exactly_the_table_row(command, capsys):
    assert set(cli._COMMANDS) == set(HELP_FLAGS)
    with pytest.raises(SystemExit) as ei:
        entrypoint([command, "--help"])
    assert ei.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", capsys.readouterr().out))
    flags = set(HELP_FLAGS[command].split())
    assert listed == flags | {"--help", "--config"}
    assert {cli._flag(name) for name in cli._COMMANDS[command][1]} == flags


def test_readme_config_table_is_the_command_table():
    # README's `| command | --config keys |` table, row by row
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = readme.split("| command | `--config` keys |\n| --- | --- |\n", 1)[1].splitlines()
    rows = []
    for line in lines:
        if not line.startswith("|"):
            break
        command, keys = (cell.strip() for cell in line.strip("|").split("|"))
        rows.append((command, keys.split(", ")))
    assert rows == [(command, list(options)) for command, (_, options) in cli._COMMANDS.items()]


def test_readme_csv_schemas_are_the_row_types(tmp_path):
    # README's "CSV schemas": the sweep table's column groups, in order, are
    # SweepRow's fields; the ser and dmin lines the row types' fields; the two
    # summary lines the columns compare and report write
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## CSV schemas\n", 1)[1]
    table = section.split("| column | meaning |\n| --- | --- |\n", 1)[1]
    groups = []
    for line in table.splitlines():
        if not line.startswith("|"):
            break
        groups += line.strip("|").split("|")[0].strip().split(", ")
    assert groups == [f.name for f in fields(SweepRow)]

    def line(name):
        return re.split(r",\s*", re.search(rf"^{name}: `([^`]*)`", section, re.M).group(1))

    assert line("`ser`") == [f.name for f in fields(SerRow)]
    assert line("`dmin`") == [f.name for f in fields(DminRow)]
    rows = _planted_rows()
    report = ComparisonReport(fits={kind: fit_dof(rows) for kind in cli.KINDS}, rows=())
    write_rows(report.summary(), tmp_path / "compare.csv")
    write_rows(rows, tmp_path / "sweep.csv")
    assert entrypoint(["report", "--input", str(tmp_path / "sweep.csv"),
                       "--out", str(tmp_path / "report.csv")]) == 0
    for name, path in (("`compare` summary", "compare.csv"), ("`report` summary", "report.csv")):
        assert line(name) == (tmp_path / path).read_text().splitlines()[0].split(",")


@pytest.mark.parametrize("args", [
    ["sweep", "--m", "1", "--p", "1e2,1e3,1e4", "--workers", "-5"],
    ["compare", "--m", "1", "--p", "1e2,1e3,1e4", "--workers", "0"],
    ["ser", "--m", "1", "--p", "1e2,1e3,1e4", "--min-errors", "-3"],
    ["dmin", "--m", "0", "--q", "2,4,8"],
    ["sweep", "--m", "1", "--p", "1e2,1e3,1e4", "--seed", "-1"],
    ["dmin", "--m", "1", "--q", "2,4,8", "--seed", "-1"],
    ["compare", "--m", "1", "--p", "1e2,1e3,1e4", "--draws", "0"],
    ["dmin", "--m", "1", "--q", "2,4,8", "--draws", "0"],
    ["ser", "--m", "1", "--p", "1e2,1e3,1e4", "--trials", "0"],
    ["eve", "--m", "1", "--p", "1e2,1e3,1e4", "--trials", "0"],
    ["sweep", "--m", "1", "--p", "1e2,1e3,1e4", "--mi-samples", "1"],
    ["compare", "--m", "1", "--p", "1e2,1e3,1e4", "--mi-samples", "1"],
    ["sweep", "--m", "1", "--p", "1e2,1e3,1e4", "--ser-trials", "0"],
    ["sweep", "--m", "1", "--p", "1e2,1e3,1e4", "--ser-trials", "-3"],
])
def test_workers_and_min_errors_below_range_exit_2(args, tmp_path, capsys):
    with pytest.raises(SystemExit) as ei:
        entrypoint(args + ["--out", str(tmp_path / "out.csv")])
    assert ei.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: blindjam {args[0]} [-h]")
    assert re.search(r"error: --[a-z-]+ must be >= \d+$", err.rstrip())
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["sweep", "ser", "eve", "compare"])
@pytest.mark.parametrize("flag, value", [("--m", "0"), ("--delta", "0.5"), ("--delta", "0")])
def test_m_and_delta_out_of_range_exit_2(command, flag, value, tmp_path, capsys):
    with pytest.raises(SystemExit) as ei:
        entrypoint([command, "--m", "1", "--p", "1e2,1e3,1e4", flag, value,
                    "--out", str(tmp_path / "o.csv")])
    assert ei.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: blindjam {command} [-h]")
    assert f"error: {flag} must" in err
    assert list(tmp_path.iterdir()) == []


def test_sweep_reliability_columns_are_the_ser_rows(tmp_path):
    # both commands count the legitimate receiver's errors of the same cells
    grid = ["--m", "1", "--p", "1e2,1e3,1e4", "--draws", "2", "--min-errors", "20"]
    assert entrypoint(["sweep", *grid, "--mi-samples", "200", "--ser-trials", "3000",
                       "--out", str(tmp_path / "sweep.csv")]) == 0
    assert entrypoint(["ser", *grid, "--delta", "0.05", "--trials", "3000",
                       "--out", str(tmp_path / "ser.csv")]) == 0
    with open(tmp_path / "sweep.csv", newline="") as fh:
        sweep = list(csv.DictReader(fh))
    with open(tmp_path / "ser.csv", newline="") as fh:
        ser = list(csv.DictReader(fh))
    assert len(sweep) == len(ser) == 6
    assert ([[r[k] for k in ("draw_id", "p", "trials", "errors", "ser", "ser_stderr")]
             for r in sweep]
            == [[r[k] for k in ("draw_id", "p", "trials", "errors", "rate", "stderr")]
                for r in ser])


def test_refusal_prints_the_usage_of_its_command(capsys):
    # as argparse's own errors do: the subcommand's usage, not the top level's
    with pytest.raises(SystemExit) as ei:
        entrypoint(["sweep", "--m", "1", "--p", "1e2,1e3,1e4", "--workers", "0"])
    assert ei.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: blindjam sweep [-h]")
    assert err.rstrip().endswith("error: --workers must be >= 1")


def test_manifest_replays_byte_identically(tmp_path):
    out1 = tmp_path / "run1.csv"
    rc = entrypoint(["sweep", "--m", "1", "--p", "1e2,1e3,1e4", "--draws", "2",
                     "--seed", "9", "--out", str(out1)] + FAST_SWEEP)
    assert rc == 0
    out2 = tmp_path / "run2.csv"
    rc = entrypoint(["sweep", "--config", str(tmp_path / "run1.manifest.json"),
                     "--out", str(out2)])
    assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()


REPLAY_ARGS = {
    "ser": ["--m", "1", "--p", "1e2,1e3", "--draws", "2", "--delta", "0.25",
            "--trials", "2000", "--min-errors", "20", "--sigma1", "0.5"],
    "sweep": ["--no-ser", "--kind", "CsiAligned", "--m", "1", "--p", "1e2,1e3,1e4,1e5",
              "--draws", "2", "--mi-samples", "200"],
    "compare": ["--m", "1", "--p", "1e2,1e3,1e4", "--draws", "1",
                "--mi-samples", "200", "--workers", "2"],
    "dmin": ["--m", "2", "--q", "2,4,8", "--draws", "2"],
}


@pytest.mark.parametrize("command", sorted(REPLAY_ARGS))
def test_manifest_replay_is_byte_identical(command, tmp_path):
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    assert entrypoint([command, "--seed", "9", "--out", str(out1)]
                      + REPLAY_ARGS[command]) == 0
    manifest1 = tmp_path / "run1.manifest.json"
    assert entrypoint([command, "--config", str(manifest1), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    if command == "compare":
        assert ((tmp_path / "run1_rows.csv").read_bytes()
                == (tmp_path / "run2_rows.csv").read_bytes())
    first = json.loads(manifest1.read_text())
    again = json.loads((tmp_path / "run2.manifest.json").read_text())
    assert again.pop("out") == str(out2) and first.pop("out") == str(out1)
    assert again == first
    if command == "sweep":
        assert again["include_ser"] is False


@pytest.mark.parametrize("command,runner,args", [
    ("compare", "compare_schemes", ["--m", "1", "--p", "1e2,1e3,1e4"]),
    ("dmin", "fit_dmin_exponent", ["--m", "1", "--q", "2,4,8"]),
    ("report", "read_sweep_csv", ["--input", "in.csv"]),
])
def test_unwritable_out_dir_exits_1_before_running(command, runner, args, tmp_path,
                                                   monkeypatch, capsys):
    def unreachable(*a, **k):
        raise AssertionError("the command ran before its output path was checked")

    monkeypatch.setattr(cli, runner, unreachable)
    out = tmp_path / "missing" / "x.csv"
    assert entrypoint([command, "--out", str(out)] + args) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.parent.exists()
    if command != "report":  # where an empty --out means no summary file
        assert entrypoint([command, "--out", ""] + args) == 1
        assert "error:" in capsys.readouterr().err
    # each file the command would write (the CSV, its manifest, compare's
    # rows) that is an existing directory is refused too
    out = tmp_path / "x.csv"
    written = {"compare": ["x.csv", "x.manifest.json", "x_rows.csv"],
               "dmin": ["x.csv", "x.manifest.json"], "report": ["x.csv"]}[command]
    for name in written:
        (tmp_path / name).mkdir()
        assert entrypoint([command, "--out", str(out)] + args) == 1
        assert f"{tmp_path / name} is a directory" in capsys.readouterr().err
        (tmp_path / name).rmdir()


def test_default_out_respects_env(tmp_path, monkeypatch):
    monkeypatch.setenv("BLINDJAM_OUT", str(tmp_path))
    rc = entrypoint(["dmin", "--m", "1", "--q", "2,4,8", "--draws", "3"])
    assert rc == 0
    assert (tmp_path / "dmin.csv").exists()
    assert (tmp_path / "dmin.manifest.json").exists()


def test_dmin_rows(tmp_path, capsys):
    out = tmp_path / "dmin.csv"
    rc = entrypoint(["dmin", "--m", "1", "--q", "2,4,8", "--draws", "3",
                     "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 1 + 3 * 3
    assert "median slope" in capsys.readouterr().out


def test_ser_noiseless_is_zero(tmp_path):
    out = tmp_path / "ser.csv"
    rc = entrypoint(["ser", "--m", "1", "--p", "1e2,1e3,1e4", "--draws", "2",
                     "--delta", "0.25", "--trials", "1000", "--sigma1", "0",
                     "--out", str(out)])
    assert rc == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 6
    assert all(line.split(",")[6] == "0.0" for line in rows)


def test_ser_zero_draws_is_an_error(tmp_path, capsys):
    out = tmp_path / "ser.csv"
    with pytest.raises(SystemExit) as ei:
        entrypoint(["ser", "--kind", "Blind", "--m", "1", "--p", "1e2,1e3",
                    "--draws", "0", "--out", str(out)])
    assert ei.value.code == 2
    assert "error: --draws must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_compare_emits_row_per_kind(tmp_path, capsys):
    out = tmp_path / "compare.csv"
    rc = entrypoint(["compare", "--m", "1", "--p", "1e2,1e3,1e4", "--draws", "2",
                     "--seed", "7", "--mi-samples", "200", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4  # header + one row per scheme kind
    assert {line.split(",")[0] for line in lines[1:]} == {
        "Blind", "CsiAligned", "GaussianJam"}
    assert (tmp_path / "compare_rows.csv").exists()
    assert "Blind: slope" in capsys.readouterr().out


def test_leakage_prints_slope(tmp_path, capsys):
    # the leakage slope is a sweep without the reliability estimate, then
    # report; such a sweep reads no SER trials, so 0 of them is no refusal
    out = tmp_path / "leak.csv"
    assert entrypoint(["sweep", "--no-ser", "--m", "1", "--p", "1e2,1e3,1e4", "--draws", "2",
                       "--seed", "7", "--mi-samples", "200", "--ser-trials", "0",
                       "--out", str(out)]) == 0
    assert entrypoint(["report", "--input", str(out)]) == 0
    assert re.search(r"^Blind m=1 delta=0\.05: leakage slope -?\d+\.\d{6} \(stderr ",
                     capsys.readouterr().out, re.M)


def _planted_rows(kind="Blind", powers=(1e2, 1e3, 1e4, 1e5)):
    # bound slope 0.5 against (1/2) log2 p, and a constant leakage
    rows = []
    for d in range(2):
        for p in powers:
            q = schedule_q(p, 0.05, 1)
            a = 0.3 * math.sqrt(p) / q
            x = 0.5 * math.log2(p)
            rows.append(SweepRow(kind=kind, m=1, delta=0.05, draw_id=d, p=p,
                                 q=q, a=a, gamma=0.3, i_vy1=0.5 * x + 1.25,
                                 i_vy1_se=0.0, i_vy2=0.25, i_vy2_se=0.0,
                                 bound=0.5 * x + 1.0))
    return rows


def test_report_recovers_planted_slope(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    write_rows(_planted_rows(), csv_path)
    summary = tmp_path / "summary.csv"
    rc = entrypoint(["report", "--input", str(csv_path), "--out", str(summary)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Blind m=1 delta=0.05: bound slope 0.500000" in out
    assert "Blind m=1 delta=0.05: leakage slope 0.000000" in out
    lines = summary.read_text().splitlines()
    assert lines[0] == "column,slope,intercept,slope_stderr,n,excluded_lowest,kind,m,delta"
    assert [line.split(",")[0] for line in lines[1:]] == ["bound", "i_vy2"]
    assert all(line.endswith(",Blind,1,0.05") for line in lines[1:])


def test_report_on_a_non_sweep_csv_exits_1(tmp_path, capsys):
    ser = tmp_path / "ser.csv"
    assert entrypoint(["ser", "--m", "1", "--p", "1e2,1e3", "--draws", "1",
                       "--trials", "200", "--out", str(ser)]) == 0
    assert entrypoint(["report", "--input", str(ser)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "not a sweep CSV" in err and "kind" in err


@pytest.mark.parametrize("edit, why", [
    (lambda cols: cols[:-1], "16 values for 17 columns"),
    (lambda cols: cols + ["0.0"], "18 values for 17 columns"),
    (lambda cols: cols[:4] + ["inf"] + cols[5:], "power p must be positive and finite"),
    (lambda cols: cols[:4] + ["nan"] + cols[5:], "power p must be positive and finite"),
    (lambda cols: [""] + cols[1:], "kind is empty"),
    (lambda cols: cols[:-1] + [""], "bound is empty"),
    # columns 6, 7, 10, 14 and 16: a, gamma, ser, i_vy2 and bound
    (lambda cols: cols[:6] + ["nan"] + cols[7:], "a is not finite"),
    (lambda cols: cols[:7] + ["inf"] + cols[8:], "gamma is not finite"),
    (lambda cols: cols[:10] + ["nan"] + cols[11:], "ser is not finite"),
    (lambda cols: cols[:14] + ["-inf"] + cols[15:], "i_vy2 is not finite"),
    (lambda cols: cols[:16] + ["nan"], "bound is not finite"),
], ids=["short", "long", "inf", "nan", "empty-kind", "empty-bound", "nan-a", "inf-gamma",
        "nan-ser", "inf-i_vy2", "nan-bound"])
def test_report_on_a_malformed_row_exits_1(edit, why, tmp_path, capsys):
    # the third data row is cut short, runs long, holds a non-finite value or
    # leaves a required field empty: an error naming its line, no traceback
    path, summary = tmp_path / "sweep.csv", tmp_path / "s.csv"
    write_rows(_planted_rows(), path)
    lines = path.read_text().splitlines()
    lines[3] = ",".join(edit(lines[3].split(",")))
    path.write_text("\n".join(lines) + "\n")
    assert entrypoint(["report", "--input", str(path), "--out", str(summary)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {path} line 4: {why}\n"
    assert captured.out == "" and not summary.exists()


@pytest.mark.parametrize("args", [
    ["ser", "--p", "1e2,1e3"],
    ["eve", "--p", "1e2,1e3"],
    ["dmin", "--q", "2,4,8"],
    ["sweep", "--p", "1e2,1e3,1e4"],
    ["compare", "--p", "1e2,1e3,1e4"],
], ids=lambda args: args[0])
def test_huge_m_is_refused_at_the_cap_within_seconds(args, tmp_path, capsys):
    # each size test stops multiplying once the product passes its cap, and
    # names the cap, not a product of some 480,000 digits
    start = time.perf_counter()
    try:
        rc = entrypoint(args + ["--m", "1000000", "--out", str(tmp_path / "x.csv")])
    except SystemExit as exc:
        rc = exc.code
    assert rc in (1, 2) and time.perf_counter() - start < 3.0
    last = capsys.readouterr().err.splitlines()[-1]
    assert re.search(r"error: .*\bcap\b", last) and len(last) < 200
    assert list(tmp_path.iterdir()) == []


LATTICE_CAP = "more than 10000000 lattice points exceed the cap"
MIXTURE_CAP = "more than 1000000 mixture components exceed the cap"


@pytest.mark.parametrize("args, message", [
    pytest.param(["ser", "--m", "1000000", "--p", "1e2,1e3"], LATTICE_CAP, id="ser"),
    pytest.param(["eve", "--m", "1000000", "--p", "1e2,1e3"], LATTICE_CAP, id="eve"),
    # the message points alone fit here, the whole decoder lattice does not
    pytest.param(["ser", "--m", "1", "--p", "1e15"], LATTICE_CAP, id="ser-m1"),
    pytest.param(["eve", "--m", "2", "--p", "1e16"], LATTICE_CAP, id="eve-m2"),
    # Blind's eavesdropper mixture outgrows the cap at the top power alone
    pytest.param(["sweep", "--no-ser", "--m", "2", "--p", "1e3,1e4,1e5,1e6"], MIXTURE_CAP,
                 id="sweep"),
    pytest.param(["compare", "--m", "2", "--p", "1e3,1e4,1e5,1e6"], MIXTURE_CAP, id="compare"),
])
def test_ser_and_eve_refuse_an_oversize_lattice_before_drawing(args, message, tmp_path,
                                                               monkeypatch, capsys):
    # every sweep command checks its sizes exactly at the top power: an
    # oversize grid is refused whole before any channel is drawn, never cut
    def unreachable(*a, **k):
        raise AssertionError("a channel was drawn")

    monkeypatch.setattr(experiments, "sample_channel", unreachable)
    assert entrypoint(args + ["--out", str(tmp_path / "x.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}; reduce q or the number of streams\n"
    assert list(tmp_path.iterdir()) == []


STUDIES = {"sweep": experiments.sweep_power, "ser": experiments.sweep_ser,
           "eve": experiments.sweep_ser, "compare": experiments.compare_schemes,
           "dmin": fit_dmin_exponent}


@pytest.mark.parametrize("command", sorted(STUDIES))
def test_each_commands_options_are_its_studys_parameters(command):
    # a runner passes its options through by name: a renamed parameter would
    # break the command, so it breaks this test first
    options = {k: v for k, v in cli._COMMANDS[command][1].items() if k != "out"}
    if command == "eve":  # the three values eve fixes
        options.update(kind="Blind", min_errors=100, receiver="eve")
    inspect.signature(STUDIES[command]).bind(**options)


@pytest.mark.parametrize("command, args", [
    ("report", ["--input", "sweep.csv"]),
    ("compare", ["--m", "1", "--p", "1e2,1e3,1e4"]),
])
def test_negative_exclude_lowest_exits_2(command, args, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_rows(_planted_rows(), tmp_path / "sweep.csv")
    with pytest.raises(SystemExit) as ei:
        entrypoint([command, "--exclude-lowest", "-3"] + args)
    assert ei.value.code == 2
    assert "--exclude-lowest must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / f"{command}.csv").exists()


@pytest.mark.parametrize("command", ["compare"])
def test_exclusion_leaving_under_3_powers_exits_2_before_the_sweep(command, tmp_path,
                                                                   capsys):
    out = tmp_path / "l.csv"
    with pytest.raises(SystemExit) as ei:
        entrypoint([command, "--m", "1", "--p", "1e2,1e3,1e4", "--draws", "1",
                    "--mi-samples", "200", "--exclude-lowest", "1", "--out", str(out)])
    assert ei.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_compare_writes_nothing_when_the_cap_leaves_too_few_powers(tmp_path, monkeypatch,
                                                                   capsys):
    # at m=2 Blind's mixture outgrows the cap at 1e6: the grid is refused
    # whole at run time, not cut to the 3 powers below it, and no cell runs
    def unreachable(*a, **k):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(experiments, "default_budget", unreachable)
    out = tmp_path / "l.csv"
    assert entrypoint(["compare", "--m", "2", "--p", "1e3,1e4,1e5,1e6", "--draws", "1",
                       "--mi-samples", "200", "--exclude-lowest", "1", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {MIXTURE_CAP}; reduce q or the number of streams\n"
    assert captured.out == "" and list(tmp_path.iterdir()) == []


def test_eve_writes_the_ser_schema_and_takes_no_sigma1(tmp_path, capsys):
    out = tmp_path / "eve.csv"
    assert entrypoint(["eve", "--m", "1", "--p", "1e2,1e3", "--draws", "2", "--delta", "0.25",
                       "--trials", "2000", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p,m,delta,draw_id,trials,errors,rate,stderr" and len(lines) == 1 + 2 * 2
    assert "4 rows" in capsys.readouterr().out
    assert json.loads((tmp_path / "eve.manifest.json").read_text())["command"] == "eve"
    with pytest.raises(SystemExit) as ei:
        entrypoint(["eve", "--m", "1", "--p", "1e2,1e3", "--sigma1", "0"])
    assert ei.value.code == 2


def test_report_on_compare_rows_reproduces_compare_slopes(tmp_path, capsys):
    # a compare rows CSV holds one series per kind; report fits each as compare did
    out, summary = tmp_path / "c.csv", tmp_path / "s.csv"
    assert entrypoint(["compare", "--m", "1", "--p", "1e2,1e3,1e4", "--draws", "1",
                       "--mi-samples", "200", "--out", str(out)]) == 0
    capsys.readouterr()
    assert entrypoint(["report", "--input", str(tmp_path / "c_rows.csv"),
                       "--out", str(summary)]) == 0
    printed = capsys.readouterr().out.splitlines()
    kinds = ["Blind", "CsiAligned", "GaussianJam"]
    assert [line.split(": ")[0] for line in printed[:-1]] == [
        f"{kind} m=1 delta=0.05" for kind in kinds for _ in range(2)]
    assert [line.split(": ")[1].split(" slope")[0] for line in printed[:-1]] == [
        "bound", "leakage"] * 3
    with open(out, newline="") as fh:
        want = {rec["kind"]: rec for rec in csv.DictReader(fh)}
    with open(summary, newline="") as fh:
        got = list(csv.DictReader(fh))
    assert [(rec["kind"], rec["column"]) for rec in got] == [
        (kind, column) for kind in kinds for column in ("bound", "i_vy2")]
    for rec in got:
        if rec["column"] == "bound":
            assert (rec["slope"], rec["slope_stderr"]) == (
                want[rec["kind"]]["slope"], want[rec["kind"]]["slope_stderr"])


def test_report_writes_nothing_when_one_series_is_too_short(tmp_path, capsys):
    # every series is fitted first: one of 2 powers fails the whole run
    rows = _planted_rows() + _planted_rows(kind="CsiAligned", powers=(1e2, 1e3))
    write_rows(rows, tmp_path / "sweep.csv")
    summary = tmp_path / "s.csv"
    assert entrypoint(["report", "--input", str(tmp_path / "sweep.csv"),
                       "--out", str(summary)]) == 1
    captured = capsys.readouterr()
    assert "error: CsiAligned m=1 delta=0.05: degenerate grid" in captured.err
    assert captured.out == "" and not summary.exists()


def test_missing_input_exits_1(tmp_path, capsys):
    rc = entrypoint(["report", "--input", str(tmp_path / "nope.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_infeasible_grid_exits_1(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = entrypoint(["sweep", "--m", "2", "--p", "1e6,2e6,4e6",
                     "--draws", "1", "--out", str(out)] + FAST_SWEEP)
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_module_invocation_smoke(src_env):
    proc = subprocess.run([sys.executable, "-m", "blindjam", "sweep", "--help"],
                          capture_output=True, text=True, env=src_env)
    assert proc.returncode == 0
    assert "--mi-samples" in proc.stdout
