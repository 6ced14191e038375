import contextlib
import csv
import inspect
import io
import json
import math
import re
import resource
import subprocess
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from blindjam import cli, constellation, experiments
from blindjam.cli import entrypoint, parse_int_list, parse_p_grid
from blindjam.constellation import DminRow, fit_dmin_exponent
from blindjam.experiments import SerRow, SweepRow, read_sweep_csv, write_rows

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
    # the point count is known before the list is built, and refused above the cap
    assert len(parse_p_grid("1:10:9999")) == cli.MAX_RANGE_POWERS == 10_000
    with pytest.raises(ValueError, match="grid range of 10001 powers exceeds the cap of 10000"):
        parse_p_grid("1:10:10000")


@pytest.mark.parametrize("grid", ["1e2,1e3,inf", "1e2,nan", "0,1e2", "1e2,-1e3",
                                  "1e2:inf:2", "0:1e3:2", "1e2:1e3:x",
                                  # a ppd whose point count overflows a float
                                  pytest.param("1:10:1" + "0" * 400, id="ppd-past-float")])
def test_bad_power_grid_exits_2(grid, capsys):
    with pytest.raises(SystemExit) as ei:
        entrypoint(["sweep", "--m", "1", "--p", grid])
    assert ei.value.code == 2
    assert "error:" in capsys.readouterr().err


def _run_limited(args, env):
    """``python -m blindjam`` in a child under its own 512 MiB address-space
    limit, BLAS on one thread: an oversize build there fails fast instead of
    taking gigabytes. Returns (the completed run, its seconds)."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))

    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "blindjam", *args], capture_output=True,
                         text=True, preexec_fn=limit, timeout=60,
                         env={**env, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})
    return out, time.perf_counter() - start


@pytest.mark.parametrize("ppd, n", [("10000", 3_000_001), ("1000000", 300_000_001)])
def test_dense_power_range_exits_2_before_it_is_built(ppd, n, tmp_path, src_env):
    out, seconds = _run_limited(["sweep", "--m", "1", "--p", f"1:1e300:{ppd}", "--no-ser",
                                 "--out", str(tmp_path / "x.csv")], src_env)
    assert out.returncode == 2 and seconds < 1.0
    errors = [line for line in out.stderr.splitlines() if "error:" in line]
    assert errors == [f"blindjam sweep: error: grid range of {n} powers exceeds the cap of 10000"]
    assert list(tmp_path.iterdir()) == []


def test_dmin_over_the_difference_box_cap_exits_1_before_drawing(tmp_path, src_env):
    # 10^8 alphas alone would take 763 MiB: the top q's difference box, 33
    # terms on each of 10^8 axes, is refused before any is drawn
    out, seconds = _run_limited(["dmin", "--m", "100000000", "--q", "2,4,8", "--draws", "1",
                                 "--out", str(tmp_path / "x.csv")], src_env)
    assert out.returncode == 1 and seconds < 1.0
    assert out.stderr == ("error: more than 10000000 difference-box terms exceed the cap; "
                          "reduce q or the number of streams\n")
    assert list(tmp_path.iterdir()) == []


def _exit_code(argv) -> int:
    """entrypoint's exit status: returned, or raised by argparse."""
    try:
        return entrypoint(argv)
    except SystemExit as exc:
        return exc.code


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
    "ser": ("--m --p --kind --receiver --delta --draws --seed --workers --trials --min-errors "
            "--sigma1 --out"),
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
    cli.cmd_compare(str(tmp_path / "compare.csv"), 0, m=1, delta=0.05, p=[1e2, 1e3, 1e4],
                    draws=1, seed=11, mi_samples=200)
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
    ["ser", "--receiver", "eve", "--m", "1", "--p", "1e2,1e3,1e4", "--trials", "0"],
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


@pytest.mark.parametrize("command", [
    pytest.param(argv, id=name) for name, argv in (
        ("sweep", ["sweep"]), ("ser", ["ser"]), ("eve", ["ser", "--receiver", "eve"]),
        ("compare", ["compare"]))])
@pytest.mark.parametrize("flag, value", [("--m", "0"), ("--delta", "0.5"), ("--delta", "0")])
def test_m_and_delta_out_of_range_exit_2(command, flag, value, tmp_path, capsys):
    with pytest.raises(SystemExit) as ei:
        entrypoint([*command, "--m", "1", "--p", "1e2,1e3,1e4", flag, value,
                    "--out", str(tmp_path / "o.csv")])
    assert ei.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: blindjam {command[0]} [-h]")
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


def test_ser_past_the_noise_cap_exits_1_with_one_error_line(tmp_path, capsys):
    # sigma1 = 1e308 printed numpy's overflow warning from the noise draw and exited 0
    rc = entrypoint(["ser", "--m", "1", "--p", "1e2", "--draws", "1", "--trials", "100",
                     "--sigma1", "1e308", "--out", str(tmp_path / "ser.csv")])
    assert rc == 1
    assert capsys.readouterr().err == "error: noise standard deviations must lie in [0, 1e+150]\n"
    assert list(tmp_path.iterdir()) == []


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
            x = 0.5 * math.log2(p)
            rows.append(SweepRow(kind=kind, m=1, delta=0.05, draw_id=d, p=p,
                                 gamma=0.3, i_vy1=0.5 * x + 1.25,
                                 i_vy1_se=0.0, i_vy2=0.25, i_vy2_se=0.0))
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


def _next_up(text: str) -> str:
    return repr(math.nextafter(float(text), math.inf))


@pytest.mark.parametrize("column, edit, why", [
    ("q", lambda text: str(int(text) + 1), "q inconsistent with the (p, delta, m) schedule"),
    ("a", lambda text: repr(float(text) * (1 + 2e-9)), "a inconsistent with gamma*sqrt(p)/q"),
    ("ser", _next_up, "ser inconsistent with errors/trials"),
    ("ser_stderr", _next_up, "ser_stderr inconsistent with trials and errors"),
    ("bound", _next_up, "bound inconsistent with max(0, i_vy1 - i_vy2)"),
], ids=["q", "a", "ser", "ser_stderr", "bound"])
def test_report_refuses_a_derived_column_off_its_row(column, edit, why, tmp_path, capsys):
    # the third data row's q, ser, ser_stderr or bound is one step off what the
    # row derives, or its a 2e-9 of itself: the reader and report name the line
    path, summary = tmp_path / "sweep.csv", tmp_path / "s.csv"
    write_rows([replace(row, trials=1000, errors=3 + row.draw_id) for row in _planted_rows()],
               path)
    lines = path.read_text().splitlines()
    at = lines[0].split(",").index(column)
    cols = lines[3].split(",")
    cols[at] = edit(cols[at])
    lines[3] = ",".join(cols)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as refused:
        read_sweep_csv(path)
    assert str(refused.value) == f"{path} line 4: {why}"
    assert entrypoint(["report", "--input", str(path), "--out", str(summary)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {path} line 4: {why}\n"
    assert captured.out == "" and not summary.exists()


@pytest.mark.parametrize("args", [
    ["ser", "--p", "1e2,1e3"],
    pytest.param(["ser", "--receiver", "eve", "--p", "1e2,1e3"], id="eve"),
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
    pytest.param(["ser", "--receiver", "eve", "--m", "1000000", "--p", "1e2,1e3"], LATTICE_CAP,
                 id="eve"),
    # the message points alone fit here, the whole decoder lattice does not
    pytest.param(["ser", "--m", "1", "--p", "1e15"], LATTICE_CAP, id="ser-m1"),
    pytest.param(["ser", "--receiver", "eve", "--m", "2", "--p", "1e16"], LATTICE_CAP,
                 id="eve-m2"),
    # Blind's eavesdropper mixture outgrows the cap at the top power alone
    pytest.param(["sweep", "--no-ser", "--m", "2", "--p", "1e3,1e4,1e5,1e6"], MIXTURE_CAP,
                 id="sweep"),
    pytest.param(["compare", "--m", "2", "--p", "1e3,1e4,1e5,1e6"], MIXTURE_CAP, id="compare"),
    # an m whose message coordinates alone pass the cap is refused before they
    # are listed: a tuple of 2**63 counts cannot be built
    pytest.param(["ser", "--m", str(2**63), "--p", "1e2"], LATTICE_CAP, id="ser-m-2**63"),
    pytest.param(["sweep", "--no-ser", "--m", str(2**63), "--p", "1e2,1e3,1e4"], MIXTURE_CAP,
                 id="sweep-m-2**63"),
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


class Reached(Exception):
    """Raised in place of a study's cells. It is no ValueError, so the CLI
    cannot report it as a refusal."""


def _reached(*a, **k):
    raise Reached


CELL_CAP = f"more than {experiments.MAX_CELLS} cells ({{}}) exceed the cap"


@pytest.mark.parametrize("args", [
    pytest.param(["ser", "--p", "1e2"], id="ser"),
    pytest.param(["ser", "--receiver", "eve", "--p", "1e2"], id="eve"),
    # 11 powers x 9,091 draws
    pytest.param(["sweep", "--p", "1e2:1e3:10", "--draws", "9091"], id="sweep"),
    # 3 kinds x 3 powers x 11,112 draws, the fewest above the cap
    pytest.param(["compare", "--p", "1e2,1e3,1e4", "--draws", "11112"], id="compare"),
    # 3 q values x 33,334 draws
    pytest.param(["dmin", "--q", "2,4,8", "--draws", "33334"], id="dmin"),
])
def test_a_run_over_the_cell_cap_is_refused_before_drawing(args, tmp_path, monkeypatch, capsys):
    def unreachable(*a, **k):
        raise AssertionError("a channel or a d_min draw was drawn")

    if "--draws" not in args:
        args = args + ["--draws", str(experiments.MAX_CELLS + 1)]
    monkeypatch.setattr(experiments, "sample_channel", unreachable)
    monkeypatch.setattr(constellation, "substream", unreachable)
    assert entrypoint(args + ["--m", "1", "--out", str(tmp_path / "x.csv")]) == 1
    cells = "draws x q values" if args[0] == "dmin" else "kinds x draws x powers"
    assert capsys.readouterr().err == f"error: {CELL_CAP.format(cells)}\n"
    assert list(tmp_path.iterdir()) == []


def test_a_run_at_the_cell_cap_goes_on_to_its_cells(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "_run_cells", _reached)
    monkeypatch.setattr(constellation, "substream", _reached)
    with pytest.raises(Reached):
        entrypoint(["ser", "--m", "1", "--p", "1e2", "--draws", str(experiments.MAX_CELLS),
                    "--out", str(tmp_path / "x.csv")])
    # 4 q values x 25,000 draws
    with pytest.raises(Reached):
        entrypoint(["dmin", "--m", "1", "--q", "2,4,8,16", "--draws", "25000",
                    "--out", str(tmp_path / "x.csv")])


# each option's adversarial values, as flag text and as --config JSON, and
# one value it runs with, so that an example gets past the other options
FLAG_VALUES = ["nan", "inf", "-inf", "-1", "0", str(2**63), "1e308", "", "x",
               "1:1e300:1000000", "1e2:1e3:9999"]
CONFIG_VALUES = [math.nan, math.inf, -math.inf, -1, 0, 2**63, 1e308, "", "x",
                 "1:1e300:1000000", "1e2:1e3:9999", True, False, None, "1e2,1e3,1e4", [],
                 [[1]], [1e2, [2.5, None]], ["x"], [True, 1e2]]
RUNS_WITH = {"m": "1", "p": "1e2,1e3,1e4", "q": "2,4,8", "input": "missing.csv",
             "kind": "CsiAligned", "receiver": "eve", "delta": "0.1", "draws": "2", "seed": "7",
             "workers": "2", "mi_samples": "200", "ser_trials": "400", "trials": "400",
             "min_errors": "5", "sigma1": "0.5", "exclude_lowest": "0", "out": "o.csv"}


@st.composite
def invocations(draw):
    """A command, one or two of its options set to an adversarial value by
    their flag or by --config, and each other option set to a value it runs
    with or, unless it is required, left out."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    options = cli._COMMANDS[command][1]
    odd = {draw(st.sampled_from(list(options))) for _ in range(2)}
    argv, config = [command], {}
    for name, default in options.items():
        required = default is None and name not in cli._NULLABLE
        how = draw(st.sampled_from(["flag", "config"] if name in odd
                                   else ["runs"] if required else ["runs", "omit"]))
        if how == "config":
            config[name] = draw(st.sampled_from(CONFIG_VALUES))
        elif cli._OPTIONS[name][0] is bool:  # --no-ser takes no value
            argv += [cli._flag(name)] if how != "omit" else []
        elif how != "omit":
            argv += [cli._flag(name),
                     RUNS_WITH[name] if how == "runs" else draw(st.sampled_from(FLAG_VALUES))]
    return argv, config


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(invocation=invocations())
def test_any_cli_input_is_refused_with_one_error_line_or_runs(invocation, tmp_path, monkeypatch):
    # the studies raise in place of their cells, dmin at its first draw: no
    # cell runs, no thread starts. One parser serves every example: building
    # it is most of the cost
    monkeypatch.setattr(experiments, "_run_cells", _reached)
    monkeypatch.setattr(constellation, "substream", _reached)
    monkeypatch.setattr(cli, "build_parser", lambda parser=cli.build_parser(): parser)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("BLINDJAM_OUT", str(tmp_path))
    argv, config = invocation
    if config:
        (tmp_path / "c.json").write_text(json.dumps(config))
        argv = argv + ["--config", "c.json"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = _exit_code(argv)
        except Reached:
            return
    assert code in (1, 2), err.getvalue()
    assert len([line for line in err.getvalue().splitlines() if "error:" in line]) == 1


@pytest.mark.parametrize("message", ["Unable to allocate 7.28 TiB for an array", ""],
                         ids=["numpy", "bare"])
def test_out_of_memory_exits_1_with_an_error_line(message, tmp_path, monkeypatch, capsys):
    # raised, not allocated: whether a huge request fails at once depends on
    # the machine's overcommit policy
    def exhausted(**options):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "sweep_power", exhausted)
    assert entrypoint(["sweep", "--m", "1", "--p", "1e2,1e3,1e4",
                       "--out", str(tmp_path / "x.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message or 'MemoryError'}\n"
    assert list(tmp_path.iterdir()) == []  # no CSV, no manifest


def test_out_of_memory_while_resolving_the_options_exits_1(tmp_path, monkeypatch, capsys):
    def exhausted(spec):
        raise MemoryError

    monkeypatch.setattr(cli, "parse_p_grid", exhausted)
    assert entrypoint(["sweep", "--m", "1", "--p", "1e2,1e3,1e4",
                       "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err == "error: MemoryError\n"
    assert list(tmp_path.iterdir()) == []


STUDIES = {"sweep": experiments.sweep_power, "ser": experiments.sweep_ser,
           "compare": experiments.compare_schemes, "dmin": fit_dmin_exponent}


@pytest.mark.parametrize("command, fixed", [
    *(pytest.param(command, {}, id=command) for command in sorted(STUDIES)),
    pytest.param("ser", {"receiver": "eve"}, id="eve"),
])
def test_each_commands_options_are_its_studys_parameters(command, fixed):
    # a runner passes its options through by name: a renamed parameter would
    # break the command, so it breaks this test first; compare's
    # exclude_lowest is its slope fit's
    options = {k: v for k, v in cli._COMMANDS[command][1].items() if k != "out"}
    if command == "compare":
        inspect.signature(experiments.fit_slopes).bind([], "bound", options.pop("exclude_lowest"))
    inspect.signature(STUDIES[command]).bind(**{**options, **fixed})


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
    assert entrypoint(["ser", "--receiver", "eve", "--m", "1", "--p", "1e2,1e3", "--draws", "2",
                       "--delta", "0.25", "--trials", "2000", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p,m,delta,draw_id,trials,errors,rate,stderr" and len(lines) == 1 + 2 * 2
    assert "4 rows" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "eve.manifest.json").read_text())
    assert (manifest["command"], manifest["receiver"]) == ("ser", "eve")
    # sigma1 sets the legitimate receiver's noise: one error line, no file
    other = tmp_path / "other"
    other.mkdir()
    assert _exit_code(["ser", "--receiver", "eve", "--m", "1", "--p", "1e2,1e3", "--sigma1", "0",
                       "--out", str(other / "eve.csv")]) in (1, 2)
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "sigma1" in errors[0]
    assert list(other.iterdir()) == []


def test_the_eve_command_is_gone(capsys):
    # its runs are ser --receiver eve
    with pytest.raises(SystemExit) as ei:
        entrypoint(["eve", "--m", "1", "--p", "1e2,1e3,1e4"])
    assert ei.value.code == 2
    assert "invalid choice: 'eve'" in capsys.readouterr().err


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


def test_oversize_mi_samples_exits_1_before_a_sample_is_drawn(tmp_path, capsys):
    # 10^8 samples would take 800 MB a draw; the first cell's entropy refuses them
    rc = entrypoint(["compare", "--m", "1", "--p", "1e2,1e3,1e4", "--draws", "1",
                     "--mi-samples", "100000000", "--out", str(tmp_path / "c.csv")])
    assert rc == 1
    assert capsys.readouterr().err == ("error: more than 10000000 Monte Carlo samples "
                                       "exceed the cap; use fewer samples\n")
    assert list(tmp_path.iterdir()) == []


def test_module_invocation_smoke(src_env):
    proc = subprocess.run([sys.executable, "-m", "blindjam", "sweep", "--help"],
                          capture_output=True, text=True, env=src_env)
    assert proc.returncode == 0
    assert "--mi-samples" in proc.stdout
