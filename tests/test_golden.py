"""Golden outputs: each command below re-runs and must write the same bytes.

The files in ``tests/golden/`` are the CSVs and manifests these commands wrote
when they were captured; a change that moves any published number, even in
the last ulp, fails here and says which columns moved and by how much.
Regenerate them, after checking that a shift is intended, with
``PYTHONPATH=src python tests/test_golden.py``.
"""
import contextlib
import csv
import io
import json
import math
import os
from pathlib import Path

import pytest

from blindjam import cli
from blindjam.channel import default_budget, sample_channel
from blindjam.experiments import write_rows
from blindjam.receiver import estimate_eve_u_error
from blindjam.schemes import make_blind_scheme
from blindjam.streams import child_seed

GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> argv; each writes <name>.csv and <name>.manifest.json (compare also
# <name>_rows.csv) under its relative --out
COMMANDS = {
    "compare": "compare --m 1 --p 1e2,1e3,1e4,1e5 --draws 3 --mi-samples 2000",
    "sweep_m1": "sweep --m 1 --p 1e2,1e3,1e4,1e5 --draws 2 --mi-samples 2000 --ser-trials 5000",
    "sweep_m2": "sweep --m 2 --p 1e3,1e4,1e5 --draws 1 --mi-samples 500 --ser-trials 5000",
    "sweep_m2_csi": ("sweep --m 2 --kind CsiAligned --p 1e3,1e4,1e5 --draws 1 "
                     "--mi-samples 500 --ser-trials 5000"),
    "ser": "ser --m 1 --p 1e2,1e3,1e4 --draws 3 --trials 20000",
    "ser_noiseless": "ser --m 1 --p 1e2,1e3,1e4 --draws 3 --trials 20000 --sigma1 0",
    "ser_m2_csi": "ser --m 2 --kind CsiAligned --p 1e2,1e3,1e4 --draws 2 --trials 20000",
    "eve": "eve --m 1 --delta 0.25 --p 1e2,1e3,1e4 --draws 3 --trials 20000",
    "sweep_no_ser": ("sweep --kind GaussianJam --m 1 --p 1e2,1e3,1e4 --draws 2 "
                     "--mi-samples 2000 --no-ser"),
    "dmin": "dmin --m 2 --q 4,8,16,32 --draws 5",
}


def _outputs(name: str) -> list[str]:
    files = [f"{name}.csv", f"{name}.manifest.json"]
    return files + ([f"{name}_rows.csv"] if COMMANDS[name].startswith("compare") else [])


def _run(name: str, directory: Path, extra=()) -> None:
    argv = COMMANDS[name].split() + ["--out", f"{name}.csv", *extra]
    cwd = os.getcwd()
    os.chdir(directory)  # the manifest records --out as given
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.entrypoint(argv)
    finally:
        os.chdir(cwd)
    assert rc == 0


def _column_shifts(want: bytes, got: bytes) -> str:
    """Per column: how many values moved, the largest absolute and relative shift."""
    old = list(csv.DictReader(io.StringIO(want.decode())))
    new = list(csv.DictReader(io.StringIO(got.decode())))
    if len(old) != len(new) or (old and old[0].keys() != new[0].keys()):
        return f"rows or columns differ: {len(old)} rows -> {len(new)} rows"
    lines = []
    for col in (old[0].keys() if old else ()):
        moved, abs_max, rel_max = 0, 0.0, 0.0
        for a, b in zip((r[col] for r in old), (r[col] for r in new)):
            if a == b:
                continue
            moved += 1
            try:
                x, y = float(a), float(b)
            except ValueError:
                abs_max = rel_max = math.nan
                continue
            abs_max = max(abs_max, abs(y - x))
            rel_max = max(rel_max, abs(y - x) / abs(x) if x else math.inf)
        if moved:
            lines.append(f"  {col}: {moved} of {len(old)} moved, "
                         f"max abs {abs_max:.3g}, max rel {rel_max:.3g}")
    return "\n".join(lines) or "  (no value moved: formatting only)"


def _dispatch_note() -> str:
    """Which of numpy's X86_V4/AVX512 dispatch features are on for this CPU."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__ as features

    avx512 = sorted(name for name, on in features.items() if on and name.startswith("AVX512"))
    return (f"numpy's X86_V4 dispatch is {'on' if features.get('X86_V4') else 'off'}; "
            f"AVX512 features on: {', '.join(avx512) or 'none'}. The golden files hold the "
            "X86_V4 (AVX-512) bits of numpy's float64 exp and log, and below it some values "
            "move by 1 ulp (ROADMAP item 13).")


def _assert_same(golden: Path, produced: Path) -> None:
    want, got = golden.read_bytes(), produced.read_bytes()
    if want != got:
        detail = (_column_shifts(want, got) if golden.suffix == ".csv"
                  else got.decode())
        pytest.fail(f"{golden.name} differs from its golden copy:\n{detail}\n{_dispatch_note()}")


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_outputs_match_golden(name, tmp_path):
    _run(name, tmp_path)
    for fname in _outputs(name):
        _assert_same(GOLDEN / fname, tmp_path / fname)
    if name == "dmin":  # runs on one thread, no --workers
        return
    # the same bytes on two worker threads; the manifest records the count
    two = tmp_path / "workers2"
    two.mkdir()
    _run(name, two, ["--workers", "2"])
    for fname in _outputs(name):
        if fname.endswith(".csv"):
            _assert_same(GOLDEN / fname, two / fname)


def test_eve_golden_matches_the_hand_loop(tmp_path):
    # each cell built by hand, apart from the sweep's cell runner: the channel
    # and alphas of draw d, the seed ("eveu", d, i) of acceptance criterion 6
    cfg = json.loads((GOLDEN / "eve.manifest.json").read_text())
    rows = []
    for d in range(cfg["draws"]):
        ch = sample_channel(cfg["m"], child_seed(cfg["seed"], "channel", d))
        for i, p in enumerate(cfg["p"]):
            scheme = make_blind_scheme(cfg["m"], p, cfg["delta"], ch.h,
                                       default_budget(ch, p).c_bar,
                                       child_seed(cfg["seed"], "alphas", d))
            est = estimate_eve_u_error(scheme, ch, cfg["trials"],
                                       child_seed(cfg["seed"], "eveu", d, i),
                                       min_errors=100)
            rows.append(dict(p=p, m=cfg["m"], delta=cfg["delta"], draw_id=d,
                             trials=est.trials, errors=est.errors, rate=est.rate,
                             stderr=est.stderr))
    write_rows(rows, tmp_path / "hand.csv")
    _assert_same(GOLDEN / "eve.csv", tmp_path / "hand.csv")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for cmd in COMMANDS:
        _run(cmd, GOLDEN)
