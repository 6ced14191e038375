import json
import math

import numpy as np
import pytest

from blindjam import experiments
from blindjam.constellation import LatticeSizeError, fit_dmin_exponent
from blindjam.experiments import (
    ComparisonReport,
    SerRow,
    SweepRow,
    compare_schemes,
    fit_dof,
    leakage_slope,
    ols,
    read_sweep_csv,
    sweep_power,
    sweep_ser,
    write_manifest,
    write_rows,
)
from blindjam.schemes import KINDS, schedule_q


def _planted_rows(slope, p_grid=(1e2, 1e3, 1e4, 1e5), draws=2, kind="Blind",
                  m=1, delta=0.05, gamma=0.3, leak=0.25):
    rows = []
    for d in range(draws):
        for p in p_grid:
            q = schedule_q(p, delta, m)
            a = gamma * math.sqrt(p) / q
            x = 0.5 * math.log2(p)
            bound = slope * x + 1.0
            rows.append(SweepRow(kind=kind, m=m, delta=delta, draw_id=d, p=p,
                                 q=q, a=a, gamma=gamma, i_vy1=bound + leak,
                                 i_vy1_se=0.0, i_vy2=leak, i_vy2_se=0.0,
                                 bound=bound))
    return rows


def test_ols_exact_line():
    fit = ols([0.0, 1.0, 2.0, 3.0], [-1.0, 1.5, 4.0, 6.5])
    assert fit.slope == pytest.approx(2.5, abs=1e-12)
    assert fit.intercept == pytest.approx(-1.0, abs=1e-12)
    assert fit.slope_stderr == pytest.approx(0.0, abs=1e-9)
    assert fit.n == 4


def test_ols_stderr_positive_under_noise():
    rng = np.random.default_rng(0)
    x = np.arange(10.0)
    fit = ols(x, x + rng.normal(size=10))
    assert fit.slope_stderr > 0.0


def test_ols_validation():
    with pytest.raises(ValueError):
        ols([1.0], [1.0])
    with pytest.raises(ValueError):
        ols([1.0, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        ols([1.0, 2.0], [[1.0], [2.0]])


def test_sweep_row_revalidates_schedule():
    with pytest.raises(ValueError, match="schedule"):
        SweepRow(kind="Blind", m=1, delta=0.05, draw_id=0, p=1e3, q=3, a=1.0,
                 gamma=0.3, i_vy1=1.0, i_vy1_se=0.0, i_vy2=0.0, i_vy2_se=0.0,
                 bound=1.0)
    q = schedule_q(1e3, 0.05, 1)
    with pytest.raises(ValueError, match="gamma"):
        SweepRow(kind="Blind", m=1, delta=0.05, draw_id=0, p=1e3, q=q, a=1.0,
                 gamma=0.3, i_vy1=1.0, i_vy1_se=0.0, i_vy2=0.0, i_vy2_se=0.0,
                 bound=1.0)


def test_fit_dof_recovers_planted_slope():
    rows = _planted_rows(0.5)
    fit = fit_dof(rows)
    assert fit.pooled.slope == pytest.approx(0.5, abs=1e-10)
    assert fit.column == "bound"
    assert fit.excluded_lowest == 0
    assert all(s == pytest.approx(0.5, abs=1e-10) for _, s in fit.per_draw)
    assert len(fit.per_draw) == 2


def test_leakage_slope_constant_column_is_zero():
    fit = leakage_slope(_planted_rows(0.5))
    assert fit.pooled.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.column == "i_vy2"


def test_fit_exclusion_rules():
    rows = _planted_rows(0.5)
    fit = fit_dof(rows, exclude_lowest=1)
    assert fit.excluded_lowest == 1
    assert fit.pooled.n == 2 * 3
    with pytest.raises(ValueError, match="degenerate"):
        fit_dof(rows, exclude_lowest=2)
    # a negative count would keep the top three powers of four instead
    with pytest.raises(ValueError, match="exclude_lowest"):
        leakage_slope(rows, exclude_lowest=-3)
    with pytest.raises(ValueError):
        fit_dof([])


@pytest.mark.parametrize("other", [dict(kind="CsiAligned"), dict(m=2), dict(delta=0.1)])
def test_fit_refuses_rows_of_several_series(other):
    # one line through several (kind, m, delta) series is no slope of any
    rows = _planted_rows(0.5) + _planted_rows(0.1, **other)
    for fit in (fit_dof, leakage_slope):
        with pytest.raises(ValueError, match="kind, m, delta"):
            fit(rows)


def test_sweep_power_rows_and_order():
    rows = sweep_power("Blind", 1, 0.05, [1e2, 1e3, 1e4], 2, 11,
                       mi_samples=300, ser_trials=400, min_errors=5)
    assert len(rows) == 6
    assert [(r.draw_id, r.p) for r in rows] == [
        (0, 1e2), (0, 1e3), (0, 1e4), (1, 1e2), (1, 1e3), (1, 1e4)]
    for r in rows:
        assert r.kind == "Blind"
        assert r.trials is not None and r.ser == r.errors / r.trials
        assert np.isfinite(r.i_vy1) and np.isfinite(r.i_vy2)
        assert r.bound == pytest.approx(max(0.0, r.i_vy1 - r.i_vy2))


def test_sweep_power_deterministic_and_worker_invariant(tmp_path):
    kw = dict(mi_samples=300, include_ser=False)
    rows1 = sweep_power("Blind", 1, 0.05, [1e2, 1e3, 1e4], 2, 11, **kw)
    rows2 = sweep_power("Blind", 1, 0.05, [1e2, 1e3, 1e4], 2, 11, **kw)
    rows3 = sweep_power("Blind", 1, 0.05, [1e2, 1e3, 1e4], 2, 11, workers=3, **kw)
    assert rows1 == rows2 == rows3
    p1, p3 = tmp_path / "w1.csv", tmp_path / "w3.csv"
    write_rows(rows1, p1)
    write_rows(rows3, p3)
    assert p1.read_bytes() == p3.read_bytes()


def test_thread_pool_clamped_to_cell_count(monkeypatch):
    seen = []

    class Recorder:  # runs the cells in order, starts no thread
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(experiments, "ThreadPoolExecutor", Recorder)
    kw = dict(trials=500, min_errors=5)
    want = sweep_ser("Blind", 1, 0.1, [1e2, 1e3, 1e4], 1, 3, **kw)
    assert sweep_ser("Blind", 1, 0.1, [1e2, 1e3, 1e4], 1, 3, workers=10**6, **kw) == want
    assert sweep_ser("Blind", 1, 0.1, [1e2, 1e3, 1e4], 2, 3, workers=4, **kw)[:3] == want
    assert seen == [3, 4]
    # one cell, or one worker, runs serially
    sweep_ser("Blind", 1, 0.1, [1e2], 1, 3, workers=8, **kw)
    assert seen == [3, 4]
    for workers in (0, -5):
        with pytest.raises(ValueError, match="workers"):
            sweep_ser("Blind", 1, 0.1, [1e2], 1, 3, workers=workers, **kw)


def test_sweep_channels_independent_of_kind():
    kw = dict(mi_samples=300, include_ser=False)
    blind = sweep_power("Blind", 1, 0.05, [1e2, 1e3, 1e4], 2, 11, **kw)
    gj = sweep_power("GaussianJam", 1, 0.05, [1e2, 1e3, 1e4], 2, 11, **kw)
    # same seed, same draws: identical channels and alpha draws, so the
    # schedule columns coincide between the kinds
    assert [(r.gamma, r.a, r.q) for r in blind] == [(r.gamma, r.a, r.q) for r in gj]
    assert all(r.trials is None for r in gj)


def test_sweep_power_validation():
    with pytest.raises(ValueError):
        sweep_power("Blind", 1, 0.05, [1e2, 1e3], 2, 0)
    with pytest.raises(ValueError):
        sweep_power("Blind", 1, 0.05, [1e3, 1e2, 1e4], 2, 0)
    with pytest.raises(ValueError):
        sweep_power("Blind", 1, 0.05, [1e2, 1e3, 1e4], 0, 0)
    with pytest.raises(ValueError):
        sweep_power("Nope", 1, 0.05, [1e2, 1e3, 1e4], 1, 0, include_ser=False,
                    mi_samples=300)


MIXTURE_CAP = "^more than 1000000 mixture components exceed the cap"


class CellsReached(Exception):
    """Raised by the cell runner in place of the cells: the grid was let through."""


def _no_channel_drawn(monkeypatch):
    def unreachable(*a, **k):
        raise AssertionError("a channel was drawn")

    monkeypatch.setattr(experiments, "sample_channel", unreachable)


def test_sweep_power_refuses_an_oversize_grid_before_drawing(monkeypatch):
    # at m=2 the eavesdropper mixture outgrows the component cap by 1e6: the
    # grid is refused whole, not cut there
    _no_channel_drawn(monkeypatch)
    with pytest.raises(LatticeSizeError, match=MIXTURE_CAP):
        sweep_power("Blind", 2, 0.05, [1e2, 1e3, 1e4, 1e5, 1e6], 1, 5,
                    mi_samples=200, include_ser=False)


def test_sweep_power_errors_when_nothing_feasible(monkeypatch):
    _no_channel_drawn(monkeypatch)
    with pytest.raises(LatticeSizeError, match=MIXTURE_CAP):
        sweep_power("Blind", 2, 0.05, [1e6, 2e6, 4e6], 1, 5,
                    mi_samples=200, include_ser=False)


def test_slope_stderr_shrinks_with_draws():
    kw = dict(mi_samples=500, include_ser=False)
    few = fit_dof(sweep_power("Blind", 1, 0.05, [1e2, 1e3, 1e4], 5, 3, **kw))
    many = fit_dof(sweep_power("Blind", 1, 0.05, [1e2, 1e3, 1e4], 20, 3, **kw))
    assert many.pooled.slope_stderr < few.pooled.slope_stderr


def test_gaussian_jam_leakage_tracks_legit_rate():
    # unstructured jamming gives no secrecy: both information columns climb
    # (or stall) together, so their fitted slopes agree
    rows = sweep_power("GaussianJam", 1, 0.05, [1e2, 1e3, 1e4], 4, 11,
                       mi_samples=4000, include_ser=False)
    from blindjam.experiments import _fit_column
    s1 = _fit_column(rows, "i_vy1", 0).pooled.slope
    s2 = _fit_column(rows, "i_vy2", 0).pooled.slope
    assert abs(s1 - s2) <= 0.1


def test_zero_information_cell_below_minus_three_stderr_keeps_its_row():
    # draw 2 at p=1e3 estimates I(V;Y2) at -3.3 stderr: noise around a true zero
    rows = sweep_power("GaussianJam", 1, 0.05, [1e2, 1e3, 1e4, 1e5], 3, 81,
                       mi_samples=5000, include_ser=False)
    assert len(rows) == 12
    row = next(r for r in rows if r.draw_id == 2 and r.p == 1e3)
    assert row.i_vy2 < -3.0 * row.i_vy2_se
    assert all(r.bound == max(0.0, r.i_vy1 - r.i_vy2) for r in rows)


def test_compare_schemes_shape():
    report = compare_schemes(1, 0.05, [1e2, 1e3, 1e4], 2, 11, mi_samples=300)
    assert set(report.fits) == set(KINDS)
    assert len(report.rows) == 3 * 2 * 3
    summary = report.summary()
    assert [rec["kind"] for rec in summary] == list(KINDS)
    assert all(np.isfinite(rec["slope"]) for rec in summary)


def test_compare_schemes_empty_grid_errors():
    with pytest.raises(ValueError):
        compare_schemes(1, 0.05, [], 1, 0)


def test_compare_schemes_fits_every_kind_on_the_same_powers(monkeypatch):
    # at m=2 only Blind's mixture outgrows the cap at 1e6, and CsiAligned
    # alone runs that grid: compare refuses it for every kind rather than cut
    # it for one, and runs every kind on every power of a grid that fits
    runs = []

    def run_cells(kinds, m, delta, p_grid, *rest):
        runs.append((kinds, p_grid))
        raise CellsReached

    monkeypatch.setattr(experiments, "_run_cells", run_cells)
    grid = [1e3, 1e4, 1e5, 1e6]
    with pytest.raises(LatticeSizeError, match=MIXTURE_CAP):
        compare_schemes(2, 0.05, grid, 1, 5, mi_samples=200)
    with pytest.raises(CellsReached):
        sweep_power("CsiAligned", 2, 0.05, grid, 1, 5, mi_samples=200, include_ser=False)
    with pytest.raises(CellsReached):
        compare_schemes(2, 0.05, grid[:3], 1, 5, mi_samples=200)
    assert runs == [(("CsiAligned",), grid), (KINDS, grid[:3])]


def test_sweep_csv_round_trip(tmp_path):
    rows = sweep_power("Blind", 1, 0.05, [1e2, 1e3, 1e4], 2, 11,
                       mi_samples=300, ser_trials=400, min_errors=5)
    path = tmp_path / "sweep.csv"
    write_rows(rows, path)
    header = path.read_text().splitlines()[0]
    assert header == ("kind,m,delta,draw_id,p,q,a,gamma,trials,errors,ser,ser_stderr,"
                      "i_vy1,i_vy1_se,i_vy2,i_vy2_se,bound")
    assert read_sweep_csv(path) == rows


def test_read_sweep_csv_revalidates(tmp_path):
    rows = _planted_rows(0.5, draws=1)
    path = tmp_path / "sweep.csv"
    write_rows(rows, path)
    lines = path.read_text().splitlines()
    cols = lines[1].split(",")
    cols[5] = str(int(cols[5]) + 1)  # q column now off-schedule
    path.write_text("\n".join([lines[0], ",".join(cols)] + lines[2:]) + "\n")
    with pytest.raises(ValueError, match="schedule"):
        read_sweep_csv(path)


def test_ser_csv_accepts_both_row_types(tmp_path):
    ser_rows = [SerRow(p=1e2, m=1, delta=0.1, draw_id=0, trials=100, errors=7,
                       rate=0.07, stderr=0.02)]
    path = tmp_path / "ser.csv"
    write_rows(ser_rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "p,m,delta,draw_id,trials,errors,rate,stderr"
    assert len(lines) == 2


def test_sweep_ser_noiseless_and_validation(tmp_path):
    rows = sweep_ser("Blind", 1, 0.25, [1e2, 1e3], 2, 3, trials=2000,
                     min_errors=None, sigma1=0.0)
    assert len(rows) == 4
    assert all(r.rate == 0.0 and r.errors == 0 for r in rows)
    with pytest.raises(ValueError):
        sweep_ser("GaussianJam", 1, 0.25, [1e2, 1e3], 1, 3)
    with pytest.raises(ValueError):
        sweep_ser("Blind", 1, 0.25, [], 1, 3)
    with pytest.raises(ValueError, match="receiver"):
        sweep_ser("Blind", 1, 0.25, [1e2], 1, 3, receiver="bob")
    with pytest.raises(ValueError, match="sigma1"):
        sweep_ser("Blind", 1, 0.25, [1e2], 1, 3, receiver="eve", sigma1=0.0)


def test_eve_sweep_rows_and_worker_invariance():
    kw = dict(trials=2000, min_errors=None, receiver="eve")
    rows = sweep_ser("CsiAligned", 1, 0.25, [1e2, 1e3], 2, 3, **kw)
    assert [(r.draw_id, r.p) for r in rows] == [(0, 1e2), (0, 1e3), (1, 1e2), (1, 1e3)]
    assert all(r.trials == 2000 and 0 <= r.errors <= r.trials for r in rows)
    assert sweep_ser("CsiAligned", 1, 0.25, [1e2, 1e3], 2, 3, workers=3, **kw) == rows


def test_compare_and_dmin_csv_writers(tmp_path):
    report = compare_schemes(1, 0.05, [1e2, 1e3, 1e4], 1, 11, mi_samples=300)
    cpath = tmp_path / "compare.csv"
    write_rows(report.summary(), cpath)
    lines = cpath.read_text().splitlines()
    assert lines[0] == "kind,slope,slope_stderr,n_rows"
    assert len(lines) == 4  # one row per kind

    study = fit_dmin_exponent(1, [2, 4, 8], 3, 0)
    dpath = tmp_path / "dmin.csv"
    write_rows(study.rows, dpath)
    lines = dpath.read_text().splitlines()
    assert lines[0] == "draw_id,m,q,dmin,slope"
    assert len(lines) == 1 + 3 * 3


def test_manifest_deterministic_and_versioned(tmp_path):
    import blindjam

    path1 = tmp_path / "a.json"
    path2 = tmp_path / "b.json"
    config = {"command": "sweep", "m": 1, "p": [1e2, 1e3], "seed": 42}
    write_manifest(path1, config)
    write_manifest(path2, config)
    assert path1.read_bytes() == path2.read_bytes()
    payload = json.loads(path1.read_text())
    assert payload["package_version"] == blindjam.__version__
    assert payload["gamma_rule"] == "max-admissible"
    assert payload["m"] == 1
    # nothing time-like may enter the manifest
    assert not any("time" in k or "date" in k for k in payload)
