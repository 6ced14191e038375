import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindjam import constellation, experiments
from blindjam.constellation import LatticeSizeError, fit_dmin_exponent
from blindjam import cli
from blindjam.experiments import (
    OlsFit,
    SerRow,
    SweepRow,
    Series,
    compare_schemes,
    fit_slopes,
    ols,
    read_sweep_csv,
    sweep_power,
    sweep_ser,
    write_rows,
)
from blindjam.schemes import KINDS


def _planted_rows(slope, p_grid=(1e2, 1e3, 1e4, 1e5), draws=2, kind="Blind",
                  m=1, delta=0.05, gamma=0.3, leak=0.25):
    rows = []
    for d in range(draws):
        for p in p_grid:
            x = 0.5 * math.log2(p)
            bound = slope * x + 1.0
            rows.append(SweepRow(kind=kind, m=m, delta=delta, draw_id=d, p=p,
                                 gamma=gamma, i_vy1=bound + leak,
                                 i_vy1_se=0.0, i_vy2=leak, i_vy2_se=0.0))
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
    # an infinite x warned from numpy, a NaN y gave a NaN fit, 1e308 overflows
    for x, y in (([1, 2, math.inf], [1, 2, 3]), ([1, 2, 3], [1, math.nan, 3]),
                 ([1e308, -1e308, 0], [1, 2, 3]), ([1, 2, 3], [1e308, -1e308, 1e308])):
        with pytest.raises(ValueError, match="must be finite"):
            ols(x, y)


def test_sweep_row_revalidates_schedule(tmp_path):
    # a row derives q and a, so these inputs come from a CSV alone: the reader
    # refuses a q off the schedule, and an a off gamma*sqrt(p)/q
    row = SweepRow(kind="Blind", m=1, delta=0.05, draw_id=0, p=1e3, gamma=0.3,
                   i_vy1=1.0, i_vy1_se=0.0, i_vy2=0.0, i_vy2_se=0.0)
    path = tmp_path / "sweep.csv"
    for column, value, match in (("q", 3, "schedule"), ("a", 1.0, "gamma")):
        write_rows([{**asdict(row), column: value}], path)
        with pytest.raises(ValueError, match=match):
            read_sweep_csv(path)


@settings(max_examples=200, deadline=None)
@given(p=st.floats(1e-3, 1e15), delta=st.floats(0.001, 0.499), m=st.integers(1, 8),
       gamma=st.floats(1e-6, 1e3), info=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2),
       se=st.lists(st.floats(0.0, 1e3), min_size=2, max_size=2),
       trials=st.integers(1, 10**12), share=st.floats(0.0, 1.0))
def test_rows_derive_what_they_were_given(p, delta, m, gamma, info, se, trials, share):
    # bit for bit the expressions the sweep cells passed in: the schedule, the
    # spacing, ErrorEstimate's rate and stderr and RateBound's clamped difference
    errors = round(share * trials)
    row = SweepRow(kind="Blind", m=m, delta=delta, draw_id=0, p=p, gamma=gamma,
                   trials=trials, errors=errors, i_vy1=info[0], i_vy1_se=se[0],
                   i_vy2=info[1], i_vy2_se=se[1])
    q = max(1, math.floor(p ** ((1.0 - delta) / (2.0 * (m + 1 + delta)))))
    rate = errors / trials
    stderr = math.sqrt(max(rate * (1.0 - rate), 0.0) / trials)
    want = [gamma * math.sqrt(p) / q, rate, stderr, max(0.0, info[0] - info[1])]
    assert row.q == q
    assert [x.hex() for x in (row.a, row.ser, row.ser_stderr, row.bound)] == [
        x.hex() for x in want]
    ser_row = SerRow(p=p, m=m, delta=delta, draw_id=0, trials=trials, errors=errors)
    assert [ser_row.rate.hex(), ser_row.stderr.hex()] == [rate.hex(), stderr.hex()]
    bare = replace(row, trials=None, errors=None)
    assert (bare.ser, bare.ser_stderr) == (None, None) and bare.bound == row.bound
    for alone in (dict(trials=None), dict(errors=None)):
        with pytest.raises(ValueError, match="together"):
            replace(row, **alone)


def test_read_sweep_csv_takes_an_a_within_its_tolerance(tmp_path):
    # a is compared within 1e-9 relative, as before it was derived; an a
    # moved by 5e-10 of itself reads back as the row, by 2e-9 it is refused
    rows = _planted_rows(0.5, draws=1)
    path = tmp_path / "sweep.csv"
    for factor, refused in ((1 + 5e-10, False), (1 + 2e-9, True)):
        write_rows([{**asdict(row), "a": row.a * factor} for row in rows], path)
        if refused:
            with pytest.raises(ValueError, match="line 2: a inconsistent"):
                read_sweep_csv(path)
        else:
            assert read_sweep_csv(path) == rows


BLIND = Series("Blind", 1, 0.05)


def test_fit_slopes_recovers_planted_slope():
    rows = _planted_rows(0.5)
    fits = fit_slopes(rows)
    assert list(fits) == [BLIND] and str(BLIND) == "Blind m=1 delta=0.05"
    fit = fits[BLIND]
    assert isinstance(fit, OlsFit) and fit.n == 2 * 4
    assert fit.slope == pytest.approx(0.5, abs=1e-10)
    assert fit.intercept == pytest.approx(1.0, abs=1e-10)


def test_leakage_slope_constant_column_is_zero():
    fit = fit_slopes(_planted_rows(0.5), "i_vy2")[BLIND]
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.intercept == pytest.approx(0.25, abs=1e-12)


def test_fit_exclusion_rules():
    rows = _planted_rows(0.5)
    fit = fit_slopes(rows, exclude_lowest=1)[BLIND]
    assert fit.n == 2 * 3
    with pytest.raises(ValueError, match="^Blind m=1 delta=0.05: degenerate"):
        fit_slopes(rows, exclude_lowest=2)
    # a negative count would keep the top three powers of four instead
    with pytest.raises(ValueError, match="exclude_lowest"):
        fit_slopes(rows, "i_vy2", exclude_lowest=-3)
    with pytest.raises(ValueError):
        fit_slopes([])
    # a draw of one power refuses nothing: the series is fitted pooled
    one_power = _planted_rows(0.5, p_grid=(1e3, 1e3), draws=3)[4:]
    fit = fit_slopes(rows + one_power)[BLIND]
    assert fit.n == 10


@pytest.mark.parametrize("other", [dict(kind="CsiAligned"), dict(m=2), dict(delta=0.1)])
def test_fit_slopes_fits_each_series_apart(other):
    # one line through several (kind, m, delta) series is no slope of any:
    # each series gets its own, in sorted order
    rows = _planted_rows(0.1, **other) + _planted_rows(0.5)
    series = Series(**{**BLIND._asdict(), **other})
    for column, want in (("bound", {BLIND: 0.5, series: 0.1}), ("i_vy2", {BLIND: 0.0, series: 0.0})):
        fits = fit_slopes(rows, column)
        assert list(fits) == sorted(want)
        for key, fit in fits.items():
            assert fit.slope == pytest.approx(want[key], abs=1e-10)
            assert fit.n == 8


def test_fit_slopes_names_the_series_it_refuses():
    # the other series has 2 powers; the Blind one, sorted first, fits
    rows = _planted_rows(0.5) + _planted_rows(0.1, p_grid=(1e2, 1e3), kind="CsiAligned")
    with pytest.raises(ValueError, match="^CsiAligned m=1 delta=0.05: degenerate grid"):
        fit_slopes(rows)


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
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 8)
    kw = dict(trials=500, min_errors=5)
    want = sweep_ser("Blind", 1, 0.1, [1e2, 1e3, 1e4], 1, 3, **kw)
    assert sweep_ser("Blind", 1, 0.1, [1e2, 1e3, 1e4], 1, 3, workers=10**6, **kw) == want
    assert sweep_ser("Blind", 1, 0.1, [1e2, 1e3, 1e4], 2, 3, workers=4, **kw)[:3] == want
    assert seen == [3, 4]
    # one cell, or one worker, runs serially
    sweep_ser("Blind", 1, 0.1, [1e2], 1, 3, workers=8, **kw)
    assert seen == [3, 4]
    # nor more threads than CPUs, and one when the count is unknown
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    assert sweep_ser("Blind", 1, 0.1, [1e2, 1e3, 1e4], 1, 3, workers=10**6, **kw) == want
    assert seen == [3, 4, 2]
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
    assert sweep_ser("Blind", 1, 0.1, [1e2, 1e3, 1e4], 1, 3, workers=4, **kw) == want
    assert seen == [3, 4, 2]
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


# (p, keywords): each ran a cell or more before a later cell refused it, or ran whole
BAD_REQUESTS = {
    "nan-power": ([1e2, 1e3, math.nan, 1e4], {}),
    "infinite-power": ([-math.inf, 1e2, 1e3], {}),
    "zero-power": ([0.0, 1e2, 1e3], {}),
    "bool-power": ([True, 2.0, 3.0], {}),
    "string-power": ("248", {}),
    "fractional-workers": ([1e2, 1e3, 1e4], {"workers": 1.5}),
}


@pytest.mark.parametrize("study", [sweep_power, sweep_ser])
@pytest.mark.parametrize("p, kw", BAD_REQUESTS.values(), ids=list(BAD_REQUESTS))
def test_a_bad_request_is_refused_before_a_channel_is_drawn(study, p, kw, monkeypatch):
    _no_channel_drawn(monkeypatch)
    with pytest.raises((ValueError, TypeError)):
        study("Blind", 1, 0.05, p, 2, 0, **kw)


@pytest.mark.parametrize("q", [[0, 1, 2], [-4, 1, 2], "248", [2.0, 4.5, 8]])
def test_dmin_refuses_a_bad_q_grid_before_its_first_draw(q, monkeypatch):
    def unreachable(*a, **k):
        raise AssertionError("a draw was made")

    monkeypatch.setattr(constellation, "substream", unreachable)
    with pytest.raises(ValueError, match="q grid"):
        fit_dmin_exponent(1, q, 1, 0)


def test_slope_stderr_shrinks_with_draws():
    kw = dict(mi_samples=500, include_ser=False)
    few = fit_slopes(sweep_power("Blind", 1, 0.05, [1e2, 1e3, 1e4], 5, 3, **kw))[BLIND]
    many = fit_slopes(sweep_power("Blind", 1, 0.05, [1e2, 1e3, 1e4], 20, 3, **kw))[BLIND]
    assert many.slope_stderr < few.slope_stderr


def test_gaussian_jam_leakage_tracks_legit_rate():
    # unstructured jamming gives no secrecy: both information columns climb
    # (or stall) together, so their fitted slopes agree
    rows = sweep_power("GaussianJam", 1, 0.05, [1e2, 1e3, 1e4], 4, 11,
                       mi_samples=4000, include_ser=False)
    s1, s2 = (fit_slopes(rows, column)[Series("GaussianJam", 1, 0.05)].slope
              for column in ("i_vy1", "i_vy2"))
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
    rows = compare_schemes(1, 0.05, [1e2, 1e3, 1e4], 2, 11, mi_samples=300)
    # KINDS order, then draw and power, as sweep_power writes one kind's rows
    assert [(r.kind, r.draw_id, r.p) for r in rows] == [
        (kind, d, p) for kind in KINDS for d in range(2) for p in (1e2, 1e3, 1e4)]
    fits = fit_slopes(rows)
    assert list(fits) == [Series(kind, 1, 0.05) for kind in KINDS]
    assert all(np.isfinite(fit.slope) and fit.n == 2 * 3 for fit in fits.values())


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
    ser_rows = [SerRow(p=1e2, m=1, delta=0.1, draw_id=0, trials=100, errors=7)]
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
    cpath = tmp_path / "compare.csv"
    cli.cmd_compare(str(cpath), 0, m=1, delta=0.05, p=[1e2, 1e3, 1e4], draws=1, seed=11,
                    mi_samples=300)
    lines = cpath.read_text().splitlines()
    assert lines[0] == "kind,slope,slope_stderr,n_rows"
    assert [line.split(",")[0] for line in lines[1:]] == list(KINDS)  # one row per kind
    assert len((tmp_path / "compare_rows.csv").read_text().splitlines()) == 1 + 3 * 3

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
    cli.write_manifest(path1, config)
    cli.write_manifest(path2, config)
    assert path1.read_bytes() == path2.read_bytes()
    payload = json.loads(path1.read_text())
    assert payload["package_version"] == blindjam.__version__
    assert payload["gamma_rule"] == "max-admissible"
    assert payload["m"] == 1
    # nothing time-like may enter the manifest
    assert not any("time" in k or "date" in k for k in payload)
