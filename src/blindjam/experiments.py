"""Power sweeps and slope analysis.

A sweep evaluates one or several scheme kinds over a grid of powers and a
set of independent channel draws, producing flat rows ready for CSV; every
kind sees the same channels and the same powers. Slope fits regress the rate
bound (or the leakage term) against half the log power, which is the
natural abscissa for degrees-of-freedom statements.

Determinism contract: every cell of a sweep derives its own RNG substreams
from (root seed, kind, draw, grid index), cells are computed independently,
and rows are ordered by (kind, draw, grid index) before output; the result
is byte-identical for any worker count.
"""
from __future__ import annotations

import csv
import json
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelRealization, default_budget, sample_channel
from .infometrics import COMPONENT_CAP, rate_lower_bound
from .receiver import estimate_eve_u_error, estimate_ser
from .schemes import (
    KINDS,
    SchemeConfig,
    jam_streams,
    make_blind_scheme,
    make_csi_scheme,
    make_gaussian_jam_scheme,
    schedule_q,
)
from .streams import child_seed

__all__ = [
    "SweepRow",
    "SerRow",
    "OlsFit",
    "DofFit",
    "ComparisonReport",
    "sweep_power",
    "sweep_ser",
    "fit_dof",
    "leakage_slope",
    "compare_schemes",
    "feasible_grid",
    "ols",
    "SWEEP_COLUMNS",
    "SER_COLUMNS",
    "COMPARE_COLUMNS",
    "DMIN_COLUMNS",
    "write_rows",
    "write_sweep_csv",
    "read_sweep_csv",
    "write_ser_csv",
    "write_compare_csv",
    "write_dmin_csv",
    "write_manifest",
]

DEFAULT_SWEEP_MI_SAMPLES = 20_000
DEFAULT_SWEEP_SER_TRIALS = 200_000


@dataclass(frozen=True)
class SweepRow:
    """One (scheme kind, channel draw, power) cell of a sweep."""

    kind: str
    m: int
    delta: float
    draw_id: int
    p: float
    q: int
    a: float
    gamma: float
    i_vy1: float
    i_vy1_se: float
    i_vy2: float
    i_vy2_se: float
    bound: float
    trials: int | None = None
    errors: int | None = None
    ser: float | None = None
    ser_stderr: float | None = None

    def __post_init__(self):
        if schedule_q(self.p, self.delta, self.m) != self.q:
            raise ValueError("q inconsistent with the (p, delta, m) schedule")
        a_expect = self.gamma * math.sqrt(self.p) / self.q
        if abs(a_expect - self.a) > 1e-9 * max(1.0, abs(self.a)):
            raise ValueError("a inconsistent with gamma*sqrt(p)/q")


SWEEP_COLUMNS = [
    "kind", "m", "delta", "draw_id", "p", "q", "a", "gamma",
    "trials", "errors", "ser", "ser_stderr",
    "i_vy1", "i_vy1_se", "i_vy2", "i_vy2_se", "bound",
]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _make_config(kind: str, m: int, p: float, delta: float, ch: ChannelRealization,
                 c_bar: float, alpha_seed: int) -> SchemeConfig:
    if kind == "Blind":
        return make_blind_scheme(m, p, delta, ch.h, c_bar, alpha_seed)
    if kind == "GaussianJam":
        return make_gaussian_jam_scheme(m, p, delta, ch.h, c_bar, alpha_seed)
    if kind == "CsiAligned":
        return make_csi_scheme(m, p, delta, ch.h, ch.g)
    raise ValueError(f"unknown scheme kind {kind!r}")


def feasible_grid(kinds, m: int, delta: float, p_grid) -> list[float]:
    """The powers of ``p_grid`` before the first at which some kind's
    eavesdropper mixture, the largest one, exceeds the component cap."""
    # the legitimate mixture and lattice hold (2q+1)^m (2 n_jam q + 1) <=
    # (2q+1)^(m + n_jam) points
    n_jam = max(len(jam_streams(kind, m)) for kind in kinds)
    for k, p in enumerate(p_grid):
        if (2 * schedule_q(p, delta, m) + 1) ** (m + n_jam) > COMPONENT_CAP:
            return list(p_grid[:k])
    return list(p_grid)


def _checked_grid(p_grid, n_draws: int, min_points: int) -> list[float]:
    p_grid = [float(p) for p in p_grid]
    if len(p_grid) < min_points:
        raise ValueError(f"power grid needs at least {min_points} point(s)")
    if any(b <= a for a, b in zip(p_grid, p_grid[1:])):
        raise ValueError("power grid must be strictly increasing")
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    return p_grid


def _run_cells(kinds, m: int, delta: float, p_grid, n_draws: int, seed: int,
               workers: int, cell, sigma1: float | None = None) -> list:
    """``cell(cfg, ch, d, i)`` for every (kind, draw d, grid index i), in that
    order, serially or on one thread pool.

    Each channel is drawn once, from (seed, draw index) alone, so every kind
    sees identical channels. ``sigma1`` overrides the legitimate receiver's
    noise level when given.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    channels = [sample_channel(m, child_seed(seed, "channel", d)) for d in range(n_draws)]
    if sigma1 is not None:
        channels = [replace(ch, sigma1=sigma1) for ch in channels]

    def run(kind_d_i):
        kind, d, i = kind_d_i
        ch = channels[d]
        # looked up as this module's global: perfbench starts a cell span here
        c_bar = default_budget(ch, p_grid[i]).c_bar
        cfg = _make_config(kind, m, p_grid[i], delta, ch, c_bar, child_seed(seed, "alphas", d))
        return cell(cfg, ch, d, i)

    cells = [(kind, d, i) for kind in kinds for d in range(n_draws) for i in range(len(p_grid))]
    workers = min(workers, len(cells))  # a thread per cell at most
    if workers == 1:
        return [run(c) for c in cells]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, cells))


def _legit_ser(cfg: SchemeConfig, ch: ChannelRealization, d: int, i: int, seed: int,
               trials: int, min_errors: int | None):
    """The legitimate receiver's block SER of cell (cfg.kind, draw d, grid
    index i): ``sweep``'s reliability columns and ``ser``'s rows."""
    # looked up as this module's global: perfbench's tracer wraps it here
    return estimate_ser(cfg, ch, trials, child_seed(seed, "cell", cfg.kind, d, i, "ser"),
                        min_errors=min_errors)


def _rate_rows(kinds, m: int, delta: float, p_grid, n_draws: int, seed: int, workers: int,
               mi_samples: int, ser_trials: int | None = None,
               min_errors: int | None = None) -> list[SweepRow]:
    """Rate-bound rows of every (kind, draw, power) cell, with the SER columns
    where ``ser_trials`` is given and the kind sends lattice jamming. The
    grid is cut once for all kinds, so their slopes share the same powers."""
    p_grid = _checked_grid(p_grid, n_draws, 3)
    kept = feasible_grid(kinds, m, delta, p_grid)
    if len(kept) < len(p_grid):
        p = p_grid[len(kept)]
        warnings.warn(f"truncating power grid at p={p:g}: q={schedule_q(p, delta, m)} "
                      "exceeds the component cap", RuntimeWarning)
    if len(kept) < 3:
        raise ValueError("fewer than 3 feasible grid points after cap truncation")

    def cell(cfg, ch, d, i):
        rb = rate_lower_bound(cfg, ch, method="mc", n_samples=mi_samples,
                              seed=child_seed(seed, "cell", cfg.kind, d, i, "mi"))
        row = dict(
            kind=cfg.kind, m=m, delta=delta, draw_id=d, p=cfg.p, q=cfg.q, a=cfg.a,
            gamma=cfg.gamma,
            i_vy1=rb.i_v_y1.value, i_vy1_se=rb.i_v_y1.stderr,
            i_vy2=rb.i_v_y2.value, i_vy2_se=rb.i_v_y2.stderr, bound=rb.bound,
        )
        if ser_trials is not None and jam_streams(cfg.kind, m):
            est = _legit_ser(cfg, ch, d, i, seed, ser_trials, min_errors)
            row.update(trials=est.trials, errors=est.errors, ser=est.rate,
                       ser_stderr=est.stderr)
        return SweepRow(**row)

    return _run_cells(kinds, m, delta, kept, n_draws, seed, workers, cell)


def sweep_power(kind: str, m: int, delta: float, p_grid, n_draws: int, seed: int, *,
                mi_samples: int = DEFAULT_SWEEP_MI_SAMPLES,
                ser_trials: int = DEFAULT_SWEEP_SER_TRIALS,
                min_errors: int | None = 100,
                include_ser: bool = True,
                workers: int = 1) -> list[SweepRow]:
    """Evaluate one scheme kind over (power grid) x (channel draws).

    The reliability columns stay empty when ``include_ser`` is off or the
    kind has no lattice jamming.
    """
    return _rate_rows((kind,), m, delta, p_grid, n_draws, seed, workers, mi_samples,
                      ser_trials if include_ser else None, min_errors)


@dataclass(frozen=True)
class SerRow:
    """One (channel draw, power) cell of a reliability-only sweep."""

    p: float
    m: int
    delta: float
    draw_id: int
    trials: int
    errors: int
    rate: float
    stderr: float


def sweep_ser(kind: str, m: int, delta: float, p_grid, n_draws: int, seed: int, *,
              trials: int = DEFAULT_SWEEP_SER_TRIALS,
              min_errors: int | None = 100,
              workers: int = 1,
              sigma1: float | None = None,
              receiver: str = "legit") -> list[SerRow]:
    """Reliability-only sweep (no information measures computed).

    ``receiver="legit"`` counts the legitimate receiver's block symbol
    errors; ``sigma1`` overrides its noise level when given (0 is allowed
    and checks the noiseless decoder). ``"eve"`` counts the eavesdropper's
    jamming-symbol errors when it knows the messages, the step that caps the
    leakage (``estimate_eve_u_error``).
    """
    p_grid = _checked_grid(p_grid, n_draws, 1)
    if not jam_streams(kind, m):
        raise ValueError("reliability sweeps need a lattice scheme kind")
    if receiver not in ("legit", "eve"):
        raise ValueError(f"receiver must be 'legit' or 'eve', not {receiver!r}")
    if receiver == "eve" and sigma1 is not None:
        raise ValueError("sigma1 sets the legitimate receiver's noise: an eve sweep takes none")

    def cell(cfg, ch, d, i):
        if receiver == "legit":
            est = _legit_ser(cfg, ch, d, i, seed, trials, min_errors)
        else:
            est = estimate_eve_u_error(cfg, ch, trials, child_seed(seed, "eveu", d, i),
                                       min_errors=min_errors)
        return SerRow(p=cfg.p, m=m, delta=delta, draw_id=d, trials=est.trials,
                      errors=est.errors, rate=est.rate, stderr=est.stderr)

    return _run_cells((kind,), m, delta, p_grid, n_draws, seed, workers, cell, sigma1)


@dataclass(frozen=True)
class OlsFit:
    slope: float
    intercept: float
    slope_stderr: float
    n: int


def ols(x, y) -> OlsFit:
    """Ordinary least squares y = slope*x + intercept with slope stderr."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D of equal length")
    n = x.shape[0]
    if n < 2 or np.ptp(x) == 0:
        raise ValueError("need at least 2 distinct x values")
    xbar = np.mean(x)
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - np.mean(y))) / sxx)
    intercept = float(np.mean(y) - slope * xbar)
    if n > 2:
        resid = y - (slope * x + intercept)
        s2 = float(np.sum(resid ** 2)) / (n - 2)
        stderr = math.sqrt(s2 / sxx)
    else:
        stderr = 0.0
    return OlsFit(slope=slope, intercept=intercept, slope_stderr=stderr, n=n)


@dataclass(frozen=True)
class DofFit:
    """Slope of a sweep column against (1/2) log2 p, pooled and per draw."""

    pooled: OlsFit
    per_draw: tuple[tuple[int, float], ...]
    column: str
    excluded_lowest: int


def _fit_column(rows, column: str, exclude_lowest: int) -> DofFit:
    if not rows:
        raise ValueError("no rows to fit")
    if exclude_lowest < 0:
        raise ValueError("exclude_lowest must be >= 0")
    series = sorted({(row.kind, row.m, row.delta) for row in rows})
    if len(series) > 1:
        raise ValueError("rows of several (kind, m, delta) do not share one slope: "
                         + ", ".join(f"{k} m={m} delta={d:g}" for k, m, d in series))
    ps = sorted({row.p for row in rows})
    if exclude_lowest:
        if len(ps) - exclude_lowest < 3:
            raise ValueError("degenerate grid: fewer than 3 distinct powers after exclusion")
        ps = ps[exclude_lowest:]
    keep = [row for row in rows if row.p in set(ps)]
    if len(set(row.p for row in keep)) < 3:
        raise ValueError("degenerate grid: fewer than 3 distinct powers")

    def fit(sub) -> OlsFit:
        return ols([0.5 * math.log2(row.p) for row in sub], [getattr(row, column) for row in sub])

    per_draw = []
    for d in sorted({row.draw_id for row in keep}):
        sub = [row for row in keep if row.draw_id == d]
        if len(sub) >= 2:
            per_draw.append((d, fit(sub).slope))
    return DofFit(pooled=fit(keep), per_draw=tuple(per_draw), column=column,
                  excluded_lowest=exclude_lowest)


def fit_dof(rows, exclude_lowest: int = 0) -> DofFit:
    """Degrees-of-freedom fit: rate bound against (1/2) log2 p."""
    return _fit_column(rows, "bound", exclude_lowest)


def leakage_slope(rows, exclude_lowest: int = 0) -> DofFit:
    """Leakage fit: eavesdropper information against (1/2) log2 p."""
    return _fit_column(rows, "i_vy2", exclude_lowest)


@dataclass(frozen=True)
class ComparisonReport:
    """Side-by-side degrees-of-freedom fits, one per scheme kind of KINDS."""

    fits: dict
    rows: tuple[SweepRow, ...]

    def summary(self) -> list[dict]:
        out = []
        for kind in KINDS:
            fit = self.fits[kind]
            out.append({"kind": kind, "slope": fit.pooled.slope,
                        "slope_stderr": fit.pooled.slope_stderr,
                        "n_rows": fit.pooled.n})
        return out


def compare_schemes(m: int, delta: float, p_grid, n_draws: int, seed: int, *,
                    mi_samples: int = DEFAULT_SWEEP_MI_SAMPLES,
                    exclude_lowest: int = 0,
                    workers: int = 1) -> ComparisonReport:
    """Fit the rate-bound slope for each kind on identical channel draws and
    powers, all cells in one pass."""
    rows = _rate_rows(KINDS, m, delta, p_grid, n_draws, seed, workers, mi_samples)
    fits = {kind: fit_dof([row for row in rows if row.kind == kind], exclude_lowest)
            for kind in KINDS}
    return ComparisonReport(fits=fits, rows=tuple(rows))


def write_rows(rows, columns, path) -> None:
    """Mappings to CSV: a header of ``columns``, then one line per mapping."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[col]) for col in columns])


def write_sweep_csv(rows, path) -> None:
    write_rows(map(vars, rows), SWEEP_COLUMNS, path)


def read_sweep_csv(path) -> list[SweepRow]:
    """``SweepRow``s from a CSV; ValueError when a sweep column is missing."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = [col for col in SWEEP_COLUMNS if col not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path} is not a sweep CSV: missing {', '.join(missing)}")
        for rec in reader:
            rows.append(SweepRow(
                kind=rec["kind"], m=int(rec["m"]), delta=float(rec["delta"]),
                draw_id=int(rec["draw_id"]), p=float(rec["p"]), q=int(rec["q"]),
                a=float(rec["a"]), gamma=float(rec["gamma"]),
                trials=int(rec["trials"]) if rec["trials"] else None,
                errors=int(rec["errors"]) if rec["errors"] else None,
                ser=float(rec["ser"]) if rec["ser"] else None,
                ser_stderr=float(rec["ser_stderr"]) if rec["ser_stderr"] else None,
                i_vy1=float(rec["i_vy1"]), i_vy1_se=float(rec["i_vy1_se"]),
                i_vy2=float(rec["i_vy2"]), i_vy2_se=float(rec["i_vy2_se"]),
                bound=float(rec["bound"]),
            ))
    return rows


SER_COLUMNS = ["p", "m", "delta", "draw_id", "trials", "errors", "rate", "stderr"]


def write_ser_csv(rows, path) -> None:
    """``SerRow``s to CSV, one line per row."""
    write_rows(map(vars, rows), SER_COLUMNS, path)


COMPARE_COLUMNS = ["kind", "slope", "slope_stderr", "n_rows"]


def write_compare_csv(report: ComparisonReport, path) -> None:
    """One row per scheme kind: the fitted rate-bound slope."""
    write_rows(report.summary(), COMPARE_COLUMNS, path)


DMIN_COLUMNS = ["draw_id", "m", "q", "dmin", "slope"]


def write_dmin_csv(study, path) -> None:
    write_rows((dict(vars(row), m=study.m, slope=study.slopes[row.draw_id])
                for row in study.rows), DMIN_COLUMNS, path)


def write_manifest(path, config: dict) -> None:
    """Reproducibility manifest: the full resolved configuration, nothing else.

    Deliberately excludes wall-clock information so a rerun from the
    manifest is byte-identical.
    """
    from . import __version__

    payload = dict(config)
    payload["package_version"] = __version__
    payload["gamma_rule"] = "max-admissible"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
