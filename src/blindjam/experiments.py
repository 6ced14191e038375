"""Power sweeps and slope analysis.

A sweep evaluates one or several scheme kinds over a grid of powers and a
set of independent channel draws, producing rows whose fields, in order, are
its CSV's columns; every kind sees the same channels and the same powers.
Slope fits regress the rate bound (or the leakage term) against half the log
power, which is the natural abscissa for degrees-of-freedom statements.

Determinism contract: every cell of a sweep derives its own RNG substreams
from (root seed, kind, draw, grid index), cells are computed independently,
and rows are ordered by (kind, draw, grid index) before output; the result
is byte-identical for any worker count.
"""
from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import NamedTuple

import numpy as np

from .channel import ChannelRealization, default_budget, sample_channel
from .constellation import POINT_CAP, check_size
from .infometrics import COMPONENT_CAP, MiEstimate, RateBound, rate_lower_bound
from .receiver import ErrorEstimate, estimate_eve_u_error, estimate_ser
from .schemes import (
    KINDS,
    SchemeConfig,
    jam_streams,
    make_blind_scheme,
    make_csi_scheme,
    make_gaussian_jam_scheme,
    schedule_q,
    stream_counts,
)
from .streams import child_seed

__all__ = [
    "SweepRow",
    "SerRow",
    "OlsFit",
    "Series",
    "sweep_power",
    "sweep_ser",
    "fit_slopes",
    "compare_schemes",
    "ols",
    "write_rows",
    "read_sweep_csv",
]

DEFAULT_SWEEP_MI_SAMPLES = 20_000
DEFAULT_SWEEP_SER_TRIALS = 200_000
MAX_CELLS = 100_000  # most (kind, draw, power) cells one sweep runs


@dataclass(frozen=True, kw_only=True)
class SweepRow:
    """One (scheme kind, channel draw, power) cell of a sweep: a CSV line.

    Set: the cell's coordinates, gamma, the SER counts (both or neither) and
    the two information estimates. Derived here, by the code that holds each
    formula: q (``schedule_q``), a = gamma*sqrt(p)/q, ser and ser_stderr
    (``ErrorEstimate``, empty without counts) and the bound (``RateBound``).
    """

    kind: str
    m: int
    delta: float
    draw_id: int
    p: float
    q: int = field(init=False)
    a: float = field(init=False)
    gamma: float
    trials: int | None = None
    errors: int | None = None
    ser: float | None = field(init=False)
    ser_stderr: float | None = field(init=False)
    i_vy1: float
    i_vy1_se: float
    i_vy2: float
    i_vy2_se: float
    bound: float = field(init=False)

    def __post_init__(self):
        q = schedule_q(self.p, self.delta, self.m)
        for f in fields(self):
            if f.init and f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} is not finite")
        if (self.trials is None) != (self.errors is None):
            raise ValueError("trials and errors must be given together or not at all")
        derived = dict(q=q, a=self.gamma * math.sqrt(self.p) / q, ser=None, ser_stderr=None)
        if self.trials is not None:
            est = ErrorEstimate(self.trials, self.errors)
            derived.update(ser=est.rate, ser_stderr=est.stderr)
        derived["bound"] = RateBound(MiEstimate(self.i_vy1, self.i_vy1_se),
                                     MiEstimate(self.i_vy2, self.i_vy2_se)).bound
        for name, value in derived.items():
            object.__setattr__(self, name, value)


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
        return make_csi_scheme(p, delta, ch.h, ch.g)
    raise ValueError(f"unknown scheme kind {kind!r}")


def _checked_grid(p_grid, kinds: int, draws: int, min_points: int, delta: float, m: int,
                  sums, cap: int, what: str) -> list[float]:
    """The grid as floats, refused unless it is strictly increasing, makes at most
    MAX_CELLS cells with ``kinds`` and ``draws``, and each of ``sums`` (``stream_counts``)
    holds at most ``cap`` points at its top power: a grid is run whole, or refused before
    a draw."""
    p_grid = [float(p) for p in p_grid]
    if len(p_grid) < min_points:
        raise ValueError(f"power grid needs at least {min_points} point(s)")
    if any(b <= a for a, b in zip(p_grid, p_grid[1:])):
        raise ValueError("power grid must be strictly increasing")
    if draws < 1:
        raise ValueError("draws must be >= 1")
    if kinds * draws * len(p_grid) > MAX_CELLS:
        raise ValueError(f"more than {MAX_CELLS} cells (kinds x draws x powers) exceed the cap")
    q = schedule_q(p_grid[-1], delta, m)
    # each sum has m coordinates or more, of 2q+1 >= 3 values: a huge m is refused unlisted
    check_size((3 for _ in range(m)), cap, what)
    for counts in sums:
        check_size((2 * n * q + 1 for n in counts), cap, what)
    return p_grid


def _run_cells(kinds, m: int, delta: float, p_grid, draws: int, seed: int,
               workers: int, cell) -> list:
    """``cell(cfg, ch, d, i)`` for every (kind, draw d, grid index i), in that
    order, serially or on one thread pool.

    Each channel is drawn once, from (seed, draw index) alone, so every kind
    sees identical channels.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    channels = [sample_channel(m, child_seed(seed, "channel", d)) for d in range(draws)]

    def run(kind_d_i):
        kind, d, i = kind_d_i
        ch = channels[d]
        # looked up as this module's global: perfbench starts a cell span here
        c_bar = default_budget(ch, p_grid[i]).c_bar
        cfg = _make_config(kind, m, p_grid[i], delta, ch, c_bar, child_seed(seed, "alphas", d))
        return cell(cfg, ch, d, i)

    cells = [(kind, d, i) for kind in kinds for d in range(draws) for i in range(len(p_grid))]
    workers = min(workers, len(cells), os.cpu_count() or 1)  # a thread per cell and CPU at most
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


def _rate_rows(kinds, m: int, delta: float, p_grid, draws: int, seed: int, workers: int,
               mi_samples: int, ser_trials: int | None = None,
               min_errors: int | None = None) -> list[SweepRow]:
    """Rate-bound rows of every (kind, draw, power) cell, with the SER columns
    where ``ser_trials`` is given and the kind sends lattice jamming. A grid
    on which any kind's mixture exceeds the cap is refused whole, so every
    kind runs on every power; the SER lattice is no larger than a mixture."""
    sums = (stream_counts(kind, m, receiver) for kind in kinds for receiver in ("legit", "eve"))
    p_grid = _checked_grid(p_grid, len(kinds), draws, 3, delta, m, sums, COMPONENT_CAP,
                           "mixture components")

    def cell(cfg, ch, d, i):
        rb = rate_lower_bound(cfg, ch, method="mc", n_samples=mi_samples,
                              seed=child_seed(seed, "cell", cfg.kind, d, i, "mi"))
        row = dict(
            kind=cfg.kind, m=m, delta=delta, draw_id=d, p=cfg.p, gamma=cfg.gamma,
            i_vy1=rb.i_v_y1.value, i_vy1_se=rb.i_v_y1.stderr,
            i_vy2=rb.i_v_y2.value, i_vy2_se=rb.i_v_y2.stderr,
        )
        if ser_trials is not None and jam_streams(cfg.kind, m):
            est = _legit_ser(cfg, ch, d, i, seed, ser_trials, min_errors)
            row.update(trials=est.trials, errors=est.errors)
        return SweepRow(**row)

    return _run_cells(kinds, m, delta, p_grid, draws, seed, workers, cell)


def sweep_power(kind: str, m: int, delta: float, p, draws: int, seed: int, *,
                mi_samples: int = DEFAULT_SWEEP_MI_SAMPLES,
                ser_trials: int = DEFAULT_SWEEP_SER_TRIALS,
                min_errors: int | None = 100,
                include_ser: bool = True,
                workers: int = 1) -> list[SweepRow]:
    """Evaluate one scheme kind over (power grid) x (channel draws).

    The reliability columns stay empty when ``include_ser`` is off or the
    kind has no lattice jamming.
    """
    return _rate_rows((kind,), m, delta, p, draws, seed, workers, mi_samples,
                      ser_trials if include_ser else None, min_errors)


@dataclass(frozen=True)
class SerRow:
    """One (channel draw, power) cell of a reliability-only sweep: a CSV line.
    rate and stderr are derived from the counts by ``ErrorEstimate``."""

    p: float
    m: int
    delta: float
    draw_id: int
    trials: int
    errors: int
    rate: float = field(init=False)
    stderr: float = field(init=False)

    def __post_init__(self):
        est = ErrorEstimate(self.trials, self.errors)
        object.__setattr__(self, "rate", est.rate)
        object.__setattr__(self, "stderr", est.stderr)


def sweep_ser(kind: str, m: int, delta: float, p, draws: int, seed: int, *,
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
    if not jam_streams(kind, m):
        raise ValueError("reliability sweeps need a lattice scheme kind")
    if receiver == "eve" and sigma1 is not None:
        raise ValueError("sigma1 sets the legitimate receiver's noise: an eve sweep takes none")
    # the decoder's lattice: every coordinate the legitimate receiver sums, the
    # eavesdropper's jamming coordinates alone; listed after _checked_grid's m check
    sums = (stream_counts(kind, m, r)[0 if r == "legit" else m:] for r in (receiver,))
    p_grid = _checked_grid(p, 1, draws, 1, delta, m, sums, POINT_CAP, "lattice points")

    def cell(cfg, ch, d, i):
        if receiver == "legit":
            if sigma1 is not None:
                ch = replace(ch, sigma1=sigma1)
            est = _legit_ser(cfg, ch, d, i, seed, trials, min_errors)
        else:
            est = estimate_eve_u_error(cfg, ch, trials, child_seed(seed, "eveu", d, i),
                                       min_errors=min_errors)
        return SerRow(p=cfg.p, m=m, delta=delta, draw_id=d, trials=est.trials,
                      errors=est.errors)

    return _run_cells((kind,), m, delta, p_grid, draws, seed, workers, cell)


@dataclass(frozen=True)
class OlsFit:
    slope: float
    intercept: float
    slope_stderr: float
    n: int


def ols(x, y) -> OlsFit:
    """Ordinary least squares y = slope*x + intercept with slope stderr; x
    and y must be finite, and so must the fit (a NaN or an infinity, or an
    overflow, is refused)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D of equal length")
    n = x.shape[0]
    if n < 2 or x.min() == x.max():
        raise ValueError("need at least 2 distinct x values")
    with np.errstate(all="ignore"):  # a NaN or an overflow is refused below
        xbar = np.mean(x)
        sxx = np.sum((x - xbar) ** 2)
        slope = float(np.sum((x - xbar) * (y - np.mean(y))) / sxx)
        intercept = float(np.mean(y) - slope * xbar)
        if n > 2:
            resid = y - (slope * x + intercept)
            s2 = np.sum(resid ** 2) / (n - 2)
            stderr = math.sqrt(s2 / sxx)
        else:
            stderr = 0.0
    if not all(map(math.isfinite, (sxx, slope, intercept, stderr))):
        raise ValueError("x and y must be finite, and so must their least-squares fit")
    return OlsFit(slope=slope, intercept=intercept, slope_stderr=stderr, n=n)


class Series(NamedTuple):
    """The (kind, m, delta) of a sweep row: the rows that share one slope."""

    kind: str
    m: int
    delta: float

    def __str__(self) -> str:
        return f"{self.kind} m={self.m} delta={self.delta:g}"


def fit_slopes(rows, column: str = "bound", exclude_lowest: int = 0) -> dict[Series, OlsFit]:
    """Slope of ``column`` against (1/2) log2 p for each ``Series`` of the
    rows, in sorted order: ``bound`` gives the degrees of freedom, ``i_vy2``
    the leakage. A series keeps all but its ``exclude_lowest`` lowest powers,
    and is refused under 3."""
    if not rows:
        raise ValueError("no rows to fit")
    if exclude_lowest < 0:
        raise ValueError("exclude_lowest must be >= 0")
    fits = {}
    for series in sorted({Series(row.kind, row.m, row.delta) for row in rows}):
        in_series = [row for row in rows if (row.kind, row.m, row.delta) == series]
        kept = set(sorted({row.p for row in in_series})[exclude_lowest:])
        if len(kept) < 3:
            raise ValueError(f"{series}: degenerate grid: fewer than 3 distinct powers left to fit")
        keep = [row for row in in_series if row.p in kept]
        fits[series] = ols([0.5 * math.log2(row.p) for row in keep],
                           [getattr(row, column) for row in keep])
    return fits


def compare_schemes(m: int, delta: float, p, draws: int, seed: int, *,
                    mi_samples: int = DEFAULT_SWEEP_MI_SAMPLES,
                    workers: int = 1) -> list[SweepRow]:
    """Rate-bound rows of every kind of KINDS on identical channel draws and
    powers, all cells in one pass, in KINDS order; ``fit_slopes`` gives each
    kind's slope."""
    return _rate_rows(KINDS, m, delta, p, draws, seed, workers, mi_samples)


def write_rows(rows, path) -> None:
    """Rows to CSV: a header of the columns, a dataclass row's fields or a
    mapping's keys, in order, then one line per row."""
    rows = [{f.name: getattr(row, f.name) for f in fields(row)} if is_dataclass(row) else row
            for row in rows]
    if not rows:
        raise ValueError("no rows to write")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(rows[0])
        writer.writerows(map(_fmt, row.values()) for row in rows)


_PARSERS = {"str": str, "int": int, "float": float}


def _parse(f, text: str):
    """A CSV value as field ``f``'s declared type; only an optional one may be empty."""
    if not text:
        if f.type.endswith(" | None"):
            return None
        raise ValueError(f"{f.name} is empty")
    return _PARSERS[f.type.removesuffix(" | None")](text)


# what each derived column of a sweep CSV follows from, for a refusal's message
_DERIVED_FROM = {"q": "the (p, delta, m) schedule", "a": "gamma*sqrt(p)/q",
                 "ser": "errors/trials", "ser_stderr": "trials and errors",
                 "bound": "max(0, i_vy1 - i_vy2)"}


def _check_derived(row: SweepRow, name: str, value) -> None:
    """A derived column as read must be finite and equal what its row derives:
    exactly, but for a, within 1e-9 relative."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{name} is not finite")
    derived = getattr(row, name)
    if (abs(derived - value) > 1e-9 * max(1.0, abs(value)) if name == "a"
            else derived != value):
        raise ValueError(f"{name} inconsistent with {_DERIVED_FROM[name]}")


def read_sweep_csv(path) -> list[SweepRow]:
    """``SweepRow``s from a CSV. ValueError when a column is missing, or naming
    the line that holds other than one value per column, a value refused, or
    a derived column (q, a, ser, ser_stderr, bound) other than its row's."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [f.name for f in fields(SweepRow) if f.name not in header]
        if missing:
            raise ValueError(f"{path} is not a sweep CSV: missing {', '.join(missing)}")
        rows = []
        for values in reader:
            try:
                if len(values) != len(header):
                    raise ValueError(f"{len(values)} values for {len(header)} columns")
                rec = dict(zip(header, values))
                given = {f.name: _parse(f, rec[f.name]) for f in fields(SweepRow)}
                row = SweepRow(**{f.name: given[f.name] for f in fields(SweepRow) if f.init})
                for f in fields(SweepRow):
                    if not f.init:
                        _check_derived(row, f.name, given[f.name])
                rows.append(row)
            except ValueError as exc:
                raise ValueError(f"{path} line {reader.line_num}: {exc}") from None
    return rows

