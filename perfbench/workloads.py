"""The benchmark's two workloads, their four parts and the checks on their
outputs.

A part is built from the seed (its set-up: the inputs the calls take), then
``run`` makes the timed calls into blindjam and ``check`` judges what they
returned. Every call goes through a module attribute
(``experiments.sweep_power``, not a name imported here), so the tracer's
wrappers see it. Why each workload exists is in ``NOTES.md``.

The checks hold for any correct estimator: they test ranges and identities
the outputs must satisfy, never values of one implementation.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import sys
import traceback
from dataclasses import dataclass

from blindjam import (channel, cli, constellation, experiments, infometrics, receiver,
                      schemes, streams)

# Sizes of each part. Full sizes are the benchmark; "tiny" sizes only serve
# the smoke test.
# The rate parts trade MC samples for channel draws: a draw's cost follows
# its gains (window widths), so a unit needs several draws for its time not to
# hang on the seed, and must stay short enough to repeat within a run. Fewer
# samples than these make near-zero eavesdropper estimates trip MiEstimate's
# -3 stderr check (rate_m1 at 2,000 samples fails on seed 204).
SIZES = {
    "full": {
        "rate_m1": dict(p="1e2,1e3,1e4,1e5", draws=3, mi_samples=5_000),
        "rate_m2": dict(p=(1e3, 1e4, 1e5), draws=12, mi_samples=500),
        "decode": dict(p=(1e2, 1e3, 1e4, 1e5, 1e6), draws=4, trials=200_000,
                       eve_p=(1e2, 1e3, 1e4), eve_draws=10, eve_trials=100_000),
        "dmin": dict(studies=((1, (2, 4, 8, 16, 32, 64, 128, 256), 50),
                              (2, (4, 8, 16, 32, 64), 1))),
    },
    "tiny": {
        "rate_m1": dict(p="1e2,1e3,1e4", draws=1, mi_samples=500),
        "rate_m2": dict(p=(1e2, 1e3, 1e4), draws=1, mi_samples=500),
        "decode": dict(p=(1e2, 1e3, 1e4), draws=1, trials=10_000,
                       eve_p=(1e2, 1e3, 1e4), eve_draws=1, eve_trials=5_000),
        "dmin": dict(studies=((1, (2, 4, 8, 16), 5), (2, (2, 4, 8), 1))),
    },
}

RATE_DELTA = 0.05
SER_DELTA = 0.25
KINDS = ("Blind", "CsiAligned", "GaussianJam")
LATTICE_KINDS = ("Blind", "CsiAligned")


@dataclass
class Checked:
    """Output cells attempted, cells wrong, and the largest reported stderr."""

    attempted: int
    failed: int
    se_max: float


def call_all(calls) -> list:
    """Run each call; an exception becomes that call's result, so the cells
    it should have produced count as failed instead of ending the run."""
    results = []
    for fn in calls:
        try:
            results.append(fn())
        except Exception as exc:  # recorded, then judged by check()
            traceback.print_exc(file=sys.stderr)
            results.append(exc)
    return results


def _count_failed(rows, expected_keys, key, valid) -> int:
    bad = sum(1 for i, want in enumerate(expected_keys)
              if i >= len(rows) or key(rows[i]) != want or not valid(rows[i]))
    return min(len(expected_keys), bad + max(0, len(rows) - len(expected_keys)))


def _rate_row_valid(row, m: int) -> bool:
    """0 <= I <= H(V) = m log2(2q+1) within 3 stderr, and the clamped bound."""
    h_v = m * math.log2(2 * row["q"] + 1)
    for value, se in ((row["i_vy1"], row["i_vy1_se"]), (row["i_vy2"], row["i_vy2_se"])):
        if not (-3.0 * se - 1e-9 <= value <= h_v + 3.0 * se + 1e-9):
            return False
    return row["bound"] == max(0.0, row["i_vy1"] - row["i_vy2"])


def _rate_key(row):
    return (row["kind"], row["draw_id"], row["p"])


def _rate_se(row) -> float:
    return math.hypot(row["i_vy1_se"], row["i_vy2_se"])


class RateM1:
    """``blindjam compare`` on the acceptance grid, through the CLI."""

    name = "rate_m1"
    workers = 1
    m = 1

    def __init__(self, seed: int, size: dict, out_dir: str):
        self.out = os.path.join(out_dir, "compare.csv")
        self.rows_path = os.path.join(out_dir, "compare_rows.csv")
        self.argv = ["compare", "--m", str(self.m), "--delta", str(RATE_DELTA),
                     "--p", size["p"], "--draws", str(size["draws"]),
                     "--seed", str(seed), "--mi-samples", str(size["mi_samples"]),
                     "--workers", str(self.workers), "--out", self.out]
        grid = [float(x) for x in size["p"].split(",")]
        self.expected = [(k, d, p) for k in KINDS for d in range(size["draws"]) for p in grid]

    def run(self) -> list:
        def compare():
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.entrypoint(self.argv)
        return call_all([compare])

    def _files(self):
        paths = (self.out, self.rows_path, os.path.splitext(self.out)[0] + ".manifest.json")
        out = []
        for path in paths:
            with open(path, "rb") as fh:
                out.append(fh.read())
        return tuple(out)

    def check(self, results) -> tuple[Checked, object]:
        n = len(self.expected)
        if results[0] != 0:
            return Checked(n, n, 0.0), results[0]
        files = self._files()
        rows = []
        for rec in csv.DictReader(io.StringIO(files[1].decode("utf-8"))):
            row = {k: float(v) for k, v in rec.items()
                   if k in ("p", "q", "i_vy1", "i_vy1_se", "i_vy2", "i_vy2_se", "bound")}
            row.update(kind=rec["kind"], draw_id=int(rec["draw_id"]))
            rows.append(row)
        failed = _count_failed(rows, self.expected, _rate_key,
                               lambda r: _rate_row_valid(r, self.m))
        summary = list(csv.DictReader(io.StringIO(files[0].decode("utf-8"))))
        if [rec["kind"] for rec in summary] != list(KINDS):
            failed = n
        return Checked(n, failed, max(map(_rate_se, rows), default=0.0)), files


class RateM2:
    """``sweep_power`` at M=2 on the thread pool: the windowed mixture path."""

    name = "rate_m2"
    m = 2

    def __init__(self, seed: int, size: dict, out_dir: str):
        self.seed = seed
        self.size = size
        self.workers = min(2, os.cpu_count() or 1)
        self.expected = [(k, d, p) for k in LATTICE_KINDS
                         for d in range(size["draws"]) for p in size["p"]]

    def run(self) -> list:
        s = self.size
        return call_all([
            (lambda kind=kind: experiments.sweep_power(
                kind, self.m, RATE_DELTA, s["p"], s["draws"], self.seed,
                mi_samples=s["mi_samples"], include_ser=False, workers=self.workers))
            for kind in LATTICE_KINDS])

    def check(self, results) -> tuple[Checked, object]:
        rows = []
        for res in results:
            if not isinstance(res, Exception):
                rows.extend(vars(r) for r in res)
        failed = _count_failed(rows, self.expected, _rate_key,
                               lambda r: _rate_row_valid(r, self.m))
        if any(isinstance(res, Exception) for res in results):
            failed = len(self.expected)
        se = max(map(_rate_se, rows), default=0.0)
        return Checked(len(self.expected), failed, se), [tuple(r.values()) for r in rows]


class Decode:
    """Reliability at full trial budgets: ``sweep_ser`` for both lattice kinds
    at M=1 and M=2, plus the eavesdropper's conditional jamming decoder at the
    configuration of acceptance criterion 6."""

    name = "decode"
    workers = 1

    def __init__(self, seed: int, size: dict, out_dir: str):
        self.seed = seed
        self.size = size
        self.sweeps = [(kind, m) for m in (1, 2) for kind in LATTICE_KINDS]
        self.eve_cells = []
        for i, p in enumerate(size["eve_p"]):
            for d in range(size["eve_draws"]):
                ch = channel.sample_channel(1, streams.child_seed(seed, "channel", d))
                cfg = schemes.make_blind_scheme(
                    1, p, SER_DELTA, ch.h, channel.default_budget(ch, p).c_bar,
                    streams.child_seed(seed, "alphas", d))
                self.eve_cells.append((cfg, ch, streams.child_seed(seed, "eveu", d, i)))

    def run(self) -> list:
        s = self.size
        calls = [
            (lambda kind=kind, m=m: experiments.sweep_ser(
                kind, m, SER_DELTA, s["p"], s["draws"], self.seed,
                trials=s["trials"], min_errors=None))
            for kind, m in self.sweeps]
        calls.append(lambda: [
            receiver.estimate_eve_u_error(cfg, ch, s["eve_trials"], cell_seed,
                                          min_errors=None)
            for cfg, ch, cell_seed in self.eve_cells])
        return call_all(calls)

    def check(self, results) -> tuple[Checked, object]:
        s = self.size
        expected = [(d, p) for d in range(s["draws"]) for p in s["p"]]
        attempted = failed = 0
        se = 0.0
        for res in results[:-1]:
            attempted += len(expected)
            if isinstance(res, Exception):
                failed += len(expected)
                continue
            failed += _count_failed(
                res, expected, lambda r: (r.draw_id, r.p),
                lambda r: r.trials == s["trials"] and 0 <= r.errors <= r.trials)
            se = max([se] + [r.stderr for r in res])
        eve = results[-1]
        attempted += len(self.eve_cells)
        if isinstance(eve, Exception):
            failed += len(self.eve_cells)
        else:
            failed += _count_failed(
                eve, [None] * len(self.eve_cells), lambda r: None,
                lambda r: r.trials == s["eve_trials"] and 0 <= r.errors <= r.trials)
        return Checked(attempted, failed, se), results


class Dmin:
    """``fit_dmin_exponent``: one large lattice enumeration and sort per
    (draw, q), then a single minimum-distance pass.

    The first study mirrors acceptance criterion 7 (M=1, 50 draws) and alone
    carries the median-slope check. It reports no stderr. The M=2 study has one
    draw: it is there for the size of its enumerations (6.4M points at
    q=64) and their memory. Its single-draw slope ranges from about -0.7 to
    -3 between seeds, so it is not held to -(M+0.5).
    """

    name = "dmin"
    workers = 1

    def __init__(self, seed: int, size: dict, out_dir: str):
        self.seed = seed
        self.studies = size["studies"]

    def run(self) -> list:
        return call_all([
            (lambda m=m, qs=qs, draws=draws:
             constellation.fit_dmin_exponent(m, qs, draws, self.seed))
            for m, qs, draws in self.studies])

    def check(self, results) -> tuple[Checked, object]:
        attempted = failed = 0
        canon = []
        for k, ((m, qs, draws), study) in enumerate(zip(self.studies, results)):
            expected = [(d, q) for d in range(draws) for q in qs]
            attempted += len(expected)
            if isinstance(study, Exception):
                failed += len(expected)
                continue
            bad = _count_failed(list(study.rows), expected, lambda r: (r.draw_id, r.q),
                                lambda r: math.isfinite(r.dmin) and r.dmin > 0)
            if k == 0 and study.median_slope < -(m + 0.5):
                bad = len(expected)
            failed += bad
            canon.append((study.rows, tuple(float(x) for x in study.slopes), study.redraws))
        return Checked(attempted, failed, 0.0), canon


class Workload:
    """A benchmark workload: its parts run one after the other as one unit.

    ``rate`` holds the two entropy-bound parts and ``lattice`` the two that
    run no ``infometrics`` code, so a change to one side should leave the
    other workload alone. NOTES.md says why the four parts are paired rather
    than run as workloads of their own.
    """

    def __init__(self, parts, seed: int, sizes: dict, out_dir: str):
        self.parts = [cls(seed, sizes[cls.name], out_dir) for cls in parts]
        self.workers = max(part.workers for part in self.parts)

    def run(self) -> list:
        return [part.run() for part in self.parts]

    def check(self, results) -> tuple[Checked, object]:
        checked, canon = zip(*(part.check(res) for part, res in zip(self.parts, results)))
        return Checked(sum(c.attempted for c in checked), sum(c.failed for c in checked),
                       max(c.se_max for c in checked)), canon


WORKLOADS = {"rate": (RateM1, RateM2), "lattice": (Decode, Dmin)}


def traced_modules() -> dict:
    """The package modules whose attributes the tracer wraps."""
    return {"channel": channel, "cli": cli, "constellation": constellation,
            "experiments": experiments, "infometrics": infometrics,
            "receiver": receiver, "schemes": schemes, "streams": streams}
