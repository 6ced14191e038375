"""Acceptance gate for the simulator.

Nine criteria at pinned budgets and tolerances: desk-scale trend checks for
the rate-bound, leakage, reliability, and eavesdropper-decodability curves,
the minimum-distance scaling law, oracle suites for the decoders and the
entropy estimators, and the blindness/determinism contracts. Each test
prints one pass/fail line; with `pytest -v` every criterion also appears as
its own PASSED/FAILED row. On two cores the nine take about 15 s, most of the
~20 s tier-1 run.

Trend criteria run with exclusion of the lowest power row from the slope
fits (the flag built for exactly this purpose): at P <= 1e5 the aligned
constellations are still far from their asymptotic growth, and the lowest
decade drags slopes well below the regime the criteria target. Reliability
trends (criteria 5 and 6) run at delta = 0.25, where the minimum distance
grows fast enough across a 3-decade grid for the error curves to fall; the
sweep defaults keep the smaller deltas used for rate runs.
"""
import math

import numpy as np
import pytest

from blindjam.channel import ChannelRealization, sample_channel
from blindjam.constellation import fit_dmin_exponent, min_distance
from blindjam.experiments import (
    Series,
    compare_schemes,
    fit_slopes,
    sweep_power,
    sweep_ser,
    write_rows,
)
from blindjam.infometrics import MixtureSpec, gaussian_entropy, mixture_entropy
from blindjam.receiver import decode_legit_batch, legit_lattice
from blindjam.schemes import (
    encode,
    make_blind_scheme,
    make_gaussian_jam_scheme,
    sample_symbols,
)
from blindjam.streams import substream

M = 1
SEED = 42
DRAWS = 10
RATE_DELTA = 0.05
RATE_GRID = (1e2, 1e3, 1e4, 1e5)
MI_SAMPLES = 20_000
EXCLUDE_LOWEST = 1
RELIABILITY_DELTA = 0.25
RELIABILITY_GRID = (1e2, 1e3, 1e4)

DOF_TARGET = (M - (2 * M + 2) * RATE_DELTA) / (M + 1 + RATE_DELTA)
DOF_TOL = 0.15
LEAK_LIMIT = (M + 2) * RATE_DELTA / (M + 1 + RATE_DELTA) + 0.1


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {name}: {detail}"


@pytest.fixture(scope="module")
def comparison():
    # one shared run feeds criteria 1-4: all kinds on identical channels
    return compare_schemes(M, RATE_DELTA, list(RATE_GRID), DRAWS, SEED, mi_samples=MI_SAMPLES)


def _bound_slope(rows, kind):
    return fit_slopes(rows, "bound", EXCLUDE_LOWEST)[Series(kind, M, RATE_DELTA)].slope


@pytest.fixture(scope="module")
def reliability_rows():
    return sweep_ser("Blind", M, RELIABILITY_DELTA, list(RELIABILITY_GRID),
                     DRAWS, SEED, trials=100_000, min_errors=100)


def _medians(rows, grid, value):
    return [float(np.median([value(r) for r in rows if r.p == p])) for p in grid]


def test_criterion_1_rate_bound_slope(comparison):
    slope = _bound_slope(comparison, "Blind")
    ok = abs(slope - DOF_TARGET) <= DOF_TOL
    _verdict("1 (rate-bound slope)", ok,
             f"Blind pooled slope {slope:.4f} vs target {DOF_TARGET:.4f} "
             f"+/- {DOF_TOL} (top-decade fit, lowest row excluded)")


def test_criterion_2_leakage_slope(comparison):
    slope = fit_slopes(comparison, "i_vy2")[Series("Blind", M, RATE_DELTA)].slope
    ok = slope <= LEAK_LIMIT
    _verdict("2 (leakage slope)", ok,
             f"I(V;Y2) slope {slope:.4f} <= limit {LEAK_LIMIT:.4f}")


def test_criterion_3_baseline_contrast(comparison):
    gj = _bound_slope(comparison, "GaussianJam")
    blind = _bound_slope(comparison, "Blind")
    ok = gj <= 0.15 and blind >= 0.3
    _verdict("3 (baseline contrast)", ok,
             f"GaussianJam slope {gj:.4f} <= 0.15, Blind slope {blind:.4f} >= 0.3")


def test_criterion_4_blind_matches_csi(comparison):
    blind = _bound_slope(comparison, "Blind")
    csi = _bound_slope(comparison, "CsiAligned")
    ok = abs(blind - csi) <= 0.1
    _verdict("4 (blind = aligned baseline)", ok,
             f"|{blind:.4f} - {csi:.4f}| = {abs(blind - csi):.4f} <= 0.1")


def test_criterion_5_reliability_trend(reliability_rows):
    med = _medians(reliability_rows, RELIABILITY_GRID, lambda r: r.rate)
    monotone = all(b <= a + 1e-12 for a, b in zip(med, med[1:]))
    noiseless = sweep_ser("Blind", M, RELIABILITY_DELTA, list(RELIABILITY_GRID),
                          DRAWS, SEED, trials=2000, min_errors=None, sigma1=0.0)
    all_zero = all(r.rate == 0.0 for r in noiseless)
    ok = monotone and all_zero
    _verdict("5 (reliability)", ok,
             f"median SER {[round(x, 4) for x in med]} non-increasing={monotone}, "
             f"SER=0 at sigma1=0: {all_zero}")


def test_criterion_6_eve_decodability_trend():
    rows = sweep_ser("Blind", M, RELIABILITY_DELTA, list(RELIABILITY_GRID), DRAWS, SEED,
                     trials=100_000, min_errors=100, receiver="eve")
    med = [float(np.median([r.rate for r in rows if r.p == p])) for p in RELIABILITY_GRID]
    ok = all(b < a for a, b in zip(med, med[1:]))
    _verdict("6 (eve decodability given V)", ok,
             f"median conditional error {[round(x, 4) for x in med]} decreasing")


def test_criterion_7_min_distance_law():
    study = fit_dmin_exponent(M, [2, 4, 8, 16, 32], 50, SEED)
    floor = -(M + 0.5)
    ok = study.median_slope >= floor
    _verdict("7 (minimum-distance law)", ok,
             f"median log d_min / log Q slope {study.median_slope:.4f} >= {floor} "
             f"(50 draws, redraws={study.redraws})")


def test_criterion_8_oracle_suites():
    # decoding vs exhaustive search on every small lattice
    rng = np.random.default_rng(8)
    mismatches = 0
    lattices = 0
    for seed in range(20):
        ch = sample_channel(1, seed)
        cfg = make_blind_scheme(1, 100.0, 0.1, ch.h, 4.0, seed)
        lat = legit_lattice(cfg, ch)
        if len(lat) > 500 or lat.collision:
            continue
        lattices += 1
        span = lat.points[-1] - lat.points[0]
        ys = rng.uniform(lat.points[0] - 0.2 * span, lat.points[-1] + 0.2 * span,
                         size=1000)
        got = decode_legit_batch(ys, lat)
        want = lat.labels[np.argmin(np.abs(lat.points[None, :] - ys[:, None]),
                                    axis=1)][:, :-1]
        mismatches += int(np.sum(np.any(got != want, axis=1)))
    decode_ok = lattices >= 10 and mismatches == 0

    # Monte Carlo vs quadrature on regression mixtures
    mix_rng = np.random.default_rng(88)
    agreements = 0
    for trial in range(20):
        k = int(mix_rng.integers(1, 40))
        spec = MixtureSpec(means=mix_rng.normal(scale=4.0, size=k),
                           sigma=float(mix_rng.uniform(0.3, 2.5)))
        quad = mixture_entropy(spec, method="quadrature")
        mc = mixture_entropy(spec, method="mc", n_samples=40_000, seed=trial)
        if abs(mc.value - quad.value) <= 3.0 * mc.stderr + quad.stderr + 1e-6:
            agreements += 1
    entropy_ok = agreements == 20

    closed_form_ok = abs(gaussian_entropy(1.0) - 2.0471) < 1e-3

    ok = decode_ok and entropy_ok and closed_form_ok
    _verdict("8 (oracle suites)", ok,
             f"decode vs exhaustive: {mismatches} mismatches on {lattices} "
             f"lattices x 1000 queries; mc vs quadrature: {agreements}/20 within "
             f"3 stderr; gaussian entropy {gaussian_entropy(1.0):.4f} vs 2.0471")


def test_criterion_9_blindness_and_determinism(tmp_path):
    # blindness: swap the eavesdropper gains, keep everything else
    h = sample_channel(1, 50).h
    ch_a = ChannelRealization(h=h, g=np.array([0.77, -1.21]))
    ch_b = ChannelRealization(h=h, g=np.array([1.9, 0.33]))
    blocks = {}
    for tag, ch in (("a", ch_a), ("b", ch_b)):
        cfg = make_blind_scheme(1, 1e3, RATE_DELTA, ch.h, 5.0, 3)
        v, u = sample_symbols(cfg, substream(4, "symbols"), n=256)
        blocks[tag] = encode(cfg, v, u).tobytes()
    blind_ok = blocks["a"] == blocks["b"]
    gj_blocks = []
    for ch in (ch_a, ch_b):
        gj = make_gaussian_jam_scheme(1, 1e3, RATE_DELTA, ch.h, 5.0, 3)
        v, u = sample_symbols(gj, substream(4, "symbols"), n=64)
        gj_blocks.append(encode(gj, v, u, rng=substream(6, "n")).tobytes())
    gj_ok = gj_blocks[0] == gj_blocks[1]

    # determinism: CSVs byte-identical across re-runs and worker counts
    def sweep_bytes(workers, name):
        rows = sweep_power("Blind", 1, RATE_DELTA, [1e2, 1e3, 1e4], 2, 11,
                           mi_samples=300, ser_trials=400, min_errors=5,
                           workers=workers)
        path = tmp_path / name
        write_rows(rows, path)
        return path.read_bytes()

    sweep_ok = sweep_bytes(1, "s1.csv") == sweep_bytes(1, "s2.csv") == \
        sweep_bytes(3, "s3.csv")

    def ser_bytes(workers, name):
        rows = sweep_ser("Blind", 1, RELIABILITY_DELTA, [1e2, 1e3], 2, 11,
                         trials=5000, workers=workers)
        path = tmp_path / name
        write_rows(rows, path)
        return path.read_bytes()

    ser_ok = ser_bytes(1, "r1.csv") == ser_bytes(2, "r2.csv")

    def compare_bytes(workers, name):
        # the rows, then the slopes fitted on them
        rows = compare_schemes(1, RATE_DELTA, [1e2, 1e3, 1e4], 1, 11,
                               mi_samples=300, workers=workers)
        fits = fit_slopes(rows, "bound")
        written = []
        for suffix, records in (("rows", rows), ("fits", [dict(kind=series.kind, **vars(fit))
                                                          for series, fit in fits.items()])):
            path = tmp_path / f"{name}_{suffix}.csv"
            write_rows(records, path)
            written.append(path.read_bytes())
        return written

    compare_ok = compare_bytes(1, "c1") == compare_bytes(2, "c2")

    ok = blind_ok and gj_ok and sweep_ok and ser_ok and compare_ok
    _verdict("9 (blindness and determinism)", ok,
             f"transmit bytes g-invariant: blind={blind_ok} gaussian={gj_ok}; "
             f"csv byte-identity: sweep={sweep_ok} ser={ser_ok} "
             f"compare={compare_ok}")
