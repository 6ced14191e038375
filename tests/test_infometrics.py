import itertools
import math
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from blindjam import infometrics
from blindjam.channel import default_budget, sample_channel
from blindjam.constellation import POINT_CAP, LatticeSizeError
from blindjam.experiments import _make_config
from blindjam.infometrics import (
    CHUNK_TERMS,
    COMPONENT_CAP,
    WINDOW_SIGMAS,
    MiEstimate,
    MixtureSpec,
    RateBound,
    _product_mixture,
    gaussian_entropy,
    mixture_entropy,
    mixture_logpdf,
    rate_lower_bound,
    symbol_sum_pmf,
)
from blindjam.schemes import (
    KINDS,
    make_blind_scheme,
    make_csi_scheme,
    make_gaussian_jam_scheme,
    observation,
    schedule_q,
)
from blindjam.streams import substream


@settings(max_examples=200, deadline=None)
@given(v1=st.floats(-1e6, 1e6), v2=st.floats(-1e6, 1e6), se1=st.floats(0.0, 10.0),
       se2=st.floats(0.0, 10.0))
def test_rate_bound_derives_the_clamped_difference(v1, v2, se1, se2):
    rb = RateBound(MiEstimate(v1, se1), MiEstimate(v2, se2))
    assert rb.bound == max(0.0, v1 - v2)


def test_gaussian_entropy_closed_form():
    assert gaussian_entropy(1.0) == pytest.approx(0.5 * math.log2(2 * math.pi * math.e))
    assert gaussian_entropy(1.0) == pytest.approx(2.0471, abs=1e-3)
    # doubling sigma adds exactly one bit
    assert gaussian_entropy(2.0) - gaussian_entropy(1.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        gaussian_entropy(0.0)


def test_mixture_spec_validation():
    with pytest.raises(ValueError):
        MixtureSpec(means=np.array([]))
    with pytest.raises(ValueError):
        MixtureSpec(means=np.array([0.0]), sigma=0.0)
    with pytest.raises(ValueError):
        MixtureSpec(means=np.array([0.0, 1.0]), weights=np.array([0.8, 0.1]))
    with pytest.raises(ValueError):
        MixtureSpec(means=np.array([0.0, 1.0]), weights=np.array([1.1, -0.1]))
    # non-finite inputs: the windowed log-sum would skip a NaN component silently
    for bad in (dict(means=np.array([0.0, np.nan])), dict(means=np.array([np.inf])),
                dict(means=np.array([0.0]), sigma=np.nan),
                dict(means=np.array([0.0]), sigma=np.inf),
                dict(means=np.array([0.0]), sigma=1e-200),
                dict(means=np.array([0.0]), sigma=1e200),
                dict(means=np.array([0.0, 1.0]), weights=np.array([np.nan, 1.0])),
                # one weight broadcast without a copy is checked all the same
                dict(means=np.zeros(4), weights=np.broadcast_to(0.3, 4)),
                dict(means=np.zeros(4), weights=np.broadcast_to(-0.25, 4)),
                dict(means=np.zeros(4), weights=np.broadcast_to(np.nan, 4)),
                dict(means=np.zeros(4), weights=np.broadcast_to(0.25, 3))):
        with pytest.raises(ValueError):
            MixtureSpec(**bad)
    spec = MixtureSpec(means=np.array([0.0, 1.0]))
    assert np.allclose(spec.weights, [0.5, 0.5])


def test_logpdf_matches_scipy_single_component():
    spec = MixtureSpec(means=np.array([1.3]), sigma=0.7)
    y = np.linspace(-3, 5, 50)
    assert np.allclose(mixture_logpdf(y, spec), stats.norm.logpdf(y, 1.3, 0.7))


def test_logpdf_matches_manual_logsumexp():
    rng = np.random.default_rng(0)
    means = rng.normal(size=20)
    w = rng.random(20)
    w /= w.sum()
    spec = MixtureSpec(means=means, weights=w, sigma=0.6)
    y = rng.normal(size=30, scale=2.0)
    manual = np.log(np.sum(
        w[None, :] * stats.norm.pdf(y[:, None], means[None, :], 0.6), axis=1))
    assert np.allclose(mixture_logpdf(y, spec), manual, atol=1e-12)


def test_windowed_path_matches_full_evaluation():
    # thousands of components: the windowed log-sum must equal the sum over all
    rng = np.random.default_rng(1)
    means = np.sort(rng.uniform(-50, 50, size=3000))
    spec = MixtureSpec(means=means, sigma=0.5)
    y = rng.uniform(-55, 55, size=200)
    got = mixture_logpdf(y, spec)
    z = -0.5 * ((y[:, None] - means[None, :]) / 0.5) ** 2
    zmax = z.max(axis=1)
    full = (zmax + np.log(np.exp(z - zmax[:, None]).sum(axis=1))
            - math.log(3000) - math.log(0.5) - 0.5 * math.log(2 * math.pi))
    assert np.max(np.abs(got - full)) < 1e-12


def test_far_query_falls_back_to_nearest_component():
    means = np.sort(np.random.default_rng(2).uniform(-10, 10, size=3000))
    spec = MixtureSpec(means=means, sigma=0.01)
    got = mixture_logpdf(np.array([500.0]), spec)[0]
    assert np.isfinite(got)
    want = (-0.5 * ((500.0 - means[-1]) / 0.01) ** 2
            - math.log(3000) - math.log(0.01) - 0.5 * math.log(2 * math.pi))
    assert got == pytest.approx(want, rel=1e-9)


def _brute_logpdf(y, means, w, sigma):
    z = np.log(w)[None, :] - 0.5 * ((y[:, None] - means[None, :]) / sigma) ** 2
    zmax = z.max(axis=1)
    return (zmax + np.log(np.exp(z - zmax[:, None]).sum(axis=1))
            - math.log(sigma) - 0.5 * math.log(2 * math.pi))


WEIGHTINGS = ["uniform", "random", "pmf", "single", "none", "product", "ulp", "light", "far",
              "skewed"]


def _drawn_mixture(rng, weighting):
    """A mixture of the named shape and 300 queries: in its bulk, within a
    few deviations of some component, or for "far" beyond every window."""
    sigma = float(rng.uniform(0.05, 3.0))
    if weighting == "pmf":
        # the legitimate receiver's shape: a message set plus a weighted jamming sum
        vals, pmf = symbol_sum_pmf(int(rng.integers(1, 4)), int(rng.integers(0, 5)))
        msg = np.arange(-2, 3, dtype=float)
        spec = _product_mixture(rng.uniform(0.5, 3.0, size=2) * [1.0, sigma],
                                [msg, vals], [None, pmf], sigma)
    elif weighting == "product":
        # the eavesdropper's shape: every stream a uniform set, equal weights
        sets = [np.arange(-q, q + 1, dtype=float) for q in rng.integers(0, 4, size=3)]
        spec = _product_mixture(rng.uniform(-3.0, 3.0, size=3) * sigma, sets,
                                [None] * 3, sigma)
    else:
        k = 1 if weighting == "single" else int(rng.integers(2, 400))
        means = rng.normal(scale=float(rng.uniform(0.1, 50.0)), size=k)
        w = rng.uniform(0.01, 1.0, size=k) if weighting in ("random", "light") else np.ones(k)
        if weighting == "skewed":
            # weights from 1 down to e^-300: a heavy component beyond a
            # query's window can outweigh every light one inside it
            w = np.exp(-rng.uniform(0.0, 300.0, size=k))
        if weighting == "light" and k > 1:
            # a cluster of subnormal weight far beyond the rest: the terms of
            # its queries underflow unless the log-sum is shifted
            means[::2] += np.ptp(means) + 1000.0 * sigma
            w[::2] *= 1e-315
        w = w / w.sum()
        if weighting == "ulp":
            w[int(rng.integers(0, k))] = np.nextafter(w[0], 1.0)
    if weighting not in ("pmf", "product"):
        spec = MixtureSpec(means=means, weights=None if weighting == "none" else w,
                           sigma=sigma)
    means = spec.means
    if weighting == "far":
        # beyond every component's window: each query sums all components
        off = rng.uniform(15.0, 30.0, size=300) * sigma
        y = np.where(rng.random(300) < 0.5, means.min() - off, means.max() + off)
    else:
        # queries in the mixture's bulk: within a few deviations of some component
        y = means[rng.integers(0, means.size, size=300)] + rng.uniform(-5, 5, size=300) * sigma
    return spec, y


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(WEIGHTINGS))
def test_windowed_logpdf_equals_brute_force(seed, weighting):
    spec, y = _drawn_mixture(np.random.default_rng(seed), weighting)
    means, w, sigma = spec.means, spec.weights, spec.sigma
    # equal weights share one log-weight; one ulp apart they keep one each
    if weighting in ("uniform", "single", "none", "product", "far"):
        assert np.ndim(spec._logw) == 0
    if weighting == "ulp":
        assert np.ndim(spec._logw) == 1
    got = mixture_logpdf(y, spec)
    assert np.max(np.abs(got - _brute_logpdf(y, means, w, sigma))) < 1e-12


@pytest.mark.parametrize("weights", [None, [0.3, 0.7]])
@pytest.mark.parametrize("sigma", [1.0, 1e-100])
def test_query_beyond_the_double_range_is_minus_inf(weights, sigma):
    # each squared distance, in deviations, overflows: the density is below
    # the double range, and its log -inf without a warning; NaN stays NaN
    spec = MixtureSpec(means=[0.0, 1.0], weights=weights, sigma=sigma)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = mixture_logpdf([1e300, -1e160, np.inf, -np.inf, np.nan, 1e150, 0.5], spec)
    assert np.array_equal(got[:4], [-np.inf] * 4)
    assert np.isnan(got[4]) and np.isfinite(got[6])
    # 1e150 squared is still a double
    assert got[5] == (pytest.approx(-0.5e300, rel=1e-12) if sigma == 1.0 else -np.inf)


def test_mc_draws_match_per_component_weights(monkeypatch):
    # an equal-weight mixture draws the components the explicit
    # cumsum(exp(log w)) form over its sorted components picks
    spec = _product_mixture([1.0, 0.37, -0.061], [np.arange(-3.0, 4.0)] * 3, [None] * 3, 0.2)
    means = spec.means
    assert np.ndim(spec._logw) == 0
    seen = []

    def record(y, s):
        seen.append(np.array(y))
        return np.zeros(np.shape(y))

    monkeypatch.setattr(infometrics, "mixture_logpdf", record)
    infometrics._entropy_mc(spec, 5000, seed=11)
    rng = substream(11, "entropy")
    order = np.argsort(spec.means, kind="stable")
    cum = np.cumsum(np.exp(np.log(spec.weights[order])))
    cum[-1] = 1.0
    comp = np.searchsorted(cum, rng.random(5000), side="right")
    comp = np.minimum(comp, means.size - 1)
    y = spec.means[order][comp] + spec.sigma * rng.normal(size=5000)
    assert np.unique(means).size == means.size  # equal y means equal components
    np.testing.assert_array_equal(seen[0], y)


def _full_table_entropy_mc(spec, n_samples, seed):
    """Monte Carlo entropy with the sampling CDF built whole, one entry per
    component. The oracle of the blocked sampler's bits."""
    rng = substream(seed, "entropy")
    means, logw = spec.means, spec._logw
    cum = np.full(means.shape, np.exp(logw)) if np.ndim(logw) == 0 else np.exp(logw)
    np.cumsum(cum, out=cum)
    cum[-1] = 1.0
    comp = np.searchsorted(cum, rng.random(n_samples), side="right")
    comp = np.minimum(comp, means.shape[0] - 1)
    y = means[comp] + spec.sigma * rng.normal(size=n_samples)
    bits = -infometrics.mixture_logpdf(y, spec) * math.log2(math.e)
    return float(np.mean(bits)), float(np.std(bits, ddof=1) / math.sqrt(n_samples))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["equal", "random", "skewed"]),
       st.sampled_from([64, 1024]))
def test_blocked_sampler_equals_the_full_table(seed, weighting, chunk):
    # the CDF block by block draws the components the whole table draws:
    # equal bits, for 1 to 4 blocks and on their edges
    rng = np.random.default_rng(seed)
    k = int(rng.choice([1, chunk - 1, chunk, chunk + 1, 4 * chunk, rng.integers(2, 4 * chunk)]))
    w = None
    if weighting == "random":
        w = rng.uniform(0.01, 1.0, size=k)
    elif weighting == "skewed":
        w = np.exp(-rng.uniform(0.0, 40.0, size=k))
    spec = MixtureSpec(means=rng.normal(scale=float(rng.uniform(0.1, 50.0)), size=k),
                       weights=None if w is None else w / w.sum(),
                       sigma=float(rng.uniform(0.05, 3.0)))
    n = int(rng.integers(2, 3000))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(infometrics, "CHUNK_TERMS", chunk)
        got = mixture_entropy(spec, "mc", n_samples=n, seed=seed)
        want = _full_table_entropy_mc(spec, n, seed)
    assert (got.value, got.stderr) == want


@pytest.mark.parametrize("weighted", [False, True])
def test_mc_sampler_holds_one_block_of_its_cdf(weighted):
    # 15 blocks of components, 7.5 MiB of means (16 would pass
    # COMPONENT_CAP): a sampling CDF of the mixture's length would take as
    # much again, its blocks take CHUNK_TERMS doubles, 512 KiB
    n = 15 * CHUNK_TERMS
    w = None
    if weighted:
        w = np.random.default_rng(2).uniform(0.5, 1.5, size=n)
        w /= w.sum()
    spec = MixtureSpec(means=np.arange(n, dtype=float), weights=w, sigma=1.0)
    tracemalloc.start()
    try:
        mixture_entropy(spec, "mc", n_samples=500)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < spec.means.nbytes


def test_logpdf_query_count_is_checked_before_evaluating():
    # a zero-stride view: POINT_CAP + 1 queries, none of them allocated
    y = np.broadcast_to(0.0, (POINT_CAP + 1,))
    tracemalloc.start()
    try:
        with pytest.raises(LatticeSizeError, match="log-density queries"):
            mixture_logpdf(y, MixtureSpec(means=[0.0, 1.0]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_chunk_boundaries_match_brute_force():
    rng = np.random.default_rng(6)
    # ~0.4 chunk of terms per row: rows straddle the chunk edges
    means = np.linspace(-1.0, 1.0, int(0.4 * CHUNK_TERMS))
    y = rng.uniform(-1.0, 1.0, size=7)
    got = mixture_logpdf(y, MixtureSpec(means=means, sigma=1.0))
    want = _brute_logpdf(y, means, np.full(means.size, 1.0 / means.size), 1.0)
    assert np.max(np.abs(got - want)) < 1e-12
    # a window wider than the whole chunk budget, between two narrow rows
    means = np.concatenate([np.linspace(-1.0, 1.0, CHUNK_TERMS + 1000), [40.0, 80.0]])
    w = np.full(means.size, 1.0 / means.size)
    y = np.array([40.5, 0.3, 79.0])
    got = mixture_logpdf(y, MixtureSpec(means=means, weights=w, sigma=1.0))
    assert np.max(np.abs(got - _brute_logpdf(y, means, w, 1.0))) < 1e-12


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["equal", "skewed"]), st.booleans(),
       st.sampled_from([64, 1024]))
def test_logpdf_row_does_not_depend_on_its_chunk_mates(seed, weighting, far, chunk):
    # a query's log-density has the same bits alone as among other queries,
    # whichever rows share its chunk and whether they need the log-sum shift
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 120))
    means = rng.uniform(-30.0, 30.0, size=k)
    w = None
    if weighting == "skewed":
        # down to e^-800: at times light enough that every row is shifted
        w = np.exp(-rng.uniform(0.0, 800.0, size=k))
        w /= w.sum()
    spec = MixtureSpec(means=means, weights=w, sigma=float(rng.uniform(0.1, 2.0)))
    y = means[rng.integers(0, k, size=40)] + rng.normal(size=40) * spec.sigma
    if far:
        y[rng.integers(0, 40, size=3)] = rng.choice([-1.0, 1.0], 3) * rng.uniform(40.0, 600.0, 3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(infometrics, "CHUNK_TERMS", chunk)
        batch = mixture_logpdf(y, spec)
        alone = [mixture_logpdf(y[i:i + 1], spec)[0] for i in range(y.size)]
    np.testing.assert_array_equal(batch, alone)


def _ragged_logpdf(y, means, logw, sigma):
    """The log-density kernel as a ragged gather: each chunk of rows builds
    its component indices with np.repeat and a ramp, and gathers its means
    one term at a time. The oracle of the blocked kernel's bits.
    """
    half = WINDOW_SIGMAS * sigma
    lo = np.searchsorted(means, y - half, side="left")
    hi = np.searchsorted(means, y + half, side="right")
    # a query whose kept terms could come near a dropped one sums all
    # components: nearness alone would pick a light component over a heavy
    # one behind it. A term is log w_j - d_j^2 / 2, d_j in deviations; every
    # dropped one is below log w_max - 98, so a term of a mean beside the
    # query at least log w_max - 49 is kept and e^49 times each dropped one.
    # Equal weights keep the rule of the empty window.
    far = hi <= lo
    gather = np.ndim(logw) > 0
    if gather:
        k = np.searchsorted(means, y)
        side = [np.maximum(k - 1, 0), np.minimum(k, len(means) - 1)]
        best = np.maximum(*(logw[j] - 0.5 * ((y - means[j]) / sigma) ** 2 for j in side))
        far |= best < logw.max() - 0.25 * WINDOW_SIGMAS ** 2
    lo[far], hi[far] = 0, len(means)
    norm = math.log(sigma) + 0.5 * math.log(2.0 * math.pi)
    scale = -0.5 / sigma ** 2
    # exp of a term above -700 is a normal double (underflow starts below
    # -708), so a row needs the shift by its maximum only if it can hold a
    # lower term. A window's terms are at least the lightest log-weight - 98;
    # a far row's, that log-weight less half the squared distance to the
    # farther end of the means. Decided from the row alone, a row's value
    # does not depend on the rows that share its chunk.
    floor = logw.min() if gather else 0.0
    if floor - 0.5 * WINDOW_SIGMAS ** 2 < -700.0:
        shift = np.ones_like(far)
    else:
        shift = far & (floor + scale * np.maximum(y - means[0], means[-1] - y) ** 2 < -700.0)
    if not gather:
        norm -= logw  # an equal weight leaves the log-sum as a constant
    width = hi - lo
    ends = np.cumsum(width)
    # index offsets 0, 1, .. for the longest chunk, built once per call
    ramp = np.arange(min(int(ends[-1]), max(CHUNK_TERMS, int(width.max()))))
    out = np.empty(y.shape[0])
    a = 0
    while a < y.shape[0]:
        # whole rows holding about CHUNK_TERMS window terms, at least one row
        done = ends[a] - width[a]
        b = max(a + 1, int(np.searchsorted(ends, done + CHUNK_TERMS, side="right")))
        w = width[a:b]
        starts = ends[a:b] - w - done
        # ragged gather: component index lo_i, lo_i + 1, .., hi_i - 1 per row
        idx = np.repeat(lo[a:b] - starts, w)
        idx += ramp[:idx.shape[0]]
        z = np.repeat(y[a:b], w)
        z -= means[idx]
        np.square(z, out=z)
        z *= scale
        if gather:
            z += logw[idx]
        if shift[a:b].any():
            zmax = np.maximum.reduceat(z, starts)
            zmax[~shift[a:b]] = 0.0
            z -= np.repeat(zmax, w)
        else:
            zmax = 0.0
        np.exp(z, out=z)
        out[a:b] = zmax + np.log(np.add.reduceat(z, starts)) - norm
        a = b
    return out


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(WEIGHTINGS),
       st.sampled_from([64, 1024, CHUNK_TERMS]), st.booleans())
def test_blocked_logpdf_equals_the_ragged_gather(seed, weighting, chunk, in_order):
    # the same doubles summed in the same order: equal bits, also for far,
    # NaN and infinite queries, in any order and at any block size
    rng = np.random.default_rng(seed)
    spec, y = _drawn_mixture(rng, weighting)
    means, sigma = spec.means, spec.sigma
    off = rng.uniform(15.0, 1e4, size=2) * sigma
    odd = [means[0] - off[0], means[-1] + off[1], np.nan, np.inf, -np.inf, 1e300]
    y[rng.choice(y.size, size=len(odd), replace=False)] = odd
    if in_order:
        y = np.sort(y)
    with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore", invalid="ignore"):
        mp.setattr(infometrics, "CHUNK_TERMS", chunk)
        got = infometrics._logpdf_sorted(y, means, spec._logw, sigma)
        want = _ragged_logpdf(y, means, spec._logw, sigma)
    assert np.array_equal(got, want, equal_nan=True)


def test_grid_entropy_equals_the_ragged_gather(monkeypatch):
    # the legitimate receiver's shape: the grid rows beside the pmf's light
    # tails sum every component. _entropy_grid runs the kernel without
    # errstate, so neither kernel may warn.
    vals, pmf = symbol_sum_pmf(6, 3)
    spec = _product_mixture([1.0, 0.3], [np.arange(-2.0, 3.0), vals], [None, pmf], 0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = infometrics._entropy_grid(spec)
        monkeypatch.setattr(infometrics, "_logpdf_sorted", _ragged_logpdf)
        want = infometrics._entropy_grid(spec)
    assert got == want


def test_cells_outside_a_window_raise_no_warning():
    # the row at 2.5 (window: the mean 2) shares a block of width 3 with the
    # row at 0.5 (means 0, 0.5 and 1), so it also reads the means at 4 and
    # 1e200, whose squared distance overflows. No other square reaches that
    # far: the means beside 2.5 are 2 and 4, and the light weight makes
    # every row shift without the far rows' distance test.
    spec = MixtureSpec(means=[0.0, 0.5, 1.0, 2.0, 4.0, 1e200],
                       weights=[0.2] * 5 + [1e-310], sigma=0.1)
    y = np.array([0.5, 2.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = infometrics._logpdf_sorted(y, spec.means, spec._logw, spec.sigma)
        want = _ragged_logpdf(y, spec.means, spec._logw, spec.sigma)
    assert np.array_equal(got, want) and np.all(np.isfinite(got))


def test_logpdf_holds_no_copy_of_the_means():
    # the eavesdropper's mixture of Blind M=2 at p=1e5, 371,293 equal-weight
    # components: a block stays within CHUNK_TERMS doubles, and a padded
    # copy of the means alone would take 8 n bytes
    ch = sample_channel(2, 7)
    cfg = make_blind_scheme(2, 1e5, 0.05, ch.h, default_budget(ch, 1e5).c_bar, 3)
    coeffs, counts, sigma = observation(cfg, ch, "eve")
    sets = [cfg.a * symbol_sum_pmf(n, cfg.q)[0] for n in counts]
    spec = _product_mixture(coeffs, sets, [None] * len(counts), sigma)
    n = len(spec)
    assert n == 371_293
    rng = np.random.default_rng(3)
    y = spec.means[rng.integers(0, n, size=500)] + sigma * rng.normal(size=500)
    tracemalloc.start()
    try:
        mixture_logpdf(y, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n


def test_rate_bound_holds_each_mixture_once():
    # the eavesdropper's mixture of Blind M=2 at p=1e5: 13^5 = 371,293
    # equal-weight components. Its means are the one array of that length;
    # the sampling CDF's and the log-density's blocks add well under 2 MiB.
    ch = sample_channel(2, 7)
    cfg = make_blind_scheme(2, 1e5, 0.05, ch.h, default_budget(ch, 1e5).c_bar, 3)
    n = (2 * cfg.q + 1) ** len(observation(cfg, ch, "eve")[1])
    assert n == 371_293
    tracemalloc.start()
    try:
        rate_lower_bound(cfg, ch, n_samples=500, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n + 2 * 2**20


def test_zero_weight_components_are_dropped():
    # a window holding only zero-weight components must not give NaN
    for n in (1, 3000):
        means = np.append(np.linspace(-1.0, 1.0, n), 100.0)
        w = np.append(np.full(n, 1.0 / n), 0.0)
        got = mixture_logpdf(np.array([100.0, 0.5]), MixtureSpec(means=means, weights=w))
        # the query at 100 is far from all mass: every massive component enters
        want = _brute_logpdf(np.array([100.0, 0.5]), means[:n], w[:n], 1.0)
        assert np.allclose(got, want, rtol=1e-12)
    spec = MixtureSpec(means=np.array([0.0, 100.0]), weights=np.array([1.0, 0.0]))
    h = mixture_entropy(spec, method="quadrature").value
    assert h == pytest.approx(gaussian_entropy(1.0), abs=1e-6)


def test_spec_holds_each_component_once(monkeypatch):
    # the public means and weights are the sorted, massive components, and
    # the log-density reads spec.means itself, not a sorted copy beside it
    spec = MixtureSpec(means=np.array([3.0, -1.0, 7.0, 0.0, 2.0]),
                       weights=np.array([0.1, 0.2, 0.0, 0.3, 0.4]))
    assert len(spec) == 4
    assert spec.means.tolist() == [-1.0, 0.0, 2.0, 3.0]
    assert spec.weights.tolist() == [0.2, 0.3, 0.4, 0.1]
    assert spec._logw.tolist() == np.log([0.2, 0.3, 0.4, 0.1]).tolist()
    seen = []
    logpdf = infometrics._logpdf_sorted

    def spy(y, means, logw, sigma):
        seen.append((means, logw))
        return logpdf(y, means, logw, sigma)

    monkeypatch.setattr(infometrics, "_logpdf_sorted", spy)
    mixture_logpdf([0.5], spec)
    assert np.shares_memory(seen[0][0], spec.means) and seen[0][1] is spec._logw
    # an unsorted equal-weight mixture holds one array: its sorted means
    flat = MixtureSpec(means=np.array([2.0, -1.0, 0.5]))
    assert flat.means.tolist() == [-1.0, 0.5, 2.0] and flat.weights.strides == (0,)
    mixture_logpdf([0.5], flat)
    assert np.shares_memory(seen[1][0], flat.means)


def test_far_query_weighs_every_component():
    # the nearer mean is light: the heavy one 15.1 sigma away carries the density
    means, w = np.array([0.0, 30.0]), np.array([1e-6, 1.0 - 1e-6])
    y = np.array([14.9])
    got = mixture_logpdf(y, MixtureSpec(means=means, weights=w))[0]
    assert got == pytest.approx(_brute_logpdf(y, means, w, 1.0)[0], rel=1e-14)
    assert got == pytest.approx(-114.92, abs=5e-3)


def test_heavy_component_beyond_the_window_is_summed():
    # the window holds only the light component, 0.5 sigma away; the heavy one
    # 15.5 sigma away outweighs it by e^138 and carries the density
    means, w = np.array([0.0, 15.0]), np.array([1e-60, 1.0 - 1e-60])
    y = np.array([-0.5])
    got = mixture_logpdf(y, MixtureSpec(means=means, weights=w))[0]
    assert got == pytest.approx(_brute_logpdf(y, means, w, 1.0)[0], rel=1e-12)
    assert got == pytest.approx(-121.04, abs=5e-3)


def test_far_query_single_component_closed_form():
    spec = MixtureSpec(means=np.array([2.5]), sigma=0.4)
    y = np.array([2.5 + 500 * 0.4, 2.5 - 500 * 0.4])
    want = -0.5 * 500.0 ** 2 - math.log(0.4) - 0.5 * math.log(2 * math.pi)
    assert np.allclose(mixture_logpdf(y, spec), want, rtol=1e-15)


def test_entropy_permutation_and_translation_invariance():
    means = np.array([0.0, 2.0, -1.0, 5.0])
    w = np.array([0.1, 0.4, 0.3, 0.2])
    spec = MixtureSpec(means=means, weights=w, sigma=0.8)
    perm = np.array([2, 0, 3, 1])
    spec_p = MixtureSpec(means=means[perm], weights=w[perm], sigma=0.8)
    spec_t = MixtureSpec(means=means + 17.3, weights=w, sigma=0.8)
    h = mixture_entropy(spec, method="mc", n_samples=5000, seed=9)
    # sorting inside the estimator makes permutation invariance bitwise
    assert mixture_entropy(spec_p, method="mc", n_samples=5000, seed=9).value == h.value
    # translation is exact up to float rounding of the shifted means
    assert mixture_entropy(spec_t, method="mc", n_samples=5000, seed=9).value == \
        pytest.approx(h.value, abs=1e-9)
    hq = mixture_entropy(spec, method="quadrature").value
    assert mixture_entropy(spec_p, method="quadrature").value == pytest.approx(hq, abs=1e-9)
    assert mixture_entropy(spec_t, method="quadrature").value == pytest.approx(hq, abs=1e-9)


def test_entropy_monotone_in_sigma():
    means = np.array([-2.0, 0.0, 3.0])
    vals = [mixture_entropy(MixtureSpec(means=means, sigma=s), method="quadrature").value
            for s in (0.5, 1.0, 2.0)]
    assert vals[0] < vals[1] < vals[2]


def test_entropy_bounds_single_gaussian_limit():
    # widely separated components: h -> H(choice) + gaussian term
    spec = MixtureSpec(means=np.array([0.0, 1000.0]), sigma=1.0)
    h = mixture_entropy(spec, method="quadrature").value
    assert h == pytest.approx(1.0 + gaussian_entropy(1.0), abs=1e-6)
    # coincident components: plain gaussian
    spec1 = MixtureSpec(means=np.array([4.0, 4.0]), sigma=1.0)
    assert mixture_entropy(spec1, method="quadrature").value == pytest.approx(
        gaussian_entropy(1.0), abs=1e-6)


def test_mc_agrees_with_quadrature():
    rng = np.random.default_rng(3)
    for trial in range(4):
        k = int(rng.integers(2, 30))
        spec = MixtureSpec(means=rng.normal(scale=3.0, size=k),
                           sigma=float(rng.uniform(0.3, 2.0)))
        quad = mixture_entropy(spec, method="quadrature")
        mc = mixture_entropy(spec, method="mc", n_samples=40_000, seed=trial)
        assert abs(mc.value - quad.value) <= 3.0 * mc.stderr + quad.stderr + 1e-6


def test_entropy_caps_refuse():
    big = MixtureSpec(means=np.zeros(COMPONENT_CAP + 1))
    with pytest.raises(ValueError):
        mixture_entropy(big, method="quadrature")
    with pytest.raises(ValueError):
        mixture_entropy(MixtureSpec(means=np.zeros(2)), method="nope")


def test_isolated_components_refuse_before_the_grid():
    # 20,000 windows of 225 points each: 4.5M grid points, 36 MB per array
    spec = MixtureSpec(means=100.0 * np.arange(20_000))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="trapezoid grid"):
            mixture_entropy(spec, method="quadrature")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    # 450 points, but grid indices past 2**53 that float64 cannot hold exactly
    with pytest.raises(ValueError, match="trapezoid grid"):
        mixture_entropy(MixtureSpec(means=np.array([0.0, 1e19])), method="quadrature")


def test_grid_rows_never_find_their_window_empty(monkeypatch):
    # every grid point lies in some component's window, also as the density
    # rounds it (origin + k h +- the half-width); an empty window sums every
    # component. This cell's eavesdropper mixtures had 1 such row each.
    logpdf, empty = infometrics._logpdf_sorted, []

    def checked(y, means, logw, sigma):
        half = infometrics.WINDOW_SIGMAS * sigma
        lo = np.searchsorted(means, y - half, side="left")
        hi = np.searchsorted(means, y + half, side="right")
        empty.append(int(np.count_nonzero(hi <= lo)))
        return logpdf(y, means, logw, sigma)

    monkeypatch.setattr(infometrics, "_logpdf_sorted", checked)
    ch = sample_channel(1, 101)
    cfg = make_blind_scheme(1, 1e2, 0.05, ch.h, default_budget(ch, 1e2).c_bar, 4)
    rate_lower_bound(cfg, ch, method="quadrature")
    assert empty == [0, 0, 0, 0]


def _entropy_adaptive(spec):
    # scipy's adaptive quadrature between the component means: the reference
    # the trapezoid rule replaced, on a brute-force log-density
    means = np.sort(spec.means[spec.weights > 0])
    sigma = spec.sigma
    lo = means[0] - 10.0 * sigma
    hi = means[-1] + 10.0 * sigma
    pts = np.concatenate([[lo], means, [hi]])
    keep = np.concatenate([[True], np.diff(pts) > 1e-6 * sigma])
    pts = pts[keep]
    if pts[-1] < hi:
        pts = np.append(pts, hi)

    def integrand(y):
        lp = _brute_logpdf(np.array([y]), spec.means, spec.weights, sigma)[0]
        return -math.exp(lp) * lp / math.log(2.0)

    per_piece = max(1e-12 / max(len(pts) - 1, 1), 1e-13)
    return sum(integrate.quad(integrand, a, b, epsabs=per_piece, epsrel=1e-10, limit=200)[0]
               for a, b in zip(pts[:-1], pts[1:]))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["uniform", "random", "pmf"]))
def test_grid_entropy_matches_adaptive_quadrature(seed, weighting):
    rng = np.random.default_rng(seed)
    sigma = float(rng.uniform(0.05, 3.0))
    if weighting == "pmf":
        vals, w = symbol_sum_pmf(int(rng.integers(1, 4)), int(rng.integers(0, 7)))
        means = float(rng.uniform(0.2, 3.0)) * vals
    else:
        k = int(rng.integers(1, 41))
        means = rng.normal(scale=float(rng.uniform(0.1, 10.0)), size=k)
        w = rng.uniform(0.01, 1.0, size=k) if weighting in ("random", "light") else np.ones(k)
        if weighting == "skewed":
            # weights from 1 down to e^-300: a heavy component beyond a
            # query's window can outweigh every light one inside it
            w = np.exp(-rng.uniform(0.0, 300.0, size=k))
        if weighting == "light" and k > 1:
            # a cluster of subnormal weight far beyond the rest: the terms of
            # its queries underflow unless the log-sum is shifted
            means[::2] += np.ptp(means) + 1000.0 * sigma
            w[::2] *= 1e-315
        w = w / w.sum()
    spec = MixtureSpec(means=means, weights=w, sigma=sigma)
    grid = mixture_entropy(spec, method="quadrature")
    diff = abs(grid.value - _entropy_adaptive(spec))
    assert diff <= 1e-9
    assert grid.stderr >= diff - 1e-12


def test_import_loads_no_scipy(src_env):
    code = "import sys, blindjam; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=src_env)
    assert out.stdout.strip() == "False"


def test_symbol_sum_pmf_oracles():
    vals, pmf = symbol_sum_pmf(1, 2)
    assert np.array_equal(vals, np.arange(-2, 3))
    assert np.allclose(pmf, 0.2)
    vals, pmf = symbol_sum_pmf(2, 1)
    assert np.array_equal(vals, np.arange(-2, 3))
    assert np.allclose(pmf, np.array([1, 2, 3, 2, 1]) / 9.0)
    vals, pmf = symbol_sum_pmf(3, 4)
    assert pmf.sum() == pytest.approx(1.0)
    assert np.allclose(pmf, pmf[::-1])


@pytest.mark.parametrize("n, q", [(10**7, 1), (2, 10**12), (2**63, 0), (1001, 1)])
def test_symbol_sum_pmf_refuses_oversize_before_convolving(n, q):
    # (10^7, 1) convolved for minutes; (2**63, 0) has one value and 2**63 - 1
    # convolutions; (1001, 1) has 2003 values and 3 million multiply-adds
    with pytest.raises(LatticeSizeError, match="pmf"):
        symbol_sum_pmf(n, q)


def test_monte_carlo_sample_count_is_checked_before_drawing(ch1, blind_cfg):
    spec = MixtureSpec(means=np.array([0.0, 1.0]))
    with pytest.raises(LatticeSizeError, match="more than 10000000 Monte Carlo samples"):
        mixture_entropy(spec, n_samples=10**12)
    with pytest.raises(LatticeSizeError, match="Monte Carlo samples"):
        rate_lower_bound(blind_cfg, ch1, n_samples=10**11)
    with pytest.raises(TypeError):
        mixture_entropy(spec, n_samples=2e5)


def test_mi_bpsk_literature_value():
    # unit-energy BPSK in unit AWGN: known 0 dB value, h(Y) - h(N)
    h_y = mixture_entropy(MixtureSpec(means=np.array([-1.0, 1.0]), sigma=1.0),
                          method="quadrature")
    assert h_y.value - gaussian_entropy(1.0) == pytest.approx(0.4861, abs=2e-3)


def test_mi_posterior_form_identity():
    # h(Y) - h(Y|V) must equal H(V) - H(V|Y) (tiny case, both by quadrature)
    mus = np.array([-1.0, 1.0])
    sigma = 0.8
    h_y = mixture_entropy(MixtureSpec(means=mus, sigma=sigma), method="quadrature")
    mi = h_y.value - gaussian_entropy(sigma)

    def integrand(y):
        dens = 0.5 * (stats.norm.pdf(y, -1.0, sigma) + stats.norm.pdf(y, 1.0, sigma))
        post = 0.5 * stats.norm.pdf(y, 1.0, sigma) / dens
        ent = 0.0
        for p in (post, 1.0 - post):
            if p > 0:
                ent -= p * math.log2(p)
        return dens * ent

    h_v_given_y, _ = integrate.quad(integrand, -12, 12, limit=200)
    assert mi == pytest.approx(1.0 - h_v_given_y, abs=1e-6)


def _no_mixture(*args, **kwargs):
    raise AssertionError("a mixture was built")


def _drawn_cell(seed):
    """A scheme cell: kind from KINDS, m in {1, 2}, the power at which
    schedule_q gives q in 1..3, random signed gains and sigma1, sigma2
    log-uniform in [0.05, 3]."""
    rng = np.random.default_rng(seed)
    kind = KINDS[int(rng.integers(len(KINDS)))]
    m, q, delta = int(rng.integers(1, 3)), int(rng.integers(1, 4)), 0.05
    p = (q + 0.5) ** (2.0 * (m + 1 + delta) / (1.0 - delta))
    sigma1, sigma2 = np.exp(rng.uniform(math.log(0.05), math.log(3.0), size=2))
    ch = replace(sample_channel(m, int(rng.integers(2**31))),
                 sigma1=float(sigma1), sigma2=float(sigma2))
    cfg = _make_config(kind, m, p, delta, ch, default_budget(ch, p).c_bar, seed)
    assert cfg.q == schedule_q(p, delta, m) == q
    return cfg, ch


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_mi_nonnegative_and_capped(seed):
    # 0 <= I <= min(H(V), capacity cap) at both receivers, on the grid rule:
    # no sampling noise, so the only slack is its error and 1e-9. At low SNR
    # GaussianJam's legitimate I(V;Y1) meets its Gaussian cap within 1e-12,
    # where a Monte Carlo value falls above it by chance.
    cfg, ch = _drawn_cell(seed)
    rb = rate_lower_bound(cfg, ch, method="quadrature")
    for receiver, mi in (("legit", rb.i_v_y1), ("eve", rb.i_v_y2)):
        slack = mi.stderr + 1e-9
        assert -slack <= mi.value <= cfg.m * math.log2(2 * cfg.q + 1) + slack
        coeffs, counts, sigma = observation(cfg, ch, receiver)
        # a uniform integer on [-q, q] has variance q (q + 1) / 3
        var = float(np.sum((cfg.a * coeffs) ** 2 * np.asarray(counts))) * cfg.q * (cfg.q + 1) / 3
        cap = 0.5 * math.log2(1.0 + var / sigma**2)
        assert mi.value <= cap + slack


def test_mi_input_validation(ch1):
    # sigma = 0 is refused by MixtureSpec. The other refusals (set,
    # coefficient and weight lengths, the designated range) guarded inputs
    # that observation cannot produce, and went with that interface.
    cfg = make_blind_scheme(1, 100.0, 0.1, ch1.h, default_budget(ch1, 100.0).c_bar, 3)
    for method in ("mc", "quadrature"):
        with pytest.raises(ValueError, match="sigma"):
            rate_lower_bound(cfg, replace(ch1, sigma1=0.0), method=method)


def test_component_cap_message_names_q(monkeypatch):
    # Blind M=2 at p=1e10 has q=36: the legitimate mixture, checked first,
    # would hold 73^2 * 217 components; the refusal names the cap and comes
    # before any mixture
    ch = sample_channel(2, 11)
    cfg = make_blind_scheme(2, 1e10, 0.05, ch.h, default_budget(ch, 1e10).c_bar, 3)
    assert cfg.q == 36
    monkeypatch.setattr(infometrics, "_product_mixture", _no_mixture)
    with pytest.raises(ValueError, match="more than 1000000 mixture components.*reduce q"):
        rate_lower_bound(cfg, ch, method="quadrature")


def test_estimate_validation():
    with pytest.raises(ValueError):
        MiEstimate(value=np.nan, stderr=0.0)
    with pytest.raises(ValueError):
        MiEstimate(value=1.0, stderr=-0.1)


def test_negative_differential_entropies_are_values():
    # below sigma = 0.41 a Gaussian's differential entropy is negative
    spec = MixtureSpec(means=np.array([0.0, 1.0]), sigma=0.1)
    # at sigma 0.01 the legitimate h(Y1|V), about -1.6 bits, is negative too
    channels = [replace(sample_channel(1, 7), sigma1=s, sigma2=s) for s in (0.2, 0.01)]
    cfg = make_blind_scheme(1, 100.0, 0.1, channels[0].h,
                            default_budget(channels[0], 100.0).c_bar, 3)
    h_v = cfg.m * math.log2(2 * cfg.q + 1)
    for method in ("mc", "quadrature"):
        h = mixture_entropy(spec, method=method, n_samples=20_000)
        assert h.value == pytest.approx(1.0 + gaussian_entropy(0.1), abs=0.02)
        for ch in channels:
            rb = rate_lower_bound(cfg, ch, method=method, n_samples=20_000)
            for mi in (rb.i_v_y1, rb.i_v_y2):
                assert -3.0 * mi.stderr <= mi.value <= h_v + 3.0 * mi.stderr


def test_negative_grid_information_raises(ch1, monkeypatch):
    # the trapezoid rule carries no sampling noise: h(Y) < h(Y|V) is a defect
    values = iter([(1.0, 0.0), (2.0, 0.0)])
    monkeypatch.setattr(infometrics, "_entropy_grid", lambda spec: next(values))
    cfg = make_blind_scheme(1, 100.0, 0.1, ch1.h, default_budget(ch1, 100.0).c_bar, 3)
    with pytest.raises(ValueError, match="cannot be negative"):
        rate_lower_bound(cfg, ch1, method="quadrature")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_grid_mi_between_zero_and_input_entropy(seed):
    cfg, ch = _drawn_cell(seed)
    rb = rate_lower_bound(cfg, ch, method="quadrature")
    for mi in (rb.i_v_y1, rb.i_v_y2):
        slack = 3.0 * mi.stderr + 1e-9
        assert -slack <= mi.value <= cfg.m * math.log2(2 * cfg.q + 1) + slack


def _enumerated_mi(cfg, ch, receiver):
    """I(V;Y) at ``receiver`` from every symbol tuple of its single streams:
    h(Y) over all tuples, h(Y|V) over those whose message symbols are 0."""
    coeffs, counts, sigma = observation(cfg, ch, receiver)
    streams = np.repeat(coeffs, counts)  # the messages are the first m streams
    tuples = np.array(list(itertools.product(range(-cfg.q, cfg.q + 1), repeat=len(streams))))
    means = cfg.a * (tuples @ streams)
    cond = means[~tuples[:, :cfg.m].any(axis=1)]
    h = [mixture_entropy(MixtureSpec(mu, sigma=sigma), "quadrature").value for mu in (means, cond)]
    return h[0] - h[1]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("m", [1, 2])
def test_rate_bound_terms_equal_the_enumerated_mixtures(kind, m):
    # an oracle apart from _receiver_mi's sets, pmf weights and conditioning
    for p in (1e2, 1e3):
        for draw in range(2):
            ch = replace(sample_channel(m, 40 + draw), sigma1=0.7, sigma2=1.3)
            cfg = _make_config(kind, m, p, 0.05, ch, default_budget(ch, p).c_bar, draw)
            rb = rate_lower_bound(cfg, ch, method="quadrature")
            assert rb.i_v_y1.value == pytest.approx(_enumerated_mi(cfg, ch, "legit"), abs=1e-9)
            assert rb.i_v_y2.value == pytest.approx(_enumerated_mi(cfg, ch, "eve"), abs=1e-9)


def test_rate_lower_bound_structure(ch1):
    cfg = make_blind_scheme(1, 100.0, 0.1, ch1.h, default_budget(ch1, 100.0).c_bar, 3)
    rb = rate_lower_bound(cfg, ch1, n_samples=4000, seed=11)
    assert rb.bound == max(0.0, rb.i_v_y1.value - rb.i_v_y2.value)
    assert rb.bound >= 0.0
    again = rate_lower_bound(cfg, ch1, n_samples=4000, seed=11)
    assert again.bound == rb.bound


def test_rate_lower_bound_all_kinds(ch1):
    budget = default_budget(ch1, 100.0)
    for cfg in (make_blind_scheme(1, 100.0, 0.1, ch1.h, budget.c_bar, 3),
                make_csi_scheme(100.0, 0.1, ch1.h, ch1.g),
                make_gaussian_jam_scheme(1, 100.0, 0.1, ch1.h, budget.c_bar, 3)):
        rb = rate_lower_bound(cfg, ch1, n_samples=4000, seed=1)
        assert np.isfinite(rb.bound)


def test_eve_entropy_cap_trips_on_broken_accounting(ch1):
    # a c_bar far below the true sum g^2 must trip the max-entropy check
    cfg = make_blind_scheme(1, 100.0, 0.1, ch1.h, 10.0, 3)
    broken = replace(cfg, c_bar=1e-4)
    with pytest.raises(RuntimeError, match="max-entropy cap"):
        rate_lower_bound(broken, ch1, n_samples=4000, seed=0)


def test_gaussian_jam_uses_exact_noise_folding(ch1):
    budget = default_budget(ch1, 100.0)
    cfg = make_gaussian_jam_scheme(1, 100.0, 0.1, ch1.h, budget.c_bar, 3)
    coeffs, counts, sigma = observation(cfg, ch1, "eve")
    assert sigma == pytest.approx(
        math.sqrt(ch1.sigma2**2 + 100.0 * float(np.sum(ch1.g[1:] ** 2))))
    assert counts == (1,)  # the message stream alone
    coeffs1, counts1, sigma1 = observation(cfg, ch1, "legit")
    assert sigma1 == pytest.approx(
        math.sqrt(ch1.sigma1**2 + 100.0 * float(np.sum(ch1.h[1:] ** 2))))
    assert counts1 == (1,)
    assert np.allclose(coeffs1, ch1.h[0] * np.asarray(cfg.alphas))


def test_legit_model_collapses_jamming(ch1):
    cfg = make_blind_scheme(1, 100.0, 0.1, ch1.h, 10.0, 3)
    coeffs, counts, sigma = observation(cfg, ch1, "legit")
    # m message streams plus one coordinate summing both jamming streams
    assert counts == (1, 2) and coeffs[-1] == 1.0 and sigma == ch1.sigma1
    # the eavesdropper keeps one coordinate per jamming stream
    coeffs2, counts2, sigma2 = observation(cfg, ch1, "eve")
    assert counts2 == (1, 1, 1) and sigma2 == ch1.sigma2
    assert np.array_equal(coeffs2[1:], ch1.g / ch1.h)


def test_mixture_models_match_simulated_channel(ch1):
    # strongest model check: cross-entropy of physically simulated outputs
    # against the model mixture equals the model's own entropy
    from blindjam.channel import eve_output
    from blindjam.schemes import encode, sample_symbols

    cfg = make_blind_scheme(1, 100.0, 0.1, ch1.h, 10.0, 3)
    coeffs, counts, sigma = observation(cfg, ch1, "eve")
    vals, _ = symbol_sum_pmf(1, cfg.q)
    spec = _product_mixture(coeffs, [cfg.a * vals] * len(counts), [None] * len(counts), sigma)
    rng = np.random.default_rng(4)
    v, u = sample_symbols(cfg, substream(8, "symbols"), n=60_000)
    y = eve_output(ch1, encode(cfg, v, u)) + rng.normal(size=60_000)
    cross = float(np.mean(-mixture_logpdf(y, spec))) / math.log(2)
    h_model = mixture_entropy(spec, method="mc", n_samples=60_000, seed=5)
    assert cross == pytest.approx(h_model.value, abs=4.0 * h_model.stderr + 0.02)
