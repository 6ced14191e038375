"""Information measures for discrete-input scalar Gaussian channels.

Every receiver observation in this library is a finite equal-variance
Gaussian mixture: the sums of ``schemes.observation``, one symbol set per
coordinate, plus Gaussian noise. Its log-density at a query sums only the
components within WINDOW_SIGMAS noise deviations, unless a heavier component
beyond them could outweigh those. A mixture whose weights are all equal
(every eavesdropper mixture, whose streams are all uniform) keeps one
log-weight, which leaves its log-sum as a constant, and no weight array: it
is its sorted means alone. A weighted one (the legitimate receiver's jamming
sum) also keeps its sorted weights and their logs. Each mixture lives only
while its entropy is estimated, so one is held at a time. Entropies have no closed
form, so two estimators are provided on that log-density: Monte Carlo, and
a trapezoid rule on a uniform grid of step GRID_STEP noise deviations that
covers every component's window. The trapezoid rule converges exponentially
for such smooth, fast-decaying integrands (Trefethen & Weideman, SIAM Rev.
2014), so it is the deterministic reference for Monte Carlo. Mutual
information with the message symbols follows as h(Y) - h(Y | messages),
where the conditional term is translation invariant in the conditioning
value and is therefore computed once.

All values are in bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .constellation import check_size
from .schemes import SchemeConfig, observation
from .streams import child_seed, substream

__all__ = [
    "COMPONENT_CAP",
    "DEFAULT_MC_SAMPLES",
    "MixtureSpec",
    "MiEstimate",
    "RateBound",
    "gaussian_entropy",
    "mixture_logpdf",
    "mixture_entropy",
    "symbol_sum_pmf",
    "rate_lower_bound",
]

# bounds a mixture's component count and the trapezoid grid's point count
COMPONENT_CAP = 10 ** 6
DEFAULT_MC_SAMPLES = 200_000
LOG2E = math.log2(math.e)
# components beyond this many noise deviations from a sample contribute
# less than exp(-98) of the density and are dropped from the log-sum
WINDOW_SIGMAS = 14.0
# window terms per chunk of queries: 512 KiB per float64 array, so the
# chunk's few arrays stay within a 2 MiB L2 cache
CHUNK_TERMS = 1 << 16
# trapezoid grid step in noise deviations: at sigma/4, two-component mixtures
# 2 to 30 sigma apart already differ from adaptive quadrature by 1.3e-9 bits
GRID_STEP = 0.125
GAUSSIAN_ENTROPY_BITS = 0.5 * math.log2(2.0 * math.pi * math.e)


@dataclass(frozen=True)
class MixtureSpec:
    """Finite equal-variance Gaussian mixture: means, weights, common sigma.

    Components of zero weight are dropped, and the rest sorted by mean once:
    ``means`` and ``weights`` hold the kept components in that order, and
    are what the log-density reads. When the weights are all exactly equal,
    one log-weight stands for them all, ``weights`` is a zero-stride view of
    one weight and means already in order are not copied, so such a mixture
    holds a single array of its length. Unequal weights hold their sorted
    means, normalised weights and log-weights: three arrays.
    """

    means: np.ndarray
    weights: np.ndarray | None = None
    sigma: float = 1.0

    def __post_init__(self):
        means = np.asarray(self.means, dtype=float).reshape(-1)
        if means.size == 0 or not np.all(np.isfinite(means)):
            raise ValueError("mixture needs at least one component, all means finite")
        # sigma**2 is then a normal double, and so is its reciprocal
        if not 1e-150 < self.sigma < 1e150:  # NaN fails too
            raise ValueError("sigma must lie in (1e-150, 1e150)")
        if self.weights is None:
            weights = np.broadcast_to(1.0 / means.size, means.shape)
        else:
            weights = np.asarray(self.weights, dtype=float).reshape(-1)
            if weights.shape != means.shape:
                raise ValueError("weights and means must have equal length")
            if weights.min() < 0:
                raise ValueError("weights must be nonnegative")
            total = float(np.sum(weights))
            if not abs(total - 1.0) <= 1e-9:  # NaN fails too
                raise ValueError("weights must sum to 1")
            # normalised before sorting: the sum runs in the caller's order
            weights = (np.broadcast_to(weights[0] / total, means.shape)
                       if weights.strides == (0,) else weights / total)
        if weights.min() == 0.0:
            keep = weights > 0
            means, weights = means[keep], weights[keep]
        # equal weights (exactly) keep one log-weight, and their means need
        # no stable order
        if weights.strides == (0,) or np.all(weights == weights[0]):
            logw = float(np.log(weights[0]))
            weights = np.broadcast_to(weights[0], means.shape)
            if not np.all(means[:-1] <= means[1:]):
                means = np.sort(means)
        else:
            order = np.argsort(means, kind="stable")
            means, weights = means[order], weights[order]
            logw = np.log(weights)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_logw", logw)

    def __len__(self) -> int:
        return self.means.size


@dataclass(frozen=True)
class MiEstimate:
    """Mutual information estimate in bits per channel use."""

    value: float
    stderr: float

    def __post_init__(self):
        # no sign rule: differential entropies are negative for small sigma,
        # and a Monte Carlo estimate of a zero information falls below zero
        if not (math.isfinite(self.value) and math.isfinite(self.stderr)
                and self.stderr >= 0):
            raise ValueError("estimate must be finite, stderr finite and nonnegative")


def gaussian_entropy(sigma: float) -> float:
    """Differential entropy of N(mu, sigma^2) in bits (mu immaterial)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return GAUSSIAN_ENTROPY_BITS + math.log2(sigma)


def _logpdf_sorted(y, means, logw, sigma):
    """Log density at y of the mixture with sorted means and log-weights.

    ``logw`` is one log-weight per mean, or a single float shared by all.
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


def mixture_logpdf(y, spec: MixtureSpec) -> np.ndarray:
    """Natural-log density of the mixture at y, numerically stable.

    Only the components within WINDOW_SIGMAS noise deviations of a query enter
    its log-sum. Each dropped term is below exp(-WINDOW_SIGMAS^2/2) = exp(-98)
    times w_k / (sqrt(2 pi) sigma), its own value at its mean. A query sums
    all components when a dropped term could come near a kept one: with
    equal weights, when its window is empty; otherwise when neither mean
    beside it has ln w_j - d_j^2 / 2 >= ln w_max - 49 (d_j its distance in
    deviations), a kept term e^49 times each dropped one. An equal-weight
    mixture adds its one log-weight to each query's log-sum.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    return _logpdf_sorted(y, spec.means, spec._logw, spec.sigma)


def _entropy_mc(spec: MixtureSpec, n_samples: int, seed: int) -> tuple[float, float]:
    rng = substream(seed, "entropy")
    means, logw = spec.means, spec._logw
    # the sampling CDF, built in place; a shared log-weight gives the same
    # draws as its per-component copies
    cum = np.full(means.shape, np.exp(logw)) if np.ndim(logw) == 0 else np.exp(logw)
    np.cumsum(cum, out=cum)
    cum[-1] = 1.0
    comp = np.searchsorted(cum, rng.random(n_samples), side="right")
    del cum  # freed before the log-density runs
    comp = np.minimum(comp, means.shape[0] - 1)
    y = means[comp] + spec.sigma * rng.normal(size=n_samples)
    bits = -mixture_logpdf(y, spec) * LOG2E  # by its public name: perfbench wraps it
    value = float(np.mean(bits))
    stderr = float(np.std(bits, ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
    return value, stderr


def _entropy_grid(spec: MixtureSpec) -> tuple[float, float]:
    means, logw = spec.means, spec._logw
    sigma = spec.sigma
    h = GRID_STEP * sigma
    half = WINDOW_SIGMAS * sigma
    origin = means[0] - half
    # grid indices k of origin + k h inside each component's window; the
    # means are sorted, so both ends are too and the windows merge into runs
    lo = np.ceil((means - half - origin) / h)
    hi = np.floor((means + half - origin) / h)
    # an end whose query, rounded as _logpdf_sorted computes it, puts the
    # mean just outside its window steps in: no grid row's window is empty
    lo += origin + lo * h + half < means
    hi -= origin + hi * h - half > means
    first = np.flatnonzero(np.append(True, lo[1:] > hi[:-1] + 1))
    run_lo = lo[first]
    width = hi[np.append(first[1:] - 1, hi.size - 1)] - run_lo + 1
    n = float(np.sum(width))
    # checked before the grid is allocated; indices past 2**53 are not exact
    if not (n <= COMPONENT_CAP and hi[-1] < 2.0 ** 53):
        raise ValueError(f"trapezoid grid of {n:g} points over {hi[-1]:g} steps exceeds "
                         f"the cap of {COMPONENT_CAP} points")
    width = width.astype(np.int64)
    start = np.cumsum(width) - width  # each run's first position in the grid
    k = np.arange(int(n)) + np.repeat(run_lo.astype(np.int64) - start, width)
    lp = _logpdf_sorted(origin + k * h, means, logw, sigma)
    f = -np.exp(lp) * lp * LOG2E
    t_h = h * float(np.sum(f))
    # the even k form the grid of step 2 h: its rule needs no evaluation
    t_2h = 2.0 * h * float(np.sum(f[k % 2 == 0]))
    return t_h, abs(t_h - t_2h)


def mixture_entropy(spec: MixtureSpec, method: str = "mc",
                    n_samples: int = DEFAULT_MC_SAMPLES, seed: int = 0) -> MiEstimate:
    """Differential entropy of the mixture in bits.

    method "mc": -(1/n) sum log2 density at n draws from the mixture,
    stderr from the sample variance. method "quadrature": trapezoid rule
    for -f log2 f on the grid of step GRID_STEP sigma inside the components'
    windows; stderr reports its difference from the rule of twice the step.
    Both refuse mixtures above COMPONENT_CAP components, and the trapezoid
    rule grids above COMPONENT_CAP points.
    """
    m = len(spec)
    if m > COMPONENT_CAP:
        raise ValueError(f"{m} components exceed the cap {COMPONENT_CAP}")
    if method == "mc":
        if n_samples < 2:
            raise ValueError("need at least 2 samples")
        return MiEstimate(*_entropy_mc(spec, n_samples, seed))
    if method == "quadrature":
        return MiEstimate(*_entropy_grid(spec))
    raise ValueError(f"unknown method {method!r}")


def symbol_sum_pmf(n_streams: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Distribution of a sum of n i.i.d. uniform integers from [-q, q].

    Returns (values, pmf), values = -n q .. n q. Lets the aligned jamming
    sum enter a mixture as one weighted stream instead of n uniform ones.
    """
    if n_streams < 1:
        raise ValueError("need at least one stream")
    if q < 0:
        raise ValueError("q must be >= 0")
    base = np.full(2 * q + 1, 1.0 / (2 * q + 1))
    pmf = base.copy()
    for _ in range(n_streams - 1):
        pmf = np.convolve(pmf, base)
    values = np.arange(-n_streams * q, n_streams * q + 1, dtype=float)
    return values, pmf


def _product_mixture(coeffs, symbol_sets, set_weights, sigma) -> MixtureSpec:
    """The mixture of sum_i coeffs[i] S_i + N(0, sigma^2), the S_i independent
    on ``symbol_sets[i]`` with pmf ``set_weights[i]`` (None: uniform).

    While every set is uniform the log-weight is one number, so an
    equal-weight product is its means, sorted in place, and one weight
    broadcast without a copy. A weighted one takes the exp of its
    log-weights in place.
    """
    means = np.zeros(1)
    logw = 0.0  # one number while every set so far is uniform
    for c, vals, w in zip(coeffs, symbol_sets, set_weights):
        vals = np.asarray(vals, dtype=float)
        if w is None:
            lw = -math.log(vals.size)
        else:
            with np.errstate(divide="ignore"):
                lw = np.log(np.asarray(w, dtype=float))
        if w is None and np.ndim(logw) == 0:
            logw += lw
        else:
            logw = (np.broadcast_to(logw, means.shape)[:, None]
                    + np.broadcast_to(lw, vals.shape)).ravel()
        means = (means[:, None] + c * vals[None, :]).ravel()
    if np.ndim(logw) == 0:
        means.sort()
        return MixtureSpec(means, np.broadcast_to(np.exp(logw), means.shape), sigma)
    return MixtureSpec(means, np.exp(logw, out=logw), sigma)


@dataclass(frozen=True)
class RateBound:
    """Secrecy-rate lower bound: I(V;Y1) - I(V;Y2), clamped at zero."""

    i_v_y1: MiEstimate
    i_v_y2: MiEstimate
    bound: float


def _receiver_mi(cfg: SchemeConfig, ch: ChannelRealization, receiver: str, method: str,
                 n_samples: int, seed: int):
    """(I(V;Y), h(Y), h(Y|V)) of the messages V at one receiver of ``observation``.

    V is the leading ``cfg.m`` coordinates; h(Y|V) is translation invariant
    in V's value, so the mixture of the other coordinates alone gives it.
    The legitimate receiver's jamming sum enters as one set weighted by its
    pmf, even of one stream; every other coordinate is one uniform stream,
    unweighted, so the eavesdropper mixtures keep exactly equal weights. At
    q = 0 the messages are constant: I = 0 exactly, and both entropies None.
    """
    coeffs, counts, sigma = observation(cfg, ch, receiver)
    check_size((2 * n * cfg.q + 1 for n in counts), COMPONENT_CAP, "mixture components")
    if cfg.q == 0:
        return MiEstimate(0.0, 0.0), None, None
    sets, weights = [], []
    for i, n in enumerate(counts):
        vals, pmf = symbol_sum_pmf(n, cfg.q)
        sets.append(cfg.a * vals)
        weights.append(pmf if receiver == "legit" and i >= cfg.m else None)
    # each mixture lives only while its entropy is estimated
    h_y = mixture_entropy(_product_mixture(coeffs, sets, weights, sigma), method=method,
                          n_samples=n_samples, seed=child_seed(seed, "hy"))
    if len(counts) > cfg.m:
        cond = _product_mixture(coeffs[cfg.m:], sets[cfg.m:], weights[cfg.m:], sigma)
        h_cond = mixture_entropy(cond, method=method, n_samples=n_samples,
                                 seed=child_seed(seed, "hcond"))
    else:
        h_cond = MiEstimate(gaussian_entropy(sigma), 0.0)
    value = h_y.value - h_cond.value
    stderr = math.hypot(h_y.stderr, h_cond.stderr)
    if method == "quadrature" and value < -3.0 * stderr - 1e-9:
        # no sampling noise here: a negative information is a defect
        raise ValueError("mutual information cannot be negative beyond the grid rule's error")
    return MiEstimate(value=value, stderr=stderr), h_y, h_cond


def rate_lower_bound(cfg: SchemeConfig, ch: ChannelRealization, method: str = "mc",
                     n_samples: int = DEFAULT_MC_SAMPLES, seed: int = 0) -> RateBound:
    """Achievable-rate lower bound max(0, I(V;Y1) - I(V;Y2)) in bits.

    Every eavesdropper-side entropy is checked against the max-entropy cap
    implied by the scheme's power ``cfg.p`` and assumed gain bound
    ``cfg.c_bar``.
    """
    i1, _, _ = _receiver_mi(cfg, ch, "legit", method, n_samples, child_seed(seed, "y1"))
    i2, h_y2, _ = _receiver_mi(cfg, ch, "eve", method, n_samples, child_seed(seed, "y2"))
    if h_y2 is not None:
        cap_bits = 0.5 * math.log2(2.0 * math.pi * math.e * (ch.sigma2 ** 2 + cfg.c_bar * cfg.p))
        if h_y2.value > cap_bits + 3.0 * h_y2.stderr + 1e-6:
            raise RuntimeError(
                f"eavesdropper output entropy {h_y2.value:.6f} exceeds the "
                f"max-entropy cap {cap_bits:.6f}; power accounting is broken"
            )
    return RateBound(i_v_y1=i1, i_v_y2=i2, bound=max(0.0, i1.value - i2.value))
