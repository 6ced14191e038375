"""Information measures for discrete-input scalar Gaussian channels.

Every receiver observation in this library is a finite equal-variance
Gaussian mixture: the sums of ``schemes.observation``, one symbol set per
coordinate, plus Gaussian noise. Its log-density at a query sums only the
components within WINDOW_SIGMAS noise deviations, unless a heavier component
beyond them could outweigh those. Queries are taken in order of value, in
blocks of rows times the widest window; each row is one contiguous run of
the sorted means, so the means are neither copied nor gathered term by term.
A mixture whose weights are all equal (every eavesdropper mixture, whose
streams are all uniform) keeps one log-weight, which leaves its log-sum as a
constant, and no weight array: it is its sorted means alone. A weighted one (the legitimate receiver's jamming
sum) also keeps its sorted weights and their logs. Each mixture lives only
while its entropy is estimated, so one is held at a time. Entropies have no closed
form, so two estimators are provided on that log-density: Monte Carlo, which
draws its components from a sampling table built CHUNK_TERMS entries at a
time, so it holds no second array of the mixture's length, and
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
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelRealization
from .constellation import POINT_CAP, as_count, check_size
from .schemes import SchemeConfig, observation
from .streams import child_seed, substream

__all__ = [
    "COMPONENT_CAP",
    "MixtureSpec",
    "MiEstimate",
    "RateBound",
    "mixture_logpdf",
    "mixture_entropy",
    "rate_lower_bound",
]

# bounds a mixture's component count and the trapezoid grid's point count
COMPONENT_CAP = 10 ** 6
DEFAULT_MC_SAMPLES = 200_000
LOG2E = math.log2(math.e)
# components beyond this many noise deviations from a sample contribute
# less than exp(-98) of the density and are dropped from the log-sum
WINDOW_SIGMAS = 14.0
# cells per block of queries, rows x widest window: 512 KiB of float64, so
# the block's one or two arrays stay within a 2 MiB L2 cache
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
        # contiguous, so the log-density reads rows of it without a copy
        means = np.ascontiguousarray(self.means, dtype=float).reshape(-1)
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


def _windows(a, width):
    """Read-only rows ``a[i:i + width]``, i = 0 .. len(a) - width, of the
    contiguous array ``a``, without a copy."""
    rows = np.ndarray((a.shape[0] - width + 1, width), a.dtype, a, 0, a.strides * 2)
    rows.flags.writeable = False
    return rows


def _logpdf_sorted(y, means, logw, sigma):
    """Log density at y of the mixture with sorted means and log-weights.

    ``logw`` is one log-weight per mean, or a single float shared by all.
    """
    # rows in query order: the searches run on sorted keys, and neighbouring
    # rows have windows of nearly equal width
    order = np.argsort(y)
    y = y[order]
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
    # does not depend on the rows that share its block.
    floor = logw.min() if gather else 0.0
    if floor - 0.5 * WINDOW_SIGMAS ** 2 < -700.0:
        shift = np.ones_like(far)
    else:
        shift = far & (floor + scale * np.maximum(y - means[0], means[-1] - y) ** 2 < -700.0)
    if not gather:
        norm -= logw  # an equal weight leaves the log-sum as a constant
    if far.any():
        # far rows read every mean: last, so the others share narrow blocks
        last = np.argsort(far, kind="stable")
        order, y, lo, hi, shift = order[last], y[last], lo[last], hi[last], shift[last]
    width = hi - lo
    n, rows = len(means), y.shape[0]
    count = np.arange(1, min(rows, CHUNK_TERMS) + 1)  # rows in a block so far
    out = np.empty(rows)
    a = 0
    while a < rows:
        # a block of rows x its widest window within CHUNK_TERMS, at least one row
        widest = np.maximum.accumulate(width[a:a + max(1, CHUNK_TERMS // width[a])])
        b = a + max(1, int(np.count_nonzero(widest * count[:widest.shape[0]] <= CHUNK_TERMS)))
        w = int(widest[b - a - 1])
        # row i reads the w means from its window's start, or from n - w near
        # the end, so mean j is cell base_i + j of the block. reduceat sums
        # each row's window, cells[2i]:cells[2i + 1], and between rows sums
        # that are discarded; the last window may end the block.
        start = np.minimum(lo[a:b], n - w)
        base = np.arange(0, (b - a) * w, w) - start
        cells = np.empty(2 * (b - a), dtype=np.intp)
        cells[0::2], cells[1::2] = base + lo[a:b], base + hi[a:b]
        cells = cells[:-1] if cells[-1] == (b - a) * w else cells
        z = _windows(means, w)[start]
        z -= y[a:b, None]  # (mu - y)^2 has the bits of (y - mu)^2
        # a cell beyond its row's window may square past the double range:
        # its -inf term enters only a discarded sum
        with np.errstate(over="ignore"):
            np.square(z, out=z)
        z *= scale
        if gather:
            z += _windows(logw, w)[start]
        flat = z.reshape(-1)
        if shift[a:b].any():
            zmax = np.maximum.reduceat(flat, cells)[::2]
            zmax[~shift[a:b]] = 0.0
            z -= zmax[:, None]
        else:
            zmax = 0.0
        np.exp(z, out=z)
        out[order[a:b]] = zmax + np.log(np.add.reduceat(flat, cells)[::2]) - norm
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
    mixture adds its one log-weight to each query's log-sum. A query whose
    squared distance to every mean, in deviations, overflows has a density
    below the double range: -inf. More than POINT_CAP queries are refused
    before any is evaluated.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    check_size(y.shape, POINT_CAP, "log-density queries", "use fewer queries")
    # such a query's terms are all -inf, and shifted by their maximum, NaN
    with np.errstate(over="ignore", invalid="ignore"):
        out = _logpdf_sorted(y, spec.means, spec._logw, spec.sigma)
    out[np.isnan(out) & ~np.isnan(y)] = -np.inf
    return out


def _entropy_mc(spec: MixtureSpec, n_samples: int, seed: int) -> tuple[float, float]:
    rng = substream(seed, "entropy")
    means, logw = spec.means, spec._logw
    n = means.shape[0]
    u = rng.random(n_samples)
    # the sampling CDF, one block of CHUNK_TERMS entries at a time: a block
    # sums on from the previous block's last entry, so np.cumsum, which adds
    # in order, gives each entry the bits of the whole table's. A sample's
    # component counts the entries at or below its uniform, block by block.
    # A shared log-weight gives the same draws as its per-component copies.
    block = np.empty(min(CHUNK_TERMS, n))
    comp = np.zeros(n_samples, dtype=np.intp)
    carry = 0.0
    for a in range(0, n, CHUNK_TERMS):
        cum = block[:n - a]
        if np.ndim(logw) == 0:
            cum.fill(np.exp(logw))
        else:
            np.exp(logw[a:a + CHUNK_TERMS], out=cum)
        cum[0] += carry
        np.cumsum(cum, out=cum)
        if a + CHUNK_TERMS >= n:
            cum[-1] = 1.0
        carry = cum[-1]
        comp += np.searchsorted(cum, u, side="right")
    del u, block, cum  # freed before the log-density runs
    comp = np.minimum(comp, n - 1)
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
    Both refuse mixtures above COMPONENT_CAP components, Monte Carlo more
    than POINT_CAP samples and the trapezoid rule grids above COMPONENT_CAP
    points.
    """
    m = len(spec)
    if m > COMPONENT_CAP:
        raise ValueError(f"{m} components exceed the cap {COMPONENT_CAP}")
    if method == "mc":
        check_size((n_samples,), POINT_CAP, "Monte Carlo samples", "use fewer samples")
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
    More than COMPONENT_CAP values, or multiply-adds over the n - 1
    convolutions, are refused before the first.
    """
    if as_count(n_streams) < 1:
        raise ValueError("need at least one stream")
    if as_count(q) < 0:
        raise ValueError("q must be >= 0")
    check_size((2 * n_streams * q + 1,), COMPONENT_CAP, "pmf values")
    # convolution k takes (2kq + 1)(2q + 1) multiply-adds, k = 1 .. n - 1
    check_size((n_streams - 1, n_streams * q + 1, 2 * q + 1), COMPONENT_CAP,
               "pmf multiply-adds")
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
    """Secrecy-rate lower bound, derived: I(V;Y1) - I(V;Y2), clamped at zero."""

    i_v_y1: MiEstimate
    i_v_y2: MiEstimate
    bound: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "bound", max(0.0, self.i_v_y1.value - self.i_v_y2.value))


def _receiver_mi(cfg: SchemeConfig, ch: ChannelRealization, receiver: str, method: str,
                 n_samples: int, seed: int):
    """(I(V;Y), h(Y)) of the messages V at one receiver of ``observation``.

    V is the leading ``cfg.m`` coordinates; h(Y|V) is translation invariant
    in V's value, so the mixture of the other coordinates alone gives it.
    The legitimate receiver's jamming sum enters as one set weighted by its
    pmf, even of one stream; every other coordinate is one uniform stream,
    unweighted, so the eavesdropper mixtures keep exactly equal weights.
    """
    coeffs, counts, sigma = observation(cfg, ch, receiver)
    check_size((2 * n * cfg.q + 1 for n in counts), COMPONENT_CAP, "mixture components")
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
    return MiEstimate(value=value, stderr=stderr), h_y


def rate_lower_bound(cfg: SchemeConfig, ch: ChannelRealization, method: str = "mc",
                     n_samples: int = DEFAULT_MC_SAMPLES, seed: int = 0) -> RateBound:
    """Achievable-rate lower bound max(0, I(V;Y1) - I(V;Y2)) in bits.

    Every eavesdropper-side entropy is checked against the max-entropy cap
    implied by the scheme's power ``cfg.p`` and assumed gain bound
    ``cfg.c_bar``. ``mixture_entropy`` checks n_samples.
    """
    i1, _ = _receiver_mi(cfg, ch, "legit", method, n_samples, child_seed(seed, "y1"))
    i2, h_y2 = _receiver_mi(cfg, ch, "eve", method, n_samples, child_seed(seed, "y2"))
    cap_bits = 0.5 * math.log2(2.0 * math.pi * math.e * (ch.sigma2 ** 2 + cfg.c_bar * cfg.p))
    if h_y2.value > cap_bits + 3.0 * h_y2.stderr + 1e-6:
        raise RuntimeError(
            f"eavesdropper output entropy {h_y2.value:.6f} exceeds the "
            f"max-entropy cap {cap_bits:.6f}; power accounting is broken"
        )
    return RateBound(i_v_y1=i1, i_v_y2=i2)
