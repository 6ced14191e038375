"""Real Gaussian wiretap channel with M helper transmitters.

Transmitter 1 carries the message; transmitters 2..M+1 are helpers.  The
legitimate receiver sees ``h . x + N1`` and the eavesdropper ``g . x + N2``
for one channel use with input vector ``x`` of length M+1.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .streams import substream

__all__ = [
    "ChannelRealization",
    "PowerBudget",
    "sample_channel",
    "legit_output",
    "eve_output",
    "default_budget",
]

GAIN_MAGNITUDES = (0.5, 2.0)  # interval of a drawn gain's magnitude
NOISE_CAP = 1e150  # largest noise standard deviation of a channel


@dataclass(frozen=True)
class ChannelRealization:
    """One drawn channel: M+1 gains to each receiver plus noise levels, and
    the helper count m = len(h) - 1 >= 1 derived from them.

    All gains are required to be finite and nonzero, and the noise levels
    to lie in [0, NOISE_CAP]: a level near the double range overflows when a
    Gaussian draw scales it or the GaussianJam observation squares it. Draws
    come from continuous distributions, so degenerate (rationally dependent)
    gain combinations are detected downstream via constellation collision
    checks rather than prevented here.
    """

    h: np.ndarray
    g: np.ndarray
    sigma1: float = 1.0
    sigma2: float = 1.0
    m: int = field(init=False)

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        g = np.asarray(self.g, dtype=float)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "g", g)
        if h.ndim != 1 or h.shape[0] < 2 or g.shape != h.shape:
            raise ValueError("gains h and g must be vectors of one length m+1 >= 2")
        object.__setattr__(self, "m", h.shape[0] - 1)
        if not (np.all(np.isfinite(h)) and np.all(np.isfinite(g))):
            raise ValueError("all channel gains must be finite")
        if np.any(h == 0.0) or np.any(g == 0.0):
            raise ValueError("all channel gains must be nonzero")
        if not (0.0 <= self.sigma1 <= NOISE_CAP and 0.0 <= self.sigma2 <= NOISE_CAP):
            raise ValueError(f"noise standard deviations must lie in [0, {NOISE_CAP:g}]")


@dataclass(frozen=True)
class PowerBudget:
    """Average power constraint P plus the known bound c_bar >= sum(g_k^2).

    The legitimate side may use c_bar in scheme construction and analysis,
    never g itself.
    """

    p: float
    c_bar: float

    def __post_init__(self):
        if self.p <= 0:
            raise ValueError("power must be positive")
        if self.c_bar <= 0:
            raise ValueError("c_bar must be positive")


def default_budget(ch: ChannelRealization, p: float) -> PowerBudget:
    """Budget with a loose known bound, twice the realized sum of g^2."""
    return PowerBudget(p=p, c_bar=2.0 * float(np.sum(ch.g**2)))


def sample_channel(m: int, seed: int) -> ChannelRealization:
    """Draw a generic channel: gain magnitudes uniform in ``GAIN_MAGNITUDES``
    with independent random signs.  Identical seeds give identical draws.
    More than POINT_CAP gains are refused.
    """
    from .constellation import POINT_CAP, as_count, check_size  # constellation imports this module

    if as_count(m) < 1:
        raise ValueError("m must be >= 1")
    check_size((2, m + 1), POINT_CAP, "channel gains")
    rng = substream(seed, "channel", m)
    mags = rng.uniform(*GAIN_MAGNITUDES, size=2 * (m + 1))
    signs = rng.integers(0, 2, size=2 * (m + 1)) * 2 - 1
    gains = mags * signs
    return ChannelRealization(h=gains[: m + 1], g=gains[m + 1 :])


def _gain_sum(x, gains: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != gains.shape:
        raise ValueError(f"input vector must have length m+1 = {gains.shape[0]}")
    with np.errstate(over="ignore", invalid="ignore"):  # decided from the result below
        y = x @ gains
    if not np.isfinite(y).all() and (
            np.any(~np.isfinite(y) & np.isfinite(x).all(axis=-1))
            or np.any(np.isnan(y) & ~np.isnan(x).any(axis=-1))):
        raise ValueError("input whose gain-weighted sum overflows or is NaN")
    return y


def legit_output(ch: ChannelRealization, x):
    """Noiseless legitimate receiver observation ``sum_i h[i] x[i]``.

    ``x`` may be a single input vector or a batch with trailing dimension
    M+1. A row of finite inputs whose sum overflows the double range, or
    of infinite ones whose sum is NaN, is refused, in any row of a batch;
    infinite inputs that sum to +-inf give it, and a NaN input gives NaN.
    """
    return _gain_sum(x, ch.h)


def eve_output(ch: ChannelRealization, x):
    """Noiseless eavesdropper observation ``sum_i g[i] x[i]``, refused or
    returned as ``legit_output``'s."""
    return _gain_sum(x, ch.g)
