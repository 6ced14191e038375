"""Transmit-side constructions for the helper-assisted wiretap simulator.

Three scheme kinds share one config shape:

* ``Blind``: the legitimate transmitter superposes its own lattice jamming
  stream on the message streams and every helper inverts its own gain, so
  all jamming collapses onto one dimension at the legitimate receiver.
  Nothing here reads the eavesdropper gains.
* ``CsiAligned``: helpers still invert their gains, but the message
  coefficients are chosen from full eavesdropper knowledge so each message
  stream lands on top of a jamming stream at the eavesdropper.
* ``GaussianJam``: helpers transmit i.i.d. Gaussian noise at full power,
  the classical unstructured baseline.

The kinds differ in which transmitters send a lattice jamming symbol;
``jam_streams`` is the one place that says which, ``stream_counts`` the one
place that says how many symbols each receiver then sums per coordinate, and
``observation`` on which coefficients. The encoder, the decoder, the
information measures, the sweeps and their size checks all derive from these.

The power schedule is shared, and ``SchemeConfig`` derives it from the gains
it records: q grows like a fractional power of p, the spacing aims the
constellation at the power budget, and gamma is set to the largest value
that keeps every transmitter inside the budget.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelRealization
from .constellation import POINT_CAP, as_count, check_size
from .streams import substream

__all__ = [
    "KINDS",
    "SchemeConfig",
    "schedule_q",
    "make_blind_scheme",
    "make_csi_scheme",
    "jam_streams",
    "stream_counts",
    "observation",
    "check_symbols",
    "encode",
    "sample_symbols",
]

KINDS = ("Blind", "CsiAligned", "GaussianJam")


def jam_streams(kind: str, m: int) -> range:
    """Indices of the transmitters that send a lattice jamming symbol.

    Blind: all m+1, the transmitter's own stream included. CsiAligned: the m
    helpers. GaussianJam: none (its helpers send Gaussian noise).
    """
    if kind == "Blind":
        return range(m + 1)
    if kind == "CsiAligned":
        return range(1, m + 1)
    if kind == "GaussianJam":
        return range(0)
    raise ValueError(f"unknown scheme kind {kind!r}")


def stream_counts(kind: str, m: int, receiver: str) -> tuple[int, ...]:
    """How many i.i.d. uniform symbols each coordinate of ``observation``
    sums at receiver ``"legit"`` or ``"eve"``; no gain enters.

    One per message stream, first. The legitimate receiver adds one
    coordinate holding every jamming stream, the eavesdropper one per stream.
    """
    jam = len(jam_streams(kind, m))
    if receiver == "legit":
        return (1,) * m + ((jam,) if jam else ())
    if receiver == "eve":
        return (1,) * (m + jam)
    raise ValueError(f"unknown receiver {receiver!r}")


def observation(cfg: SchemeConfig, ch: ChannelRealization, receiver: str):
    """What receiver ``"legit"`` or ``"eve"`` sums: (coeffs, counts, sigma).

    Its output is sum_i coeffs[i] a t_i plus N(0, sigma^2) noise, where t_i
    is the sum of counts[i] i.i.d. uniform symbols in [-q, q]. The first m
    coordinates are the messages, on gain_1 alpha_k. Jamming transmitter j
    sends a u_j / h_j: at the legitimate receiver every jamming stream lands
    on coefficient 1, one coordinate for their sum; at the eavesdropper
    stream j keeps its own g_j / h_j. GaussianJam has no jamming coordinate;
    its helpers' Gaussian power is folded into sigma, exactly. Every decoder,
    lattice and rate bound reads it here, so a channel not on ``cfg.h`` is refused.
    """
    if tuple(ch.h) != cfg.h:
        raise ValueError("channel gains h differ from the gains the scheme was built for")
    counts = stream_counts(cfg.kind, cfg.m, receiver)
    gains, sigma = (ch.h, ch.sigma1) if receiver == "legit" else (ch.g, ch.sigma2)
    jam = jam_streams(cfg.kind, cfg.m)
    coeffs = gains[0] * np.asarray(cfg.alphas)
    if cfg.kind == "GaussianJam":
        sigma = math.sqrt(sigma ** 2 + cfg.p * float(np.sum(gains[1:] ** 2)))
    elif receiver == "legit":
        coeffs = np.append(coeffs, 1.0)
    else:
        coeffs = np.concatenate([coeffs, gains[jam] / ch.h[jam]])
    return coeffs, counts, sigma


def schedule_q(p: float, delta: float, m: int) -> int:
    """Symbol half-width for power ``p``: floor of p^((1-delta)/(2(m+1+delta))).

    Clamped to >= 1 so small-p runs stay well defined (a valid but trivial
    constellation, outside the regime where the rate guarantees kick in).
    """
    if not 0 < p < math.inf:  # NaN too
        raise ValueError("power p must be positive and finite")
    if not 0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 0.5)")
    if m < 1:
        raise ValueError("helper count m must be >= 1")
    return max(1, math.floor(p ** ((1.0 - delta) / (2.0 * (m + 1 + delta)))))


def admissible_gamma(h, alphas) -> float:
    """Largest power-scaling factor admissible for gains h and coefficients alphas.

    min of [1/|h_1| + sum|alpha_k|]^-1 and every helper gain magnitude; with
    this value each transmitter's second moment stays at or below the budget
    for any q >= 1.
    """
    h = np.asarray(h, dtype=float)
    alphas = np.asarray(alphas, dtype=float)
    if np.any(h == 0):
        raise ValueError("all legitimate gains must be nonzero")
    lead = 1.0 / (1.0 / abs(h[0]) + float(np.sum(np.abs(alphas))))
    return float(min(lead, np.min(np.abs(h[1:]))))


@dataclass(frozen=True)
class SchemeConfig:
    """Everything a transmitter ensemble needs for one scheme instance.

    Set: the kind, power p, margin delta, the m+1 legitimate gains h, the m
    message-stream coefficients ``alphas`` and the assumed eavesdropper gain
    bound c_bar (for analysis only). Derived here alone, and again by
    ``dataclasses.replace``, which cannot set them: the helper count
    m = len(alphas), the largest admissible gamma,
    q = max(1, floor(p^((1-delta)/(2(m+1+delta))))) and a = gamma*sqrt(p)/q.
    """

    kind: str
    p: float
    delta: float
    h: tuple[float, ...]
    alphas: tuple[float, ...]
    c_bar: float
    m: int = field(init=False)
    gamma: float = field(init=False)
    q: int = field(init=False)
    a: float = field(init=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        object.__setattr__(self, "m", len(self.alphas))
        if len(self.h) != self.m + 1:
            raise ValueError("h must have length m+1")
        if not 0 < self.c_bar < math.inf:  # NaN too
            raise ValueError("c_bar must be positive and finite")
        object.__setattr__(self, "h", tuple(float(x) for x in self.h))
        object.__setattr__(self, "alphas", tuple(float(x) for x in self.alphas))
        if not all(map(math.isfinite, self.h + self.alphas)):
            raise ValueError("gains h and alphas must be finite")
        # schedule_q refuses a bad p, delta or m, admissible_gamma a zero gain
        object.__setattr__(self, "q", schedule_q(self.p, self.delta, self.m))
        object.__setattr__(self, "gamma", admissible_gamma(self.h, self.alphas))
        object.__setattr__(self, "a", self.gamma * math.sqrt(self.p) / self.q)


def _draw_alphas(m: int, seed: int) -> tuple[float, ...]:
    # generic reals: magnitudes in [0.5, 1.5], random sign; keeps the
    # 1/|h1| + sum|alpha| term bounded so gamma does not collapse
    rng = substream(seed, "alphas", m)
    mags = rng.uniform(0.5, 1.5, size=m)
    signs = rng.integers(0, 2, size=m) * 2 - 1
    return tuple(float(x) for x in mags * signs)


def make_blind_scheme(m: int, p: float, delta: float, h, c_bar: float, seed: int) -> SchemeConfig:
    """Jamming scheme built from the legitimate gains alone.

    alphas are drawn uniformly from [0.5, 1.5] with random sign (generic
    reals); gamma is set to its largest admissible value. The eavesdropper
    gains are not an input: only their assumed bound c_bar is carried, and
    only for later analysis, never for construction. h must hold m+1 gains,
    checked before the m alphas are drawn.
    """
    if as_count(m) < 1 or len(h) != m + 1:
        raise ValueError("h must have length m+1, m >= 1")
    return SchemeConfig("Blind", p, delta, h, _draw_alphas(m, seed), c_bar)


def make_csi_scheme(p: float, delta: float, h, g) -> SchemeConfig:
    """Aligned baseline that requires the eavesdropper gains.

    Helper j inverts its own gain, so all jamming shares one dimension at
    the legitimate receiver; the message coefficient of stream j is
    g_j/(g_1 h_j), which puts message stream j and jamming stream j on the
    same coefficient at the eavesdropper. Only the m = len(h) - 1 helpers
    jam. The construction is deterministic, and its gain bound c_bar is
    2 sum g^2.
    """
    h = np.asarray(h, dtype=float)
    g = np.asarray(g, dtype=float)
    if h.ndim != 1 or g.shape != h.shape or len(h) < 2:
        raise ValueError("h and g must be 1-D, of one length, with at least 2 gains")
    if not (np.all(np.isfinite([h, g])) and np.all([h, g])):  # before any division
        raise ValueError("all gains must be finite and nonzero")
    with np.errstate(over="ignore", divide="ignore"):  # an infinite or zero result is refused
        alphas = g[1:] / (g[0] * h[1:])
        c_bar = 2.0 * float(np.sum(g ** 2))
    if not (np.all(np.isfinite(alphas) & (alphas != 0)) and 0 < c_bar < math.inf):
        raise ValueError("gains so far from 1 that an alpha or c_bar over- or underflows")
    return SchemeConfig("CsiAligned", p, delta, h, alphas, c_bar)


def check_symbols(cfg: SchemeConfig, *symbols: np.ndarray) -> None:
    """Refuse symbol arrays that are not integers in [-q, q]; an integer
    array passes the first test on its dtype alone."""
    if not all(sym.dtype.kind in "iu" or np.all(np.rint(sym) == sym) for sym in symbols):
        raise ValueError("symbols must be integers")  # NaN too: rint(NaN) != NaN
    if any(sym.size and (sym.min() < -cfg.q or sym.max() > cfg.q) for sym in symbols):
        raise ValueError(f"symbols out of range [-{cfg.q}, {cfg.q}]")


def encode(cfg: SchemeConfig, v, u, rng: np.random.Generator | None = None) -> np.ndarray:
    """Channel inputs x, trailing dimension m+1, for message symbols v
    (..., m) and jamming symbols u (..., m+1); batch-capable.

    Each jamming transmitter j (see ``jam_streams``) sends a u_j / h_j, with
    h the config's legitimate gains, and x_1 adds the messages
    sum_k alpha_k a v_k; u_j of the other transmitters is ignored.
    GaussianJam helpers draw N(0, p) from rng instead. Symbols must be
    integers in [-q, q]; an integer array passes on its dtype alone.

    The eavesdropper gains are not an argument: for the blind kinds the
    output cannot depend on them.
    """
    v = np.asarray(v)
    u = np.asarray(u)
    if v.shape[-1:] != (cfg.m,):
        raise ValueError("v must have trailing dimension m")
    if u.shape[-1:] != (cfg.m + 1,):
        raise ValueError("u must have trailing dimension m+1")
    check_symbols(cfg, v, u)
    batch = np.broadcast_shapes(v.shape[:-1], u.shape[:-1])
    x = np.zeros(batch + (cfg.m + 1,), dtype=float)
    for j in jam_streams(cfg.kind, cfg.m):
        x[..., j] = cfg.a * u[..., j] / cfg.h[j]
    x[..., 0] += cfg.a * (v @ np.asarray(cfg.alphas))
    if cfg.kind == "GaussianJam":
        if rng is None:
            raise ValueError("GaussianJam encoding draws helper noise; pass rng")
        x[..., 1:] = rng.normal(0.0, math.sqrt(cfg.p), size=batch + (cfg.m,))
    return x


def sample_symbols(cfg: SchemeConfig, rng: np.random.Generator, n: int):
    """n blocks of uniform i.i.d. symbols in [-q, q] for all 2m+1 streams,
    drawn from rng in place (callers drive per-block substreams): (v, u) of
    shapes (n, m) and (n, m+1). More than POINT_CAP symbols are refused.
    """
    check_size((n, 2 * cfg.m + 1), POINT_CAP, "symbols")
    v = rng.integers(-cfg.q, cfg.q + 1, size=(n, cfg.m))
    u = rng.integers(-cfg.q, cfg.q + 1, size=(n, cfg.m + 1))
    return v, u


def analytic_power(cfg: SchemeConfig) -> np.ndarray:
    """Exact per-transmitter second moments E[X_j^2] under uniform symbols,
    on the config's legitimate gains.

    Each PAM stream contributes a^2 q(q+1)/3 times its squared coefficient;
    GaussianJam helpers sit exactly at p. Under the gamma rule every entry
    is <= p.
    """
    h = np.asarray(cfg.h)
    s2 = cfg.a ** 2 * cfg.q * (cfg.q + 1) / 3.0
    jam = jam_streams(cfg.kind, cfg.m)
    e = np.full(cfg.m + 1, float(cfg.p))  # GaussianJam helpers
    e[jam] = s2 / h[jam] ** 2
    own = 1.0 / h[0] ** 2 if 0 in jam else 0.0
    e[0] = s2 * (own + float(np.sum(np.asarray(cfg.alphas) ** 2)))
    return e
