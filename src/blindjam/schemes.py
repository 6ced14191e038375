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
``observation`` on which coefficients. The encoder, the decoders, the
information measures, the sweeps and their size checks all derive from these.

The power schedule is shared: q grows like a fractional power of p, the
spacing aims the constellation at the power budget, and gamma is set to the
largest value that keeps every transmitter inside the budget.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelRealization
from .streams import substream

__all__ = [
    "KINDS",
    "SchemeConfig",
    "schedule_q",
    "admissible_gamma",
    "make_blind_scheme",
    "make_csi_scheme",
    "make_gaussian_jam_scheme",
    "jam_streams",
    "stream_counts",
    "observation",
    "encode",
    "sample_symbols",
    "analytic_power",
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
    its helpers' Gaussian power is folded into sigma, exactly.
    """
    if ch.m != cfg.m:
        raise ValueError("channel and scheme disagree on helper count")
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
    if h.shape[0] > 1:
        return float(min(lead, np.min(np.abs(h[1:]))))
    return float(lead)


@dataclass(frozen=True)
class SchemeConfig:
    """Everything a transmitter ensemble needs for one scheme instance.

    ``alphas`` are the m message-stream coefficients. Constructors guarantee
    q = max(1, floor(p^((1-delta)/(2(m+1+delta))))) and a = gamma*sqrt(p)/q;
    the dataclass itself only enforces basic ranges so degenerate configs
    can be built by hand in tests.
    """

    kind: str
    m: int
    p: float
    delta: float
    gamma: float
    q: int
    a: float
    alphas: tuple[float, ...]
    c_bar: float

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.p <= 0:
            raise ValueError("p must be positive")
        if not 0 < self.delta < 0.5:
            raise ValueError("delta must lie in (0, 0.5)")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.q < 0:
            raise ValueError("q must be >= 0")
        if self.a <= 0:
            raise ValueError("a must be positive")
        if len(self.alphas) != self.m:
            raise ValueError("need one alpha per message stream")
        if self.c_bar <= 0:
            raise ValueError("c_bar must be positive")
        object.__setattr__(self, "alphas", tuple(float(x) for x in self.alphas))


def _draw_alphas(m: int, seed: int) -> tuple[float, ...]:
    # generic reals: magnitudes in [0.5, 1.5], random sign; keeps the
    # 1/|h1| + sum|alpha| term bounded so gamma does not collapse
    rng = substream(seed, "alphas", m)
    mags = rng.uniform(0.5, 1.5, size=m)
    signs = rng.integers(0, 2, size=m) * 2 - 1
    return tuple(float(x) for x in mags * signs)


def _config(kind: str, m: int, p: float, delta: float, h, alphas, c_bar: float) -> SchemeConfig:
    # the shared power schedule: largest admissible gamma, q from p, a = gamma sqrt(p) / q
    gamma = admissible_gamma(h, alphas)
    q = schedule_q(p, delta, m)
    return SchemeConfig(kind=kind, m=m, p=p, delta=delta, gamma=gamma, q=q,
                        a=gamma * math.sqrt(p) / q, alphas=alphas, c_bar=c_bar)


def make_blind_scheme(m: int, p: float, delta: float, h, c_bar: float, seed: int) -> SchemeConfig:
    """Jamming scheme built from the legitimate gains alone.

    alphas are drawn uniformly from [0.5, 1.5] with random sign (generic
    reals); gamma is set to its largest admissible value. The eavesdropper
    gains are not an input: only their assumed bound c_bar is carried, and
    only for later analysis, never for construction.
    """
    h = np.asarray(h, dtype=float)
    if h.shape != (m + 1,):
        raise ValueError("h must have length m+1")
    if c_bar <= 0:
        raise ValueError("c_bar must be positive")
    return _config("Blind", m, p, delta, h, _draw_alphas(m, seed), c_bar)


def make_gaussian_jam_scheme(m: int, p: float, delta: float, h, c_bar: float, seed: int) -> SchemeConfig:
    """Unstructured baseline: message streams as in the blind scheme, but
    helpers will emit i.i.d. Gaussian noise at full power when encoding.

    Also blind: never reads the eavesdropper gains.
    """
    return replace(make_blind_scheme(m, p, delta, h, c_bar, seed), kind="GaussianJam")


def make_csi_scheme(m: int, p: float, delta: float, h, g) -> SchemeConfig:
    """Aligned baseline that requires the eavesdropper gains.

    Helper j inverts its own gain, so all jamming shares one dimension at
    the legitimate receiver; the message coefficient of stream j is
    g_j/(g_1 h_j), which puts message stream j and jamming stream j on the
    same coefficient at the eavesdropper. Only the m helpers jam. The
    construction is deterministic, and its gain bound c_bar is 2 sum g^2.
    """
    h = np.asarray(h, dtype=float)
    g = np.asarray(g, dtype=float)
    if h.shape != (m + 1,) or g.shape != (m + 1,):
        raise ValueError("h and g must have length m+1")
    if np.any(g == 0) or np.any(h == 0):
        raise ValueError("all gains must be nonzero")
    alphas = tuple(float(x) for x in g[1:] / (g[0] * h[1:]))
    return _config("CsiAligned", m, p, delta, h, alphas, 2.0 * float(np.sum(g ** 2)))


def encode(cfg: SchemeConfig, h, v, u, rng: np.random.Generator | None = None) -> np.ndarray:
    """Channel inputs x, trailing dimension m+1, for message symbols v
    (..., m) and jamming symbols u (..., m+1); batch-capable.

    Each jamming transmitter j (see ``jam_streams``) sends a u_j / h_j, and
    x_1 adds the messages sum_k alpha_k a v_k; u_j of the other transmitters
    is ignored. GaussianJam helpers draw N(0, p) from rng instead.

    The eavesdropper gains are not an argument: for the blind kinds the
    output cannot depend on them.
    """
    h = np.asarray(h, dtype=float)
    if h.shape != (cfg.m + 1,):
        raise ValueError("h must have length m+1")
    if np.any(h == 0):
        raise ValueError("all legitimate gains must be nonzero")
    v = np.asarray(v)
    u = np.asarray(u)
    if v.shape[-1:] != (cfg.m,):
        raise ValueError("v must have trailing dimension m")
    if u.shape[-1:] != (cfg.m + 1,):
        raise ValueError("u must have trailing dimension m+1")
    if any(sym.size and (sym.min() < -cfg.q or sym.max() > cfg.q) for sym in (v, u)):
        raise ValueError(f"symbols out of range [-{cfg.q}, {cfg.q}]")
    batch = np.broadcast_shapes(v.shape[:-1], u.shape[:-1])
    x = np.zeros(batch + (cfg.m + 1,), dtype=float)
    for j in jam_streams(cfg.kind, cfg.m):
        x[..., j] = cfg.a * u[..., j] / h[j]
    x[..., 0] += cfg.a * (v @ np.asarray(cfg.alphas))
    if cfg.kind == "GaussianJam":
        if rng is None:
            raise ValueError("GaussianJam encoding draws helper noise; pass rng")
        x[..., 1:] = rng.normal(0.0, math.sqrt(cfg.p), size=batch + (cfg.m,))
    return x


def sample_symbols(cfg: SchemeConfig, seed, n: int | None = None):
    """Uniform i.i.d. symbols in [-q, q] for all 2m+1 streams.

    seed may be an integer (a dedicated substream is derived) or an existing
    Generator (consumed in place; lets callers drive per-block substreams).
    Returns (v, u) with shapes (m,), (m+1,) or (n, m), (n, m+1).
    """
    rng = seed if isinstance(seed, np.random.Generator) else substream(seed, "symbols")
    vshape = (cfg.m,) if n is None else (n, cfg.m)
    ushape = (cfg.m + 1,) if n is None else (n, cfg.m + 1)
    v = rng.integers(-cfg.q, cfg.q + 1, size=vshape)
    u = rng.integers(-cfg.q, cfg.q + 1, size=ushape)
    return v, u


def analytic_power(cfg: SchemeConfig, h) -> np.ndarray:
    """Exact per-transmitter second moments E[X_j^2] under uniform symbols.

    Each PAM stream contributes a^2 q(q+1)/3 times its squared coefficient;
    GaussianJam helpers sit exactly at p. Under the gamma rule every entry
    is <= p.
    """
    h = np.asarray(h, dtype=float)
    if h.shape != (cfg.m + 1,):
        raise ValueError("h must have length m+1")
    s2 = cfg.a ** 2 * cfg.q * (cfg.q + 1) / 3.0
    jam = jam_streams(cfg.kind, cfg.m)
    e = np.full(cfg.m + 1, float(cfg.p))  # GaussianJam helpers
    e[jam] = s2 / h[jam] ** 2
    own = 1.0 / h[0] ** 2 if 0 in jam else 0.0
    e[0] = s2 * (own + float(np.sum(np.asarray(cfg.alphas) ** 2)))
    return e
