"""One decoder for both receivers, and its Monte Carlo error rates.

``decode`` labels a batch of observations with their nearest points, through
``constellation.nearest_index``, on the coordinates of ``schemes.observation``
that ``decoded_counts`` names. The legitimate receiver decodes all of them,
the aligned jamming sum included but dropped from the decision. The
eavesdropper subtracts the messages it is given and recovers the jamming
symbols, the step that caps the equivocation loss; it validates that step
numerically, not as a threat-model capability.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelRealization, eve_output, legit_output
from .constellation import (DegenerateLatticeError, ReceiverLattice, enumerate_sum_lattice,
                            nearest_index)
from .schemes import (SchemeConfig, check_symbols, encode, jam_streams, observation,
                      sample_symbols, stream_counts)
from .streams import substream

__all__ = ["ErrorEstimate", "decoded_counts", "estimate_ser", "estimate_eve_u_error"]

CHUNK = 5000  # trials per chunk of an error count, each chunk its own substream


@dataclass(frozen=True)
class ErrorEstimate:
    """Binomial error-rate estimate from a Monte Carlo run's counts; rate and stderr derived."""

    trials: int
    errors: int
    rate: float = field(init=False)
    stderr: float = field(init=False)

    def __post_init__(self):
        if self.trials <= 0:
            raise ValueError("trials must be positive")
        if not 0 <= self.errors <= self.trials:
            raise ValueError("errors must lie in [0, trials]")
        rate = self.errors / self.trials
        object.__setattr__(self, "rate", rate)
        object.__setattr__(self, "stderr", math.sqrt(max(rate * (1.0 - rate), 0.0) / self.trials))


def decoded_counts(kind: str, m: int, receiver: str) -> tuple[int, ...]:
    """``stream_counts`` of the trailing ``observation`` coordinates that
    receiver ``"legit"`` or ``"eve"`` decodes: all of them at the legitimate
    receiver, the jamming ones alone at the eavesdropper, which knows the
    messages on the first m."""
    return stream_counts(kind, m, receiver)[m if receiver == "eve" else 0:]


def receiver_lattice(cfg: SchemeConfig, ch: ChannelRealization, receiver: str) -> ReceiverLattice:
    """Constellation of the coordinates ``receiver`` decodes, coordinate i
    of radius (its stream count) * q. At the legitimate receiver every
    jamming stream lands on one coefficient, their sum one coordinate:
    labels (v_1, ..., v_m, jamming sum). At the eavesdropper jamming stream
    j keeps its own g_j / h_j: labels are the jamming symbols of
    ``jam_streams``, in that order.
    """
    coeffs = observation(cfg, ch, receiver)[0]
    if not jam_streams(cfg.kind, cfg.m):
        raise ValueError(f"{cfg.kind} has no lattice jamming streams")
    counts = decoded_counts(cfg.kind, cfg.m, receiver)
    return enumerate_sum_lattice(coeffs[-len(counts):], [n * cfg.q for n in counts], a=cfg.a)


def decode(cfg: SchemeConfig, ch: ChannelRealization, receiver: str, lat: ReceiverLattice,
           y, v=None) -> np.ndarray:
    """One row of symbol estimates per observation of the 1-D array y, on
    ``lat``, the ``receiver_lattice``: the nearest label's messages at the
    legitimate receiver; its jamming symbols at the eavesdropper, which first
    subtracts a * (message coefficients) . v, v its m messages per
    observation, integers in [-q, q] as ``encode`` takes them. As
    ``nearest_index``, -inf decodes to the first label, +inf and NaN to the
    last.
    """
    if lat.collision:
        raise DegenerateLatticeError("degenerate gains: distinct labels collide")
    y = np.asarray(y, dtype=float)
    if receiver == "eve":
        v = np.asarray(v)
        if v.shape != y.shape + (cfg.m,):
            raise ValueError("v must hold one row of m messages per observation")
        check_symbols(cfg, v)
        y = y - cfg.a * (v @ observation(cfg, ch, "eve")[0][:cfg.m])
    elif receiver != "legit":
        raise ValueError(f"unknown receiver {receiver!r}")
    # nearest_index by this module's name: perfbench wraps it
    labels = np.take(lat.labels, nearest_index(lat, y), axis=0)
    return labels if receiver == "eve" else labels[:, :cfg.m]


def _count_errors(cfg: SchemeConfig, ch: ChannelRealization, receiver: str, n_trials: int,
                  seed: int, min_errors: int | None) -> ErrorEstimate:
    """Error rate of ``decode`` at ``receiver``; a block is wrong when any
    of its decoded symbols is.

    Trials are consumed in chunks of CHUNK with one RNG substream per chunk
    index, which draws the symbols and then the receiver noise. The run
    stops at the first chunk boundary where the cumulative error count
    reaches ``min_errors`` (or after ``n_trials``): a prefix of a fixed
    stream order, however callers schedule the work.
    """
    if operator.index(n_trials) <= 0:
        raise ValueError("n_trials must be positive")
    if min_errors is not None and operator.index(min_errors) < 0:
        raise ValueError("min_errors must be >= 0")
    lat = receiver_lattice(cfg, ch, receiver)
    # outputs by this module's names: perfbench wraps them
    output, sigma, label = ((legit_output, ch.sigma1, "ser") if receiver == "legit"
                            else (eve_output, ch.sigma2, "eveu"))
    jam = jam_streams(cfg.kind, cfg.m)
    trials = errors = 0
    while trials < n_trials:
        n = min(CHUNK, n_trials - trials)
        rng = substream(seed, label, trials // CHUNK)  # the chunk's index
        v, u = sample_symbols(cfg, rng, n=n)
        y = output(ch, encode(cfg, v, u))
        if sigma > 0:
            # rng.normal(0.0, sigma)'s draws, without adding its zero mean
            y = y + sigma * rng.standard_normal(n)
        sent = v if receiver == "legit" else u[:, jam]
        # column by column: reductions across a narrow (n, k) array are slow
        cols = (decode(cfg, ch, receiver, lat, y, v) != sent).T
        errors += int(np.count_nonzero(functools.reduce(operator.or_, cols)))
        trials += n
        if min_errors is not None and errors >= min_errors:
            break
    return ErrorEstimate(trials, errors)


def estimate_ser(cfg: SchemeConfig, ch: ChannelRealization, n_trials: int, seed: int,
                 min_errors: int | None = 100) -> ErrorEstimate:
    """Block symbol-error rate of the legitimate receiver: a block is wrong
    when any message symbol is."""
    return _count_errors(cfg, ch, "legit", n_trials, seed, min_errors)


def estimate_eve_u_error(cfg: SchemeConfig, ch: ChannelRealization, n_trials: int, seed: int,
                         min_errors: int | None = 100) -> ErrorEstimate:
    """Error rate of the conditional jamming decoder at the eavesdropper,
    which knows the messages v."""
    return _count_errors(cfg, ch, "eve", n_trials, seed, min_errors)
