"""Decoders and Monte Carlo error-rate estimation.

Both constellations are the coordinates of ``schemes.observation``. Each
decoder takes a batch of observations and labels each with its nearest
lattice point, through ``constellation.nearest_index``. The legitimate
receiver decodes the messages on all of its coordinates, the aligned jamming
sum included but discarded from the decision. The eavesdropper-side decoder
subtracts the message coordinates and recovers the jamming symbols on the
jamming coordinates alone, the step that caps the equivocation loss; it
validates that step numerically, not as a threat-model capability.
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
from .schemes import SchemeConfig, encode, jam_streams, observation, sample_symbols
from .streams import substream

__all__ = ["ErrorEstimate", "estimate_ser", "estimate_eve_u_error"]

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


def _lattice_model(cfg: SchemeConfig, ch: ChannelRealization, receiver: str):
    """Coefficients and stream counts of ``observation`` for a lattice kind."""
    coeffs, counts, _ = observation(cfg, ch, receiver)
    if len(counts) == cfg.m:
        raise ValueError(f"{cfg.kind} has no lattice jamming streams")
    return coeffs, counts


def legit_lattice(cfg: SchemeConfig, ch: ChannelRealization) -> ReceiverLattice:
    """Effective constellation at the legitimate receiver for this scheme.

    All jamming streams land on one coefficient there: their sum is one
    coordinate, of radius (number of jamming streams) * q. Labels are
    (v_1, ..., v_m, jamming sum).
    """
    coeffs, counts = _lattice_model(cfg, ch, "legit")
    return enumerate_sum_lattice(coeffs, [n * cfg.q for n in counts], a=cfg.a)


def _nearest_labels(lat: ReceiverLattice, y) -> np.ndarray:
    """Labels of the lattice points closest to the queries ``y``."""
    if lat.collision:
        raise DegenerateLatticeError("degenerate gains: distinct labels collide")
    # nearest_index by this module's name: perfbench wraps it
    return np.take(lat.labels, nearest_index(lat, np.asarray(y, dtype=float)), axis=0)


def decode_legit_batch(y1, lat: ReceiverLattice) -> np.ndarray:
    """Message estimates: the v-part of each nearest lattice label (the jamming
    coordinate dropped), an (n, m) integer array for the 1-D array of n
    observations. As ``nearest_index``, -inf decodes to the first label,
    +inf and NaN to the last."""
    return _nearest_labels(lat, y1)[..., :-1]


def _count_errors(cfg: SchemeConfig, ch: ChannelRealization, n_trials: int, seed: int,
                  label: str, min_errors: int | None, mismatch):
    """(trials, block errors) of a chunked run; a block is wrong when any of
    its symbols is.

    Trials are consumed in chunks of CHUNK with one RNG substream per chunk
    index. ``mismatch(rng, v, u, x)`` flags the wrongly decoded symbols of a
    chunk, drawing its receiver noise from rng after the symbols. The run
    stops at the first chunk boundary where the cumulative error count
    reaches ``min_errors`` (or after ``n_trials``). Because the stop rule
    looks only at a prefix of a fixed stream order, results are reproducible
    no matter how callers schedule the work.
    """
    if n_trials <= 0:
        raise ValueError("n_trials must be positive")
    trials = 0
    errors = 0
    block_idx = 0
    while trials < n_trials:
        n = min(CHUNK, n_trials - trials)
        rng = substream(seed, label, block_idx)
        v, u = sample_symbols(cfg, rng, n=n)
        # column by column: reductions across a narrow (n, k) array are slow
        cols = mismatch(rng, v, u, encode(cfg, v, u)).T
        errors += int(np.count_nonzero(functools.reduce(operator.or_, cols)))
        trials += n
        block_idx += 1
        if min_errors is not None and errors >= min_errors:
            break
    return trials, errors


def _noisy(y: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    # rng.normal(0.0, sigma)'s draws, without adding its zero mean
    return y + sigma * rng.standard_normal(y.shape[0]) if sigma > 0 else y


def estimate_ser(cfg: SchemeConfig, ch: ChannelRealization, n_trials: int, seed: int,
                 min_errors: int | None = 100) -> ErrorEstimate:
    """Block symbol-error rate of the legitimate receiver, counted by
    ``_count_errors``: a block is wrong when any message symbol is."""
    lat = legit_lattice(cfg, ch)

    def mismatch(rng, v, u, x):
        return decode_legit_batch(_noisy(legit_output(ch, x), ch.sigma1, rng), lat) != v

    return ErrorEstimate(*_count_errors(cfg, ch, n_trials, seed, "ser", min_errors, mismatch))


def eve_u_lattice(cfg: SchemeConfig, ch: ChannelRealization) -> ReceiverLattice:
    """Constellation of the jamming sum alone as seen by the eavesdropper.

    The jamming coordinates of ``observation``: stream j enters with
    coefficient g_j / h_j. Labels are the jamming symbols of ``jam_streams``,
    in that order.
    """
    coeffs, counts = _lattice_model(cfg, ch, "eve")
    return enumerate_sum_lattice(coeffs[cfg.m:], [n * cfg.q for n in counts[cfg.m:]], a=cfg.a)


def eve_decode_u_given_v(y2, v, cfg: SchemeConfig, ch: ChannelRealization,
                         lat: ReceiverLattice) -> np.ndarray:
    """Jamming-symbol estimates at the eavesdropper, conditioned on the messages.

    Subtracts the known message contribution a * (message coefficients) . v
    from each observation in y2 and nearest-point decodes the residual on
    ``lat``, the ``eve_u_lattice``. Returns one row of jamming symbols per
    observation of the 1-D array y2, in ``jam_streams`` order. As
    ``nearest_index``, a residual of -inf decodes to the first label, +inf
    and NaN to the last.
    """
    messages = observation(cfg, ch, "eve")[0][:cfg.m]
    offset = cfg.a * (np.asarray(v) @ messages)
    return _nearest_labels(lat, np.asarray(y2, dtype=float) - offset)


def estimate_eve_u_error(cfg: SchemeConfig, ch: ChannelRealization, n_trials: int, seed: int,
                         min_errors: int | None = 100) -> ErrorEstimate:
    """Error rate of the conditional jamming decoder at the eavesdropper,
    which knows the messages v, counted by ``_count_errors``."""
    lat = eve_u_lattice(cfg, ch)
    jam = jam_streams(cfg.kind, cfg.m)

    def mismatch(rng, v, u, x):
        y = _noisy(eve_output(ch, x), ch.sigma2, rng)
        return eve_decode_u_given_v(y, v, cfg, ch, lat) != u[:, jam]

    return ErrorEstimate(*_count_errors(cfg, ch, n_trials, seed, "eveu", min_errors, mismatch))
