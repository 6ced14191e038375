"""Deterministic RNG stream splitting for parallel Monte Carlo.

Every random draw in the package flows from one root seed through
counter-based Philox substreams keyed by (label, indices).  Substreams are
independent of scheduling order, so serial and parallel runs of the same
experiment produce identical results.
"""
from __future__ import annotations

import hashlib
import operator
from typing import Any

import numpy as np

__all__ = ["substream", "child_seed"]


def _word(part: Any) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFF
    digest = hashlib.sha256(str(part).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


def key_words(parts: tuple[Any, ...]) -> tuple[int, ...]:
    """Map a mixed key (ints, strings) to a spawn-key tuple of uint32 words."""
    return tuple(_word(p) for p in parts)


def _sequence(root_seed: int, key: tuple[Any, ...]) -> np.random.SeedSequence:
    """The seed sequence of ``key`` under ``root_seed``, an integer >= 0."""
    seed = operator.index(root_seed)
    if seed < 0:
        raise ValueError("seed must be >= 0")
    return np.random.SeedSequence(entropy=seed, spawn_key=key_words(key))


def substream(root_seed: int, *key: Any) -> np.random.Generator:
    """Generator for the substream of ``root_seed`` addressed by ``key``."""
    return np.random.Generator(np.random.Philox(_sequence(root_seed, key)))


def child_seed(root_seed: int, *key: Any) -> int:
    """Derive an integer seed for a child task, stable under scheduling."""
    return int(_sequence(root_seed, key).generate_state(1, np.uint64)[0])
