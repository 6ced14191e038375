import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindjam.channel import (
    ChannelRealization,
    PowerBudget,
    default_budget,
    eve_output,
    legit_output,
    sample_channel,
)
from blindjam.schemes import encode, make_blind_scheme, sample_symbols
from blindjam.streams import substream


def empirical_power(x) -> np.ndarray:
    """Per-transmitter mean of X^2 over channel inputs x, trailing dimension
    M+1 (one input vector, or a batch of them as rows)."""
    return np.mean(np.atleast_2d(np.asarray(x, dtype=float)) ** 2, axis=0)


def test_realization_validates_shapes():
    with pytest.raises(ValueError):
        ChannelRealization(h=np.array([1.0]), g=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        ChannelRealization(h=np.array([1.0]), g=np.array([1.0]))
    # m = len(h) - 1 is derived: h must be one vector of at least 2 gains, g alike
    assert ChannelRealization(h=np.array([1.0, 1.5, 0.5]), g=np.array([0.7, 2.0, 0.9])).m == 2
    with pytest.raises(ValueError):
        ChannelRealization(h=np.array([[1.0, 1.5]]), g=np.array([[0.7, 2.0]]))
    with pytest.raises(ValueError):
        ChannelRealization(h=1.0, g=1.0)
    with pytest.raises(ValueError):
        ChannelRealization(h=np.array([1.0, 1.5]), g=np.array([0.7, 2.0, 0.9]))


def test_realization_rejects_zero_gains():
    with pytest.raises(ValueError):
        ChannelRealization(h=np.array([1.0, 0.0]), g=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        ChannelRealization(h=np.array([1.0, 1.0]), g=np.array([0.0, 2.0]))


def test_realization_rejects_negative_noise():
    with pytest.raises(ValueError):
        ChannelRealization(h=np.array([1.0, 1.0]), g=np.array([1.0, 2.0]),
                           sigma1=-0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["h", "g", "sigma1", "sigma2"])
def test_realization_rejects_non_finite_values(field, bad):
    kw = dict(h=np.array([1.0, 1.5]), g=np.array([0.7, 2.0]), sigma1=1.0, sigma2=1.0)
    if field in ("h", "g"):
        kw[field] = np.array([bad, 1.0])
    else:
        kw[field] = bad
    with pytest.raises(ValueError):
        ChannelRealization(**kw)


def test_sample_channel_deterministic():
    a = sample_channel(2, 99)
    b = sample_channel(2, 99)
    assert np.array_equal(a.h, b.h) and np.array_equal(a.g, b.g)
    c = sample_channel(2, 100)
    assert not np.array_equal(a.h, c.h)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10**6))
def test_sample_channel_magnitudes_in_range(m, seed):
    ch = sample_channel(m, seed)
    mags = np.concatenate([np.abs(ch.h), np.abs(ch.g)])
    assert np.all(mags >= 0.5) and np.all(mags <= 2.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 1000))
def test_outputs_linear_in_inputs(seed):
    ch = sample_channel(2, 17)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=3)
    y = rng.normal(size=3)
    lhs = legit_output(ch, x + y)
    rhs = legit_output(ch, x) + legit_output(ch, y)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
    assert abs(eve_output(ch, x + y) - eve_output(ch, x) - eve_output(ch, y)) <= 1e-12


def test_output_batching_and_noise(ch1):
    x = np.ones((5, 2))
    y = legit_output(ch1, x) + np.arange(5.0)
    assert y.shape == (5,)
    assert np.allclose(y, ch1.h.sum() + np.arange(5.0))
    with pytest.raises(ValueError):
        legit_output(ch1, np.ones(3))


def test_budget_validation():
    with pytest.raises(ValueError):
        PowerBudget(p=0.0, c_bar=1.0)
    with pytest.raises(ValueError):
        PowerBudget(p=1.0, c_bar=0.0)


def test_default_budget_is_loose_bound(ch1):
    b = default_budget(ch1, 50.0)
    assert b.p == 50.0
    assert b.c_bar == pytest.approx(2.0 * float(np.sum(ch1.g**2)))
    assert b.c_bar > float(np.sum(ch1.g**2))


def test_empirical_power_below_budget_at_scale(ch1):
    # drawn symbols, not the analytic bound: 1e5 blocks with 2% slack
    p = 100.0
    cfg = make_blind_scheme(1, p, 0.1, ch1.h, default_budget(ch1, p).c_bar, 3)
    v, u = sample_symbols(cfg, substream(0, "symbols"), n=100_000)
    assert np.all(empirical_power(encode(cfg, v, u)) <= p * 1.02)


def test_empirical_power_of_stacked_single_inputs(ch1, blind_cfg):
    v, u = sample_symbols(blind_cfg, substream(1, "symbols"), n=4)
    singles = [encode(blind_cfg, v[i], u[i]) for i in range(4)]
    batch = encode(blind_cfg, v, u)
    assert np.allclose(empirical_power(np.stack(singles)), empirical_power(batch))
    assert np.array_equal(empirical_power(singles[0]), singles[0] ** 2)
