import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindjam.channel import (
    ChannelRealization,
    eve_output,
    legit_output,
    sample_channel,
)
from blindjam.constellation import LatticeSizeError
from blindjam.experiments import SweepRow, _make_config
from blindjam.schemes import (
    KINDS,
    SchemeConfig,
    admissible_gamma,
    analytic_power,
    encode,
    jam_streams,
    make_blind_scheme,
    make_csi_scheme,
    observation,
    sample_symbols,
    schedule_q,
)
from blindjam.streams import substream


def test_schedule_q_frozen_values():
    # floor(p^((1-delta)/(2(m+1+delta)))), m=1
    assert schedule_q(1e2, 0.1, 1) == 2
    assert schedule_q(1e3, 0.1, 1) == 4
    assert schedule_q(1e4, 0.1, 1) == 7
    assert schedule_q(1e2, 0.05, 1) == 2
    assert schedule_q(1e3, 0.05, 1) == 4
    assert schedule_q(1e4, 0.05, 1) == 8
    assert schedule_q(1e5, 0.05, 1) == 14


def test_schedule_q_clamps_at_one():
    assert schedule_q(0.5, 0.1, 1) == 1
    assert schedule_q(1.5, 0.1, 1) == 1


def test_schedule_q_validation():
    with pytest.raises(ValueError):
        schedule_q(0.0, 0.1, 1)
    with pytest.raises(ValueError):
        schedule_q(10.0, 0.6, 1)
    with pytest.raises(ValueError):
        schedule_q(10.0, 0.1, 0)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.01, 0.49), st.integers(1, 4),
       st.floats(1.0, 1e6), st.floats(1.0, 1e6))
def test_schedule_monotone_in_power(delta, m, p1, p2):
    lo, hi = sorted((p1, p2))
    assert schedule_q(lo, delta, m) <= schedule_q(hi, delta, m)


def test_admissible_gamma_hand_values():
    # lead term [1/|h1| + sum|alpha|]^-1, then min with helper magnitudes
    assert admissible_gamma([2.0, 1.0], [0.5]) == pytest.approx(1.0)
    assert admissible_gamma([0.5, 3.0], [1.5]) == pytest.approx(1.0 / 3.5)
    assert admissible_gamma([2.0, 0.2], [0.5]) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        admissible_gamma([0.0, 1.0], [0.5])


def test_blind_constructor_schedule_consistency(ch1):
    p = 1e3
    cfg = make_blind_scheme(1, p, 0.1, ch1.h, 10.0, 3)
    assert cfg.q == schedule_q(p, 0.1, 1)
    assert cfg.a == pytest.approx(cfg.gamma * np.sqrt(p) / cfg.q)
    assert cfg.gamma == pytest.approx(admissible_gamma(ch1.h, cfg.alphas))
    assert len(cfg.alphas) == 1
    assert 0.5 <= abs(cfg.alphas[0]) <= 1.5


def test_blind_constructor_deterministic(ch1):
    a = make_blind_scheme(1, 1e3, 0.1, ch1.h, 10.0, 3)
    b = make_blind_scheme(1, 1e3, 0.1, ch1.h, 10.0, 3)
    assert a == b
    c = make_blind_scheme(1, 1e3, 0.1, ch1.h, 10.0, 4)
    assert a.alphas != c.alphas


def test_csi_alignment_property():
    # defining property: message stream j and jamming stream j share the
    # eavesdropper coefficient g_j/h_j (after the common g_1 factor)
    ch = sample_channel(3, 21)
    cfg = make_csi_scheme(1e3, 0.1, ch.h, ch.g)
    assert np.allclose(ch.g[0] * np.asarray(cfg.alphas), ch.g[1:] / ch.h[1:])
    assert cfg.kind == "CsiAligned"


def test_csi_validation():
    with pytest.raises(ValueError):
        make_csi_scheme(1e3, 0.1, [1.0, 2.0], [1.0])


def test_gaussian_jam_shares_blind_schedule(ch1):
    b = make_blind_scheme(1, 1e3, 0.1, ch1.h, 10.0, 3)
    gj = _make_config("GaussianJam", 1e3, 0.1, ch1, 3)
    assert gj.kind == "GaussianJam"
    assert (gj.q, gj.a, gj.gamma, gj.alphas) == (b.q, b.a, b.gamma, b.alphas)


@settings(max_examples=40, deadline=None)
@given(st.floats(10.0, 1e6), st.floats(0.02, 0.45), st.integers(1, 3),
       st.integers(0, 10**6))
def test_analytic_power_within_budget(p, delta, m, seed):
    # the gamma rule keeps every transmitter inside the budget, analytically
    ch = sample_channel(m, seed)
    for kind in KINDS:
        cfg = _make_config(kind, p, delta, ch, seed)
        assert np.all(analytic_power(cfg) <= p * (1 + 1e-12))


@settings(max_examples=60, deadline=None)
@given(st.floats(1.0, 1e8), st.floats(0.001, 0.499), st.integers(1, 3),
       st.integers(0, 10**6))
def test_analytic_power_within_budget_for_any_gains(p, delta, m, seed):
    # signed gains of magnitude 0.05 to 20, far outside sample_channel's range
    rng = np.random.default_rng(seed)
    h, g = rng.choice([-1.0, 1.0], size=(2, m + 1)) * np.exp(
        rng.uniform(math.log(0.05), math.log(20.0), size=(2, m + 1)))
    ch = ChannelRealization(h=h, g=g)
    for cfg in (_make_config(kind, p, delta, ch, seed) for kind in KINDS):
        power = analytic_power(cfg)
        assert np.all(power <= p * (1 + 1e-12))
        if cfg.kind == "GaussianJam":
            assert np.all(power[1:] == p)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(KINDS), m=st.integers(1, 3), log_p=st.floats(-2.0, 10.0),
       log_p2=st.floats(-2.0, 10.0), delta=st.floats(0.001, 0.499), seed=st.integers(0, 10**6))
def test_config_derives_its_schedule_from_its_gains(kind, m, log_p, log_p2, delta, seed):
    # gamma, q and a follow from (p, delta, m, h, alphas) alone: exactly the
    # values a sweep row is checked against, a power inside the budget, and
    # re-derived, never carried over, when a field changes
    rng = np.random.default_rng(seed)
    h, g = rng.choice([-1.0, 1.0], size=(2, m + 1)) * np.exp(
        rng.uniform(math.log(0.05), math.log(20.0), size=(2, m + 1)))

    def build(p):
        return _make_config(kind, p, delta, ChannelRealization(h=h, g=g), seed)

    p, p2 = 10.0 ** log_p, 10.0 ** log_p2
    cfg = build(p)
    assert cfg.h == tuple(h) and cfg.gamma == admissible_gamma(h, cfg.alphas)
    assert cfg.q == schedule_q(p, delta, m) and cfg.a == cfg.gamma * math.sqrt(p) / cfg.q
    row = SweepRow(kind=kind, m=m, delta=delta, draw_id=0, p=p, gamma=cfg.gamma,
                   i_vy1=0.0, i_vy1_se=0.0, i_vy2=0.0, i_vy2_se=0.0)
    assert (row.q, row.a) == (cfg.q, cfg.a)
    assert np.all(analytic_power(cfg) <= p * (1 + 1e-12))
    moved = replace(cfg, p=p2)
    assert moved == build(p2) and moved.gamma == cfg.gamma
    assert moved.q == schedule_q(p2, delta, m) and moved.a == cfg.gamma * math.sqrt(p2) / moved.q
    with pytest.raises(ValueError, match="init=False"):
        replace(cfg, q=cfg.q + 1)


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["Blind", "CsiAligned", "GaussianJam"]), m=st.integers(1, 3),
       receiver=st.sampled_from(["legit", "eve"]), p=st.floats(10.0, 1e6),
       seed=st.integers(0, 10**6))
def test_observation_is_what_the_receiver_sums(kind, m, receiver, p, seed):
    # a * sum_i coeffs_i t_i reproduces the channel output for random gains,
    # with t the messages, then the jamming sum (legit) or each jamming symbol
    # (eve); GaussianJam's helper noise is the rest, folded into sigma
    rng = np.random.default_rng(seed)
    h, g = rng.choice([-1.0, 1.0], size=(2, m + 1)) * np.exp(
        rng.uniform(math.log(0.05), math.log(20.0), size=(2, m + 1)))
    ch = ChannelRealization(h=h, g=g, sigma1=float(rng.uniform(0.0, 2.0)),
                            sigma2=float(rng.uniform(0.0, 2.0)))
    cfg = _make_config(kind, p, 0.1, ch, seed)
    coeffs, counts, sigma = observation(cfg, ch, receiver)
    v, u = sample_symbols(cfg, substream(seed, "symbols"), n=50)
    x = encode(cfg, v, u, rng=substream(seed, "helpers"))
    jam = u[:, jam_streams(kind, m)]
    gains, noise = (h, ch.sigma1) if receiver == "legit" else (g, ch.sigma2)
    y = legit_output(ch, x) if receiver == "legit" else eve_output(ch, x)
    if receiver == "legit" and jam.shape[1]:
        jam = jam.sum(axis=1, keepdims=True)
    t = np.concatenate([v, jam], axis=1)
    if kind == "GaussianJam":
        y = y - x[:, 1:] @ gains[1:]
        assert sigma == math.sqrt(noise ** 2 + p * float(np.sum(gains[1:] ** 2)))
    else:
        assert sigma == noise
    assert counts[:m] == (1,) * m and len(counts) == t.shape[1]
    assert np.all(np.abs(t) <= np.array(counts) * cfg.q)
    scale = cfg.a * cfg.q * float(np.sum(np.abs(coeffs) * np.array(counts)))
    np.testing.assert_allclose(cfg.a * (t @ coeffs), y, rtol=1e-9, atol=1e-9 * scale)


def test_observation_rejects_mismatched_channel_and_receiver(ch1):
    cfg = make_blind_scheme(2, 1e3, 0.1, sample_channel(2, 11).h, 4.0, 3)
    for receiver in ("legit", "eve"):
        with pytest.raises(ValueError, match="gains h differ"):
            observation(cfg, ch1, receiver)
    cfg1 = make_blind_scheme(1, 1e3, 0.1, ch1.h, 4.0, 3)
    with pytest.raises(ValueError, match="receiver"):
        observation(cfg1, ch1, "helper")


def test_analytic_power_structure(ch1):
    cfg = make_blind_scheme(1, 400.0, 0.1, ch1.h, 10.0, 3)
    s2 = cfg.a**2 * cfg.q * (cfg.q + 1) / 3.0
    e = analytic_power(cfg)
    assert e[0] == pytest.approx(s2 * (1 / ch1.h[0] ** 2 + cfg.alphas[0] ** 2))
    assert e[1] == pytest.approx(s2 / ch1.h[1] ** 2)
    gj = _make_config("GaussianJam", 400.0, 0.1, ch1, 3)
    assert analytic_power(gj)[1] == pytest.approx(400.0)


def test_empirical_power_matches_analytic(ch1, blind_cfg):
    v, u = sample_symbols(blind_cfg, substream(0, "symbols"), n=200_000)
    x = encode(blind_cfg, v, u)
    assert np.allclose(np.mean(x**2, axis=0), analytic_power(blind_cfg),
                       rtol=0.03)


def test_encode_hand_values():
    cfg = SchemeConfig(kind="Blind", p=100.0, delta=0.1, h=(2.0, -0.5),
                       alphas=(1.25,), c_bar=5.0)
    assert cfg.q == 2
    x = encode(cfg, v=np.array([1]), u=np.array([2, -1]))
    # x1 = a*u1/h1 + a*alpha*v = a*2/2 + a*1.25*1 = 2.25a; x2 = a*u2/h2 = a*-1/-0.5
    assert x == pytest.approx([2.25 * cfg.a, 2.0 * cfg.a])
    cfg_csi = SchemeConfig(kind="CsiAligned", p=100.0, delta=0.1, h=(2.0, -0.5),
                           alphas=(1.25,), c_bar=5.0)
    x = encode(cfg_csi, v=np.array([1]), u=np.array([2, -1]))
    assert x == pytest.approx([1.25 * cfg_csi.a, 2.0 * cfg_csi.a])  # u1 ignored


def test_encode_batch_shapes(ch2):
    cfg = make_blind_scheme(2, 1e3, 0.1, ch2.h, 10.0, 5)
    v, u = sample_symbols(cfg, substream(1, "symbols"), n=17)
    assert encode(cfg, v, u).shape == (17, 3)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("kind", ["Blind", "CsiAligned"])
def test_encode_matches_the_broadcast_form(kind, m):
    # one column per jamming stream: the same bits as the divide over all
    # jamming columns at once
    ch = sample_channel(m, 5)
    cfg = _make_config(kind, 1e4, 0.1, ch, 3)
    v, u = sample_symbols(cfg, substream(2, "symbols"), n=500)
    jam = jam_streams(kind, m)
    want = np.zeros((500, m + 1))
    want[:, jam] = cfg.a * u[:, jam] / ch.h[jam]
    want[:, 0] += cfg.a * (v @ np.asarray(cfg.alphas))
    np.testing.assert_array_equal(encode(cfg, v, u), want)


def test_encode_validates_symbol_range(ch1, blind_cfg):
    v = np.array([blind_cfg.q + 1])
    u = np.zeros(2, dtype=int)
    with pytest.raises(ValueError):
        encode(blind_cfg, v, u)
    with pytest.raises(ValueError):
        encode(blind_cfg, np.zeros(1, dtype=int), np.array([0, -blind_cfg.q - 1]))
    # the range's ends are symbols, and an empty batch encodes to no rows
    q = blind_cfg.q
    assert encode(blind_cfg, np.array([-q]), np.array([q, -q])).shape == (2,)
    empty = encode(blind_cfg, np.zeros((0, 1), dtype=int), np.zeros((0, 2), dtype=int))
    assert empty.shape == (0, 2)
    # NaN slipped past the range check and a fraction past every check; an
    # integral float encodes as its integer does
    for v, u in (([math.nan], [0, 0]), ([0.5], [0.5, 0.5]), ([0.0], [0.0, math.inf])):
        with pytest.raises(ValueError, match="integers|out of range"):
            encode(blind_cfg, np.array(v), np.array(u))
    assert np.array_equal(encode(blind_cfg, [1.0], [0.0, -1.0]), encode(blind_cfg, [1], [0, -1]))


def test_gaussian_jam_encode_needs_rng(ch1):
    cfg = _make_config("GaussianJam", 1e3, 0.1, ch1, 3)
    [v], [u] = sample_symbols(cfg, substream(1, "symbols"), n=1)
    with pytest.raises(ValueError):
        encode(cfg, v, u)
    assert encode(cfg, v, u, rng=substream(0, "jam")).shape == (2,)


def test_blindness_byte_identity():
    # complete transmit pipeline unchanged under any change of the
    # eavesdropper gains: constructors and encode never read them
    h = np.array([1.1, -0.7])
    cfg = make_blind_scheme(1, 1e3, 0.1, h, 4.0, 9)
    v, u = sample_symbols(cfg, substream(2, "symbols"), n=64)
    x_bytes = encode(cfg, v, u).tobytes()
    # "different g" is a no-op by construction; re-run the whole pipeline
    cfg2 = make_blind_scheme(1, 1e3, 0.1, h, 4.0, 9)
    assert cfg2 == cfg
    assert encode(cfg2, v, u).tobytes() == x_bytes
    gj = _make_config("GaussianJam", 1e3, 0.1, ChannelRealization(h=h, g=h), 9)
    a = encode(gj, v, u, rng=substream(5, "helpers")).tobytes()
    b = encode(gj, v, u, rng=substream(5, "helpers")).tobytes()
    assert a == b


def test_sample_symbols_ranges(blind_cfg):
    v, u = sample_symbols(blind_cfg, substream(0, "symbols"), n=1000)
    assert v.shape == (1000, 1) and u.shape == (1000, 2)
    assert np.all(np.abs(v) <= blind_cfg.q) and np.all(np.abs(u) <= blind_cfg.q)
    # all symbols hit at this sample size
    assert set(np.unique(v)) == set(range(-blind_cfg.q, blind_cfg.q + 1))
    v0, u0 = sample_symbols(blind_cfg, substream(0, "symbols"), n=0)
    assert v0.shape == (0, 1) and u0.shape == (0, 2)
    # refused before it is drawn: 3 * 10^12 symbols would take 24 TB
    with pytest.raises(LatticeSizeError, match="more than 10000000 symbols"):
        sample_symbols(blind_cfg, substream(0, "symbols"), n=10**12)


def test_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig(kind="Nope", p=10.0, delta=0.1, h=(1.0, 1.0),
                     alphas=(0.9,), c_bar=1.0)
    with pytest.raises(ValueError, match="h must have length m\\+1"):
        SchemeConfig(kind="Blind", p=10.0, delta=0.1, h=(1.0, 1.0, 1.0),
                     alphas=(0.9,), c_bar=1.0)
    # 10^9 alphas would take 8 GB: the blind constructors check len(h) first
    with pytest.raises(ValueError, match="h must have length m\\+1"):
        make_blind_scheme(10**9, 1e2, 0.1, [1.0, 1.0], 4.0, 0)
    for c_bar in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="c_bar must be positive and finite"):
            SchemeConfig(kind="Blind", p=10.0, delta=0.1, h=(1.0, 1.0), alphas=(0.9,),
                         c_bar=c_bar)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field, index", [("h", 0), ("h", 1), ("h", 2), ("alphas", 0),
                                          ("alphas", 1)])
def test_config_refuses_non_finite_gains(field, index, value):
    # a NaN gain made gamma and a NaN, an infinite h_1 the transmitter's own
    # jamming stream vanish: every kind refuses either at construction
    gains = {"h": [1.3, -0.8, 0.6], "alphas": [0.9, -1.1]}
    gains[field][index] = value
    for kind in KINDS:
        with pytest.raises(ValueError, match="gains h and alphas must be finite"):
            SchemeConfig(kind=kind, p=100.0, delta=0.1, h=tuple(gains["h"]),
                         alphas=tuple(gains["alphas"]), c_bar=4.0)
    if field == "h":
        h = [1.0, 1.0, 1.0]
        h[index] = value
        with pytest.raises(ValueError, match="must be finite"):
            make_blind_scheme(2, 100.0, 0.1, h, 4.0, 3)
