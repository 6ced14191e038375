import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from blindjam import receiver
from blindjam.channel import ChannelRealization, default_budget, sample_channel
from blindjam.constellation import DegenerateLatticeError, enumerate_sum_lattice, nearest_index
from blindjam.receiver import (
    ErrorEstimate,
    decode_legit_batch,
    estimate_eve_u_error,
    estimate_ser,
    eve_decode_u_given_v,
    eve_u_lattice,
    legit_lattice,
)
from blindjam.schemes import (
    encode,
    jam_streams,
    make_blind_scheme,
    make_csi_scheme,
    make_gaussian_jam_scheme,
    observation,
    sample_symbols,
    stream_counts,
)
from blindjam.channel import eve_output, legit_output


def _exhaustive_decode(y, lat):
    idx = int(np.argmin(np.abs(lat.points - y)))
    return tuple(int(t) for t in lat.labels[idx][:-1])


def test_error_estimate_invariants():
    est = ErrorEstimate.from_counts(10, 100)
    assert est.rate == 0.1
    assert est.stderr == pytest.approx(np.sqrt(0.1 * 0.9 / 100))
    with pytest.raises(ValueError):
        ErrorEstimate(trials=10, errors=11, rate=1.1, stderr=0.0)
    with pytest.raises(ValueError):
        ErrorEstimate(trials=10, errors=2, rate=0.5, stderr=0.0)


def test_legit_lattice_sizes(ch1):
    budget = default_budget(ch1, 100.0)
    blind = make_blind_scheme(1, 100.0, 0.1, ch1.h, budget.c_bar, 3)
    csi = make_csi_scheme(1, 100.0, 0.1, ch1.h, ch1.g)
    q = blind.q
    # blind jams from all m+1 transmitters, the aligned baseline from m
    assert len(legit_lattice(blind, ch1)) == (2 * q + 1) * (2 * 2 * q + 1)
    assert len(legit_lattice(csi, ch1)) == (2 * q + 1) * (2 * q + 1)
    gj = make_gaussian_jam_scheme(1, 100.0, 0.1, ch1.h, budget.c_bar, 3)
    with pytest.raises(ValueError):
        legit_lattice(gj, ch1)
    # a hand-built q = 0 is a valid config, but no constellation to decode on
    with pytest.raises(ValueError, match="q must be >= 1"):
        legit_lattice(dataclasses.replace(blind, q=0), ch1)


@pytest.mark.parametrize("p", [1e2, 1e4])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("kind", ["Blind", "CsiAligned"])
def test_stream_counts_give_each_lattice_size_exactly(kind, m, p):
    # the sizes a sweep checks before it draws, from (kind, m) and q alone:
    # prod (2 n q + 1) over the receiver's stream counts n, the eavesdropper's
    # jamming coordinates alone for its decoder
    ch = sample_channel(m, 5)
    cfg = (make_csi_scheme(m, p, 0.1, ch.h, ch.g) if kind == "CsiAligned"
           else make_blind_scheme(m, p, 0.1, ch.h, 4.0, 3))
    legit, eve = stream_counts(kind, m, "legit"), stream_counts(kind, m, "eve")
    assert (legit, eve) == (observation(cfg, ch, "legit")[1], observation(cfg, ch, "eve")[1])
    assert math.prod(2 * n * cfg.q + 1 for n in legit) == len(legit_lattice(cfg, ch))
    assert math.prod(2 * n * cfg.q + 1 for n in eve[m:]) == len(eve_u_lattice(cfg, ch))


def test_decode_matches_exhaustive_search():
    # oracle equivalence on every lattice small enough to brute-force
    rng = np.random.default_rng(7)
    checked = 0
    for seed in range(10):
        ch = sample_channel(1, seed)
        cfg = make_blind_scheme(1, 100.0, 0.1, ch.h, 4.0, seed)
        lat = legit_lattice(cfg, ch)
        if len(lat) > 500 or lat.collision:
            continue
        span = lat.points[-1] - lat.points[0]
        ys = rng.uniform(lat.points[0] - 0.1 * span, lat.points[-1] + 0.1 * span,
                         size=1000)
        batch = decode_legit_batch(ys, lat)
        for i, y in enumerate(ys):
            assert tuple(batch[i]) == _exhaustive_decode(y, lat)
        checked += 1
    assert checked >= 5


def test_noiseless_decode_is_exact(noiseless_ch):
    ch = noiseless_ch
    cfg = make_blind_scheme(1, 100.0, 0.1, ch.h, 4.0, 2)
    est = estimate_ser(cfg, ch, 2000, seed=0, min_errors=None)
    assert est.errors == 0 and est.rate == 0.0
    assert est.trials == 2000


def test_estimate_ser_deterministic(ch1):
    cfg = make_blind_scheme(1, 100.0, 0.1, ch1.h, 4.0, 3)
    a = estimate_ser(cfg, ch1, 20_000, seed=5)
    b = estimate_ser(cfg, ch1, 20_000, seed=5)
    assert (a.trials, a.errors, a.rate) == (b.trials, b.errors, b.rate)
    c = estimate_ser(cfg, ch1, 20_000, seed=6)
    assert (a.trials, a.errors) != (c.trials, c.errors)


def test_estimate_ser_early_stop(ch1):
    # at this power the error rate is high; the run must stop at the first
    # chunk boundary where 100 errors have accumulated
    cfg = make_blind_scheme(1, 100.0, 0.1, ch1.h, 4.0, 3)
    est = estimate_ser(cfg, ch1, 10**6, seed=5, min_errors=100)
    assert est.errors >= 100
    assert est.trials < 10**6
    full = estimate_ser(cfg, ch1, 20_000, seed=5, min_errors=None)
    assert full.trials == 20_000


def test_estimate_ser_stop_is_prefix_of_full_run(ch1):
    # early stop must truncate the same trial stream, not reshuffle it
    cfg = make_blind_scheme(1, 100.0, 0.1, ch1.h, 4.0, 3)
    stopped = estimate_ser(cfg, ch1, 10**6, seed=5, min_errors=100)
    rerun = estimate_ser(cfg, ch1, stopped.trials, seed=5, min_errors=None)
    assert (rerun.trials, rerun.errors) == (stopped.trials, stopped.errors)


def test_estimate_ser_rejects_gaussian_jam(ch1):
    cfg = make_gaussian_jam_scheme(1, 100.0, 0.1, ch1.h, 4.0, 3)
    with pytest.raises(ValueError):
        estimate_ser(cfg, ch1, 1000, seed=0)


def test_eve_lattice_and_conditional_decode(noiseless_ch):
    ch = noiseless_ch
    cfg = make_blind_scheme(1, 100.0, 0.1, ch.h, 4.0, 2)
    lat = eve_u_lattice(cfg, ch)
    assert len(lat) == (2 * cfg.q + 1) ** 2
    v, u = sample_symbols(cfg, 3, n=50)
    y2 = eve_output(ch, encode(cfg, ch.h, v, u))
    assert np.array_equal(eve_decode_u_given_v(y2, v, cfg, ch, lat), u)
    # one observation decodes to one row of jamming symbols
    assert np.array_equal(eve_decode_u_given_v(y2[7], v[7], cfg, ch, lat), u[7])


def test_eve_error_zero_without_noise(noiseless_ch):
    cfg = make_blind_scheme(1, 100.0, 0.1, noiseless_ch.h, 4.0, 2)
    est = estimate_eve_u_error(cfg, noiseless_ch, 2000, seed=0, min_errors=None)
    assert est.rate == 0.0


def test_eve_decoder_uses_the_conditioning(noiseless_ch):
    # deliberately wrong conditioning must break the noiseless decoder
    cfg = make_blind_scheme(1, 100.0, 0.1, noiseless_ch.h, 4.0, 2)
    lat = eve_u_lattice(cfg, noiseless_ch)
    v, u = sample_symbols(cfg, 0, n=2000)
    y2 = eve_output(noiseless_ch, encode(cfg, noiseless_ch.h, v, u))
    u = u[:, jam_streams(cfg.kind, cfg.m)]
    assert np.array_equal(eve_decode_u_given_v(y2, v, cfg, noiseless_ch, lat), u)
    wrong = eve_decode_u_given_v(y2, np.clip(v + 1, -cfg.q, cfg.q), cfg, noiseless_ch, lat)
    assert np.mean(np.any(wrong != u, axis=1)) > 0.1


def test_eve_error_csi_kind(ch1):
    cfg = make_csi_scheme(1, 100.0, 0.1, ch1.h, ch1.g)
    est = estimate_eve_u_error(cfg, ch1, 5000, seed=0)
    assert 0.0 <= est.rate <= 1.0


def test_legit_output_chain_consistency(ch1):
    # encode -> channel -> decode on one block without noise recovers v
    cfg = make_blind_scheme(1, 100.0, 0.1, ch1.h, 4.0, 3)
    lat = legit_lattice(cfg, ch1)
    v, u = sample_symbols(cfg, 4)
    y1 = legit_output(ch1, encode(cfg, ch1.h, v, u))
    assert np.array_equal(decode_legit_batch(y1, lat), v)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["Blind", "CsiAligned"]), m=st.integers(1, 2),
       q=st.integers(1, 3), seed=st.integers(0, 2**31 - 1))
def test_noiseless_decoders_invert_encode(kind, m, q, seed):
    drawn = sample_channel(m, seed)
    ch = ChannelRealization(m=m, h=drawn.h, g=drawn.g, sigma1=0.0, sigma2=0.0)
    if kind == "Blind":
        cfg = make_blind_scheme(m, 100.0, 0.1, ch.h, 4.0, seed)
    else:
        cfg = make_csi_scheme(m, 100.0, 0.1, ch.h, ch.g)
    cfg = dataclasses.replace(cfg, q=q)
    lat, eve_lat = legit_lattice(cfg, ch), eve_u_lattice(cfg, ch)
    assume(not lat.collision and not eve_lat.collision)
    v, u = sample_symbols(cfg, seed, n=40)
    x = encode(cfg, ch.h, v, u)
    assert np.array_equal(decode_legit_batch(legit_output(ch, x), lat), v)
    decoded = eve_decode_u_given_v(eve_output(ch, x), v, cfg, ch, eve_lat)
    assert np.array_equal(decoded, u[:, jam_streams(kind, m)])


def test_decoders_refuse_colliding_lattice(blind_cfg, ch1):
    # (1, 0) and (0, 1) land on the same point: no label can be decoded
    lat = enumerate_sum_lattice([1.0, 1.0], [1, 1])
    with pytest.raises(DegenerateLatticeError):
        decode_legit_batch(np.array([0.1]), lat)
    with pytest.raises(DegenerateLatticeError):
        eve_decode_u_given_v(np.array([0.1]), np.zeros((1, 1)), blind_cfg, ch1, lat)


@pytest.mark.parametrize("estimate", [estimate_ser, estimate_eve_u_error])
def test_decoders_query_receiver_nearest_index(estimate, blind_cfg, ch1, monkeypatch):
    # the benchmark counts nearest-point queries by wrapping receiver.nearest_index
    queries = []

    def counting(points, y):
        queries.append(np.size(y))
        return nearest_index(points, y)

    monkeypatch.setattr(receiver, "nearest_index", counting)
    est = estimate(blind_cfg, ch1, 12_000, seed=3, min_errors=None)
    assert sum(queries) == est.trials == 12_000
    assert max(queries) <= receiver.CHUNK  # one batch query per chunk of trials


# counts of the chunked Monte Carlo loop, pinned so that a faster search or
# error count cannot change a single decision: (m, p, kind) ->
# (SER errors, eavesdropper jamming errors)
GOLDEN_COUNTS = {
    (1, 1e2, "Blind"): (8489, 7305),
    (1, 1e2, "CsiAligned"): (7012, 361),
    (2, 1e4, "Blind"): (7513, 3572),
    (2, 1e4, "CsiAligned"): (6855, 517),
}


@pytest.mark.parametrize("m, p, kind", list(GOLDEN_COUNTS))
def test_error_counts_match_golden(m, p, kind):
    ch = sample_channel(m, 7)
    if kind == "Blind":
        cfg = make_blind_scheme(m, p, 0.25, ch.h, default_budget(ch, p).c_bar, 3)
    else:
        cfg = make_csi_scheme(m, p, 0.25, ch.h, ch.g)
    ser_errors, eve_errors = GOLDEN_COUNTS[(m, p, kind)]
    trials = 12_000  # chunks of 5,000, 5,000 and 2,000
    ser = estimate_ser(cfg, ch, trials, seed=5, min_errors=None)
    assert (ser.errors, ser.trials) == (ser_errors, trials)
    eve = estimate_eve_u_error(cfg, ch, trials, seed=5, min_errors=None)
    assert (eve.errors, eve.trials) == (eve_errors, trials)
