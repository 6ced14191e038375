import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from blindjam import receiver
from blindjam.channel import NOISE_CAP, ChannelRealization, default_budget, sample_channel
from blindjam.constellation import DegenerateLatticeError, enumerate_sum_lattice, nearest_index
from blindjam.experiments import _make_config
from blindjam.infometrics import rate_lower_bound
from blindjam.receiver import (
    ErrorEstimate,
    decode,
    decoded_counts,
    estimate_eve_u_error,
    estimate_ser,
    receiver_lattice,
)
from blindjam.schemes import (
    KINDS,
    encode,
    jam_streams,
    make_blind_scheme,
    make_csi_scheme,
    observation,
    sample_symbols,
    stream_counts,
)
from blindjam.channel import eve_output, legit_output
from blindjam.streams import substream


def _exhaustive_decode(y, lat):
    idx = int(np.argmin(np.abs(lat.points - y)))
    return tuple(int(t) for t in lat.labels[idx][:-1])


def test_error_estimate_invariants():
    est = ErrorEstimate(trials=100, errors=10)
    assert est.rate == 0.1
    assert est.stderr == pytest.approx(np.sqrt(0.1 * 0.9 / 100))
    with pytest.raises(ValueError):
        ErrorEstimate(trials=10, errors=11)


@settings(max_examples=200, deadline=None)
@given(trials=st.integers(1, 10**12), share=st.floats(0.0, 1.0))
def test_error_estimate_derives_rate_and_stderr_from_its_counts(trials, share):
    errors = min(trials, int(share * trials))
    est = ErrorEstimate(trials, errors)
    rate = errors / trials
    assert est.rate == rate
    assert est.stderr == math.sqrt(max(rate * (1.0 - rate), 0.0) / trials)


def test_legit_lattice_sizes(ch1):
    budget = default_budget(ch1, 100.0)
    blind = make_blind_scheme(1, 100.0, 0.1, ch1.h, budget.c_bar, 3)
    csi = make_csi_scheme(100.0, 0.1, ch1.h, ch1.g)
    q = blind.q
    # blind jams from all m+1 transmitters, the aligned baseline from m
    assert len(receiver_lattice(blind, ch1, "legit")) == (2 * q + 1) * (2 * 2 * q + 1)
    assert len(receiver_lattice(csi, ch1, "legit")) == (2 * q + 1) * (2 * q + 1)
    gj = _make_config("GaussianJam", 100.0, 0.1, ch1, 3)
    with pytest.raises(ValueError):
        receiver_lattice(gj, ch1, "legit")


@pytest.mark.parametrize("p", [1e2, 1e4])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("kind", ["Blind", "CsiAligned"])
def test_stream_counts_give_each_lattice_size_exactly(kind, m, p):
    # the sizes a sweep checks before it draws, from (kind, m) and q alone:
    # prod (2 n q + 1) over the receiver's stream counts n, the eavesdropper's
    # jamming coordinates alone for its decoder
    ch = sample_channel(m, 5)
    cfg = _make_config(kind, p, 0.1, ch, 3)
    legit, eve = stream_counts(kind, m, "legit"), stream_counts(kind, m, "eve")
    assert (legit, eve) == (observation(cfg, ch, "legit")[1], observation(cfg, ch, "eve")[1])
    assert (decoded_counts(kind, m, "legit"), decoded_counts(kind, m, "eve")) == (legit, eve[m:])
    assert math.prod(2 * n * cfg.q + 1 for n in legit) == len(receiver_lattice(cfg, ch, "legit"))
    assert math.prod(2 * n * cfg.q + 1 for n in eve[m:]) == len(receiver_lattice(cfg, ch, "eve"))


def test_decode_matches_exhaustive_search():
    # oracle equivalence on every lattice small enough to brute-force
    rng = np.random.default_rng(7)
    checked = 0
    for seed in range(10):
        ch = sample_channel(1, seed)
        cfg = make_blind_scheme(1, 100.0, 0.1, ch.h, 4.0, seed)
        lat = receiver_lattice(cfg, ch, "legit")
        if len(lat) > 500 or lat.collision:
            continue
        span = lat.points[-1] - lat.points[0]
        ys = rng.uniform(lat.points[0] - 0.1 * span, lat.points[-1] + 0.1 * span,
                         size=1000)
        batch = decode(cfg, ch, "legit", lat, ys)
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


def test_error_counts_at_the_noise_cap_run_without_a_warning(ch1):
    # a Gaussian draw times sigma = 1e308 overflowed in the error counter: the
    # channel refuses that level, and at the cap every count runs clean
    for field in ("sigma1", "sigma2"):
        with pytest.raises(ValueError, match="noise standard deviations must lie in"):
            replace(ch1, **{field: 1e308})
    ch = replace(ch1, sigma1=NOISE_CAP, sigma2=NOISE_CAP)
    cfg = _make_config("Blind", 100.0, 0.1, ch, 3)
    assert estimate_ser(cfg, ch, 200, seed=1, min_errors=None).trials == 200
    assert estimate_eve_u_error(cfg, ch, 200, seed=1, min_errors=None).trials == 200


def test_estimate_ser_rejects_gaussian_jam(ch1):
    cfg = _make_config("GaussianJam", 100.0, 0.1, ch1, 3)
    with pytest.raises(ValueError):
        estimate_ser(cfg, ch1, 1000, seed=0)


def test_eve_lattice_and_conditional_decode(noiseless_ch):
    ch = noiseless_ch
    cfg = make_blind_scheme(1, 100.0, 0.1, ch.h, 4.0, 2)
    lat = receiver_lattice(cfg, ch, "eve")
    assert len(lat) == (2 * cfg.q + 1) ** 2
    v, u = sample_symbols(cfg, substream(3, "symbols"), n=50)
    y2 = eve_output(ch, encode(cfg, v, u))
    assert np.array_equal(decode(cfg, ch, "eve", lat, y2, v), u)
    # one observation decodes to one row of jamming symbols
    assert np.array_equal(decode(cfg, ch, "eve", lat, y2[7:8], v[7:8]), u[7:8])


def test_decode_refuses_unknown_receiver_and_misshapen_messages(blind_cfg, ch1):
    lat = receiver_lattice(blind_cfg, ch1, "eve")
    y = np.zeros(3)
    with pytest.raises(ValueError, match="unknown receiver"):
        decode(blind_cfg, ch1, "bob", lat, y)
    # the eavesdropper needs m known messages per observation
    for v in (None, np.zeros(3), np.zeros((2, 1)), np.zeros((3, 2))):
        with pytest.raises(ValueError, match="one row of m messages"):
            decode(blind_cfg, ch1, "eve", lat, y, v)


def test_eve_error_zero_without_noise(noiseless_ch):
    cfg = make_blind_scheme(1, 100.0, 0.1, noiseless_ch.h, 4.0, 2)
    est = estimate_eve_u_error(cfg, noiseless_ch, 2000, seed=0, min_errors=None)
    assert est.rate == 0.0


def test_eve_decoder_uses_the_conditioning(noiseless_ch):
    # deliberately wrong conditioning must break the noiseless decoder
    cfg = make_blind_scheme(1, 100.0, 0.1, noiseless_ch.h, 4.0, 2)
    lat = receiver_lattice(cfg, noiseless_ch, "eve")
    v, u = sample_symbols(cfg, substream(0, "symbols"), n=2000)
    y2 = eve_output(noiseless_ch, encode(cfg, v, u))
    u = u[:, jam_streams(cfg.kind, cfg.m)]
    assert np.array_equal(decode(cfg, noiseless_ch, "eve", lat, y2, v), u)
    wrong = decode(cfg, noiseless_ch, "eve", lat, y2, np.clip(v + 1, -cfg.q, cfg.q))
    assert np.mean(np.any(wrong != u, axis=1)) > 0.1


def test_eve_error_csi_kind(ch1):
    cfg = make_csi_scheme(100.0, 0.1, ch1.h, ch1.g)
    est = estimate_eve_u_error(cfg, ch1, 5000, seed=0)
    assert 0.0 <= est.rate <= 1.0


def test_legit_output_chain_consistency(ch1):
    # encode -> channel -> decode on one block without noise recovers v
    cfg = make_blind_scheme(1, 100.0, 0.1, ch1.h, 4.0, 3)
    lat = receiver_lattice(cfg, ch1, "legit")
    v, u = sample_symbols(cfg, substream(4, "symbols"), n=1)
    y1 = legit_output(ch1, encode(cfg, v, u))
    assert np.array_equal(decode(cfg, ch1, "legit", lat, y1), v)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["Blind", "CsiAligned"]), m=st.integers(1, 2),
       q=st.integers(1, 3), seed=st.integers(0, 2**31 - 1))
def test_noiseless_decoders_invert_encode(kind, m, q, seed):
    drawn = sample_channel(m, seed)
    ch = ChannelRealization(h=drawn.h, g=drawn.g, sigma1=0.0, sigma2=0.0)
    # the power at which the schedule gives this q
    p = (q + 0.5) ** (2.0 * (m + 1 + 0.1) / (1.0 - 0.1))
    cfg = _make_config(kind, p, 0.1, ch, seed)
    assert cfg.q == q
    lat, eve_lat = receiver_lattice(cfg, ch, "legit"), receiver_lattice(cfg, ch, "eve")
    assume(not lat.collision and not eve_lat.collision)
    v, u = sample_symbols(cfg, substream(seed, "symbols"), n=40)
    x = encode(cfg, v, u)
    assert np.array_equal(decode(cfg, ch, "legit", lat, legit_output(ch, x)), v)
    decoded = decode(cfg, ch, "eve", eve_lat, eve_output(ch, x), v)
    assert np.array_equal(decoded, u[:, jam_streams(kind, m)])


def test_decoders_refuse_colliding_lattice(blind_cfg, ch1):
    # (1, 0) and (0, 1) land on the same point: no label can be decoded
    lat = enumerate_sum_lattice([1.0, 1.0], [1, 1])
    with pytest.raises(DegenerateLatticeError):
        decode(blind_cfg, ch1, "legit", lat, np.array([0.1]))
    with pytest.raises(DegenerateLatticeError):
        decode(blind_cfg, ch1, "eve", lat, np.array([0.1]), np.zeros((1, 1)))


def test_decoders_send_non_finite_queries_to_the_outermost_points(blind_cfg, ch1):
    # documented, not refused: -inf decodes to the first point, +inf and NaN
    # to the last
    y = np.array([-np.inf, np.inf, np.nan])
    lat = receiver_lattice(blind_cfg, ch1, "legit")
    eve_lat = receiver_lattice(blind_cfg, ch1, "eve")
    assert nearest_index(lat, y).tolist() == [0, len(lat) - 1, len(lat) - 1]
    assert np.array_equal(decode(blind_cfg, ch1, "legit", lat, y), lat.labels[[0, -1, -1], :-1])
    v = np.zeros((3, blind_cfg.m), dtype=int)
    assert np.array_equal(decode(blind_cfg, ch1, "eve", eve_lat, y, v),
                          eve_lat.labels[[0, -1, -1]])


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
    cfg = _make_config(kind, p, 0.25, ch, 3)
    ser_errors, eve_errors = GOLDEN_COUNTS[(m, p, kind)]
    trials = 12_000  # chunks of 5,000, 5,000 and 2,000
    ser = estimate_ser(cfg, ch, trials, seed=5, min_errors=None)
    assert (ser.errors, ser.trials) == (ser_errors, trials)
    eve = estimate_eve_u_error(cfg, ch, trials, seed=5, min_errors=None)
    assert (eve.errors, eve.trials) == (eve_errors, trials)


@pytest.mark.parametrize("kind", KINDS)
def test_every_consumer_refuses_another_channels_gains(kind, ch1):
    # a scheme pairs only with the legitimate gains it was built for: one
    # ulp off in one helper gain is refused before anything is estimated
    cfg = _make_config(kind, 100.0, 0.1, ch1, 3)
    h = ch1.h.copy()
    h[1] = np.nextafter(h[1], np.inf)
    other = replace(ch1, h=h)
    for run in (lambda: observation(cfg, other, "legit"),
                lambda: observation(cfg, other, "eve"),
                lambda: estimate_ser(cfg, other, 1000, seed=0),
                lambda: estimate_eve_u_error(cfg, other, 1000, seed=0),
                lambda: rate_lower_bound(cfg, other, n_samples=200)):
        with pytest.raises(ValueError, match="gains h differ"):
            run()
