import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindjam import constellation
from blindjam.constellation import (
    COLLISION_REL_TOL,
    DegenerateLatticeError,
    LatticeSizeError,
    MAX_REDRAWS,
    ReceiverLattice,
    enumerate_sum_lattice,
    fit_dmin_exponent,
    min_distance,
    nearest_index,
    sum_lattice_min_distance,
)
from blindjam.experiments import ols
from blindjam.streams import substream


@settings(max_examples=50, deadline=None)
@given(st.floats(1e-3, 1e3), st.integers(0, 50))
def test_pam_cardinality_and_symmetry(a, q):
    # one coefficient of 1: the PAM constellation a * {-q, ..., q}
    lat = enumerate_sum_lattice([1.0], [q], a=a)
    assert lat.points.shape == (2 * q + 1,)
    assert np.all(np.diff(lat.points) > 0)
    assert np.array_equal(lat.points, -lat.points[::-1])
    assert np.array_equal(lat.labels[:, 0], np.arange(-q, q + 1))


def test_enumerate_sum_lattice_points_match_labels():
    coeffs = [0.831, -1.27, 0.404]
    lat = enumerate_sum_lattice(coeffs, [2, 1, 3], a=0.7)
    assert len(lat) == 5 * 3 * 7
    rebuilt = 0.7 * (lat.labels.astype(float) @ np.asarray(coeffs))
    assert np.allclose(rebuilt, lat.points)
    assert np.all(np.diff(lat.points) >= 0)
    assert not lat.collision


def test_enumerate_sum_lattice_cap_refusal(monkeypatch):
    monkeypatch.setattr(constellation, "POINT_CAP", 10_000)
    with pytest.raises(LatticeSizeError):
        enumerate_sum_lattice([1.0, 1.3], [200, 200])


def test_collision_detected_for_dependent_coeffs():
    # 1*t1 + 1*t2 makes (1,0) and (0,1) land on the same point
    lat = enumerate_sum_lattice([1.0, 1.0], [1, 1])
    assert lat.collision
    with pytest.raises(DegenerateLatticeError):
        min_distance(lat)


def _legit_lattice(h1, alphas, a, q, jam_radius):
    # the legitimate receiver's lattice: messages on h1 * alphas, then the
    # aligned jamming sum on coefficient 1 with radius jam_radius
    alphas = np.asarray(alphas, dtype=float)
    return enumerate_sum_lattice(np.append(h1 * alphas, 1.0),
                                 [q] * alphas.size + [jam_radius], a=a)


def test_receiver_lattice_size_formula():
    # (2q+1)^m * (2(m+1)q+1) for the jam radius of M+1 streams
    for m, q in [(1, 2), (1, 4), (2, 2)]:
        alphas = 0.9 + 0.13 * np.arange(1, m + 1)
        lat = _legit_lattice(1.17, alphas, a=0.5, q=q, jam_radius=(m + 1) * q)
        assert len(lat) == (2 * q + 1) ** m * (2 * (m + 1) * q + 1)
        assert lat.labels.shape == (len(lat), m + 1)


def test_receiver_lattice_jam_radius_override():
    lat = _legit_lattice(1.17, [0.9], a=0.5, q=2, jam_radius=2)
    assert len(lat) == 5 * 5


def _brute_force_min_distance(points):
    best = np.inf
    for i, j in itertools.combinations(range(len(points)), 2):
        best = min(best, abs(points[i] - points[j]))
    return best


def test_min_distance_matches_brute_force_on_small_lattices():
    rng = np.random.default_rng(0)
    for _ in range(8):
        h1 = rng.uniform(0.5, 2.0)
        alphas = rng.uniform(0.5, 1.5, size=1)
        q = int(rng.integers(1, 5))
        lat = _legit_lattice(h1, alphas, a=1.0, q=q, jam_radius=2 * q)
        if len(lat) > 500 or lat.collision:
            continue
        assert min_distance(lat) == pytest.approx(
            _brute_force_min_distance(lat.points), rel=1e-12)


def test_min_distance_needs_two_points():
    lat = enumerate_sum_lattice([0.3], [0])
    with pytest.raises(ValueError):
        min_distance(lat)


def test_nearest_index_tie_breaks_toward_smaller_point():
    pts = ReceiverLattice(points=np.array([0.0, 1.0, 2.0]), labels=np.arange(3)[:, None],
                          collision=False)
    assert np.array_equal(nearest_index(pts, [0.5, 1.5, 1.0]), [0, 1, 1])
    assert np.array_equal(nearest_index(pts, np.array([-5.0, 5.0])), [0, 2])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.floats(-0.499, 0.499))
def test_nearest_point_recovers_perturbed_labels(seed, frac):
    rng = np.random.default_rng(seed)
    h1 = rng.uniform(0.5, 2.0) * rng.choice([-1, 1])
    alphas = rng.uniform(0.5, 1.5, size=1) * rng.choice([-1, 1], size=1)
    lat = _legit_lattice(h1, alphas, a=1.0, q=2, jam_radius=4)
    if lat.collision:
        return
    d = min_distance(lat)
    idx = rng.integers(0, len(lat))
    y = lat.points[idx] + frac * d
    assert nearest_index(lat, [y]).tolist() == [idx]


def _searchsorted_nearest_index(points, y):
    # the reference: binary search, then the tie rule of nearest_index
    n = points.shape[0]
    right = np.searchsorted(points, y)
    left = np.clip(right - 1, 0, n - 1)
    right = np.clip(right, 0, n - 1)
    d_left = np.abs(y - points[left])
    d_right = np.abs(points[right] - y)
    return np.where(d_left <= d_right, left, right)


def _random_sum_lattice(seed, m, shape):
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(0.3, 2.0, size=m + 1) * rng.choice([-1, 1], size=m + 1)
    radii = [int(r) for r in rng.integers(1, 5 if m < 3 else 3, size=m + 1)]
    if shape == "clustered":
        # M=2: tight clusters of the small coefficient, several points a bucket
        coeffs = np.array([1.0, 1.0 + 1e-3 * rng.uniform(0.5, 2.0), 1e-4 * rng.uniform(1, 3)])
    elif shape == "one point":
        radii = [0] * (m + 1)
    elif shape == "equal points":
        coeffs = np.zeros(m + 1)
    return enumerate_sum_lattice(coeffs, radii, a=float(rng.uniform(0.05, 3.0)))


def _edge_queries(points):
    mid = (points[:-1] + points[1:]) / 2
    exact = np.concatenate([points, mid])
    far = [points[0] - 1.0, points[-1] + 1.0, -1e300, 1e300, -np.inf, np.inf, np.nan]
    return np.concatenate([exact, np.nextafter(exact, -np.inf), np.nextafter(exact, np.inf), far])


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3),
       st.sampled_from(["generic", "clustered", "one point", "equal points"]))
def test_nearest_index_matches_searchsorted(seed, m, shape):
    if shape == "clustered":
        m = 2
    lat = _random_sum_lattice(seed, m, shape)
    y = _edge_queries(lat.points)
    y = np.concatenate([y, np.random.default_rng(seed).permutation(y)])
    want = _searchsorted_nearest_index(lat.points, y)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = nearest_index(lat, y)
    assert np.array_equal(got, want)
    # queries are one 1-D array: a scalar or a column is refused
    for shape in ((), (y.shape[0], 1)):
        with pytest.raises(ValueError, match="1-D"):
            nearest_index(lat, np.zeros(shape))


@pytest.mark.parametrize("coeffs, radii", [([1.0], [1]), ([0.7, 1.3], [40, 80]),
                                           ([0.83, -1.27, 1.0], [12, 12, 36])])
def test_bucket_table_at_most_doubles_points(coeffs, radii):
    # 4 int32 buckets a point: 2x the float64 points, which are not copied again
    lat = enumerate_sum_lattice(coeffs, radii)
    assert lat._table.below.dtype == np.int32
    assert lat._table.below.nbytes <= 2 * lat.points.nbytes
    assert np.shares_memory(lat.points, lat._padded)


def test_loglog_slope_recovers_planted_exponent():
    # fit_dmin_exponent's slope: ols of log d_min against log q
    qs = np.array([2.0, 4.0, 8.0, 16.0])
    vals = 3.7 * qs ** -1.5
    assert ols(np.log(qs), np.log(vals)).slope == pytest.approx(-1.5, abs=1e-12)
    with pytest.raises(ValueError):
        ols(np.log([2.0]), np.log([1.0]))
    study = fit_dmin_exponent(1, [2, 4, 8], 3, 42)
    for d, slope in enumerate(study.slopes):
        rows = [row for row in study.rows if row.draw_id == d]
        assert slope == ols(np.log([row.q for row in rows]), np.log([row.dmin for row in rows])).slope


def test_fit_dmin_exponent_shape_and_determinism():
    study = fit_dmin_exponent(1, [2, 4, 8], 5, 42)
    assert study.slopes.shape == (5,)
    assert len(study.rows) == 15
    assert [row.q for row in study.rows[:3]] == [2, 4, 8]
    again = fit_dmin_exponent(1, [2, 4, 8], 5, 42)
    assert np.array_equal(study.slopes, again.slopes)
    assert study.median_slope == float(np.median(study.slopes))
    assert study.min_slope == float(np.min(study.slopes))


def test_fit_dmin_exponent_validation():
    with pytest.raises(ValueError):
        fit_dmin_exponent(1, [2, 4], 5, 0)
    with pytest.raises(ValueError):
        fit_dmin_exponent(1, [4, 2, 8], 5, 0)
    with pytest.raises(ValueError):
        fit_dmin_exponent(0, [2, 4, 8], 5, 0)
    # an integral float is its integer, as in a --config list
    assert [row.q for row in fit_dmin_exponent(1, [2.0, 4.0, 8.0], 1, 1).rows] == [2, 4, 8]


@pytest.mark.parametrize("q", [[2.7, 4.2, 8.9], [True, 4, 8], [2, 4, np.bool_(True)],
                               [2, 4, np.inf], [2, 4, np.nan]])
def test_fit_dmin_exponent_refuses_a_non_integral_q(q):
    # truncated, 2.7 would run as 2 and True as 1
    with pytest.raises(ValueError, match="is not an integer"):
        fit_dmin_exponent(1, q, 1, 1)


def test_collision_tolerance_scales_with_spacing():
    # same geometry at two spacings: collision decision must not depend on a
    # (1, 0) and (0, 1) land c * a apart, against a tolerance of COLLISION_REL_TOL * a
    for a in (1.0, 1e-4):
        assert enumerate_sum_lattice([1.0, 1.0 + 0.5 * COLLISION_REL_TOL], [1, 1], a=a).collision
        assert not enumerate_sum_lattice([1.0, 1.0 + 2 * COLLISION_REL_TOL], [1, 1], a=a).collision


def _fraction_min_distance(coeffs, radii, a):
    # exact: every nonzero d in the difference box prod [-2 r_i, 2 r_i]
    exact = [Fraction(c) for c in coeffs]
    best = min(abs(sum(c * t for c, t in zip(exact, d)))
               for d in itertools.product(*(range(-2 * r, 2 * r + 1) for r in radii))
               if any(d))
    return float(Fraction(a) * best)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_sum_lattice_min_distance_matches_exact_and_enumerated(seed, m):
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(0.1, 3.0, size=m + 1) * rng.choice([-1, 1], size=m + 1)
    radii = [int(r) for r in rng.integers(0, 3 if m < 3 else 2, size=m + 1)]
    radii[int(rng.integers(0, m + 1))] = int(rng.integers(1, 4))
    a = float(rng.uniform(0.05, 2.0))
    want = _fraction_min_distance(coeffs, radii, a)
    if want < COLLISION_REL_TOL * a:
        return
    got = a * sum_lattice_min_distance(coeffs, radii)
    assert got == pytest.approx(want, rel=1e-9)
    assert got == pytest.approx(min_distance(enumerate_sum_lattice(coeffs, radii, a=a)),
                                rel=1e-7)


@pytest.mark.parametrize("coeffs", [[1.0, 1.0], [0.5, 1.0], [0.0, 1.0]])
def test_sum_lattice_min_distance_flags_dependent_coeffs(coeffs):
    assert enumerate_sum_lattice(coeffs, [1, 1]).collision
    with pytest.raises(DegenerateLatticeError):
        sum_lattice_min_distance(coeffs, [1, 1])


def test_sum_lattice_min_distance_cap_and_validation(monkeypatch):
    # the head box is every axis but the widest: 801 terms here
    monkeypatch.setattr(constellation, "POINT_CAP", 801)
    assert sum_lattice_min_distance([1.0, 2 ** 0.5], [200, 300]) > 0
    monkeypatch.setattr(constellation, "POINT_CAP", 800)
    with pytest.raises(LatticeSizeError):
        sum_lattice_min_distance([1.0, 2 ** 0.5], [200, 300])
    with pytest.raises(ValueError):
        sum_lattice_min_distance([1.0, 2.0], [0, 0])
    with pytest.raises(ValueError):
        sum_lattice_min_distance([1.0], [1, 1])
    assert 2.0 * sum_lattice_min_distance([-0.3], [4]) == pytest.approx(0.6)


def _enumerated_dmin_study(m, q_grid, n_draws, seed):
    # fit_dmin_exponent's draws and redraw rule, on full enumeration and sorting
    dmins, redraws = [], 0
    for draw_id in range(n_draws):
        for attempt in itertools.count():
            rng = substream(seed, "dmin", draw_id, attempt)
            h1 = rng.uniform(0.5, 2.0) * (rng.integers(0, 2) * 2 - 1)
            alphas = rng.uniform(0.5, 1.5, size=m) * (rng.integers(0, 2, size=m) * 2 - 1)
            lats = [_legit_lattice(h1, alphas, a=1.0, q=q, jam_radius=(m + 1) * q)
                    for q in q_grid]
            if any(lat.collision for lat in lats):
                redraws += 1
                continue
            dmins.extend((draw_id, q, min_distance(lat)) for q, lat in zip(q_grid, lats))
            break
    return dmins, redraws


@pytest.mark.parametrize("m, q_grid, n_draws", [(1, [2, 4, 8, 16], 20), (2, [2, 4, 8], 3)])
def test_fit_dmin_exponent_matches_enumeration(m, q_grid, n_draws):
    study = fit_dmin_exponent(m, q_grid, n_draws, 11)
    assert fit_dmin_exponent(m, q_grid, n_draws, 11) == study  # slopes, derived, not compared
    want, redraws = _enumerated_dmin_study(m, q_grid, n_draws, 11)
    assert study.redraws == redraws
    assert [(r.draw_id, r.q) for r in study.rows] == [(d, q) for d, q, _ in want]
    assert [r.dmin for r in study.rows] == pytest.approx([x for _, _, x in want], rel=1e-7)


def test_fit_dmin_exponent_forced_collisions_raise(monkeypatch):
    # every draw collides: the draw is given up after MAX_REDRAWS attempts
    attempts = []

    def collide(coeffs, radii):
        attempts.append(tuple(coeffs))
        raise DegenerateLatticeError("forced")

    monkeypatch.setattr(constellation, "sum_lattice_min_distance", collide)
    with pytest.raises(RuntimeError, match=f"after {MAX_REDRAWS} attempts"):
        fit_dmin_exponent(1, [2, 4, 8], 1, 0)
    assert len(attempts) == MAX_REDRAWS == len(set(attempts))
