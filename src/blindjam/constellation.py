"""Scalar receiver lattices: enumeration, nearest-index search, d_min.

Each receiver of the jamming schemes observes a one-dimensional
constellation: every noiseless observation is a sum of scaled PAM symbols.
Because the realized points live on the real line, a lattice is sorted once
and gets a table of equal-width buckets over its range; ``nearest_index``
(which the decoders in ``receiver`` call) reads a query's insertion index
from its bucket in constant time and falls back to binary search only where
the bucket cannot settle it, with no need for sphere decoders at desk scale.
The exact minimum distance needs no lattice at all: it is the smallest
nonzero combination over the difference box, with the widest axis solved in
closed form.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channel import GAIN_MAGNITUDES
from .streams import substream

__all__ = [
    "LatticeSizeError",
    "DegenerateLatticeError",
    "ReceiverLattice",
    "enumerate_sum_lattice",
    "min_distance",
    "nearest_index",
    "fit_dmin_exponent",
    "DminStudy",
    "DminRow",
]

POINT_CAP = 10_000_000  # most points an enumeration or difference box may hold
COLLISION_REL_TOL = 1e-9  # times the symbol spacing a
BUCKETS_PER_POINT = 4
MAX_REDRAWS = 1000  # gain draws per fit_dmin_exponent draw before it gives up


class LatticeSizeError(ValueError):
    """A lattice or mixture refused because it would exceed its size cap."""


class DegenerateLatticeError(ValueError):
    """Two distinct labels landed on (numerically) the same point."""


def check_size(factors, cap: int, what: str,
               hint: str = "reduce q or the number of streams") -> None:
    """Refuse, naming ``cap``, a product of the integers ``factors`` above it;
    the product is not formed past the cap, however many factors. A factor
    that is no integer is a TypeError, a negative one a ValueError."""
    total = 1
    for f in factors:
        if operator.index(f) < 0:
            raise ValueError(f"negative count of {what}")
        total *= f
        if total > cap:
            raise LatticeSizeError(f"more than {cap} {what} exceed the cap; {hint}")


class BucketTable(NamedTuple):
    """BUCKETS_PER_POINT * N equal-width buckets over the span [lo, hi] of N
    sorted points; ``below[k]`` counts the points in buckets under k."""

    lo: float
    hi: float
    scale: float
    below: np.ndarray

    @classmethod
    def build(cls, points: np.ndarray) -> BucketTable | None:
        n = points.shape[0]
        if n < 2:
            return None
        lo, hi = float(points[0]), float(points[-1])
        nb = BUCKETS_PER_POINT * n
        # (nb - 1) / span keeps every bucket index below nb after rounding
        scale = (nb - 1) / (hi - lo) if hi > lo else 0.0
        if not 0.0 < scale < math.inf:
            return None
        # the points' buckets by the queries' own arithmetic: one monotone map
        table = cls(lo, hi, scale, None)
        first = table.bucket(points)
        # below[k] = i for the buckets k in (first[i-1], first[i]]
        runs = np.diff(first, prepend=-1, append=nb - 1)
        return table._replace(below=np.repeat(np.arange(n + 1, dtype=np.int32), runs))

    def bucket(self, y: np.ndarray) -> np.ndarray:
        """Bucket of each query, clamped into the span first, so neither the
        arithmetic nor the cast meets a NaN, an infinity or an overflow."""
        t = np.fmax(y, self.lo)  # fmax and fmin send NaN to the bound
        np.fmin(t, self.hi, out=t)
        t -= self.lo
        t *= self.scale
        return t.astype(np.intp)


@dataclass(frozen=True)
class ReceiverLattice:
    """Sorted scalar constellation with the integer labels that generated it.

    ``labels[i]`` is the integer tuple behind ``points[i]``.  ``collision``
    is set when two distinct labels map within tolerance of each other, in
    which case decoding is refused (degenerate gains).

    Construction also builds the search table of ``nearest_index``: a
    ``BucketTable`` over the points, and a copy of them padded with -inf and
    +inf (``points`` is a view into it), so the search reads both neighbours
    of any insertion index without bounds checks. A lattice of one point, of
    equal points or of non-finite span gets no table and is searched by
    ``np.searchsorted`` alone.
    """

    points: np.ndarray
    labels: np.ndarray
    collision: bool
    _padded: np.ndarray = field(init=False, repr=False, compare=False)
    _table: BucketTable | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        lab = np.asarray(self.labels)
        if pts.ndim != 1 or lab.ndim != 2 or lab.shape[0] != pts.shape[0]:
            raise ValueError("points must be 1-D and labels 2-D, of matching leading length")
        padded = np.concatenate(([-np.inf], pts, [np.inf]))
        pts = padded[1:-1]
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", lab)
        object.__setattr__(self, "_padded", padded)
        object.__setattr__(self, "_table", BucketTable.build(pts))

    def __len__(self) -> int:
        return self.points.shape[0]


def enumerate_sum_lattice(coeffs, radii, a: float = 1.0) -> ReceiverLattice:
    """All points ``a * sum_i coeffs[i] * t_i`` for integers t_i in [-r_i, r_i].

    Labels are the tuples (t_1, ..., t_L).  Size (prod 2r_i+1) above
    POINT_CAP is refused outright rather than subsampled.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    radii = [int(r) for r in radii]
    if coeffs.shape[0] != len(radii):
        raise ValueError("one radius per coefficient required")
    if a <= 0:
        raise ValueError("spacing a must be positive")
    check_size((2 * r + 1 for r in radii), POINT_CAP, "lattice points")
    axes = [np.arange(-r, r + 1, dtype=np.int32) for r in radii]
    mesh = np.meshgrid(*axes, indexing="ij")
    labels = np.stack([g.ravel() for g in mesh], axis=1)
    points = a * (labels.astype(float) @ coeffs)
    order = np.argsort(points, kind="stable")
    points = points[order]
    labels = labels[order]
    tol = COLLISION_REL_TOL * a
    collision = bool(points.shape[0] > 1 and np.min(np.diff(points)) < tol)
    return ReceiverLattice(points=points, labels=labels, collision=collision)


def min_distance(lat: ReceiverLattice) -> float:
    """Exact minimum distance, from adjacent differences of the sorted points."""
    if lat.collision:
        raise DegenerateLatticeError("degenerate gains: distinct labels collide")
    if len(lat) < 2:
        raise ValueError("minimum distance needs at least 2 points")
    return float(np.min(np.diff(lat.points)))


def sum_lattice_min_distance(coeffs, radii) -> float:
    """Exact minimum distance of ``enumerate_sum_lattice(coeffs, radii)``
    without building it; at spacing a both it and the collision tolerance
    scale by a.

    Two distinct labels differ by a nonzero integer d with |d_i| <= 2 r_i, so
    d_min = min |coeffs . d| over that difference box. Every axis but the
    widest is enumerated by outer sums (its size, prod 4 r_i + 1, is held to
    POINT_CAP); on the widest one |x + c d| is convex in d, so the nearest
    integer to -x / c, clipped to the box, is the exact minimizer.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    radii = [int(r) for r in radii]
    if coeffs.shape[0] != len(radii):
        raise ValueError("one radius per coefficient required")
    if max(radii, default=0) < 1:
        raise ValueError("minimum distance needs at least 2 points")
    wide = int(np.argmax(radii))
    head = [i for i in range(len(radii)) if i != wide]
    check_size((4 * radii[i] + 1 for i in head), POINT_CAP, "difference-box terms")
    x = np.zeros(1)
    for i in head:
        x = (x[:, None] + coeffs[i] * np.arange(-2 * radii[i], 2 * radii[i] + 1)).ravel()
    c, r = coeffs[wide], 2 * radii[wide]
    if c == 0.0:
        best = 0.0
    else:
        x += c * np.clip(np.rint(-x / c), -r, r)
        # the head d' = 0 sits at the centre; its d_L must be nonzero: +-1
        x[x.shape[0] // 2] = c
        best = float(np.min(np.abs(x)))
    if best < COLLISION_REL_TOL:
        raise DegenerateLatticeError("degenerate gains: distinct labels collide")
    return best


def _insertion_index(lat: ReceiverLattice,
                     y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``r = np.searchsorted(lat.points, y)``, read from the bucket table,
    with the neighbours points[r-1] and points[r] (-inf and +inf past the
    ends) that settle it.

    A bucket's count covers points that are all below y; one step past a
    point of y's own bucket that is below y settles any bucket of at most
    one point. Each candidate r is checked against searchsorted's definition
    points[r-1] < y <= points[r]; the queries it fails (buckets of several
    points, NaN, -inf) are searched by bisection.
    """
    under, over = lat._padded[:-1], lat._padded[1:]  # points[r-1], points[r]
    table = lat._table
    if table is None:
        r = np.searchsorted(lat.points, y)
        return r, under.take(r), over.take(r)
    r = table.below.take(table.bucket(y)).astype(np.intp)
    r += over.take(r) < y
    left, right = under.take(r), over.take(r)
    ok = left < y
    ok &= right >= y
    if not ok.all():
        miss = ~ok
        r_miss = np.searchsorted(lat.points, y[miss])
        r[miss], left[miss], right[miss] = r_miss, under.take(r_miss), over.take(r_miss)
    return r, left, right


def nearest_index(lat: ReceiverLattice, y) -> np.ndarray:
    """Index of the closest point of ``lat`` for each query of the 1-D array
    ``y``, ties toward the smaller point. Queries are not checked for
    finiteness: -inf gives the first point, +inf and NaN the last."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError("queries must be a 1-D array")
    r, left, right = _insertion_index(lat, y)
    # left < y <= right, so neither distance needs abs; an infinite
    # neighbour is never the nearer one, and the comparisons with NaN
    # (inf - inf at infinite queries) are false: r = 0 stays, r = n is
    # clamped to the last point
    with np.errstate(invalid="ignore"):
        idx = r - (y - left <= right - y)
    np.minimum(idx, lat.points.shape[0] - 1, out=idx)
    return idx


@dataclass(frozen=True)
class DminRow:
    """One (draw, q) cell of a d_min study, with the draw's slope: a CSV line."""

    draw_id: int
    m: int
    q: int
    dmin: float
    slope: float


@dataclass(frozen=True)
class DminStudy:
    """Per-draw minimum distances over a q grid; ``slopes``, one per draw, derive from them."""

    rows: tuple[DminRow, ...]
    redraws: int = 0
    slopes: np.ndarray = field(init=False, compare=False)  # == on arrays has no truth value

    def __post_init__(self):
        by_draw = {row.draw_id: row.slope for row in self.rows}
        object.__setattr__(self, "slopes", np.array(list(by_draw.values())))

    @property
    def median_slope(self) -> float:
        return float(np.median(self.slopes))

    @property
    def min_slope(self) -> float:
        return float(np.min(self.slopes))


def fit_dmin_exponent(
    m: int,
    q,
    draws: int,
    seed: int,
) -> DminStudy:
    """Empirical scaling exponent of the receiver minimum distance in Q.

    For each draw of generic gains (|h1| as a channel gain, the alphas as a
    Blind scheme's; spacing fixed at a=1), the minimum
    distance of the receiver lattice (coefficients h1*alphas and 1, radii q
    and (M+1)q) is computed exactly on every q in the grid by
    ``sum_lattice_min_distance``, without enumerating the lattice, and a
    least-squares slope of log d_min against log q is fitted.  Draws whose
    lattice collides at any q are redrawn, up to MAX_REDRAWS times; the
    count of redraws is reported. Before the first draw, more than
    experiments.MAX_CELLS (draw, q) cells or a top-q difference box past
    POINT_CAP is refused.
    """
    from .experiments import MAX_CELLS, ols  # experiments imports this module

    # as --q and --config refuse them: JSON true is no integer, 2.7 none either
    if any(isinstance(x, (bool, np.bool_)) or not float(x).is_integer() for x in q):
        raise ValueError(f"q grid {list(q)} holds an entry that is not an integer")
    q_grid = tuple(int(x) for x in q)
    if len(q_grid) < 3:
        raise ValueError("q grid must contain at least 3 strictly increasing values")
    if any(b <= a for a, b in zip(q_grid, q_grid[1:])):
        raise ValueError("q grid must be strictly increasing")
    if m < 1 or draws < 1:
        raise ValueError("m and draws must be >= 1")
    if draws * len(q_grid) > MAX_CELLS:
        raise ValueError(f"more than {MAX_CELLS} cells (draws x q values) exceed the cap")
    # the top q's difference box, as sum_lattice_min_distance checks it: its m
    # head axes, before m alphas or radii are drawn or listed
    check_size((4 * q_grid[-1] + 1 for _ in range(m)), POINT_CAP, "difference-box terms")

    rows: list[DminRow] = []
    redraws = 0
    for draw_id in range(draws):
        for attempt in range(MAX_REDRAWS):
            rng = substream(seed, "dmin", draw_id, attempt)
            h1 = rng.uniform(*GAIN_MAGNITUDES) * (rng.integers(0, 2) * 2 - 1)
            alphas = rng.uniform(0.5, 1.5, size=m) * (rng.integers(0, 2, size=m) * 2 - 1)
            coeffs = np.concatenate([h1 * alphas, [1.0]])
            try:
                dmins = [sum_lattice_min_distance(coeffs, [q] * m + [(m + 1) * q])
                         for q in q_grid]
            except DegenerateLatticeError:
                redraws += 1
                continue
            slope = ols(np.log(q_grid), np.log(dmins)).slope
            rows.extend(DminRow(draw_id, m, q, d, slope) for q, d in zip(q_grid, dmins))
            break
        else:
            raise RuntimeError(f"draw {draw_id} kept colliding after {MAX_REDRAWS} attempts")
    return DminStudy(rows=tuple(rows), redraws=redraws)
