"""Metric primitives: greedy nets, doubling-dimension estimates and the
distance helpers the partition code shares.

All point sets are float64 arrays of shape (n, d). A net with parameter
``eps`` satisfies two properties over its source points: centers are
pairwise >= eps apart, and every source point is within < eps of some
center.

Squared distances have two formulas: the lifted Gram product of `_lift`
rows and `_lifted` columns filters, within a rounding band that tests check
against exact squares, and direct differences decide every net center and
every carving capture and margin. `_lift` is one lift in two dtypes, of
the data less an origin (the net's first center for the carving and
blocked-net filters, 0 for `_sq_distances`), with one band (`_band`);
`_gram_lift` filters in float32 where every band is below R^2 / 16
(epsilon^2 / 16 for a net), else in float64.

Coordinates lie in (-2^480, 2^480) (`_MAX_COORD`), checked where points and
net centers come in (`as_points`), so no float64 square overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np
from scipy.spatial import cKDTree

Array = np.ndarray

_MAX_COORD = 2.0**480
"""Bound B on every coordinate of points and net centers: `as_points`
accepts only (-B, B), B = 2^480 (about 3.1e144), so NaN and +-Inf fail too.

In d < 2^52 no float64 square the kernels form can overflow. A difference
of two points, or of a point and an origin, has norm below sqrt(d) 2^481 <
2^507, so direct squared differences and the KD-tree's squared distances
(cKDTree raises where one overflows) stay below d 2^962 < 2^1014; the
uncentered `_sq_distances` adds terms of at most 4 d 2^960 in all; and the
float64 `_band`'s span |y| + max |c - origin| stays below sqrt(d) 2^482 <
2^508, where it would turn inf, so `_gram_lift` always has a filter.
Float32 still overflows inside the domain (`_single`, `_ceil`, `_band`).
"""

_TREE_MAX_DIM = 4
"""Largest dimension in which `ball_assign` takes a batch's candidate
centers from a KD-tree over the net instead of the Gram filter.

With the dual-tree candidate pairs the tree is 1.5x ahead of the dense
kernel on d=3 nets of 2909 centers, 1.7x at 6321 and about 3x on a d=4
net of 13780, but 2x behind at d=5 (21526 centers) and up to 18x behind on
nets of a few hundred centers whose 2R-balls span the data (BENCH_20.json).
"""

_NET_TREE_MAX_DIM = 8
"""Largest dimension in which `greedy_net` builds its net by cover marking
over a KD-tree; above it, a block of points at a time with one Gram product
per block (`_greedy_net_blocked`).

The crossover depends on the number of points as well as on d: with
blocked cover marking the tree kernel wins at d=4 and 5 on 4000 unit-ball
points and the blocked kernel from d=6 on (2.1x at d=8), while at
lipschitz_curves' 30000 the tree wins up to d=7 and the two are level at
d=8 (BENCH_20.json), so a move has to be measured at both sizes.
"""

_TREE_MIN_BATCH = 64
"""Smallest batch `ball_assign` sends down the tree path, so one-point
certificates and Lipschitz probes stay on the dense path.

A dual-tree call costs about 80 us however small its batch; in d=2 the
dense kernel wins at 64 points on nets of up to a few hundred centers, is
level with the tree at about 1500 and loses beyond, and at one point it
wins up to about 3300 centers (BENCH_20.json).
"""

_TILE = 1 << 17
"""Entries (1 MB of float64) per working array of the batched kernels: the
Gram product that `partitions`'s dense carving kernel writes into its
reused buffer and filters with one fixed run of numpy calls, the blocks of
`greedy_net` (`_net_block`), and the arrays of the estimators' batched
trials (`partitions._trial_blocks`).

With float32 tiles on d=20 nets of 2048 and 8192 centers, 128K entries beat
64K by 17-34%, and 256K beat 128K by 8-13% at 8192 centers but only level
it at 2048 (BENCH_16.json). With the float64 filter, 128K entries beat both
64K and 256K on two-point trials over nets of 282 to 6340 centers
(BENCH_17.json).
"""


def _search_radius(radius: float, *arrays: Array) -> float:
    """A KD-tree query radius whose result holds every point within `radius`
    by any direct-difference computation: `radius` widened by 1e-9 of itself
    and by a few ulps of the largest coordinate magnitude. Inside the
    coordinate domain (`_MAX_COORD`) the tree's squared distances stay
    finite, so every caller can take the tree."""
    scale = max(float(np.abs(a).max()) for a in arrays)
    return radius * (1.0 + 1e-9) + 4.0 * float(np.spacing(scale))


def _positive_finite(value, name: str) -> None:
    """ValueError naming the argument unless value is positive and finite."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def as_points(data) -> Array:
    """Coerce to a float64 (n, d) array, d >= 1, with every coordinate in
    (-_MAX_COORD, _MAX_COORD), so no NaN or Inf."""
    pts = np.asarray(data, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] == 0:
        raise ValueError(f"expected (n, d) points with d >= 1, got shape {pts.shape}")
    if not (-_MAX_COORD < pts.min(initial=0.0) and pts.max(initial=0.0) < _MAX_COORD):  # False on NaN
        raise ValueError("points must be finite with coordinates in (-2^480, 2^480)")
    return pts


@dataclass(frozen=True, eq=False)
class EpsilonNet:
    """A net over a source point set.

    centers: (k, d) array, subset of the source points, pairwise >= epsilon.
    epsilon: net parameter; every source point is within < epsilon of a center.
    source_count: number of points the net was built from.
    """

    centers: Array
    epsilon: float
    source_count: int

    def __post_init__(self):
        _positive_finite(self.epsilon, "net epsilon")
        object.__setattr__(self, "centers", as_points(self.centers))
        if len(self.centers) == 0:
            raise ValueError("net must have at least one center")

    def __len__(self) -> int:
        return len(self.centers)

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    @cached_property
    def tree(self) -> cKDTree:
        """KD-tree over the centers, built once and shared by every carving
        drawn over this net."""
        return cKDTree(self.centers)

    @cached_property
    def lifted(self) -> Array:
        """`_lifted` columns of the centers less the first one, the origin of
        the carving filter (`_gram_lift`), shared like the tree."""
        return _lifted(self.centers - self.centers[0])

    @cached_property
    def lifted32(self) -> Array:
        """`lifted` in float32 (`_single`)."""
        return _single(self.lifted)


def _lifted(C):
    """Columns [-2c; 1; |c|^2] of the centers C, (d + 2, k): a point's
    `_lift` row [x, |x|^2, 1] times them is its Gram squared distances."""
    c2 = np.einsum("ij,ij->i", C, C)
    return np.vstack([-2.0 * C.T, np.ones(len(c2)), c2])


def _single(cols):
    """Float32 copy of float64 columns or rows, inf where an entry overflows
    float32 (the float32 `_band` is then inf)."""
    with np.errstate(over="ignore"):
        return cols.astype(np.float32)


def _lift(X, origin, cols):
    """(rows, band) of points X against the centers c whose `_lifted`
    columns of c - origin are cols: rows [y, |y|^2, 1] of y = x - origin in
    the dtype of cols, whose product with cols holds the Gram squared
    distances, and each row's filter band (`_band`)."""
    n, d = X.shape
    rows = np.empty((n, d + 2))  # filled in place: a second array the size of X costs page faults
    Y = np.subtract(X, origin, out=rows[:, :d])
    rows[:, d] = y2 = np.einsum("ij,ij->i", Y, Y)
    rows[:, d + 1] = 1.0
    return rows.astype(cols.dtype, copy=False), _band(y2, cols)


def _band(y2, cols):
    """Filter band (`partitions._gram_decide`) of rows whose |y|^2 are y2
    against the `_lift` columns cols: (d + 8) eps ((|y| + max |c - origin|)^2
    + 2^26 tiny), with eps the machine epsilon and tiny the least normal
    number of the dtype of cols (2^-23 and 2^-100 in float32). It depends
    on the spread of the data about the origin, not on its offset.

    Each d2 is one dot product of length d + 2, within gamma_{d+2}
    (|y| + |c - origin|)^2 of the exact square (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 3). The band covers that twice
    over, the casts of y, c - origin and their squared norms to the dtype,
    the float64 shift, the rounding of direct differences and, with the
    tiny term, underflow. It is inf where |y| + max |c - origin| reaches
    2^(maxexp / 2 - 4), about sqrt(max) / 16 (2^60 in float32), so every
    sum the product forms stays finite; there the Gram d2 prove nothing.
    In float64 that takes coordinates beyond `_MAX_COORD`.
    """
    d, fi = len(cols) - 2, np.finfo(cols.dtype)
    span = np.sqrt(y2) + math.sqrt(cols[-1].max(initial=0.0))
    wide = (d + 8) * float(fi.eps) * (span**2 + float(fi.tiny) * 2.0**26)
    return np.where(span < 2.0 ** (fi.maxexp // 2 - 4), wide, np.inf)


def _gram_lift(X, origin, scale2, cols, cols32):
    """(rows, band, cols) of the Gram filter of points X against the centers
    whose `_lift` columns about origin are cols (float64) and cols32 (their
    cast): float32 when every float32 band is below scale2 / 16 (R^2, or
    epsilon^2 for a net; a scalar or one per point), else float64, whose
    bands are finite inside `_MAX_COORD`. X is lifted once, in float64.
    The precision changes only which pairs are proposed."""
    rows, band = _lift(X, origin, cols)
    band32 = _band(rows[:, -2], cols32)
    if (band32 < scale2 / 16.0).all():
        return _single(rows), band32, cols32
    return rows, band, cols


def _ceil(t, dtype):
    """Thresholds t cast to dtype and rounded toward +inf (inf where they
    overflow it): a Gram d2 of that dtype that is <= t (or < t) is also
    <= (<) the cast, so a compare in the tile's own dtype proposes every
    pair the float64 compare would."""
    t = np.asarray(t, dtype=np.float64)
    with np.errstate(over="ignore"):
        c = t.astype(dtype)
        return np.where(c < t, np.nextafter(c, np.inf), c)


def _sq_distances(X, cols) -> Array:
    """(n, k) Gram squared distances of points X to the centers whose
    `_lifted` columns are cols, clipped at 0 in place."""
    d2 = _lift(X, 0.0, cols)[0] @ cols
    np.maximum(d2, 0.0, out=d2)
    return d2


def _unit_rows(V: Array) -> Array:
    """Rows scaled to unit length; a row shorter than 1e-12 becomes e_1."""
    nrm = np.linalg.norm(V, axis=1, keepdims=True)
    dead = nrm[:, 0] < 1e-12
    if dead.any():
        V = V.copy()
        V[dead] = 0.0
        V[dead, 0] = 1.0
        nrm = np.linalg.norm(V, axis=1, keepdims=True)
    return V / nrm


def greedy_net(points, epsilon: float) -> EpsilonNet:
    """Greedy net construction in input order.

    The first point is always a center; each later point becomes a center
    exactly when it is >= epsilon from all existing centers. Deterministic
    given the input order. Up to dimension 8 the centers come from cover
    marking over a KD-tree, 32 uncovered points at a time
    (`_greedy_net_tree`), above it from blocks of points filtered by one
    Gram product each (`_greedy_net_blocked`); both decide with the same
    squared-difference test and give the same center set, bit for bit.
    """
    pts = as_points(points)
    _positive_finite(epsilon, "net epsilon")
    if not len(pts):
        raise ValueError("greedy_net needs at least one source point")
    kernel = _greedy_net_tree if pts.shape[1] <= _NET_TREE_MAX_DIM else _greedy_net_blocked
    return EpsilonNet(centers=kernel(pts, epsilon), epsilon=float(epsilon), source_count=len(pts))


def _net_block(k: int) -> int:
    """Rows m of the next `_greedy_net_blocked` block after k centers: the
    largest m with m (k + m) <= _TILE, at least 1."""
    return max(1, (math.isqrt(k * k + 4 * _TILE) - k) // 2)


def _greedy_net_blocked(pts: Array, epsilon: float) -> Array:
    """Centers of the input-order greedy net, one block of points at a time.

    One product of `_gram_lift` rows, centered at the first point, gives a
    block's Gram squared distances to the k centers accepted before it and
    to its own points, m (k + m) entries in one reused buffer. They only
    filter: a pair is a candidate when its d2 is below epsilon**2 plus the
    block's widest band, which covers the rounding of the Gram d2 and of the
    direct one. Candidates take the loop's own test, the squared difference
    below epsilon**2: a point that an earlier center covers dies. Alive
    points with no candidate among the alive points before them in the block
    become centers at once; the others are resolved in order against the
    earlier ones that became centers.
    """
    n = len(pts)
    e2 = epsilon * epsilon
    src = _lifted(pts - pts[0])  # lifted columns of every point
    rows, band, src = _gram_lift(pts, pts[0], e2, src, _single(src))
    cols = np.empty_like(src)  # lifted columns of the centers, then of the block
    keep = np.empty(n, dtype=np.intp)  # source row of each center
    buf = np.empty(max(_TILE, n), dtype=src.dtype)
    k = i = 0
    while i < n:
        m = min(_net_block(k), n - i)
        blk = pts[i : i + m]
        cols[:, k : k + m] = src[:, i : i + m]
        d2 = np.matmul(rows[i : i + m], cols[:, : k + m], out=buf[: m * (k + m)].reshape(m, k + m))
        lim = _ceil(e2 + band[i : i + m].max(), d2.dtype)
        alive = np.ones(m, dtype=bool)
        row, col = (d2[:, :k] < lim).nonzero()
        if row.size:
            alive[row[_sq_diffs(pts, keep[col], blk, row) < e2]] = False
        a = alive.nonzero()[0]
        own = d2[:, k:] if len(a) == m else d2[a[:, None], k + a]
        row, col = np.tril(own < lim, -1).nonzero()  # col earlier in the block
        if row.size:
            row, col = a[row], a[col]
            close = _sq_diffs(blk, col, blk, row) < e2
            _in_order(alive, row[close], col[close])
            a = alive.nonzero()[0]
        cols[:, k : k + len(a)] = cols[:, k + a]
        keep[k : k + len(a)] = i + a
        k += len(a)
        i += m
    return pts[keep[:k]]


def _sq_diffs(A, ia, B, ib):
    """Squared differences |A[ia] - B[ib]|^2 by the loop's einsum, gathered
    in chunks of about _TILE coordinates: a clustered block can have
    m^2 / 2 candidate pairs, whose differences at once would take m^2 d / 2."""
    out = np.empty(len(ia))
    step = max(1, _TILE // A.shape[1])
    for s in range(0, len(ia), step):
        diff = A[ia[s : s + step]] - B[ib[s : s + step]]
        out[s : s + step] = np.einsum("ij,ij->i", diff, diff)
    return out


def _in_order(alive, row, col) -> None:
    """The greedy loop inside a block: for each pair (p, q) of its points
    within epsilon, q earlier, sorted by p, p dies where q is still alive.
    So each point sees the points before it decided."""
    for p, q in zip(row.tolist(), col.tolist()):
        if alive[q]:
            alive[p] = False


def _greedy_net_tree(pts: Array, epsilon: float) -> Array:
    """Centers of the input-order greedy net by cover marking, a block of up
    to 32 uncovered points at a time.

    A point is a center exactly when no earlier center covers it. A block
    takes the next uncovered points in input order, up to 32 of the next
    512. No earlier center covers them, so their pairwise squared
    differences decide in order which of them become centers (`_in_order`).
    Then one batched tree query from the block's new centers marks every
    point they cover: `query_ball_point` over the batch, since the centers
    lie scattered, where a dual-tree query prunes little and took twice as
    long. The tree only proposes neighbours; every decision is the loop's
    own test, the squared difference below epsilon**2.
    """
    e2 = epsilon * epsilon
    reach = _search_radius(epsilon, pts)
    tree = cKDTree(pts)
    covered = np.zeros(len(pts), dtype=bool)
    keep = []
    below = np.tril_indices(32, -1)  # (p, q), q < p, by p: a block of m takes the first m (m - 1) / 2
    i = 0
    while i < len(pts):
        blk = i + np.flatnonzero(~covered[i : i + 512])[:32]
        i = blk[-1] + 1 if len(blk) == 32 else i + 512
        row, col = (a[: len(blk) * (len(blk) - 1) // 2] for a in below)
        close = _sq_diffs(pts, blk[col], pts, blk[row]) < e2
        alive = np.ones(len(blk), dtype=bool)
        _in_order(alive, row[close], col[close])
        new = blk[alive]
        keep.append(new)
        near = tree.query_ball_point(pts[new], reach, return_sorted=False)
        sizes = np.fromiter(map(len, near), dtype=np.intp, count=len(new))
        pt = np.fromiter(chain.from_iterable(near), dtype=np.intp, count=int(sizes.sum()))
        covered[pt[_sq_diffs(pts, np.repeat(new, sizes), pts, pt) < e2]] = True
    return pts[np.concatenate(keep)]


def estimate_doubling_dimension(points, epsilon: float) -> float:
    """Empirical doubling dimension of a sampled point set at scales <= epsilon.

    For up to 64 probe centers evenly spaced in input order and the radii
    r = epsilon / 2^j, j < 8, greedily covers B_r(center) with (r/2)-balls
    and returns log2 of the worst cover size. Upper-bound flavored: greedy
    covers inflate the exact covering number, so the estimate leans high.
    """
    pts = as_points(points)
    _positive_finite(epsilon, "net epsilon")
    n = len(pts)
    idx = np.unique(np.linspace(0, n - 1, num=min(64, n)).astype(int))
    worst = 1
    dist = np.sqrt(_sq_distances(pts[idx], _lifted(pts)))
    for j in range(8):
        r = epsilon / (2.0**j)
        for row in range(len(idx)):
            members = pts[dist[row] < r]
            if len(members) == 0:
                continue
            cover = greedy_net(members, r / 2.0)
            worst = max(worst, len(cover))
    return float(np.log2(worst))
