"""Metric primitives: greedy nets, doubling-dimension estimates and the
distance helpers the partition code shares.

All point sets are float64 arrays of shape (n, d). A net with parameter
``eps`` satisfies two properties over its source points: centers are
pairwise >= eps apart, and every source point is within < eps of some
center.

Squared distances have two formulas: the lifted Gram product of `_lift`
rows and `_lifted` columns filters, within a rounding band that tests check
against exact squares, and direct differences decide every net center and
every carving capture and margin. The carving and blocked-net filters run
in float32 on data centered at the net's first center (`_lift32`,
`EpsilonNet.lifted32`) and fall back to the float64 product of the data as
given where the float32 band is too wide or a centered squared norm would
overflow float32; `_sq_distances` and its callers stay in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

Array = np.ndarray

_TREE_MAX_DIM = 4
"""Largest dimension in which `ball_assign` takes a batch's candidate
centers from a KD-tree over the net instead of the Gram filter.

With the float32 filter the tree is level with the dense kernel on a d=3
net of 2866 centers, 1.3x ahead at 6275 and about 3x at d=4, but behind
at d=5 and on nets of a few hundred centers (BENCH_16.json).
"""

_NET_TREE_MAX_DIM = 8
"""Largest dimension in which `greedy_net` builds its net by cover marking
over a KD-tree; above it, a block of points at a time with one Gram product
per block (`_greedy_net_blocked`).

The crossover depends on the number of points as well as on d: with its
float32 filter the blocked kernel wins from d=4 on at 4000 unit-ball points
(3.6x at d=8), while at lipschitz_curves' 30000 the two are level at d=4
and 5, the tree wins at d=6 and the blocked kernel at d=8 by 1.3x
(BENCH_16.json), so a move has to be measured at both sizes.
"""

_TREE_MIN_BATCH = 64
"""Smallest batch `ball_assign` sends down the tree path, so one-point
certificates and Lipschitz probes stay on the dense path.

A tree call costs about 60 us however small its batch; in d=2 the dense
kernel wins at 64 points on nets of up to about 300 centers and at one point
up to about 1500, the tree beyond (BENCH_16.json).
"""

_TILE = 1 << 17
"""Entries of the Gram product that `partitions`'s dense carving kernel
writes into its reused buffer and filters with one fixed run of numpy calls;
`greedy_net` sizes its blocks by it too (`_net_block`).

With float32 tiles on d=20 nets of 2048 and 8192 centers, 128K entries beat
64K by 17-34%, and 256K beat 128K by 8-13% at 8192 centers but only level
it at 2048 (BENCH_16.json).
"""


def _search_radius(radius: float, *arrays: Array) -> float:
    """A KD-tree query radius whose result holds every point within `radius`
    by any direct-difference computation: `radius` widened by 1e-9 of itself
    and by a few ulps of the largest coordinate magnitude."""
    scale = max(float(np.abs(a).max()) for a in arrays)
    return radius * (1.0 + 1e-9) + 4.0 * float(np.spacing(scale))


def _check_spacing(epsilon) -> None:
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"net epsilon must be positive and finite, got {epsilon!r}")


def as_points(data) -> Array:
    """Coerce to a finite float64 (n, d) array; reject NaN/Inf and d == 0."""
    pts = np.asarray(data, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] == 0:
        raise ValueError(f"expected (n, d) points with d >= 1, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite (no NaN/Inf)")
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
        _check_spacing(self.epsilon)
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
        """`_lifted` columns of the centers, shared like the tree."""
        return _lifted(self.centers)

    @cached_property
    def lifted32(self) -> Array:
        """Float32 `_lifted` columns of the centers less the first one, the
        origin of the float32 filter (`_lift32`); inf where a centered
        squared norm overflows float32, which sends every batch to float64."""
        with np.errstate(over="ignore"):
            return _lifted(self.centers - self.centers[0]).astype(np.float32)


def _lifted(C):
    """Columns [-2c; 1; |c|^2] of the centers C, (d + 2, k): a point's
    `_lift` row [x, |x|^2, 1] times them is its Gram squared distances."""
    c2 = np.einsum("ij,ij->i", C, C)
    return np.vstack([-2.0 * C.T, np.ones(len(c2)), c2])


def _lift(X, cols):
    """(rows, band) of points X: rows [x, |x|^2, 1], whose product with
    `_lifted` columns cols holds the Gram squared distances, and each row's
    filter band (d + 3) eps_machine (|x| + max |c|)^2 (`partitions._gram_decide`),
    inf where the squared norms overflow and the Gram d2 prove nothing.

    Each d2 is one float64 dot product of length d + 2, within
    gamma_{d+2} (|x| + |c|)^2 of the exact square (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 3); the band covers that twice
    over and the rounding of direct differences."""
    x2 = np.einsum("ij,ij->i", X, X)
    span = np.sqrt(x2) + math.sqrt(cols[-1].max(initial=0.0))
    with np.errstate(over="ignore"):
        band = (X.shape[1] + 3) * np.finfo(np.float64).eps * span**2
    return np.column_stack([X, x2, np.ones(len(X))]), band


def _lift32(X, origin, cols, scale2):
    """(rows, band) of the float32 Gram filter of points X against the
    centers c whose float32 `_lifted` columns of c - origin are cols, or
    None when a row's band is not below scale2 / 16 (scale2 a scalar or one
    per point): the caller then filters in float64 with `_lift`.

    The rows are [y, |y|^2, 1] of y = x - origin, cast to float32 only once
    every band has passed that test. Distances do not change under the shift,
    and the band depends on the spread of the data about the origin, not
    on its offset: (d + 8) 2^-23 ((|y| + max |c - origin|)^2 + 2^-100). It
    covers twice over the float32 product of length d + 2 (gamma_{d+2} as
    in `_lift`), the float32 casts of y, c - origin and their squared norms
    (2^-24 each), the float64 shift and the direct differences, and with the
    2^-100 term float32 underflow. It is inf where |y| + max |c - origin|
    reaches 2^60, so every sum the float32 product forms stays finite.
    """
    with np.errstate(over="ignore"):
        Y = X - origin
        y2 = np.einsum("ij,ij->i", Y, Y)
        span = np.sqrt(y2) + math.sqrt(cols[-1].max(initial=0.0))
        band = np.where(span < 2.0**60, (X.shape[1] + 8) * 2.0**-23 * (span**2 + 2.0**-100), np.inf)
    if not (band < scale2 / 16.0).all():
        return None
    return np.column_stack([Y, y2, np.ones(len(Y))]).astype(np.float32), band


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
    d2 = _lift(X, cols)[0] @ cols
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
    marking over a KD-tree, above it from blocks of points filtered by one
    Gram product each; both decide with the same squared-difference test
    and give the same center set, bit for bit.
    """
    pts = as_points(points)
    _check_spacing(epsilon)
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

    One product of `_lift32` rows (centered at the first point) or, where
    their band is not below epsilon**2 / 16, of `_lift` rows gives a block's
    Gram squared distances to the k centers accepted before it and to its
    own points, m (k + m) entries in one reused buffer. They only filter: a
    pair is a candidate when its d2 is below epsilon**2 plus the block's
    widest band, which covers the rounding of the Gram d2 and of the direct
    one. Candidates take the loop's own test, the squared difference below
    epsilon**2: a point that an earlier center covers dies. Alive points
    with no candidate among the alive points before them in the block
    become centers at once; the others are resolved in order against the
    earlier ones that became centers.
    """
    n, d = pts.shape
    e2 = epsilon * epsilon
    with np.errstate(over="ignore"):
        src = _lifted(pts - pts[0]).astype(np.float32)  # lifted columns of every point
    lifted = _lift32(pts, pts[0], src, e2)
    if lifted is None:
        src = _lifted(pts)
        lifted = _lift(pts, src)
    rows, band = lifted
    cols = np.empty_like(src)  # lifted columns of the centers, then of the block
    keep = np.empty(n, dtype=np.intp)  # source row of each center
    buf = np.empty(max(_TILE, n), dtype=src.dtype)
    k = i = 0
    while i < n:
        m = min(_net_block(k), n - i)
        blk = pts[i : i + m]
        cols[:, k : k + m] = src[:, i : i + m]
        d2 = buf[: m * (k + m)].reshape(m, k + m)
        lim = e2 + band[i : i + m].max()
        if lim < math.inf:
            np.matmul(rows[i : i + m], cols[:, : k + m], out=d2)
        else:  # squared norms overflow, so the Gram d2 proves nothing: every pair is a candidate
            d2.fill(0.0)
        lim = _ceil(lim, d2.dtype)
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
            for p, q in zip(row[close].tolist(), col[close].tolist()):
                if alive[q]:
                    alive[p] = False
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


def _greedy_net_tree(pts: Array, epsilon: float) -> Array:
    """Centers of the input-order greedy net by cover marking.

    A point is a center exactly when no earlier center covered it; each new
    center marks the points strictly within epsilon of it as covered. The
    tree only proposes neighbours; the mark is the loop's own test, the
    squared difference from the center below epsilon**2.
    """
    tree = cKDTree(pts)
    reach = _search_radius(epsilon, pts)
    covered = np.zeros(len(pts), dtype=bool)
    keep = []
    for i in range(len(pts)):
        if covered[i]:
            continue
        keep.append(i)
        near = np.asarray(tree.query_ball_point(pts[i], reach), dtype=np.intp)
        diff = pts[i] - pts[near]
        covered[near[np.einsum("ij,ij->i", diff, diff) < epsilon * epsilon]] = True
    return pts[keep]


def estimate_doubling_dimension(points, epsilon: float) -> float:
    """Empirical doubling dimension of a sampled point set at scales <= epsilon.

    For up to 64 probe centers evenly spaced in input order and the radii
    r = epsilon / 2^j, j < 8, greedily covers B_r(center) with (r/2)-balls
    and returns log2 of the worst cover size. Upper-bound flavored: greedy
    covers inflate the exact covering number, so the estimate leans high.
    """
    pts = as_points(points)
    _check_spacing(epsilon)
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
