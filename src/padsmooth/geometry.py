"""Metric primitives: greedy nets, doubling-dimension estimates and the
distance helpers the partition code shares.

All point sets are float64 arrays of shape (n, d). A net with parameter
``eps`` satisfies two properties over its source points: centers are
pairwise >= eps apart, and every source point is within < eps of some
center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

Array = np.ndarray

_TREE_MAX_DIM = 4
"""Largest dimension in which `ball_assign` searches a KD-tree.

Assignment only needs the centers within twice the carving radius of a
point, and in low dimension a tree finds them without scanning every
center. Measured on 2 cores with one BLAS thread, tree build included, on
concentric spheres unless noted, `ball_assign` with n=4096 points, dense
scan vs tree: d=3 (2866 centers) 0.263 vs 0.020 s, d=4 (6167) 0.55 vs
0.035 s, d=5 (7081) 0.67 vs 0.11 s, but d=8 (7755) 0.71 vs 1.49 s, a d=8
unit ball whose 2R-neighbourhood spans the data (2409) 0.23 vs 1.24 s,
d=12 0.32 vs 0.59 s and d=20 0.18 vs 0.52 s. The tree gains most up to
d=4 and can lose several-fold from d=8 on. Both kernels hand their
candidates to one decider and return the same bits, so the choice is one
of cost only. `greedy_net` has its own crossover, `_NET_TREE_MAX_DIM`.
"""

_NET_TREE_MAX_DIM = 8
"""Largest dimension in which `greedy_net` builds its net by cover marking
over a KD-tree; above it, a block of points at a time with one Gram product
per block (`_greedy_net_blocked`).

Measured on 2 cores with one BLAS thread, tree vs blocked, best of 5, the
same centers bit for bit: unit-ball points at spacing 0.4, 4000 points,
d=3 (53 centers) 0.0036 vs 0.0042 s, d=5 (383) 0.015 vs 0.013 s, d=6 (823)
0.032 vs 0.018 s, d=8 (2429) 0.085 vs 0.028 s, d=10 (3606) 0.151 vs
0.040 s, d=12 (3927) 0.247 vs 0.042 s, and 2048 points in d=20 (2048)
0.148 vs 0.013 s; concentric spheres, 8000 points at spacing 0.4: d=3
(112) 0.0072 vs 0.0086 s, d=4 (442) 0.015 vs 0.017 s, d=5 (1374) 0.039 vs
0.039 s, d=8 (6504) 0.225 vs 0.125 s, and at spacing 0.0675 in d=3 (2850)
0.076 vs 0.089 s. The tree wins up to d=4, the two tie at d=5 and the
blocked kernel wins from d=6 on, by 3x at d=8; the crossover stays at 8
until the nets it would move, such as the d=8 nets of the Lipschitz and
paddedness estimators, are measured end to end.
"""

_TREE_MIN_BATCH = 64
"""Smallest batch `ball_assign` sends down the tree path.

A tree query has a fixed cost of about 100 us, so small batches gain
little and lose on small nets. Measured in d=2 (2 cores, one thread), dense
vs tree per call: 49 centers, 1 point 62 vs 107 us and 64 points 113 vs
271 us; 672 centers, 1 point 86 vs 121 us, 64 points 660 vs 382 us; 3816
centers, 1 point 206 vs 103 us, 64 points 6.8 ms vs 0.58 ms. The floor
keeps one-point certificates and Lipschitz probes on the dense path.
"""

_TILE = 1 << 17
"""Entries of the Gram product (1 MB of float64) that `partitions`'s dense
carving kernel writes into its reused buffer and filters with one fixed run
of numpy calls; `greedy_net` sizes its blocks by it too (`_net_block`).

Measured on 2 cores with one BLAS thread, median of 5 rounds of the best of
2 calls, carving tiles of 32K / 64K / 128K / 256K entries: d=20 concentric
spheres, 8192 centers and 2048 off-support points 93 / 61 / 50 / 43 ms;
2048 centers and 1024 points 7.5 / 6.5 / 6.1 / 6.2 ms; 1898 centers with a
larger radius, points captured, 8.8 / 6.9 / 6.1 / 6.4 ms; two circles in
d=50, 186 centers and 4096 points 9.1 / 8.4 / 8.3 / 8.6 ms.
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
        """Columns [-2c; 1; |c|^2] of the centers, shared like the tree: a
        point's row [x, |x|^2, 1] times them is its Gram squared distances."""
        c2 = np.einsum("ij,ij->i", self.centers, self.centers)
        return np.vstack([-2.0 * self.centers.T, np.ones(len(c2)), c2])


def _lift(X, cols):
    """(rows, band) of points X: rows [x, |x|^2, 1], whose product with a
    net's `lifted` columns cols holds the Gram squared distances, and each
    row's filter band (d + 3) eps_machine (|x| + max |c|)^2 (`partitions._gram_decide`)."""
    x2 = np.einsum("ij,ij->i", X, X)
    band = (X.shape[1] + 3) * np.finfo(np.float64).eps * (np.sqrt(x2) + math.sqrt(cols[-1].max())) ** 2
    return np.column_stack([X, x2, np.ones(len(X))]), band


def _distances_to(points: Array, centers: Array, chunk: int = 8192) -> Array:
    """(n, k) euclidean distance matrix, chunked over rows: the roots of
    (x2 + c2) - 2G clipped at 0, formed in the output in place, so a chunk
    holds one temporary, its Gram product G."""
    n = len(points)
    out = np.empty((n, len(centers)), dtype=np.float64)
    c2 = np.einsum("ij,ij->i", centers, centers)
    for i in range(0, n, chunk):
        blk = points[i : i + chunk]
        d2 = np.add.outer(np.einsum("ij,ij->i", blk, blk), c2, out=out[i : i + chunk])
        g = blk @ centers.T
        g *= 2.0
        d2 -= g
        np.maximum(d2, 0.0, out=d2)
        np.sqrt(d2, out=d2)
    return out


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

    One `_lift` product gives a block's Gram squared distances to the k
    centers accepted before it and to its own points, m (k + m) entries in
    one reused buffer. They only filter: a pair is a candidate when its d2
    is below epsilon**2 plus the block's widest band, which covers the
    rounding of the Gram d2 and of the direct one (`_lift`, Higham ch. 3).
    Candidates take the loop's own test, the squared difference below
    epsilon**2: a point that an earlier center covers dies. Alive points
    with no candidate among the alive points before them in the block
    become centers at once; the others are resolved in order against the
    earlier ones that became centers.
    """
    n, d = pts.shape
    e2 = epsilon * epsilon
    cols = np.ones((d + 2, n))  # lifted columns of the centers, then of the block
    keep = np.empty(n, dtype=np.intp)  # source row of each center
    buf = np.empty(max(_TILE, n))
    k = i = 0
    while i < n:
        blk = pts[i : i + _net_block(k)]
        m = len(blk)
        cols[:d, k : k + m] = -2.0 * blk.T
        cols[d + 1, k : k + m] = np.einsum("ij,ij->i", blk, blk)
        rows, band = _lift(blk, cols[:, : k + m])
        d2 = buf[: m * (k + m)].reshape(m, k + m)
        lim = e2 + band.max()
        if lim < math.inf:
            np.matmul(rows, cols[:, : k + m], out=d2)
        else:  # squared norms overflow, so the Gram d2 proves nothing: every pair is a candidate
            d2.fill(0.0)
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


def estimate_doubling_dimension(
    points,
    epsilon: float,
    *,
    max_centers: int = 64,
    radius_scales: int = 8,
) -> float:
    """Empirical doubling dimension of a sampled point set at scales <= epsilon.

    For a deterministic set of probe centers and geometric radii r, greedily
    covers B_r(center) with (r/2)-balls and returns log2 of the worst cover
    size. Upper-bound flavored: greedy covers inflate the exact covering
    number, so the estimate leans high rather than low.
    """
    pts = as_points(points)
    _check_spacing(epsilon)
    n = len(pts)
    idx = np.unique(np.linspace(0, n - 1, num=min(max_centers, n)).astype(int))
    worst = 1
    dist = _distances_to(pts[idx], pts)
    for j in range(radius_scales):
        r = epsilon / (2.0**j)
        for row in range(len(idx)):
            members = pts[dist[row] < r]
            if len(members) == 0:
                continue
            cover = greedy_net(members, r / 2.0)
            worst = max(worst, len(cover))
    return float(np.log2(worst))
