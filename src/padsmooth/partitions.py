"""Random space partitions with bounded diameter and padding certificates.

Two families:

* Cube: an axis-aligned lattice of half-open cubes of side eps/sqrt(d),
  shifted by a uniform random vector. Cell diameter is at most eps. A point
  x sits at per-coordinate offset u_i = (x_i - shift_i) mod width inside its
  cell; the open ball B_t(x) stays inside the cell iff every coordinate
  margin min(u_i, width - u_i) is at least t.

* Ball carving: a net of centers with spacing eps/4 over the data support,
  a shared radius R drawn uniformly from (eps/4, eps/2], and a uniform
  random order on the centers. The cell of a center u is B_R(u) minus the
  balls of all centers earlier in the order; a point belongs to the first
  center in order whose R-ball contains it. Cell diameter is at most
  2R <= eps. The certificate for B_t(x) with assigned center u demands
  d(x, u) <= R - t and d(x, w) >= R + t for every earlier w: then every
  point of the ball is captured by u and by no earlier center.

Both classes answer the same calls: cells(points), margins(points) ->
(margins, off_support), anchor(cells), to_dict(), the text form of a cell
key (key_to_text / key_from_text), the cells of cell_labels keys
(key_cells) and guided_directions() for the probe attack. The module
functions cells_of, certificate_margins and padding_certificate forward to
them for either family.

The certificate is exact for cube cells and sound-but-conservative for
carved cells (they may say Cut for a ball that is in fact contained, never
the reverse). Points beyond every R-ball of a carving fall back to the
nearest center; their certificate status is OffSupport.

Every carving decision reads direct-difference distances and follows one
rule, `_decide`: capture by the first center in carving order with d <= R,
margins lowered by a rounding slack of 2 (d + 4) R eps_machine so they
never exceed the exact ones, and off support the nearest center, the
earlier in carving order on ties. Callers differ only in how they find
candidate (point, center) pairs: a KD-tree over the net for batches of at
least 64 points in dimension <= 4, every center for one point (and for
each point of a batch in which a squared norm overflows), else a
filter of one Gram product per row tile within a forward-error band that
stops a captured row at its first capture (`_gram_decide`); the query
game takes its pool's pairs once. All of them return the same bits.

The Monte-Carlo estimators (estimate_paddedness, estimate_lipschitz_constant)
draw a fresh partition and point or pair per trial, in the order of a
per-trial loop, and batch only the geometry: a block of trials (sized by
_BLOCK) is answered by one `_assign_trials` call per net, or per lattice
dimension. For lattices that call applies the per-partition formulas to
stacked shifts and widths, for carvings it filters one Gram product
against the net as the dense kernel does; both give the bits of one call
per trial.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

from .geometry import (
    _TILE,
    _TREE_MAX_DIM,
    _TREE_MIN_BATCH,
    Array,
    EpsilonNet,
    _lift,
    _search_radius,
    _sq_distances,
    _unit_rows,
    as_points,
)

CONTAINED = "contained"
CUT = "cut"
OFF_SUPPORT = "off_support"


@dataclass(frozen=True)
class PaddingCertificate:
    """Outcome of a containment query for an open ball B_t(x).

    status: contained / cut / off_support.
    margin: largest radius the certificate can vouch for at this point
            (0.0 when off support). status == contained iff margin >= t.
    """

    status: str
    margin: float


@dataclass(frozen=True, eq=False)
class CubePartition:
    """Shifted half-open cube lattice with cell diameter <= epsilon.

    Cells are (d,) int64 lattice coordinates; cell_labels keys are their
    tuples.
    """

    epsilon: float
    dim: int
    shift: Array  # (d,), entries in [0, width)
    seed: int | None = None

    def __post_init__(self):
        if not (self.epsilon > 0):
            raise ValueError("epsilon must be positive")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        s = np.asarray(self.shift, dtype=np.float64)
        if s.shape != (self.dim,):
            raise ValueError(f"shift must have shape ({self.dim},)")
        if (s < 0).any() or (s >= self.width).any():
            raise ValueError("shift entries must lie in [0, width)")
        object.__setattr__(self, "shift", s)

    @property
    def width(self) -> float:
        return self.epsilon / math.sqrt(self.dim)

    def cells(self, points) -> Array:
        """(n, d) int64 lattice coordinates; half-open cells, floor convention."""
        return _lattice_cells(_points_of(self, points), self.shift, self.width)

    def margins(self, points) -> tuple[Array, Array]:
        """(margins, off_support): each point's distance to the nearest cell
        face, its exact containment radius: B_t(x) is inside the cell iff
        every coordinate margin is >= t. The lattice covers space, so no
        point is off support."""
        m = _lattice_margins(_points_of(self, points), self.shift, self.width)
        return m, np.zeros(len(m), dtype=bool)

    @property
    def _group(self):
        """Trials whose lattices one `_assign_trials` call answers: those of
        the same dimension."""
        return ("cube", self.dim)

    @property
    def _columns(self) -> int:
        """Entries `_assign_trials` holds per point."""
        return self.dim

    @staticmethod
    def _assign_trials(parts, pts):
        """(cells, off_support, margins) of pts[i], a (p, d) block, under
        lattice parts[i]: the elementwise formulas of `cells` and `margins`
        over stacked shifts and widths, so the same bits."""
        shift = np.stack([q.shift for q in parts])[:, None, :]
        width = np.array([q.width for q in parts])[:, None, None]
        m = _lattice_margins(pts, shift, width)
        return _lattice_cells(pts, shift, width), np.zeros(m.shape, dtype=bool), m

    def anchor(self, cells) -> Array:
        """Cell centers, for one cell or an array of `cells` rows (the same
        bits either way)."""
        return self.shift + (np.asarray(cells, dtype=np.float64) + 0.5) * self.width

    def to_dict(self) -> dict:
        return {
            "family": "cube",
            "epsilon": self.epsilon,
            "dim": self.dim,
            "shift": self.shift.tolist(),
            "seed": self.seed,
        }

    @staticmethod
    def key_to_text(key) -> str:
        """Text form of a cell_labels key in classifier.json: "i,j,..."."""
        return ",".join(str(v) for v in key)

    @staticmethod
    def key_from_text(text: str) -> tuple[int, ...]:
        return tuple(int(v) for v in text.split(","))

    def key_cells(self, keys) -> Array:
        """(n, d) int64 cells of cell_labels keys; rejects a key that is not
        d integers."""
        return _integer_cells(keys, (self.dim,), f"cube cell keys must be tuples of {self.dim} integers")

    def guided_directions(self) -> list:
        """Certificate-guided attack rounds: one push along the axis of each
        point's nearest cell face, toward that face."""

        def nearest_face(X):
            u = (X - self.shift) % self.width
            two_sided = np.minimum(u, self.width - u)
            j = np.argmin(two_sided, axis=1)
            rows = np.arange(len(X))
            sign = np.where(u[rows, j] <= self.width - u[rows, j], -1.0, 1.0)
            D = np.zeros_like(X)
            D[rows, j] = sign
            return D

        return [nearest_face]


def _lattice_cells(pts, shift, width) -> Array:
    return np.floor((pts - shift) / width).astype(np.int64)


def _lattice_margins(pts, shift, width) -> Array:
    u = np.mod(pts - shift, width)
    return np.minimum(u, width - u).min(axis=-1)


def _integer_cells(keys, shape: tuple, what: str) -> Array:
    """int64 array of integer keys, each of the given shape, or ValueError."""
    keys = list(keys)
    if not keys:
        return np.empty((0, *shape), dtype=np.int64)
    try:
        cells = np.array(keys)
    except ValueError:  # keys of different lengths
        cells = None
    if cells is None or cells.dtype.kind not in "iu" or cells.shape[1:] != shape:
        raise ValueError(what)
    return cells.astype(np.int64, copy=False)


def _points_of(part, points) -> Array:
    pts = as_points(points)
    if pts.shape[1] != part.dim:
        raise ValueError(f"points have dimension {pts.shape[1]}, partition has {part.dim}")
    return pts


def sample_cube_partition(dim: int, epsilon: float, rng: np.random.Generator) -> CubePartition:
    """Draw the lattice shift uniformly from [0, width)^d."""
    if not (epsilon > 0):
        raise ValueError("epsilon must be positive")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    width = epsilon / math.sqrt(dim)
    return CubePartition(epsilon=float(epsilon), dim=int(dim), shift=rng.random(dim) * width)


@dataclass(frozen=True, eq=False)
class BallCarvingPartition:
    """Carved balls over a net: shared radius, random center order.

    order[k] is the index of the k-th center in the carving sequence. Cells
    are center indices; cell_labels keys are ints.
    """

    net: EpsilonNet
    epsilon: float
    radius: float
    order: Array  # permutation of range(len(net))
    seed: int | None = None

    def __post_init__(self):
        if not (self.epsilon > 0):
            raise ValueError("epsilon must be positive")
        if not (self.epsilon / 4.0 < self.radius <= self.epsilon / 2.0):
            raise ValueError("radius must lie in (epsilon/4, epsilon/2]")
        if abs(self.net.epsilon - self.epsilon / 4.0) > 1e-9 * self.epsilon:
            raise ValueError("net spacing must equal epsilon/4")
        o = np.asarray(self.order, dtype=np.int64)
        n = len(self.net)
        in_range = o.shape == (n,) and (n == 0 or (o.min() >= 0 and o.max() < n))
        if not (in_range and np.bincount(o, minlength=n).all()):
            raise ValueError("order must be a permutation of the net indices")
        object.__setattr__(self, "order", o)

    @property
    def dim(self) -> int:
        return self.net.dim

    @cached_property
    def ranks(self) -> Array:
        """ranks[i] = position of center i in the carving sequence."""
        r = np.empty(len(self.net), dtype=np.int64)
        r[self.order] = np.arange(len(self.net))
        return r

    def cells(self, points) -> Array:
        """(n,) int64 center indices: the first center in carving order whose
        R-ball holds the point, the nearest center when none does."""
        return ball_assign(self, points)[0]

    def margins(self, points) -> tuple[Array, Array]:
        """(margins, off_support) of ball_assign. Sound, conservative: a
        margin >= t guarantees d(x, u) <= R - t for the assigned center u
        and d(x, w) >= R + t for every earlier w in exact arithmetic; a
        smaller one does not prove a cut. Off-support points get margin 0."""
        _, off, m = ball_assign(self, points)
        return m, off

    def anchor(self, cells) -> Array:
        """Net centers of the cells, for one cell or an array of them."""
        return self.net.centers[np.asarray(cells, dtype=np.int64)]

    @property
    def _group(self):
        """Trials whose carvings one `_assign_trials` call answers: those
        over this net."""
        return self.net

    @property
    def _columns(self) -> int:
        """Entries `_assign_trials` holds per point, in each of its arrays."""
        return len(self.net)

    @staticmethod
    def _assign_trials(parts, pts):
        """ball_assign of pts[i], a (p, d) block, under carving parts[i],
        for carvings over one net.

        One product of the lifted rows (`_lift`) against the net's `lifted`
        columns gives every row's Gram squared distances; each trial's rows
        are gathered into its own carving's order and go through
        `_gram_decide` with its R. The Gram entries only pick candidates, so
        the results are the bits of one call per trial. Where a squared norm
        overflows, each trial is one `_ball_assign_dense` call.
        """
        net = parts[0].net
        count = len(net)
        trials, p, d = pts.shape
        orders = np.stack([q.order for q in parts])
        R = np.repeat([q.radius for q in parts], p)
        X = pts.reshape(-1, d)
        rows, band = _lift(X, net.lifted)
        if not np.isfinite(band).all():  # squared norms overflow
            return tuple(map(np.stack, zip(*(_ball_assign_dense(q, x) for q, x in zip(parts, pts)))))
        d2 = rows @ net.lifted
        starts = np.arange(0, d2.size, count)
        # each row gathered into its trial's carving order by flat indices,
        # about twice as fast as np.take_along_axis
        d2 = np.take(d2, starts.reshape(trials, p, 1) + orders[:, None, :]).reshape(-1, count)
        first, off, margins = _gram_decide([(0, d2)], R, band, d, lambda row, col: _direct_distances(
            X[row], net.centers[orders[row // p, col]]))
        cells = np.take_along_axis(orders, first.reshape(trials, p), axis=1)
        return cells, off.reshape(trials, p), margins.reshape(trials, p)

    def to_dict(self) -> dict:
        return {
            "family": "ball_carving",
            "epsilon": self.epsilon,
            "dim": self.dim,
            "radius": self.radius,
            "order": self.order.tolist(),
            "seed": self.seed,
            "net": {
                "epsilon": self.net.epsilon,
                "source_count": self.net.source_count,
                "centers": self.net.centers.tolist(),
            },
        }

    @staticmethod
    def key_to_text(key) -> str:
        """Text form of a cell_labels key in classifier.json: the index."""
        return str(int(key))

    @staticmethod
    def key_from_text(text: str) -> int:
        return int(text)

    def key_cells(self, keys) -> Array:
        """(n,) int64 cells of cell_labels keys; rejects a key that is not a
        center index in [0, len(net))."""
        what = f"carving cell keys must be center indices in [0, {len(self.net)})"
        cells = _integer_cells(keys, (), what)
        if len(cells) and (cells.min() < 0 or cells.max() >= len(self.net)):
            raise ValueError(what)
        return cells

    def guided_directions(self) -> list:
        """Certificate-guided attack rounds: out of the assigned ball, then
        toward the second-nearest center."""
        centers = self.net.centers

        def away(X):
            return _unit_rows(X - centers[self.cells(X)])

        def toward_second(X):
            if len(centers) >= 2:
                j = np.argpartition(_sq_distances(X, self.net.lifted), 1, axis=1)[:, 1]
            else:
                j = np.zeros(len(X), dtype=np.intp)
            return _unit_rows(centers[j] - X)

        return [away, toward_second]


def sample_ball_carving(net: EpsilonNet, epsilon: float, rng: np.random.Generator) -> BallCarvingPartition:
    """Draw radius uniform on (epsilon/4, epsilon/2] and a uniform center order."""
    if abs(net.epsilon - epsilon / 4.0) > 1e-9 * epsilon:
        raise ValueError(f"net spacing {net.epsilon} does not match epsilon/4 = {epsilon / 4.0}")
    radius = epsilon / 4.0 + (1.0 - rng.random()) * (epsilon / 4.0)  # (eps/4, eps/2]
    order = rng.permutation(len(net))
    return BallCarvingPartition(net=net, epsilon=float(epsilon), radius=float(radius), order=order)


def resample_ball_carving(part: BallCarvingPartition, rng: np.random.Generator) -> BallCarvingPartition:
    """Fresh (radius, order) over the same net."""
    return sample_ball_carving(part.net, part.epsilon, rng)


def ball_assign(part: BallCarvingPartition, points):
    """Vectorized assignment with certificate margins.

    Returns (cells, off_support, margins):
      cells: (n,) int64 center indices (nearest center when off support),
      off_support: (n,) bool, True when no R-ball contains the point,
      margins: (n,) float certificate margins (0.0 off support).

    Batches of at least 64 points in dimension <= 4 take their candidate
    centers from the net's KD-tree (`_ball_assign_tree`), everything else
    from `_ball_assign_dense` (every center for one point, else a Gram
    filter). All hand them to `_decide`, so all return the same bits.
    """
    pts = _points_of(part, points)
    if part.dim <= _TREE_MAX_DIM and len(pts) >= _TREE_MIN_BATCH:
        return _ball_assign_tree(part, pts)
    return _ball_assign_dense(part, pts)


def _direct_distances(A, B):
    """Distances |A - B| over the last axis, A and B broadcast, by direct
    differences: the only distances a carving decision reads."""
    diff = A - B
    return np.sqrt(np.einsum("...j,...j->...", diff, diff))


def _ball_assign_dense(part: BallCarvingPartition, pts: Array):
    """ball_assign with candidate pairs from Gram-expansion distances to
    every center in carving order, decided by `_gram_decide`: each row tile
    of about _TILE entries is one `_lift` product into one reused buffer.
    A batch in which a row's band is not finite goes one point at a time."""
    net, order, R = part.net, part.order, part.radius
    count, n, d = len(net), len(pts), part.dim
    if n == 1:
        # one point: direct distances to every center cost less than a Gram filter
        row = np.zeros(count, dtype=np.intp)
        pos, off, margins = _decide(row, row[:1], _direct_distances(net.centers, pts), part.ranks, R, d, 1, count)
        return order[pos], off, margins
    cols = net.lifted[:, order]  # columns in carving order
    rows, band = _lift(pts, cols)
    if not np.isfinite(band).all():  # squared norms overflow, so the Gram d2 propose nothing
        return tuple(map(np.concatenate, zip(*(_ball_assign_dense(part, x) for x in pts[:, None]))))
    step = max(1, _TILE // count)
    buf = np.empty((min(step, n), count), dtype=np.float64)
    tiles = ((j, np.matmul(rows[j : j + step], cols, out=buf[: min(step, n - j)]))
             for j in range(0, max(n, 1), step))  # one empty tile when n == 0
    pos, off, margins = _gram_decide(tiles, R, band, d, lambda row, col: _direct_distances(
        pts[row], net.centers[order[col]]))
    return order[pos], off, margins


def _gram_decide(tiles, R, band, d: int, distances):
    """`_decide` of points x in dimension d from tiles (j, d2) of their Gram
    squared distances (rows j, j + 1, ..., C-contiguous, columns in carving
    order), on the direct distances(row, col) of candidate pairs; R is a
    scalar or per point, band per point from `_lift`.

    Each d2 is one dot product of length d + 2, within gamma_{d+2}
    (|x| + |c|)^2 of the exact square (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 3); the band covers that twice over and the
    rounding of direct differences. So a row is captured exactly when its
    least d2 is at most R^2 + band. Off support its candidates are the
    columns within 2 band of that least d2, its nearest centers. Captured,
    they are F, its first column with d2 <= R^2 + band, and the columns
    before F within 2 band of their least d2 (none when that is above
    4R^2 + band, beyond 2R): every center that can capture x and its
    nearest earlier ones within 2R. A row whose d2 at F is within the band
    of R^2, so that the direct test may reject F, also keeps the columns
    after F within its threshold, which is then above R^2 + band: they hold
    every later center that can capture x and its nearest centers. A tile
    compares columns only up to its last candidate column, so when every
    row is captured beyond the band of R it stops at the largest F.
    """
    lim = R * R + band
    found = []
    for j, d2 in tiles:
        k, count = d2.shape
        top, b = lim[j : j + k], band[j : j + k]
        near = d2.min(1)
        cap = (near <= top).nonzero()[0]
        last = np.full(k, count)  # last candidate column, count for the whole row
        if cap.size:
            sub = d2 if cap.size == k else d2[cap]
            first = (sub <= top[cap, None]).argmax(1)
            at = np.arange(0, sub.size, count) + first
            # even slots: least d2 over columns [0, F) (d2 at F when F = 0)
            least = np.minimum.reduceat(sub.reshape(-1), np.stack([at - first, at], 1).reshape(-1))[::2]
            at_f = sub.reshape(-1)[at]
            near[cap] = np.where(least > 4.0 * top[cap] - 3.0 * b[cap], at_f, least)
            last[cap] = np.where(at_f > top[cap] - 2.0 * b[cap], count, first)
        seg = d2[:, : last.max(initial=0) + 1]
        row, col = np.divmod((seg <= (near + 2.0 * b)[:, None]).reshape(-1).nonzero()[0], seg.shape[1])
        kept = col <= last[row]
        found.append((row[kept] + j, col[kept], last))
    row, col, last = map(np.concatenate, zip(*found))
    return _decide(row, row.searchsorted(np.arange(len(last))), distances(row, col), col, R, d, len(last), count)


def _ball_assign_tree(part: BallCarvingPartition, pts: Array):
    """ball_assign over the centers the net's KD-tree finds within 2R of a
    point, widened by `_search_radius`: only they can capture it or bind its
    margin min(R - d(x, u), d(x, w) - R), as a farther earlier w has
    d(x, w) - R > R >= R - d(x, u). An off-support point with no center
    within 2R takes its nearest centers from a second query within its
    nearest-neighbour distance. Points go 4096 at a time.
    """
    if not len(pts):
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool), np.empty(0)
    net, R, ranks = part.net, part.radius, part.ranks
    count = len(net)
    reach = _search_radius(2.0 * R, pts, net.centers)
    out = []
    for i in range(0, len(pts), 4096):
        blk = pts[i : i + 4096]
        row, starts, dist, cand = _tree_pairs(net, blk, reach)
        pos, off, margins = _decide(row, starts, dist, ranks[cand], R, part.dim, len(blk), count)
        lost = (off & (np.bincount(row[dist <= 2.0 * R], minlength=len(blk)) == 0)).nonzero()[0]
        if lost.size:
            far = blk[lost]
            row, starts, dist, cand = _tree_pairs(net, far, _search_radius(net.tree.query(far)[0], far, net.centers))
            pos[lost] = _first_capture(row, starts, dist, ranks[cand], R, len(far), count)[0]
        out.append((part.order[pos], off, margins))
    return tuple(np.concatenate(a) for a in zip(*out))


def _tree_pairs(net: EpsilonNet, X: Array, r):
    """(row, starts, dist, center) of the pairs of X's points with the
    centers the net's KD-tree finds within r of them (a scalar or one
    radius per point), grouped by point as `_decide` takes them."""
    near = net.tree.query_ball_point(X, r, return_sorted=False)
    sizes = np.fromiter(map(len, near), dtype=np.intp, count=len(X))
    cand = np.fromiter(chain.from_iterable(near), dtype=np.intp, count=int(sizes.sum()))
    row = np.repeat(np.arange(len(X)), sizes)
    starts = (np.cumsum(sizes) - sizes)[sizes > 0]
    return row, starts, _direct_distances(X[row], net.centers[cand]), cand


def _decide(row, starts, dist, rank, R, d: int, n: int, count: int):
    """The carving rule: (position, off_support, margins) of n points in
    dimension d from candidate (point, center) pairs, which must hold every
    center that can capture a point, its nearest earlier ones (or all
    within 2R) and, off support, its nearest ones.

    row[i] is pair i's point, a point's pairs are contiguous and starts
    indexes each run's first pair (a point may have none); dist holds their
    direct-difference distances and rank their centers' carving positions
    (< count); R is a scalar or per point. Positions come from
    `_first_capture`. A margin is min(R - du, before - R) for the capturing
    center and the nearest earlier one, lowered by 2 (d + 4) R eps_machine,
    the rounding error of distances up to 2R and of the subtractions, and
    clipped at 0, so it never exceeds the exact margin; 0 off support.
    """
    Rp = R[row] if isinstance(R, np.ndarray) else R
    first, off = _first_capture(row, starts, dist, rank, Rp, n, count)
    # |dist - R| is R - du at the capturing center and d(x, w) - R at an
    # earlier w, with the bits of those differences; x - R rounds
    # monotonically, so the least of them is min(R - du, before - R)
    bind = np.abs(dist - Rp)
    bind[rank > first[row]] = np.inf
    m = np.full(n, np.inf)
    m[row[starts]] = np.minimum.reduceat(bind, starts)
    m -= 2.0 * (d + 4) * np.finfo(np.float64).eps * R
    return first, off, np.where(off, 0.0, np.maximum(m, 0.0))


def _first_capture(row, starts, dist, rank, R, n: int, count: int):
    """(position, off_support) of n points over candidate pairs as `_decide`
    takes them, R a scalar or per pair: the carving position of the first
    center with dist <= R or, off support, of the nearest center, the
    earliest in carving order among equal distances (count without
    pairs)."""
    seen = row[starts]
    first = np.full(n, count)
    first[seen] = np.minimum.reduceat(np.where(dist <= R, rank, count), starts)
    off = first == count
    if np.count_nonzero(off):
        least = np.full(n, np.inf)
        least[seen] = np.minimum.reduceat(dist, starts)
        nearest = np.minimum.reduceat(np.where(off[row] & (dist == least[row]), rank, count), starts)
        first[seen] = np.minimum(first[seen], nearest)
    return first, off


def ball_cell_member(part: BallCarvingPartition, cell: int, points) -> Array:
    """Exact cell membership test (no fallback): first capturing center == cell."""
    cells, off, _ = ball_assign(part, points)
    return (~off) & (cells == int(cell))


# ---------------------------------------------------------------------------
# family-free entry points


def cells_of(part, points):
    """Batch cell assignment. Cube: (n, d) int lattice coords. Ball: (n,) indices."""
    return part.cells(points)


def certificate_margins(part, points):
    """Batch (margins, off_support). Cube is never off support."""
    return part.margins(points)


def padding_certificate(part, x, t: float) -> PaddingCertificate:
    """Certificate for the open ball B_t(x): exact for cubes, sound for
    carvings (contained is never wrong, cut may be)."""
    if not (t >= 0):
        raise ValueError("t must be >= 0")
    margins, off = part.margins(np.asarray(x, dtype=np.float64)[None, :])
    status = OFF_SUPPORT if off[0] else CONTAINED if _contained(off, margins, t)[0] else CUT
    return PaddingCertificate(status=status, margin=float(margins[0]))


def _contained(off, margins, t):
    """Where the certificate vouches for B_t(x): on support with margin >= t."""
    return ~off & (margins >= t)


# ---------------------------------------------------------------------------
# empirical padding and separation-sensitivity estimates


@dataclass(frozen=True)
class PaddednessEstimate:
    """Monte-Carlo estimate of P[certificate != contained] at radius t."""

    value: float
    ci_low: float
    ci_high: float
    trials: int
    t: float


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)  # don't let rounding exclude 0
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


_BLOCK = 1 << 17
"""Entries (1 MB of float64) per array of the batched trial kernels that
the estimators fill at a time.

A block of trials ends before its points times the partitions' `_columns`
(the net size of a carving, d for a lattice) would pass it, and holds at
least one trial. The carving kernel peaks at about four such arrays (by
tracemalloc), so a block stays near 4 MB however many carvings a curve draws. Measured on 2
cores with one BLAS thread, carving-kernel time per two-point trial over
nets of 282 centers (d=2, unit square) and 2382 / 6340 centers (d=8, unit
ball), best of 5 over 400 trials: budgets of 16K entries 15.7 / 111 / 293 us, 32K 13.2 / 93 / 219
us, 64K 11.8 / 84 / 175 us, 128K 11.0 / 78 / 158 us, 256K 16.9 / 155 /
365 us; the largest budget whose arrays stay in a 2 MB L2 cache wins.
"""


def _trial_blocks(family, draw, trials: int, rng: np.random.Generator):
    """Draw `trials` trials in order, each a partition family(rng) and then
    its points draw(rng), and answer them a block at a time.

    Yields, for each group of a block's trials that share a net (for
    lattices, a dimension), the `_assign_trials` outputs (cells,
    off_support, margins) of every trial's points under its own partition,
    shaped (trials, points per trial[, d]). The geometry is the only thing
    batched: the draws keep their order, and a block's partitions are
    dropped once it is answered.
    """
    block, used = [], 0
    for _ in range(trials):
        part = family(rng)
        x = np.asarray(draw(rng), dtype=np.float64)
        x = x.reshape(-1, x.shape[-1])
        cost = len(x) * part._columns
        if block and used + cost > _BLOCK:
            yield from _assign_block(block)
            block, used = [], 0
        block.append((part, x))
        used += cost
    if block:
        yield from _assign_block(block)


def _assign_block(block):
    groups: dict = {}
    for part, x in block:
        groups.setdefault(part._group, []).append((part, x))
    for members in groups.values():
        parts = [part for part, _ in members]
        pts = np.stack([x for _, x in members])
        flat = _points_of(parts[0], pts.reshape(-1, pts.shape[-1]))
        yield parts[0]._assign_trials(parts, flat.reshape(pts.shape))


def estimate_paddedness(family, data, t: float, trials: int, rng: np.random.Generator) -> PaddednessEstimate:
    """Frequency of non-contained certificates over iid (partition, point) pairs.

    family(rng) -> partition instance, data(rng) -> point, drawn in that
    order trial after trial. The certificates, those of
    padding_certificate, are computed in blocks of trials by one batched
    call per net (per lattice dimension). Off-support counts as not
    contained (conservative).
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not (t >= 0):
        raise ValueError("t must be >= 0")
    bad = 0
    for _, off, margins in _trial_blocks(family, data, trials, rng):
        bad += int(np.count_nonzero(~_contained(off, margins, t)))
    lo, hi = wilson_interval(bad, trials)
    return PaddednessEstimate(value=bad / trials, ci_low=lo, ci_high=hi, trials=trials, t=t)


@dataclass(frozen=True)
class LipschitzCurve:
    """Separation probability as a function of pair distance.

    points: list of (distance, probability, ci_low, ci_high).
    slope: least-squares fit of probability ~ slope * distance / epsilon.
    """

    points: tuple
    slope: float
    epsilon: float


def estimate_lipschitz_constant(
    family,
    pair_sampler,
    distances,
    trials: int,
    rng: np.random.Generator,
    *,
    epsilon: float,
) -> LipschitzCurve:
    """Estimate P[pair lands in different cells] at controlled distances.

    pair_sampler(rng, dist) -> (x, x') with ||x - x'|| ~= dist. A fresh
    partition is drawn for every trial, before its pair. The cells are
    computed in blocks of trials by one batched call per net (per lattice
    dimension), with the draws in their order. Distances must be finite
    and >= 0 (at least one), epsilon finite and > 0.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    dists = [float(dist) for dist in distances]
    if not dists:
        raise ValueError("distances must not be empty")
    if not all(math.isfinite(dist) and dist >= 0 for dist in dists):
        raise ValueError(f"distances must be finite and >= 0, got {dists!r}")
    curve = []
    xs, ys = [], []
    for dist in dists:
        hits = 0
        for cells, _, _ in _trial_blocks(family, lambda r: pair_sampler(r, dist), trials, rng):
            hits += int(np.count_nonzero((cells[:, 0] != cells[:, 1]).reshape(len(cells), -1).any(axis=1)))
        lo, hi = wilson_interval(hits, trials)
        p = hits / trials
        curve.append((dist, p, lo, hi))
        xs.append(dist / epsilon)
        ys.append(p)
    xs_arr = np.asarray(xs)
    ys_arr = np.asarray(ys)
    denom = float(np.sum(xs_arr * xs_arr))
    slope = float(np.sum(xs_arr * ys_arr) / denom) if denom > 0 else float("nan")
    return LipschitzCurve(points=tuple(curve), slope=slope, epsilon=float(epsilon))


# ---------------------------------------------------------------------------
# serialization (floats round-trip exactly through repr/json)


def partition_from_dict(payload: dict):
    family = payload.get("family")
    if family == "cube":
        return CubePartition(
            epsilon=float(payload["epsilon"]),
            dim=int(payload["dim"]),
            shift=np.asarray(payload["shift"], dtype=np.float64),
            seed=payload.get("seed"),
        )
    if family == "ball_carving":
        net = EpsilonNet(
            centers=np.asarray(payload["net"]["centers"], dtype=np.float64),
            epsilon=float(payload["net"]["epsilon"]),
            source_count=int(payload["net"]["source_count"]),
        )
        return BallCarvingPartition(
            net=net,
            epsilon=float(payload["epsilon"]),
            radius=float(payload["radius"]),
            order=np.asarray(payload["order"], dtype=np.int64),
            seed=payload.get("seed"),
        )
    raise ValueError(f"unknown partition family {family!r}")


def save_partition(path, part) -> None:
    Path(path).write_text(json.dumps(part.to_dict(), indent=1, sort_keys=True))


def load_partition(path):
    return partition_from_dict(json.loads(Path(path).read_text()))
