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
(key_cells) and _probe_view(X, move), the probe attack's one view of the
partition on its sample: cells, certificate, the cells of probes and the
guided rounds. The module functions cells_of, certificate_margins and
padding_certificate forward to them for either family.

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
least 64 points in dimension <= 4 (`_Candidates`, whose kNN query runs only
for rows with fewer than k centers within reach), every center for one
point, else a filter of one Gram product per row tile within a
forward-error band that stops a captured row at its first capture
(`_gram_decide`). The query game and the probe attack keep a fixed point
set's `_Candidates` for all their rounds. The Gram filter is one lift of
points and centers less the net's first center (`_gram_lift`), in float32
when every band is below R^2 / 16, else in float64; its precision changes
only which pairs are proposed. All of them return the same bits, and none
meets a float64 square that overflows: `as_points` bounds every coordinate.

The Monte-Carlo estimators (estimate_paddedness, estimate_lipschitz_constant)
draw a fresh partition and point or pair per trial, in the order of a
per-trial loop, and batch only the geometry: a block of trials (sized by
`_TILE`) is answered by one `_assign_trials` call per net, or per lattice
dimension. For lattices that call applies the per-partition formulas to
stacked shifts and widths, for carvings it filters one Gram product
against the net as the dense kernel does; both give the bits of one call
per trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

from .geometry import (
    _TILE,
    _TREE_MAX_DIM,
    _TREE_MIN_BATCH,
    Array,
    EpsilonNet,
    _ceil,
    _gram_lift,
    _positive_finite,
    _search_radius,
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
        _positive_finite(self.epsilon, "epsilon")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        s = np.asarray(self.shift, dtype=np.float64)
        if s.shape != (self.dim,):
            raise ValueError(f"shift must have shape ({self.dim},)")
        if not ((s >= 0) & (s < self.width)).all():  # False on NaN too
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
        # shift + (cells + 0.5) * width in one array, not four: fresh arrays
        # of this size cost page faults (addition commutes, so the same bits)
        out = np.add(cells, 0.5, dtype=np.float64)
        out *= self.width
        out += self.shift
        return out

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

    def _probe_view(self, points, move: float):
        """What the probe attack reads of the lattice on its sample X:
        (cells, off_support, margins, cells_at, guided). cells_at(rows, Y)
        is cells(Y) for any probes Y, and the one guided round pushes X[rows]
        along the axis of each point's nearest cell face, toward that face."""
        X = _points_of(self, points)
        margins, off = self.margins(X)

        def nearest_face(rows):
            u = (X[rows] - self.shift) % self.width
            j = np.argmin(np.minimum(u, self.width - u), axis=1)
            at = np.arange(len(rows))
            D = np.zeros_like(u)
            D[at, j] = np.where(u[at, j] <= self.width - u[at, j], -1.0, 1.0)
            return D

        return self.cells(X), off, margins, lambda rows, Y: self.cells(Y), [nearest_face]


def _lattice_cells(pts, shift, width) -> Array:
    """int64 cells floor((x - shift) / width), or ValueError where one
    would leave int64, [-2^63, 2^63)."""
    with np.errstate(over="ignore"):  # inf fails the check below
        cells = np.floor((pts - shift) / width)
    if not (-(2.0**63) <= cells.min(initial=0.0) and cells.max(initial=0.0) < 2.0**63):
        raise ValueError("points lie too far from the lattice origin for int64 cell coordinates")
    return cells.astype(np.int64)


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
    _positive_finite(epsilon, "epsilon")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    epsilon, dim = float(epsilon), int(dim)
    # random() * width < width, so the draw needs none of __post_init__'s
    # checks, which would cost about half of each draw
    part = object.__new__(CubePartition)
    part.__dict__.update(epsilon=epsilon, dim=dim, shift=rng.random(dim) * (epsilon / math.sqrt(dim)), seed=None)
    return part


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
        _positive_finite(self.epsilon, "epsilon")
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

        One product of the `_gram_lift` rows against the net's columns
        gives every row's Gram squared distances. Each trial's rows are
        gathered into its own carving's order and go through `_gram_decide`
        with its R. The Gram entries only pick candidates, so the results
        are the bits of one call per trial.
        """
        net = parts[0].net
        count = len(net)
        trials, p, d = pts.shape
        orders = np.stack([q.order for q in parts])
        R = np.repeat([q.radius for q in parts], p)
        X = pts.reshape(-1, d)
        rows, band, cols = _gram_lift(X, net.centers[0], R * R, net.lifted, net.lifted32)
        d2 = rows @ cols
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

    def _probe_view(self, points, move: float):
        """What the probe attack reads of the carving on its sample X, whose
        probes lie within `move` of it: (cells, off_support, margins,
        cells_at, guided). The first three are ball_assign(self, X);
        cells_at(rows, Y) is cells(Y) for points Y[i] within move of
        X[rows[i]]; the guided rounds push X[rows] out of its assigned ball,
        then toward its second-nearest center, the second in order of
        (direct distance, center index).

        Where ball_assign would take X down the tree path, X's candidate
        pairs are taken once (`_Candidates`, reach 2R, k = 2) and decide all
        of them, so a probe round needs no neighbour search. Elsewhere X is
        one ball_assign, each batch of probes another, and the second
        centers come from the Gram filter (`_second_nearest_gram`).
        """
        X = _points_of(self, points)
        if _tree_batch(self, len(X)):
            pairs = _Candidates(self.net, X, 2.0 * self.radius, 2, move)
            cells, off, margins = pairs.assign(self)
            cells_at, second = lambda rows, Y: pairs.cells(self, rows, _points_of(self, Y)), pairs.second
        else:
            cells, off, margins = ball_assign(self, X)
            cells_at, second = lambda rows, Y: self.cells(Y), lambda rows: _second_nearest_gram(self.net, X[rows])
        centers = self.net.centers
        guided = [lambda rows: _unit_rows(X[rows] - centers[cells[rows]]),
                  lambda rows: _unit_rows(centers[second(rows)] - X[rows])]
        return cells, off, margins, cells_at, guided


def sample_ball_carving(net: EpsilonNet, epsilon: float, rng: np.random.Generator) -> BallCarvingPartition:
    """Draw radius uniform on (epsilon/4, epsilon/2] and a uniform center order."""
    if abs(net.epsilon - epsilon / 4.0) > 1e-9 * epsilon:
        raise ValueError(f"net spacing {net.epsilon} does not match epsilon/4 = {epsilon / 4.0}")
    radius = epsilon / 4.0 + (1.0 - rng.random()) * (epsilon / 4.0)  # (eps/4, eps/2]
    # a fresh permutation needs none of __post_init__'s checks, whose
    # bincount would be paid on every draw
    part = object.__new__(BallCarvingPartition)
    part.__dict__.update(net=net, epsilon=float(epsilon), radius=float(radius), order=rng.permutation(len(net)),
                         seed=None)
    return part


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
    centers from the net's KD-tree, 4096 points at a time so the pairs held
    at once stay bounded: `_Candidates` with reach 2R and k = 1, whose kNN
    query runs only for the off-support rows with no center within 2R.
    Everything else goes to `_ball_assign_dense` (every center for one
    point, else a Gram filter). All hand their pairs to `_decide`, so all
    return the same bits.
    """
    pts = _points_of(part, points)
    if not _tree_batch(part, len(pts)):
        return _ball_assign_dense(part, pts)
    blocks = [_Candidates(part.net, pts[i : i + 4096], 2.0 * part.radius, 1).assign(part)
              for i in range(0, len(pts), 4096)]
    return tuple(np.concatenate(a) for a in zip(*blocks))


def _tree_batch(part: BallCarvingPartition, n: int) -> bool:
    """Whether ball_assign takes a batch of n points down the tree path."""
    return part.dim <= _TREE_MAX_DIM and n >= _TREE_MIN_BATCH


def _direct_distances(A, B):
    """Distances |A - B| over the last axis, A and B broadcast, by direct
    differences: the only distances a carving decision reads."""
    diff = A - B
    return np.sqrt(np.einsum("...j,...j->...", diff, diff))


def _ball_assign_dense(part: BallCarvingPartition, pts: Array):
    """ball_assign with candidate pairs from Gram-expansion distances to
    every center in carving order, decided by `_gram_decide`: each row tile
    of about _TILE entries is one product of `_gram_lift` rows into one
    reused buffer."""
    net, order, R = part.net, part.order, part.radius
    count, n, d = len(net), len(pts), part.dim
    if n == 1:
        # one point: direct distances to every center cost less than a Gram filter
        row = np.zeros(count, dtype=np.intp)
        pos, off, margins = _decide(row, row[:1], _direct_distances(net.centers, pts), part.ranks, R, d, 1, count)
        return order[pos], off, margins
    rows, band, cols = _gram_lift(pts, net.centers[0], R * R, net.lifted, net.lifted32)
    cols = cols[:, order]  # columns in carving order
    step = max(1, _TILE // count)
    buf = np.empty((min(step, n), count), dtype=rows.dtype)
    tiles = ((j, np.matmul(rows[j : j + step], cols, out=buf[: min(step, n - j)]))
             for j in range(0, max(n, 1), step))  # one empty tile when n == 0
    pos, off, margins = _gram_decide(tiles, R, band, d, lambda row, col: _direct_distances(
        pts[row], net.centers[order[col]]))
    return order[pos], off, margins


def _gram_decide(tiles, R, band, d: int, distances):
    """`_decide` of points x in dimension d from tiles (j, d2) of their Gram
    squared distances (rows j, j + 1, ..., C-contiguous, columns in carving
    order, float32 or float64), on the direct distances(row, col) of
    candidate pairs; R is a scalar or per point, band per point from
    `_gram_lift`.

    Each d2 lies within band / 2 of the exact square, and the band covers
    the rounding of direct differences too. So a row is captured exactly
    when its least d2 is at most R^2 + band. Off support its candidates are
    the columns within 2 band of that least d2, its nearest centers.
    Captured, they are F, its first column with d2 <= R^2 + band, and the
    columns before F within 2 band of their least d2 (none when that is
    above 4R^2 + band, beyond 2R): every center that can capture x and its
    nearest earlier ones within 2R. A row whose d2 at F is within the band
    of R^2, so that the direct test may reject F, also keeps the columns
    after F within its threshold, which is then above R^2 + band: they hold
    every later center that can capture x and its nearest centers. A tile
    compares columns only up to its last candidate column, so when every
    row is captured beyond the band of R it stops at the largest F.

    The two compares over a whole tile take their thresholds in the tile's
    dtype, rounded up (`_ceil`): they propose every pair the float64
    compares would, and at most the columns whose d2 is the rounded
    threshold besides. Such an F has d2 above R^2 + band, so the direct
    test rejects it and the row keeps its later columns, as above. The
    per-row compares run in float64. Whatever the tile's dtype, direct
    differences decide every capture and margin.
    """
    lim = R * R + band
    found, ceil = [], None
    for j, d2 in tiles:
        k, count = d2.shape
        if ceil is None:  # the tiles share one dtype
            ceil = _ceil(lim, d2.dtype)
        top, b = lim[j : j + k], band[j : j + k]
        near = d2.min(1)
        cap = (near <= top).nonzero()[0]
        last = np.full(k, count)  # last candidate column, count for the whole row
        if cap.size:
            sub = d2 if cap.size == k else d2[cap]
            first = (sub <= ceil[j : j + k][cap, None]).argmax(1)
            at = np.arange(0, sub.size, count) + first
            # even slots: least d2 over columns [0, F) (d2 at F when F = 0)
            least = np.minimum.reduceat(sub.reshape(-1), np.stack([at - first, at], 1).reshape(-1))[::2]
            at_f = sub.reshape(-1)[at]
            near[cap] = np.where(least > 4.0 * top[cap] - 3.0 * b[cap], at_f, least)
            last[cap] = np.where(at_f > top[cap] - 2.0 * b[cap], count, first)
        seg = d2[:, : last.max(initial=0) + 1]
        row, col = np.divmod((seg <= _ceil(near + 2.0 * b, d2.dtype)[:, None]).reshape(-1).nonzero()[0], seg.shape[1])
        kept = col <= last[row]
        found.append((row[kept] + j, col[kept], last))
    row, col, last = map(np.concatenate, zip(*found))
    return _decide(row, row.searchsorted(np.arange(len(last))), distances(row, col), col, R, d, len(last), count)


def _tree_pairs(net: EpsilonNet, X: Array, r):
    """(row, starts, dist, center) of the pairs of X's points with the
    centers within r of them (a scalar or one radius per point), grouped by
    point as `_decide` takes them, with their direct distances.

    Each band of points whose radii share a binary exponent, so lie within a
    factor 2, is one dual-tree query of a tree over them against the net's
    at the band's largest radius (`cKDTree.sparse_distance_matrix`), and
    each point keeps the pairs whose tree distance is within its own radius:
    those of `net.tree.query_ball_point` at that radius, plus at most pairs
    whose tree distance rounds to exactly it. One far-off point does not
    make the others pay its radius. One stable argsort groups the pairs.
    """
    r = np.broadcast_to(np.asarray(r, dtype=np.float64), (len(X),))
    band = np.frexp(r)[1]
    row, cand = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for b in np.unique(band):
        sel = (band == b).nonzero()[0]
        # leaves of 8, not 16: a small scattered batch's tree prunes more, and 4096 points take as long
        found = cKDTree(X[sel], leafsize=8).sparse_distance_matrix(net.tree, r[sel].max(), output_type="ndarray")
        found = found[found["v"] <= r[sel][found["i"]]]
        row.append(sel[found["i"]])
        cand.append(found["j"])
    row, cand = np.concatenate(row), np.concatenate(cand)
    by = np.argsort(row, kind="stable")
    row, cand = row[by], cand[by]
    sizes = np.bincount(row, minlength=len(X))
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


def _second_nearest(row, starts, dist, cand):
    """The second-nearest center of each point over candidate pairs grouped
    as `_decide` takes them, every point with a pair: the second in order of
    (direct distance, center index), so the lower index on an exact tie; the
    nearest where a point has one pair. The pairs must hold every center as
    near as the second."""

    def least(dist):
        near = np.minimum.reduceat(dist, starts)
        return np.minimum.reduceat(np.where(dist == near[row], cand, np.iinfo(np.intp).max), starts)

    return least(np.where(cand == least(dist)[row], np.inf, dist))


def _second_nearest_gram(net: EpsilonNet, X: Array):
    """`_second_nearest` of points X over the centers whose Gram squared
    distance is within 2 band of the row's second least, in row tiles of
    about _TILE entries. The filter is `_gram_lift`'s about the net's first
    center, float32 where its bands are below epsilon^2 / 16. The two least
    d2 are within band of their direct squares, and so is every other
    center's, so the proposed columns hold every center as near as the
    second by direct differences."""
    rows, band, cols = _gram_lift(X, net.centers[0], net.epsilon**2, net.lifted, net.lifted32)
    step = max(1, _TILE // len(net))
    found = []
    for j in range(0, max(len(X), 1), step):  # one empty tile when X is
        d2 = rows[j : j + step] @ cols
        at, low = np.arange(len(d2)), d2.argmin(1)
        least = d2[at, low]
        d2[at, low] = np.inf  # the second least is the least of the rest
        lim = _ceil(d2.min(1) + 2.0 * band[j : j + step], d2.dtype)
        d2[at, low] = least
        row, col = (d2 <= lim[:, None]).nonzero()
        found.append((row + j, col))
    row, col = map(np.concatenate, zip(*found))
    starts = np.flatnonzero(np.diff(row, prepend=-1))
    return _second_nearest(row, starts, _direct_distances(X[row], net.centers[col]), col)


class _Candidates:
    """Candidate pairs of a fixed point set X over a net, taken once: every
    center within max(reach, d_k(x)) + 2 move of each point x, d_k(x) its
    distance to its k-th nearest center, widened by `_search_radius` for
    points up to `move` from X (`_tree_pairs`), with their direct distances.
    One pair query at reach + 2 move serves every row with k centers within
    reach; the kNN query and a second pair query run only for the others.

    Every center that can capture a point y within move of x lies within
    R + move of x, and y's nearest centers within d_1(x) + 2 move. So with
    reach at least the largest R the pairs decide the cells of X under any
    carving over the net, and of such points y under one (`cells`), by
    `_first_capture`. The query game keeps its pool fixed and changes the
    carving; the probe attack keeps the carving fixed and moves the points.
    With reach 2R they hold every earlier center within 2R too, so
    `assign` gives X's margins (ball_assign's tree path), and with k = 2 its
    second-nearest centers (`second`).
    """

    def __init__(self, net: EpsilonNet, X: Array, reach: float, k: int, move: float = 0.0):
        row, _, dist, cand = _tree_pairs(net, X, _search_radius(reach + 2.0 * move, np.abs(X) + move, net.centers))
        lost = np.bincount(row[dist <= reach], minlength=len(X)) < k
        if lost.any():  # their pairs make way for those of a query at d_k(x)
            far = lost.nonzero()[0]
            near = net.tree.query(X[far], k=[min(k, len(net))])[0][:, 0]
            r = _search_radius(np.maximum(reach, near) + 2.0 * move, np.abs(X[far]) + move, net.centers)
            more_row, _, more_dist, more_cand = _tree_pairs(net, X[far], r)
            keep = ~lost[row]
            by = np.argsort(np.concatenate([row[keep], far[more_row]]), kind="stable")
            row, dist, cand = (np.concatenate([a[keep], b])[by] for a, b in
                               ((row, far[more_row]), (dist, more_dist), (cand, more_cand)))
        self.net, self.n, self.row, self.dist, self.cand = net, len(X), row, dist, cand
        self.sizes = np.bincount(row, minlength=self.n)
        self.begin = np.cumsum(self.sizes) - self.sizes
        self.starts = self.begin[self.sizes > 0]

    def _of(self, rows):
        """(row, starts, pairs, n) of the pairs of X[rows], renumbered
        0 .. len(rows) - 1, or of all of X when rows is None."""
        if rows is None:
            return self.row, self.starts, slice(None), self.n
        sizes = self.sizes[rows]
        start = np.cumsum(sizes) - sizes
        pairs = np.repeat(self.begin[rows] - start, sizes) + np.arange(sizes.sum())
        return np.repeat(np.arange(len(rows)), sizes), start[sizes > 0], pairs, len(rows)

    def cells(self, part: BallCarvingPartition, rows=None, Y=None) -> Array:
        """part.cells(X), or part.cells(Y) of points Y[i] within move of
        X[rows[i]]."""
        row, starts, pairs, n = self._of(rows)
        cand = self.cand[pairs]
        dist = self.dist[pairs] if Y is None else _direct_distances(Y[row], self.net.centers[cand])
        return part.order[_first_capture(row, starts, dist, part.ranks[cand], part.radius, n, len(self.net))[0]]

    def assign(self, part: BallCarvingPartition):
        """ball_assign(part, X), for a reach of at least 2R."""
        pos, off, margins = _decide(self.row, self.starts, self.dist, part.ranks[self.cand], part.radius, part.dim,
                                    self.n, len(self.net))
        return part.order[pos], off, margins

    def second(self, rows) -> Array:
        """Second-nearest centers of X[rows] (`_second_nearest`), for k = 2."""
        row, starts, pairs, _ = self._of(rows)
        return _second_nearest(row, starts, self.dist[pairs], self.cand[pairs])


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


def _trial_blocks(family, draw, trials: int, rng: np.random.Generator):
    """Draw `trials` trials in order, each a partition family(rng) and then
    its points draw(rng), and answer them a block at a time.

    A block ends before its points times the partitions' `_columns` (the
    net size of a carving, d for a lattice) would pass `_TILE` entries, and
    holds at least one trial. The carving kernel peaks at about four arrays
    of that size (by tracemalloc), so a block stays near 4 MB however many
    carvings a curve draws.

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
        if block and used + cost > _TILE:
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
    _positive_finite(epsilon, "epsilon")
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
