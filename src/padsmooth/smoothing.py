"""Partition smoothing of black-box classifiers and the sampling schemes
that estimate it.

The smoothed classifier g assigns every partition cell the sign of the
conditional mean of f over the data distribution restricted to that cell,
so g is constant on cells by construction. Cells that never receive a
conditional sample fall back to the base classifier evaluated at a
deterministic anchor, which keeps g total and still piecewise constant. A
cube's anchor is its center, inside the cell. A carved cell's anchor is
its net center, which lies outside the cell whenever an earlier ball
captures it: in 26% of the occupied cells of a d=2 circles carving and
35% of a d=3 spheres carving. There the fallback label is f at a point of
another cell.

The classifier keeps its cells in one table of arrays sorted by cell key
(a cube cell's uint64 fingerprint, a carved cell's center index) and
looks queries up with np.searchsorted, so no path that builds, tallies or
evaluates cells makes a Python object per cell. A cube cell's int64 row
is stored beside its fingerprint and confirms every match the
fingerprint proposes; distinct rows with one fingerprint are ordered and
matched by their row bytes, so a fingerprint collision costs time but
never changes an output. The cell_labels, sample_counts and
flagged_cells dicts are views of the table, built on first access;
assigning cell_labels rebuilds the table.

Estimators:

* smooth_exact: draws from the task until every touched cell has a vote
  quota (or a draw cap runs out); the reference implementation.
* scheme A: one pass over a fixed unlabeled pool, majority vote of f per
  cell. scheme_a_sample_size gives the pool budget under which every cell
  of mass >= risk_f / cells receives a logarithmic number of votes.
* scheme B: votes f on uniform in-cell samples; exact per-coordinate
  sampling for cube cells (a counter-based hash of the cell), hit-and-run
  for carved cells (walks that start at uniform draws from the cell's
  ball that fall in the cell, from a cell-keyed stream). Labels are
  resolved when a query first reaches a cell, all fresh cells of an
  evaluate call with one base call, and depend only on the base seed and
  the cell: neither query order nor batching changes them, for either
  family. A carved cell that no start draw hits is flagged and gets the
  fallback label, f at its anchor.

gaussian_smoothing builds the noise-based baselines: plain majority vote
under N(0, sigma^2 I), or the density-weighted variant that reweights a
pool of task samples by the Gaussian kernel around the query.
"""

from __future__ import annotations

import math
import numbers
from itertools import compress
from typing import Callable

import numpy as np

from . import rng as rngmod
from .geometry import _lifted, _positive_finite, _search_radius, _sq_distances, as_points
from .partitions import CubePartition, _direct_distances, _tree_pairs, partition_from_dict
from .tasks import BlackBoxClassifier, Task


def _sgn(values) -> np.ndarray:
    """Sign with the +1 tie convention."""
    return np.where(np.asarray(values) >= 0, 1, -1).astype(np.int8)


class SmoothedClassifier:
    """Piecewise-constant classifier over a partition.

    The cell table is five aligned arrays in table order (see _distinct):
    the keys (a cube cell's uint64 fingerprint, a carved cell's int64
    center index), the cells (a cube cell's (d,) int64 row; a carving's
    keys again), int8 labels, int64 vote counts (-1 where none is
    recorded) and a bool mask of the cells that missed their vote quota
    (scheme B: a stuck walk, or no start found and the anchor fallback).
    evaluate finds cells with np.searchsorted on the keys and confirms a
    cube cell's match on its row, so cells are equal exactly when their
    rows are; unknown cells are labeled by the base classifier at the
    cell anchor.

    cell_labels, sample_counts and flagged_cells are dict and set views of
    the table, keyed by tuples of ints for cubes and ints for carvings.
    They are built on first access and cached until the table changes, so
    editing a view's dict does not reach the table. Assigning a mapping to
    cell_labels rebuilds the table, keeping the counts and flags of the
    cells it still holds. The constructor rejects labels other than -1 and
    +1, counts that are not integers in [0, 2^63), keys that are not cells
    of the partition, and counts or flags of cells without a label.

    A scheme-B classifier resolves fresh cells into the classifier that
    evaluate is called on, so a copy.copy resolves into its own table and
    leaves the original's as it was.
    """

    def __init__(
        self,
        partition,
        cell_labels: dict,
        base: BlackBoxClassifier | None,
        scheme: str,
        sample_counts: dict | None = None,
        flagged_cells: set | None = None,
        provenance: dict | None = None,
    ):
        self.partition = partition
        self.base = base
        self.scheme = scheme
        self.provenance = dict(provenance or {})
        self._lazy_resolver = None  # scheme B: resolver(clf, keys, cells) -> labels
        self._set_table(*_table_of(partition, cell_labels, sample_counts or {}, flagged_cells or ()))

    @classmethod
    def _of_table(cls, partition, table, base, scheme: str, provenance: dict) -> "SmoothedClassifier":
        """A classifier over (keys, cells, labels, counts, flagged) arrays,
        cells distinct and in table order."""
        clf = cls(partition, {}, base, scheme, provenance=provenance)
        clf._set_table(*table)
        return clf

    def _set_table(self, keys, cells, labels, counts, flagged) -> None:
        self._keys, self._cells, self._labels, self._counts, self._flagged = keys, cells, labels, counts, flagged
        self._views = {}  # replaced, never cleared: a shallow copy may share the old one

    def _insert(self, keys, cells, labels, counts, flagged) -> None:
        """Add cells that are not in the table, distinct and in table
        order, at the positions _find gives them."""
        at, _ = _find(self._keys, self._cells, keys, cells)
        old = (self._keys, self._cells, self._labels, self._counts, self._flagged)
        new = (keys, cells, labels, counts, flagged)
        self._set_table(*(np.insert(a, at, v, axis=0) for a, v in zip(old, new)))

    @property
    def cell_count(self) -> int:
        """Cells in the table."""
        return len(self._keys)

    # -- dict views ---------------------------------------------------

    def _view(self, name: str, build):
        views = self._views
        if name not in views:
            if "keys" not in views:  # one list of key objects for all three views
                cells = self._cells
                views["keys"] = list(map(tuple, cells.tolist())) if cells.ndim == 2 else cells.tolist()
            views[name] = build(views["keys"])
        return views[name]

    @property
    def cell_labels(self) -> dict:
        return self._view("labels", lambda keys: dict(zip(keys, self._labels.tolist())))

    @cell_labels.setter
    def cell_labels(self, mapping) -> None:
        counts = {k: c for k, c in self.sample_counts.items() if k in mapping}
        flagged = [k for k in self.flagged_cells if k in mapping]
        self._set_table(*_table_of(self.partition, mapping, counts, flagged))

    @property
    def sample_counts(self) -> dict:
        return self._view(
            "counts", lambda keys: {k: c for k, c in zip(keys, self._counts.tolist()) if c >= 0}
        )

    @property
    def flagged_cells(self) -> set:
        return self._view("flagged", lambda keys: set(compress(keys, self._flagged.tolist())))

    # -- evaluation ---------------------------------------------------

    def evaluate(self, points) -> np.ndarray:
        return self._label_cells(self.partition.cells(points))

    def _label_cells(self, cells) -> np.ndarray:
        """Labels of rows of partition cells: one table lookup per distinct
        cell, and the fresh cells to the lazy resolver, else to the base
        classifier at their anchors, in one call."""
        keys, cells, inverse = _distinct(*_keyed(cells))
        at, known = _find(self._keys, self._cells, keys, cells)
        labels = np.empty(len(keys), dtype=np.int8)
        labels[known] = self._labels[at[known]]
        fresh = ~known
        if fresh.any():
            if self._lazy_resolver is not None:
                labels[fresh] = self._lazy_resolver(self, keys[fresh], cells[fresh])
            elif self.base is None:
                raise RuntimeError("unseen cells and no base classifier for fallback")
            else:
                labels[fresh] = self.base(self.partition.anchor(cells[fresh]))
        return labels[inverse]

    # -- serialization ------------------------------------------------

    def to_dict(self) -> dict:
        text = self.partition.key_to_text
        return {
            "partition": self.partition.to_dict(),
            "cell_labels": {text(k): int(v) for k, v in self.cell_labels.items()},
            "sample_counts": {text(k): int(v) for k, v in self.sample_counts.items()},
            "flagged_cells": [text(k) for k in sorted(self.flagged_cells)],
            "scheme": self.scheme,
            "fallback": "base_at_anchor",
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, payload: dict, base: BlackBoxClassifier | None = None) -> "SmoothedClassifier":
        part = partition_from_dict(payload["partition"])
        key = part.key_from_text
        return cls(
            partition=part,
            cell_labels={key(k): int(lab) for k, lab in payload["cell_labels"].items()},
            base=base,
            scheme=payload.get("scheme", "exact"),
            sample_counts={key(k): c for k, c in payload.get("sample_counts", {}).items()},
            flagged_cells={key(k) for k in payload.get("flagged_cells", [])},
            provenance=payload.get("provenance", {}),
        )


_GAMMA = np.uint64(0x9E3779B97F4A7C15)  # splitmix64 increment, 2^64 / golden ratio


def _mix64(z):
    """splitmix64's output function on a uint64 array, wrapping."""
    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> 31)


def _fingerprints(rows) -> np.ndarray:
    """uint64 fingerprint of each (d,) int64 cube row: one wrapping
    multiply-add of its coordinates with odd splitmix64 weights, through
    _mix64. Distinct rows may share one; the table then decides on rows."""
    weights = _mix64(np.arange(1, rows.shape[1] + 1, dtype=np.uint64) * _GAMMA) | np.uint64(1)
    return _mix64(rows.view(np.uint64) @ weights)


def _keyed(cells) -> tuple:
    """(keys, cells) of part.cells rows: a carving's int64 center indices
    are their own keys; cube rows, made contiguous int64, are keyed by
    their fingerprints."""
    if cells.ndim == 1:
        cells = cells.astype(np.int64, copy=False)
        return cells, cells
    cells = np.ascontiguousarray(cells, dtype=np.int64)
    return _fingerprints(cells), cells


def _row_order(keys, cells) -> np.ndarray:
    """One np.void per cube cell whose bytewise order is the table order:
    the fingerprint big-endian, then the row's bytes."""
    n, d = cells.shape
    both = np.concatenate(
        (keys.astype(">u8").view(np.uint8).reshape(n, 8), cells.view(np.uint8).reshape(n, 8 * d)), axis=1
    )
    return both.view(np.dtype((np.void, 8 + 8 * d))).reshape(n)


def _distinct(keys, cells):
    """(keys, cells, inverse): the distinct cells of keyed cells (see
    _keyed) in table order, and the position of every input among them.

    Table order is key order; cube cells that share a fingerprint follow
    the byte order of their rows (_row_order). Rows that share a
    fingerprint are compared, so two cells are one exactly when their
    rows are equal.
    """
    if cells.ndim == 1:
        keys, inverse = np.unique(keys, return_inverse=True)
        return keys, keys, inverse
    order = np.argsort(keys)
    sorted_keys = keys[order]
    lead = np.ones(len(keys), dtype=bool)  # first of its fingerprint in sorted order
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=lead[1:])
    twin = np.flatnonzero(~lead[1:])  # order[twin + 1] has the fingerprint of order[twin]
    if not (cells[order[twin]] == cells[order[twin + 1]]).all():  # a collision: sort by rows too
        _, first, inverse = np.unique(_row_order(keys, cells), return_index=True, return_inverse=True)
        return keys[first], cells[first], inverse
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.cumsum(lead) - 1
    return sorted_keys[lead], cells[order[lead]], inverse


def _find(table_keys, table_cells, keys, cells):
    """(at, found): the position of each keyed cell in a table in table
    order (where an absent cell would be inserted) and whether it is
    there. A key match is confirmed on the rows for cube cells; where the
    rows differ, the cell is searched for by (fingerprint, row bytes)."""
    at = np.searchsorted(table_keys, keys)
    found = np.zeros(len(keys), dtype=bool)
    if not len(table_keys):
        return at, found
    hit = np.flatnonzero(table_keys[np.minimum(at, len(table_keys) - 1)] == keys)
    if cells.ndim == 1:
        found[hit] = True
        return at, found
    found[hit] = (table_cells[at[hit]] == cells[hit]).all(axis=1)
    clash = hit[~found[hit]]
    if len(clash):
        table, query = _row_order(table_keys, table_cells), _row_order(keys[clash], cells[clash])
        at[clash] = np.searchsorted(table, query)
        found[clash] = table[np.minimum(at[clash], len(table) - 1)] == query
    return at, found


def _table_of(part, cell_labels, sample_counts, flagged_cells) -> tuple:
    """(keys, cells, labels, counts, flagged) arrays of the dict form, in
    table order; ValueError on what the table cannot hold."""
    labels = np.array(list(cell_labels.values()))
    if not np.isin(labels, (-1, 1)).all():
        raise ValueError("cell labels must be -1 or +1")
    keys, cells, inverse = _distinct(*_keyed(part.key_cells(cell_labels)))
    table_labels = np.empty(len(keys), dtype=np.int8)
    table_labels[inverse] = labels

    def positions(mapping, name):
        at, found = _find(keys, cells, *_keyed(part.key_cells(mapping)))
        if not found.all():
            raise ValueError(f"{name} holds a cell without a label")
        return at

    values = list(sample_counts.values())
    if not all(isinstance(c, numbers.Integral) and not isinstance(c, bool) and 0 <= c < 2**63 for c in values):
        raise ValueError("sample counts must be integers >= 0 and below 2^63")
    counts = np.full(len(keys), -1, dtype=np.int64)
    counts[positions(sample_counts, "sample_counts")] = np.array(values, dtype=np.int64)
    flagged = np.zeros(len(keys), dtype=bool)
    flagged[positions(flagged_cells, "flagged_cells")] = True
    return keys, cells, table_labels, counts, flagged


def smooth_exact(
    f: BlackBoxClassifier,
    part,
    task: Task,
    per_cell: int,
    rng: np.random.Generator,
    *,
    max_draws: int = 200_000,
) -> SmoothedClassifier:
    """Reference smoothing: conditional vote means from fresh task draws.

    Draws, 8192 at a time, until every cell touched so far holds >=
    per_cell votes or the draw cap is hit; cells still under quota keep
    their partial-vote label and are flagged (cells with no votes at all
    defer to the fallback). per_cell and max_draws must be >= 1.
    """
    if per_cell < 1:
        raise ValueError("per_cell must be >= 1")
    if max_draws < 1:
        raise ValueError("max_draws must be >= 1")
    keys, cells = _keyed(part.key_cells([]))
    sums = np.zeros(0)
    counts = np.zeros(0, dtype=np.int64)
    drawn = 0
    while drawn < max_draws:
        m = min(8192, max_draws - drawn)
        X, _ = task.sample(rng, m)
        drawn += m
        new, new_cells = _keyed(part.cells(X))
        # fold the batch's votes into the table: vote sums are integers, exact in any order
        keys, cells, merged = _distinct(np.concatenate((keys, new)), np.concatenate((cells, new_cells)))
        sums = np.bincount(merged, weights=np.concatenate((sums, f(X))))
        counts = np.bincount(merged, weights=np.concatenate((counts, np.ones(m)))).astype(np.int64)
        if counts.min() >= per_cell:
            break
    return SmoothedClassifier._of_table(
        part,
        (keys, cells, _sgn(sums), counts, counts < per_cell),
        base=f,
        scheme="exact",
        provenance={"per_cell": per_cell, "draws": drawn, "max_draws": max_draws},
    )


# ---------------------------------------------------------------------------
# scheme A: majority vote over a fixed unlabeled pool


def scheme_a_sample_size(cells: int, risk_f: float) -> int:
    """Pool budget for scheme A with all hidden constants set to 1.

    budget = (Q/r) log2(Q/r) + (Q log2 Q / r) log2 log2 (Q/r), where Q is
    the cell count and r the base risk (floored at 1e-3 when zero).
    Under this budget every cell of mass >= r/Q receives on the order of
    log2(Q) votes with high probability.
    """
    if cells < 1:
        raise ValueError("cells must be >= 1")
    if risk_f < 0 or risk_f > 1:
        raise ValueError("risk_f must lie in [0, 1]")
    r = max(float(risk_f), 1e-3)
    x = cells / r
    t1 = x * math.log2(x) if x > 1 else x
    inner = max(math.log2(x), 1.0) if x > 1 else 1.0
    t2 = (cells * math.log2(cells) / r) * math.log2(inner) if cells > 1 else 0.0
    return int(math.ceil(t1 + t2))


def scheme_a_estimate(f: BlackBoxClassifier, part, unlabeled) -> SmoothedClassifier:
    """Label every cell touched by the pool with the majority vote of f."""
    pool = as_points(unlabeled)
    if len(pool) == 0:
        raise ValueError("unlabeled pool is empty")
    votes = f(pool).astype(np.float64)
    keys, cells, inverse = _distinct(*_keyed(part.cells(pool)))
    return SmoothedClassifier._of_table(
        part,
        (keys, cells, _sgn(np.bincount(inverse, weights=votes)), np.bincount(inverse), np.zeros(len(keys), dtype=bool)),
        base=f,
        scheme="A",
        provenance={"pool": len(pool)},
    )


# ---------------------------------------------------------------------------
# hit-and-run and scheme B


def ball_chord(center, radius: float):
    """Chord solver for an enclosing ball: returns (lo, hi) with
    x + theta * v inside the ball exactly for theta in [lo, hi]. Takes one
    point and direction, or rows of them and returns arrays."""
    c = np.asarray(center, dtype=np.float64)

    def solve(x, v):
        rel = np.asarray(x, dtype=np.float64) - c
        b = (v * rel).sum(axis=-1)
        c0 = (rel * rel).sum(axis=-1) - radius * radius
        root = np.sqrt(np.maximum(b * b - c0, 0.0))
        return -b - root, -b + root

    return solve


def _walk(member, chord, X, k: int, rng: np.random.Generator, *, block: int = 1):
    """k hit-and-run steps of the walks X, (w, d), advanced together.

    member(Y) tests the rows of Y for membership in the cell; chord(X, V)
    gives arrays (lo, hi) with X + theta V in the enclosing region for
    theta in [lo, hi]. The walks draw their k uniform directions up front.
    Per step each walk proposes positions uniform on its chord, `block` at
    a time and at most 64 in all, and moves to the first one
    inside the cell: i.i.d. proposals with the first success taken, the law
    of one-at-a-time retries. A walk whose proposals all miss keeps its
    point and is marked in the returned stuck flags.
    """
    X = np.array(X, dtype=np.float64)
    w, d = X.shape
    V = rng.standard_normal((k, w, d))
    V /= np.sqrt(np.einsum("...i,...i->...", V, V))[..., None]
    stuck = np.zeros(w, dtype=bool)
    rows = np.arange(w)
    for v in V:
        lo, hi = chord(X, v)
        todo, lo, span, x, u = rows, lo[:, None], (hi - lo)[:, None], X[:, None, :], v[:, None, :]
        step = np.zeros(w)  # accepted chord position, 0 while none
        for tried in range(0, 64, block):
            theta = lo + span * rng.random((len(todo), min(block, 64 - tried)))
            inside = member((x + theta[..., None] * u).reshape(-1, d)).reshape(theta.shape)
            first = inside.argmax(axis=1)
            hit = inside[rows[: len(todo)], first]
            step[todo[hit]] = theta[hit, first[hit]]
            if hit.all():
                break
            miss = ~hit
            todo, lo, span, x, u = todo[miss], lo[miss], span[miss], x[miss], u[miss]
        else:
            stuck[todo] = True
        X += step[:, None] * v  # the bits of the accepted proposal
    return X, stuck


def hit_and_run(
    membership: Callable[[np.ndarray], bool],
    chord_solver,
    start,
    k: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, bool]:
    """Hit-and-run walk inside a cell known only through membership tests.

    Per step: draw a uniform direction, intersect the line with the
    enclosing region via chord_solver, draw the step position uniformly on
    the chord, and re-check membership (the true cell may be smaller than
    the chord region). A step whose retries are exhausted keeps the current
    point; the returned flag records whether that ever happened. One walk
    of the batched core that scheme B runs, with one-point membership and
    chord callables.
    """
    x = np.array(start, dtype=np.float64)
    if not membership(x):
        raise ValueError("start point is not in the cell")
    if k < 1:
        raise ValueError("k must be >= 1")

    def member(Y):
        return np.fromiter(map(membership, Y), dtype=bool, count=len(Y))

    def chord(X, V):
        lo, hi = chord_solver(X[0], V[0])
        return np.array([lo]), np.array([hi])

    X, stuck = _walk(member, chord, x[None, :], k, rng)
    return X[0], bool(stuck[0])


_PROPOSALS = 8
"""Chord positions a scheme-B walk proposes at a time, of its 64 retries.

Larger blocks make fewer numpy calls per step but test more points that
are then thrown away; sampling the benchmark's scheme-B square, the gain
ends at 8 (BENCH_17.json).
"""

_START_BLOCK = 64
"""Points drawn uniformly in B_R(u) per round when looking for the starts
of a carved cell's walks."""

_START_ROUNDS = 16
"""Rounds of _START_BLOCK draws after which a carved cell that none of them
hit gets the fallback label. A cell filling a share p of its ball is
missed by all 1024 draws with probability (1 - p)^1024: 36% at p = 1/1000,
0.003% at p = 1/100."""

def _cube_samples(part, cells, s: int, base_seed: int) -> np.ndarray:
    """s uniform points in each cube cell, (len(cells) * s, d), cell-major.

    Counter-based: a cell's key is a splitmix64 hash of the base seed and
    its int64 coordinates, and coordinate j of sample i is the top 53 bits
    of splitmix64 output i * d + j of the stream seeded with that key. Every
    draw is a function of (base seed, cell, i, j) alone.
    """
    coords = np.ascontiguousarray(cells, dtype=np.int64).view(np.uint64)
    n, d = coords.shape
    key = _mix64(np.full(n, base_seed, dtype=np.uint64) + _GAMMA)
    for j in range(d):
        key = _mix64(key ^ _mix64(coords[:, j] + _GAMMA))
    steps = np.arange(1, s * d + 1, dtype=np.uint64) * _GAMMA
    unit = (_mix64(key[:, None] + steps) >> 11).astype(np.float64) * 2.0**-53
    lo = part.shift + np.asarray(cells, dtype=np.float64) * part.width
    return (lo[:, None, :] + unit.reshape(n, s, d) * part.width).reshape(n * s, d)


def _blockers(part, cells) -> list:
    """For each carved cell u, the centers before u in carving order that lie
    within 2R of it (by the tree path's superset radius, from `_tree_pairs`):
    the only ones that can take a point of B_R(u) away from u."""
    net, ranks = part.net, part.ranks
    centers = net.centers[cells]
    reach = _search_radius(2.0 * part.radius, net.centers, np.abs(centers) + part.radius)
    row, _, _, near = _tree_pairs(net, centers, reach)
    earlier = ranks[near] < ranks[cells][row]
    return np.split(near[earlier], np.cumsum(np.bincount(row[earlier], minlength=len(cells)))[:-1])


def _cell_member(part, cell: int, blockers):
    """Membership test of carved cell `cell` for rows of points: d(y, u) <= R
    and d(y, w) > R for every blocker w, by the distances and the `<= R`
    comparison of `ball_assign`, so decisions match it bit for bit."""
    centers = part.net.centers[np.concatenate(([cell], blockers))]
    R = part.radius

    def member(Y):
        dist = _direct_distances(Y[:, None, :], centers)
        return (dist[:, 0] <= R) & ~(dist[:, 1:] <= R).any(axis=1)

    return member


def _carved_starts(part, cell: int, member, s: int, rng: np.random.Generator):
    """s walk starts in a carved cell, (s, d), or None when _START_ROUNDS
    rounds miss it: the first s hits among rounds of _START_BLOCK points
    drawn uniformly in B_R(u), so each start is uniform in the cell; with
    fewer than s hits they are reused in turn."""
    d, R = part.dim, part.radius
    center = part.net.centers[cell]
    hits = []
    found = 0
    for _ in range(_START_ROUNDS):
        V = rng.standard_normal((_START_BLOCK, d))
        V *= (R * rng.random(_START_BLOCK) ** (1.0 / d) / np.linalg.norm(V, axis=1))[:, None]
        Y = center + V
        Y = Y[member(Y)]
        hits.append(Y)
        found += len(Y)
        if found >= s:
            break
    if not found:
        return None
    hits = np.concatenate(hits)
    return hits[np.arange(s) % found]


def _carved_samples(part, cells, s: int, steps: int, base_seed: int):
    """s in-cell points for each carved cell, from walks keyed by the cell.

    Returns (points, hit, stuck): points of the cells with starts,
    (hit.sum() * s, d) cell-major, and per cell whether any start was found
    and whether a walk got stuck. A cell's points depend only on (base
    seed, cell).
    """
    d, R = part.dim, part.radius
    hit = np.zeros(len(cells), dtype=bool)
    stuck = np.zeros(len(cells), dtype=bool)
    pts = []
    for j, (cell, near) in enumerate(zip(cells.tolist(), _blockers(part, cells))):
        cell_rng = rngmod.stream(base_seed, cell)
        member = _cell_member(part, cell, near)
        starts = _carved_starts(part, cell, member, s, cell_rng)
        if starts is None:
            continue
        chord = ball_chord(part.net.centers[cell], R)
        X, bad = _walk(member, chord, starts, steps, cell_rng, block=_PROPOSALS)
        hit[j], stuck[j] = True, bad.any()
        pts.append(X)
    return (np.concatenate(pts) if pts else np.empty((0, d))), hit, stuck


def scheme_b_estimate(
    f: BlackBoxClassifier,
    part,
    s: int,
    k: int | None,
    rng: np.random.Generator,
) -> SmoothedClassifier:
    """Smoothing from uniform in-cell samples instead of data draws.

    A cell's label is the sign of the mean vote of f over s uniform points
    in the cell, resolved when a query first reaches the cell and drawn as
    a function of (base seed, cell) alone, so neither query order nor
    batching can change it. Cube cells are boxes, sampled exactly from a
    counter-based hash of the cell coordinates. A carved cell runs s
    hit-and-run walks of k steps (default 8 * dim); each starts at a point
    drawn uniformly in B_R(u) that falls inside the cell, from a stream
    keyed by the cell, and the walks never see the query. A carved cell
    that _START_ROUNDS * _START_BLOCK such draws all miss (a sliver, or
    the empty cell that an off-support query maps to) is flagged and
    labelled by f at its anchor, the net center, as SmoothedClassifier
    labels unseen cells, with a sample count of 0. Cells with a stuck walk
    are flagged too. Each evaluate call makes one base call for all its
    fresh cells.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    steps = 8 * part.dim if k is None else int(k)
    if steps < 1:
        raise ValueError("k must be >= 1")
    base_seed = int(rng.integers(2**63))

    def resolve(clf, keys, cells) -> np.ndarray:
        if isinstance(part, CubePartition):
            pts = _cube_samples(part, cells, s, base_seed)
            hit, stuck = np.ones(len(keys), dtype=bool), np.zeros(len(keys), dtype=bool)
        else:
            pts, hit, stuck = _carved_samples(part, cells, s, steps, base_seed)
        votes = f(np.concatenate((pts, part.anchor(cells[~hit]))))
        labels = np.empty(len(keys), dtype=np.int8)
        labels[hit] = _sgn(votes[: len(pts)].astype(np.float64).reshape(-1, s).sum(axis=1))
        labels[~hit] = votes[len(pts) :]
        clf._insert(np.asarray(keys), cells, labels, np.where(hit, s, 0), stuck | ~hit)
        return labels

    clf = SmoothedClassifier(
        partition=part,
        cell_labels={},
        base=f,
        scheme="B",
        provenance={"s": s, "k": steps, "base_seed": base_seed},
    )
    clf._lazy_resolver = resolve
    return clf


# ---------------------------------------------------------------------------
# Gaussian smoothing baselines


def gaussian_smoothing(
    f: BlackBoxClassifier,
    sigma: float,
    n: int,
    rng: np.random.Generator,
    task: Task | None = None,
) -> BlackBoxClassifier:
    """Noise smoothing with N(0, sigma^2 I).

    Without a task: majority vote of f over n noise draws per query; the
    noise is keyed by the query's bytes, so repeated evaluation of a point
    is deterministic. With a task: density-weighted smoothing over a pool
    of n task samples, sign of sum_i f(Z_i) * exp(-||x - Z_i||^2 / (2
    sigma^2)), with each query's squared distances shifted by their minimum
    before the exp so its nearest pool point keeps weight 1 (`as_points`
    bounds queries, so those squares are finite). sigma must be positive
    and finite; a sigma whose 1 / (2 sigma^2) overflows raises ValueError.
    """
    _positive_finite(sigma, "sigma")
    if n < 1:
        raise ValueError("n must be >= 1")

    if task is None:
        base_seed = int(rng.integers(2**63))

        def predict(points):
            m, d = points.shape
            out = np.empty(m, dtype=np.int8)
            blk = max(1, 4_000_000 // (n * max(d, 1)))
            for start in range(0, m, blk):
                stop = min(start + blk, m)
                noisy = np.empty(((stop - start) * n, d))
                for i in range(start, stop):
                    g = rngmod.point_stream(base_seed, points[i])
                    j = (i - start) * n
                    noisy[j : j + n] = points[i] + sigma * g.standard_normal((n, d))
                votes = f(noisy).reshape(stop - start, n).astype(np.float64)
                out[start:stop] = _sgn(votes.mean(axis=1))
            return out

        return BlackBoxClassifier(predict, name=f"gaussian-smoothing-{sigma}")

    pool, _ = task.sample(rng, n)
    pool_votes = f(pool).astype(np.float64)
    pool_cols = _lifted(pool)
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / np.float64(2.0 * sigma * sigma)
    if not np.isfinite(inv):
        raise ValueError("sigma too small: 1 / (2 sigma^2) overflows")

    def predict(points):
        out = np.empty(len(points), dtype=np.int8)
        chunk = max(1, int(2e7) // max(len(pool), 1))
        for i in range(0, len(points), chunk):
            blk = points[i : i + chunk]
            d2 = _sq_distances(blk, pool_cols)
            d2 -= d2.min(axis=1, keepdims=True)  # rescale before exp; sign is scale-free
            with np.errstate(under="ignore", over="ignore"):  # an overflow to inf is weight 0
                w = np.exp(-d2 * inv)
            out[i : i + chunk] = _sgn(w @ pool_votes)
        return out

    return BlackBoxClassifier(predict, name=f"conditioned-gaussian-smoothing-{sigma}")
