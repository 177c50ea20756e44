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

Estimators:

* smooth_exact: draws from the task until every touched cell has a vote
  quota (or a draw cap runs out); the reference implementation.
* scheme A: one pass over a fixed unlabeled pool, majority vote of f per
  cell. scheme_a_sample_size gives the pool budget under which every cell
  of mass >= risk_f / cells receives a logarithmic number of votes.
* scheme B: votes f on uniform in-cell samples; exact per-coordinate
  sampling for cube cells, hit-and-run for carved cells. Labels are
  resolved lazily per queried cell from a cell-keyed substream, so cube
  labels do not depend on query batching; a carved cell's walks start at
  the first query seen in the cell, so its label can.

gaussian_smoothing builds the noise-based baselines: plain majority vote
under N(0, sigma^2 I), or the density-weighted variant that reweights a
pool of task samples by the Gaussian kernel around the query.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Callable

import numpy as np

from . import rng as rngmod
from .geometry import as_points
from .partitions import CubePartition, ball_cell_member, partition_from_dict
from .tasks import BlackBoxClassifier, Task


def _sgn(values) -> np.ndarray:
    """Sign with the +1 tie convention."""
    return np.where(np.asarray(values) >= 0, 1, -1).astype(np.int8)


class SmoothedClassifier:
    """Piecewise-constant classifier over a partition.

    cell_labels maps cell ids (int for carvings, tuple of ints for cubes)
    to labels. sample_counts records the votes behind each label; cells in
    flagged_cells missed their vote quota. Unknown cells are labeled by the
    base classifier at the cell anchor.
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
        self.cell_labels = dict(cell_labels)
        self.base = base
        self.scheme = scheme
        self.sample_counts = dict(sample_counts or {})
        self.flagged_cells = set(flagged_cells or ())
        self.provenance = dict(provenance or {})
        self._lazy_resolver = None  # set by scheme B

    # -- evaluation ---------------------------------------------------

    def evaluate(self, points) -> np.ndarray:
        pts = as_points(points)
        keys, cells, first, inverse = _cell_keys_of(self.partition, pts)
        found = list(map(self.cell_labels.get, keys))
        missing = [j for j, lab in enumerate(found) if lab is None]
        if missing and self._lazy_resolver is not None:
            for j in missing:
                found[j] = self._lazy_resolver(keys[j], pts[first[j]])
        elif missing:
            if self.base is None:
                raise RuntimeError("unseen cells and no base classifier for fallback")
            for j, lab in zip(missing, self.base(self.partition.anchor(cells[missing]))):
                found[j] = lab
        return np.array(found, dtype=np.int8)[inverse]

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
            sample_counts={key(k): int(c) for k, c in payload.get("sample_counts", {}).items()},
            flagged_cells={key(k) for k in payload.get("flagged_cells", [])},
            provenance=payload.get("provenance", {}),
        )

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1, sort_keys=True))

    @classmethod
    def load(cls, path, base: BlackBoxClassifier | None = None) -> "SmoothedClassifier":
        return cls.from_dict(json.loads(Path(path).read_text()), base=base)


def _cell_keys_of(part, points):
    """Distinct cells of a batch: (keys, cells, first, inverse).

    keys are the cell_labels keys (tuples for cubes, ints for carvings),
    cells the matching rows of part.cells, first the index of the first point
    in each cell and inverse the cell position of every point.
    """
    cells = part.cells(points)
    if cells.ndim == 2:
        rows = np.ascontiguousarray(cells).view(np.dtype((np.void, cells.itemsize * cells.shape[1])))
        _, first, inverse = np.unique(rows.ravel(), return_index=True, return_inverse=True)
        cells = cells[first]
        return list(map(tuple, cells.tolist())), cells, first, inverse
    cells, first, inverse = np.unique(cells, return_index=True, return_inverse=True)
    return cells.tolist(), cells, first, inverse


def smooth_exact(
    f: BlackBoxClassifier,
    part,
    task: Task,
    per_cell: int,
    rng: np.random.Generator,
    *,
    max_draws: int = 200_000,
    batch: int = 8192,
) -> SmoothedClassifier:
    """Reference smoothing: conditional vote means from fresh task draws.

    Draws until every cell touched so far holds >= per_cell votes or the
    draw cap is hit; cells still under quota keep their partial-vote label
    and are flagged (cells with no votes at all defer to the fallback).
    """
    if per_cell < 1:
        raise ValueError("per_cell must be >= 1")
    sums: dict = {}
    counts: dict = {}
    drawn = 0
    while drawn < max_draws:
        m = min(batch, max_draws - drawn)
        X, _ = task.sample(rng, m)
        drawn += m
        votes = f(X).astype(np.float64)
        keys, _, _, inverse = _cell_keys_of(part, X)
        vote_sum = np.bincount(inverse, weights=votes)
        vote_cnt = np.bincount(inverse)
        for key, v, c in zip(keys, vote_sum.tolist(), vote_cnt.tolist()):
            sums[key] = sums.get(key, 0.0) + v
            counts[key] = counts.get(key, 0) + c
        if min(counts.values()) >= per_cell:
            break
    labels = {key: 1 if v >= 0 else -1 for key, v in sums.items()}
    flagged = {key for key, c in counts.items() if c < per_cell}
    return SmoothedClassifier(
        partition=part,
        cell_labels=labels,
        base=f,
        scheme="exact",
        sample_counts=counts,
        flagged_cells=flagged,
        provenance={"per_cell": per_cell, "draws": drawn, "max_draws": max_draws},
    )


# ---------------------------------------------------------------------------
# scheme A: majority vote over a fixed unlabeled pool


def scheme_a_sample_size(cells: int, risk_f: float, *, risk_floor: float = 1e-3) -> int:
    """Pool budget for scheme A with all hidden constants set to 1.

    budget = (Q/r) log2(Q/r) + (Q log2 Q / r) log2 log2 (Q/r), where Q is
    the cell count and r the base risk (floored at risk_floor when zero).
    Under this budget every cell of mass >= r/Q receives on the order of
    log2(Q) votes with high probability.
    """
    if cells < 1:
        raise ValueError("cells must be >= 1")
    if risk_f < 0 or risk_f > 1:
        raise ValueError("risk_f must lie in [0, 1]")
    r = max(float(risk_f), risk_floor)
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
    keys, _, _, inverse = _cell_keys_of(part, pool)
    vote_sum = np.bincount(inverse, weights=votes)
    vote_cnt = np.bincount(inverse)
    labels = {key: 1 if v >= 0 else -1 for key, v in zip(keys, vote_sum.tolist())}
    counts = dict(zip(keys, vote_cnt.tolist()))
    return SmoothedClassifier(
        partition=part,
        cell_labels=labels,
        base=f,
        scheme="A",
        sample_counts=counts,
        provenance={"pool": len(pool)},
    )


# ---------------------------------------------------------------------------
# hit-and-run and scheme B


def ball_chord(center, radius: float):
    """Chord solver for an enclosing ball: returns (lo, hi) with
    x + theta * v inside the ball exactly for theta in [lo, hi]."""
    c = np.asarray(center, dtype=np.float64)

    def solve(x, v):
        rel = np.asarray(x, dtype=np.float64) - c
        b = float(v @ rel)
        c0 = float(rel @ rel) - radius * radius
        disc = max(b * b - c0, 0.0)
        root = math.sqrt(disc)
        return -b - root, -b + root

    return solve


def hit_and_run(
    membership: Callable[[np.ndarray], bool],
    chord_solver,
    start,
    k: int,
    rng: np.random.Generator,
    *,
    max_retries: int = 64,
) -> tuple[np.ndarray, bool]:
    """Hit-and-run walk inside a cell known only through membership tests.

    Per step: draw a uniform direction, intersect the line with the
    enclosing region via chord_solver, draw the step position uniformly on
    the chord, and re-check membership (the true cell may be smaller than
    the chord region). A step whose retries are exhausted keeps the current
    point; the returned flag records whether that ever happened.
    """
    x = np.array(start, dtype=np.float64)
    if not membership(x):
        raise ValueError("start point is not in the cell")
    if k < 1:
        raise ValueError("k must be >= 1")
    d = len(x)
    flagged = False
    for _ in range(k):
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)
        lo, hi = chord_solver(x, v)
        moved = False
        for _ in range(max_retries):
            theta = rng.uniform(lo, hi)
            y = x + theta * v
            if membership(y):
                x = y
                moved = True
                break
        if not moved:
            flagged = True
    return x, flagged


def scheme_b_estimate(
    f: BlackBoxClassifier,
    part,
    s: int,
    k: int | None,
    rng: np.random.Generator,
) -> SmoothedClassifier:
    """Smoothing from uniform in-cell samples instead of data draws.

    Cube cells are boxes, sampled exactly. Carved cells are sampled by s
    independent hit-and-run walks of k steps (default 8 * dim) started at
    the first query point seen in the cell. Labels resolve lazily at query
    time from a substream keyed by the cell id, so cube labels do not
    depend on how queries are batched; carved labels can, through the
    start point of their walks.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    steps = 8 * part.dim if k is None else int(k)
    if steps < 1:
        raise ValueError("k must be >= 1")
    base_seed = int(rng.integers(2**63))
    clf = SmoothedClassifier(
        partition=part,
        cell_labels={},
        base=f,
        scheme="B",
        provenance={"s": s, "k": steps, "base_seed": base_seed},
    )

    def resolve(cell, query_point) -> int:
        if isinstance(part, CubePartition):
            cell_rng = rngmod.stream(base_seed, *cell)
            lo = part.shift + np.asarray(cell, dtype=np.float64) * part.width
            pts = lo + cell_rng.random((s, part.dim)) * part.width
        else:
            cell_rng = rngmod.stream(base_seed, int(cell))
            center = part.net.centers[int(cell)]
            chord = ball_chord(center, part.radius)

            def member(y):
                return bool(ball_cell_member(part, int(cell), y[None, :])[0])

            pts = np.empty((s, part.dim))
            ok = True
            for i in range(s):
                pts[i], bad = hit_and_run(member, chord, query_point, steps, cell_rng)
                ok = ok and not bad
            if not ok:
                clf.flagged_cells.add(cell)
        votes = f(pts)
        label = int(_sgn(votes.astype(np.float64).mean()))
        clf.cell_labels[cell] = label
        clf.sample_counts[cell] = s
        return label

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
    sigma^2)). Queries whose weights all underflow fall back to f(x) and
    are counted on the returned classifier's fallback_queries.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
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

        clf = BlackBoxClassifier(predict, name=f"gaussian-smoothing-{sigma}")
        clf.sigma = sigma
        clf.mode = "plain"
        return clf

    pool, _ = task.sample(rng, n)
    pool_votes = f(pool).astype(np.float64)
    pool_sq = np.einsum("ij,ij->i", pool, pool)
    inv = 1.0 / (2.0 * sigma * sigma)

    holder = {"fallback": 0}

    def predict(points):
        out = np.empty(len(points), dtype=np.int8)
        chunk = max(1, int(2e7) // max(len(pool), 1))
        for i in range(0, len(points), chunk):
            blk = points[i : i + chunk]
            d2 = np.einsum("ij,ij->i", blk, blk)[:, None] + pool_sq[None, :] - 2.0 * blk @ pool.T
            np.maximum(d2, 0.0, out=d2)
            d2 -= d2.min(axis=1, keepdims=True)  # rescale before exp; sign is scale-free
            with np.errstate(under="ignore"):
                w = np.exp(-d2 * inv)
            scores = w @ pool_votes
            dead = ~(w.sum(axis=1) > 0)
            labels = _sgn(scores)
            if dead.any():
                labels[dead] = f(blk[dead])
                holder["fallback"] += int(dead.sum())
            out[i : i + chunk] = labels
        return out

    clf = BlackBoxClassifier(predict, name=f"conditioned-gaussian-smoothing-{sigma}")
    clf.sigma = sigma
    clf.mode = "conditioned"
    clf.pool_size = n
    clf.fallback_queries = holder
    return clf
