"""Benchmark binary classification tasks with analytic structure.

Each task bundles a sampler, a total ground-truth labeling of the ambient
space, and its separation function S: S(eps) is the smallest probability
mass one must delete so the remaining classes are eps-apart. Labels are
-1/+1 throughout; ties resolve to +1.

Tasks:

* concentric_spheres: uniform on two origin-centered spheres of radius
  1.0 (label -1) and 1.3 (label +1). S(eps) = 0 below the 0.3 gap, 1/2 at
  or above it. The norm-threshold classifier at 1.15 is the optimal
  robust classifier for radii below 0.15.

* intersecting_circles: uniform on two unit circles whose centers are 1
  apart, so the classes cross at two points. S(eps) grows linearly for
  small eps; computed by an arc-removal oracle around the crossings.

* two_discs: uniform on two unit discs centered at (-2, 0) and (2, 0),
  gap 2. Used for the Gaussian-smoothing failure baseline.

* hard_distribution: a packing of small balls on a sphere of radius
  eps_h = sqrt(d * sigma / 10) plus a heavy ball at the origin
  (density exp(0.108 d) times an outer ball) and a far opposite-class
  blob. The base classifier errs only on the origin ball, so its risk is
  that ball's mass (0.28 at d = 60, sigma = 1); density-weighted Gaussian
  smoothing also flips every outer ball, which takes the risk to about 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import brentq
from scipy.special import betainc

from .geometry import _lifted, _sq_distances, as_points

Labels = np.ndarray


class BlackBoxClassifier:
    """Deterministic batch classifier with a query counter.

    predict maps an (n, d) array to (n,) labels in {-1, +1}; eval_count
    accumulates the number of points ever classified.
    """

    def __init__(self, predict: Callable[[np.ndarray], np.ndarray], name: str = "classifier"):
        self._predict = predict
        self.name = name
        self.eval_count = 0

    def __call__(self, points) -> Labels:
        pts = as_points(points)
        self.eval_count += len(pts)
        labels = np.asarray(self._predict(pts), dtype=np.int8)
        if labels.shape != (len(pts),):
            raise ValueError(f"predict returned shape {labels.shape} for {len(pts)} points")
        return labels

    def __repr__(self):
        return f"BlackBoxClassifier({self.name!r})"


@dataclass(eq=False)
class Task:
    """A binary classification problem with analytic hooks."""

    name: str
    dim: int
    sampler: Callable[[np.random.Generator, int], tuple[np.ndarray, Labels]]
    ground_truth_fn: Callable[[np.ndarray], Labels]
    separation_fn: Callable[[float], float]
    separation_threshold: float | None = None  # sup{eps : S(eps) = 0}, None if unknown
    planted_family: str | None = None
    metadata: dict = field(default_factory=dict)

    def sample(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, Labels]:
        if n < 1:
            raise ValueError("n must be >= 1")
        points, labels = self.sampler(rng, n)
        return points, np.asarray(labels, dtype=np.int8)

    def ground_truth(self, points) -> Labels:
        return np.asarray(self.ground_truth_fn(as_points(points)), dtype=np.int8)

    def ground_truth_classifier(self) -> BlackBoxClassifier:
        return BlackBoxClassifier(self.ground_truth_fn, name=f"{self.name}-truth")

    def separation(self, eps: float) -> float:
        if eps < 0:
            raise ValueError("eps must be >= 0")
        if eps == 0:
            return 0.0
        return float(self.separation_fn(eps))


def _unit_vectors(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    v = rng.standard_normal((n, d))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    # resample the (measure-zero) degenerate rows rather than dividing by ~0
    while (norms < 1e-12).any():
        bad = norms[:, 0] < 1e-12
        v[bad] = rng.standard_normal((int(bad.sum()), d))
        norms = np.linalg.norm(v, axis=1, keepdims=True)
    return v / norms


def _uniform_ball(rng: np.random.Generator, n: int, d: int, radius: float) -> np.ndarray:
    u = _unit_vectors(rng, n, d)
    r = radius * rng.random(n) ** (1.0 / d)
    return u * r[:, None]


# ---------------------------------------------------------------------------
# concentric spheres

SPHERE_INNER = 1.0
SPHERE_OUTER = 1.3
SPHERE_GAP = 0.3  # classes are exactly 0.3 apart; literal, not a float difference
SPHERE_MIDDLE = 0.5 * (SPHERE_INNER + SPHERE_OUTER)


def concentric_spheres_task(dim: int) -> Task:
    if dim < 2:
        raise ValueError("spheres need dim >= 2")

    def sampler(rng, n):
        labels = np.where(rng.random(n) < 0.5, -1, 1).astype(np.int8)
        radii = np.where(labels < 0, SPHERE_INNER, SPHERE_OUTER)
        return _unit_vectors(rng, n, dim) * radii[:, None], labels

    def truth(points):
        return np.where(np.linalg.norm(points, axis=1) <= SPHERE_MIDDLE, -1, 1)

    def separation(eps):
        return 0.0 if eps < SPHERE_GAP else 0.5

    return Task(
        name="concentric_spheres",
        dim=dim,
        sampler=sampler,
        ground_truth_fn=truth,
        separation_fn=separation,
        separation_threshold=SPHERE_GAP,
        planted_family="spheres",
        metadata={"radii": (SPHERE_INNER, SPHERE_OUTER), "manifold_dim": dim - 1},
    )


# ---------------------------------------------------------------------------
# intersecting circles

_CIRCLE_SEP_GRID = 100_000


def _circle_distances(points: np.ndarray, center2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distances from ambient points to each unit circle (planar in coords 0, 1)."""
    inplane = points[:, :2]
    rest2 = np.einsum("ij,ij->i", points[:, 2:], points[:, 2:]) if points.shape[1] > 2 else 0.0
    d_minus = np.sqrt((np.linalg.norm(inplane, axis=1) - 1.0) ** 2 + rest2)
    d_plus = np.sqrt((np.linalg.norm(inplane - center2, axis=1) - 1.0) ** 2 + rest2)
    return d_minus, d_plus


def intersecting_circles_task(dim: int) -> Task:
    """Two unit circles, centers 0 and e1, embedded in the first two coordinates.

    The circles cross at (1/2, +-sqrt(3)/2); the crossing tangents meet at 60
    degrees, so deleting arcs of length ~eps around each crossing separates
    the classes by eps. separation() runs a numeric arc-removal oracle on a
    100k-point discretization and caches per eps.
    """
    if dim < 2:
        raise ValueError("circles need dim >= 2")
    center2 = np.array([1.0, 0.0])
    cross_y = math.sqrt(3.0) / 2.0
    boundary = np.zeros((2, dim))
    boundary[:, 0] = 0.5
    boundary[0, 1] = cross_y
    boundary[1, 1] = -cross_y
    cache: dict[float, float] = {}

    def embed(angles: np.ndarray, which: int) -> np.ndarray:
        pts = np.zeros((len(angles), dim))
        pts[:, 0] = np.cos(angles)
        pts[:, 1] = np.sin(angles)
        if which > 0:
            pts[:, 0] += 1.0
        return pts

    def sampler(rng, n):
        labels = np.where(rng.random(n) < 0.5, -1, 1).astype(np.int8)
        angles = rng.random(n) * 2.0 * math.pi
        pts = np.zeros((n, dim))
        pts[:, 0] = np.cos(angles) + (labels > 0)
        pts[:, 1] = np.sin(angles)
        return pts, labels

    def truth(points):
        d_minus, d_plus = _circle_distances(points, center2)
        return np.where(d_minus < d_plus, -1, 1)

    def arc_set_distance(points: np.ndarray, center: np.ndarray, crossings, half_width: float) -> np.ndarray:
        """Exact distance from each planar point to a trimmed unit circle.

        The trimmed set is the circle minus open arcs of angular half-width
        half_width around each crossing angle. Where the angular projection
        of a point survives the trim, the distance is |r - 1|; otherwise the
        closest trimmed point is the nearer surviving arc endpoint.
        """
        rel = points - center
        ring = np.abs(np.linalg.norm(rel, axis=1) - 1.0)
        proj = np.arctan2(rel[:, 1], rel[:, 0])
        kept = np.ones(len(points), dtype=bool)
        ends = []
        for c in crossings:
            kept &= np.abs(_wrap(proj - c)) > half_width
            ends.extend((c - half_width, c + half_width))
        ep = center + np.stack([np.cos(ends), np.sin(ends)], axis=1)
        d_end = np.linalg.norm(points[:, None, :] - ep[None, :, :], axis=-1).min(axis=1)
        return np.where(kept, ring, d_end)

    def min_cross_distance(half_width: float, grid: np.ndarray) -> float:
        # crossings sit at angles +-60 deg on the minus circle, +-120 deg on the plus circle
        keep_minus = np.minimum(np.abs(_wrap(grid - math.pi / 3)), np.abs(_wrap(grid + math.pi / 3))) > half_width
        a = embed(grid[keep_minus], -1)[:, :2]
        if len(a) == 0:
            return float("inf")
        d = arc_set_distance(a, center2, (2 * math.pi / 3, -2 * math.pi / 3), half_width)
        return float(d.min())

    def separation(eps):
        key = round(float(eps), 12)
        if key in cache:
            return cache[key]
        grid = np.linspace(0.0, 2.0 * math.pi, _CIRCLE_SEP_GRID, endpoint=False)
        lo, hi = 0.0, math.pi / 3.0
        if min_cross_distance(hi, grid) < eps:
            result = 0.5  # worse than deleting an entire class
        else:
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                if min_cross_distance(mid, grid) >= eps:
                    hi = mid
                else:
                    lo = mid
            # four removed arcs of angular width 2*hi over total length 4*pi
            result = min(0.5, 2.0 * hi / math.pi)
        cache[key] = result
        return result

    return Task(
        name="intersecting_circles",
        dim=dim,
        sampler=sampler,
        ground_truth_fn=truth,
        separation_fn=separation,
        separation_threshold=0.0,
        planted_family="circles",
        metadata={
            "manifold_dim": 1,
            "boundary_points": boundary,
            "centers": (np.zeros(dim), np.concatenate([[1.0], np.zeros(dim - 1)])),
        },
    )


def _wrap(angles):
    """Map angles to (-pi, pi]."""
    return np.mod(np.asarray(angles) + math.pi, 2.0 * math.pi) - math.pi


# ---------------------------------------------------------------------------
# two discs

DISC_CENTERS = np.array([[-2.0, 0.0], [2.0, 0.0]])
DISC_GAP = 2.0


def two_discs_task() -> Task:
    def sampler(rng, n):
        labels = np.where(rng.random(n) < 0.5, -1, 1).astype(np.int8)
        centers = DISC_CENTERS[(labels > 0).astype(int)]
        return centers + _uniform_ball(rng, n, 2, 1.0), labels

    def truth(points):
        return np.where(points[:, 0] < 0, -1, 1)

    def separation(eps):
        if eps <= DISC_GAP:
            return 0.0
        h = min(1.0, (eps - DISC_GAP) / 2.0)  # depth shaved off each disc
        seg = math.acos(1.0 - h) - (1.0 - h) * math.sqrt(max(0.0, 2.0 * h - h * h))
        return min(0.5, seg / math.pi)

    return Task(
        name="two_discs",
        dim=2,
        sampler=sampler,
        ground_truth_fn=truth,
        separation_fn=separation,
        separation_threshold=DISC_GAP,
        planted_family="discs",
        metadata={"centers": DISC_CENTERS.copy(), "radius": 1.0},
    )


def left_disc_indicator() -> BlackBoxClassifier:
    """The transparent baseline for two_discs: -1 exactly on the left disc.

    Zero risk on the task, yet Gaussian smoothing with a large enough width
    collapses it to the constant +1 classifier.
    """

    def predict(points):
        inside = np.linalg.norm(points - DISC_CENTERS[0], axis=1) <= 1.0
        return np.where(inside, -1, 1)

    return BlackBoxClassifier(predict, name="left-disc-indicator")


# ---------------------------------------------------------------------------
# hard distribution for density-weighted smoothing

PACKING_SEP_FACTOR = 1.2
PACKING_GROWTH = 0.118  # packing size target exp(0.118 d)
DENSITY_GROWTH = 0.108  # origin-ball density premium exp(0.108 d)
BLOB_RADIUS_FACTOR = 0.01
FAR_FACTOR = 100.0


def sphere_packing(
    dim: int,
    radius: float,
    min_sep: float,
    target: int,
    trials: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int]:
    """Rejection-sample points on a sphere with pairwise separation >= min_sep.

    Stops at target points or after `trials` candidate draws, whichever
    comes first. Returns (points, trials_used).
    """
    accepted = [radius * _unit_vectors(rng, 1, dim)[0]]
    used = 1
    batch = 512
    while len(accepted) < target and used < trials:
        m = min(batch, trials - used)
        cand = radius * _unit_vectors(rng, m, dim)
        used += m
        acc = np.asarray(accepted)
        ok = _sq_distances(cand, _lifted(acc)).min(axis=1) >= min_sep * min_sep
        for i in np.flatnonzero(ok):
            p = cand[i]
            # re-check against centers accepted inside this batch
            new = np.asarray(accepted[len(acc):]) if len(accepted) > len(acc) else None
            if new is not None and len(new) and np.min(np.linalg.norm(new - p, axis=1)) < min_sep:
                continue
            accepted.append(p)
            if len(accepted) >= target:
                break
    return np.asarray(accepted), used


def hard_distribution_task(
    dim: int,
    sigma: float,
    rng: np.random.Generator,
    *,
    packing_trials: int = 1_000_000,
) -> Task:
    """Distribution on which density-weighted Gaussian smoothing inflates the
    risk of a base classifier that errs only on the origin ball.

    Plus class: balls of radius 0.01*eps_h at the origin and at a packing of
    the eps_h-sphere with pairwise separation 1.2*eps_h; the origin ball
    carries exp(0.108 d) times the density of each outer ball. Minus class:
    an equal-mass blob at distance 100*eps_h. eps_h = sqrt(dim * sigma / 10).
    """
    if dim < 2:
        raise ValueError("hard distribution needs dim >= 2")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    eps_h = math.sqrt(dim * sigma / 10.0)
    target = max(2, int(math.floor(math.exp(PACKING_GROWTH * dim))))
    centers, used = sphere_packing(dim, eps_h, PACKING_SEP_FACTOR * eps_h, target, packing_trials, rng)
    k = len(centers)
    if k < 2:
        raise ValueError(f"packing produced {k} < 2 points at dim {dim}")
    blob_r = BLOB_RADIUS_FACTOR * eps_h
    far = np.zeros(dim)
    far[0] = FAR_FACTOR * eps_h
    ratio = math.exp(DENSITY_GROWTH * dim)
    p_center = ratio / (ratio + k)  # origin-ball share of the plus class
    base_risk = 0.5 * p_center  # mass of the origin ball
    plus_centers = np.vstack([np.zeros(dim), centers])

    def sampler(rng_, n):
        labels = np.where(rng_.random(n) < 0.5, -1, 1).astype(np.int8)
        anchors = np.empty((n, dim))
        minus = labels < 0
        anchors[minus] = far
        plus_idx = np.flatnonzero(~minus)
        if len(plus_idx):
            central = rng_.random(len(plus_idx)) < p_center
            outer = rng_.integers(0, k, size=len(plus_idx))
            sel = np.where(central, 0, 1 + outer)
            anchors[plus_idx] = plus_centers[sel]
        return anchors + _uniform_ball(rng_, n, dim, blob_r), labels

    plus_cols = _lifted(plus_centers)

    def truth(points):
        d_far = np.linalg.norm(points - far, axis=1)
        d_plus = np.sqrt(_sq_distances(points, plus_cols).min(axis=1))
        return np.where(d_plus <= d_far, 1, -1)

    gap = float(np.min(np.linalg.norm(plus_centers - far, axis=1)) - 2.0 * blob_r)

    def separation(eps):
        return 0.0 if eps < gap else 0.5

    return Task(
        name="hard_distribution",
        dim=dim,
        sampler=sampler,
        ground_truth_fn=truth,
        separation_fn=separation,
        separation_threshold=gap,
        planted_family=None,
        metadata={
            "eps": eps_h,
            "sigma": sigma,
            "packing_target": target,
            "packing_achieved": k,
            "packing_trials_used": used,
            "packing_centers": centers,
            "blob_radius": blob_r,
            "far_point": far,
            "density_ratio": ratio,
            "base_risk": base_risk,
        },
    )


def central_blindspot_classifier(task: Task) -> BlackBoxClassifier:
    """Base classifier for the hard distribution: wrong exactly on the origin
    ball, correct everywhere else. Its risk is the origin-ball mass."""
    if task.name != "hard_distribution":
        raise ValueError("central blindspot classifier is specific to hard_distribution")
    blob_r = task.metadata["blob_radius"]
    truth = task.ground_truth_fn

    def predict(points):
        labels = np.asarray(truth(points), dtype=np.int8).copy()
        labels[np.linalg.norm(points, axis=1) <= blob_r] = -1
        return labels

    return BlackBoxClassifier(predict, name="central-blindspot")


# ---------------------------------------------------------------------------
# planted-error classifiers


class PlantedErrorClassifier(BlackBoxClassifier):
    """Ground truth flipped on an explicit region of exact mass delta."""

    def __init__(self, predict, name, delta: float, region: dict):
        super().__init__(predict, name=name)
        self.exact_risk = float(delta)
        self.region = region


def _cap_threshold(dim: int, frac: float) -> float:
    """Cosine threshold c with P[<unit x, v> >= c] = frac on the sphere S^(dim-1)."""
    if not 0.0 < frac <= 0.5:
        raise ValueError("cap fraction must lie in (0, 0.5]")

    def cap(c):
        return 0.5 * betainc((dim - 1) / 2.0, 0.5, max(0.0, 1.0 - c * c)) - frac

    return float(brentq(cap, 0.0, 1.0, xtol=1e-14))


def plant_error_classifier(task: Task, delta: float, rng: np.random.Generator) -> PlantedErrorClassifier:
    """Flip the task's ground truth on a region of mass exactly delta.

    Region shapes per family: spherical caps (spheres), arcs (circles),
    angular sectors (discs), one per class component, each carrying half
    of delta. The region is defined on all of the ambient space so the
    classifier stays total under perturbation.
    """
    if not 0.0 <= delta <= 0.5:
        raise ValueError("delta must lie in [0, 0.5]")
    truth = task.ground_truth_fn
    if delta == 0.0:
        return PlantedErrorClassifier(truth, f"{task.name}-planted-0", 0.0, {"kind": "empty"})

    if task.planted_family == "spheres":
        v = _unit_vectors(rng, 1, task.dim)[0]
        c = _cap_threshold(task.dim, delta)

        def predict(points):
            labels = np.asarray(truth(points), dtype=np.int8).copy()
            norms = np.linalg.norm(points, axis=1)
            safe = np.where(norms > 1e-12, norms, 1.0)
            flip = (points @ v) / safe >= c
            labels[flip] = -labels[flip]
            return labels

        region = {"kind": "cap", "direction": v, "cos_threshold": c}
    elif task.planted_family == "circles":
        phi0 = float(rng.random() * 2.0 * math.pi)
        half = math.pi * delta
        center2 = np.array([1.0, 0.0])

        def predict(points):
            labels = np.asarray(truth(points), dtype=np.int8).copy()
            d_minus, d_plus = _circle_distances(points, center2)
            own = np.where((d_minus < d_plus)[:, None], np.zeros(2), center2)
            rel = points[:, :2] - own
            ang = np.arctan2(rel[:, 1], rel[:, 0])
            flip = np.abs(_wrap(ang - phi0)) <= half
            labels[flip] = -labels[flip]
            return labels

        region = {"kind": "arc", "angle": phi0, "half_width": half}
    elif task.planted_family == "discs":
        phi0 = float(rng.random() * 2.0 * math.pi)
        half = math.pi * delta

        def predict(points):
            labels = np.asarray(truth(points), dtype=np.int8).copy()
            own = DISC_CENTERS[(points[:, 0] >= 0).astype(int)]
            rel = points[:, :2] - own
            ang = np.arctan2(rel[:, 1], rel[:, 0])
            flip = np.abs(_wrap(ang - phi0)) <= half
            labels[flip] = -labels[flip]
            return labels

        region = {"kind": "sector", "angle": phi0, "half_width": half}
    else:
        raise ValueError(f"planted errors not supported for task {task.name!r}")

    return PlantedErrorClassifier(predict, f"{task.name}-planted-{delta}", delta, region)


def optimal_robust_classifier(task: Task, epsilon: float) -> BlackBoxClassifier:
    """The adversarially optimal classifier where the minimizing deletion set
    is analytic.

    Spheres: norm threshold at 1.15, whose adversarial risk is 0 for radii
    below 0.15. Discs: the midline sign, whose adversarial risk equals the
    separation cost at doubled radius for every epsilon below the cap. Once
    the separation cost at 2*epsilon saturates at 1/2 no classifier beats a
    constant, so the constant takes over. Other tasks have no closed-form
    separator and raise.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    if task.separation(2.0 * epsilon) >= 0.5:
        def predict(points):
            return np.ones(len(points), dtype=np.int8)

        return BlackBoxClassifier(predict, name="constant-plus")
    if task.name == "concentric_spheres":
        def predict(points):
            return np.where(np.linalg.norm(points, axis=1) <= SPHERE_MIDDLE, -1, 1)

        return BlackBoxClassifier(predict, name="norm-threshold-1.15")
    if task.name == "two_discs":
        def predict(points):
            return np.where(points[:, 0] < 0, -1, 1)

        return BlackBoxClassifier(predict, name="midline")
    raise ValueError(f"no analytic optimal robust classifier for task {task.name!r}")
