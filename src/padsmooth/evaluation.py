"""Risk and adversarial-risk estimation, the competitive-radius search,
and the partition-refresh query game.

Adversarial risk at radius eps is the mass of points where some
perturbation of norm <= eps flips the classifier away from the true
label. For partition-smoothed classifiers we bracket it:

* upper bound: misclassified points plus points whose padding
  certificate at radius eps is not Contained (the certificate is exact
  for cubes and sound for carvings, so this side needs no search);
* lower bound: misclassified points plus points where a probe attack
  (random directions, radial pushes, and certificate-guided pushes
  toward the nearest cell boundary) actually flips the label.

Classifiers without a partition (the Gaussian baselines) get both
numbers from the probe attack alone and the report is flagged
statistical-only.

Probes are only spent on points that are correct and not certified;
certified points cannot be flipped, so the lower bound stays below the
upper bound pointwise by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import _search_radius, _unit_rows, greedy_net
from .partitions import (
    _contained,
    _first_capture,
    _tree_pairs,
    certificate_margins,
    resample_ball_carving,
    sample_ball_carving,
    sample_cube_partition,
    wilson_interval,
)
from .smoothing import SmoothedClassifier, _cell_index, _find, _sgn, smooth_exact
from .tasks import (
    SPHERE_MIDDLE,
    BlackBoxClassifier,
    Task,
    concentric_spheres_task,
    plant_error_classifier,
)


def predict_labels(clf, points) -> np.ndarray:
    """Dispatch: partition-smoothed classifiers evaluate, plain ones call."""
    if isinstance(clf, SmoothedClassifier):
        return clf.evaluate(points)
    return clf(points)


@dataclass(frozen=True)
class RiskEstimate:
    value: float
    lo: float
    hi: float
    errors: int
    n: int


def estimate_risk(clf, task: Task, n: int, rng: np.random.Generator) -> RiskEstimate:
    """Monte-Carlo misclassification frequency with a Wilson 95% interval."""
    if n < 1:
        raise ValueError("n must be >= 1")
    X, y = task.sample(rng, n)
    errs = int(np.sum(predict_labels(clf, X) != y))
    lo, hi = wilson_interval(errs, n)
    return RiskEstimate(value=errs / n, lo=lo, hi=hi, errors=errs, n=n)


@dataclass(frozen=True)
class RobustnessReport:
    task: str
    epsilon: float
    n: int
    risk: float
    risk_lo: float
    risk_hi: float
    certified_fraction: float
    certified_lo: float
    certified_hi: float
    attack_success: float
    ar_lower: float
    ar_lower_lo: float
    ar_lower_hi: float
    ar_upper: float
    ar_upper_lo: float
    ar_upper_hi: float
    statistical_only: bool
    attack_trials: int


def _attack_directions(part, attack_trials: int, rng: np.random.Generator):
    """Per-round direction generators for the probe attack.

    attack_trials random rounds, two radial rounds, and the partition's
    guided rounds (part.guided_directions; none without a partition).
    """
    fns = []

    def rand(X):
        return _unit_rows(rng.standard_normal(X.shape))

    fns.extend([rand] * attack_trials)
    fns.append(lambda X: _unit_rows(X.copy()))
    fns.append(lambda X: -_unit_rows(X.copy()))
    if part is not None:
        fns.extend(part.guided_directions())
    return fns


def adversarial_risk_curve(
    clf,
    task: Task,
    epsilons,
    n: int,
    rng: np.random.Generator,
    *,
    attack_trials: int = 64,
) -> list[RobustnessReport]:
    """Robustness reports at several radii over one shared evaluation sample.

    Sharing the sample makes ar_upper nondecreasing in eps by construction
    and keeps the certificate work to a single margin computation.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    eps_list = [float(e) for e in epsilons]
    if not all(e >= 0 for e in eps_list):
        raise ValueError("epsilons must be >= 0")
    X, y = task.sample(rng, n)
    pred = predict_labels(clf, X)
    mis = pred != y
    risk_lo, risk_hi = wilson_interval(int(mis.sum()), n)
    part = getattr(clf, "partition", None)
    if part is not None:
        margins, off = certificate_margins(part, X)
    reports = []
    for eps in eps_list:
        if part is not None:
            contained = _contained(off, margins, eps)
        else:
            contained = None
        target = ~mis if contained is None else (~mis) & (~contained)
        attacked = np.zeros(n, dtype=bool)
        alive = np.flatnonzero(target)
        if len(alive) and eps > 0:
            for dirs in _attack_directions(part, attack_trials, rng):
                if len(alive) == 0:
                    break
                D = dirs(X[alive])
                lab = predict_labels(clf, X[alive] + eps * D)
                hit = lab != y[alive]
                attacked[alive[hit]] = True
                alive = alive[~hit]
        lower_events = mis | attacked
        if contained is not None:
            upper_events = mis | (~contained)
            cert_events = (~mis) & contained
            stat = False
        else:
            upper_events = lower_events
            cert_events = (~mis) & (~attacked)
            stat = True
        lo_l, hi_l = wilson_interval(int(lower_events.sum()), n)
        lo_u, hi_u = wilson_interval(int(upper_events.sum()), n)
        lo_c, hi_c = wilson_interval(int(cert_events.sum()), n)
        reports.append(
            RobustnessReport(
                task=task.name,
                epsilon=eps,
                n=n,
                risk=float(mis.mean()),
                risk_lo=risk_lo,
                risk_hi=risk_hi,
                certified_fraction=float(cert_events.mean()),
                certified_lo=lo_c,
                certified_hi=hi_c,
                attack_success=float(attacked.mean()),
                ar_lower=float(lower_events.mean()),
                ar_lower_lo=lo_l,
                ar_lower_hi=hi_l,
                ar_upper=float(upper_events.mean()),
                ar_upper_lo=lo_u,
                ar_upper_hi=hi_u,
                statistical_only=stat,
                attack_trials=attack_trials,
            )
        )
    return reports


def estimate_adversarial_risk(
    clf,
    task: Task,
    epsilon: float,
    n: int,
    rng: np.random.Generator,
    *,
    attack_trials: int = 64,
) -> RobustnessReport:
    return adversarial_risk_curve(clf, task, [epsilon], n, rng, attack_trials=attack_trials)[0]


# ---------------------------------------------------------------------------
# competitive radius: largest certified-attack radius vs the optimal scale


class BracketingError(RuntimeError):
    """Raised when the target level eta is below the base risk; carries the
    measured radius/AR curve for diagnostics."""

    def __init__(self, message: str, curve):
        super().__init__(message)
        self.curve = curve


@dataclass(frozen=True)
class CompetitiveResult:
    d: int
    delta: float
    eta: float
    partition_epsilon: float
    risk: float
    eps_alg: float
    eps_opt_bound: float | None
    ratio: float | None
    ar_at_eps_alg: float
    ar_fresh: float
    cells: int
    n: int
    applicable: bool


def competitive_ratio_experiment(
    d: int,
    delta: float,
    eta: float,
    rng: np.random.Generator,
    *,
    partition_epsilon: float = 0.29,
    per_cell: int = 24,
    max_draws: int = 60_000,
    n: int = 100_000,
) -> CompetitiveResult:
    """Largest radius at which the smoothed pipeline keeps certified
    adversarial risk below eta, against the error-set growth scale of the
    best possible classifier.

    The pipeline side pays a planted delta of base error on the spheres
    task, smooths over a cube partition, and bisects eps against the
    certificate-based AR upper bound on one fixed evaluation sample (the
    bound is monotone there, so bisection is exact up to 2% of eps). The
    optimal side inflates a planted error cap: a cap of mass delta/2 grows
    to mass eta at radius (2 eta/delta)^(1/d) - 1, which upper-bounds any
    classifier's usable radius at level eta.
    """
    if not 0 <= 2 * delta < eta < 0.5:
        raise ValueError("need 0 <= 2*delta < eta < 1/2")
    task = concentric_spheres_task(d)
    if delta == 0:
        f = task.ground_truth_classifier()
    else:
        f = plant_error_classifier(task, delta, rng)
    part = sample_cube_partition(d, partition_epsilon, rng)
    g = smooth_exact(f, part, task, per_cell, rng, max_draws=max_draws)
    X, y = task.sample(rng, n)
    mis = g.evaluate(X) != y
    margins, off = part.margins(X)
    risk_hat = float(mis.mean())

    def ar_upper(eps: float) -> float:
        return float(np.mean(mis | ~_contained(off, margins, eps)))

    if risk_hat > eta:
        grid = np.linspace(0, part.width / 2, 9)
        raise BracketingError(
            f"base AR {risk_hat:.4f} already above eta={eta}; cannot bracket",
            curve=[(float(e), ar_upper(float(e))) for e in grid],
        )
    lo, hi = 0.0, part.width / 2 + 1e-9
    for _ in range(200):
        if hi - lo <= 0.02 * hi:
            break
        mid = 0.5 * (lo + hi)
        if ar_upper(mid) <= eta:
            lo = mid
        else:
            hi = mid
    eps_alg = lo
    X2, y2 = task.sample(rng, n)
    mis2 = g.evaluate(X2) != y2
    margins2, off2 = part.margins(X2)
    ar_fresh = float(np.mean(mis2 | ~_contained(off2, margins2, eps_alg)))
    if delta > 0:
        eps_opt = (2.0 * eta / delta) ** (1.0 / d) - 1.0
        ratio = eps_opt / eps_alg if eps_alg > 0 else math.inf
    else:
        eps_opt = None
        ratio = None
    return CompetitiveResult(
        d=d,
        delta=delta,
        eta=eta,
        partition_epsilon=partition_epsilon,
        risk=risk_hat,
        eps_alg=eps_alg,
        eps_opt_bound=eps_opt,
        ratio=ratio,
        ar_at_eps_alg=ar_upper(eps_alg),
        ar_fresh=ar_fresh,
        cells=g.cell_count,
        n=n,
        applicable=delta > 0,
    )


# ---------------------------------------------------------------------------
# query game against an adversary that never sees the current partition


class Adversary:
    """Perturbation strategy. Sees the base classifier and all past answers
    (via observe) but never the partition randomness."""

    name = "identity"

    def propose(self, x: np.ndarray, epsilon: float) -> np.ndarray:
        return x

    def observe(self, x: np.ndarray, x_prime: np.ndarray, answer: int) -> None:
        pass

    def notify_refresh(self) -> None:
        pass


class IdentityAdversary(Adversary):
    name = "identity"


class BoundarySeekAdversary(Adversary):
    """Pushes the query toward the nearest class boundary point."""

    name = "boundary"

    def __init__(self, task: Task, f: BlackBoxClassifier | None = None):
        self.task = task
        self.f = f
        bp = task.metadata.get("boundary_points")
        self.targets = np.asarray(bp, dtype=np.float64) if bp is not None else None

    def _target(self, x: np.ndarray) -> np.ndarray | None:
        if self.targets is not None:
            d2 = np.einsum("ij,ij->i", self.targets - x, self.targets - x)
            return self.targets[int(np.argmin(d2))]
        if self.task.name == "concentric_spheres":
            nrm = float(np.linalg.norm(x))
            if nrm < 1e-12:
                return None
            return x * (SPHERE_MIDDLE / nrm)
        return None

    def propose(self, x: np.ndarray, epsilon: float) -> np.ndarray:
        t = self._target(x)
        if t is None:
            return x
        step = t - x
        dist = float(np.linalg.norm(step))
        if dist < 1e-12:
            return x
        return x + (min(0.999 * epsilon, dist) / dist) * step


class ReplayAdversary(BoundarySeekAdversary):
    """Boundary seeker that remembers answers that contradicted the base
    classifier, up to 4096 of them, and replays them while the partition
    block lasts."""

    name = "replay"

    def __init__(self, task: Task, f: BlackBoxClassifier):
        super().__init__(task, f)
        self.memory: list[tuple[np.ndarray, int]] = []

    def propose(self, x: np.ndarray, epsilon: float) -> np.ndarray:
        fx = int(self.f(x[None, :])[0])
        best = None
        for xp, ans in reversed(self.memory):
            if ans != fx and float(np.linalg.norm(xp - x)) <= 0.999 * epsilon:
                best = xp
                break
        if best is not None:
            return best.copy()
        return super().propose(x, epsilon)

    def observe(self, x: np.ndarray, x_prime: np.ndarray, answer: int) -> None:
        if answer != int(self.f(x[None, :])[0]):
            if len(self.memory) < 4096:
                self.memory.append((np.array(x_prime), answer))

    def notify_refresh(self) -> None:
        self.memory.clear()


def _pool_carver(X, net, reach: float):
    """cells(part) of the game's pool X under carvings over net of radius
    <= reach, part.cells(X) bit for bit. The tree kernel's candidate pairs,
    every center within reach of a point or within its nearest-neighbour
    distance (widened by `_search_radius`), and their direct distances are
    taken once per game, so a refresh is one `_first_capture` over them."""
    r = _search_radius(np.maximum(reach, net.tree.query(X)[0]), X, net.centers)
    row, starts, dist, cand = _tree_pairs(net, X, r)

    def cells(part):
        first, _ = _first_capture(row, starts, dist, part.ranks[cand], part.radius, len(X), len(net))
        return part.order[first]

    return cells


@dataclass(frozen=True)
class GameResult:
    rounds: int
    refresh_every: int
    epsilon: float
    error_rate: float
    lo: float
    hi: float
    faults: int
    adversary: str
    errors: np.ndarray


def oblivious_game_simulate(
    task: Task,
    f: BlackBoxClassifier,
    epsilon: float,
    refresh_every: int,
    rounds: int,
    adversary: Adversary,
    rng: np.random.Generator,
    *,
    family: str = "ball",
    partition_epsilon: float = 0.2,
    pool: int = 2000,
    net_source: int = 4000,
) -> GameResult:
    """Sequential game: each round draws a fresh task point, the adversary
    perturbs it within epsilon, and the current smoothed classifier answers.
    The partition is resampled every refresh_every rounds; the adversary is
    told about refreshes (the schedule is public) but never sees the draw.

    An out-of-ball proposal is a fault: the round is answered on the clean
    point and the fault is counted.

    Every random draw (pool, net source, carvings or lattices, rounds) keeps
    its order. For the ball family each pool point's candidate centers
    (within partition_epsilon / 2, the largest carving radius, or its
    nearest-neighbour distance) and their distances are computed once per
    game, so a refresh only takes one pass of the carving rule over them.
    """
    if rounds < 1 or refresh_every < 1:
        raise ValueError("rounds and refresh_every must be >= 1")
    if not (epsilon >= 0):
        raise ValueError("epsilon must be >= 0")
    if family not in ("ball", "cube"):
        raise ValueError("family must be 'ball' or 'cube'")
    Xp, _ = task.sample(rng, pool)
    f_pool = f(Xp).astype(np.float64)

    if family == "ball":
        src, _ = task.sample(rng, net_source)
        net = greedy_net(src, partition_epsilon / 4.0)
        base = sample_ball_carving(net, partition_epsilon, rng)
        pool_cells = _pool_carver(Xp, net, partition_epsilon / 2.0)
        f_centers = f(net.centers).astype(np.float64)
        nc = len(net.centers)
        state: dict = {}

        def refresh():
            part = resample_ball_carving(base, rng)
            cells = pool_cells(part)
            votes = np.bincount(cells, weights=f_pool, minlength=nc)
            counts = np.bincount(cells, minlength=nc)
            labels = np.where(counts > 0, _sgn(votes), _sgn(f_centers))
            state["part"] = part
            state["labels"] = labels.astype(np.int8)

        def answer(x: np.ndarray) -> int:
            return int(state["labels"][state["part"].cells(x[None])[0]])

    else:
        d = Xp.shape[1]
        state = {}

        def refresh():
            part = sample_cube_partition(d, partition_epsilon, rng)
            keys, _, inverse = _cell_index(part, Xp)
            state["part"] = part
            state["keys"] = keys
            state["labels"] = _sgn(np.bincount(inverse, weights=f_pool))
            state["fallback"] = {}  # key bytes -> f at the anchor, until the next refresh

        def answer(x: np.ndarray) -> int:
            part = state["part"]
            key, cell, _ = _cell_index(part, x[None, :])
            at, known = _find(state["keys"], key)
            if known[0]:
                return int(state["labels"][at[0]])
            fallback = state["fallback"]
            key_bytes = key.tobytes()
            if key_bytes not in fallback:
                fallback[key_bytes] = int(f(part.anchor(cell))[0])
            return fallback[key_bytes]

    errors = np.zeros(rounds, dtype=bool)
    faults = 0
    for i in range(rounds):
        if i % refresh_every == 0:
            refresh()
            adversary.notify_refresh()
        x, yl = task.sample(rng, 1)
        x = x[0]
        truth = int(yl[0])
        xp = np.asarray(adversary.propose(x, epsilon), dtype=np.float64)
        if float(np.linalg.norm(xp - x)) > epsilon * (1.0 + 1e-9):
            faults += 1
            xp = x
        ans = answer(xp)
        errors[i] = ans != truth
        adversary.observe(x, xp, ans)
    lo, hi = wilson_interval(int(errors.sum()), rounds)
    return GameResult(
        rounds=rounds,
        refresh_every=refresh_every,
        epsilon=epsilon,
        error_rate=float(errors.mean()),
        lo=lo,
        hi=hi,
        faults=faults,
        adversary=adversary.name,
        errors=errors,
    )
