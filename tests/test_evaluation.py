"""Risk estimation, adversarial-risk bracketing, the competitive-radius
search, and the partition-refresh game.

The key invariants: certified points can never be flipped (so the attack
lower bound stays under the certificate upper bound), a zero radius reduces
both bounds to plain risk, and the upper bound is exactly the complement of
correct-and-certified on the shared sample.
"""

import math

import numpy as np
import pytest

from padsmooth import evaluation
from padsmooth.evaluation import (
    Adversary,
    RobustnessReport,
    BoundarySeekAdversary,
    BracketingError,
    IdentityAdversary,
    ReplayAdversary,
    adversarial_risk_curve,
    competitive_ratio_experiment,
    estimate_adversarial_risk,
    estimate_risk,
    oblivious_game_simulate,
)
from padsmooth.geometry import EpsilonNet, _unit_rows, greedy_net
from padsmooth.partitions import (
    BallCarvingPartition,
    _Candidates,
    ball_assign,
    resample_ball_carving,
    sample_ball_carving,
    sample_cube_partition,
    wilson_interval,
)
from padsmooth.smoothing import _sgn, scheme_a_estimate, scheme_b_estimate, smooth_exact
from padsmooth.tasks import (
    BlackBoxClassifier,
    concentric_spheres_task,
    intersecting_circles_task,
    optimal_robust_classifier,
    plant_error_classifier,
    two_discs_task,
)


def make_smoothed(seed: int = 0, epsilon: float = 1.0):
    task = two_discs_task()
    part = sample_cube_partition(2, epsilon, np.random.default_rng(seed))
    g = smooth_exact(
        task.ground_truth_classifier(), part, task, per_cell=25, rng=np.random.default_rng(seed + 1)
    )
    return task, g


# ---------------------------------------------------------------------------
# plain risk


def test_estimate_risk_truth_and_coin():
    task = two_discs_task()
    truth = task.ground_truth_classifier()
    r = estimate_risk(truth, task, 2000, np.random.default_rng(0))
    assert r.value == 0.0 and r.errors == 0 and r.lo == 0.0
    flip = BlackBoxClassifier(lambda p: -task.ground_truth(p))
    r2 = estimate_risk(flip, task, 2000, np.random.default_rng(1))
    assert r2.value == 1.0 and r2.hi == 1.0
    const = BlackBoxClassifier(lambda p: np.ones(len(p), dtype=np.int8))
    r3 = estimate_risk(const, task, 4000, np.random.default_rng(2))
    assert r3.lo <= 0.5 <= r3.hi


def test_estimate_risk_validation():
    task = two_discs_task()
    with pytest.raises(ValueError):
        estimate_risk(task.ground_truth_classifier(), task, 0, np.random.default_rng(3))


# ---------------------------------------------------------------------------
# adversarial risk reports


def test_zero_radius_collapses_to_risk():
    task, g = make_smoothed(10)
    rep = estimate_adversarial_risk(g, task, 0.0, 3000, np.random.default_rng(11))
    assert rep.ar_lower == rep.risk == rep.ar_upper
    assert rep.attack_success == 0.0
    assert not rep.statistical_only


def test_bounds_sandwich_and_upper_monotone():
    task, g = make_smoothed(12, epsilon=0.8)
    reps = adversarial_risk_curve(
        g, task, [0.0, 0.05, 0.1, 0.2, 0.3], 3000, np.random.default_rng(13), attack_trials=8
    )
    uppers = [r.ar_upper for r in reps]
    assert uppers == sorted(uppers)
    for r in reps:
        assert r.risk <= r.ar_lower <= r.ar_upper
        # upper events are exactly the complement of correct-and-certified
        assert r.ar_upper == pytest.approx(1.0 - r.certified_fraction, abs=1e-12)
        assert r.attack_trials == 8 and r.n == 3000
    certs = [r.certified_fraction for r in reps]
    assert certs == sorted(certs, reverse=True)


def test_certified_points_cannot_be_flipped():
    # the certificate seen through the classifier: any perturbation within
    # the margin must land in the same cell, hence the same label
    task, g = make_smoothed(14)
    part = g.partition
    X, _ = task.sample(np.random.default_rng(15), 300)
    eps = 0.15
    margins, _ = part.margins(X)
    keep = X[margins > eps]
    base = g.evaluate(keep)
    rng = np.random.default_rng(16)
    for _ in range(20):
        D = rng.standard_normal(keep.shape)
        D /= np.linalg.norm(D, axis=1, keepdims=True)
        assert np.array_equal(g.evaluate(keep + eps * D), base)


def test_statistical_only_path_for_partitionless_classifier():
    task = two_discs_task()
    rep = estimate_adversarial_risk(
        task.ground_truth_classifier(), task, 0.1, 2000, np.random.default_rng(17), attack_trials=8
    )
    assert rep.statistical_only
    assert rep.ar_lower == rep.ar_upper
    assert rep.certified_fraction == pytest.approx(1.0 - rep.ar_lower, abs=1e-12)


def test_optimal_spheres_classifier_is_unattackable_below_threshold():
    task = concentric_spheres_task(3)
    clf = optimal_robust_classifier(task, 0.14)
    rep = estimate_adversarial_risk(clf, task, 0.14, 2000, np.random.default_rng(18), attack_trials=16)
    assert rep.risk == 0.0
    assert rep.ar_lower == 0.0 and rep.attack_success == 0.0
    clf2 = optimal_robust_classifier(task, 0.16)
    rep2 = estimate_adversarial_risk(clf2, task, 0.16, 2000, np.random.default_rng(19), attack_trials=4)
    assert abs(rep2.risk - 0.5) < 0.05
    assert rep2.ar_lower >= rep2.risk


def test_curve_validation():
    task, g = make_smoothed(20)
    with pytest.raises(ValueError):
        adversarial_risk_curve(g, task, [0.1], 0, np.random.default_rng(21))
    with pytest.raises(ValueError):
        adversarial_risk_curve(g, task, [-0.1], 100, np.random.default_rng(22))


def test_curve_rejects_nan_radius():
    task, g = make_smoothed(20)
    with pytest.raises(ValueError):
        adversarial_risk_curve(g, task, [0.1, float("nan")], 100, np.random.default_rng(22))


def test_curve_rejects_infinite_radius():
    task, g = make_smoothed(20)
    with pytest.raises(ValueError, match="finite"):
        adversarial_risk_curve(g, task, [0.1, math.inf], 100, np.random.default_rng(22))


def _reference_curve(clf, task, epsilons, n, rng, attack_trials):
    """adversarial_risk_curve as a loop of whole evaluations: the sample's
    labels by clf.evaluate, its certificate by part.margins, and every
    probe round one clf.evaluate of its probes, with the partition's
    guided_directions."""
    X, y = task.sample(rng, n)
    mis = clf.evaluate(X) != y
    part = clf.partition
    margins, off = part.margins(X)
    reports = []
    for eps in epsilons:
        contained = ~off & (margins >= eps)
        attacked = np.zeros(n, dtype=bool)
        alive = np.flatnonzero(~mis & ~contained)
        rounds = [lambda Z: _unit_rows(rng.standard_normal(Z.shape))] * attack_trials
        rounds += [lambda Z: _unit_rows(Z), lambda Z: -_unit_rows(Z), *part.guided_directions()]
        for dirs in rounds if eps > 0 else []:
            if not len(alive):
                break
            hit = clf.evaluate(X[alive] + eps * dirs(X[alive])) != y[alive]
            attacked[alive[hit]] = True
            alive = alive[~hit]
        lower, upper, cert = mis | attacked, mis | ~contained, ~mis & contained
        (lo_l, hi_l), (lo_u, hi_u), (lo_c, hi_c), (risk_lo, risk_hi) = (
            wilson_interval(int(e.sum()), n) for e in (lower, upper, cert, mis))
        reports.append(RobustnessReport(
            task=task.name, epsilon=eps, n=n, risk=float(mis.mean()), risk_lo=risk_lo, risk_hi=risk_hi,
            certified_fraction=float(cert.mean()), certified_lo=lo_c, certified_hi=hi_c,
            attack_success=float(attacked.mean()), ar_lower=float(lower.mean()), ar_lower_lo=lo_l,
            ar_lower_hi=hi_l, ar_upper=float(upper.mean()), ar_upper_lo=lo_u, ar_upper_hi=hi_u,
            statistical_only=False, attack_trials=attack_trials))
    return reports


def _spheres_exact(d, eps_part, seed):
    task = concentric_spheres_task(d)
    rng = np.random.default_rng(seed)
    f = plant_error_classifier(task, 0.05, rng)
    part = sample_ball_carving(greedy_net(task.sample(rng, 3000)[0], eps_part / 4.0), eps_part, rng)
    return task, f, smooth_exact(f, part, task, 8, rng, max_draws=3000)


def _circles_scheme_b(seed):
    task = intersecting_circles_task(2)
    rng = np.random.default_rng(seed)
    f = BlackBoxClassifier(task.ground_truth)
    part = sample_ball_carving(greedy_net(task.sample(rng, 2000)[0], 0.05), 0.2, rng)
    return task, f, scheme_b_estimate(f, part, 4, 8, rng)


def _spheres_cube(seed):
    task = concentric_spheres_task(3)
    rng = np.random.default_rng(seed)
    f = plant_error_classifier(task, 0.05, rng)
    return task, f, smooth_exact(f, sample_cube_partition(3, 0.3, rng), task, 8, rng, max_draws=3000)


@pytest.mark.parametrize("make, epsilons, n, trials", [
    (lambda: _spheres_exact(3, 0.27, 71), [0.0, 0.009, 0.03], 400, 4),  # tree regime
    (lambda: _spheres_exact(3, 0.27, 72), [0.1], 60, 3),  # below the tree's batch: dense
    (lambda: _spheres_exact(8, 1.6, 73), [0.05, 0.2], 200, 3),  # dense regime
    (lambda: _circles_scheme_b(74), [0.01, 0.1], 300, 2),
    (lambda: _spheres_cube(75), [0.0, 0.01, 0.05], 400, 2),
], ids=["carving_d3", "carving_d3_small", "carving_d8", "scheme_b_carving", "cube"])
def test_curve_equals_the_per_round_reference_loop(make, epsilons, n, trials):
    # the same reports field by field and the same base-classifier calls as
    # a loop that evaluates every round's probes from scratch; each side
    # gets a classifier of its own, so scheme B resolves fresh cells into
    # each alike
    task, f, g = make()
    before = f.eval_count
    want = _reference_curve(g, task, epsilons, n, np.random.default_rng(76), trials)
    asked = f.eval_count - before
    task, f, g = make()
    before = f.eval_count
    got = adversarial_risk_curve(g, task, epsilons, n, np.random.default_rng(76), attack_trials=trials)
    assert got == want
    assert f.eval_count - before == asked > 0
    assert any(r.attack_success > 0 for r in got)
    if g.scheme == "B":  # probes resolved cells that hold no sample point, some by the fallback
        X = task.sample(np.random.default_rng(76), n)[0]
        assert g.cell_count > len(np.unique(g.partition.cells(X))) and g.flagged_cells


# ---------------------------------------------------------------------------
# competitive radius


def test_competitive_parameter_validation():
    rng = np.random.default_rng(23)
    for d, delta, eta in [(3, 0.1, 0.15), (3, 0.1, 0.6), (3, -0.01, 0.1), (3, 0.3, 0.5)]:
        with pytest.raises(ValueError):
            competitive_ratio_experiment(d, delta, eta, rng, n=100)


def test_competitive_bracketing_failure_carries_curve():
    # one giant cell makes the smoothed classifier near constant, so its
    # risk sits near 1/2 and no radius can reach eta
    rng = np.random.default_rng(24)
    with pytest.raises(BracketingError) as info:
        competitive_ratio_experiment(
            3, 0.1, 0.3, rng, partition_epsilon=8.0, n=4000, max_draws=4000
        )
    curve = info.value.curve
    assert len(curve) == 9
    assert all(len(pair) == 2 for pair in curve)
    assert isinstance(info.value, RuntimeError)


def test_competitive_happy_path_small_dim():
    rng = np.random.default_rng(25)
    res = competitive_ratio_experiment(3, 0.01, 0.1, rng, n=20000)
    width = res.partition_epsilon / math.sqrt(3)
    assert 0.0 < res.eps_alg <= width / 2 + 1e-9
    assert res.ar_at_eps_alg <= res.eta
    sigma = math.sqrt(res.eta * (1 - res.eta) / res.n)
    assert res.ar_fresh <= res.eta + 3 * sigma
    assert res.eps_opt_bound == pytest.approx((2 * 0.1 / 0.01) ** (1 / 3) - 1)
    assert res.ratio == pytest.approx(res.eps_opt_bound / res.eps_alg)
    assert res.applicable


def test_competitive_delta_zero_not_applicable():
    rng = np.random.default_rng(26)
    res = competitive_ratio_experiment(3, 0.0, 0.1, rng, n=8000)
    assert res.ratio is None and res.eps_opt_bound is None
    assert not res.applicable
    assert res.risk <= 0.05  # truth classifier smoothed at a fine scale


# ---------------------------------------------------------------------------
# partition-refresh game


def test_game_identity_adversary_sits_at_risk_floor():
    task = intersecting_circles_task(2)
    f = task.ground_truth_classifier()
    res = oblivious_game_simulate(
        task, f, 0.3, refresh_every=1, rounds=400, adversary=IdentityAdversary(),
        rng=np.random.default_rng(27),
    )
    assert res.faults == 0
    assert res.error_rate <= 0.15
    assert res.errors.shape == (400,)
    assert res.lo <= res.error_rate <= res.hi


def test_game_counts_faults_and_answers_clean():
    task = intersecting_circles_task(2)
    f = task.ground_truth_classifier()

    class Overstep(IdentityAdversary):
        name = "overstep"

        def propose(self, x, epsilon):
            return x + np.array([10.0, 0.0])

    res = oblivious_game_simulate(
        task, f, 0.1, refresh_every=4, rounds=200, adversary=Overstep(),
        rng=np.random.default_rng(28),
    )
    assert res.faults == 200
    assert res.error_rate <= 0.15  # faulted rounds are answered on the clean point


def test_game_refresh_cells_and_labels_equal_full_matrix_formula():
    # the pool's candidate-pair refresh against ball_assign over the whole
    # pool, over 120 carvings; every third has radius exactly epsilon / 2,
    # and a tenth of the pool lies farther than epsilon / 2 from every
    # center
    task = intersecting_circles_task(2)
    rng = np.random.default_rng(33)
    eps = 0.2
    net = greedy_net(task.sample(rng, 4000)[0], eps / 4.0)
    Xp = task.sample(rng, 2000)[0]
    Xp[::10] += 5.0
    f_pool = np.where(rng.random(len(Xp)) < 0.5, 1.0, -1.0)
    f_centers = np.where(rng.random(len(net)) < 0.5, 1.0, -1.0)
    D = np.linalg.norm(Xp[:, None, :] - net.centers[None, :, :], axis=2)
    assert (D[::10] > eps / 2).all()
    pool_cells = _Candidates(net, Xp, eps / 2, 1).cells
    nc = len(net)

    def labels(cells):
        votes = np.bincount(cells, weights=f_pool, minlength=nc)
        return np.where(np.bincount(cells, minlength=nc) > 0, _sgn(votes), _sgn(f_centers))

    base = sample_ball_carving(net, eps, rng)
    at_edge = 0
    for i in range(120):
        part = resample_ball_carving(base, rng)
        if i % 3 == 0:
            part = BallCarvingPartition(net=net, epsilon=eps, radius=eps / 2, order=part.order)
        want = ball_assign(part, Xp)[0]
        got = pool_cells(part)
        assert np.array_equal(got, want)
        assert np.array_equal(labels(got), labels(want))
        at_edge += int(np.count_nonzero((D > eps / 2 * 0.98) & (D <= part.radius)))
    assert at_edge > 0  # some captures come from the outermost candidates


def test_pool_carver_where_the_tree_would_overflow():
    # centers at (+-1e160, 0) would overflow the KD-tree's pair query
    # (cKDTree raises ValueError): the net rejects them. At (+-2^479, 0), the
    # edge of the domain, the pool's tree pairs give ball_assign's cells
    with pytest.raises(ValueError, match="2\\^480"):
        EpsilonNet(centers=np.array([[1e160, 0.0], [-1e160, 0.0], [0.0, 0.0]]), epsilon=0.25, source_count=3)
    centers = np.array([[2.0**479, 0.0], [-(2.0**479), 0.0], [0.0, 0.0]])
    net = EpsilonNet(centers=centers, epsilon=0.25, source_count=3)
    X = np.random.default_rng(6).uniform(-1.0, 1.0, (100, 2))
    pool_cells = _Candidates(net, X, 0.5, 1).cells
    for order in ([0, 1, 2], [2, 1, 0]):
        part = BallCarvingPartition(net=net, epsilon=1.0, radius=0.5, order=np.array(order))
        assert np.array_equal(pool_cells(part), ball_assign(part, X)[0])


class _Recorder(Adversary):
    """Identity adversary that records each round's x' and answer."""

    def __init__(self):
        self.rounds = []

    def observe(self, x, x_prime, answer):
        self.rounds.append((x_prime, answer))


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("family", ["ball", "cube"])
def test_game_answers_are_scheme_a_votes_or_f_at_the_anchor_once(family, k):
    # every round against the recorded partitions: the scheme-A label of
    # the pool where the query's cell holds pool points, else f at the
    # cell's anchor; beyond the pool, f is asked once per distinct anchor,
    # not at every net center
    task = intersecting_circles_task(2)
    f = task.ground_truth_classifier()
    ref = task.ground_truth_classifier()
    seed, pool = 41, 300
    parts = []
    adversary = _Recorder()
    with pytest.MonkeyPatch.context() as mp:
        for name in ("resample_ball_carving", "sample_cube_partition"):
            real = getattr(evaluation, name)
            mp.setattr(evaluation, name, lambda *a, real=real: parts.append(real(*a)) or parts[-1])
        oblivious_game_simulate(task, f, 0.3, refresh_every=k, rounds=160, adversary=adversary,
                                rng=np.random.default_rng(seed), family=family,
                                partition_epsilon=0.2, pool=pool, net_source=1000)
    Xp = task.sample(np.random.default_rng(seed), pool)[0]  # the game's first draw
    assert len(parts) == 160 // k and len(adversary.rounds) == 160
    anchors = set()
    for i, (xp, answer) in enumerate(adversary.rounds):
        part = parts[i // k]
        cell = part.cells(xp[None])
        if (part.cells(Xp).reshape(pool, -1) == cell.reshape(1, -1)).all(axis=1).any():
            assert answer == scheme_a_estimate(ref, part, Xp).evaluate(xp[None])[0]
        else:
            anchor = part.anchor(cell)
            assert answer == ref(anchor)[0]
            anchors.add(anchor.tobytes())
    assert anchors
    assert f.eval_count - pool == len(anchors)


def test_game_cube_family_and_validation():
    task = intersecting_circles_task(2)
    f = task.ground_truth_classifier()
    res = oblivious_game_simulate(
        task, f, 0.2, refresh_every=8, rounds=120, adversary=IdentityAdversary(),
        rng=np.random.default_rng(29), family="cube",
    )
    assert res.error_rate <= 0.2
    with pytest.raises(ValueError):
        oblivious_game_simulate(
            task, f, 0.2, refresh_every=0, rounds=10, adversary=IdentityAdversary(),
            rng=np.random.default_rng(30),
        )
    with pytest.raises(ValueError):
        oblivious_game_simulate(
            task, f, 0.2, refresh_every=1, rounds=10, adversary=IdentityAdversary(),
            rng=np.random.default_rng(31), family="simplex",
        )


@pytest.mark.parametrize("epsilon", [float("nan"), -1.0])
def test_game_rejects_nan_or_negative_radius(epsilon):
    # before the check, nan ran to the end with 0 faults and -1 faulted every round
    task = intersecting_circles_task(2)
    with pytest.raises(ValueError, match="epsilon"):
        oblivious_game_simulate(
            task, task.ground_truth_classifier(), epsilon, refresh_every=4, rounds=20,
            adversary=IdentityAdversary(), rng=np.random.default_rng(34),
        )


def test_boundary_seeker_stays_within_radius():
    task = intersecting_circles_task(2)
    adv = BoundarySeekAdversary(task)
    rng = np.random.default_rng(32)
    X, _ = task.sample(rng, 100)
    for x in X:
        xp = adv.propose(x, 0.25)
        assert np.linalg.norm(xp - x) <= 0.25 * (1 + 1e-9)
    targets = np.asarray(task.metadata["boundary_points"], dtype=np.float64)
    far = X[np.min(np.linalg.norm(X[:, None, :] - targets[None], axis=-1), axis=1) > 0.3]
    assert len(far) > 0
    for x in far[:20]:
        before = np.min(np.linalg.norm(targets - x, axis=1))
        after = np.min(np.linalg.norm(targets - adv.propose(x, 0.25), axis=1))
        assert after < before


def test_replay_adversary_memory_mechanics():
    task = intersecting_circles_task(2)
    f = task.ground_truth_classifier()
    adv = ReplayAdversary(task, f)
    x = np.array([1.3, 0.2])
    fx = int(f(x[None, :])[0])
    contradiction = x + np.array([0.05, 0.0])
    adv.observe(x, contradiction, -fx)  # answer disagreed with f: remember it
    assert len(adv.memory) == 1
    assert np.array_equal(adv.propose(x, 0.25), contradiction)
    # out of range: falls back to boundary seeking instead of the memory
    far = x + np.array([3.0, 0.0])
    assert not np.array_equal(adv.propose(far, 0.25), contradiction)
    adv.observe(x, contradiction, fx)  # agreeing answers are not stored
    assert len(adv.memory) == 1
    adv.notify_refresh()
    assert adv.memory == []


def test_replay_adversary_asks_its_classifier_once_per_round():
    # propose and observe of a round take the same x, so they share one f(x)
    task = intersecting_circles_task(2)
    own = task.ground_truth_classifier()
    oblivious_game_simulate(task, task.ground_truth_classifier(), 0.3, refresh_every=4, rounds=150,
                            adversary=ReplayAdversary(task, own), rng=np.random.default_rng(34), family="cube")
    assert own.eval_count == 150
