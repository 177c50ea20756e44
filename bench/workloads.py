"""The four benchmark workloads.

Each workload makes its inputs from the seed in ``setup``, runs one pass of
public padsmooth calls in ``run`` (one span per call), and checks a pass's
outputs in ``check`` against the computations in ``checks``. Every pass of
one process repeats the same calls on the same inputs with the same
generators, so its outputs must equal those of the checked warm-up pass.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

import checks
from padsmooth import (
    BlackBoxClassifier,
    ReplayAdversary,
    adversarial_risk_curve,
    cells_of,
    certificate_margins,
    concentric_spheres_task,
    estimate_lipschitz_constant,
    estimate_paddedness,
    greedy_net,
    intersecting_circles_task,
    oblivious_game_simulate,
    padding_certificate,
    plant_error_classifier,
    resample_ball_carving,
    sample_ball_carving,
    sample_cube_partition,
    scheme_b_estimate,
    smooth_exact,
)

ALPHA = 0.1  # the catalog's theorem constants
C_PRIME_BALL = 5.0
C_PRIME_CUBE = 1.0

# Scheme-B inputs are fixed, not drawn from --seed: the batching fault they
# expose must fail the same queries in every run.
SCHEME_B_SEED = 20260814
SCHEME_B_NORMAL = np.array([1.0, 0.6])
SCHEME_B_OFFSET = 0.8
SCHEME_B_EPSILON = 0.6
SCHEME_B_VOTES = 3


def gen(seed: int, *path: int) -> np.random.Generator:
    """The benchmark's own generator for (seed, *path)."""
    return np.random.default_rng(np.random.SeedSequence([seed & (2**63 - 1), len(path), *path]))


def unit_ball(rng, n, d):
    x = rng.standard_normal((n, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x * rng.random((n, 1)) ** (1.0 / d)


class Recorded:
    """Wraps a callable and keeps what it returns."""

    def __init__(self, fn):
        self.fn = fn
        self.items = []

    def __call__(self, *args):
        out = self.fn(*args)
        self.items.append(out)
        return out


def recording(task):
    """The task with a sampler that keeps its draws, and the draw list."""
    sampler = Recorded(task.sampler)
    return dataclasses.replace(task, sampler=sampler), sampler.items


def stacked(draws):
    return np.concatenate([x for x, _ in draws]), np.concatenate([y for _, y in draws])


class Queries:
    """Base-classifier queries made inside a block, over several classifiers."""

    def __init__(self, *classifiers):
        self.classifiers = classifiers

    def __call__(self) -> int:
        return sum(c.eval_count for c in self.classifiers)


# ---------------------------------------------------------------------------
# certified pipelines: carving and lattice


class Pipeline:
    """Smooth, evaluate, certify and attack over random partitions.

    family "ball" mirrors a spheres_bounds block (greedy net, ball carving),
    family "cube" the cube pipeline of spheres_competitive and cube_theorem.
    A pass draws `replicates` partitions, as circles_manifold does, so that
    one draw of the carving radius does not set the work of a whole run.
    """

    def __init__(self, family, dim, eps, *, delta, per_cell, max_draws, n_eval, n_risk,
                 attack_trials, replicates=1, source=0, cube_epsilon=0.0, radii=()):
        self.family, self.dim, self.eps = family, dim, eps
        self.delta, self.per_cell, self.max_draws = delta, per_cell, max_draws
        self.n_eval, self.n_risk, self.attack_trials = n_eval, n_risk, attack_trials
        self.replicates, self.source = replicates, source
        if family == "ball":
            self.eps_part = dim * eps / ALPHA
            self.radii = [eps]
        else:
            self.eps_part = cube_epsilon
            # the radius at which cube_theorem's bound holds for this partition
            self.eps = ALPHA * cube_epsilon / (2.0 * dim**1.5)
            self.radii = [self.eps, *radii]

    def setup(self, seed, tr):
        self.seed = seed
        self.task = concentric_spheres_task(self.dim)
        self.f = plant_error_classifier(self.task, self.delta, gen(seed, 0))
        with tr.span("tasks.sample"):
            self.X, self.y = self.task.sample(gen(seed, 1), self.n_eval)
            if self.source:
                self.src, _ = self.task.sample(gen(seed, 2), self.source)

    @property
    def ops(self):
        return (self.family == "ball") + 5 * self.replicates

    def run(self, tr):
        seed, f = self.seed, self.f
        task, draws = recording(self.task)
        queries = Queries(f)
        q0 = queries()
        out = {"net_centers": 0, "reps": [], "failed": 0}
        if self.family == "ball":
            with tr.span("geometry.greedy_net"):
                net = greedy_net(self.src, self.eps_part / 4.0)
            out["net_centers"] = len(net)
        for r in range(self.replicates):
            rep = {}
            with tr.span("partitions.sample"):
                if self.family == "ball":
                    part = sample_ball_carving(net, self.eps_part, gen(seed, 3, r))
                else:
                    part = sample_cube_partition(self.dim, self.eps_part, gen(seed, 3, r))
            q = queries()
            with tr.span("smoothing.smooth_exact"):
                g = smooth_exact(f, part, task, self.per_cell, gen(seed, 4, r), max_draws=self.max_draws)
            rep["smooth_queries"], q = queries() - q, queries()
            rep["smooth_draws"] = stacked(draws)[0]
            draws.clear()
            with tr.span("smoothing.evaluate"):
                labels = g.evaluate(self.X)
            rep["fallback_queries"] = queries() - q
            with tr.span("partitions.certificate_margins"):
                margins, off = certificate_margins(part, self.X)
            q = queries()
            with tr.span("evaluation.adversarial_risk_curve"):
                reports = adversarial_risk_curve(g, task, self.radii, self.n_risk, gen(seed, 5, r),
                                                 attack_trials=self.attack_trials)
            rep["attack_queries"] = queries() - q
            rep["risk_sample"] = stacked(draws)
            draws.clear()
            rep.update(part=part, g=g, labels=labels, margins=margins, off=off, reports=reports)
            out["reps"].append(rep)
        out["f_queries"] = queries() - q0
        return out

    def check(self, out):
        fails, overstated = [], 0
        for r, rep in enumerate(out["reps"]):
            msgs, n = self.check_replicate(rep, gen(self.seed, 6, r))
            fails += [f"replicate {r}: {m}" for m in msgs]
            overstated += n
        return fails, {"partitions.overstated_margins": overstated}

    def check_replicate(self, rep, rng):
        part, g = rep["part"], rep["g"]
        ref = checks.Reference(part, self.f, rep["smooth_draws"])
        fails = checks.check_cell_labels(g, ref, self.per_cell)
        fails += checks.check_labels(rep["labels"], ref, self.X)
        sub = self.X[:512] if self.family == "ball" else self.X  # a carving's cells on a subsample
        fails += checks.check_cells(ref.geo, sub, cells_of(part, sub))
        c_prime = C_PRIME_BALL if self.family == "ball" else C_PRIME_CUBE
        rhs = 2 * self.task.separation(self.eps_part) + 2 * self.delta + c_prime * ALPHA
        margin_fails, overstated = checks.check_margins(ref.geo, self.X, rep["margins"], rep["off"])
        fails += margin_fails
        fails += checks.check_certified(g, self.X, rep["margins"], rep["off"], self.eps, rng)
        X, y = rep["risk_sample"]
        fails += checks.check_reports(rep["reports"], ref, X, y, bound={self.eps: rhs})
        return fails, overstated

    @staticmethod
    def same(a, b):
        def same_rep(ra, rb):
            pa, pb = ra["part"], rb["part"]
            same_part = (np.array_equal(pa.shift, pb.shift) if hasattr(pa, "shift")
                         else np.array_equal(pa.order, pb.order) and pa.radius == pb.radius
                         and np.array_equal(pa.net.centers, pb.net.centers))
            return (same_part and ra["g"].cell_labels == rb["g"].cell_labels
                    and all(np.array_equal(ra[k], rb[k]) for k in ("labels", "margins", "off"))
                    and ra["reports"] == rb["reports"])

        return (a["f_queries"] == b["f_queries"] and len(a["reps"]) == len(b["reps"])
                and all(same_rep(ra, rb) for ra, rb in zip(a["reps"], b["reps"])))

    @staticmethod
    def counts(out):
        reps = out["reps"]
        return {
            "geometry.net_centers": out["net_centers"],
            "smoothing.cells": sum(len(r["g"].cell_labels) for r in reps),
            "smoothing.flagged_cells": sum(len(r["g"].flagged_cells) for r in reps),
            "smoothing.fallback_queries": sum(r["fallback_queries"] for r in reps),
            "evaluation.attack_f_queries": sum(r["attack_queries"] for r in reps),
            "tasks.f_queries.smooth": sum(r["smooth_queries"] for r in reps),
        }


# ---------------------------------------------------------------------------
# small calls: game, one-point certificates, estimators, scheme B


class SmallCalls:
    """Many small partitions and one-point queries.

    Mirrors oblivious_game (ball family, replay adversary), the ball blocks
    of padding_curves (circles) and lipschitz_curves (unit ball, d=8), the
    cube estimators those experiments check against closed forms, and
    scheme B on carved cells of a square split by a line.
    """

    GAME = dict(epsilon=0.3, refresh_every=4, rounds=600, partition_epsilon=0.2, pool=2000,
                net_source=4000)
    CIRCLE_EPS, CIRCLE_SOURCE, CIRCLE_TRIALS = 0.2, 10000, 300
    BALL_DIM, BALL_EPS, BALL_SOURCE, PROBES = 8, 1.6, 4000, 100
    LIP_FRACTIONS, LIP_TRIALS = (0.01, 0.02, 0.04, 0.08, 0.12), 60
    CUBE_PAD = dict(dim=4, t=0.05, trials=2000)
    CUBE_LIP = dict(distances=(0.1, 0.4), trials=1000)
    QUERIES = 400

    def setup(self, seed, tr):
        self.seed = seed
        self.circles = intersecting_circles_task(2)
        self.f = self.circles.ground_truth_classifier()
        with tr.span("tasks.sample"):
            self.circle_src, _ = self.circles.sample(gen(seed, 1), self.CIRCLE_SOURCE)
        rng = gen(seed, 2)
        self.ball_src = unit_ball(rng, self.BALL_SOURCE, self.BALL_DIM)
        self.probes = unit_ball(rng, self.PROBES, self.BALL_DIM)
        fixed = np.random.default_rng(SCHEME_B_SEED)
        self.square = fixed.random((2000, 2))
        self.queries = fixed.random((self.QUERIES, 2))
        self.query_order = fixed.permutation(self.QUERIES)
        self.line = BlackBoxClassifier(
            lambda X: np.where(X @ SCHEME_B_NORMAL >= SCHEME_B_OFFSET, 1, -1), name="line")

    @property
    def ops(self):
        # game, 3 nets, 3 carvings, 4 estimators, 2 scheme-B classifiers, the
        # 2 x PROBES one-point calls, and one per scheme-B query
        return 13 + 2 * self.PROBES + self.QUERIES

    def run(self, tr):
        seed, dim = self.seed, self.BALL_DIM
        queries = Queries(self.f, self.line)
        q0 = queries()
        out = {}
        with tr.span("evaluation.game"):
            out["game"] = oblivious_game_simulate(
                self.circles, self.f, self.GAME["epsilon"], self.GAME["refresh_every"],
                self.GAME["rounds"], ReplayAdversary(self.circles, self.f), gen(seed, 3),
                family="ball", partition_epsilon=self.GAME["partition_epsilon"],
                pool=self.GAME["pool"], net_source=self.GAME["net_source"])

        with tr.span("geometry.greedy_net"):
            cnet = greedy_net(self.circle_src, self.CIRCLE_EPS / 4.0)
        with tr.span("partitions.sample"):
            cbase = sample_ball_carving(cnet, self.CIRCLE_EPS, gen(seed, 4))
        fam = Recorded(lambda r: resample_ball_carving(cbase, r))
        data = Recorded(lambda r: self.circles.sample(r, 1)[0][0])
        with tr.span("partitions.estimators"):
            pad = estimate_paddedness(fam, data, self.CIRCLE_EPS / 20, self.CIRCLE_TRIALS, gen(seed, 5))
        out["circle_pad"] = (pad, fam.items, data.items)

        with tr.span("geometry.greedy_net"):
            bnet = greedy_net(self.ball_src, self.BALL_EPS / 4.0)
        with tr.span("partitions.sample"):
            bbase = sample_ball_carving(bnet, self.BALL_EPS, gen(seed, 6))
        rng, parts, certs = gen(seed, 7), [], []
        for x in self.probes:
            with tr.span("partitions.sample"):
                part = resample_ball_carving(bbase, rng)
            with tr.span("partitions.padding_certificate"):
                certs.append(padding_certificate(part, x, self.BALL_EPS / 20))
            parts.append(part)
        out["certs"] = (certs, parts)

        def pair(r, dist):
            v = r.standard_normal(dim)
            v /= np.linalg.norm(v)
            x = unit_ball(r, 1, dim)[0] * (1.0 - dist)
            return x, x + dist * v

        fam, pairs = Recorded(lambda r: resample_ball_carving(bbase, r)), Recorded(pair)
        with tr.span("partitions.estimators"):
            lip = estimate_lipschitz_constant(fam, pairs, [s * self.BALL_EPS for s in self.LIP_FRACTIONS],
                                              self.LIP_TRIALS, gen(seed, 8), epsilon=self.BALL_EPS)
        out["ball_lip"] = (lip, fam.items, pairs.items)

        cp = self.CUBE_PAD
        fam = Recorded(lambda r: sample_cube_partition(cp["dim"], 1.0, r))
        data = Recorded(lambda r: r.random(cp["dim"]))
        with tr.span("partitions.estimators"):
            pad = estimate_paddedness(fam, data, cp["t"], cp["trials"], gen(seed, 9))
        out["cube_pad"] = (pad, fam.items, data.items)

        def pair1(r, dist):
            x = r.random(1) * 4.0
            return x, x + dist

        fam, pairs = Recorded(lambda r: sample_cube_partition(1, 1.0, r)), Recorded(pair1)
        with tr.span("partitions.estimators"):
            lip = estimate_lipschitz_constant(fam, pairs, self.CUBE_LIP["distances"],
                                              self.CUBE_LIP["trials"], gen(seed, 10), epsilon=1.0)
        out["cube_lip"] = (lip, fam.items, pairs.items)

        with tr.span("geometry.greedy_net"):
            snet = greedy_net(self.square, SCHEME_B_EPSILON / 4.0)
        with tr.span("partitions.sample"):
            spart = sample_ball_carving(snet, SCHEME_B_EPSILON, gen(SCHEME_B_SEED, 1))
        with tr.span("smoothing.scheme_b"):
            batch = scheme_b_estimate(self.line, spart, SCHEME_B_VOTES, None, gen(SCHEME_B_SEED, 2))
            batch_labels = batch.evaluate(self.queries)
        with tr.span("smoothing.scheme_b"):
            single = scheme_b_estimate(self.line, spart, SCHEME_B_VOTES, None, gen(SCHEME_B_SEED, 2))
            single_labels = np.empty(self.QUERIES, dtype=np.int8)
            for i in self.query_order:
                single_labels[i] = single.evaluate(self.queries[i : i + 1])[0]
        out["scheme_b"] = (batch, single, batch_labels, single_labels)
        out["net_centers"] = len(cnet) + len(bnet) + len(snet)
        out["f_queries"] = queries() - q0
        # the known fault: scheme-B labels of carved cells depend on query order
        out["failed"] = int((batch_labels != single_labels).sum())
        return out

    def check(self, out):
        game = out["game"]
        fails = []
        if game.faults or len(game.errors) != game.rounds or game.error_rate != game.errors.mean() \
                or not game.lo <= game.error_rate <= game.hi:
            fails.append(f"game: inconsistent result (faults={game.faults}, rate={game.error_rate})")
        pad, parts, points = out["circle_pad"]
        fails += checks.check_paddedness(pad, parts, points, self.CIRCLE_EPS / 20)
        certs, parts = out["certs"]
        fails += checks.check_certificates(certs, parts, self.probes, self.BALL_EPS / 20)
        lip, parts, pairs = out["ball_lip"]
        fails += checks.check_lipschitz(lip, parts, pairs, self.LIP_TRIALS)

        cp = self.CUBE_PAD
        pad, parts, points = out["cube_pad"]
        fails += checks.check_paddedness(pad, parts, points, cp["t"])
        width = 1.0 / math.sqrt(cp["dim"])
        fails += checks.check_closed_form("cube cut probability", pad.value, cp["trials"],
                                          1.0 - (1.0 - 2.0 * cp["t"] / width) ** cp["dim"])
        lip, parts, pairs = out["cube_lip"]
        fails += checks.check_lipschitz(lip, parts, pairs, self.CUBE_LIP["trials"])
        for dist, p, _, _ in lip.points:  # width = epsilon = 1 in 1-D
            fails += checks.check_closed_form(f"1-D split probability at {dist}", p,
                                              self.CUBE_LIP["trials"], min(1.0, dist))

        batch, single, _, _ = out["scheme_b"]
        for clf in (batch, single):
            fails += checks.check_one_sided(clf, SCHEME_B_NORMAL, SCHEME_B_OFFSET)
        return fails, {"partitions.overstated_margins": 0}

    @staticmethod
    def same(a, b):
        ga, gb = a["game"], b["game"]
        return (np.array_equal(ga.errors, gb.errors)
                and all(a[k][0] == b[k][0] for k in ("circle_pad", "ball_lip", "cube_pad", "cube_lip"))
                and a["certs"][0] == b["certs"][0]
                and a["scheme_b"][0].cell_labels == b["scheme_b"][0].cell_labels
                and np.array_equal(a["scheme_b"][3], b["scheme_b"][3])
                and a["f_queries"] == b["f_queries"])

    @staticmethod
    def counts(out):
        batch = out["scheme_b"][0]
        return {
            "geometry.net_centers": out["net_centers"],
            "smoothing.cells": len(batch.cell_labels),
            "smoothing.flagged_cells": len(batch.flagged_cells),
            "smoothing.fallback_queries": 0,
            "evaluation.attack_f_queries": 0,
            "tasks.f_queries.smooth": 0,
        }


WORKLOADS = {
    # spheres_bounds main block, d=20: the net keeps every source point
    "carve_highdim": lambda: Pipeline("ball", 20, 0.008, delta=0.05, per_cell=20, max_draws=4096,
                                      n_eval=1024, n_risk=512, attack_trials=8, replicates=3,
                                      source=2048),
    # spheres_bounds small block, d=3: few centers near each point
    "carve_lowdim": lambda: Pipeline("ball", 3, 0.009, delta=0.05, per_cell=20, max_draws=4096,
                                     n_eval=1024, n_risk=512, attack_trials=4, replicates=3,
                                     source=8000),
    # spheres_competitive / cube_theorem cube pipeline, d=20
    "lattice_bulk": lambda: Pipeline("cube", 20, 0.0, delta=0.01, per_cell=24, max_draws=20000,
                                     n_eval=20000, n_risk=5000, attack_trials=4,
                                     cube_epsilon=0.29, radii=(0.01,)),
    "small_calls": SmallCalls,
}
