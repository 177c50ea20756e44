"""Named experiment pipelines behind the CLI.

Each experiment is a pure function of (config, seed) that returns CSV rows
plus optional JSON artifacts (serialized partitions and classifiers for
replay). Rows follow one long-format schema so downstream plotting never
needs experiment-specific parsing. Bound rows carry the analytic
right-hand side in `bound` and a pass/fail verdict in `ok`; tolerance is
three binomial standard errors unless stated in the row's metric name.

All randomness descends from the config seed through fixed purpose slots,
so reruns are byte-identical and adding experiments never shifts existing
streams.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import rng as rngmod
from .evaluation import (
    IdentityAdversary,
    BoundarySeekAdversary,
    ReplayAdversary,
    adversarial_risk_curve,
    competitive_ratio_experiment,
    estimate_risk,
    oblivious_game_simulate,
)
from .geometry import estimate_doubling_dimension, greedy_net
from .partitions import (
    _contained,
    certificate_margins,
    estimate_lipschitz_constant,
    estimate_paddedness,
    resample_ball_carving,
    sample_ball_carving,
    sample_cube_partition,
)
from .smoothing import gaussian_smoothing, smooth_exact
from .tasks import (
    central_blindspot_classifier,
    concentric_spheres_task,
    hard_distribution_task,
    intersecting_circles_task,
    left_disc_indicator,
    plant_error_classifier,
    two_discs_task,
)

# Constants frozen after the pilot calibration; tests/acceptance_config.json
# mirrors these values and the acceptance suite asserts they match.
THEOREM_CONSTANTS = {
    "alpha": 0.1,
    "c_prime_ball": 5.0,
    "c_prime_cube": 1.0,
    "ratio_constant": 60.0,
    "linear_factor": 4.0,
}

CSV_COLUMNS = (
    "experiment",
    "task",
    "partition",
    "scheme",
    "d",
    "epsilon",
    "beta",
    "delta",
    "sigma",
    "eta",
    "t",
    "k",
    "n",
    "seed",
    "metric",
    "value",
    "lo",
    "hi",
    "bound",
    "ok",
)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        if "," in v or "\n" in v:
            raise ValueError(f"CSV field may not contain separators: {v!r}")
        return v
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    raise TypeError(f"cannot format {type(v)!r} for CSV")


def _row(metric: str, value, **kw) -> dict:
    row = {c: "" for c in CSV_COLUMNS}
    row["metric"] = metric
    row["value"] = value
    for key, val in kw.items():
        if key not in row:
            raise KeyError(f"unknown CSV column {key!r}")
        row[key] = val
    return row


def _se(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


def _floats(text: str) -> list[float]:
    return [float(s) for s in str(text).split(",") if s.strip()]


def _ints(text: str) -> list[int]:
    return [int(s) for s in str(text).split(",") if s.strip()]


def _streams(seed: int) -> dict:
    return {
        "task": rngmod.stream(seed, rngmod.TASK_STREAM),
        "part": rngmod.stream(seed, rngmod.PARTITION_STREAM),
        "smooth": rngmod.stream(seed, rngmod.SMOOTHING_STREAM),
        "eval": rngmod.stream(seed, rngmod.EVAL_STREAM),
        "attack": rngmod.stream(seed, rngmod.ATTACK_STREAM),
        "game": rngmod.stream(seed, rngmod.GAME_STREAM),
        "aux": rngmod.stream(seed, rngmod.AUX_STREAM),
    }


def _certified_ar(rows, checks, check, g, task, eps, n, rng, attack_trials, rhs, t, **labels):
    """One-radius certified AR of g: appends the check ar_upper <= rhs + 3 se
    under the name `check` and the ar_upper, ar_lower and certified_fraction
    rows of scheme exact, with `labels` as further columns; returns the
    report."""
    rep = adversarial_risk_curve(g, task, [eps], n, rng, attack_trials=attack_trials)[0]
    ok = rep.ar_upper <= rhs + 3 * _se(rep.ar_upper, n)
    checks.append((check, ok, f"ar_upper={rep.ar_upper:.4f} <= {rhs:.4f}"))
    labels.update(task=task.name, scheme="exact", epsilon=eps, n=n)
    rows.append(_row("ar_upper", rep.ar_upper, **labels, t=t, lo=rep.ar_upper_lo,
                     hi=rep.ar_upper_hi, bound=rhs, ok=_verdict(ok)))
    rows.append(_row("ar_lower", rep.ar_lower, **labels, lo=rep.ar_lower_lo, hi=rep.ar_lower_hi))
    rows.append(_row("certified_fraction", rep.certified_fraction, **labels,
                     lo=rep.certified_lo, hi=rep.certified_hi))
    return rep


@dataclass(frozen=True)
class ExperimentOutput:
    rows: list
    artifacts: dict
    checks: list


# ---------------------------------------------------------------------------
# two_discs: noise smoothing destroys an easy task, partitions do not


def _run_two_discs(cfg: dict, seed: int) -> ExperimentOutput:
    st = _streams(seed)
    task = two_discs_task()
    f = left_disc_indicator()
    n = cfg["n"]
    rows, checks = [], []

    base = estimate_risk(f, task, n, st["eval"])
    rows.append(_row("risk", base.value, task=task.name, scheme="base", d=2, n=n,
                     lo=base.lo, hi=base.hi))

    g_noise = gaussian_smoothing(f, cfg["sigma"], cfg["gaussian_draws"], st["smooth"])
    rn = estimate_risk(g_noise, task, n, st["eval"])
    ok = abs(rn.value - 0.5) <= 0.02
    checks.append(("gaussian_risk_half", ok, f"risk={rn.value:.4f} target 0.5 +- 0.02"))
    rows.append(_row("risk", rn.value, task=task.name, scheme="gaussian", d=2, n=n,
                     sigma=cfg["sigma"], k=cfg["gaussian_draws"], lo=rn.lo, hi=rn.hi,
                     bound=0.5, ok=_verdict(ok)))

    part = sample_cube_partition(2, cfg["partition_epsilon"], st["part"])
    g_part = smooth_exact(f, part, task, cfg["per_cell"], st["smooth"],
                          max_draws=cfg["max_draws"])
    rp = estimate_risk(g_part, task, n, st["eval"])
    ok2 = rp.value <= 0.01
    checks.append(("partition_risk_small", ok2, f"risk={rp.value:.4f} <= 0.01"))
    rows.append(_row("risk", rp.value, task=task.name, partition="cube", scheme="exact",
                     d=2, epsilon=cfg["partition_epsilon"], n=n, lo=rp.lo, hi=rp.hi,
                     bound=0.01, ok=_verdict(ok2)))

    artifacts = {
        "partition.json": part.to_dict(),
        "classifier.json": g_part.to_dict(),
    }
    return ExperimentOutput(rows, artifacts, checks)


# ---------------------------------------------------------------------------
# hard_distribution: conditioned Gaussian smoothing inflates the base risk


def _run_hard_distribution(cfg: dict, seed: int) -> ExperimentOutput:
    rows, checks = [], []
    st = _streams(seed)
    sigma = cfg["sigma"]
    min_packing = cfg["min_packing"]
    chosen = None
    for d in _ints(cfg["d_grid"]):
        task = hard_distribution_task(d, sigma, rngmod.stream(seed, rngmod.TASK_STREAM, d),
                                      packing_trials=cfg["packing_trials"])
        achieved = task.metadata["packing_achieved"]
        rows.append(_row("packing_size", achieved, task=task.name, d=d, sigma=sigma,
                         bound=min_packing, ok=_verdict(achieved >= min_packing)))
        rows.append(_row("packing_target", task.metadata["packing_target"], task=task.name,
                         d=d, sigma=sigma))
        f_d = central_blindspot_classifier(task)
        g_trend = gaussian_smoothing(f_d, sigma, cfg["pool"],
                                     rngmod.stream(seed, rngmod.SMOOTHING_STREAM, d), task=task)
        r_trend = estimate_risk(g_trend, task, cfg["n_trend"],
                                rngmod.stream(seed, rngmod.EVAL_STREAM, d))
        rows.append(_row("risk", r_trend.value, task=task.name, scheme="conditioned-gaussian",
                         d=d, sigma=sigma, n=cfg["n_trend"], lo=r_trend.lo, hi=r_trend.hi))
        if achieved >= min_packing and (chosen is None or d > chosen[0]):
            chosen = (d, task)
    if chosen is None:
        raise RuntimeError(
            f"no dimension in grid {cfg['d_grid']} packs >= {min_packing} points; "
            f"raise packing_trials or lower min_packing")
    d, task = chosen
    n = cfg["n"]
    f = central_blindspot_classifier(task)
    rows.append(_row("chosen_d", d, task=task.name, sigma=sigma))
    rows.append(_row("blob_scale", task.metadata["eps"], task=task.name, d=d, sigma=sigma))

    rb = estimate_risk(f, task, n, st["eval"])
    base_bound = math.exp(-0.01 * d) + 3 * _se(rb.value, n)
    okb = rb.value <= base_bound
    checks.append(("base_risk_small", okb, f"risk={rb.value:.4f} <= {base_bound:.4f}"))
    rows.append(_row("risk", rb.value, task=task.name, scheme="base", d=d, sigma=sigma,
                     n=n, lo=rb.lo, hi=rb.hi, bound=base_bound, ok=_verdict(okb)))

    g_cond = gaussian_smoothing(f, sigma, cfg["pool"], st["smooth"], task=task)
    rc = estimate_risk(g_cond, task, n, st["eval"])
    okc = rc.value >= 0.2
    checks.append(("conditioned_risk_blows_up", okc, f"risk={rc.value:.4f} >= 0.2"))
    rows.append(_row("risk", rc.value, task=task.name, scheme="conditioned-gaussian", d=d,
                     sigma=sigma, n=n, k=cfg["pool"], lo=rc.lo, hi=rc.hi, bound=0.2,
                     ok=_verdict(okc)))

    g_plain = gaussian_smoothing(f, sigma, cfg["gaussian_draws"], st["smooth"])
    rg = estimate_risk(g_plain, task, cfg["n_trend"], st["eval"])
    rows.append(_row("risk", rg.value, task=task.name, scheme="gaussian", d=d, sigma=sigma,
                     n=cfg["n_trend"], k=cfg["gaussian_draws"], lo=rg.lo, hi=rg.hi))

    eps_part = cfg["partition_scale"] * task.metadata["eps"]
    part = sample_cube_partition(d, eps_part, st["part"])
    g_part = smooth_exact(f, part, task, cfg["per_cell"], st["smooth"],
                          max_draws=cfg["max_draws"])
    rp = estimate_risk(g_part, task, n, st["eval"])
    part_bound = 2 * rb.value + 0.02
    okp = rp.value <= part_bound
    checks.append(("partition_risk_tracks_base", okp, f"risk={rp.value:.4f} <= {part_bound:.4f}"))
    rows.append(_row("risk", rp.value, task=task.name, partition="cube", scheme="exact", d=d,
                     epsilon=eps_part, sigma=sigma, n=n, lo=rp.lo, hi=rp.hi,
                     bound=part_bound, ok=_verdict(okp)))

    artifacts = {"partition.json": part.to_dict()}
    return ExperimentOutput(rows, artifacts, checks)


# ---------------------------------------------------------------------------
# spheres_bounds: end-to-end certified AR bound for ball carving


def _spheres_bound_block(rows, checks, seed, d, delta, eps_list, alpha, c_prime,
                         net_source, n, per_cell, max_draws, attack_trials, artifacts,
                         save_artifacts):
    task = concentric_spheres_task(d)
    f = plant_error_classifier(task, delta, rngmod.stream(seed, rngmod.TASK_STREAM, d))
    src, _ = task.sample(rngmod.stream(seed, rngmod.AUX_STREAM, d), net_source)
    for j, eps in enumerate(eps_list):
        eps_part = d * eps / alpha
        net = greedy_net(src, eps_part / 4.0)
        part = sample_ball_carving(net, eps_part, rngmod.stream(seed, rngmod.PARTITION_STREAM, d, j))
        g = smooth_exact(f, part, task, per_cell, rngmod.stream(seed, rngmod.SMOOTHING_STREAM, d, j),
                         max_draws=max_draws)
        rhs = 2 * task.separation(d * eps / alpha) + 2 * delta + c_prime * alpha
        rep = _certified_ar(rows, checks, f"ball_bound_d{d}_eps{eps}", g, task, eps, n,
                            rngmod.stream(seed, rngmod.EVAL_STREAM, d, j), attack_trials, rhs,
                            eps_part, partition="ball", d=d, delta=delta)
        rows.append(_row("risk", rep.risk, task=task.name, partition="ball", scheme="exact",
                         d=d, epsilon=eps, delta=delta, n=n, lo=rep.risk_lo, hi=rep.risk_hi))
        if save_artifacts and j == len(eps_list) - 1:
            artifacts["partition.json"] = part.to_dict()
            artifacts["classifier.json"] = g.to_dict()


def _run_spheres_bounds(cfg: dict, seed: int) -> ExperimentOutput:
    rows, checks = [], []
    artifacts: dict = {}
    alpha = cfg["alpha"]
    _spheres_bound_block(rows, checks, seed, cfg["d"], cfg["delta"], _floats(cfg["eps_list"]),
                         alpha, cfg["c_prime"], cfg["net_source"], cfg["n"], cfg["per_cell"],
                         cfg["max_draws"], cfg["attack_trials"], artifacts, save_artifacts=False)
    _spheres_bound_block(rows, checks, seed, cfg["d_small"], cfg["delta"],
                         _floats(cfg["eps_list_small"]), alpha, cfg["c_prime"],
                         cfg["net_source_small"], cfg["n_small"], cfg["per_cell"],
                         cfg["max_draws"], cfg["attack_trials"], artifacts, save_artifacts=True)
    return ExperimentOutput(rows, artifacts, checks)


# ---------------------------------------------------------------------------
# spheres_competitive: achievable certified radius vs the optimal scale


def _run_spheres_competitive(cfg: dict, seed: int) -> ExperimentOutput:
    rows, checks = [], []
    delta, eta = cfg["delta"], cfg["eta"]
    scaled = []
    for d in _ints(cfg["d_list"]):
        res = competitive_ratio_experiment(
            d, delta, eta, rngmod.stream(seed, rngmod.EVAL_STREAM, d),
            partition_epsilon=cfg["partition_epsilon"], per_cell=cfg["per_cell"],
            max_draws=cfg["max_draws"], n=cfg["n"])
        scaled.append((d, res.eps_alg))
        rows.append(_row("eps_alg", res.eps_alg, task="concentric_spheres", partition="cube",
                         scheme="exact", d=d, epsilon=cfg["partition_epsilon"], delta=delta,
                         eta=eta, n=cfg["n"]))
        rows.append(_row("risk", res.risk, task="concentric_spheres", partition="cube",
                         scheme="exact", d=d, delta=delta, eta=eta, n=cfg["n"]))
        okf = res.ar_fresh <= eta + 3 * _se(eta, cfg["n"])
        checks.append((f"fresh_ar_below_eta_d{d}", okf,
                       f"ar_fresh={res.ar_fresh:.4f} <= eta={eta}"))
        rows.append(_row("ar_fresh", res.ar_fresh, task="concentric_spheres", partition="cube",
                         scheme="exact", d=d, delta=delta, eta=eta, n=cfg["n"],
                         bound=eta, ok=_verdict(okf)))
        if res.applicable:
            rows.append(_row("eps_opt_bound", res.eps_opt_bound, task="concentric_spheres",
                             d=d, delta=delta, eta=eta))
            ratio_cap = cfg["ratio_constant"] * math.log(eta / delta) / (eta - 2 * delta)
            okr = res.ratio <= ratio_cap
            checks.append((f"ratio_bounded_d{d}", okr, f"ratio={res.ratio:.1f} <= {ratio_cap:.1f}"))
            rows.append(_row("competitive_ratio", res.ratio, task="concentric_spheres", d=d,
                             delta=delta, eta=eta, bound=ratio_cap, ok=_verdict(okr)))
    coeffs = [d * e for d, e in scaled]
    spread = max(coeffs) / min(coeffs) if min(coeffs) > 0 else math.inf
    oks = spread <= cfg["linear_factor"]
    checks.append(("eps_alg_inverse_d_scaling", oks,
                   f"spread of d*eps_alg = {spread:.2f} <= {cfg['linear_factor']}"))
    rows.append(_row("eps_alg_d_spread", spread, task="concentric_spheres", delta=delta,
                     eta=eta, bound=cfg["linear_factor"], ok=_verdict(oks)))
    return ExperimentOutput(rows, {}, checks)


# ---------------------------------------------------------------------------
# circles_manifold: ambient dimension does not move the certified AR


def _run_circles_manifold(cfg: dict, seed: int) -> ExperimentOutput:
    rows, checks = [], []
    eps = cfg["epsilon_eval"]
    reps = cfg["replicates"]
    n_each = cfg["n"] // reps
    per_ambient = {}
    for d in _ints(cfg["ambient_list"]):
        task = intersecting_circles_task(d)
        f = task.ground_truth_classifier()
        src, _ = task.sample(rngmod.stream(seed, rngmod.TASK_STREAM, d), cfg["net_source"])
        net = greedy_net(src, cfg["partition_epsilon"] / 4.0)
        base = sample_ball_carving(net, cfg["partition_epsilon"],
                                   rngmod.stream(seed, rngmod.PARTITION_STREAM, d))
        vals = []
        events = 0
        for rep_i in range(reps):
            part = resample_ball_carving(base, rngmod.stream(seed, rngmod.PARTITION_STREAM, d, rep_i))
            g = smooth_exact(f, part, task, cfg["per_cell"],
                             rngmod.stream(seed, rngmod.SMOOTHING_STREAM, d, rep_i),
                             max_draws=cfg["max_draws"])
            X, y = task.sample(rngmod.stream(seed, rngmod.EVAL_STREAM, d, rep_i), n_each)
            mis = g.evaluate(X) != y
            margins, off = certificate_margins(part, X)
            upper = mis | ~_contained(off, margins, eps)
            events += int(upper.sum())
            vals.append(float(upper.mean()))
        vals_arr = np.asarray(vals)
        per_ambient[d] = (vals_arr, events)
        rows.append(_row("ar_upper", events / (n_each * reps), task=task.name, partition="ball",
                         scheme="exact", d=d, epsilon=eps, n=n_each * reps, k=reps,
                         lo=float(vals_arr.mean() - vals_arr.std(ddof=1)),
                         hi=float(vals_arr.mean() + vals_arr.std(ddof=1))))
        rows.append(_row("net_size", len(net.centers), task=task.name, partition="ball", d=d,
                         epsilon=cfg["partition_epsilon"]))
    dims = sorted(per_ambient)
    a, b = per_ambient[dims[0]][0], per_ambient[dims[1]][0]
    va = a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b)
    z = 0.0 if va == 0 else float((a.mean() - b.mean()) / math.sqrt(va))
    ok = abs(z) <= 3.0
    checks.append(("ambient_independence", ok, f"|z|={abs(z):.2f} <= 3 across d={dims}"))
    rows.append(_row("ambient_gap_z", z, task="intersecting_circles", partition="ball",
                     epsilon=eps, n=cfg["n"], bound=3.0, ok=_verdict(ok)))
    return ExperimentOutput(rows, {}, checks)


# ---------------------------------------------------------------------------
# padding_curves: measured cut probabilities against the analytic constants


def _run_padding_curves(cfg: dict, seed: int) -> ExperimentOutput:
    rows, checks = [], []
    trials = cfg["trials"]

    for d in _ints(cfg["cube_d_list"]):
        betas = [4.0 * math.sqrt(d), cfg["beta_scale"] * d ** 1.5]
        for beta in betas:
            t = 1.0 / beta  # epsilon = 1, scale free
            family = lambda r, _d=d: sample_cube_partition(_d, 1.0, r)
            data = lambda r, _d=d: r.random(_d)
            est = estimate_paddedness(family, data, t, trials,
                                      rngmod.stream(seed, rngmod.PARTITION_STREAM, d, int(beta * 1000)))
            bound = min(1.0, 2.0 * d ** 1.5 / beta)
            ok = est.value <= bound + 3 * _se(est.value, trials)
            checks.append((f"cube_padding_d{d}_beta{beta:.1f}", ok,
                           f"measured={est.value:.4f} <= {bound:.4f}"))
            rows.append(_row("cut_probability", est.value, partition="cube", d=d, beta=beta,
                             t=t, n=trials, lo=est.ci_low, hi=est.ci_high, bound=bound,
                             ok=_verdict(ok)))

    task = intersecting_circles_task(cfg["ambient"])
    src, _ = task.sample(rngmod.stream(seed, rngmod.TASK_STREAM), cfg["net_source"])
    eps_part = cfg["partition_epsilon"]
    net = greedy_net(src, eps_part / 4.0)
    base = sample_ball_carving(net, eps_part, rngmod.stream(seed, rngmod.PARTITION_STREAM))
    dd_hat = estimate_doubling_dimension(src[: cfg["dd_sample"]], eps_part)
    rows.append(_row("doubling_dimension", dd_hat, task=task.name, epsilon=eps_part,
                     n=cfg["dd_sample"]))
    sampler = lambda r: task.sample(r, 1)[0][0]
    family = lambda r: resample_ball_carving(base, r)
    for div in _ints(cfg["t_divisors"]):
        t = eps_part / div
        est = estimate_paddedness(family, sampler, t, trials,
                                  rngmod.stream(seed, rngmod.PARTITION_STREAM, div))
        bound = min(1.0, t * (8.0 * dd_hat + 4.0) / eps_part)
        ok = est.value <= bound + 3 * _se(est.value, trials)
        checks.append((f"ball_padding_tdiv{div}", ok,
                       f"measured={est.value:.4f} <= {bound:.4f}"))
        rows.append(_row("cut_probability", est.value, task=task.name, partition="ball",
                         d=cfg["ambient"], epsilon=eps_part, t=t, n=trials,
                         lo=est.ci_low, hi=est.ci_high, bound=bound, ok=_verdict(ok)))
    return ExperimentOutput(rows, {}, checks)


# ---------------------------------------------------------------------------
# lipschitz_curves: pair-separation probability vs distance


def _run_lipschitz_curves(cfg: dict, seed: int) -> ExperimentOutput:
    rows, checks = [], []
    trials = cfg["trials"]
    dists = _floats(cfg["distances"])

    for d in _ints(cfg["cube_d_list"]):
        family = lambda r, _d=d: sample_cube_partition(_d, 1.0, r)

        def pair(r, dist, _d=d):
            x = r.random(_d) * 4.0
            v = r.standard_normal(_d)
            v /= np.linalg.norm(v)
            return x, x + dist * v

        curve = estimate_lipschitz_constant(family, pair, dists, trials,
                                            rngmod.stream(seed, rngmod.AUX_STREAM, d),
                                            epsilon=1.0)
        rows.append(_row("separation_slope", curve.slope, partition="cube", d=d, epsilon=1.0,
                         n=trials))
        for dist, p, lo, hi in curve.points:
            rows.append(_row("separation_probability", p, partition="cube", d=d, epsilon=1.0,
                             t=dist, n=trials, lo=lo, hi=hi))
        if d == 1:
            # exact 1-D law: a width-w lattice with uniform shift splits a pair
            # at distance s with probability min(1, s/w); width = epsilon here
            oracle_slope = 1.0
            ok = abs(curve.slope - oracle_slope) <= cfg["slope_tolerance"]
            checks.append(("cube_1d_slope", ok, f"slope={curve.slope:.3f} ~ {oracle_slope}"))
            rows.append(_row("separation_slope_error", abs(curve.slope - oracle_slope),
                             partition="cube", d=1, bound=cfg["slope_tolerance"],
                             ok=_verdict(ok)))

    eps_ball = cfg["ball_epsilon"]
    for d in _ints(cfg["ball_d_list"]):
        rng_net = rngmod.stream(seed, rngmod.TASK_STREAM, d)
        src = rng_net.standard_normal((cfg["net_source"], d))
        src /= np.linalg.norm(src, axis=1, keepdims=True)
        src *= rng_net.random((cfg["net_source"], 1)) ** (1.0 / d)
        net = greedy_net(src, eps_ball / 4.0)
        base = sample_ball_carving(net, eps_ball, rngmod.stream(seed, rngmod.PARTITION_STREAM, d))
        family = lambda r, _b=base: resample_ball_carving(_b, r)

        def pair(r, dist, _d=d):
            v = r.standard_normal(_d)
            v /= np.linalg.norm(v)
            x = r.standard_normal(_d)
            x /= np.linalg.norm(x)
            x *= (1.0 - dist) * r.random() ** (1.0 / _d)
            return x, x + dist * v

        ball_dists = [f * eps_ball for f in _floats(cfg["ball_distance_fractions"])]
        curve = estimate_lipschitz_constant(family, pair, ball_dists, trials,
                                            rngmod.stream(seed, rngmod.AUX_STREAM, 100 + d),
                                            epsilon=eps_ball)
        rows.append(_row("separation_slope", curve.slope, partition="ball", d=d,
                         epsilon=eps_ball, n=trials))
        rows.append(_row("separation_slope_over_sqrt_d", curve.slope / math.sqrt(d),
                         partition="ball", d=d, epsilon=eps_ball))
        rows.append(_row("separation_slope_over_d", curve.slope / d,
                         partition="ball", d=d, epsilon=eps_ball))
        for dist, p, lo, hi in curve.points:
            rows.append(_row("separation_probability", p, partition="ball", d=d,
                             epsilon=eps_ball, t=dist, n=trials, lo=lo, hi=hi))
    return ExperimentOutput(rows, {}, checks)


# ---------------------------------------------------------------------------
# oblivious_game: error growth with the partition refresh interval


def _make_adversary(kind: str, task, f):
    if kind == "identity":
        return IdentityAdversary()
    if kind == "boundary":
        return BoundarySeekAdversary(task, f)
    if kind == "replay":
        return ReplayAdversary(task, f)
    raise ValueError(f"unknown adversary {kind!r}")


def _run_oblivious_game(cfg: dict, seed: int) -> ExperimentOutput:
    rows, checks = [], []
    task = intersecting_circles_task(cfg["ambient"])
    f = task.ground_truth_classifier()
    eps = cfg["epsilon"]
    rates = []
    ks = _ints(cfg["k_list"])
    for k in ks:
        adv = _make_adversary(cfg["adversary"], task, f)
        res = oblivious_game_simulate(task, f, eps, k, cfg["rounds"], adv,
                                      rngmod.stream(seed, rngmod.GAME_STREAM, k),
                                      family=cfg["family"],
                                      partition_epsilon=cfg["partition_epsilon"],
                                      pool=cfg["pool"], net_source=cfg["net_source"])
        rates.append(res.error_rate)
        rows.append(_row("error_rate", res.error_rate, task=task.name,
                         partition=cfg["family"], scheme=cfg["adversary"], d=cfg["ambient"],
                         epsilon=eps, k=k, n=cfg["rounds"], lo=res.lo, hi=res.hi))
        rows.append(_row("adversary_faults", res.faults, task=task.name, scheme=cfg["adversary"],
                         k=k, n=cfg["rounds"]))
    floor = 0.5 / cfg["rounds"]
    logs_k = np.log(np.asarray(ks, dtype=np.float64))
    logs_r = np.log(np.maximum(np.asarray(rates), floor))
    lk = logs_k - logs_k.mean()
    exponent = float(np.sum(lk * (logs_r - logs_r.mean())) / np.sum(lk * lk))
    ok = exponent <= cfg["exponent_cap"]
    checks.append(("error_growth_subquadratic", ok,
                   f"fitted exponent={exponent:.3f} <= {cfg['exponent_cap']}"))
    rows.append(_row("error_growth_exponent", exponent, task=task.name,
                     scheme=cfg["adversary"], epsilon=eps, n=cfg["rounds"],
                     bound=cfg["exponent_cap"], ok=_verdict(ok)))

    ident = _make_adversary("identity", task, f)
    res_id = oblivious_game_simulate(task, f, eps, ks[-1], cfg["rounds"], ident,
                                     rngmod.stream(seed, rngmod.GAME_STREAM, 0),
                                     family=cfg["family"],
                                     partition_epsilon=cfg["partition_epsilon"],
                                     pool=cfg["pool"], net_source=cfg["net_source"])
    rows.append(_row("error_rate", res_id.error_rate, task=task.name, partition=cfg["family"],
                     scheme="identity", d=cfg["ambient"], epsilon=eps, k=ks[-1],
                     n=cfg["rounds"], lo=res_id.lo, hi=res_id.hi))
    return ExperimentOutput(rows, {}, checks)


# ---------------------------------------------------------------------------
# cube_theorem: end-to-end certified AR bound for the cube family


def _cube_theorem_block(rows, checks, seed, task, d, delta, eps_list, alpha, c_prime, n,
                        per_cell, max_draws, attack_trials, artifacts, save_artifacts):
    if delta == 0:
        f = task.ground_truth_classifier()
    else:
        f = plant_error_classifier(task, delta, rngmod.stream(seed, rngmod.TASK_STREAM, d, int(delta * 1000)))
    for j, eps in enumerate(eps_list):
        eps_part = 2.0 * d ** 1.5 * eps / alpha
        part = sample_cube_partition(d, eps_part,
                                     rngmod.stream(seed, rngmod.PARTITION_STREAM, d, j, int(delta * 1000)))
        g = smooth_exact(f, part, task, per_cell,
                         rngmod.stream(seed, rngmod.SMOOTHING_STREAM, d, j, int(delta * 1000)),
                         max_draws=max_draws)
        rhs = 2 * task.separation(eps_part) + 2 * delta + c_prime * alpha
        _certified_ar(rows, checks, f"cube_bound_{task.name}_delta{delta}_eps{eps}", g, task, eps, n,
                      rngmod.stream(seed, rngmod.EVAL_STREAM, d, j, int(delta * 1000)),
                      attack_trials, rhs, eps_part, partition="cube", d=d, delta=delta)
        if save_artifacts and j == 0:
            artifacts["partition.json"] = part.to_dict()
            artifacts["classifier.json"] = g.to_dict()


def _run_cube_theorem(cfg: dict, seed: int) -> ExperimentOutput:
    rows, checks = [], []
    artifacts: dict = {}
    alpha, c_prime = cfg["alpha"], cfg["c_prime"]
    discs = two_discs_task()
    spheres = concentric_spheres_task(cfg["spheres_d"])
    for delta in _floats(cfg["delta_list"]):
        _cube_theorem_block(rows, checks, seed, discs, 2, delta,
                            _floats(cfg["eps_list_discs"]), alpha, c_prime, cfg["n"],
                            cfg["per_cell"], cfg["max_draws"], cfg["attack_trials"],
                            artifacts, save_artifacts=delta == 0)
        _cube_theorem_block(rows, checks, seed, spheres, cfg["spheres_d"], delta,
                            _floats(cfg["eps_list_spheres"]), alpha, c_prime, cfg["n"],
                            cfg["per_cell"], cfg["max_draws"], cfg["attack_trials"],
                            artifacts, save_artifacts=False)
    return ExperimentOutput(rows, artifacts, checks)


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class ExperimentInfo:
    name: str
    group: str
    description: str
    defaults: dict
    runner: Callable


EXPERIMENTS: dict[str, ExperimentInfo] = {}


def _register(name, group, description, defaults, runner):
    EXPERIMENTS[name] = ExperimentInfo(name, group, description, dict(defaults), runner)


_register(
    "two_discs", "noise-vs-partition",
    "Well-separated discs: wide Gaussian smoothing collapses to chance while cube smoothing stays exact.",
    {"sigma": 1.5, "gaussian_draws": 201, "partition_epsilon": 1.0, "per_cell": 25,
     "max_draws": 60000, "n": 10000},
    _run_two_discs)

_register(
    "hard_distribution", "noise-vs-partition",
    "Spiked packing distribution where density-weighted Gaussian smoothing inflates the base risk.",
    {"sigma": 1.0, "d_grid": "10,20,30,40,50,60", "packing_trials": 200000, "min_packing": 32,
     "pool": 4000, "n": 10000, "n_trend": 4000, "gaussian_draws": 101,
     "partition_scale": 0.9, "per_cell": 16, "max_draws": 120000},
    _run_hard_distribution)

_register(
    "spheres_bounds", "certified-bounds",
    "Certified adversarial-risk upper bound for ball carving on concentric spheres.",
    {"d": 20, "d_small": 3, "delta": 0.05, "alpha": THEOREM_CONSTANTS["alpha"],
     "c_prime": THEOREM_CONSTANTS["c_prime_ball"],
     "eps_list": "0.002,0.004,0.008,0.016,0.032", "eps_list_small": "0.007,0.009",
     "net_source": 8192, "net_source_small": 40000, "n": 4096, "n_small": 16384,
     "per_cell": 20, "max_draws": 40000, "attack_trials": 8},
    _run_spheres_bounds)

_register(
    "spheres_competitive", "certified-bounds",
    "Largest radius with certified AR below eta, against the error-inflation limit of any classifier.",
    {"d_list": "10,20,40", "delta": 0.01, "eta": 0.1, "partition_epsilon": 0.29,
     "per_cell": 24, "max_draws": 60000, "n": 100000,
     "ratio_constant": THEOREM_CONSTANTS["ratio_constant"],
     "linear_factor": THEOREM_CONSTANTS["linear_factor"]},
    _run_spheres_competitive)

_register(
    "circles_manifold", "manifold",
    "Certified AR of carving on intersecting circles is unchanged by the ambient dimension.",
    {"ambient_list": "10,50", "epsilon_eval": 0.02, "partition_epsilon": 0.2, "n": 100000,
     "replicates": 16, "per_cell": 25, "max_draws": 60000, "net_source": 20000},
    _run_circles_manifold)

_register(
    "padding_curves", "partition-geometry",
    "Measured cut probabilities for both partition families against their analytic constants.",
    {"trials": 10000, "cube_d_list": "2,4,8", "beta_scale": 40.0, "ambient": 2,
     "partition_epsilon": 0.2, "net_source": 20000, "dd_sample": 4096,
     "t_divisors": "40,20,10"},
    _run_padding_curves)

_register(
    "lipschitz_curves", "partition-geometry",
    "Pair-separation probability vs distance for both families; slopes reported against sqrt(d) and d.",
    {"trials": 1500, "distances": "0.02,0.05,0.1,0.2,0.4", "cube_d_list": "1,4,16",
     "slope_tolerance": 0.1, "ball_d_list": "2,4,8", "ball_epsilon": 1.6,
     "ball_distance_fractions": "0.01,0.02,0.04,0.08,0.12", "net_source": 30000},
    _run_lipschitz_curves)

_register(
    "oblivious_game", "query-game",
    "Sequential perturbation game: per-round error growth as the partition refresh interval stretches.",
    {"ambient": 2, "epsilon": 0.3, "partition_epsilon": 0.2, "k_list": "1,2,4,8",
     "rounds": 3000, "adversary": "replay", "family": "ball", "pool": 2000,
     "net_source": 4000, "exponent_cap": 1.3},
    _run_oblivious_game)

_register(
    "cube_theorem", "certified-bounds",
    "End-to-end certified AR bound for cube smoothing on discs and spheres.",
    {"spheres_d": 5, "alpha": THEOREM_CONSTANTS["alpha"],
     "c_prime": THEOREM_CONSTANTS["c_prime_cube"], "delta_list": "0,0.02",
     "eps_list_discs": "0.005,0.01,0.02,0.03", "eps_list_spheres": "0.0005,0.001",
     "n": 50000, "per_cell": 25, "max_draws": 40000, "attack_trials": 4},
    _run_cube_theorem)


# ---------------------------------------------------------------------------
# emission


def _json_default(v):
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, np.ndarray):
        return v.tolist()
    raise TypeError(f"cannot serialize {type(v)!r}")


def rows_to_csv(rows: list) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in rows:
        lines.append(",".join(_fmt(r.get(c, "")) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def execute(name: str, config: dict, out_dir: Path) -> dict:
    """Run one experiment and write results.csv, report.json, artifacts, and
    a canonical config echo into out_dir. Returns the check summary."""
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}")
    info = EXPERIMENTS[name]
    cfg = dict(info.defaults)
    cfg.update({k: v for k, v in config.items() if k not in ("experiment", "seed", "out")})
    seed = int(config["seed"])
    out = info.runner(cfg, seed)
    rows = []
    for r in out.rows:
        row = dict(r)
        row["experiment"] = name
        row["seed"] = seed
        rows.append(row)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "results.csv").write_text(rows_to_csv(rows))
    failed = [c[0] for c in out.checks if not c[1]]
    report = {
        "experiment": name,
        "seed": seed,
        "config": cfg,
        "checks": [{"name": c[0], "ok": bool(c[1]), "detail": c[2]} for c in out.checks],
        "rows": rows,
    }
    (out_dir / "report.json").write_text(
        json.dumps(report, indent=1, sort_keys=True, default=_json_default) + "\n")
    for fname, payload in out.artifacts.items():
        (out_dir / fname).write_text(
            json.dumps(payload, indent=1, sort_keys=True, default=_json_default) + "\n")
    lines = [f"experiment = {name}", f"seed = {seed}"]
    for key in sorted(cfg):
        lines.append(f"{key} = {cfg[key]}")
    (out_dir / "config.txt").write_text("\n".join(lines) + "\n")
    return {
        "experiment": name,
        "rows": len(rows),
        "checks": len(out.checks),
        "failed": failed,
        "out_dir": str(out_dir),
    }
