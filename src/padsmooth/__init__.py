"""Provably robust classification via padded random partitions.

Turn any black-box binary classifier into a smoothed one whose prediction
is constant on each cell of a random space partition, then certify, point
by point, that no perturbation up to a chosen radius can change the answer.
Two partition families are provided: an axis-aligned cube lattice with a
uniform random shift, and greedy ball carving around an epsilon-net for
data living on a low-dimensional subset.
"""

from .evaluation import (
    BoundarySeekAdversary,
    BracketingError,
    CompetitiveResult,
    GameResult,
    IdentityAdversary,
    ReplayAdversary,
    RobustnessReport,
    adversarial_risk_curve,
    competitive_ratio_experiment,
    estimate_adversarial_risk,
    estimate_risk,
    oblivious_game_simulate,
)
from .geometry import EpsilonNet, estimate_doubling_dimension, greedy_net
from .partitions import (
    BallCarvingPartition,
    CubePartition,
    LipschitzCurve,
    PaddednessEstimate,
    cells_of,
    certificate_margins,
    estimate_lipschitz_constant,
    estimate_paddedness,
    padding_certificate,
    partition_from_dict,
    resample_ball_carving,
    sample_ball_carving,
    sample_cube_partition,
)
from .smoothing import (
    SmoothedClassifier,
    gaussian_smoothing,
    hit_and_run,
    scheme_a_estimate,
    scheme_a_sample_size,
    scheme_b_estimate,
    smooth_exact,
)
from .tasks import (
    BlackBoxClassifier,
    PlantedErrorClassifier,
    Task,
    central_blindspot_classifier,
    concentric_spheres_task,
    hard_distribution_task,
    intersecting_circles_task,
    left_disc_indicator,
    optimal_robust_classifier,
    plant_error_classifier,
    two_discs_task,
)
from .experiments import EXPERIMENTS, execute

__version__ = "0.1.0"

__all__ = [
    "BallCarvingPartition",
    "BlackBoxClassifier",
    "BoundarySeekAdversary",
    "BracketingError",
    "CompetitiveResult",
    "CubePartition",
    "EXPERIMENTS",
    "EpsilonNet",
    "GameResult",
    "IdentityAdversary",
    "LipschitzCurve",
    "PaddednessEstimate",
    "PlantedErrorClassifier",
    "ReplayAdversary",
    "RobustnessReport",
    "SmoothedClassifier",
    "Task",
    "adversarial_risk_curve",
    "cells_of",
    "central_blindspot_classifier",
    "certificate_margins",
    "competitive_ratio_experiment",
    "concentric_spheres_task",
    "estimate_adversarial_risk",
    "estimate_doubling_dimension",
    "estimate_lipschitz_constant",
    "estimate_paddedness",
    "estimate_risk",
    "execute",
    "gaussian_smoothing",
    "greedy_net",
    "hard_distribution_task",
    "hit_and_run",
    "intersecting_circles_task",
    "left_disc_indicator",
    "oblivious_game_simulate",
    "optimal_robust_classifier",
    "padding_certificate",
    "partition_from_dict",
    "plant_error_classifier",
    "resample_ball_carving",
    "sample_ball_carving",
    "sample_cube_partition",
    "scheme_a_estimate",
    "scheme_a_sample_size",
    "scheme_b_estimate",
    "smooth_exact",
    "two_discs_task",
]
