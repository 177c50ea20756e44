"""Each benchmark check passes on real program output and fails on a
deliberately corrupted copy of it.

    python3 -m pytest bench
"""

from __future__ import annotations

import copy
import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from padsmooth import BlackBoxClassifier, SmoothedClassifier, cells_of, sample_cube_partition  # noqa: E402

OFF = run.Tracer(False)


def _pipeline(family):
    if family == "ball":
        wl = workloads.Pipeline("ball", 3, 0.009, delta=0.05, per_cell=5, max_draws=3000,
                                n_eval=600, n_risk=600, attack_trials=2, replicates=2, source=1500)
    else:
        wl = workloads.Pipeline("cube", 6, 0.0, delta=0.02, per_cell=4, max_draws=3000,
                                n_eval=800, n_risk=800, attack_trials=2, cube_epsilon=0.6,
                                radii=(0.02,))
    wl.setup(11, OFF)
    out = wl.run(OFF)
    return wl, out, out["reps"][-1]


@pytest.fixture(scope="module", params=["ball", "cube"])
def pipeline(request):
    return _pipeline(request.param)


@pytest.fixture(scope="module")
def small():
    wl = workloads.SmallCalls()
    wl.setup(5, OFF)
    return wl, wl.run(OFF)


def _messages(wl, out, rep, **changes):
    """Check messages for the pass with the last replicate's outputs changed."""
    return " | ".join(wl.check({**out, "reps": [*out["reps"][:-1], {**rep, **changes}]})[0])


def test_pipeline_output_passes(pipeline):
    wl, out, _ = pipeline
    fails, counts = wl.check(out)
    assert fails == []
    assert wl.same(out, wl.run(OFF))
    assert counts["partitions.overstated_margins"] >= 0


def test_flipped_cell_label_fails(pipeline):
    wl, out, rep = pipeline
    g = copy.copy(rep["g"])
    g.cell_labels = dict(g.cell_labels)
    key = next(iter(g.cell_labels))
    g.cell_labels[key] = -g.cell_labels[key]
    assert "cell labels" in _messages(wl, out, rep, g=g)


def test_flipped_evaluate_label_fails(pipeline):
    wl, out, rep = pipeline
    labels = rep["labels"].copy()
    labels[0] = -labels[0]
    assert "evaluate" in _messages(wl, out, rep, labels=labels)


def test_raised_margin_fails(pipeline):
    wl, out, rep = pipeline
    margins = rep["margins"].copy()
    margins[np.flatnonzero(~rep["off"])[0]] += 1e-3
    assert "margins" in _messages(wl, out, rep, margins=margins)


def test_changed_report_fails(pipeline):
    wl, out, rep = pipeline
    first, n = rep["reports"][0], wl.n_risk
    raised = [dataclasses.replace(first, ar_upper=first.ar_upper + 2.0 / n), *rep["reports"][1:]]
    assert "ar_upper" in _messages(wl, out, rep, reports=raised)
    swapped = [dataclasses.replace(first, ar_lower=first.ar_upper + 1.0 / n), *rep["reports"][1:]]
    assert "risk <= ar_lower <= ar_upper" in _messages(wl, out, rep, reports=swapped)


def test_wrong_cells_fail(pipeline):
    wl, _, rep = pipeline
    part, X = rep["part"], wl.X[:200]
    geo = checks.Geometry(part)
    cells = cells_of(part, X)
    assert checks.check_cells(geo, X, cells) == []
    if geo.cube:
        cells[3, 1] += 1
    else:
        cells[3] = (cells[3] + 1) % len(part.net)
    assert checks.check_cells(geo, X, cells)


def test_certified_check_catches_a_flip():
    part = sample_cube_partition(2, 1.0, np.random.default_rng(2))
    width = part.width

    def checker(X):
        cells = np.floor((X - part.shift) / width).astype(np.int64)
        return np.where(cells.sum(axis=1) % 2 == 0, 1, -1)

    clf = SmoothedClassifier(part, {}, BlackBoxClassifier(checker), scheme="exact")
    X = np.random.default_rng(3).random((300, 2)) * 3
    margins = np.mod(X - part.shift, width)
    margins = np.minimum(margins, width - margins).min(axis=1)
    off = np.zeros(len(X), dtype=bool)
    eps = width / 8
    rng = np.random.default_rng(4)
    assert checks.check_certified(clf, X, margins, off, eps, rng) == []
    assert checks.check_certified(clf, X, margins + width / 2, off, eps, rng)


def test_small_calls_output_passes(small):
    wl, out = small
    assert wl.check(out)[0] == []
    assert wl.same(out, wl.run(OFF))


def test_corrupted_estimators_fail(small):
    wl, out = small
    pad, parts, points = out["circle_pad"]
    bumped = dataclasses.replace(pad, value=pad.value + 1.0 / pad.trials)
    assert checks.check_paddedness(bumped, parts, points, wl.CIRCLE_EPS / 20)

    lip, parts, pairs = out["ball_lip"]
    dist, p, lo, hi = lip.points[2]
    moved = dataclasses.replace(lip, points=(*lip.points[:2], (dist, p + 1.0 / wl.LIP_TRIALS, lo, hi),
                                             *lip.points[3:]))
    assert checks.check_lipschitz(moved, parts, pairs, wl.LIP_TRIALS)

    certs, parts = out["certs"]
    i = next(j for j, c in enumerate(certs) if c.status != "off_support")
    raised = list(certs)
    raised[i] = dataclasses.replace(certs[i], margin=certs[i].margin + 1e-3)
    assert checks.check_certificates(raised, parts, wl.probes, wl.BALL_EPS / 20)

    assert checks.check_closed_form("cube", 0.40, 2000, 0.5904)
    assert checks.check_closed_form("cube", 0.59, 2000, 0.5904) == []


def test_flipped_one_sided_scheme_b_label_fails(small):
    _, out = small
    batch = out["scheme_b"][0]
    part = batch.partition
    gaps = {c: (part.net.centers[c] @ workloads.SCHEME_B_NORMAL - workloads.SCHEME_B_OFFSET)
            / np.linalg.norm(workloads.SCHEME_B_NORMAL) for c in batch.cell_labels}
    cell = next(c for c, gap in gaps.items() if abs(gap) > part.radius)
    flipped = copy.copy(batch)
    flipped.cell_labels = {**batch.cell_labels, cell: -batch.cell_labels[cell]}
    assert checks.check_one_sided(flipped, workloads.SCHEME_B_NORMAL, workloads.SCHEME_B_OFFSET)


def test_tracer_totals_per_pass():
    tr = run.Tracer(True)
    for group in ("setup0", "pass0", "pass1"):
        tr.group = group
        with tr.span("a"):
            with tr.span("b"):
                pass
    assert len(tr.per_group("a", "pass")) == 2
    assert tr.spans[1][4] == 0  # "b" nests under "a"
    assert all(v >= 0 for v in tr.per_group("b", "setup"))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("traces", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "small_calls", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
