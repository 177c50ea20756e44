"""Smoothing estimators: exact reference, pool and in-cell schemes, Gaussian baselines.

Oracles used here:
  * cell-parity classifiers (f constant on each cell) make every estimator's
    majority vote exact, so labels can be checked cell by cell;
  * the scheme A budget is recomputed from its closed form inside the test;
  * chord solvers are checked against the geometric endpoint conditions;
  * hit-and-run inside a full ball must reproduce the radial law F(r) = (r/R)^d;
  * carved-cell membership is checked against the tree kernel of ball_assign.
"""

import copy
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from padsmooth import smoothing
from padsmooth.evaluation import IdentityAdversary, oblivious_game_simulate
from padsmooth.geometry import EpsilonNet, greedy_net
from padsmooth.partitions import (
    BallCarvingPartition,
    CubePartition,
    ball_assign,
    ball_cell_member,
    cells_of,
    sample_ball_carving,
    sample_cube_partition,
)
from padsmooth.smoothing import (
    _PROPOSALS,
    SmoothedClassifier,
    _blockers,
    _carved_samples,
    _carved_starts,
    _cell_member,
    _cube_samples,
    _fingerprints,
    _walk,
    ball_chord,
    gaussian_smoothing,
    hit_and_run,
    scheme_a_estimate,
    scheme_a_sample_size,
    scheme_b_estimate,
    smooth_exact,
)
from padsmooth.tasks import (
    BlackBoxClassifier,
    intersecting_circles_task,
    two_discs_task,
)


DATA = Path(__file__).parent / "data"


def constant_classifier(value: int) -> BlackBoxClassifier:
    return BlackBoxClassifier(
        lambda pts: np.full(len(pts), value, dtype=np.int8), name=f"const{value}"
    )


def cell_parity_classifier(part) -> BlackBoxClassifier:
    """+1 on cells with even index sum, -1 otherwise: constant on each cell."""

    def predict(pts):
        cells = cells_of(part, pts)
        if cells.ndim == 2:
            parity = cells.sum(axis=1) % 2
        else:
            parity = cells % 2
        return np.where(parity == 0, 1, -1).astype(np.int8)

    return BlackBoxClassifier(predict, name="cell-parity")


# ---------------------------------------------------------------------------
# smooth_exact


def test_smooth_exact_constant_base_labels_every_cell():
    task = two_discs_task()
    part = sample_cube_partition(2, 1.0, np.random.default_rng(0))
    g = smooth_exact(constant_classifier(-1), part, task, per_cell=5, rng=np.random.default_rng(1))
    assert g.cell_labels and all(v == -1 for v in g.cell_labels.values())
    X, _ = task.sample(np.random.default_rng(2), 500)
    assert np.all(g.evaluate(X) == -1)
    assert not g.flagged_cells


def test_smooth_exact_recovers_cell_constant_classifier():
    # f is constant per cell, so one vote already determines the majority.
    task = two_discs_task()
    part = sample_cube_partition(2, 1.0, np.random.default_rng(3))
    f = cell_parity_classifier(part)
    g = smooth_exact(f, part, task, per_cell=3, rng=np.random.default_rng(4))
    for cell, label in g.cell_labels.items():
        assert label == int(f(part.anchor(cell)[None, :])[0])


def test_smooth_exact_is_piecewise_constant():
    task = two_discs_task()
    part = sample_cube_partition(2, 1.0, np.random.default_rng(5))
    g = smooth_exact(task.ground_truth_classifier(), part, task, per_cell=10, rng=np.random.default_rng(6))
    X, _ = task.sample(np.random.default_rng(7), 2000)
    labels = g.evaluate(X)
    cells = cells_of(part, X)
    seen = {}
    for row, lab in zip(map(tuple, cells.tolist()), labels):
        assert seen.setdefault(row, lab) == lab


def test_smooth_exact_vote_quota_and_flagging():
    task = two_discs_task()
    part = sample_cube_partition(2, 0.5, np.random.default_rng(8))
    g = smooth_exact(
        task.ground_truth_classifier(), part, task, per_cell=40, rng=np.random.default_rng(9), max_draws=300
    )
    assert g.provenance["draws"] == 300
    assert g.flagged_cells, "a 300-draw budget cannot give 40 votes everywhere"
    for cell in g.flagged_cells:
        assert g.sample_counts[cell] < 40
    for cell, c in g.sample_counts.items():
        assert (c < 40) == (cell in g.flagged_cells)


def test_smooth_exact_low_risk_on_discs():
    task = two_discs_task()
    part = sample_cube_partition(2, 1.0, np.random.default_rng(10))
    g = smooth_exact(task.ground_truth_classifier(), part, task, per_cell=25, rng=np.random.default_rng(11))
    X, y = task.sample(np.random.default_rng(12), 4000)
    assert np.mean(g.evaluate(X) != y) <= 0.01


def test_smooth_exact_deterministic():
    task = two_discs_task()
    part = sample_cube_partition(2, 1.0, np.random.default_rng(13))
    runs = [
        smooth_exact(task.ground_truth_classifier(), part, task, per_cell=8, rng=np.random.default_rng(99))
        for _ in range(2)
    ]
    assert runs[0].cell_labels == runs[1].cell_labels
    assert runs[0].sample_counts == runs[1].sample_counts


def test_smooth_exact_rejects_bad_quota():
    task = two_discs_task()
    part = sample_cube_partition(2, 1.0, np.random.default_rng(14))
    with pytest.raises(ValueError):
        smooth_exact(task.ground_truth_classifier(), part, task, per_cell=0, rng=np.random.default_rng(15))


@pytest.mark.parametrize("family", ["cube", "carving"])
def test_smooth_exact_rounds_equal_one_pool_vote(family):
    # 8192 + 8192 + 3616 draws under an unreachable quota: folding each
    # round into the table must give scheme A's vote over the same draws
    if family == "cube":
        task = two_discs_task()
        part = sample_cube_partition(2, 0.5, np.random.default_rng(16))
    else:
        task = intersecting_circles_task(2)
        pts, _ = task.sample(np.random.default_rng(16), 4000)
        part = sample_ball_carving(greedy_net(pts, 0.05), 0.2, np.random.default_rng(17))
    f = BlackBoxClassifier(
        lambda pts: np.where(np.sin(37 * pts[:, 0] + 53 * pts[:, 1]) >= 0, 1, -1).astype(np.int8), name="ripple"
    )
    g = smooth_exact(f, part, task, per_cell=10**9, rng=np.random.default_rng(18), max_draws=20000)
    rng = np.random.default_rng(18)
    pooled = scheme_a_estimate(f, part, np.concatenate([task.sample(rng, m)[0] for m in (8192, 8192, 3616)]))
    assert g.provenance["draws"] == 20000
    assert set(g.cell_labels.values()) == {-1, 1}
    assert g.cell_labels == pooled.cell_labels
    assert g.sample_counts == pooled.sample_counts
    assert g.flagged_cells == set(g.cell_labels)


def test_unseen_cell_falls_back_to_base_at_anchor():
    task = two_discs_task()
    part = sample_cube_partition(2, 1.0, np.random.default_rng(16))
    # base depends only on the first coordinate; task data lives in |x0| <= 4
    base = BlackBoxClassifier(lambda p: np.where(p[:, 0] > 100.0, 1, -1).astype(np.int8))
    g = smooth_exact(base, part, task, per_cell=5, rng=np.random.default_rng(17))
    far = np.array([[200.0, 0.0]])
    assert tuple(cells_of(part, far)[0]) not in g.cell_labels
    assert g.evaluate(far)[0] == 1  # anchor of that cell sits near x0 = 200
    near = np.array([[-2.0, 0.0]])
    assert g.evaluate(near)[0] == -1


def test_unseen_cell_without_base_raises():
    part = sample_cube_partition(2, 1.0, np.random.default_rng(18))
    home = tuple(cells_of(part, np.array([[0.1, 0.1]]))[0].tolist())
    g = SmoothedClassifier(part, cell_labels={home: 1}, base=None, scheme="exact")
    assert g.evaluate(np.array([[0.1, 0.1]]))[0] == 1
    with pytest.raises(RuntimeError):
        g.evaluate(np.array([[50.0, 50.0]]))


def recording_classifier(f: BlackBoxClassifier):
    """f that keeps a copy of every batch it is asked to label."""
    batches = []

    def predict(pts):
        batches.append(np.array(pts))
        return f(pts)

    return BlackBoxClassifier(predict, name=f"recording-{f.name}"), batches


def _cells_and_keys(family, rng):
    X = rng.uniform(-1.0, 1.0, size=(600, 2))
    if family == "cube":
        part = sample_cube_partition(2, 0.5, rng)
    else:
        part = sample_ball_carving(greedy_net(X, 0.1), 0.4, rng)
    cells = cells_of(part, X)
    keys = [tuple(c) for c in cells.tolist()] if cells.ndim == 2 else cells.tolist()
    return part, X, keys


@pytest.mark.parametrize("family", ["cube", "ball"])
def test_lazy_resolver_gets_every_fresh_cell_once_in_one_call(family):
    part, X, keys = _cells_and_keys(family, np.random.default_rng(70))
    g = SmoothedClassifier(part, cell_labels={keys[0]: -1}, base=None, scheme="B")
    calls = []

    def resolve(clf, fresh, cells):
        assert clf is g
        calls.append((np.array(fresh), np.array(cells)))
        return np.ones(len(fresh), dtype=np.int8)

    g._lazy_resolver = resolve
    labels = g.evaluate(X)
    assert len(calls) == 1
    fresh_keys, cells = calls[0]
    fresh = [tuple(row) for row in cells.tolist()] if cells.ndim == 2 else cells.tolist()
    assert len(fresh) == len(set(fresh)) and set(fresh) == set(keys) - {keys[0]}
    # a cube cell's key is its row's fingerprint, a carved cell's its index
    assert np.array_equal(fresh_keys, _fingerprints(cells) if cells.ndim == 2 else cells)
    assert np.array_equal(labels, [-1 if key == keys[0] else 1 for key in keys])


@pytest.mark.parametrize("family", ["cube", "ball"])
def test_fallback_labels_fresh_cells_at_anchors_in_one_call(family):
    part, X, keys = _cells_and_keys(family, np.random.default_rng(71))
    f = BlackBoxClassifier(lambda p: np.where(p[:, 0] + 0.3 * p[:, 1] > 0.1, 1, -1).astype(np.int8))
    base, batches = recording_classifier(f)
    g = SmoothedClassifier(part, cell_labels={keys[0]: -1}, base=base, scheme="exact")
    labels = g.evaluate(X)
    fresh = set(keys) - {keys[0]}
    assert len(batches) == 1 and len(batches[0]) == len(fresh)
    want = [-1 if key == keys[0] else int(f(part.anchor(key)[None, :])[0]) for key in keys]
    assert np.array_equal(labels, want)
    assert {tuple(a) for a in batches[0].tolist()} == {tuple(part.anchor(k).tolist()) for k in fresh}
    g.evaluate(X)  # fallback labels are not cached across calls
    assert base.eval_count == 2 * len(fresh) and g.cell_labels == {keys[0]: -1}


# ---------------------------------------------------------------------------
# the cell table against a plain dict


def _reference_evaluate(part, table: dict, X, f):
    """evaluate written with a dict: known cells by lookup, every distinct
    unknown cell by f at its anchor in one call. Returns (labels, anchors)."""
    cells = part.cells(X)
    keys = [tuple(c) for c in cells.tolist()] if cells.ndim == 2 else cells.tolist()
    unknown = sorted({k for k in keys if k not in table})
    fallback = dict(zip(unknown, f(part.anchor(np.array(unknown))).tolist())) if unknown else {}
    labels = np.array([table[k] if k in table else fallback[k] for k in keys], dtype=np.int8)
    return labels, part.anchor(np.array(unknown)) if unknown else np.empty((0, X.shape[1]))


def _check_against_reference(part, table, X):
    f, batches = recording_classifier(
        BlackBoxClassifier(lambda p: np.where(np.sin(7.0 * p).sum(axis=1) > 0, 1, -1).astype(np.int8)))
    want, anchors = _reference_evaluate(part, table, X, f)
    reference_calls = len(batches)
    batches.clear()
    g = SmoothedClassifier(part, table, base=f, scheme="exact")
    for _ in range(2):  # fallback labels are not cached: the second call asks again
        assert np.array_equal(g.evaluate(X), want)
        assert len(batches) == reference_calls
        if batches:
            got = sorted(map(tuple, batches.pop().tolist()))
            assert got == sorted(map(tuple, anchors.tolist()))
    assert g.cell_labels == table


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(1, 3),
    data=st.data(),
)
def test_cube_table_evaluate_equals_dict_reference(dim, data):
    width = 0.5
    part = CubePartition(epsilon=width * math.sqrt(dim), dim=dim, shift=np.full(dim, 0.125))
    coord = st.one_of(st.integers(-3, 3), st.integers(-2**40, 2**40))
    cell = st.tuples(*[coord] * dim)
    table = data.draw(st.dictionaries(cell, st.sampled_from([-1, 1]), max_size=12))
    known = list(table)
    cells = data.draw(st.lists(st.sampled_from(known) if known else cell, max_size=20))
    cells += data.draw(st.lists(cell, max_size=20))  # mostly unknown cells
    cells += cells[: data.draw(st.integers(0, len(cells)))]  # repeated queries
    if not cells:
        cells = [(0,) * dim]
    frac = np.array(data.draw(st.lists(st.integers(1, 3), min_size=len(cells) * dim,
                                       max_size=len(cells) * dim))).reshape(len(cells), dim) / 4.0
    X = part.shift + (np.array(cells, dtype=np.float64) + frac) * width
    assert [tuple(c) for c in part.cells(X).tolist()] == cells
    _check_against_reference(part, table, X)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_carving_table_evaluate_equals_dict_reference(seed, data):
    rng = np.random.default_rng(seed)
    part = sample_ball_carving(greedy_net(rng.random((60, 2)), 0.1), 0.4, rng)
    index = st.integers(0, len(part.net) - 1)
    table = data.draw(st.dictionaries(index, st.sampled_from([-1, 1]), max_size=12))
    n = data.draw(st.integers(1, 40))
    X = rng.uniform(-0.5, 1.5, (n, 2))  # some off support: nearest-center cells
    X = np.concatenate((X, X[: data.draw(st.integers(0, n))]))
    _check_against_reference(part, table, X)


def _cube_table_outputs():
    """Outputs and f-query counts of every path that keys cube cells, on a
    2-D lattice whose cells hold many points each."""
    task = two_discs_task()
    f = BlackBoxClassifier(lambda p: np.where(np.sin(3.0 * p).sum(axis=1) > 0, 1, -1).astype(np.int8))
    part = sample_cube_partition(2, 0.6, np.random.default_rng(140))
    X = np.concatenate((task.sample(np.random.default_rng(141), 400)[0],
                        np.random.default_rng(142).uniform(-6.0, 6.0, (200, 2))))  # unseen cells too
    out = {}
    # 20000 draws come in three rounds, so the table is merged twice
    g = smooth_exact(f, part, task, per_cell=10**6, rng=np.random.default_rng(143), max_draws=20000)
    out["exact"] = (g.cell_labels, g.sample_counts, g.flagged_cells, g.evaluate(X), f.eval_count)
    a = scheme_a_estimate(f, part, X[:300])
    out["A"] = (a.cell_labels, a.sample_counts, a.flagged_cells, a.evaluate(X), f.eval_count)
    b = scheme_b_estimate(f, part, s=3, k=None, rng=np.random.default_rng(144))
    first = b.evaluate(X[:150])
    h = copy.copy(b)  # resolves into its own table
    out["B"] = (first, h.evaluate(X), h.evaluate(X[::-1]), b.evaluate(X[100:300]), f.eval_count,
                b.cell_labels, b.sample_counts, b.flagged_cells, h.cell_labels, h.sample_counts, h.flagged_cells)
    c = SmoothedClassifier(part, h.cell_labels, base=f, scheme="B", sample_counts=h.sample_counts,
                           flagged_cells=h.flagged_cells)
    back = SmoothedClassifier.from_dict(c.to_dict(), base=f)
    c.cell_labels = {**a.cell_labels, **g.cell_labels}
    out["dicts"] = (c.to_dict(), back.to_dict(), back.evaluate(X), c.evaluate(X), c.sample_counts,
                    c.flagged_cells, f.eval_count)
    game = oblivious_game_simulate(task, f, 0.2, 7, 80, IdentityAdversary(), np.random.default_rng(145),
                                   family="cube", partition_epsilon=0.6, pool=300)
    out["game"] = (game.errors, f.eval_count)
    return out


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


@pytest.mark.parametrize("fingerprint", [
    lambda rows: np.zeros(len(rows), dtype=np.uint64),
    lambda rows: np.where(rows[:, 0] % 2 == 0, np.uint64(7), np.uint64(3)),
], ids=["constant", "two-valued"])
def test_cube_outputs_do_not_depend_on_fingerprint_collisions(monkeypatch, fingerprint):
    want = _cube_table_outputs()
    monkeypatch.setattr(smoothing, "_fingerprints", fingerprint)
    got = _cube_table_outputs()
    for path in want:
        assert _same(got[path], want[path]), path
    # every cell collides, and rows keep the table distinct and searchable
    g = scheme_a_estimate(BlackBoxClassifier(lambda p: np.ones(len(p), dtype=np.int8)),
                          sample_cube_partition(2, 0.6, np.random.default_rng(146)),
                          np.random.default_rng(147).uniform(-3.0, 3.0, (500, 2)))
    assert len(np.unique(g._keys)) <= 2 < g.cell_count == len(np.unique(g._cells, axis=0))


@pytest.mark.parametrize("family", ["cube", "ball"])
def test_views_follow_scheme_b_inserts(family):
    if family == "cube":
        part = sample_cube_partition(2, 0.4, np.random.default_rng(72))
    else:
        part, _ = _square_carving(2, 73)
    g = scheme_b_estimate(_halfspace(2), part, s=3, k=None, rng=np.random.default_rng(74))
    queries = np.random.default_rng(75).random((120, 2))
    assert g.cell_labels == {} and g.cell_count == 0
    seen = {}
    for batch in (queries[:60], queries, queries[100:]):
        labels = g.evaluate(batch)
        cells = part.cells(batch)
        keys = [tuple(c) for c in cells.tolist()] if cells.ndim == 2 else cells.tolist()
        seen.update(zip(keys, labels.tolist()))
        assert g.cell_labels == seen and g.cell_count == len(seen)
        assert set(g.sample_counts) == set(seen) and g.flagged_cells <= set(seen)
        assert all(g.sample_counts[k] in (0, 3) for k in seen)
        assert all(k in g.flagged_cells for k, c in g.sample_counts.items() if c == 0)
    back = SmoothedClassifier.from_dict(g.to_dict())
    assert back.cell_labels == g.cell_labels and back.sample_counts == g.sample_counts
    assert back.flagged_cells == g.flagged_cells
    assert np.array_equal(back.evaluate(queries), g.evaluate(queries))


def test_assigning_cell_labels_rebuilds_the_table():
    task = two_discs_task()
    part = sample_cube_partition(2, 1.0, np.random.default_rng(76))
    truth = task.ground_truth_classifier()
    f, batches = recording_classifier(truth)
    g = smooth_exact(f, part, task, per_cell=30, rng=np.random.default_rng(77), max_draws=600)
    counts, flagged = dict(g.sample_counts), set(g.flagged_cells)
    flip, drop = sorted(g.cell_labels)[:2]
    new = {**g.cell_labels, flip: -g.cell_labels[flip]}
    del new[drop]
    g.cell_labels = new
    assert g.cell_labels == new and g.cell_count == len(new)
    assert g.sample_counts == {k: c for k, c in counts.items() if k != drop}
    assert g.flagged_cells == flagged - {drop}
    points = part.anchor(np.array([flip, drop]))
    batches.clear()
    assert g.evaluate(points).tolist() == [new[flip], int(truth(points[1:])[0])]
    assert len(batches) == 1 and np.array_equal(batches[0], points[1:])  # the dropped cell asks f
    assert SmoothedClassifier.from_dict(g.to_dict()).cell_labels == new


@pytest.mark.parametrize("family, labels, counts, flagged, message", [
    ("cube", {(0, 0): 2}, {}, (), "-1 or \\+1"),
    ("cube", {(0, 0): 1, (0, 0, 1): -1}, {}, (), "tuples of 2 integers"),
    ("cube", {(0, 0): 1}, {(0, 0): -4}, (), ">= 0"),
    ("cube", {(0, 0): 1}, {(0, 0): 2.5}, (), "integers >= 0"),
    ("cube", {(0, 0): 1}, {(0, 0): 2.0}, (), "integers >= 0"),
    ("cube", {(0, 0): 1}, {(0, 0): "3"}, (), "integers >= 0"),
    ("cube", {(0, 0): 1}, {(0, 0): 1e30}, (), "integers >= 0"),
    ("cube", {(0, 0): 1}, {(0, 0): 2**63}, (), "integers >= 0"),
    ("cube", {(0, 0): 1}, {(0, 0): True}, (), "integers >= 0"),
    ("cube", {(0, 0): 1}, {(0, 1): 4}, (), "sample_counts holds a cell without a label"),
    ("ball", {0: 1, 31: -1}, {}, (), "center indices"),
    ("ball", {-1: 1}, {}, (), "center indices"),
    ("ball", {0: 1}, {}, (3,), "flagged_cells holds a cell without a label"),
], ids=["label-2", "cube-key-length", "negative-count", "fractional-count", "float-count", "text-count",
        "huge-float-count", "count-past-int64", "bool-count", "count-without-label",
        "carving-index-past-net", "carving-index-negative", "flag-without-label"])
def test_constructor_rejects_what_the_table_cannot_answer(family, labels, counts, flagged, message):
    if family == "cube":
        part = CubePartition(epsilon=1.0, dim=2, shift=np.zeros(2))
    else:
        net = EpsilonNet(centers=np.arange(31.0)[:, None], epsilon=0.25, source_count=31)
        part = BallCarvingPartition(net=net, epsilon=1.0, radius=0.5, order=np.arange(31))
    with pytest.raises(ValueError, match=message):
        SmoothedClassifier(part, labels, base=None, scheme="exact", sample_counts=counts, flagged_cells=flagged)
    text = part.key_to_text
    payload = {"partition": part.to_dict(), "cell_labels": {text(k): v for k, v in labels.items()},
               "sample_counts": {text(k): c for k, c in counts.items()},
               "flagged_cells": [text(k) for k in flagged]}
    with pytest.raises(ValueError, match=message):
        SmoothedClassifier.from_dict(payload)


@pytest.mark.parametrize("count", [0, 3, np.int32(3), np.uint64(5), 2**63 - 1])
def test_constructor_keeps_integer_counts(count):
    part = CubePartition(epsilon=1.0, dim=2, shift=np.zeros(2))
    g = SmoothedClassifier(part, {(0, 1): 1}, base=None, scheme="exact", sample_counts={(0, 1): count})
    assert g.sample_counts == {(0, 1): int(count)}
    assert SmoothedClassifier.from_dict(g.to_dict()).sample_counts == {(0, 1): int(count)}


# ---------------------------------------------------------------------------
# scheme A


def test_scheme_a_budget_matches_closed_form():
    # recomputed from scratch: (Q/r) log2(Q/r) + (Q log2 Q / r) log2 log2 (Q/r)
    for q, r in [(64, 0.1), (16, 0.2), (1000, 0.01), (2, 0.9)]:
        x = q / r
        expect = math.ceil(x * math.log2(x) + (q * math.log2(q) / r) * math.log2(math.log2(x)))
        assert scheme_a_sample_size(q, r) == expect
    assert scheme_a_sample_size(64, 0.1) == 18334


def test_scheme_a_budget_monotone_and_superlinear():
    sizes = [scheme_a_sample_size(q, 0.1) for q in (8, 16, 32, 64, 128)]
    assert sizes == sorted(sizes)
    for small, big in zip(sizes, sizes[1:]):
        assert big > 2 * small, "budget must grow faster than the cell count"
    assert scheme_a_sample_size(64, 0.05) > scheme_a_sample_size(64, 0.1)
    # risk 0 is floored at 1e-3, not a division by zero
    assert scheme_a_sample_size(64, 0.0) == scheme_a_sample_size(64, 1e-3)


def test_scheme_a_budget_validation():
    with pytest.raises(ValueError):
        scheme_a_sample_size(0, 0.1)
    with pytest.raises(ValueError):
        scheme_a_sample_size(10, -0.1)
    with pytest.raises(ValueError):
        scheme_a_sample_size(10, 1.5)


def test_scheme_a_budget_covers_heavy_cells():
    # a cell of mass r/Q must collect >= ceil(log2 Q) votes with room to spare
    q, r = 16, 0.2
    budget = scheme_a_sample_size(q, r)
    need = math.ceil(math.log2(q))
    rng = np.random.default_rng(20)
    hits = sum(rng.binomial(budget, r / q) >= need for _ in range(200))
    assert hits >= 195


def test_scheme_a_exact_on_cell_constant_classifier():
    task = two_discs_task()
    part = sample_cube_partition(2, 1.0, np.random.default_rng(21))
    f = cell_parity_classifier(part)
    pool, _ = task.sample(np.random.default_rng(22), 3000)
    g = scheme_a_estimate(f, part, pool)
    assert g.scheme == "A"
    assert sum(g.sample_counts.values()) == 3000
    for cell, label in g.cell_labels.items():
        assert label == int(f(part.anchor(cell)[None, :])[0])


def test_scheme_a_agrees_with_exact_on_confident_cells():
    task = two_discs_task()
    part = sample_cube_partition(2, 1.0, np.random.default_rng(23))
    f = task.ground_truth_classifier()
    exact = smooth_exact(f, part, task, per_cell=25, rng=np.random.default_rng(24))
    pool, _ = task.sample(np.random.default_rng(25), 20000)
    est = scheme_a_estimate(f, part, pool)
    # conditional means recomputed from the pool itself
    votes = f(pool).astype(np.float64)
    cells = cells_of(part, pool)
    means, counts = {}, {}
    for row, v in zip(map(tuple, cells.tolist()), votes):
        means[row] = means.get(row, 0.0) + v
        counts[row] = counts.get(row, 0) + 1
    confident = [
        c
        for c in est.cell_labels
        if counts[c] >= 25 and abs(means[c] / counts[c]) >= 0.2 and c in exact.cell_labels
    ]
    assert len(confident) >= 20
    agree = sum(est.cell_labels[c] == exact.cell_labels[c] for c in confident)
    assert agree / len(confident) >= 0.99


def test_scheme_a_empty_pool_raises():
    part = sample_cube_partition(2, 1.0, np.random.default_rng(26))
    with pytest.raises(ValueError):
        scheme_a_estimate(constant_classifier(1), part, np.empty((0, 2)))


# ---------------------------------------------------------------------------
# chord solvers and hit-and-run


def test_ball_chord_endpoints_on_sphere():
    rng = np.random.default_rng(27)
    for _ in range(50):
        d = int(rng.integers(1, 6))
        center = rng.normal(size=d)
        radius = float(rng.uniform(0.5, 3.0))
        x = center + radius * rng.uniform(0, 0.95) * _unit(rng, d)
        v = _unit(rng, d)
        lo, hi = ball_chord(center, radius)(x, v)
        assert lo <= 0.0 <= hi
        for end in (lo, hi):
            assert np.linalg.norm(x + end * v - center) == pytest.approx(radius, abs=1e-9)
        mid = x + 0.5 * (lo + hi) * v
        assert np.linalg.norm(mid - center) < radius


def _unit(rng, d):
    v = rng.normal(size=d)
    return v / np.linalg.norm(v)


def _full_ball_partition(d: int, radius: float) -> BallCarvingPartition:
    """One-center carving: the single cell is the whole ball B_radius(0)."""
    eps = 4.0 * radius / 2.0  # radius sits at the top of (eps/4, eps/2]
    net = EpsilonNet(centers=np.zeros((1, d)), epsilon=eps / 4.0, source_count=1)
    return BallCarvingPartition(net=net, epsilon=eps, radius=radius, order=np.array([0]))


def test_hit_and_run_radial_law_in_ball():
    d, radius = 3, 1.0
    part = _full_ball_partition(d, radius)
    chord = ball_chord(part.net.centers[0], part.radius)

    def member(y):
        return bool(ball_cell_member(part, 0, y[None, :])[0])

    rng = np.random.default_rng(29)
    finals = np.empty((2000, d))
    for i in range(2000):
        finals[i], flagged = hit_and_run(member, chord, np.zeros(d), k=8 * d, rng=rng)
        assert not flagged
    assert np.all(ball_cell_member(part, 0, finals))
    radii = np.linalg.norm(finals, axis=1)
    stat = stats.kstest(radii, lambda r: np.clip(r / radius, 0.0, 1.0) ** d).statistic
    assert stat < 0.05


def test_hit_and_run_validation_and_stuck_flag():
    chord = ball_chord(np.zeros(2), 1.0)
    ball = lambda y: bool(np.linalg.norm(y) <= 1.0)
    with pytest.raises(ValueError):
        hit_and_run(ball, chord, np.array([5.0, 0.0]), k=4, rng=np.random.default_rng(30))
    with pytest.raises(ValueError):
        hit_and_run(ball, chord, np.zeros(2), k=0, rng=np.random.default_rng(31))
    start = np.array([0.3, 0.1])
    only_start = lambda y: bool(np.allclose(y, start))
    x, flagged = hit_and_run(only_start, chord, start, k=3, rng=np.random.default_rng(32))
    assert flagged and np.array_equal(x, start)


# ---------------------------------------------------------------------------
# scheme B


def test_scheme_b_cube_exact_on_one_sided_cells():
    # cells that never touch the class boundary x0 = 0 must be labeled exactly
    task = two_discs_task()
    part = sample_cube_partition(2, 1.0, np.random.default_rng(33))
    f = task.ground_truth_classifier()
    g = scheme_b_estimate(f, part, s=32, k=None, rng=np.random.default_rng(34))
    X, y = task.sample(np.random.default_rng(35), 1500)
    labels = g.evaluate(X)
    cells = cells_of(part, X)
    for row, x, lab in zip(cells, X, labels):
        lo0 = part.shift[0] + row[0] * part.width
        if lo0 >= 0.05 or lo0 + part.width <= -0.05:
            assert lab == (1 if lo0 >= 0.0 else -1)
    assert g.scheme == "B" and all(v == 32 for v in g.sample_counts.values())


def test_scheme_b_labels_do_not_depend_on_query_batching():
    task = two_discs_task()
    part = sample_cube_partition(2, 1.0, np.random.default_rng(36))
    f = task.ground_truth_classifier()
    X, _ = task.sample(np.random.default_rng(37), 400)
    a = scheme_b_estimate(f, part, s=16, k=None, rng=np.random.default_rng(38))
    one_shot = a.evaluate(X)
    b = scheme_b_estimate(f, part, s=16, k=None, rng=np.random.default_rng(38))
    perm = np.random.default_rng(39).permutation(len(X))
    pieces = np.empty(len(X), dtype=np.int8)
    for i in perm:  # worst case: one point at a time, shuffled
        pieces[i] = b.evaluate(X[i : i + 1])[0]
    assert np.array_equal(one_shot, pieces)
    assert a.cell_labels == b.cell_labels


def test_scheme_b_cube_cells_2_32_apart_draw_different_samples():
    part = CubePartition(epsilon=1.0, dim=1, shift=np.zeros(1))
    f, batches = recording_classifier(constant_classifier(1))
    g = scheme_b_estimate(f, part, s=8, k=None, rng=np.random.default_rng(72))
    k = 3
    g.evaluate(np.array([[k + 0.5]]))
    g.evaluate(np.array([[k + 2.0**32 + 0.5]]))
    offsets_a = batches[0][:, 0] - k
    offsets_b = batches[1][:, 0] - (k + 2.0**32)
    assert not np.allclose(offsets_a, offsets_b, atol=1e-5)


def test_scheme_b_carved_cells_recover_cell_constant_classifier():
    rng = np.random.default_rng(40)
    pts = rng.uniform(-1.0, 1.0, size=(400, 2))
    net = greedy_net(pts, 0.15)
    part = sample_ball_carving(net, 0.6, rng)
    f = cell_parity_classifier(part)
    g = scheme_b_estimate(f, part, s=8, k=None, rng=np.random.default_rng(41))
    queries = net.centers[:20]  # each center lies in its own cell
    labels = g.evaluate(queries)
    cells = cells_of(part, queries)
    for cell, lab in zip(cells, labels):
        assert lab == (1 if int(cell) % 2 == 0 else -1)


def _square_carving(d: int, seed: int, eps: float = 0.6):
    rng = np.random.default_rng(seed)
    X = rng.random((1500, d))
    part = sample_ball_carving(greedy_net(X, eps / 4.0), eps, rng)
    return part, X


def _halfspace(d: int) -> BlackBoxClassifier:
    normal = np.linspace(1.0, 0.4, d)
    return BlackBoxClassifier(lambda X: np.where(X @ normal >= 0.5 * normal.sum(), 1, -1).astype(np.int8))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scheme_b_carved_labels_do_not_depend_on_query_order(d, seed):
    part, _ = _square_carving(d, 80 + seed)
    f = _halfspace(d)
    queries = np.random.default_rng(90 + seed).random((300, d))
    a = scheme_b_estimate(f, part, s=3, k=None, rng=np.random.default_rng(100 + seed))
    one_shot = a.evaluate(queries)
    b = scheme_b_estimate(f, part, s=3, k=None, rng=np.random.default_rng(100 + seed))
    pieces = np.empty(len(queries), dtype=np.int8)
    for i in np.random.default_rng(110 + seed).permutation(len(queries)):
        pieces[i] = b.evaluate(queries[i : i + 1])[0]
    assert np.array_equal(one_shot, pieces)
    assert a.cell_labels == b.cell_labels and a.sample_counts == b.sample_counts
    assert a.flagged_cells == b.flagged_cells


def test_scheme_b_off_support_query_on_carving_gets_its_cell_label():
    part, X = _square_carving(2, 120)
    f = _halfspace(2)
    far = np.array([[3.0, 3.0]])
    cell = int(part.cells(far)[0])
    g = scheme_b_estimate(f, part, s=4, k=None, rng=np.random.default_rng(121))
    label = g.evaluate(far)[0]
    assert g.cell_labels[cell] == label
    if g.sample_counts[cell] == 0:
        assert cell in g.flagged_cells and label == f(part.anchor(cell)[None, :])[0]
    inside = X[part.cells(X) == cell]
    h = scheme_b_estimate(f, part, s=4, k=None, rng=np.random.default_rng(121))
    assert np.all(h.evaluate(inside) == label) and h.cell_labels[cell] == label


def test_scheme_b_cell_no_draw_hits_gets_flagged_anchor_fallback():
    # 1-D carving whose middle center's ball lies inside the two earlier balls
    net = EpsilonNet(centers=np.array([[0.0], [0.25], [0.5]]), epsilon=0.25, source_count=3)
    part = BallCarvingPartition(net=net, epsilon=1.0, radius=0.5, order=np.array([0, 2, 1]))
    f, batches = recording_classifier(
        BlackBoxClassifier(lambda X: np.where(X[:, 0] > 0.3, 1, -1).astype(np.int8)))
    g = scheme_b_estimate(f, part, s=5, k=None, rng=np.random.default_rng(122))
    labels = g._lazy_resolver(g, [1, 2], np.array([1, 2]))
    assert len(batches) == 1 and len(batches[0]) == 5 + 1  # s votes for cell 2, the anchor of cell 1
    assert np.array_equal(batches[0][-1], [0.25])
    assert labels[0] == -1 and g.cell_labels[1] == -1 and g.sample_counts == {1: 0, 2: 5}
    assert 1 in g.flagged_cells


@pytest.mark.parametrize("family", ["cube", "ball"])
def test_scheme_b_copy_resolves_into_itself(family):
    if family == "cube":
        part = sample_cube_partition(2, 0.3, np.random.default_rng(126))
    else:
        part, _ = _square_carving(2, 127)
    f = _halfspace(2)
    g = scheme_b_estimate(f, part, s=3, k=None, rng=np.random.default_rng(128))
    queries = np.random.default_rng(129).random((50, 2))
    g.evaluate(queries[:5])
    table = [a.copy() for a in (g._keys, g._cells, g._labels, g._counts, g._flagged)]
    known, asked = dict(g.cell_labels), f.eval_count
    h = copy.copy(g)
    first = h.evaluate(queries)
    assert np.array_equal(h.evaluate(queries), first)
    # the copy holds each distinct cell once, sorted; the original is as it was
    assert np.array_equal(h._keys, np.unique(h._keys))
    assert h.cell_count == len(np.unique(cells_of(part, queries), axis=0)) > len(known)
    assert all(np.array_equal(a, b) for a, b in zip(table, (g._keys, g._cells, g._labels, g._counts, g._flagged)))
    assert g.cell_labels == known
    # f saw s points per fresh cell (its anchor where no start was found), once
    fresh = [c for key, c in h.sample_counts.items() if key not in known]
    assert set(fresh) <= {0, 3} and fresh.count(3) > 0
    assert f.eval_count - asked == sum(max(c, 1) for c in fresh)


def test_scheme_b_one_base_call_per_evaluate_with_fresh_cells():
    part, _ = _square_carving(2, 123)
    f, batches = recording_classifier(_halfspace(2))
    g = scheme_b_estimate(f, part, s=3, k=None, rng=np.random.default_rng(124))
    queries = np.random.default_rng(125).random((200, 2))
    g.evaluate(queries[:100])
    g.evaluate(queries[:100])  # nothing fresh: no base call
    g.evaluate(queries)
    counts = g.sample_counts.values()
    assert len(batches) == 2 and f.eval_count == sum(c if c else 1 for c in counts)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_blocker_membership_equals_ball_cell_member(d):
    rng = np.random.default_rng(130 + d)
    for _ in range(3):
        X = rng.random((400, d)) * rng.uniform(0.5, 3.0)
        part = sample_ball_carving(greedy_net(X, 0.15), 0.6, rng)
        R = part.radius
        cells = rng.choice(len(part.net), size=min(12, len(part.net)), replace=False)
        for cell, near in zip(cells, _blockers(part, cells)):
            c = part.net.centers[cell]
            axis = np.eye(d)[rng.integers(d, size=64)] * rng.choice([-1.0, 1.0], size=(64, 1))
            Y = np.concatenate([
                c + rng.uniform(-1.2 * R, 1.2 * R, size=(192, d)),
                c + R * axis,  # on the sphere of the cell's own ball, up to rounding
                part.net.centers[near] + R * axis[: len(near)],
            ])
            assert len(Y) >= 64
            assert np.array_equal(_cell_member(part, int(cell), near)(Y), ball_cell_member(part, int(cell), Y))


@pytest.mark.parametrize("d", [2, 3])
def test_carved_walk_starts_and_endpoints_lie_in_their_cell(d):
    part, _ = _square_carving(d, 140 + d)
    cells = np.arange(len(part.net))
    s, steps = 4, 8 * d
    starts, owners = [], []
    for cell, near in zip(cells.tolist(), _blockers(part, cells)):
        got = _carved_starts(part, cell, _cell_member(part, cell, near), s, np.random.default_rng(cell))
        if got is not None:
            starts.append(got)
            owners += [cell] * s
    pts, hit, _ = _carved_samples(part, cells, s, steps, 150)
    for P, want in ((np.concatenate(starts), np.array(owners)), (pts, np.repeat(cells[hit], s))):
        got, off, _ = ball_assign(part, P)
        assert len(P) >= 64 and not off.any() and np.array_equal(got, want)
    assert hit.sum() >= len(cells) // 2


def test_batched_walk_core_radial_law_in_full_ball():
    d, radius, walks = 3, 1.0, 2000
    part = _full_ball_partition(d, radius)
    member = _cell_member(part, 0, np.empty(0, dtype=np.intp))
    X, stuck = _walk(member, ball_chord(np.zeros(d), radius), np.zeros((walks, d)), 8 * d,
                     np.random.default_rng(160), block=_PROPOSALS)
    assert not stuck.any() and member(X).all()
    stat = stats.kstest(np.linalg.norm(X, axis=1), lambda r: np.clip(r / radius, 0.0, 1.0) ** d).statistic
    assert stat < 0.05


def test_cube_samples_uniform_in_box_and_repeatable():
    part = CubePartition(epsilon=1.5, dim=3, shift=np.array([0.1, 0.2, 0.3]))
    rng = np.random.default_rng(170)
    small = rng.integers(-50, 50, size=(30, 3))
    cells = np.concatenate([small, rng.integers(-(2**40), 2**40, size=(9, 3)), [[-1, 2**32, -(2**62)]]])
    s = 200
    pts = _cube_samples(part, cells, s, 171)
    n = len(small)
    lo = part.shift + small.astype(np.float64) * part.width
    unit = (pts[: n * s].reshape(n, s, 3) - lo[:, None, :]) / part.width
    assert np.all((unit >= 0.0) & (unit < 1.0))
    for j in range(3):
        assert stats.kstest(unit[..., j].ravel(), "uniform").pvalue > 1e-3
    assert np.array_equal(cells_of(part, pts[: n * s]), np.repeat(small, s, axis=0))
    assert np.array_equal(pts, _cube_samples(part, cells, s, 171))
    backwards = _cube_samples(part, cells[::-1], s, 171).reshape(len(cells), s, 3)[::-1]
    assert np.array_equal(backwards.reshape(-1, 3), pts)
    assert not np.array_equal(pts, _cube_samples(part, cells, s, 172))


def test_scheme_b_validation():
    part = sample_cube_partition(2, 1.0, np.random.default_rng(42))
    f = constant_classifier(1)
    with pytest.raises(ValueError):
        scheme_b_estimate(f, part, s=0, k=None, rng=np.random.default_rng(43))
    with pytest.raises(ValueError):
        scheme_b_estimate(f, part, s=4, k=0, rng=np.random.default_rng(44))


# ---------------------------------------------------------------------------
# Gaussian baselines


def test_gaussian_plain_is_deterministic_and_batch_invariant():
    task = two_discs_task()
    f = task.ground_truth_classifier()
    g = gaussian_smoothing(f, sigma=0.5, n=40, rng=np.random.default_rng(45))
    X, _ = task.sample(np.random.default_rng(46), 60)
    first = g(X)
    assert np.array_equal(first, g(X))
    perm = np.random.default_rng(47).permutation(len(X))
    assert np.array_equal(g(X[perm]), first[perm])
    singles = np.array([g(X[i : i + 1])[0] for i in range(len(X))])
    assert np.array_equal(singles, first)


def test_gaussian_plain_small_sigma_matches_base():
    task = two_discs_task()
    f = task.ground_truth_classifier()
    g = gaussian_smoothing(f, sigma=1e-6, n=20, rng=np.random.default_rng(48))
    X, _ = task.sample(np.random.default_rng(49), 200)
    X = X[np.abs(X[:, 0]) > 0.05]
    assert np.array_equal(g(X), f(X))
    assert g.name == "gaussian-smoothing-1e-06"


def test_gaussian_conditioned_huge_sigma_votes_globally():
    # with sigma far above the data spread all pool weights even out, so the
    # smoothed sign is one global majority and the risk sits near 1/2
    task = two_discs_task()
    f = task.ground_truth_classifier()
    g = gaussian_smoothing(f, sigma=500.0, n=2000, rng=np.random.default_rng(50), task=task)
    X, y = task.sample(np.random.default_rng(51), 3000)
    labels = g(X)
    assert len(np.unique(labels)) == 1
    assert abs(np.mean(labels != y) - 0.5) < 0.05
    assert g.name == "conditioned-gaussian-smoothing-500.0"


def test_gaussian_conditioned_small_sigma_tracks_data():
    task = two_discs_task()
    f = task.ground_truth_classifier()
    g = gaussian_smoothing(f, sigma=0.05, n=4000, rng=np.random.default_rng(52), task=task)
    X, y = task.sample(np.random.default_rng(53), 2000)
    assert np.mean(g(X) != y) <= 0.02


def test_gaussian_conditioned_rejects_overflowing_queries():
    # a query whose squared distances to the pool would overflow is outside
    # the domain (|x_i| < 2^480): the classifier rejects it before any
    # arithmetic. At the domain's edge the nearest pool point keeps weight 1
    task = two_discs_task()
    g = gaussian_smoothing(task.ground_truth_classifier(), sigma=0.5, n=200,
                           rng=np.random.default_rng(57), task=task)
    edge = math.nextafter(2.0**480, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the ValueError comes before any RuntimeWarning
        for far in (1e150, 1e300):
            with pytest.raises(ValueError, match="2\\^480"):
                g(np.array([[0.0, 0.0], [far, far]]))
        assert set(g(np.array([[edge, -edge], [-(2.0**479), 2.0**479]])).tolist()) <= {-1, 1}


def test_gaussian_conditioned_tiny_sigma_labels_by_nearest_pool_point_or_raises():
    task = two_discs_task()
    f = task.ground_truth_classifier()
    for sigma in (1e-160, 1e-200):  # 1 / (2 sigma^2) overflows
        with pytest.raises(ValueError, match="sigma"):
            gaussian_smoothing(f, sigma=sigma, n=10, rng=np.random.default_rng(58), task=task)
    g = gaussian_smoothing(f, sigma=1e-154, n=500, rng=np.random.default_rng(59), task=task)
    X, y = task.sample(np.random.default_rng(60), 200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # weights past the nearest overflow to 0 silently
        assert np.mean(g(X) != y) <= 0.05


def test_gaussian_validation():
    f = constant_classifier(1)
    with pytest.raises(ValueError):
        gaussian_smoothing(f, sigma=0.0, n=10, rng=np.random.default_rng(54))
    with pytest.raises(ValueError):
        gaussian_smoothing(f, sigma=1.0, n=0, rng=np.random.default_rng(55))


def test_gaussian_rejects_nan_sigma():
    with pytest.raises(ValueError):
        gaussian_smoothing(constant_classifier(1), sigma=float("nan"), n=10, rng=np.random.default_rng(56))


# ---------------------------------------------------------------------------
# serialization


def roundtrip(g, base):
    """g through the JSON text that `execute` writes, read back with base."""
    return SmoothedClassifier.from_dict(json.loads(json.dumps(g.to_dict(), indent=1, sort_keys=True)), base=base)


def test_smoothed_roundtrip_cube():
    task = two_discs_task()
    part = sample_cube_partition(2, 1.0, np.random.default_rng(56))
    g = smooth_exact(
        task.ground_truth_classifier(), part, task, per_cell=30, rng=np.random.default_rng(57), max_draws=600
    )
    back = roundtrip(g, task.ground_truth_classifier())
    assert back.cell_labels == g.cell_labels
    assert back.sample_counts == g.sample_counts
    assert back.flagged_cells == g.flagged_cells
    assert back.scheme == g.scheme
    X, _ = task.sample(np.random.default_rng(58), 800)
    assert np.array_equal(back.evaluate(X), g.evaluate(X))


def test_smoothed_roundtrip_carving():
    task = intersecting_circles_task(2)
    rng = np.random.default_rng(59)
    pts, _ = task.sample(rng, 4000)
    net = greedy_net(pts, 0.05)
    part = sample_ball_carving(net, 0.2, rng)
    pool, _ = task.sample(rng, 3000)
    g = scheme_a_estimate(task.ground_truth_classifier(), part, pool)
    back = roundtrip(g, task.ground_truth_classifier())
    assert back.cell_labels == g.cell_labels
    X, _ = task.sample(np.random.default_rng(60), 600)
    assert np.array_equal(back.evaluate(X), g.evaluate(X))


@pytest.mark.parametrize("name, make_task, box, key_type, labels", [
    ("cube", two_discs_task, (-2.5, 2.5), tuple,
     "-++++--++-+--+-+-++++---+++++--+-+-++-+-+-+-----++++++--+-+-+--+"),
    ("carving", lambda: intersecting_circles_task(2), (-1.2, 2.2), int,
     "-++++--++-+-++-+--++-+---++++--+-+--++-++-+-+---+++-++--+-+-+-++"),
], ids=["cube", "carving"])
def test_saved_classifier_files_load_and_resave_byte_for_byte(name, make_task, box, key_type, labels):
    # files written by an earlier release, without a final newline: the
    # cell-key text form must not move
    saved = DATA / f"{name}_classifier.json"
    task = make_task()
    g = SmoothedClassifier.from_dict(json.loads(saved.read_text()), base=task.ground_truth_classifier())
    keys = [*g.cell_labels, *g.sample_counts, *g.flagged_cells]
    assert g.flagged_cells and all(type(k) is key_type for k in keys)
    X = np.random.default_rng(75).uniform(*box, (64, 2))
    assert "".join("+" if v > 0 else "-" for v in g.evaluate(X)) == labels
    assert json.dumps(g.to_dict(), indent=1, sort_keys=True).encode() == saved.read_bytes()


def test_loaded_without_base_serves_known_cells_only():
    task = two_discs_task()
    part = sample_cube_partition(2, 1.0, np.random.default_rng(61))
    g = smooth_exact(task.ground_truth_classifier(), part, task, per_cell=5, rng=np.random.default_rng(62))
    back = SmoothedClassifier.from_dict(g.to_dict(), base=None)
    known = part.anchor(next(iter(g.cell_labels)))
    assert back.evaluate(known[None, :])[0] == g.cell_labels[next(iter(g.cell_labels))]
    with pytest.raises(RuntimeError):
        back.evaluate(np.array([[300.0, 300.0]]))


@pytest.mark.parametrize("max_draws", [0, -5])
def test_smooth_exact_rejects_max_draws_below_one(max_draws):
    # a cap below one would draw nothing and label every cell by the fallback
    task = two_discs_task()
    part = sample_cube_partition(2, 1.0, np.random.default_rng(61))
    with pytest.raises(ValueError, match="max_draws"):
        smooth_exact(task.ground_truth_classifier(), part, task, 5, np.random.default_rng(62), max_draws=max_draws)


@pytest.mark.parametrize("sigma", [math.inf, -math.inf, math.nan, 0.0])
@pytest.mark.parametrize("with_task", [False, True])
def test_gaussian_smoothing_rejects_sigma_that_is_not_positive_and_finite(sigma, with_task):
    task = two_discs_task()
    with pytest.raises(ValueError, match="sigma must be positive and finite"):
        gaussian_smoothing(task.ground_truth_classifier(), sigma=sigma, n=10, rng=np.random.default_rng(63),
                           task=task if with_task else None)
