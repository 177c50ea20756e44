"""Geometry primitives against brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padsmooth.geometry import (
    EpsilonNet,
    _greedy_net_loop,
    _greedy_net_tree,
    as_points,
    estimate_doubling_dimension,
    greedy_net,
    l2_distance,
    load_points_bin,
    load_points_csv,
    packing_count,
    pairwise_min_distance,
    save_points_bin,
    save_points_csv,
)
from padsmooth.rng import stream


def brute_net_ok(points, net, epsilon):
    """O(n*k) oracle for both net properties."""
    centers = net.centers
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            if np.linalg.norm(centers[i] - centers[j]) < epsilon:
                return False
    for p in points:
        if min(np.linalg.norm(p - c) for c in centers) >= epsilon:
            return False
    return True


def test_as_points_shapes_and_validation():
    assert as_points([1.0, 2.0]).shape == (1, 2)
    assert as_points([[1.0], [2.0]]).shape == (2, 1)
    with pytest.raises(ValueError):
        as_points(np.array([[np.nan, 0.0]]))
    with pytest.raises(ValueError):
        as_points(np.empty((3, 0)))


def test_l2_distance_matches_numpy():
    rng = stream(100, 0)
    a, b = rng.standard_normal(5), rng.standard_normal(5)
    assert l2_distance(a, b) == pytest.approx(np.linalg.norm(a - b))
    with pytest.raises(ValueError):
        l2_distance([1.0], [1.0, 2.0])


def test_pairwise_min_distance_small_oracle():
    rng = stream(100, 1)
    pts = rng.standard_normal((40, 3))
    best = min(
        np.linalg.norm(pts[i] - pts[j])
        for i in range(40)
        for j in range(i + 1, 40)
    )
    assert pairwise_min_distance(pts) == pytest.approx(best)
    assert pairwise_min_distance(pts[:1]) == math.inf


@pytest.mark.parametrize("d,eps", [(1, 0.5), (2, 0.3), (3, 0.7)])
def test_greedy_net_postconditions(d, eps):
    rng = stream(100, 2, d)
    pts = rng.random((400, d)) * 3.0
    net = greedy_net(pts, eps)
    assert brute_net_ok(pts, net, eps)
    assert net.covers(pts)
    assert net.min_spacing() >= eps
    assert net.source_count == 400


def test_greedy_net_deterministic_in_input_order():
    rng = stream(100, 3)
    pts = rng.random((200, 2))
    n1 = greedy_net(pts, 0.2)
    n2 = greedy_net(pts, 0.2)
    assert np.array_equal(n1.centers, n2.centers)
    # first point always a center
    assert np.array_equal(n1.centers[0], pts[0])


def test_exact_1d_covering_count():
    # [0, 10] at unit spacing: greedy over a left-to-right grid picks exactly
    # ceil(10/eps) + 1 evenly spread centers when eps divides the range
    grid = np.linspace(0.0, 10.0, 10001)[:, None]
    net = greedy_net(grid, 1.0)
    assert len(net) == 11
    assert net.covers(grid)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
def test_net_spacing_must_be_positive_and_finite(bad):
    pts = stream(100, 8).random((50, 2))
    with pytest.raises(ValueError, match="positive and finite"):
        greedy_net(pts, bad)
    with pytest.raises(ValueError, match="positive and finite"):
        EpsilonNet(centers=pts[:1], epsilon=bad, source_count=1)


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(1, 4),
    side=st.integers(2, 6),
    eps=st.sampled_from([0.1, 0.25, 0.5, 1.0, 3.0]),
    duplicates=st.booleans(),
    offset=st.sampled_from([0.0, 1e6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_greedy_net_tree_equals_loop(d, side, eps, duplicates, offset, seed):
    # a shuffled integer lattice at spacing exactly eps puts many pairs at
    # exactly eps, where a point must still become a center
    rng = np.random.default_rng(seed)
    axes = [np.arange(side) * eps] * d
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    if duplicates:
        pts = np.vstack([pts, pts[rng.integers(0, len(pts), len(pts) // 2)]])
    pts = pts[rng.permutation(len(pts))] + offset
    loop = _greedy_net_loop(pts, eps)
    tree = _greedy_net_tree(pts, eps)
    assert np.array_equal(tree, loop)
    if eps != 0.1:  # multiples of a dyadic eps are exact, also offset by 1e6
        assert len(tree) == side**d  # every lattice point, each once


def test_packing_count_1d_enumeration():
    # centers on the integer lattice (spacing 1); the open radius-2 ball
    # around 0.5 holds exactly {-1, 0, 1, 2}: four centers, which meets the
    # 2^(dd * ceil(log2(2t/r))) cap with dd=1, t=2, r=1
    centers = np.arange(-10.0, 11.0)[:, None]
    net = EpsilonNet(centers=centers, epsilon=1.0, source_count=21)
    got = packing_count(net, np.array([0.5]), 2.0)
    brute = sum(1 for c in centers[:, 0] if abs(c - 0.5) < 2.0)
    assert got == brute == 4
    assert got <= 2 ** (1 * math.ceil(math.log2(4)))
    assert packing_count(net, np.array([0.5]), 0.0) == 0


def test_packing_bound_on_circle_net():
    rng = stream(100, 4)
    angles = rng.random(4000) * 2 * np.pi
    pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    net = greedy_net(pts, 0.1)
    dd_hat = estimate_doubling_dimension(pts, 0.4)
    t = 0.2
    cap = 2 ** (dd_hat * math.ceil(math.log2(2 * t / 0.1)))
    for center in pts[:50]:
        assert packing_count(net, center, t) <= cap


def test_doubling_dimension_line_vs_plane():
    rng = stream(100, 5)
    line = np.zeros((3000, 2))
    line[:, 0] = rng.random(3000) * 10.0
    plane = rng.random((3000, 2)) * 10.0
    dd_line = estimate_doubling_dimension(line, 1.0)
    dd_plane = estimate_doubling_dimension(plane, 1.0)
    assert 0.9 <= dd_line <= 2.1  # greedy covers overshoot; must stay near 1
    assert dd_plane > dd_line
    assert dd_plane <= 3.6


def test_points_csv_roundtrip_bit_exact(tmp_path):
    rng = stream(100, 6)
    pts = rng.standard_normal((17, 3))
    labels = np.where(rng.random(17) < 0.5, -1, 1).astype(np.int8)
    p = tmp_path / "pts.csv"
    save_points_csv(p, pts, labels)
    back, lab = load_points_csv(p, labeled=True)
    assert np.array_equal(back, pts)
    assert np.array_equal(lab, labels)
    save_points_csv(p, pts)
    (only,) = load_points_csv(p)
    assert np.array_equal(only, pts)


def test_points_bin_roundtrip_and_corruption(tmp_path):
    rng = stream(100, 7)
    pts = rng.standard_normal((23, 4))
    p = tmp_path / "pts.bin"
    save_points_bin(p, pts)
    (back,) = load_points_bin(p)
    assert np.array_equal(back, pts)
    blob = p.read_bytes()
    p.write_bytes(blob[:-3])
    with pytest.raises(ValueError):
        load_points_bin(p)
    p.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(ValueError):
        load_points_bin(p)
