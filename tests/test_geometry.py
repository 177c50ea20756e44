"""Geometry primitives against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padsmooth.geometry import (
    EpsilonNet,
    _distances_to,
    _greedy_net_loop,
    _greedy_net_tree,
    as_points,
    estimate_doubling_dimension,
    greedy_net,
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


@pytest.mark.parametrize("d,eps", [(1, 0.5), (2, 0.3), (3, 0.7)])
def test_greedy_net_postconditions(d, eps):
    rng = stream(100, 2, d)
    pts = rng.random((400, d)) * 3.0
    net = greedy_net(pts, eps)
    assert brute_net_ok(pts, net, eps)
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
    assert brute_net_ok(grid, net, 1.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
def test_net_spacing_must_be_positive_and_finite(bad):
    pts = stream(100, 8).random((50, 2))
    with pytest.raises(ValueError, match="positive and finite"):
        greedy_net(pts, bad)
    with pytest.raises(ValueError, match="positive and finite"):
        EpsilonNet(centers=pts[:1], epsilon=bad, source_count=1)


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 8),
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
    side = min(side, int(round(2000 ** (1.0 / d))))  # at most 2000 lattice points
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


@pytest.mark.parametrize("d", [5, 6, 7, 8])
def test_greedy_net_tree_equals_loop_in_unit_balls(d):
    # greedy_net builds nets by cover marking up to d = 8
    rng = np.random.default_rng(d)
    pts = rng.standard_normal((1500, d))
    pts *= rng.random((1500, 1)) ** (1.0 / d) / np.linalg.norm(pts, axis=1, keepdims=True)
    for eps in (0.3, 0.6):
        loop = _greedy_net_loop(pts, eps)
        assert np.array_equal(_greedy_net_tree(pts, eps), loop)
        assert np.array_equal(greedy_net(pts, eps).centers, loop)


@pytest.mark.parametrize("chunk", [8192, 7, 1])
def test_distances_to_equals_the_expression_bits(chunk):
    # formed in place, with the bits of the plain expression per chunk
    rng = np.random.default_rng(3)
    P, C = rng.random((300, 5)) * 4.0 + 1e3, rng.random((40, 5)) * 4.0 + 1e3
    want = np.empty((300, 40))
    for i in range(0, 300, chunk):
        blk = P[i : i + chunk]
        d2 = np.einsum("ij,ij->i", blk, blk)[:, None] + np.einsum("ij,ij->i", C, C)[None, :] - 2.0 * (blk @ C.T)
        want[i : i + chunk] = np.sqrt(np.maximum(d2, 0.0))
    assert _distances_to(P, C, chunk).tobytes() == want.tobytes()


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
