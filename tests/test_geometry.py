"""Geometry primitives against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padsmooth import geometry
from padsmooth.geometry import (
    EpsilonNet,
    _greedy_net_blocked,
    _greedy_net_tree,
    _net_block,
    as_points,
    estimate_doubling_dimension,
    greedy_net,
)
from padsmooth.rng import stream


def _loop_reference(pts, epsilon):
    """Centers of the input-order greedy net, checking each point against
    every center so far: the definition both kernels must reproduce."""
    n, d = pts.shape
    buf = np.empty((n, d), dtype=np.float64)
    buf[0] = pts[0]
    k = 1
    for i in range(1, n):
        diff = buf[:k] - pts[i]
        d2 = np.einsum("ij,ij->i", diff, diff)
        if d2.min() >= epsilon * epsilon:
            buf[k] = pts[i]
            k += 1
    return buf[:k].copy()


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
    with pytest.raises(ValueError, match="positive and finite"):
        estimate_doubling_dimension(pts, bad)


@pytest.mark.parametrize("d", [3, 12])
def test_greedy_net_rejects_an_empty_source(d):
    # d = 3 goes to the tree kernel, d = 12 to the blocked one
    with pytest.raises(ValueError, match="at least one source point"):
        greedy_net(np.empty((0, d)), 0.5)


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
    loop = _loop_reference(pts, eps)
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
        loop = _loop_reference(pts, eps)
        assert np.array_equal(_greedy_net_tree(pts, eps), loop)
        assert np.array_equal(greedy_net(pts, eps).centers, loop)


@settings(max_examples=80, deadline=None)
@given(
    d=st.integers(9, 50),
    lattice=st.booleans(),
    spread=st.sampled_from([0.8, 1.0, 1.3]),
    eps=st.sampled_from([0.25, 0.5, 1.0]),
    blocks=st.integers(1, 4),
    size=st.sampled_from([-1, 0, 1]),
    tile=st.sampled_from([geometry._TILE, 256]),
    duplicates=st.booleans(),
    offset=st.sampled_from([0.0, 1e4, 1e6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_greedy_net_blocked_equals_loop(d, lattice, spread, eps, blocks, size, tile, duplicates, offset, seed):
    # n is a multiple of the first block's rows, or one off, under the
    # default tile and a small one that makes many blocks
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_TILE", tile)
        n = blocks * _net_block(0) + size
        if lattice:
            # a walk of +-eps steps along the axes: many pairs exactly eps apart,
            # each of which must become a center, and repeats where it steps back
            steps = np.zeros((n, d))
            steps[np.arange(n), rng.integers(0, d, n)] = rng.choice([-1.0, 1.0], n)
            pts = np.zeros((n, d))
            for i in range(1, n):
                pts[i] = pts[rng.integers(0, i)] + steps[i]
            pts *= eps
        else:
            # uniform in a cube whose typical pair distance is spread * eps: many
            # pairs near eps, and many points in one block within eps of each other
            pts = rng.random((n, d)) * (spread * eps * np.sqrt(6.0 / d))
        if duplicates:
            pts = np.vstack([pts, pts[rng.integers(0, n, n // 3)]])
        pts = pts[rng.permutation(len(pts))] + offset
        loop = _loop_reference(pts, eps)
        assert np.array_equal(_greedy_net_blocked(pts, eps), loop)
    if lattice:  # multiples of a dyadic eps are exact, also offset by 1e6
        assert len(loop) == len(np.unique(pts, axis=0))  # every lattice point, each once


def test_greedy_net_blocked_resolves_a_block_in_order():
    # points 0.6 eps apart on a line in d = 12, all in one block: each point
    # is within eps of its neighbours only, so the even ones are the centers;
    # the odd ones are covered, so they must not cover the next point
    eps = 0.5
    pts = np.zeros((101, 12))
    pts[:, 3] = np.arange(101) * 0.6 * eps
    pts += 1e4
    centers = _greedy_net_blocked(pts, eps)
    assert np.array_equal(centers, pts[::2])
    assert np.array_equal(centers, _loop_reference(pts, eps))


@pytest.mark.parametrize("tile", [geometry._TILE, 256])
@pytest.mark.parametrize("interleaved", [False, True])
def test_greedy_net_blocked_decides_pairs_within_the_band_by_direct_differences(tile, interleaved):
    # 60 pairs just inside eps at offset 1e6 in d = 12, 10 eps from each
    # other: a pair's Gram d2 is eps^2 give or take its rounding, above it for
    # about half of them, so only the direct test keeps the second point of
    # each pair out. Pairs apart, the second points come in later blocks than
    # the first under the small tile; interleaved, each pair shares a block.
    rng = np.random.default_rng(7)
    eps, d, m = 0.5, 12, 60
    first = 1e6 + np.outer(np.arange(m) * 10.0 * eps, np.ones(d) / np.sqrt(d))
    u = rng.standard_normal((m, d))
    second = first + u / np.linalg.norm(u, axis=1, keepdims=True) * eps * (1.0 - 1e-9)
    diff = second - first
    assert (np.einsum("ij,ij->i", diff, diff) < eps * eps).all()
    pts = np.stack([first, second], 1).reshape(-1, d) if interleaved else np.vstack([first, second])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_TILE", tile)
        centers = _greedy_net_blocked(pts, eps)
    assert np.array_equal(centers, first)
    assert np.array_equal(centers, _loop_reference(pts, eps))


@pytest.mark.parametrize("scale", [1e150, 1e154, 1e160])
def test_greedy_net_blocked_equals_loop_where_squared_norms_overflow(scale):
    # beyond about 1.3e154 |x|^2 overflows and the Gram d2 are inf or nan;
    # the direct differences, and so the centers, are still finite
    rng = np.random.default_rng(11)
    pts = scale + rng.random((300, 12)) * (scale * 1e-10)
    eps = scale * 1.2e-10
    loop = _loop_reference(pts, eps)
    assert 1 < len(loop) < len(pts)
    assert np.array_equal(_greedy_net_blocked(pts, eps), loop)


@pytest.mark.parametrize("d,kernel", [(8, "_greedy_net_tree"), (9, "_greedy_net_blocked")])
def test_greedy_net_dispatches_on_dimension(d, kernel):
    rng = np.random.default_rng(d)
    pts = rng.standard_normal((600, d))
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        real = getattr(geometry, kernel)
        mp.setattr(geometry, kernel, lambda *a: calls.append(a) or real(*a))
        centers = greedy_net(pts, 1.5).centers
    assert len(calls) == 1
    assert np.array_equal(centers, _loop_reference(pts, 1.5))


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
