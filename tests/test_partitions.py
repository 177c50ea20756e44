"""Partition families: exactness oracles, soundness properties, law checks."""

import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from padsmooth import partitions
from padsmooth.geometry import (
    EpsilonNet,
    _gram_lift,
    _greedy_net_blocked,
    _greedy_net_tree,
    _lift,
    _lifted,
    _search_radius,
    _sq_distances,
    _unit_rows,
    greedy_net,
)
from padsmooth.partitions import (
    CONTAINED,
    CUT,
    OFF_SUPPORT,
    BallCarvingPartition,
    CubePartition,
    _TILE,
    _Candidates,
    _ball_assign_dense,
    _ball_assign_tree,
    _second_nearest_gram,
    _tree_pairs,
    ball_assign,
    ball_cell_member,
    cells_of,
    certificate_margins,
    estimate_lipschitz_constant,
    estimate_paddedness,
    padding_certificate,
    partition_from_dict,
    resample_ball_carving,
    sample_ball_carving,
    sample_cube_partition,
    wilson_interval,
)
from padsmooth.rng import stream
from padsmooth.smoothing import _blockers


def _rand_ball(rng, n, d, radius):
    v = rng.standard_normal((n, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v * radius * rng.random((n, 1)) ** (1.0 / d)


# ---------------------------------------------------------------------------
# cube lattice


def test_cube_width_gives_cell_diameter_epsilon():
    part = sample_cube_partition(4, 2.0, stream(5, 0))
    assert part.width * math.sqrt(4) == pytest.approx(2.0)
    # opposite corners of one cell are exactly epsilon apart
    corner_gap = math.sqrt(4 * part.width**2)
    assert corner_gap == pytest.approx(part.epsilon)


def test_cube_cells_floor_convention():
    part = CubePartition(epsilon=math.sqrt(2.0), dim=2, shift=np.array([0.25, 0.5]))
    assert part.width == pytest.approx(1.0)
    pts = np.array([[0.25, 0.5], [1.2499999, 0.5], [1.25, 0.5], [-0.75, 0.4]])
    assert part.cells(pts).tolist() == [[0, 0], [0, 0], [1, 0], [-1, -1]]
    for x, want in zip(pts, part.cells(pts)):
        assert np.array_equal(part.cells(x[None]), want[None])  # one-row calls agree


def test_cube_margin_matches_hand_computation():
    part = CubePartition(epsilon=math.sqrt(2.0), dim=2, shift=np.zeros(2))
    pts = np.array([[0.3, 0.6], [0.95, 0.5]])
    # offsets u are the coordinates themselves; margin = min(u, 1-u) over axes
    expect = [min(0.3, 0.7, 0.6, 0.4), min(0.95, 0.05, 0.5, 0.5)]
    got, off = part.margins(pts)
    assert not off.any()
    assert got == pytest.approx(expect)


@settings(max_examples=200, deadline=None)
@given(
    dim=st.sampled_from([1, 4, 16]),
    eps_bits=st.tuples(st.integers(1, 64), st.integers(0, 10)),
    data=st.data(),
)
def test_cube_floor_cells_agree_with_mod_margins_at_faces(dim, eps_bits, data):
    # dyadic epsilon, shift and points, so every coordinate below is exact:
    # x_j = shift_j + (i_j + f_j) * width with f_j = 0 on a face
    width = eps_bits[0] * 2.0 ** -eps_bits[1] / math.sqrt(dim)
    ints = st.lists(st.integers(-1000, 1000), min_size=dim, max_size=dim)
    fracs = st.lists(st.integers(0, 1023), min_size=dim, max_size=dim)
    shift = np.array(data.draw(fracs)) / 1024.0 * width
    cell = np.array(data.draw(ints))
    face = np.array(data.draw(st.lists(st.booleans(), min_size=dim, max_size=dim)))
    f = np.where(face, 0, np.array(data.draw(fracs)) % 1023 + 1) / 1024.0
    part = CubePartition(epsilon=width * math.sqrt(dim), dim=dim, shift=shift)
    x = shift + (cell + f) * width
    margins, off = part.margins(x[None])
    # a point on a face is in the cell above it (floor convention) with
    # margin 0; off the faces, the margin is the nearest face's distance
    assert np.array_equal(part.cells(x[None])[0], cell)
    want = 0.0 if face.any() else float(np.minimum(f, 1.0 - f).min() * width)
    assert margins[0] == want and not off[0]
    assert padding_certificate(part, x, 0.0).status == CONTAINED
    if face.any():
        assert padding_certificate(part, x, 1e-300).status == CUT


def test_cube_certificate_exact_both_directions():
    rng = stream(5, 1)
    part = sample_cube_partition(3, 1.0, rng)
    X = rng.random((50, 3)) * 2.0
    margins, off = certificate_margins(part, X)
    assert not off.any()
    for i in range(len(X)):
        m = margins[i]
        cert = padding_certificate(part, X[i], m)
        assert cert.status == CONTAINED  # containment holds at the margin itself
        assert padding_certificate(part, X[i], m + 1e-9).status == CUT
        home = part.cells(X[i][None])
        # random perturbations strictly inside the certified radius stay home
        probes = X[i] + _rand_ball(rng, 200, 3, m * 0.999)
        assert (part.cells(probes) == home).all()
        # and pushing past the tightest face escapes
        u = (X[i] - part.shift) % part.width
        j = int(np.argmin(np.minimum(u, part.width - u)))
        step = -(u[j] + 1e-6) if u[j] <= part.width - u[j] else (part.width - u[j]) + 1e-6
        out = X[i].copy()
        out[j] += step
        assert not np.array_equal(part.cells(out[None]), home)


def test_cube_paddedness_matches_closed_form():
    # P[B_t(x) cut] = 1 - (1 - 2t/w)^d for 2t <= w, independent of x
    d, eps, frac = 2, 1.0, 0.1
    w = eps / math.sqrt(d)
    t = frac * w
    oracle = 1.0 - (1.0 - 2.0 * t / w) ** d
    est = estimate_paddedness(
        lambda r: sample_cube_partition(d, eps, r),
        lambda r: r.random(d) * 3.0,
        t,
        4000,
        stream(5, 2),
    )
    assert est.ci_low <= oracle <= est.ci_high
    assert est.value == pytest.approx(oracle, abs=0.03)


def test_cube_shift_is_uniform():
    draws = np.array([sample_cube_partition(2, 1.0, stream(5, 3, i)).shift for i in range(400)])
    w = 1.0 / math.sqrt(2)
    for axis in range(2):
        ks = stats.kstest(draws[:, axis] / w, "uniform")
        assert ks.pvalue > 1e-3


class _TopDraw:
    """A generator stand-in whose every uniform draw is the largest double below 1."""

    def random(self, n):
        return np.full(n, np.nextafter(1.0, 0.0))


@pytest.mark.parametrize("dim, epsilon", [(1, 1.0), (2, 0.3), (np.int64(7), 3), (20, 0.29), (5, 1e-300)])
def test_drawn_lattice_equals_the_validated_one(dim, epsilon):
    for rng in (stream(5, 5, int(dim)), _TopDraw()):
        part = sample_cube_partition(dim, epsilon, rng)
        built = CubePartition(epsilon=epsilon, dim=dim, shift=part.shift)  # validates the shift
        assert type(part.epsilon) is float and type(part.dim) is int and part.seed is None
        assert (part.epsilon, part.dim, part.width) == (built.epsilon, built.dim, built.width)
        assert part.shift.dtype == np.float64 and part.shift.tobytes() == built.shift.tobytes()
        assert ((0 <= part.shift) & (part.shift < part.width)).all()
        assert part.to_dict() == built.to_dict()


def test_cube_rejects_bad_construction():
    with pytest.raises(ValueError):
        sample_cube_partition(0, 1.0, stream(5, 4))
    with pytest.raises(ValueError):
        sample_cube_partition(2, -1.0, stream(5, 4))
    with pytest.raises(ValueError):
        CubePartition(epsilon=1.0, dim=2, shift=np.array([0.9, 0.0]))  # >= width


def test_cube_cells_reject_points_whose_cells_leave_int64():
    # floor((x - shift) / width) beyond int64 used to wrap to -2^63 with only
    # a RuntimeWarning, so far points shared a bogus cell key; every entry
    # that computes cells raises instead, at 1e19 and at the domain's edge
    part = CubePartition(epsilon=1.0, dim=2, shift=np.zeros(2))
    for far in (1e19, -1e19, 2.0**479, -(2.0**479)):
        with pytest.raises(ValueError, match="int64"):
            part.cells([[far, 0.0]])
        with pytest.raises(ValueError, match="int64"):
            cells_of(part, [[0.0, 0.0], [0.0, far]])
        with pytest.raises(ValueError, match="int64"):
            estimate_lipschitz_constant(lambda r: part, lambda r, dist: ([0.0, 0.0], [far, 0.0]), [1.0], 2,
                                        stream(5, 5), epsilon=1.0)
    # just inside the bound: the largest x with x / width below 2^63, and
    # -2^63 itself in one dimension, where the width is 1
    x = 2.0**63 * part.width
    while x / part.width >= 2.0**63:
        x = math.nextafter(x, 0.0)
    assert part.cells([[x, -x]]).tolist() == [[int(math.floor(x / part.width)), int(math.floor(-x / part.width))]]
    line = CubePartition(epsilon=1.0, dim=1, shift=np.zeros(1))
    edge = math.nextafter(2.0**63, 0.0)
    assert line.cells([[-(2.0**63)], [edge]]).ravel().tolist() == [-(2**63), int(edge)]
    cells, _, _ = CubePartition._assign_trials([line], np.array([[[-(2.0**63)], [edge]]]))
    assert cells.ravel().tolist() == [-(2**63), int(edge)]
    with pytest.raises(ValueError, match="int64"):
        line.cells([[2.0**63]])


def test_cube_and_carving_reject_nan_from_a_dict():
    # a NaN shift used to pass the range check, giving int64-min cells and
    # NaN margins; a NaN center gave NaN margins. JSON's NaN reaches both
    # through partition_from_dict
    with pytest.raises(ValueError, match="shift"):
        CubePartition(epsilon=1.0, dim=2, shift=np.array([np.nan, 0.1]))
    cube = '{"family": "cube", "epsilon": 1.0, "dim": 2, "shift": [NaN, 0.1], "seed": null}'
    with pytest.raises(ValueError, match="shift"):
        partition_from_dict(json.loads(cube))
    part, _ = _small_carving(19)
    payload = part.to_dict()
    payload["net"]["centers"][1][0] = float("nan")
    with pytest.raises(ValueError, match="2\\^480"):
        partition_from_dict(json.loads(json.dumps(payload)))


# ---------------------------------------------------------------------------
# ball carving


def _small_carving(seed, n_centers=25, d=2, eps=0.8):
    rng = stream(seed, 10)
    pts = rng.random((600, d)) * 2.0
    net = greedy_net(pts, eps / 4.0)
    part = sample_ball_carving(net, eps, rng)
    return part, rng


def brute_assign(part, x):
    """Reference implementation straight from the construction."""
    centers = part.net.centers
    for idx in part.order:
        if np.linalg.norm(x - centers[idx]) <= part.radius:
            return int(idx), False
    dists = np.linalg.norm(centers - x, axis=1)
    return int(np.argmin(dists)), True


def brute_margin(part, x):
    centers = part.net.centers
    cell, off = brute_assign(part, x)
    if off:
        return 0.0
    m = part.radius - np.linalg.norm(x - centers[cell])
    rank = int(np.where(part.order == cell)[0][0])
    for k in range(rank):
        w = centers[part.order[k]]
        m = min(m, np.linalg.norm(x - w) - part.radius)
    return float(m)


def test_ball_assign_matches_brute_force():
    part, rng = _small_carving(6)
    X = rng.random((300, 2)) * 2.4 - 0.2  # includes off-support fringe
    cells, off, margins = ball_assign(part, X)
    for i in range(len(X)):
        c, o = brute_assign(part, X[i])
        assert cells[i] == c
        assert off[i] == o
        assert margins[i] == pytest.approx(brute_margin(part, X[i]), abs=1e-12)
    for kernel in (ball_assign, _ball_assign_dense, _ball_assign_tree):  # an empty batch
        assert [a.dtype for a in kernel(part, X[:0])] == [np.int64, bool, np.float64]


def _kernel_case(d, n, seed, one_center, offset=0.0):
    """A carving of [0, 2)^d (or a one-center net) and n queries, a few of
    them far off support."""
    rng = np.random.default_rng(seed)
    eps = 0.8
    src = rng.random((300, d)) * 2.0 + offset
    if one_center:
        net = EpsilonNet(centers=src[:1], epsilon=eps / 4.0, source_count=1)
    else:
        net = greedy_net(src, eps / 4.0)
    part = sample_ball_carving(net, eps, rng)
    X = rng.random((n, d)) * 2.4 - 0.2 + offset
    far = rng.random(n) < 0.05
    X[far] += rng.standard_normal((int(far.sum()), d)) * 50.0
    return part, X


def _direct(part, X):
    """(off, margins, ambiguous) from direct differences, cdist style."""
    D = cdist(X, part.net.centers[part.order])
    R = part.radius
    inball = D <= R
    has = inball.any(axis=1)
    first = inball.argmax(axis=1)
    cols = np.arange(D.shape[1])
    earlier = np.where(cols[None, :] < first[:, None], D, np.inf).min(axis=1)
    margins = np.where(has, np.minimum(R - D[np.arange(len(X)), first], earlier - R), 0.0)
    ambiguous = (np.abs(D - R) <= 1e-9).any(axis=1)
    return ~has, margins, ambiguous


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(1, 8),
    n=st.sampled_from([1, 63, 64, 1000]),
    seed=st.integers(0, 2**32 - 1),
    one_center=st.booleans(),
)
def test_ball_tree_and_dense_kernels_agree(d, n, seed, one_center):
    # both kernels hand their candidates to one decider, so they agree bit
    # for bit on every point, and the dispatch returns their result
    part, X = _kernel_case(d, n, seed, one_center)
    dense = _ball_assign_dense(part, X)
    tree = _ball_assign_tree(part, X)
    _assert_same_bits(tree, dense)
    want_off, want, ambiguous = _direct(part, X)
    ok = ~ambiguous
    assert np.array_equal(tree[1][ok], want_off[ok])
    on = ok & ~tree[1]
    assert (tree[2][on] >= 0.0).all() and (tree[2][tree[1]] == 0.0).all()
    assert np.allclose(tree[2][on], want[on], rtol=0.0, atol=1e-12)
    _assert_same_bits(ball_assign(part, X), tree)


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(1, 4),
    n=st.sampled_from([1, 63, 64, 1000]),
    seed=st.integers(0, 2**32 - 1),
    one_center=st.booleans(),
    offset=st.sampled_from([0.0, 1e2, 1e4, 1e6]),
)
def test_ball_tree_margins_never_exceed_direct_margins(d, n, seed, one_center, offset):
    part, X = _kernel_case(d, n, seed, one_center, offset)
    _, off, margins = _ball_assign_tree(part, X)
    want_off, want, ambiguous = _direct(part, X)
    on = ~ambiguous & ~want_off
    assert np.array_equal(off[~ambiguous], want_off[~ambiguous])
    assert (margins[on] <= want[on]).all()


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8])
def test_ball_kernels_capture_points_at_exactly_r(d):
    # integer centers, R = 0.5 and queries half a unit off a center along an
    # axis: each query is exactly R from that center and from its neighbour
    # along the axis (when the grid has one), so both kernels, and the
    # production dispatch (dense from d = 5 on), must capture it (d <= R) by
    # the earlier of the two, with margin 0
    grid = np.stack(np.meshgrid(*[np.arange(4.0)] * d, indexing="ij"), axis=-1).reshape(-1, d)
    net = EpsilonNet(centers=grid, epsilon=0.25, source_count=len(grid))
    rng = np.random.default_rng(d)
    part = BallCarvingPartition(net=net, epsilon=1.0, radius=0.5, order=rng.permutation(len(grid)))
    base = grid[np.arange(64) % len(grid)].astype(np.int64)
    step = np.eye(d, dtype=np.int64)[rng.integers(0, d, 64)]
    X = base + 0.5 * step
    here = np.ravel_multi_index(tuple(base.T), (4,) * d)
    inside = (base + step < 4).all(axis=1)
    there = np.ravel_multi_index(tuple(np.minimum(base + step, 3).T), (4,) * d)
    here_first = ~inside | (part.ranks[here] < part.ranks[there])
    want = np.where(here_first, here, there)
    for cells, off, margins in (_ball_assign_tree(part, X), _ball_assign_dense(part, X), ball_assign(part, X)):
        assert not off.any()
        assert np.array_equal(cells, want)
        assert (margins == 0.0).all()


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_tree_pairs_equal_per_point_ball_queries(d):
    # _tree_pairs' contract: for a scalar radius and for one radius per point
    # (the lost-point query's nearest-neighbour radii, with one point 100x
    # farther off than the rest, and radii spread within a factor 2, which
    # share a band), the pairs of net.tree.query_ball_point at each point's
    # own radius, grouped by point as _decide takes them
    rng = np.random.default_rng(40 + d)
    net = greedy_net(rng.random((400, d)), 0.1)
    X = rng.random((300, d)) * 1.4 - 0.2
    X[7] = 100.0  # about 100x as far from the net as any other point
    near = net.tree.query(X)[0]
    assert near[7] > 50.0 * np.delete(near, 7).max()
    queries = []

    class Spy(cKDTree):
        def sparse_distance_matrix(self, other, max_distance, **kw):
            queries.append((self.data.copy(), max_distance))
            return super().sparse_distance_matrix(other, max_distance, **kw)

    index = {x.tobytes(): i for i, x in enumerate(X)}
    for r in (0.15, _search_radius(near, X, net.centers), 0.15 * rng.uniform(1.0, 1.9, len(X))):
        queries.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(partitions, "cKDTree", Spy)
            row, starts, dist, cand = _tree_pairs(net, X, r)
        radius = np.broadcast_to(r, len(X))
        for data, top in queries:  # each query's radius is within a factor 2 of its points' own
            assert top < 2.0 * radius[[index[x.tobytes()] for x in data]].min()
        want = [(i, j) for i in range(len(X)) for j in net.tree.query_ball_point(X[i], radius[i])]
        assert len(row) == len(want) and set(zip(row.tolist(), cand.tolist())) == set(want)
        assert (np.diff(row) >= 0).all()  # one contiguous run per point
        assert np.array_equal(starts, np.flatnonzero(np.diff(row, prepend=-1)))
        assert np.array_equal(dist, partitions._direct_distances(X[row], net.centers[cand]))
        assert (dist <= radius[row] * (1.0 + 1e-12)).all()  # no pair beyond its own radius


def _direct_reference(part, X, rows=64):
    """ball_assign written out plainly over the full matrix of direct-
    difference distances, rows points at a time: capture by d <= R in
    carving order, the margin max(min(R - du, before - R) - slack, 0) with
    before a prefix minimum, and off support the first index of least
    distance in carving order."""
    C = part.net.centers[part.order]
    R = part.radius
    slack = 2.0 * (part.dim + 4) * R * np.finfo(np.float64).eps
    cells, off, margins = [], [], []
    for i in range(0, len(X), rows):
        blk = X[i : i + rows]
        diff = (blk[:, None, :] - C[None, :, :]).reshape(-1, X.shape[1])
        D = np.sqrt(np.einsum("ij,ij->i", diff, diff)).reshape(len(blk), len(C))
        inball = D <= R
        has = inball.any(axis=1)
        first = np.argmax(inball, axis=1)
        at = np.arange(len(blk))
        prefix = np.minimum.accumulate(D, axis=1)
        before = np.where(first > 0, prefix[at, np.maximum(first - 1, 0)], np.inf)
        m = np.maximum(np.minimum(R - D[at, first], before - R) - slack, 0.0)
        cells.append(part.order[np.where(has, first, np.argmin(D, axis=1))])
        off.append(~has)
        margins.append(np.where(has, m, 0.0))
    return np.concatenate(cells), np.concatenate(off), np.concatenate(margins)


def _assert_same_bits(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


def _dense_filter(part, X):
    """The Gram d2 and bands the dense kernel filters X with, columns in
    carving order."""
    net, R = part.net, part.radius
    rows, band, cols = _gram_lift(X, net.centers[0], R * R, net.lifted, net.lifted32)
    return rows @ cols[:, part.order], band


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(1, 21),
    count=st.sampled_from([1, 1500, 1700]),
    size=st.sampled_from(["1", "2", "tile-1", "tile", "tile+1", "4097", "5000"]),
    offset=st.sampled_from([0.0, 1e2, 1e4]),
    seed=st.integers(0, 2**32 - 1),
)
# a one-row last tile
@example(d=20, count=1500, size="tile+1", offset=0.0, seed=1)
@example(d=4, count=1500, size="tile+1", offset=1e2, seed=0)
@example(d=7, count=1700, size="tile+1", offset=1e4, seed=2)
def test_ball_dense_kernel_matches_direct_reference_bits(d, count, size, offset, seed):
    # random nets of >= 1500 centers make tiles (_TILE // count rows) of a
    # few rows; queries sit within about R of a center, a few of them
    # pushed off support
    rng = np.random.default_rng(seed)
    R = 0.25 + (1.0 - rng.random()) * 0.25
    spread = 2.0 * R * count ** (1.0 / d)
    centers = rng.random((count, d)) * spread + offset
    net = EpsilonNet(centers=centers, epsilon=0.25, source_count=count)
    part = BallCarvingPartition(net=net, epsilon=1.0, radius=R, order=rng.permutation(count))
    tile = max(1, _TILE // count)
    n = {"1": 1, "2": 2, "tile-1": max(tile - 1, 1), "tile": tile, "tile+1": tile + 1,
         "4097": 4097, "5000": 5000}[size]
    X = centers[rng.integers(0, count, n)] + rng.standard_normal((n, d)) * (R / math.sqrt(d))
    X[rng.random(n) < 0.1] += 3.0
    _assert_same_bits(_ball_assign_dense(part, X), _direct_reference(part, X))


def _axis_ulp_queries(R, d, center):
    """Points R +- k ulps (k <= 8) from center along each axis, both ways."""
    radii = [R]
    for _ in range(8):
        radii = [math.nextafter(radii[0], 0.0)] + radii + [math.nextafter(radii[-1], math.inf)]
    steps = np.asarray(radii)[:, None, None] * np.concatenate([np.eye(d), -np.eye(d)])[None]
    return center + steps.reshape(-1, d)


@pytest.mark.parametrize("d", [1, 6])
@pytest.mark.parametrize("offset", [0.0, 3.0, 1e2, 1e4])
def test_ball_dense_kernel_matches_reference_at_radius_ulps(d, offset):
    # queries R +- k ulps from a center, and (at the origin) points whose
    # squared distance steps through every double from R*R - 8 ulps to
    # R*R + 8 ulps: every one lies within the Gram band of R, so the
    # direct test decides each capture
    R = 0.3517
    S = R * R
    rng = np.random.default_rng(d)
    centers = np.zeros((3, d))
    centers[1:] = rng.standard_normal((2, d)) * 4.0 * R
    centers += offset
    net = EpsilonNet(centers=centers, epsilon=R / 2.0, source_count=3)
    queries = [_axis_ulp_queries(R, d, centers[0])]
    if d > 1:
        # (a, b, 0, ...) with a^2 near S and b^2 filling the gap up to j ulps
        ulp = math.ulp(S)
        a = [R, math.nextafter(R, 0.0)]
        gaps = [j * ulp + (S - aa * aa) for aa in a for j in range(-8, 9)]
        pts = np.zeros((len(gaps), d))
        pts[:, 0] = np.repeat(a, 17)
        pts[:, 1] = np.sqrt(np.maximum(gaps, 0.0))
        queries.append(pts + offset)
    X = np.concatenate(queries)
    for order in (np.arange(3), np.array([1, 0, 2]), np.array([2, 1, 0])):
        part = BallCarvingPartition(net=net, epsilon=2.0 * R, radius=R, order=order)
        want = _direct_reference(part, X)
        _assert_same_bits(_ball_assign_dense(part, X), want)
        for i in range(len(X)):  # one-point calls
            _assert_same_bits(_ball_assign_dense(part, X[i : i + 1]), [a[i : i + 1] for a in want])
    if offset == 0.0 and d == 1:
        # sqrt(fl(x * x)) == |x|: the center at 0 captures x exactly when |x| <= R
        alone = EpsilonNet(centers=centers[:1], epsilon=R / 2.0, source_count=1)
        part = BallCarvingPartition(net=alone, epsilon=2.0 * R, radius=R, order=np.arange(1))
        assert np.array_equal(~_ball_assign_dense(part, X)[1], np.abs(X[:, 0]) <= R)


def test_ball_dense_kernel_redecides_a_gram_capture_the_direct_test_rejects():
    # a query 1e-9 beyond R of the first center in carving order has a Gram
    # squared distance within the band of R^2, so that center is the row's
    # first Gram capture F, and the direct test rejects it. The row then
    # keeps its columns after F, and the second center captures it.
    d, R = 3, 0.25
    first = np.full(d, 1e4)
    x = first + np.array([R + 1e-9, 0.0, 0.0])
    second = x + np.array([0.0, 0.1, 0.0])
    net = EpsilonNet(centers=np.stack([first, second]), epsilon=R / 2.0, source_count=2)
    part = BallCarvingPartition(net=net, epsilon=2.0 * R, radius=R, order=np.arange(2))
    X = np.stack([x, x])  # two rows: the Gram path
    d2, band = _dense_filter(part, X)
    assert d2[0, 0] <= R * R + band[0]
    assert np.linalg.norm(x - first) > R
    cells, off, margins = _ball_assign_dense(part, X)
    assert cells.tolist() == [1, 1] and not off.any() and (margins > 0.0).all()
    _assert_same_bits((cells, off, margins), _direct_reference(part, X))


def _prefix_case():
    """A carving of six centers near 1e4 in d=3, R = 0.25, columns in index
    order, and five queries: two captured at column 0, one captured at the
    last column with its nearest earlier center at the one before, one off
    support nearest the last column, and one an ulp (about 2e-12) beyond R
    of center 1, within the band of the float64 filter these queries take,
    which its Gram distance captures and the direct test rejects (center 2
    captures it)."""
    R = 0.25
    base = np.full(3, 1e4)
    redo = base + [10.0 + R, 0.0, 0.0]
    redo[0] = math.nextafter(redo[0], math.inf)
    centers = np.stack([base, base + [10.0, 0.0, 0.0], redo + [0.0, 0.1, 0.0], base + [20.0, 0.0, 0.0],
                        base + [30.0, 0.0, 0.0], base + [30.0, 0.3, 0.0]])
    net = EpsilonNet(centers=centers, epsilon=R / 2.0, source_count=6)
    part = BallCarvingPartition(net=net, epsilon=2.0 * R, radius=R, order=np.arange(6))
    X = np.stack([base + [0.1, 0.0, 0.0], base + [0.0, 0.1, 0.1], centers[5] + [0.0, 0.05, 0.0],
                  centers[5] + [5.0, 0.0, 0.0], redo])
    return part, X


def test_ball_dense_kernel_compares_captured_rows_up_to_their_capture():
    # one tile in which the rows' first Gram captures F are 0, 0, 5 (the
    # last column) and 1 (rejected by the direct test), and an off-support
    # row whose nearest center is the last column: the tile's compare must
    # reach the largest F, and every column for an off-support row, also
    # when the other rows are all captured at column 0
    part, X = _prefix_case()
    R = part.radius
    want = _direct_reference(part, X)
    assert want[0].tolist() == [0, 0, 5, 5, 2] and want[1].tolist() == [False, False, False, True, False]
    d2, band = _dense_filter(part, X)
    assert d2[4, 1] <= R * R + band[4] and np.linalg.norm(X[4] - part.net.centers[1]) > R
    for keep in ([0, 1, 2, 3, 4], [0, 1, 3]):
        _assert_same_bits(_ball_assign_dense(part, X[keep]), _direct_reference(part, X[keep]))


def test_batched_trial_kernel_keeps_a_capture_at_the_last_column():
    # trial 0 in index order: two rows captured at column 0 and one off
    # support nearest the last column; trial 1 carves center 0 last, so it
    # captures two rows at its last column
    part, X = _prefix_case()
    late = BallCarvingPartition(net=part.net, epsilon=part.epsilon, radius=part.radius, order=np.roll(np.arange(6), -1))
    pts = np.stack([X[[0, 3, 1]], X[[0, 1, 2]]])
    for parts, block in (([part, late], pts), ([part], pts[:1])):
        cells, off, margins = parts[0]._assign_trials(parts, block)
        for q, x, c, o, m in zip(parts, block, cells, off, margins):
            _assert_same_bits((c, o, m), _direct_reference(q, x))
    assert late.cells(X[:2]).tolist() == [0, 0]


@pytest.mark.parametrize("offset", [1.0, 1e10])
def test_ball_kernels_decide_rows_whose_squared_norms_overflow(offset):
    # a d=12 net of 400 points at spacing 1.2 s, s = 1e150, either offset
    # by +-1e160 in turn or with every third query moved out by 1e160,
    # would square beyond float64 about the net's first center: the net, or
    # the carving's margins of those queries, reject them. At the edge of
    # the domain (s = 1e-10 2^479, moves of 2^479) every band about the
    # first center is finite, for the other cluster's points as for the
    # moved queries, so the float64 filter takes the batch and both kernels
    # give the reference's bits, with captured rows among them.
    rng = np.random.default_rng(41)
    d, trials, p = 12, 3, 50
    sign = (-1.0) ** np.arange(400)[:, None] if offset > 1.0 else 1.0
    with pytest.raises(ValueError, match="2\\^480"):
        greedy_net((rng.standard_normal((400, d)) + sign * offset) * 1e150, 1.2e150)
    s = 2.0**479 * 1e-10
    src = (rng.standard_normal((400, d)) + sign * offset) * s
    net = greedy_net(src, 1.2 * s)
    parts = [sample_ball_carving(net, 4.8 * s, rng) for _ in range(trials)]
    pts = src[rng.integers(0, 400, (trials, p))] + rng.standard_normal((trials, p, d)) * (0.1 * s)
    if offset == 1.0:
        with pytest.raises(ValueError, match="2\\^480"):
            parts[0].margins(pts[0] + 1e160)
        pts[:, ::3] += 2.0**479
    assert np.isfinite(_lift(pts.reshape(-1, d), net.centers[0], net.lifted)[1]).all()
    cells, off, margins = parts[0]._assign_trials(parts, pts)
    captured = 0
    for q, x, c, o, m in zip(parts, pts, cells, off, margins):
        want = _direct_reference(q, x)
        _assert_same_bits(_ball_assign_dense(q, x), want)
        _assert_same_bits((c, o, m), want)
        captured += int(np.count_nonzero(~want[1]))
    assert captured > 0


@pytest.mark.parametrize("order", [[0, 1, 2], [2, 0, 1], [1, 2, 0]])
def test_ball_assign_in_low_dimension_where_the_tree_would_overflow(order):
    # centers at (+-1e160, 0) would overflow the KD-tree's squared distances
    # (cKDTree raises ValueError): the net rejects them. At (+-2^479, 0), the
    # edge of the domain, a batch of 64 points or more takes the tree, with
    # the bits of the dense kernel, of a 10-point call and of the reference
    with pytest.raises(ValueError, match="2\\^480"):
        EpsilonNet(centers=np.array([[1e160, 0.0], [-1e160, 0.0], [0.0, 0.0]]), epsilon=0.25, source_count=3)
    centers = np.array([[2.0**479, 0.0], [-(2.0**479), 0.0], [0.0, 0.0]])
    net = EpsilonNet(centers=centers, epsilon=0.25, source_count=3)
    part = BallCarvingPartition(net=net, epsilon=1.0, radius=0.5, order=np.array(order))
    X = np.random.default_rng(5).uniform(-1.0, 1.0, (100, 2))
    want = _direct_reference(part, X)
    assert 0 < np.count_nonzero(want[1]) < len(X)
    _assert_same_bits(ball_assign(part, X), want)
    _assert_same_bits(_ball_assign_tree(part, X), want)
    _assert_same_bits(_ball_assign_dense(part, X), want)
    _assert_same_bits(ball_assign(part, X[:10]), tuple(a[:10] for a in want))


@pytest.mark.parametrize("d", [2, 3, 20, 300])
def test_every_kernel_at_the_edge_of_the_coordinate_domain(d):
    # two clusters at opposite corners +-2^479 (the domain is |x_i| < 2^480),
    # 1e-10 of that wide, and queries near them, at the origin and on the
    # far corner: spreads, squared norms and nearest-center distances are
    # then near their largest. Both net builders agree, the tree, dense and
    # trial kernels and a one-point call give the reference's bits, the
    # game's pool carver its cells, and scheme B's blockers hold every
    # earlier center within 2R, all with warnings as errors
    rng = np.random.default_rng(d)
    s = 2.0**479
    w = s * 1e-10
    src = (-1.0) ** np.arange(200)[:, None] * s + rng.standard_normal((200, d)) * w
    e = w * math.sqrt(2.0 * d)  # about the distance between two points of a cluster
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tree = _greedy_net_tree(src, e)
        assert 2 < len(tree) < len(src)
        assert np.array_equal(_greedy_net_blocked(src, e), tree)
        net = EpsilonNet(centers=tree, epsilon=e, source_count=len(src))
        parts = [sample_ball_carving(net, 4.0 * e, rng) for _ in range(2)]
        X = np.vstack([src[rng.integers(0, 200, 60)] + rng.standard_normal((60, d)) * w,
                       np.zeros((1, d)), np.full((1, d), -s), np.full((1, d), math.nextafter(2.0**480, 0.0))])
        trials = parts[0]._assign_trials(parts, np.stack([X, X]))
        for i, part in enumerate(parts):
            want = _direct_reference(part, X)
            assert 0 < np.count_nonzero(want[1]) < len(X)
            _assert_same_bits(_ball_assign_tree(part, X), want)
            _assert_same_bits(_ball_assign_dense(part, X), want)
            _assert_same_bits(_ball_assign_dense(part, X[-1:]), tuple(a[-1:] for a in want))
            _assert_same_bits(tuple(a[i] for a in trials), want)
            assert np.array_equal(_Candidates(net, X, 2.0 * e, 1).cells(part), want[0])
            cells = np.arange(len(net))
            within = np.linalg.norm(net.centers[:, None] - net.centers[None], axis=2) <= 2.0 * part.radius
            for u, near in zip(cells, _blockers(part, cells)):
                earlier = within[u] & (part.ranks < part.ranks[u])
                assert set(earlier.nonzero()[0]) <= set(near.tolist())
                assert (part.ranks[near] < part.ranks[u]).all()


def _equal_root_centers(d):
    """Two centers whose squared direct distances from the origin differ by
    one ulp, the second's larger, but share a root."""
    for L in np.linspace(2.0, 3.0, 500):
        a = np.zeros(d)
        a[0] = L
        b = a.copy()
        b[1] = math.sqrt(math.ulp(float(L * L)))
        sq = np.einsum("ij,ij->i", np.stack([a, b]), np.stack([a, b]))
        if sq[1] > sq[0] and np.sqrt(sq[1]) == np.sqrt(sq[0]):
            return a, b
    pytest.fail("no pair of centers with equal roots found")


@pytest.mark.parametrize("d", [2, 6])
def test_ball_dense_off_support_nearest_keeps_first_index_on_equal_roots(d):
    # a query at the origin and two centers at equal direct distances: the
    # nearest center is the one earlier in carving order, whichever has the
    # larger squared distance, on the Gram path (two rows), the one-point
    # path and the tree kernel
    a, b = _equal_root_centers(d)
    net = EpsilonNet(centers=np.stack([a, b]), epsilon=0.25, source_count=2)
    for order in ([1, 0], [0, 1]):
        part = BallCarvingPartition(net=net, epsilon=1.0, radius=0.5, order=np.array(order))
        for X in (np.zeros((1, d)), np.zeros((2, d))):
            for cells, off, margins in (_ball_assign_dense(part, X), _ball_assign_tree(part, X)):
                assert off.all() and not margins.any()
                assert (cells == order[0]).all()
            _assert_same_bits(_ball_assign_dense(part, X), _direct_reference(part, X))


def _exact_sq(x, c):
    """|x - c|^2 of two float rows in exact rational arithmetic."""
    return sum((Fraction(float(u)) - Fraction(float(v))) ** 2 for u, v in zip(x, c))


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(1, 50),
    offset=st.sampled_from([0.0, 1e2, 1e4, 1e6]),
    wide=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=50, offset=1e6, wide=False, seed=0)
@example(d=50, offset=1e6, wide=True, seed=0)
def test_gram_tiles_lie_within_half_the_band_of_exact_squares(d, offset, wide, seed):
    # every d2 that `_gram_decide` filters, from the dense kernel's 2-row
    # tiles and from the batched trials, and every d2 of `_sq_distances`
    # lies within band / 2 of the exact square of x - c: the band covers
    # the product's rounding twice over. Every other center moved 1e4 R
    # out (wide) makes the float32 band too wide, so the kernels filter in
    # float64.
    rng = np.random.default_rng(seed)
    count, n = 12, 5
    centers = rng.standard_normal((count, d)) + offset
    if wide:
        centers[1::2, 0] += 1e4 * 0.5
    net = EpsilonNet(centers=centers, epsilon=0.25, source_count=count)
    parts = [BallCarvingPartition(net=net, epsilon=1.0, radius=0.5, order=rng.permutation(count))
             for _ in range(n)]
    X = centers[rng.integers(0, count, n)] + rng.standard_normal((n, d)) * 0.3
    decide = partitions._gram_decide
    seen = []

    def spy(tiles, R, band, d, distances):
        tiles = [(j, d2.copy()) for j, d2 in tiles]  # the dense kernel reuses one buffer
        seen.append((tiles, band))
        return decide(tiles, R, band, d, distances)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(partitions, "_gram_decide", spy)
        mp.setattr(partitions, "_TILE", 2 * count)
        _ball_assign_dense(parts[0], X)
        parts[0]._assign_trials(parts, X[:, None, :])
    (dense, dense_band), (trials, trials_band) = seen
    assert [j for j, _ in dense] == [0, 2, 4] and len(trials) == 1
    assert {d2.dtype for _, d2 in dense + trials} == {np.dtype(np.float64 if wide else np.float32)}
    assert _lifted(centers - centers[0]).tobytes() == net.lifted.tobytes()
    for tiles, band, order_of in ((dense, dense_band, lambda i: parts[0].order),
                                  (trials, trials_band, lambda i: parts[i].order),
                                  ([(0, _sq_distances(X - centers[0], net.lifted))],
                                   _lift(X, centers[0], net.lifted)[1], lambda i: np.arange(count))):
        for j, d2 in tiles:
            for i, row in enumerate(d2, start=j):
                half = Fraction(float(band[i])) / 2
                for v, c in zip(row, centers[order_of(i)]):
                    assert abs(Fraction(float(v)) - _exact_sq(X[i], c)) <= half


def _spy_gram_decide(mp):
    """Patch `_gram_decide` to record, per call, the dtypes of its tiles and
    the rows of the candidate pairs whose direct distances it asks for."""
    decide = partitions._gram_decide
    calls = []

    def spy(tiles, R, band, d, distances):
        dtypes, rows = set(), []

        def seen_tiles():
            for j, d2 in tiles:
                dtypes.add(d2.dtype)
                yield j, d2

        def seen_distances(row, col):
            rows.append(row.copy())
            return distances(row, col)

        calls.append((dtypes, rows))
        return decide(seen_tiles(), R, band, d, seen_distances)

    mp.setattr(partitions, "_gram_decide", spy)
    return calls


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(1, 50),
    offset=st.sampled_from([0.0, 1e2, 1e4, 1e6]),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=50, offset=1e6, seed=0)
def test_gram_tiles_are_float32_on_the_band_test_inputs(d, offset, seed):
    # the inputs of the band test above: centered at the net's first center
    # the data spread over a few units whatever its offset, so the float32
    # band stays below R^2 / 16 and both kernels filter in float32
    rng = np.random.default_rng(seed)
    count, n = 12, 5
    centers = rng.standard_normal((count, d)) + offset
    net = EpsilonNet(centers=centers, epsilon=0.25, source_count=count)
    parts = [BallCarvingPartition(net=net, epsilon=1.0, radius=0.5, order=rng.permutation(count))
             for _ in range(n)]
    X = centers[rng.integers(0, count, n)] + rng.standard_normal((n, d)) * 0.3
    with pytest.MonkeyPatch.context() as mp:
        calls = _spy_gram_decide(mp)
        _ball_assign_dense(parts[0], X)
        parts[0]._assign_trials(parts, X[:, None, :])
    assert [dtypes for dtypes, _ in calls] == [{np.dtype(np.float32)}] * 2


def _filtered_in_float64(parts, pts):
    """Both kernels on a block of trials: each filters in float64, in one
    `_gram_decide` call (no point goes alone), with the reference's bits."""
    with pytest.MonkeyPatch.context() as mp:
        calls = _spy_gram_decide(mp)
        batched = parts[0]._assign_trials(parts, pts)
        dense = [_ball_assign_dense(q, x) for q, x in zip(parts, pts)]
    assert [dtypes for dtypes, _ in calls] == [{np.dtype(np.float64)}] * (1 + len(parts))
    captured = 0
    for i, (q, x) in enumerate(zip(parts, pts)):
        want = _direct_reference(q, x)
        _assert_same_bits(dense[i], want)
        _assert_same_bits(tuple(a[i] for a in batched), want)
        captured += int(np.count_nonzero(~want[1]))
    assert 0 < captured < pts.shape[0] * pts.shape[1]


def test_a_net_wide_against_its_radius_takes_the_float64_filter():
    # two clusters of centers 1e5 R apart in d=3: the float32 band,
    # (d + 8) 2^-23 (|x - o| + max |c - o|)^2, is then far above R^2 / 16,
    # so the kernels filter in float64 (whose band is 2^29 times narrower)
    rng = np.random.default_rng(23)
    d, R, trials, p = 3, 0.3, 3, 40
    near = rng.random((150, d)) * 8.0 * R
    centers = np.vstack([near, near + 1e5 * R])
    net = EpsilonNet(centers=centers, epsilon=R / 2.0, source_count=len(centers))
    parts = [BallCarvingPartition(net=net, epsilon=2.0 * R, radius=R, order=rng.permutation(len(centers)))
             for _ in range(trials)]
    pts = centers[rng.integers(0, len(centers), (trials, p))] + rng.standard_normal((trials, p, d)) * R
    assert not (_lift(pts.reshape(-1, d), centers[0], net.lifted32)[1] < R * R / 16.0).all()
    _filtered_in_float64(parts, pts)


def test_a_wide_net_far_from_the_origin_takes_the_float64_filter():
    # the clusters above, 1e4 R apart: offset by 1e160 (R = 3e147) the net
    # rejects them, as every squared norm about the origin would overflow.
    # Offset by 2^479 (R = 3e-13 2^479), the float64 band about the origin
    # is above R^2, where a filter proposes every pair, but about the net's
    # first center it is narrow, so the batch filters in float64 in one
    # call, and no point goes alone
    rng = np.random.default_rng(23)
    d, trials, p = 3, 3, 40

    def clusters(R, offset):
        near = rng.random((150, d)) * 8.0 * R
        return np.vstack([near, near + 1e4 * R]) + offset

    with pytest.raises(ValueError, match="2\\^480"):
        EpsilonNet(centers=clusters(3e147, 1e160), epsilon=1.5e147, source_count=300)
    R = 2.0**479 * 3e-13
    centers = clusters(R, 2.0**479)
    net = EpsilonNet(centers=centers, epsilon=R / 2.0, source_count=len(centers))
    parts = [BallCarvingPartition(net=net, epsilon=2.0 * R, radius=R, order=rng.permutation(len(centers)))
             for _ in range(trials)]
    pts = centers[rng.integers(0, len(centers), (trials, p))] + rng.standard_normal((trials, p, d)) * R
    assert (_lift(pts.reshape(-1, d), 0.0, _lifted(centers))[1] > R * R).all()
    _filtered_in_float64(parts, pts)


def test_ball_kernels_filter_rows_whose_centered_squared_norms_overflow_float32_in_float64():
    # a d=4 net of spread 1e18 and R = 1e18, whose float32 columns are
    # finite, and queries of which every third is moved 3e19 out: their
    # squared norms about the net's first center overflow float32 (and
    # would leave sums of the float32 product infinite) but not float64, so
    # the batch filters in float64 and no point goes alone; casting those
    # rows to float32 would raise a RuntimeWarning
    rng = np.random.default_rng(29)
    d, R, trials, p = 4, 1e18, 3, 30
    centers = rng.standard_normal((200, d)) * R
    net = EpsilonNet(centers=centers, epsilon=R / 2.0, source_count=len(centers))
    parts = [BallCarvingPartition(net=net, epsilon=2.0 * R, radius=R, order=rng.permutation(len(centers)))
             for _ in range(trials)]
    pts = centers[rng.integers(0, len(centers), (trials, p))] + rng.standard_normal((trials, p, d)) * (0.2 * R)
    pts[:, ::3, 0] += 3e19
    X = pts.reshape(-1, d)
    Y = X - centers[0]
    assert np.isfinite(net.lifted32).all()
    assert (np.einsum("ij,ij->i", Y, Y) > np.finfo(np.float32).max).any()
    assert np.isfinite(_lift(X, centers[0], net.lifted)[1]).all()
    _filtered_in_float64(parts, pts)


@pytest.mark.parametrize("offset", [1e4, 1e6])
def test_gram_filter_proposes_few_centers_per_off_support_row_far_from_the_origin(offset):
    # 1200 centers and 512 queries on the unit sphere in d=20, moved by
    # offset: nearly every query is off support. Centered at the net's first
    # center, the float32 band is that of data at the origin, so the filter
    # asks for the direct distances of at most 3 centers per such row; about
    # the origin the band would grow with offset^2
    rng = np.random.default_rng(16)
    d, count, n = 20, 1200, 512

    def sphere(k):
        v = rng.standard_normal((k, d))
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    net = EpsilonNet(centers=sphere(count) + offset, epsilon=0.2, source_count=count)
    parts = [BallCarvingPartition(net=net, epsilon=0.8, radius=0.4, order=rng.permutation(count))
             for _ in range(2)]
    X = sphere(n) + offset
    with pytest.MonkeyPatch.context() as mp:
        calls = _spy_gram_decide(mp)
        dense = _ball_assign_dense(parts[0], X)
        batched = parts[0]._assign_trials(parts, np.stack([X, X]))
    for (dtypes, rows), off in zip(calls, (dense[1], batched[1].reshape(-1))):
        assert dtypes == {np.dtype(np.float32)}
        assert off.mean() > 0.9
        assert np.bincount(np.concatenate(rows), minlength=len(off))[off].max() <= 3
    _assert_same_bits(dense, _direct_reference(parts[0], X))


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(1, 20),
    offset=st.sampled_from([0.0, 1e2, 1e4, 1e6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_ball_margins_are_sound_in_exact_arithmetic(d, offset, seed):
    # every carving path: a margin m > 0 with assigned center u certifies
    # |x - u| <= R - m and |x - w| >= R + m for every w earlier in carving
    # order, compared as squares of exact rationals, so no root is taken
    rng = np.random.default_rng(seed)
    count, trials, p = 30, 4, 3
    R = 0.25 + (1.0 - rng.random()) * 0.25
    centers = rng.random((count, d)) * 2.0 * R * count ** (1.0 / d) + offset
    net = EpsilonNet(centers=centers, epsilon=0.25, source_count=count)
    parts = [BallCarvingPartition(net=net, epsilon=1.0, radius=0.25 + (1.0 - rng.random()) * 0.25,
                                  order=rng.permutation(count)) for _ in range(trials)]
    pts = centers[rng.integers(0, count, (trials, p))] + rng.standard_normal((trials, p, d)) * (R / (2 * math.sqrt(d)))
    batched = parts[0]._assign_trials(parts, pts)
    outputs = []
    for i, (part, X) in enumerate(zip(parts, pts)):
        outputs.append((part, X, _ball_assign_dense(part, X)))
        outputs.append((part, X, _ball_assign_tree(part, X)))
        outputs.append((part, X, tuple(a[i] for a in batched)))
        certs = [padding_certificate(part, x, 0.0) for x in X]
        outputs.append((part, X, (part.cells(X), np.array([c.status == OFF_SUPPORT for c in certs]),
                                  np.array([c.margin for c in certs]))))
    checked = 0
    for part, X, (cells, off, margins) in outputs:
        R = Fraction(part.radius)
        for x, u, o, m in zip(X, cells, off, margins):
            if o or m <= 0.0:
                continue
            m = Fraction(float(m))
            assert _exact_sq(x, part.net.centers[u]) <= (R - m) ** 2
            for w in part.order[: part.ranks[u]]:
                assert _exact_sq(x, part.net.centers[w]) >= (R + m) ** 2
            checked += 1
    assert checked > 0


def test_ball_carvings_share_the_net_tree():
    part, rng = _small_carving(5)
    assert resample_ball_carving(part, rng).net.tree is part.net.tree


def test_ball_certificate_sound_under_perturbation():
    part, rng = _small_carving(7)
    X = rng.random((80, 2)) * 2.0
    cells, off, margins = ball_assign(part, X)
    keep = (~off) & (margins > 1e-3)
    idx = np.flatnonzero(keep)[:30]
    for i in idx:
        probes = X[i] + _rand_ball(rng, 300, 2, margins[i])
        pc, poff, _ = ball_assign(part, probes)
        assert not poff.any()
        assert (pc == cells[i]).all()


def test_ball_cells_have_bounded_diameter():
    part, rng = _small_carving(8)
    X = rng.random((2000, 2)) * 2.0
    cells, off, _ = ball_assign(part, X)
    for c in np.unique(cells[~off]):
        member = X[(cells == c) & (~off)]
        if len(member) < 2:
            continue
        spread = np.linalg.norm(member[:, None, :] - member[None, :, :], axis=-1).max()
        assert spread <= 2 * part.radius + 1e-12
        assert spread <= part.epsilon + 1e-12
        # members sit inside the carved ball
        assert (np.linalg.norm(member - part.net.centers[c], axis=1) <= part.radius + 1e-12).all()


def test_ball_off_support_fallback():
    part, _ = _small_carving(9)
    far = np.array([50.0, 50.0])
    cert = padding_certificate(part, far, 0.01)
    assert cert.status == OFF_SUPPORT
    assert cert.margin == 0.0
    cells, off, _ = ball_assign(part, far[None, :])
    assert off[0]
    nearest = int(np.argmin(np.linalg.norm(part.net.centers - far, axis=1)))
    assert cells[0] == nearest
    assert not ball_cell_member(part, cells[0], far[None, :])[0]


def test_ball_radius_law_and_resample():
    eps = 0.8
    part, _ = _small_carving(11, eps=eps)
    radii, orders = [], []
    for i in range(400):
        p = resample_ball_carving(part, stream(11, 20, i))
        assert p.net is part.net
        radii.append(p.radius)
        orders.append(tuple(p.order.tolist()))
    radii = np.asarray(radii)
    assert (radii > eps / 4.0).all() and (radii <= eps / 2.0).all()
    ks = stats.kstest((radii - eps / 4.0) / (eps / 4.0), "uniform")
    assert ks.pvalue > 1e-3
    assert len(set(orders)) > 390  # essentially always a fresh permutation


def test_ball_ranks_invert_order():
    part, _ = _small_carving(12)
    assert np.array_equal(part.ranks[part.order], np.arange(len(part.net)))


def test_ball_rejects_mismatched_net():
    rng = stream(13, 0)
    net = greedy_net(rng.random((200, 2)), 0.1)
    with pytest.raises(ValueError):
        sample_ball_carving(net, 1.0, rng)  # spacing 0.1 != 0.25
    with pytest.raises(ValueError):
        BallCarvingPartition(net=net, epsilon=0.4, radius=0.05, order=np.arange(len(net)))
    with pytest.raises(ValueError):
        BallCarvingPartition(net=net, epsilon=0.4, radius=0.15,
                             order=np.zeros(len(net), dtype=np.int64))


@pytest.mark.parametrize("kind, valid", [
    ("identity", True), ("reversed", True), ("duplicate", False), ("negative", False),
    ("too_large", False), ("short", False), ("long", False), ("two_d", False),
])
def test_ball_order_must_be_a_permutation(kind, valid):
    rng = stream(14, 0)
    net = greedy_net(rng.random((200, 2)), 0.1)
    n = len(net)
    order = {
        "identity": np.arange(n),
        "reversed": np.arange(n)[::-1],
        "duplicate": np.r_[0, np.arange(n - 1)],
        "negative": np.r_[-1, np.arange(1, n)],
        "too_large": np.r_[np.arange(n - 1), n],
        "short": np.arange(n - 1),
        "long": np.arange(n + 1),
        "two_d": np.arange(n)[None, :],
    }[kind]
    if valid:
        part = BallCarvingPartition(net=net, epsilon=0.4, radius=0.15, order=order)
        assert np.array_equal(np.sort(part.order), np.arange(n))
    else:
        with pytest.raises(ValueError):
            BallCarvingPartition(net=net, epsilon=0.4, radius=0.15, order=order)


# ---------------------------------------------------------------------------
# estimators


def test_lattice_separation_probability_1d():
    # closed form for a unit-width 1-D lattice: P[split at distance s] = min(1, s)
    family = lambda r: sample_cube_partition(1, 1.0, r)
    pair = lambda r, dist: ((x := r.random(1) * 5.0), x + dist)
    dists = [0.2, 0.4, 0.8]
    curve = estimate_lipschitz_constant(family, pair, dists, 2500, stream(14, 0), epsilon=1.0)
    for dist, p, lo, hi in curve.points:
        assert lo <= min(1.0, dist) <= hi
    assert curve.slope == pytest.approx(1.0, abs=0.08)


def test_estimate_paddedness_validation():
    family = lambda r: sample_cube_partition(1, 1.0, r)
    data = lambda r: r.random(1)
    with pytest.raises(ValueError):
        estimate_paddedness(family, data, -0.1, 10, stream(15, 0))
    with pytest.raises(ValueError):
        estimate_paddedness(family, data, 0.1, 0, stream(15, 0))


def test_estimate_paddedness_rejects_nan_radius():
    family = lambda r: sample_cube_partition(1, 1.0, r)
    with pytest.raises(ValueError):
        estimate_paddedness(family, lambda r: r.random(1), float("nan"), 10, stream(15, 0))


def test_padding_certificate_rejects_nan_radius():
    part = sample_cube_partition(2, 1.0, stream(15, 1))
    with pytest.raises(ValueError):
        padding_certificate(part, np.zeros(2), float("nan"))


def test_sample_cube_partition_rejects_nan_epsilon():
    with pytest.raises(ValueError):
        sample_cube_partition(2, float("nan"), stream(15, 2))


def test_cube_partition_rejects_nan_epsilon():
    with pytest.raises(ValueError):
        CubePartition(epsilon=float("nan"), dim=2, shift=np.zeros(2))


@pytest.mark.parametrize("eps", [math.inf, -math.inf])
def test_cube_lattices_reject_infinite_epsilon_by_name(eps):
    # an infinite epsilon would otherwise fail far away, at the int64 cell check
    with pytest.raises(ValueError, match="epsilon must be positive and finite"):
        sample_cube_partition(2, eps, stream(15, 2))
    with pytest.raises(ValueError, match="epsilon must be positive and finite"):
        CubePartition(epsilon=eps, dim=2, shift=np.zeros(2))


@pytest.mark.parametrize("eps, dists", [
    (1.0, []), (1.0, [0.1, -0.1]), (1.0, [0.1, float("nan")]), (1.0, [float("inf")]),
    (0.0, [0.1]), (-1.0, [0.1]), (float("nan"), [0.1]),
], ids=["empty", "negative", "nan", "inf", "eps_zero", "eps_negative", "eps_nan"])
def test_estimate_lipschitz_constant_rejects_bad_inputs(eps, dists):
    # the pair ignores its distance, so only the checks can reject these
    family = lambda r: sample_cube_partition(1, 1.0, r)
    pair = lambda r, dist: (np.array([0.3]), np.array([0.6]))
    with pytest.raises(ValueError):
        estimate_lipschitz_constant(family, pair, dists, 10, stream(15, 1), epsilon=eps)


# batched estimators against per-trial references over recorded draws


def _recorded_draws(kind):
    """A partition family of the given kind over [0, 2)^2 and a point
    sampler, both keeping their draws: cube lattices, carvings over one
    net, or carvings alternating between two nets. About one point in ten
    lies far off support."""
    eps = 0.8
    rng = stream(41, 0)
    bases = [sample_ball_carving(greedy_net(rng.random((400, 2)) * 2.0, eps / 4.0), eps, rng)
             for _ in range(2)]
    parts, points = [], []

    def family(r):
        if kind == "cube":
            part = sample_cube_partition(2, eps, r)
        else:
            part = resample_ball_carving(bases[len(parts) % 2 if kind == "two_nets" else 0], r)
        parts.append(part)
        return part

    def data(r):
        x = r.random(2) * 2.4 - 0.2 + (50.0 if r.random() < 0.1 else 0.0)
        points.append(x)
        return x

    def pair(r, dist):
        x = data(r)
        v = r.standard_normal(2)
        return x, x + dist * v / np.linalg.norm(v)

    return family, data, pair, parts, points


@pytest.fixture(params=["default", "one_trial", "budget-1", "budget", "budget+1"])
def block_setting(request, monkeypatch):
    """(trials, block sizes seen, set_budget): the default budget, a single
    trial, and budgets of 4 trials' rows less one row, exactly, and plus
    one row. set_budget(p, columns), for trials of p points over
    partitions of `columns` columns, sets the budget and returns the block
    sizes in trials that one estimate over `trials` trials must make."""
    sizes = []
    assign = partitions._assign_block

    def spy(block):
        sizes.append(len(block))
        return assign(block)

    monkeypatch.setattr(partitions, "_assign_block", spy)
    delta = {"budget-1": -1, "budget": 0, "budget+1": 1}.get(request.param)
    trials = 1 if request.param == "one_trial" else 41

    def set_budget(p, columns):
        if delta is None:
            return None
        monkeypatch.setattr(partitions, "_TILE", (4 * p + delta) * columns)
        size = (4 * p + delta) // p
        return [size] * (trials // size) + [trials % size] * (trials % size > 0)

    return trials, sizes, set_budget


@pytest.mark.parametrize("kind", ["cube", "one_net", "two_nets"])
def test_batched_paddedness_equals_per_trial_certificates(kind, block_setting):
    trials, sizes, set_budget = block_setting
    family, data, _, parts, points = _recorded_draws(kind)
    want = set_budget(1, family(stream(42, 0))._columns)
    parts.clear()
    t = 0.05
    est = estimate_paddedness(family, data, t, trials, stream(42, 1))
    assert len(parts) == len(points) == trials
    bad = sum(padding_certificate(q, x, t).status != CONTAINED for q, x in zip(parts, points))
    assert est.value == bad / trials
    if want is not None and kind != "two_nets":  # two nets differ in size
        assert sizes == want


@pytest.mark.parametrize("kind", ["cube", "one_net", "two_nets"])
def test_batched_lipschitz_equals_per_trial_cells(kind, block_setting):
    trials, sizes, set_budget = block_setting
    family, _, pair, parts, _ = _recorded_draws(kind)
    want = set_budget(2, family(stream(43, 0))._columns)
    parts.clear()
    pairs = []
    recorded = lambda r, dist: pairs.append(pair(r, dist)) or pairs[-1]
    curve = estimate_lipschitz_constant(family, recorded, [0.05, 0.2], trials, stream(43, 1),
                                        epsilon=0.8)
    assert len(parts) == len(pairs) == 2 * trials
    split = [not np.array_equal(q.cells(a[None]), q.cells(b[None])) for q, (a, b) in zip(parts, pairs)]
    for j, (_, p, _, _) in enumerate(curve.points):
        assert p == sum(split[j * trials : (j + 1) * trials]) / trials
    if want is not None and kind != "two_nets":
        assert sizes == want * 2


@pytest.mark.parametrize("kind", ["cube", "one_net"])
def test_batched_trial_kernel_matches_per_trial_calls(kind):
    # three points per trial, some far off support: the same bits as one
    # call per trial (for carvings, every decision reads direct
    # differences, which do not depend on the batch)
    family, _, _, parts, _ = _recorded_draws(kind)
    rng = stream(44, 0)
    for _ in range(60):
        family(rng)
    pts = rng.random((60, 3, 2)) * 2.4 - 0.2
    pts[rng.random((60, 3)) < 0.1] += 50.0
    cells, off, margins = parts[0]._assign_trials(parts, pts)
    assert off.any() == (kind != "cube")
    for q, x, c, o, m in zip(parts, pts, cells, off, margins):
        want_m, want_o = q.margins(x)
        assert np.array_equal(c, q.cells(x)) and np.array_equal(o, want_o)
        assert m.tobytes() == want_m.tobytes()


@pytest.mark.parametrize("d", [2, 6])
def test_batched_trial_kernel_keeps_carving_order_on_equal_roots(d):
    # the batched kernel's off-support tie rule is the dense kernel's: of
    # two centers at equal direct distances, the earlier in carving order
    net = EpsilonNet(centers=np.stack(_equal_root_centers(d)), epsilon=0.25, source_count=2)
    parts = [BallCarvingPartition(net=net, epsilon=1.0, radius=0.5, order=np.array(o))
             for o in ([1, 0], [0, 1])]
    cells, off, margins = parts[0]._assign_trials(parts, np.zeros((2, 1, d)))
    assert cells[:, 0].tolist() == [1, 0] and off.all() and not margins.any()
    for q, c in zip(parts, cells):
        assert np.array_equal(q.cells(np.zeros((1, d))), c)


def test_wilson_interval_coverage():
    # the interval should cover the true p about 95% of the time
    p, n = 0.3, 200
    rng = stream(16, 0)
    hits = 0
    for _ in range(1500):
        k = rng.binomial(n, p)
        lo, hi = wilson_interval(k, n)
        hits += lo <= p <= hi
    assert 0.93 <= hits / 1500 <= 0.98


def test_wilson_interval_edges():
    lo, hi = wilson_interval(0, 50)
    assert lo == 0.0 and hi < 0.12
    lo, hi = wilson_interval(50, 50)
    assert hi == 1.0 and lo > 0.88
    with pytest.raises(ValueError):
        wilson_interval(1, 0)


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize("family", ["cube", "ball"])
def test_partition_roundtrip(family):
    rng = stream(17, 0)
    if family == "cube":
        part = sample_cube_partition(3, 0.7, rng)
        X = rng.random((100, 3))
    else:
        part, _ = _small_carving(17)
        X = rng.random((100, 2)) * 2.0
    back = partition_from_dict(part.to_dict())
    assert np.array_equal(cells_of(part, X), cells_of(back, X))
    m1, o1 = certificate_margins(part, X)
    m2, o2 = certificate_margins(back, X)
    assert np.array_equal(m1, m2) and np.array_equal(o1, o2)
    payload = json.loads(json.dumps(part.to_dict(), indent=1, sort_keys=True))
    assert np.array_equal(cells_of(part, X), cells_of(partition_from_dict(payload), X))


def test_partition_from_dict_rejects_unknown():
    with pytest.raises(ValueError):
        partition_from_dict({"family": "triangles"})


def test_cell_anchor_lands_in_cell():
    part = sample_cube_partition(2, 1.0, stream(18, 0))
    x = np.array([0.7, -0.3])
    cell = part.cells(x[None])[0]
    assert np.array_equal(part.cells(part.anchor(cell)[None])[0], cell)
    bpart, _ = _small_carving(18)
    c = bpart.cells(bpart.net.centers[3][None])[0]
    anchor = bpart.anchor(c)
    # a center is always captured by its own or an earlier ball
    assert np.linalg.norm(anchor - bpart.net.centers[c]) <= bpart.radius + 1e-12


def test_carving_anchor_can_lie_outside_its_cell():
    # a carved cell's anchor is its net center, which an earlier ball can
    # capture; every cube anchor (the cell center) is inside its cell
    bpart, _ = _small_carving(18)
    ids = np.arange(len(bpart.net))
    inside = np.array([ball_cell_member(bpart, c, bpart.anchor(c)[None])[0] for c in ids])
    assert inside.any() and not inside.all()
    assert np.array_equal(inside, bpart.cells(bpart.anchor(ids)) == ids)
    part = sample_cube_partition(3, 1.0, stream(18, 1))
    cells = part.cells(3.0 * stream(18, 2).standard_normal((200, 3)))
    assert np.array_equal(part.cells(part.anchor(cells)), cells)


def test_cell_anchor_of_a_cell_array_matches_per_cell_bits():
    part = sample_cube_partition(5, 1.0, stream(19, 0))
    cells = cells_of(part, 3.0 * stream(19, 1).standard_normal((300, 5)))
    one_by_one = np.stack([part.anchor(tuple(c)) for c in cells.tolist()])
    assert part.anchor(cells).tobytes() == one_by_one.tobytes()
    bpart, _ = _small_carving(19)
    ids = np.unique(cells_of(bpart, bpart.net.centers))
    one_by_one = np.stack([bpart.anchor(int(c)) for c in ids])
    assert bpart.anchor(ids).tobytes() == one_by_one.tobytes()


def _second_by_direct_differences(net, X):
    """The second center in order of (direct distance, index), per point."""
    D = partitions._direct_distances(X[:, None, :], net.centers[None, :, :])
    return np.array([np.lexsort((np.arange(len(net)), row))[min(1, len(net) - 1)] for row in D])


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([2, 3, 4, 8, 20]), seed=st.integers(0, 2**32 - 1), wide=st.booleans())
@example(d=3, seed=0, wide=False)
@example(d=4, seed=1, wide=True)
@example(d=20, seed=2, wide=False)
def test_candidates_decide_ball_assign_bits_for_points_and_moved_points(d, seed, wide):
    # the candidate pairs of a fixed point set X, taken once with reach 2R,
    # k = 2 and move eps, give ball_assign(part, X), part.cells of points up
    # to eps from X and X's second-nearest centers, bit for bit: in the
    # tree regime (d <= 4) and the dense one (d = 8, 20). The net and R lie
    # on a 1/64 grid, so points at R from a center along an axis and steps
    # of eps along an axis are exact; a tenth of X is off support, and a
    # wide net has 2R above its spread, so every center is a candidate
    rng = np.random.default_rng(seed)
    grid = np.round(rng.random((12 if wide else 300, d)) * (32 if wide else 128)) / 64
    centers = rng.permutation(np.unique(grid, axis=0))
    R = int(rng.integers(17, 33)) / 64
    eps = int(rng.integers(1, 9)) / 64
    count = len(centers)
    net = EpsilonNet(centers=centers, epsilon=0.25, source_count=count)
    part = BallCarvingPartition(net=net, epsilon=1.0, radius=R, order=rng.permutation(count))
    axis = np.eye(d)[rng.integers(0, d, 40)] * rng.choice([-1.0, 1.0], (40, 1))
    X = np.vstack([centers[rng.integers(0, count, 50)] + rng.standard_normal((50, d)) * (R / math.sqrt(d)),
                   centers[rng.integers(0, count, 40)] + R * axis,  # at exactly R
                   rng.random((10, d)) + 3.0])  # off support
    assert (partitions._direct_distances(X[50:90, None, :], centers[None, :, :]) == R).any(axis=1).all()
    pairs = _Candidates(net, X, 2.0 * R, 2, eps)
    want = _direct_reference(part, X)
    assert want[1].sum() >= 10 and (~want[1]).sum() >= 40
    _assert_same_bits(pairs.assign(part), want)
    _assert_same_bits(pairs.assign(part), ball_assign(part, X))
    assert np.array_equal(pairs.cells(part), want[0])
    rows = np.sort(rng.choice(len(X), 70, replace=False))
    step = _unit_rows(rng.standard_normal((70, d)))
    step[::2] = np.eye(d)[rng.integers(0, d, 35)] * rng.choice([-1.0, 1.0], (35, 1))  # exactly eps
    Y = X[rows] + eps * step
    assert np.array_equal(pairs.cells(part, rows, Y), _direct_reference(part, Y)[0])
    assert np.array_equal(pairs.cells(part, rows, Y), part.cells(Y))
    second = _second_by_direct_differences(net, X[rows])
    assert np.array_equal(pairs.second(rows), second)
    assert np.array_equal(_second_nearest_gram(net, X[rows]), second)


def test_second_nearest_takes_the_lower_index_on_an_exact_tie():
    # four centers at exactly 0.5 from the origin and one at 0.25: the
    # second is the tied center of lowest index, by the tree pairs and by
    # the Gram proposals. The net's first center lies about 1600 away, so the
    # Gram squares of the tied centers differ by rounding; with one center,
    # that center
    ring = np.array([[0.0, 0.5], [0.25, 0.0], [-0.5, 0.0], [0.5, 0.0], [0.0, -0.5]])
    X = np.zeros((1, 2))
    rng = np.random.default_rng(5)
    for _ in range(8):
        order = rng.permutation(5).tolist()
        net = EpsilonNet(centers=np.vstack([[1234.567, -987.6543], ring[order]]), epsilon=0.1, source_count=6)
        want = 1 + min(order.index(i) for i in (0, 2, 3, 4))
        assert _Candidates(net, X, 0.1, 2).second(np.array([0]))[0] == want
        assert _second_nearest_gram(net, X)[0] == want
    one = EpsilonNet(centers=ring[:1], epsilon=0.1, source_count=1)
    assert _Candidates(one, X, 0.1, 2).second(np.array([0]))[0] == 0
    assert _second_nearest_gram(one, X)[0] == 0


def test_candidates_hold_the_nearest_center_of_a_moved_off_support_point():
    # x lies 0.61 above a row of centers 1/16 apart, beyond 2R = 0.6, and
    # y, 0.1 to its right, is nearest to a center 0.618 from x: beyond both
    # 2R and x's second-nearest distance, within d_1(x) + 2 move
    centers = np.stack([np.arange(21) / 16.0, np.zeros(21)], axis=1)
    net = EpsilonNet(centers=centers, epsilon=0.25, source_count=21)
    part = BallCarvingPartition(net=net, epsilon=1.0, radius=0.3, order=np.arange(21)[::-1].copy())
    X = np.array([[0.5, 0.61]])
    Y = X + [0.1, 0.0]
    assert part.cells(Y)[0] == 10 and ball_assign(part, Y)[1][0]
    assert _Candidates(net, X, 0.6, 2, 0.1).cells(part, np.array([0]), Y)[0] == 10
