"""Output checks that the benchmark computes apart from the program.

Carved cells and margins come from direct coordinate differences, cube
cells from ``floor((x - shift) / width)``, cell labels from a vote tally of
the recorded draws, estimator counts from the recorded partitions. Every
check returns a list of failure messages, empty when the output is right.

A point whose distance to some ball lies within ``TIE`` of the radius, or
whose margin lies within ``TIE`` of the probed radius, may land either way
under rounding; checks skip such points instead of guessing.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial.distance import cdist

TIE = 1e-9
MARGIN_TOL = 1e-9
Z_CLOSED_FORM = 5.0


def sign(values) -> np.ndarray:
    """-1/+1 with ties to +1, the program's vote convention."""
    return np.where(np.asarray(values) >= 0, 1, -1).astype(np.int8)


# ---------------------------------------------------------------------------
# independent partition geometry


def carve_direct(centers, order, radius, points, chunk=512):
    """Carving by direct differences.

    Returns (cells, off, margins, ambiguous): the first center in carving
    order whose closed R-ball holds each point (the nearest center when none
    does), the off-support flags, the certificate margins
    min(R - d(x, u), min over earlier w of d(x, w) - R), and the points
    whose assignment rounding could flip.
    """
    ordered = np.asarray(centers, dtype=np.float64)[order]
    n, count = len(points), len(ordered)
    cols = np.arange(count)
    cells = np.empty(n, dtype=np.int64)
    off = np.empty(n, dtype=bool)
    margins = np.empty(n)
    ambiguous = np.empty(n, dtype=bool)
    for i in range(0, n, chunk):
        blk = points[i : i + chunk]
        dist = cdist(blk, ordered)  # sqrt of summed squared coordinate differences
        inball = dist <= radius
        has = inball.any(axis=1)
        first = np.where(has, inball.argmax(axis=1), count - 1)
        rows = np.arange(len(blk))
        earlier = np.where(cols[None, :] < first[:, None], dist, np.inf).min(axis=1)
        m = np.minimum(radius - dist[rows, first], earlier - radius)
        cells[i : i + chunk] = np.where(has, order[first], order[dist.argmin(axis=1)])
        off[i : i + chunk] = ~has
        margins[i : i + chunk] = np.where(has, m, 0.0)
        edge = np.abs(dist - radius) <= TIE * max(1.0, radius)
        ambiguous[i : i + chunk] = (edge & (cols[None, :] <= first[:, None])).any(axis=1)
    return cells, off, margins, ambiguous


def cube_direct(shift, width, points):
    """(cells, margins, ambiguous) of a shifted cube lattice."""
    rel = points - shift
    cells = np.floor(rel / width).astype(np.int64)
    u = rel - cells * width
    margins = np.minimum(u, width - u).min(axis=1)
    ambiguous = margins <= TIE * max(1.0, width)
    return cells, margins, ambiguous


class Geometry:
    """Direct assignment for one partition: cell keys, margins, anchors.

    Assignments are memoized per point array, which the memo keeps alive.
    """

    def __init__(self, part):
        self.cube = hasattr(part, "shift")
        if self.cube:
            self.shift, self.width = part.shift, part.width
        else:
            self.centers, self.order, self.radius = part.net.centers, part.order, part.radius
        self._memo = {}

    def assign(self, points):
        """(keys, off, margins, ambiguous); keys are tuples for cubes, ints for carvings."""
        hit = self._memo.get(id(points))
        if hit is not None and hit[0] is points:
            return hit[1]
        if self.cube:
            cells, margins, amb = cube_direct(self.shift, self.width, points)
            out = [tuple(int(v) for v in row) for row in cells], np.zeros(len(points), bool), margins, amb
        else:
            cells, off, margins, amb = carve_direct(self.centers, self.order, self.radius, points)
            out = [int(c) for c in cells], off, margins, amb
        self._memo[id(points)] = (points, out)
        return out

    def anchor(self, key):
        if self.cube:
            return self.shift + (np.asarray(key, dtype=np.float64) + 0.5) * self.width
        return self.centers[key]


# ---------------------------------------------------------------------------
# partition outputs


def check_cells(geo, points, cells):
    """Program cells against floor((x - shift) / width) for cubes and the
    first capturing center in carving order for carvings."""
    keys, _, _, amb = geo.assign(points)
    n = len(points)
    differ = (np.asarray(cells).reshape(n, -1) != np.asarray(keys).reshape(n, -1)).any(axis=1)
    bad = int((differ & ~amb).sum())
    return [f"cells: {bad} points differ from the direct assignment"] if bad else []


def check_margins(geo, points, margins, off):
    """Margins and off-support flags against the direct computation.

    Returns (failures, overstated): overstated counts carving margins above
    the direct-difference margin, the floating-point unsoundness of a
    certificate; cube margins differ from the direct ones only in the last
    bit either way, so they count none.
    """
    _, off_want, want, amb = geo.assign(points)
    fails = []
    bad_off = int(((np.asarray(off) != off_want) & ~amb).sum())
    if bad_off:
        fails.append(f"margins: {bad_off} off-support flags differ")
    on = ~off_want & ~amb
    err = np.abs(np.asarray(margins)[on] - want[on])
    if err.size and err.max() > MARGIN_TOL:
        fails.append(f"margins: {int((err > MARGIN_TOL).sum())} differ, worst by {err.max():.3g}")
    return fails, int((np.asarray(margins)[on] > want[on]).sum()) if not geo.cube else 0


# ---------------------------------------------------------------------------
# smoothing outputs


class Reference:
    """The smoothed classifier rebuilt from the recorded draws.

    Cells come from the direct geometry, labels from the sign of the vote
    sum per cell, unseen cells from the base classifier at the cell anchor.
    Cells that hold an ambiguous draw are left out of every comparison.
    """

    def __init__(self, part, f, draws):
        self.geo = Geometry(part)
        self.f = f
        keys, _, _, amb = self.geo.assign(draws)
        votes = f(draws).astype(np.float64)
        self.sums, self.counts = {}, {}
        for key, vote in zip(keys, votes):
            self.sums[key] = self.sums.get(key, 0.0) + vote
            self.counts[key] = self.counts.get(key, 0) + 1
        self.labels = {key: int(sign(s)) for key, s in self.sums.items()}
        self.unsure = {key for key, a in zip(keys, amb) if a}

    def predict(self, points):
        """(labels, skip): reference labels and the points to leave out."""
        keys, _, _, amb = self.geo.assign(points)
        labels = np.empty(len(points), dtype=np.int8)
        unseen = [i for i, k in enumerate(keys) if k not in self.labels]
        for i, k in enumerate(keys):
            if k in self.labels:
                labels[i] = self.labels[k]
        if unseen:
            labels[unseen] = self.f(np.stack([self.geo.anchor(keys[i]) for i in unseen]))
        skip = amb | np.array([k in self.unsure for k in keys], dtype=bool)
        return labels, skip


def check_cell_labels(clf, ref, per_cell):
    fails = []
    got, want = set(clf.cell_labels), set(ref.labels)
    if (got ^ want) - ref.unsure:
        fails.append(f"cell labels: {len((got ^ want) - ref.unsure)} cells differ from the draws")
    keys = (got & want) - ref.unsure
    wrong = sum(clf.cell_labels[k] != ref.labels[k] for k in keys)
    if wrong:
        fails.append(f"cell labels: {wrong} of {len(keys)} differ from the vote tally")
    miscount = sum(clf.sample_counts.get(k) != ref.counts[k] for k in keys)
    if miscount:
        fails.append(f"cell labels: {miscount} vote counts differ")
    if {k for k in keys if ref.counts[k] < per_cell} != set(clf.flagged_cells) & keys:
        fails.append("cell labels: flagged cells differ from those under quota")
    return fails


def check_labels(labels, ref, points):
    want, skip = ref.predict(points)
    bad = int(((np.asarray(labels) != want) & ~skip).sum())
    return [f"evaluate: {bad} labels differ from the reference classifier"] if bad else []


def check_certified(clf, points, margins, off, eps, rng):
    """No perturbation within eps flips a point certified at eps.

    Per certified point: random directions at radius eps, and one push of
    length eps straight at a cell wall, the nearest face of a cube or
    radially out of the assigned ball of a carving.
    """
    cert = np.flatnonzero(~np.asarray(off) & (np.asarray(margins) >= eps))[:512]
    if len(cert) == 0 or eps <= 0:
        return []
    x = points[cert]
    base = clf.evaluate(x)
    reach = eps * (1.0 - 1e-9)
    dirs = [rng.standard_normal(x.shape) for _ in range(4)]
    part = clf.partition
    if hasattr(part, "shift"):
        u = np.mod(x - part.shift, part.width)
        j = np.argmin(np.minimum(u, part.width - u), axis=1)
        wall = np.zeros_like(x)
        rows = np.arange(len(x))
        wall[rows, j] = np.where(u[rows, j] <= part.width / 2, -1.0, 1.0)
    else:
        cells = Geometry(part).assign(x)[0]
        wall = x - part.net.centers[cells]
    dirs.append(wall)
    flips = 0
    for dvec in dirs:
        norm = np.linalg.norm(dvec, axis=1, keepdims=True)
        step = np.where(norm > 0, dvec / np.where(norm > 0, norm, 1.0), 0.0)
        flips += int((clf.evaluate(x + reach * step) != base).sum())
    return [f"certified: {flips} perturbations within eps={eps} flip a certified label"] if flips else []


# ---------------------------------------------------------------------------
# adversarial risk reports


def check_reports(reports, ref, points, truth, bound):
    """ar_lower <= ar_upper, the upper bound recomputed from the shared sample,
    and the paper's bound where one applies. `bound` maps a radius to the
    right-hand side that the catalog checks ar_upper against, with its slack
    of three binomial standard errors."""
    fails = []
    want, skip = ref.predict(points)
    mis = want != truth
    _, off, margins, amb = ref.geo.assign(points)
    n = len(points)
    for rep in reports:
        if not rep.risk <= rep.ar_lower <= rep.ar_upper:
            fails.append(f"report eps={rep.epsilon}: not risk <= ar_lower <= ar_upper")
        contained = ~off & (margins >= rep.epsilon)
        unsure = skip | amb | (np.abs(margins - rep.epsilon) <= TIE)
        upper = (mis | ~contained) & ~unsure
        lo, hi = int(upper.sum()), int(upper.sum() + unsure.sum())
        if not lo <= round(rep.ar_upper * n) <= hi:
            fails.append(f"report eps={rep.epsilon}: ar_upper {rep.ar_upper} not in [{lo / n}, {hi / n}]")
        risk_lo = int((mis & ~skip).sum())
        if not risk_lo <= round(rep.risk * n) <= risk_lo + int(skip.sum()):
            fails.append(f"report eps={rep.epsilon}: risk {rep.risk} disagrees with the reference")
        if rep.epsilon in bound:
            rhs = bound[rep.epsilon]
            if rep.ar_upper > rhs + 3 * math.sqrt(rep.ar_upper * (1 - rep.ar_upper) / n):
                fails.append(f"report eps={rep.epsilon}: ar_upper {rep.ar_upper} above the bound {rhs}")
    return fails


# ---------------------------------------------------------------------------
# estimators


def check_closed_form(name, estimate, trials, p):
    """A Monte-Carlo frequency within Z_CLOSED_FORM standard errors of p."""
    se = math.sqrt(max(p * (1 - p), 0.25 / trials) / trials)
    if abs(estimate - p) > Z_CLOSED_FORM * se:
        return [f"{name}: estimate {estimate:.4f} is {abs(estimate - p) / se:.1f} se from {p:.4f}"]
    return []


def check_paddedness(est, parts, points, t):
    """The estimate equals the share of recorded trials not certified at t."""
    bad = unsure = 0
    for part, x in zip(parts, points):
        _, off, m, amb = Geometry(part).assign(np.asarray(x, dtype=np.float64)[None, :])
        if amb[0] or abs(m[0] - t) <= TIE:
            unsure += 1
        elif off[0] or m[0] < t:
            bad += 1
    got = round(est.value * est.trials)
    if est.trials != len(parts) or not bad <= got <= bad + unsure:
        return [f"paddedness: {got} of {est.trials} cut, direct count {bad} (+{unsure} unsure)"]
    return []


def check_lipschitz(curve, parts, pairs, trials):
    """Each curve point equals the share of recorded pairs split into two cells."""
    fails = []
    for j, (dist, p, _, _) in enumerate(curve.points):
        split = unsure = 0
        for part, (a, b) in zip(parts[j * trials : (j + 1) * trials], pairs[j * trials : (j + 1) * trials]):
            keys, _, _, amb = Geometry(part).assign(np.asarray([a, b], dtype=np.float64))
            if amb.any():
                unsure += 1
            elif keys[0] != keys[1]:
                split += 1
        got = round(p * trials)
        if not split <= got <= split + unsure:
            fails.append(f"lipschitz d={dist}: {got} split, direct count {split} (+{unsure} unsure)")
    return fails


def check_certificates(certs, parts, points, t):
    """One-point certificates: status and margin against the direct margin."""
    fails = 0
    for cert, part, x in zip(certs, parts, points):
        _, off, m, amb = Geometry(part).assign(np.asarray(x, dtype=np.float64)[None, :])
        if amb[0] or abs(m[0] - t) <= TIE:
            continue
        status = "off_support" if off[0] else ("contained" if m[0] >= t else "cut")
        if cert.status != status or abs(cert.margin - (0.0 if off[0] else m[0])) > MARGIN_TOL:
            fails += 1
    return [f"padding certificate: {fails} of {len(certs)} differ from the direct margin"] if fails else []


# ---------------------------------------------------------------------------
# scheme B


def check_one_sided(clf, normal, offset):
    """Carved cells whose whole R-ball lies on one side of the line
    normal . x = offset carry that side's label."""
    part = clf.partition
    scale = float(np.linalg.norm(normal))
    wrong = 0
    for cell, label in clf.cell_labels.items():
        gap = (part.net.centers[cell] @ normal - offset) / scale
        if abs(gap) > part.radius and label != (1 if gap > 0 else -1):
            wrong += 1
    return [f"scheme B: {wrong} one-sided cells carry the other side's label"] if wrong else []
