"""Run one padsmooth benchmark workload and print its metrics.

    python3 bench/run.py --workload carve_highdim --seed 1 --seconds 20 --trace 0

The process pins BLAS/OpenMP to one thread, sets up the workload's inputs
from the seed three times (timing a fresh-interpreter import of padsmooth
each time), runs one warm-up pass whose outputs are checked against the
benchmark's own computations, then repeats timed passes for --seconds,
requiring each to reproduce the warm-up outputs exactly. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

The speed of the shared machine drifts by up to a half over tens of
seconds to minutes, more for some kernels than for others. So a fixed
reference kernel, a mix of the program's kinds of hot path, is timed
before every set-up, before the first timed pass and after every pass, and
setup_s and pass_s are the median wall times scaled by
REFERENCE_S / (median reference time): seconds at the machine speed at
which the reference takes REFERENCE_S.

--trace 0 reports the end-to-end metrics. --trace 1 keeps one span per
program call in memory (name, start, end, parent, pass), writes them with
the raw wall and reference times to bench/traces/<workload>-<seed>.json at
exit and reports the per-layer metrics, scaled alike. Run from the repository root; the program is imported from src/.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TRACES = HERE / "traces"
SETUPS = 3
MIN_PASSES = 3
IMPORT_PROBE = "import time; t = time.perf_counter(); import padsmooth; print(time.perf_counter() - t)"
REFERENCE_S = 0.28  # run medians of the reference were 0.24 to 0.29 s on the 2-core machine the bounds were set on

LAYER_TIMES = (
    "geometry.greedy_net", "partitions.sample", "partitions.certificate_margins",
    "partitions.padding_certificate", "partitions.estimators", "smoothing.smooth_exact",
    "smoothing.evaluate", "smoothing.scheme_b", "evaluation.adversarial_risk_curve",
    "evaluation.game",
)
SETUP_TIMES = ("tasks.sample",)


class Tracer:
    """Spans kept in memory; a disabled tracer hands out one shared no-op."""

    _NULL = contextlib.nullcontext()

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.group = "setup"
        self.spans: list[list] = []  # [group, name, start, end, parent index]
        self._open: list[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else self._NULL

    @contextlib.contextmanager
    def _span(self, name):
        rec = [self.group, name, time.perf_counter(), None, self._open[-1] if self._open else None]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._open.pop()

    def per_group(self, name: str, prefix: str) -> list[float]:
        """Total duration of spans called `name` in each group starting with prefix."""
        totals: dict[str, float] = {}
        for group, span, start, end, _ in self.spans:
            if group.startswith(prefix):
                totals.setdefault(group, 0.0)
                if span == name:
                    totals[group] += end - start
        return list(totals.values())

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = [{"id": i, "group": g, "name": n, "start": s, "end": e, "parent": p}
                 for i, (g, n, s, e, p) in enumerate(self.spans)]
        path.write_text(json.dumps({**extra, "spans": spans}, indent=1))


class Reference:
    """A fixed kernel that shares no code with padsmooth, in three equal
    parts like the program's kinds of hot path: small Gram-distance blocks
    in NumPy with a Python loop over a dict of tuple keys; Gram distances
    between two sets of 3000 points in blocks of 200 rows; and a dict and
    np.unique(axis=0) over 10000 integer rows. Each part alone tracks some
    workloads and misses others; their sum tracks all four better than any
    part. Its arrays take a few MB; it raises the peak RSS of a run by
    3 to 7 MB, alike in every run."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a, self.b = rng.random((400, 20)), rng.random((400, 20))
        self.rows = (rng.random((4000, 20)) * 10).astype(np.int64).tolist()
        self.A, self.B = rng.random((3000, 20)), rng.random((3000, 20))
        self.nA = np.einsum("ij,ij->i", self.A, self.A)[:, None]
        self.nB = np.einsum("ij,ij->i", self.B, self.B)[None, :]
        self.keys = (rng.random((10000, 20)) * 3).astype(np.int64)
        self.parts: list[list[float]] = []

    def small_blocks(self):
        a, b = self.a, self.b
        for _ in range(40):
            d = np.einsum("ij,ij->i", a, a)[:, None] + np.einsum("ij,ij->i", b, b)[None, :] - 2.0 * (a @ b.T)
            np.sqrt(np.maximum(d, 0.0, out=d), out=d)
            d.argmin(axis=1)
            np.minimum.accumulate(d, axis=1)
        table: dict = {}
        for _ in range(3):
            for i, row in enumerate(self.rows):
                key = tuple(row)
                table[key] = table.get(key, 0) + i % 7

    def large_blocks(self):
        for i in range(0, len(self.A), 200):
            d = self.A[i:i + 200] @ self.B.T
            d *= -2.0
            d += self.nA[i:i + 200]
            d += self.nB
            np.sqrt(np.maximum(d, 0.0, out=d), out=d)
            d.argmin(axis=1)

    def row_keys(self):
        for _ in range(2):
            table: dict = {}
            for i, key in enumerate(map(tuple, self.keys.tolist())):
                table.setdefault(key, i)
            np.unique(self.keys, axis=0)

    def seconds(self) -> float:
        """Time all three parts; keep each part's time in self.parts."""
        times = []
        for part in (self.small_blocks, self.large_blocks, self.row_keys):
            t0 = time.perf_counter()
            part()
            times.append(time.perf_counter() - t0)
        self.parts.append(times)
        return sum(times)


def import_seconds() -> float:
    """Time to import padsmooth in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout.split()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "padsmooth" / "__init__.py").is_file():
        print(f"padsmooth sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    tr = Tracer(bool(args.trace))
    kernel = Reference()
    kernel.seconds()

    setups, refs = [], []
    for i in range(SETUPS):
        tr.group = f"setup{i}"
        refs.append(kernel.seconds())
        imported = import_seconds()
        t0 = time.perf_counter()
        wl.setup(args.seed, tr)
        setups.append(imported + time.perf_counter() - t0)

    tr.group = "warmup"
    checked = wl.run(tr)
    fails, layer_counts = wl.check(checked)
    failed = checked["failed"]
    passes: list[float] = []
    refs.append(kernel.seconds())
    stop = time.perf_counter() + args.seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < stop:
        tr.group = f"pass{len(passes)}"
        t0 = time.perf_counter()
        out = wl.run(tr)
        passes.append(time.perf_counter() - t0)
        failed += out["failed"]
        if not wl.same(checked, out):
            fails.append(f"pass {len(passes) - 1}: outputs differ from the checked warm-up pass")
        del out  # freed here, outside the next pass's time
        refs.append(kernel.seconds())

    scale = REFERENCE_S / statistics.median(refs)
    print(f"unscaled medians: pass {statistics.median(passes):.4f} s, setup {statistics.median(setups):.4f} s, "
          f"reference {statistics.median(refs):.4f} s", file=sys.stderr)
    for msg in fails:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    if args.trace:
        metrics = {f"{name}_s": {"value": statistics.median(tr.per_group(name, "pass")) * scale, "unit": "s"}
                   for name in LAYER_TIMES}
        for name in SETUP_TIMES:
            metrics[f"{name}_s"] = {"value": statistics.median(tr.per_group(name, "setup")) * scale,
                                    "unit": "s"}
        for name, value in {**wl.counts(checked), **layer_counts}.items():
            metrics[name] = {"value": value, "unit": "count"}
        tr.write(TRACES / f"{args.workload}-{args.seed}.json",
                 {"workload": args.workload, "seed": args.seed, "pass_wall_s": passes,
                  "setup_wall_s": setups, "reference_s": refs, "reference_parts_s": kernel.parts[1:],
                  "scale": scale, "metrics": metrics})
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups) * scale, "unit": "s"},
            "pass_s": {"value": statistics.median(passes) * scale, "unit": "s"},
            "f_queries": {"value": checked["f_queries"], "unit": "count"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    runs = 1 + len(passes)
    print(json.dumps({"correct": not fails, "attempted": wl.ops * runs, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
