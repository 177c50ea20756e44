"""Run the nine catalog experiments at the acceptance seed, one process each.

    python tools/catalog.py OUT_DIR

Each experiment runs at its default config and seed 20260814 in a fresh
interpreter, importing padsmooth from the src/ next to this file, and
writes its outputs under OUT_DIR/<experiment>. One line per experiment
gives its in-process seconds (the `execute` call, without interpreter
start-up) and the sha256 of its results.csv, then the sum of the seconds.
Two checkouts compare with `diff -r` of their OUT_DIRs. The environment
passes through, so pin BLAS threads (OPENBLAS_NUM_THREADS=1) for timings.
"""

import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

SEED = 20260814


def run_one(name: str, out_dir: Path) -> None:
    from padsmooth.experiments import execute

    start = time.perf_counter()
    execute(name, {"seed": SEED}, out_dir)
    seconds = time.perf_counter() - start
    digest = hashlib.sha256((out_dir / "results.csv").read_bytes()).hexdigest()
    print(json.dumps({"seconds": seconds, "sha256": digest}))


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    if len(argv) == 3 and argv[0] == "--one":
        run_one(argv[1], Path(argv[2]))
        return 0
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    from padsmooth.experiments import EXPERIMENTS

    total = 0.0
    for name in EXPERIMENTS:
        proc = subprocess.run([sys.executable, __file__, "--one", name, str(out / name)],
                              capture_output=True, text=True)
        if proc.returncode:
            print(proc.stderr, file=sys.stderr)
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        total += result["seconds"]
        print(f"{name:20s} {result['seconds']:8.2f} s  {result['sha256']}", flush=True)
    print(f"{'total':20s} {total:8.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
