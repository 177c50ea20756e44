"""Run the nine catalog experiments at the acceptance seed, one process each.

    python tools/catalog.py OUT_DIR
    python tools/catalog.py PARENT CHANGE OUT_DIR --rounds N

Each experiment runs at its default config and seed 20260814 in a fresh
interpreter, importing padsmooth from the src/ next to this file, and
writes its outputs under OUT_DIR/<experiment>. One line per experiment
gives its in-process seconds (the `execute` call, without interpreter
start-up) and the sha256 of its results.csv, then the sum of the seconds.
Two checkouts compare with `diff -r` of their OUT_DIRs. The environment
passes through, so pin BLAS threads (OPENBLAS_NUM_THREADS=1) for timings.

The second form compares two checkouts, each with this tool in tools/.
Every round runs each experiment through the `--one` form of both
checkouts, one after the other, the parent first in even rounds and the
change first in odd ones, so a drift of the machine's speed falls on both
sides alike. Outputs go to OUT_DIR/parent/<experiment> and
OUT_DIR/change/<experiment>, emptied before each run, so they hold the last
round's. After each run every file there is hashed (sha256), which works
with any checkout's `--one` form. One line per experiment gives each side's
median in-process seconds over the rounds and whether every output file
agreed across the two sides in every round; then the sums of the medians.
Exits 1 if a run fails or a file differs.
"""

import hashlib
import json
import shutil
import statistics
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


def one(checkout: Path, name: str, out_dir: Path) -> dict | None:
    """The `--one` result of a checkout's catalog tool, or None after
    printing why it failed."""
    proc = subprocess.run([sys.executable, str(checkout / "tools" / "catalog.py"), "--one", name, str(out_dir)],
                          capture_output=True, text=True)
    if proc.returncode:
        print(proc.stderr, file=sys.stderr)
        print(f"{name}: exit {proc.returncode} in {checkout}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def file_digests(out_dir: Path) -> dict:
    """sha256 of every file under out_dir, by path relative to it."""
    return {str(path.relative_to(out_dir)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.rglob("*")) if path.is_file()}


def compare(parent: Path, change: Path, out: Path, rounds: int, names) -> int:
    sides = {"parent": parent.resolve(), "change": change.resolve()}
    seconds = {(side, name): [] for side in sides for name in names}
    agreed = dict.fromkeys(names, True)
    for r in range(rounds):
        order = list(sides) if r % 2 == 0 else list(sides)[::-1]
        for name in names:
            digests = {}
            for side in order:
                shutil.rmtree(out / side / name, ignore_errors=True)
                result = one(sides[side], name, out / side / name)
                if result is None:
                    return 1
                seconds[side, name].append(result["seconds"])
                digests[side] = file_digests(out / side / name)
            agreed[name] &= digests["parent"] == digests["change"]
        print(f"round {r + 1} of {rounds} done", file=sys.stderr, flush=True)
    medians = {key: statistics.median(v) for key, v in seconds.items()}
    print(f"{'experiment':20s} {'parent s':>9s} {'change s':>9s}  output files")
    for name in names:
        print(f"{name:20s} {medians['parent', name]:9.2f} {medians['change', name]:9.2f}  "
              f"{'all equal in every round' if agreed[name] else 'DIFFERENT'}")
    totals = [sum(medians[side, name] for name in names) for side in sides]
    print(f"{'total of medians':20s} {totals[0]:9.2f} {totals[1]:9.2f}")
    return 0 if all(agreed.values()) else 1


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    if len(argv) == 3 and argv[0] == "--one":
        run_one(argv[1], Path(argv[2]))
        return 0
    from padsmooth.experiments import EXPERIMENTS

    if len(argv) == 5 and argv[3] == "--rounds" and argv[4].isdigit() and int(argv[4]) >= 1:
        return compare(Path(argv[0]), Path(argv[1]), Path(argv[2]).resolve(), int(argv[4]), list(EXPERIMENTS))
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    total = 0.0
    for name in EXPERIMENTS:
        result = one(Path(__file__).resolve().parents[1], name, out / name)
        if result is None:
            return 1
        total += result["seconds"]
        print(f"{name:20s} {result['seconds']:8.2f} s  {result['sha256']}", flush=True)
    print(f"{'total':20s} {total:8.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
