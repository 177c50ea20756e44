"""Run one benchmark workload alternately in two checkouts and compare them.

    python tools/pairs.py PARENT CHANGE --workload W --pairs N --seconds S --seed-base K

Pair i runs `python3 bench/run.py --workload W --seed K+i --seconds S --trace 0`
in both checkout directories, one after the other, the parent first in
even pairs and the change first in odd ones, so a drift of the machine's
speed falls on both sides alike. Each run's end-to-end metrics are printed
as it ends; then, per metric, the median and quartiles of each side, the
number of pairs in which the change read lower (all end-to-end metrics are
lower is better) and whether the gain rule holds: the change lower in at
least 90% of the pairs (9 of 10), and the parent's median above the
change's by more than the parent's interquartile range. The last line of
standard output is one JSON object with every run and that summary. Exits
1 if any run fails or reports "correct": false.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON line bench/run.py prints last, or {"correct": False} if the
    run exits non-zero or prints none."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.stderr.write(proc.stderr)
        return {"correct": False, "metrics": {}}
    return json.loads(lines[-1])


def quartiles(values: list) -> list:
    """[first quartile, median, third quartile] by the `statistics`
    default (exclusive) method; a single value is all three."""
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def gain_holds(parent: list, change: list) -> bool:
    """The change reads lower in at least 90% of the pairs, and its median
    is below the parent's by more than the parent's interquartile range."""
    q1, med, q3 = quartiles(parent)
    wins = sum(c < p for p, c in zip(parent, change))
    return wins >= math.ceil(0.9 * len(parent)) and med - statistics.median(change) > q3 - q1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed-base", type=int, required=True)
    args = ap.parse_args(argv)
    dirs = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    runs = {side: [] for side in SIDES}
    for i in range(args.pairs):
        seed = args.seed_base + i
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            out = run(dirs[side], args.workload, seed, args.seconds)
            runs[side].append({"seed": seed, **out})
            shown = ", ".join(f"{k} {v['value']:.4g}" for k, v in out["metrics"].items())
            print(f"pair {i} seed {seed} {side}: correct {out['correct']}, {shown}", flush=True)
    ok = all(r["correct"] for side in SIDES for r in runs[side])
    summary = {}
    if ok:
        for name in runs["parent"][0]["metrics"]:
            value = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
            quart = {side: quartiles(value[side]) for side in SIDES}
            med = {side: statistics.median(value[side]) for side in SIDES}
            wins = sum(c < p for p, c in zip(value["parent"], value["change"]))
            gain = gain_holds(value["parent"], value["change"])
            summary[name] = {"median": med, "quartiles": quart, "change_wins": wins, "gain_rule": gain}
            change = med["change"] / med["parent"] - 1.0 if med["parent"] else math.nan
            shown = "; ".join(f"{side} [{q[0]:.4g}, {q[2]:.4g}]" for side, q in quart.items())
            print(f"{name}: median parent {med['parent']:.4g}, change {med['change']:.4g} ({change:+.1%}), "
                  f"change lower in {wins} of {args.pairs} pairs; quartiles {shown}; "
                  f"gain rule {'holds' if gain else 'does not hold'}")
    else:
        print("a run failed or reported correct: false", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seconds": args.seconds, "seed_base": args.seed_base,
                      "first_side": [SIDES[i % 2] for i in range(args.pairs)], "correct": ok,
                      "runs": runs, "summary": summary}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
