#!/usr/bin/env python3
"""Runs one workload over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload cold_grid --seeds 1-10 [--trace 0]

For every metric it prints the median, the quartiles, and the spread: the
interquartile distance as a share of the median. For a gated end-to-end
metric it also prints the bound from BENCHMARK.json and flags a spread
above a third of it. Each run uses BENCHMARK.json's run_seconds unless
--seconds is given.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402  (path set above)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)

    with open(HERE.parent / "BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {}
    incorrect = 0
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        incorrect += 0 if result["correct"] else 1
        row = {name: m["value"] for name, m in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} " +
              " ".join(f"{k}={v:.6g}" for k, v in row.items()
                       if k in bounds or args.trace), flush=True)
        for name, value in row.items():
            values.setdefault(name, []).append(value)

    print(f"\n{args.workload}: {len(next(iter(values.values())))} runs, "
          f"{incorrect} incorrect")
    for name, vals in values.items():
        q1, mid, q3 = stats.quartiles(vals)
        line = (f"  {name:<40} median {mid:<12.6g} q1 {q1:<12.6g} "
                f"q3 {q3:<12.6g} spread {stats.spread(vals):.4f}")
        if name in bounds:
            flag = "" if stats.spread(vals) < bounds[name] / 3 else "  WIDE"
            line += f"  bound {bounds[name]}{flag}"
        print(line)
    return 0 if incorrect == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
