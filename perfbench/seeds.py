"""Run the benchmark once per seed and summarise each metric's spread.

    python3 perfbench/seeds.py --workload update_sweep --seeds 101-110 [--trace 0]
        [--seconds 30] [--save DIR]

Runs ``run.py`` in a child process per seed, one after another, and prints
each metric's median, quartiles and the quartile distance as a share of the
median (``statistics.quantiles(values, n=4)``), the spread measure the
regression bounds in ``BENCHMARK.json`` are checked against. With
``--save`` each run's report and result lines are written to
``DIR/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 101-110 or 1,2")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--save", type=Path)
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, cwd=HERE.parent)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        report, result = json.loads(lines[-2]), json.loads(lines[-1])
        if args.save:
            args.save.mkdir(parents=True, exist_ok=True)
            path = args.save / f"{args.workload}-seed{seed}-trace{args.trace}.json"
            path.write_text(json.dumps({"report": report, "result": result},
                                       indent=1, sort_keys=True) + "\n")
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])

    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, _, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        spread = (q3 - q1) / abs(median) if median else 0.0
        print(f"{args.workload:<15} {name:<45} median {median:.6g} "
              f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
