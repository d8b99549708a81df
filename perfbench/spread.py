"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --workload receiver --seeds 1-10 [--seconds 40] [--trace 0]

Runs ``run.py`` once per seed, one after another, and prints each metric's
median, its quartiles and the distance between them as a share of the
median, which is how the bounds in BENCHMARK.json are judged. Each run's
last stdout line is appended to ``.perfbench_out/spread-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="40")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    log_path = os.path.join(ROOT, ".perfbench_out", f"spread-{args.workload}.jsonl")
    os.makedirs(os.path.dirname(log_path), exist_ok=True)
    values: dict[str, list[float]] = {}
    failed_shares = set()
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        line = proc.stdout.strip().splitlines()[-1]
        with open(log_path, "a") as fh:
            fh.write(line + "\n")
        result = json.loads(line)
        failed_shares.add((result["failed"], result["attempted"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: correct {result['correct']} attempted {result['attempted']} "
              f"failed {result['failed']}", flush=True)
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:<48} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {spread:.4f}")
    print(f"failed/attempted per run: {sorted(failed_shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
