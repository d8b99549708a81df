"""qwitness benchmark: run a workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload receiver --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. The run repeats whole rounds of the
workload, each in a fresh process (see ``round.py``), until ``--seconds``
have passed. It reports the fastest set-up, throughput and wall time it
saw, and the median of the rest (see ``end_to_end_metrics``). The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. A traced run alternates untraced and traced
rounds, so it also measures the tracing overhead.

A result file with the environment, each metric's median and quartiles
and the operation counts goes to ``.perfbench_out/``;
``--compare EARLIER.json`` prints each metric's ratio against an earlier
result file, and ``--compare EARLIER.json LATER.json`` compares two files
without running anything.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

from workloads import WORKLOADS, check_same_stats  # noqa: E402

# (name, unit, better). Bounds live in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("trials_per_s", "trials/s", "higher"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    ("qudit.haar_random.us_per_call", "us", "lower"),
    ("qudit.haar_random.calls_per_trial", "count", "lower"),
    ("qudit.PureState.us_per_call", "us", "lower"),
    ("qudit.PureState.calls_per_trial", "count", "lower"),
    ("qudit.measure_binary.us_per_call", "us", "lower"),
    ("qudit.measure_binary.calls_per_trial", "count", "lower"),
    ("qudit.measure_binary.flops_per_call", "computed_flop", "lower"),
    ("qudit.tensor_states.us_per_call", "us", "lower"),
    ("qudit.sym_projector.build_s", "s", "lower"),
    ("qudit.sym_projector.bytes", "bytes", "lower"),
    ("qudit.measure_basis.us_per_call", "us", "lower"),
    ("qudit.fidelity_sq.us_per_call", "us", "lower"),
    ("estimation.covariant_estimate.us_per_call", "us", "lower"),
    ("estimation.covariant_estimate.calls_per_trial", "count", "lower"),
    ("strategies.alice_act.self_us_per_call", "us", "lower"),
    ("strategies.bob_act.self_us_per_call", "us", "lower"),
    ("commitment.us_per_op", "us", "lower"),
    ("commitment.ops_per_trial", "count", "lower"),
    ("spacetime.emit.us_per_call", "us", "lower"),
    ("spacetime.events_per_trial", "count", "lower"),
    ("spacetime.validate.us_per_trial", "us", "lower"),
    ("spacetime.to_jsonl.us_per_trial", "us", "lower"),
    ("protocols.run_protocol.us_per_trial", "us", "lower"),
    ("protocols.run_protocol.self_us_per_trial", "us", "lower"),
    ("harness.trial_rng.us_per_call", "us", "lower"),
    ("harness.run_trials_range.self_us_per_trial", "us", "lower"),
    ("harness.fanout.overhead_s", "s", "lower"),
    ("harness.fanout.speedup", "ratio", "higher"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
BETTER = {name: better for name, _, better in END_TO_END + PER_LAYER}

# Rounds per run at least: untraced rounds for --trace 0, untraced and
# traced rounds together for --trace 1.
MIN_ROUNDS = {0: 3, 1: 4}
ROUND_TIMEOUT_S = 170


def spawn_round(workload: str, seed: int, traced: bool, cpu: int) -> dict:
    """Run one round in a fresh process; times are taken from just before it starts."""
    cmd = [sys.executable, os.path.join(HERE, "round.py"), "--workload", workload,
           "--seed", str(seed), "--cpu", str(cpu)]
    if traced:
        cmd.append("--trace")
    # One BLAS thread per process keeps the fan-out's two workers within
    # nproc and keeps timings of the dense kernels steady on a shared machine.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"round exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["setup_done"] - spawned
    record["wall_s"] = record["done"] - spawned
    record["trials_per_s"] = record["trials"] / (record["done"] - record["setup_done"])
    return record


def best_operations_s(rounds: list[dict]) -> float:
    """Seconds for one round's operations, each timed block at its fastest over the rounds."""
    total = 0.0
    for i in range(len(rounds[0]["ops"])):
        blocks = [r["ops"][i]["blocks"] for r in rounds]
        total += sum(min(times) for times in zip(*blocks))
    return total


def count_operations(rounds: list[dict]) -> tuple[int, list[str]]:
    """Attempted operations and the failure messages of those that failed.

    Besides its own checks, every operation must reproduce the first
    round's output exactly: the rounds of one run share the seed and the
    process count, traced or not, so their TrialStats must be identical.
    """
    reference = {op["name"]: op["signature"] for op in rounds[0]["ops"]}
    attempted, failed = 0, []
    for index, rnd in enumerate(rounds):
        for op in rnd["ops"]:
            attempted += 1
            failures = list(op["failures"])
            if index > 0:
                failures += check_same_stats(
                    f"round {index} vs round 0", op["signature"], reference.get(op["name"])
                )
            if failures:
                failed.append(f"round {index} {op['name']}: {'; '.join(failures)}")
    return attempted, failed


def summary(name: str, values: list[float]) -> dict:
    """Median, quartiles and extremes over the rounds; the median is reported."""
    out = {"unit": UNITS[name], "n": len(values), "median": statistics.median(values),
           "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    out.update(reported="median", value=out["median"])
    return out


def end_to_end_metrics(rounds: list[dict]) -> dict[str, dict]:
    """Summaries of the per-round figures, with the best run for time.

    Other tenants of a shared machine only ever slow a round down, in phases
    that last from seconds to minutes. So the times report the fastest the
    run saw: set-up at its fastest round, every operation at its fastest run
    over the rounds, and the wall time as the sum of the two. Memory reports
    the median.
    """
    metrics = {name: summary(name, [r[name] for r in rounds]) for name, _, _ in END_TO_END}
    setup_s = min(r["setup_s"] for r in rounds)
    ops_s = best_operations_s(rounds)
    best = {
        "setup_s": setup_s,
        "trials_per_s": sum(op["trials"] for op in rounds[0]["ops"]) / ops_s,
        "wall_s": setup_s + ops_s,
    }
    for name, value in best.items():
        metrics[name].update(reported="fastest", value=value)
    return metrics


def per_layer_samples(rounds: list[dict]) -> dict[str, list[float]]:
    plain = [r for r in rounds if not r["trace"]]
    traced = [r for r in rounds if r["trace"]]
    samples = {name: [r["layers"][name] for r in traced] for name in traced[0]["layers"]}
    fanout = [op["fanout"] for r in plain for op in r["ops"] if "fanout" in op]
    # Fan-out is timed in the untraced rounds against the same experiment's
    # serial run; workloads without a fan-out check read 0. The overhead is
    # the parallel time beyond an even split of the serial time.
    samples["harness.fanout.speedup"] = [
        f["serial_s"] / f["parallel_s"] for f in fanout] or [0.0]
    samples["harness.fanout.overhead_s"] = [
        f["parallel_s"] - f["serial_s"] / f["jobs"] for f in fanout] or [0.0]
    samples["trace.overhead_ratio"] = [
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in plain)
    ]
    return samples


def git_sha() -> str:
    """The checked-out commit, or 'unknown' outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def compare(earlier_path: str, later: dict, later_label: str, out) -> None:
    with open(earlier_path) as fh:
        earlier = json.load(fh)
    print(f"{'metric':<48} {'earlier':>14} {'later':>14} {'later/earlier':>14}", file=out)
    for name, entry in later["metrics"].items():
        before = earlier["metrics"].get(name)
        if before is None:
            continue
        old, new = before["value"], entry["value"]
        ratio = f"{new / old:.4f}" if old else "n/a"
        print(f"{name:<48} {old:>14.6g} {new:>14.6g} {ratio:>14}  "
              f"{entry['unit']}, {BETTER.get(name, '?')} is better", file=out)
    print(f"bases: earlier {earlier_path} ({earlier.get('git_sha')}, seed "
          f"{earlier.get('seed')}), later {later_label} ({later.get('git_sha')}, seed "
          f"{later.get('seed')})", file=out)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs="+", metavar="RESULT.json",
                        help="earlier result file, and optionally a later one")
    args = parser.parse_args()

    if args.compare and len(args.compare) == 2:
        with open(args.compare[1]) as fh:
            compare(args.compare[0], json.load(fh), args.compare[1], sys.stdout)
        return 0
    if args.workload is None or (args.compare and len(args.compare) > 2):
        parser.error("give --workload, or --compare EARLIER.json LATER.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "qwitness", "__init__.py")):
        print(f"error: no qwitness source under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2

    # Each CPU of a shared machine slows down and speeds up on its own, so
    # the rounds take turns on the CPUs, an untraced and a traced round on
    # the same CPU: a block's fastest round then has every CPU to come from.
    cpus = sorted(os.sched_getaffinity(0))
    began = time.monotonic()
    rounds: list[dict] = []
    while (len(rounds) < MIN_ROUNDS[args.trace]
           or time.monotonic() - began < args.seconds):
        traced = bool(args.trace) and len(rounds) % 2 == 1
        cpu = cpus[len(rounds) // (args.trace + 1) % len(cpus)]
        rounds.append(spawn_round(args.workload, args.seed, traced, cpu))

    attempted, failed = count_operations(rounds)
    if args.trace:
        metrics = {name: summary(name, values)
                   for name, values in per_layer_samples(rounds).items()}
    else:
        metrics = end_to_end_metrics(rounds)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        **rounds[0]["env"],
        "rounds": len(rounds),
        "attempted": attempted,
        "failed": len(failed),
        "failures": failed,
        "metrics": metrics,
    }
    os.makedirs(os.path.join(OUT_DIR, "raw"), exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}-seed{args.seed}"
    with open(os.path.join(OUT_DIR, "raw", stem + ".jsonl"), "w") as fh:
        for rnd in rounds:
            fh.write(json.dumps(rnd) + "\n")
    with open(os.path.join(OUT_DIR, stem + ".json"), "w") as fh:
        json.dump(result, fh, indent=2)
    if args.compare:
        compare(args.compare[0], result, "this run", sys.stderr)
    for message in failed:
        print(f"FAILED {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
