"""One round of a workload: set up, run every operation, check every output.

``run.py`` starts each round as a fresh process, so set-up pays for the
interpreter, the imports and the cold ``sym_projector`` cache every time:

    python3 perfbench/round.py --workload receiver --seed 1 [--trace] [--cpu N]

The round prints one JSON object on its last stdout line. Its timestamps
come from ``time.monotonic``, the system-wide clock the parent also reads.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# Trials per timed block of an experiment. Every round of a run repeats the
# same work block for block, so run.py can take each block at its fastest.
BLOCK_TRIALS = 5

from workloads import (  # noqa: E402
    CLI_JSONL_FIELDS,
    FANOUT_JOBS,
    JSONL_FIELDS,
    WORKLOADS,
    CliRun,
    check_figure,
    check_jsonl_fields,
    check_same_stats,
    lightcone_violations,
    master_seed,
    scaled,
)


def stats_record(stats) -> dict:
    """A TrialStats as plain JSON; floats round-trip exactly through repr."""
    return {
        "metric": stats.metric.value,
        "n_trials": stats.n_trials,
        "successes": stats.successes,
        "value_sum": stats.value_sum,
        "value_sumsq": stats.value_sumsq,
    }


def build_spec(op, seed: int, validate: bool):
    from qwitness.harness import ExperimentSpec, Metric
    from qwitness.protocols import Protocol, ProtocolParams
    from qwitness.strategies import AliceStrategy, BobStrategy

    return ExperimentSpec(
        Protocol(op.protocol),
        ProtocolParams(d=op.d, n=op.n, q=op.q, eps_c_target=op.eps_c),
        AliceStrategy.from_name(op.alice),
        BobStrategy.from_name(op.bob),
        Metric(op.metric),
        op.trials,
        seed,
        validate_transcripts=validate,
    )


def outcome_failures(op, outcome) -> list[str]:
    """Transcript and honest-Bob properties of one protocol outcome."""
    from qwitness.spacetime import AgentId, EventKind

    events = outcome.transcript.events
    failures = []
    report = outcome.transcript.validate()
    if not report.ok:
        failures.append(f"validator reports {len(report.violations)} violations")
    failures += lightcone_violations(events)
    lines = [json.loads(line) for line in outcome.transcript.to_jsonl().splitlines()]
    failures += check_jsonl_fields(lines, JSONL_FIELDS)
    if op.protocol.startswith("b2a") and op.bob == "honest":
        if outcome.bob_guess is not None:
            failures.append("honest Bob made a guess")
        b_sites = (AgentId.B1, AgentId.B2)
        if any(e.kind is EventKind.MEASURE and e.site.agent_id in b_sites for e in events):
            failures.append("honest Bob has a measure event at a B site")
    return failures


def run_experiment(op, spec) -> dict:
    """Run the trials in timed blocks of BLOCK_TRIALS, then check the outputs."""
    from qwitness.harness import run_trial, run_trials_range

    stats, blocks = None, []
    for start in range(0, spec.n_trials, BLOCK_TRIALS):
        t0 = time.perf_counter()
        part = run_trials_range(spec, start, min(start + BLOCK_TRIALS, spec.n_trials))
        blocks.append(time.perf_counter() - t0)
        stats = part if stats is None else stats.merge(part)
    record = stats_record(stats)
    t0 = time.perf_counter()
    failures = check_figure(record, op.figure)
    for i in range(op.sample):
        failures += [f"trial {i}: {f}" for f in outcome_failures(op, run_trial(spec, i))]
    blocks.append(time.perf_counter() - t0)
    return {
        "trials": spec.n_trials + op.sample, "run_trials_s": sum(blocks[:-1]),
        "blocks": blocks, "signature": record, "failures": failures,
    }


def check_fanout(spec, result: dict) -> None:
    """Rerun with FANOUT_JOBS processes; the TrialStats must match exactly."""
    from qwitness.harness import run_trials

    t0 = time.perf_counter()
    record = stats_record(run_trials(spec, jobs=FANOUT_JOBS))
    result["fanout"] = {
        "jobs": FANOUT_JOBS, "serial_s": result["run_trials_s"],
        "parallel_s": time.perf_counter() - t0,
    }
    result["failures"] += check_same_stats(
        f"jobs={FANOUT_JOBS} vs jobs=1", record, result["signature"]
    )


def run_cli(op: CliRun, seed: int) -> dict:
    from qwitness import cli

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"cli-{os.getpid()}")
    csv_path, jsonl_path = stem + ".csv", stem + ".jsonl"
    argv = [
        "simulate", "--protocol", op.protocol, "--d", str(op.d), "--q", str(op.q),
        "--alice", op.alice, "--trials", str(op.trials), "--seed", str(seed),
        "--out", csv_path, "--transcripts", jsonl_path,
        "--transcript-limit", str(op.transcript_limit),
    ]
    code = cli.main(argv)
    try:
        with open(csv_path, "rb") as fh:
            csv_bytes = fh.read()
        with open(jsonl_path, "rb") as fh:
            jsonl_bytes = fh.read()
    finally:
        for path in (csv_path, jsonl_path):
            if os.path.exists(path):
                os.remove(path)
    failures = [] if code == 0 else [f"cli exit code {code}"]
    (row,) = csv.DictReader(csv_bytes.decode().splitlines())
    n = int(row["n_trials"])
    record = {
        "metric": row["metric"], "n_trials": n,
        "successes": round(float(row["estimate"]) * n),
    }
    failures += check_figure(record, op.figure)
    # The CLI's own pass/fail verdict is a 3-sigma gate that a correct
    # sampler fails on about 0.3% of seeds, so only its target is checked.
    if not math.isclose(float(row["target"]), op.figure.value, rel_tol=1e-11):
        failures.append(f"cli target {row['target']} vs {op.figure.label} = {op.figure.value}")
    lines = [json.loads(line) for line in jsonl_bytes.decode().splitlines()]
    failures += check_jsonl_fields(lines, CLI_JSONL_FIELDS)
    trials_seen = {line.get("trial") for line in lines}
    if trials_seen != set(range(min(n, op.transcript_limit))):
        failures.append(f"transcript trials {sorted(trials_seen, key=str)}")
    digest = hashlib.sha256(csv_bytes + b"\0" + jsonl_bytes).hexdigest()
    return {
        "trials": n + min(n, op.transcript_limit),
        "signature": digest, "failures": failures,
    }


def run_round(workload: str, seed: int, trace: bool = False, scale: float = 1.0,
              cpu: int | None = None) -> dict:
    """Run one round in this process and return its record.

    With ``cpu`` set, everything up to the fan-out check runs on that CPU.
    """
    start = time.monotonic()
    allowed = os.sched_getaffinity(0)
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    import numpy as np

    from tracing import Tracer

    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        wl = WORKLOADS[workload]
        ops = [scaled(op, scale) if scale != 1.0 else op for op in wl.operations]
        specs, results, setup_done, done = _run_operations(wl, ops, seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    # Linux reports ru_maxrss in KiB: the round's own peak plus the largest
    # worker's peak, before the fan-out check below starts any worker.
    peak_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    os.sched_setaffinity(0, allowed)
    layers = None
    if tracer is not None:
        layers = tracer.layer_metrics()
        dump_dir = os.path.join(OUT_DIR, "trace")
        os.makedirs(dump_dir, exist_ok=True)
        tracer.dump(os.path.join(dump_dir, f"{workload}-seed{seed}.json"))
    for op, spec, result in zip(ops, specs, results):
        if getattr(op, "jobs_check", False) and result["signature"] is not None:
            try:
                check_fanout(spec, result)
            except Exception:  # reported as the operation's failure
                result["failures"].append(traceback.format_exc(limit=3))
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "cpu": cpu,
        "start": start,
        "setup_done": setup_done,
        "done": done,
        "trials": sum(r["trials"] for r in results),
        "peak_rss_mb": peak_kib / 1024.0,
        "ops": results,
        "layers": layers,
        "env": {
            "numpy": np.__version__,
            "blas": _blas_version(np),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        },
    }


def _run_operations(wl, ops, seed: int):
    """Set up, then run every operation; returns the specs, results and times."""
    from qwitness.harness import run_trial

    seeds = [master_seed(seed, wl.name, i) for i in range(len(ops))]
    specs = [
        None if isinstance(op, CliRun) else build_spec(op, s, wl.validate_transcripts)
        for op, s in zip(ops, seeds)
    ]
    # Set-up ends once each experiment's first trial has run on cold caches.
    for spec in specs:
        if spec is not None:
            run_trial(spec, 0)
    setup_done = time.monotonic()
    results = []
    for op, spec, s in zip(ops, specs, seeds):
        t0 = time.perf_counter()
        try:
            result = run_cli(op, s) if spec is None else run_experiment(op, spec)
        except Exception:  # one operation failing must not stop the round
            result = {
                "trials": 0, "signature": None,
                "failures": [traceback.format_exc(limit=3)],
            }
        seconds = time.perf_counter() - t0
        result.update(name=op.name, seconds=seconds)
        result.setdefault("blocks", [seconds])
        results.append(result)
    return specs, results, setup_done, time.monotonic()


def _blas_version(np) -> str:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cpu", type=int)
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    record = run_round(args.workload, args.seed, args.trace, cpu=args.cpu)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
