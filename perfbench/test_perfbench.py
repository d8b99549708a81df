"""Tests of the benchmark itself: its checks fail on faulty outputs, and every
workload runs to its end at a small size."""

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import round as bench_round
import run as bench_run
import workloads
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMALL = 0.05


def _experiment(workload, name):
    (op,) = [op for op in workloads.WORKLOADS[workload].operations if op.name == name]
    return workloads.scaled(op, SMALL)


def _round(ops):
    return {"ops": [dict(op, name=op.get("name", f"op{i}")) for i, op in enumerate(ops)]}


def test_paper_figures():
    # The enumerated completeness error matches the closed binomial sum.
    n, d, q = 16, 2, 9
    closed = sum(
        math.comb(n, x) * d ** -x * (1 - 1 / d) ** (n - x) * (x + 1 - q) / (x + 1)
        for x in range(q, n + 1)
    )
    assert float(workloads.b2a_completeness_error(n, d, q)) == pytest.approx(closed, rel=1e-12)
    assert workloads.a2b_soundness(1, 2).value == 0.75
    assert workloads.abort_rate_bound(100, 2, 60).value == pytest.approx(math.exp(-2))


def test_shifted_target_is_a_failed_operation():
    op = _experiment("receiver", "b2a-soundness-n9-q2")
    spec = bench_round.build_spec(op, workloads.master_seed(1, "receiver", 3), False)
    assert bench_round.run_experiment(op, spec)["failures"] == []
    record = {"metric": "acceptance", "n_trials": op.trials}
    sigma = workloads.std_err(record, op.figure)
    shifted = replace(op, figure=replace(op.figure, value=op.figure.value + 10 * sigma))
    result = bench_round.run_experiment(shifted, spec)
    attempted, failed = bench_run.count_operations([_round([result])])
    assert (attempted, len(failed)) == (1, 1)


def test_stats_from_another_seed_is_a_failed_operation():
    op = _experiment("sender", "a2b-concealment-n2-d3")
    first = bench_round.run_experiment(op, bench_round.build_spec(op, 11, False))
    again = bench_round.run_experiment(op, bench_round.build_spec(op, 11, False))
    other = bench_round.run_experiment(op, bench_round.build_spec(op, 12, False))
    assert bench_run.count_operations([_round([first]), _round([again])])[1] == []
    attempted, failed = bench_run.count_operations([_round([first]), _round([other])])
    assert (attempted, len(failed)) == (2, 1)


def test_superluminal_transcript_is_a_failed_operation():
    from qwitness.harness import run_trial
    from qwitness.spacetime import AgentId, EventKind

    op = _experiment("audit", "b2a-completeness-n4-d2-q2")
    outcome = run_trial(bench_round.build_spec(op, 5, True), 0)
    assert bench_round.outcome_failures(op, outcome) == []
    tr = outcome.transcript
    layout = {e.site.agent_id: e.site for e in tr.events}
    label = tr.emit(0.5, layout[AgentId.B1], EventKind.ANNOUNCE, {"label": 1})
    # A2 sits a light-second away yet depends on B1's simultaneous announcement.
    tr.emit(0.5, layout[AgentId.A2], EventKind.COMMIT_SUSTAIN, {},
            depends_on=(label.event_id,))
    failures = bench_round.outcome_failures(op, outcome)
    assert any("faster than light" in f for f in failures)
    attempted, failed = bench_run.count_operations([_round([{
        "trials": 1, "seconds": 0.0, "signature": None, "failures": failures,
    }])])
    assert (attempted, len(failed)) == (1, 1)


def test_each_block_counts_at_its_fastest_round():
    rounds = [_round([{"blocks": [1.0, 3.0]}, {"blocks": [5.0]}]),
              _round([{"blocks": [2.0, 1.0]}, {"blocks": [4.0]}])]
    assert bench_run.best_operations_s(rounds) == 1.0 + 1.0 + 4.0


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_runs_clean_at_small_size(workload):
    record = bench_round.run_round(workload, seed=3, scale=SMALL)
    assert [op["failures"] for op in record["ops"]] == [[]] * len(record["ops"])
    assert record["trials"] > 0 and record["done"] > record["setup_done"]


def test_traced_round_reports_every_layer_and_restores_the_package():
    import qwitness.protocols
    import qwitness.qudit

    original = qwitness.protocols.measure_binary
    allowed = os.sched_getaffinity(0)
    cpu = min(allowed)
    record = bench_round.run_round("audit", seed=4, trace=True, scale=SMALL, cpu=cpu)
    assert record["cpu"] == cpu and os.sched_getaffinity(0) == allowed
    assert qwitness.protocols.measure_binary is original
    assert qwitness.qudit.PureState.__post_init__.__name__ == "__post_init__"
    assert not hasattr(qwitness.qudit.PureState.__post_init__, "__wrapped__")
    layers = record["layers"]
    derived = {"harness.fanout.overhead_s", "harness.fanout.speedup", "trace.overhead_ratio"}
    assert set(layers) | derived == {name for name, _, _ in bench_run.PER_LAYER}
    assert layers["spacetime.validate.us_per_trial"] > 0
    assert layers["cli.main.self_s"] > 0
    fanout = [op["fanout"] for op in record["ops"] if "fanout" in op]
    assert len(fanout) == 1 and fanout[0]["parallel_s"] > 0


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    tracer.install()
    try:
        from qwitness.harness import ExperimentSpec, Metric, run_trials
        from qwitness.protocols import Protocol, ProtocolParams
        from qwitness.strategies import AliceKind, AliceStrategy, BobKind, BobStrategy

        spec = ExperimentSpec(
            Protocol.QUANTUM_B2A, ProtocolParams(d=2, n=4, q=2),
            AliceStrategy(AliceKind.HONEST_KNOWING), BobStrategy(BobKind.HONEST),
            Metric.ACCEPTANCE, 20, 7,
        )
        run_trials(spec)
    finally:
        tracer.uninstall()
    name = "protocols.run_protocol"
    assert tracer.calls[name] == 20
    assert 0 < tracer.self_time[name] < tracer.total[name]
    assert tracer.calls["qudit.haar_random"] == 20 * (1 + 4)
    assert tracer.layer_metrics()["commitment.ops_per_trial"] > 0


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in bench_run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in bench_run.PER_LAYER
    ]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def _run_command(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_command_prints_the_result_line():
    proc = _run_command(ROOT, "--workload", "receiver", "--seed", "2", "--seconds", "0",
                        "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == bench_run.MIN_ROUNDS[0] * 6
    assert list(result["metrics"]) == [name for name, _, _ in bench_run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env_free = _run_command(tmp_path, "--workload", "receiver", "--seed", "1",
                            "--seconds", "1", "--trace", "0")
    assert env_free.returncode != 0
    assert env_free.stdout.strip() == ""


def test_compare_prints_each_ratio_with_both_bases(tmp_path):
    def result(sha, rate):
        return {"git_sha": sha, "seed": 1, "metrics": {
            "trials_per_s": {"value": rate, "unit": "trials/s"}}}

    earlier, later = tmp_path / "a.json", tmp_path / "b.json"
    earlier.write_text(json.dumps(result("aaa", 100.0)))
    later.write_text(json.dumps(result("bbb", 150.0)))
    proc = _run_command(ROOT, "--compare", str(earlier), str(later))
    assert proc.returncode == 0, proc.stderr
    assert "1.5000" in proc.stdout
    assert "aaa" in proc.stdout and "bbb" in proc.stdout
