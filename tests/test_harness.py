"""Experiment runner: determinism, merging, comparisons, sweeps."""

import concurrent.futures
import os
from dataclasses import replace

import numpy as np
import pytest

from qwitness import harness
from qwitness.errors import ConfigurationError
from qwitness.harness import (
    ExperimentSpec,
    Metric,
    TrialStats,
    compare_to_formula,
    formula_target,
    result_row,
    rows_to_csv,
    run_trial,
    run_trials,
    run_trials_range,
    sweep,
)
from qwitness.protocols import BoundKind, Protocol, ProtocolParams, eps_c_b2a_exact
from qwitness.strategies import AliceKind, AliceStrategy, BobKind, BobStrategy

HONEST_A = AliceStrategy(AliceKind.HONEST_KNOWING)
IGNORANT = AliceStrategy(AliceKind.IGNORANT)
HONEST_B = BobStrategy(BobKind.HONEST)


def spec_b2a(n_trials=500, seed=11, **params):
    defaults = dict(d=2, n=4, q=2)
    defaults.update(params)
    return ExperimentSpec(
        Protocol.QUANTUM_B2A,
        ProtocolParams(**defaults),
        IGNORANT,
        HONEST_B,
        Metric.ACCEPTANCE,
        n_trials,
        seed,
    )


def test_empty_experiment_rejected():
    with pytest.raises(ConfigurationError):
        run_trials(spec_b2a(n_trials=0))


def test_determinism_bitwise():
    spec = spec_b2a(n_trials=400)
    first = run_trials(spec)
    second = run_trials(spec)
    assert first == second
    # Per-trial transcripts reproduce exactly as well.
    t1 = run_trial(spec, 7).transcript.to_jsonl()
    t2 = run_trial(spec, 7).transcript.to_jsonl()
    assert t1 == t2


def test_seed_changes_stream():
    assert run_trials(spec_b2a(seed=1)) != run_trials(spec_b2a(seed=2))


def test_merge_associativity():
    spec = spec_b2a(n_trials=600)
    whole = run_trials(spec)
    a = run_trials_range(spec, 0, 123)
    b = run_trials_range(spec, 123, 410)
    c = run_trials_range(spec, 410, 600)
    assert a.merge(b).merge(c) == whole
    assert a.merge(b.merge(c)) == whole


def test_parallel_jobs_match_serial():
    fidelity = ExperimentSpec(
        Protocol.CLASSICAL1,
        ProtocolParams(d=2, eps_c_target=0.1),
        HONEST_A,
        BobStrategy(BobKind.MEASURE_RETAIN_GUESS),
        Metric.MEAN_FSQ,
        2000,
        3,
    )
    for spec in (spec_b2a(n_trials=300), fidelity):
        assert run_trials(spec, jobs=2) == run_trials(spec, jobs=1)


@pytest.mark.parametrize("jobs", [0, (os.cpu_count() or 1) + 1])
def test_jobs_outside_cpu_range_rejected_before_any_pool(jobs, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    with pytest.raises(ConfigurationError):
        run_trials(spec_b2a(n_trials=10), jobs=jobs)


def test_honest_sender_protocol_degenerate_stats():
    spec = ExperimentSpec(
        Protocol.QUANTUM_A2B,
        ProtocolParams(d=2, n=1),
        HONEST_A,
        HONEST_B,
        Metric.ACCEPTANCE,
        300,
        3,
    )
    stats = run_trials(spec)
    assert stats.p_hat == 1.0
    assert stats.std_err == 0.0


def test_metric_requires_matching_strategy():
    spec = ExperimentSpec(
        Protocol.QUANTUM_B2A,
        ProtocolParams(d=2, n=4, q=2),
        IGNORANT,
        HONEST_B,
        Metric.MEAN_FSQ,
        10,
        0,
    )
    with pytest.raises(ConfigurationError, match="trial 0"):
        run_trials(spec)


def test_validate_transcripts_flag():
    spec = ExperimentSpec(
        Protocol.QUANTUM_B2A,
        ProtocolParams(d=2, n=4, q=2),
        HONEST_A,
        HONEST_B,
        Metric.ACCEPTANCE,
        25,
        5,
        validate_transcripts=True,
    )
    run_trials(spec)  # honest runs must not trip the validator


# ---------------------------------------------------------------------------
# stats arithmetic


def test_bernoulli_stats_fields():
    stats = TrialStats(Metric.ACCEPTANCE, 400, successes=100)
    assert stats.p_hat == pytest.approx(0.25)
    assert stats.std_err == pytest.approx((0.25 * 0.75 / 400) ** 0.5)
    lo, hi = stats.ci95
    assert lo < 0.25 < hi


def test_mean_stats_fields():
    values = np.array([0.1, 0.4, 0.7, 0.9])
    stats = TrialStats(
        Metric.MEAN_FSQ,
        4,
        value_sum=float(values.sum()),
        value_sumsq=float((values**2).sum()),
    )
    assert stats.mean == pytest.approx(values.mean())
    assert stats.std_err == pytest.approx(values.std(ddof=1) / 2)


def test_formula_stats_have_zero_error():
    stats = TrialStats.from_formula(Metric.ACCEPTANCE, 0.3)
    assert stats.estimate == 0.3
    assert stats.std_err == 0.0
    with pytest.raises(ConfigurationError):
        stats.merge(stats)


# ---------------------------------------------------------------------------
# formula comparison


def test_compare_exact_pass_and_fail():
    stats = TrialStats(Metric.ACCEPTANCE, 10_000, successes=5000)
    assert compare_to_formula(stats, 0.5).passed
    assert not compare_to_formula(stats, 0.5 + 10 * stats.std_err).passed


def test_compare_degenerate_uses_atol():
    stats = TrialStats(Metric.ACCEPTANCE, 100, successes=100)
    assert compare_to_formula(stats, 1.0).passed
    assert not compare_to_formula(stats, 0.999).passed


def test_compare_bounds_one_sided():
    stats = TrialStats(Metric.ACCEPTANCE, 10_000, successes=3000)
    below = compare_to_formula(stats, 0.9, kind=BoundKind.UPPER)
    assert below.passed
    above = compare_to_formula(stats, 0.1, kind=BoundKind.UPPER)
    assert not above.passed
    assert compare_to_formula(stats, 0.1, kind=BoundKind.LOWER).passed
    assert not compare_to_formula(stats, 0.9, kind=BoundKind.LOWER).passed


def test_formula_targets():
    spec = spec_b2a()
    assert formula_target(spec) == (2 / 5, BoundKind.EXACT)
    honest = ExperimentSpec(
        Protocol.QUANTUM_B2A, ProtocolParams(d=2, n=4, q=2),
        HONEST_A, HONEST_B, Metric.ACCEPTANCE, 10, 0,
    )
    target, kind = formula_target(honest)
    assert target == pytest.approx(1 - eps_c_b2a_exact(4, 2, 2))
    assert kind is BoundKind.EXACT
    retain = ExperimentSpec(
        Protocol.QUANTUM_B2A, ProtocolParams(d=3, n=4, q=2),
        HONEST_A, BobStrategy(BobKind.MEASURE_RETAIN_GUESS), Metric.MEAN_FSQ, 10, 0,
    )
    assert formula_target(retain) == (1.0, BoundKind.UPPER)
    # Concealment figures hold for honest Alice; other Alices get no target.
    a2b_retain = ExperimentSpec(
        Protocol.QUANTUM_A2B, ProtocolParams(d=3, n=2),
        HONEST_A, BobStrategy(BobKind.MEASURE_RETAIN_GUESS), Metric.MEAN_FSQ, 10, 0,
    )
    assert formula_target(a2b_retain) == (4 / 6, BoundKind.EXACT)
    assert formula_target(replace(a2b_retain, alice=IGNORANT)) is None
    classical_retain = ExperimentSpec(
        Protocol.CLASSICAL1, ProtocolParams(d=2),
        IGNORANT, BobStrategy(BobKind.MEASURE_RETAIN_GUESS), Metric.MEAN_FSQ, 10, 0,
    )
    assert formula_target(classical_retain) is None
    assert formula_target(replace(classical_retain, alice=HONEST_A)) == (1.0, BoundKind.LOWER)


# ---------------------------------------------------------------------------
# sweeps and export


def test_sweep_empty_values():
    assert sweep(spec_b2a(), "n", []) == []


def test_sweep_rejects_unknown_axis():
    with pytest.raises(ConfigurationError):
        sweep(spec_b2a(), "banana", [1])


def test_sweep_checks_every_row_before_running_any(monkeypatch):
    def no_trials(*args):
        raise AssertionError("a row ran before every row was checked")

    monkeypatch.setattr(harness, "run_trials", no_trials)
    for axis, values in (("q", [2, 99]), ("abort_epsilon", [0.1])):
        with pytest.raises(ConfigurationError):
            sweep(spec_b2a(), axis, values)


def test_sweep_sender_soundness_decreases():
    base = ExperimentSpec(
        Protocol.QUANTUM_A2B,
        ProtocolParams(d=2, n=1),
        IGNORANT,
        HONEST_B,
        Metric.ACCEPTANCE,
        4000,
        17,
    )
    rows = sweep(base, "n", [1, 2, 4])
    targets = [row.target for row in rows]
    assert targets == sorted(targets, reverse=True)
    assert all(row.passed for row in rows)
    estimates = [row.stats.estimate for row in rows]
    assert estimates == sorted(estimates, reverse=True)


def test_sweep_receiver_completeness_decreases():
    base = ExperimentSpec(
        Protocol.QUANTUM_B2A,
        ProtocolParams(d=2, n=8),  # q defaults to ceil((n+1)/2) per row
        HONEST_A,
        HONEST_B,
        Metric.ACCEPTANCE,
        1500,
        19,
    )
    rows = sweep(base, "n", [8, 16, 32])
    targets = [row.target for row in rows]
    assert targets == sorted(targets)  # acceptance 1 - reject rises with n
    assert all(row.passed for row in rows)


def test_csv_round_trip_and_formatting():
    spec = spec_b2a(n_trials=200)
    stats = run_trials(spec)
    row = result_row(spec, stats, formula_target(spec))
    text = rows_to_csv([row])
    header, line = text.strip().split("\n")
    assert header.startswith("protocol,alice,bob,metric,d,n,q")
    assert line.startswith("b2a,ignorant,honest,acceptance,2,4,2")
    assert "pass" in line or "fail" in line
