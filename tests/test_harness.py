"""Experiment runner: determinism, merging, comparisons, sweeps."""

import concurrent.futures
import hashlib
import os
from dataclasses import replace

import numpy as np
import pytest

from gates import built_pairings
from qwitness import harness, protocols
from qwitness.errors import ConfigurationError
from qwitness.cli import rows_to_csv
from qwitness.harness import (
    BoundKind,
    ExperimentSpec,
    Metric,
    TrialStats,
    compare_to_formula,
    formula_target,
    result_row,
    run_trial,
    run_trials,
    run_trials_range,
    sweep,
)
from qwitness.protocols import Protocol, ProtocolParams, eps_c_b2a_exact
from qwitness.spacetime import A2, B1, EventKind
from qwitness.strategies import AliceKind, AliceStrategy, BobKind, BobStrategy

HONEST_A = AliceStrategy(AliceKind.HONEST_KNOWING)
IGNORANT = AliceStrategy(AliceKind.IGNORANT)
HONEST_B = BobStrategy(BobKind.HONEST)
ALWAYS_ABORT = AliceStrategy(AliceKind.ALWAYS_ABORT)
SKIP = BobStrategy(BobKind.SKIP_PROTOCOL_MEASURE)


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


_SWEEP_ROW_SEED = int(np.random.SeedSequence(11, spawn_key=(10_000,)).generate_state(1)[0])


@pytest.mark.parametrize(
    "master", [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 3, 5**90, _SWEEP_ROW_SEED]
)
def test_trial_rng_equals_seed_sequence(master):
    # 5**90 has more words than SeedSequence's pool; from index 2 on, the
    # index times the jump step wraps modulo 2**128.
    for index in (0, 1, 255, 256, 257, 2**31, 2**32 - 1, 2**32, 2**40 + 9):
        ours = harness.trial_rng(master, index)
        numpy_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(master)).jumped(index))
        assert ours.bit_generator.state == numpy_rng.bit_generator.state, (master, index)
        assert np.array_equal(ours.standard_normal(8), numpy_rng.standard_normal(8))


@pytest.mark.parametrize("master, index", [(-1, 0), (0, -1), (-(2**40), 3)])
def test_trial_rng_rejects_negative_seed_or_index(master, index):
    with pytest.raises(ValueError):
        harness.trial_rng(master, index)


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
    assert stats.estimate == 1.0
    assert stats.std_err == 0.0


def test_metric_requires_matching_strategy():
    # Each is rejected when the spec is built, before any trial runs.
    for protocol, params, alice, bob, metric in [
        (Protocol.QUANTUM_B2A, ProtocolParams(d=2, n=4, q=2), IGNORANT, HONEST_B, Metric.MEAN_FSQ),
        (Protocol.CLASSICAL1, ProtocolParams(d=3), HONEST_A, HONEST_B, Metric.ALICE_MEAN_FSQ),
        (Protocol.CLASSICAL1, ProtocolParams(d=3), HONEST_A, HONEST_B, Metric.ABORT_RATE),
        (Protocol.CLASSICAL1, ProtocolParams(d=3), ALWAYS_ABORT, HONEST_B, Metric.ACCEPTANCE),
        (Protocol.QUANTUM_B2A, ProtocolParams(d=2, n=4), HONEST_A, SKIP, Metric.ACCEPTANCE),
    ]:
        with pytest.raises(ConfigurationError):
            ExperimentSpec(protocol, params, alice, bob, metric, 10, 0)


def test_trial_amplitudes_over_the_cap_rejected_when_built():
    # Specs are only built here: a spec that slipped past the cap would
    # allocate gigabytes in its first trial.
    cap = harness.TRIAL_AMPLITUDE_CAP
    side = 2**11  # side * side == cap
    subspace = AliceStrategy(AliceKind.SUBSPACE_KNOWLEDGE, 2)
    fits_and_over = [
        (Protocol.CLASSICAL1, dict(d=side), dict(d=side + 1), IGNORANT),
        (Protocol.CLASSICAL2, dict(d=side, q=2), dict(d=side + 1, q=2), IGNORANT),
        (Protocol.QUANTUM_B2A, dict(d=2, n=cap // 2 - 1), dict(d=2, n=cap // 2), IGNORANT),
        (Protocol.QUANTUM_B2A_ABORT, dict(d=4, n=cap // 4 - 1, q=1),
         dict(d=4, n=cap // 4, q=1), IGNORANT),
        (Protocol.QUANTUM_A2B, dict(d=cap, n=10**9), dict(d=cap + 1, n=10**9), subspace),
    ]
    for protocol, fits, over, alice in fits_and_over:
        ExperimentSpec(protocol, ProtocolParams(**fits), alice, HONEST_B, Metric.ACCEPTANCE, 2, 0)
        with pytest.raises(ConfigurationError, match="over the cap"):
            ExperimentSpec(
                protocol, ProtocolParams(**over), alice, HONEST_B, Metric.ACCEPTANCE, 2, 0
            )
    # a2b holds d amplitudes for every Alice, whatever n and k are.
    for alice in (IGNORANT, AliceStrategy(AliceKind.SUBSPACE_KNOWLEDGE, cap)):
        ExperimentSpec(Protocol.QUANTUM_A2B, ProtocolParams(d=cap, n=10**9), alice, HONEST_B,
                       Metric.ACCEPTANCE, 2, 0)


def test_every_pairing_runs_or_is_rejected_when_built():
    # Every spec either fails to build or runs to the end: no strategy or
    # metric fails inside a trial, and every trial's event log passes the
    # light-cone validator, whichever layout branch it takes.
    clean = 0
    for spec in built_pairings(40, 7):
        run_trials(replace(spec, validate_transcripts=True))
        clean += 1
    # The table admits every pairing the paper's figures need, and no more.
    assert clean == 96


def _target_digest(specs):
    """Count and sha256 of every spec's target, value to the last bit."""
    lines = []
    for spec in specs:
        target = formula_target(spec)
        if target is not None:
            alice = spec.alice.kind.value
            if spec.alice.subspace_dim is not None:
                alice = f"{alice}-{spec.alice.subspace_dim}"
            lines.append(",".join((
                spec.protocol.value, alice, spec.bob.kind.value, spec.metric.value,
                f"eps={spec.params.eps_c_target}", target[0].hex(), target[1].value,
            )))
    lines.sort()
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize(
    "params, count, digest",
    [
        (dict(), 25, "bf6f4a6269991fc28acbe81ce72da3e8557cb4c47d95718e3dc3fff96ae5863d"),
        (
            dict(d=4, n=9, q=3, eps_c_targets=(0.0, 0.1)),
            33,
            "c8edcbd1b57eef9d1eb9ed5f8f2344d0c1e76a6b9f4ad9c4b59d409f58a56634",
        ),
    ],
    ids=["d3", "d4-n9-q3"],
)
def test_every_target_is_pinned_bit_for_bit(params, count, digest):
    # Each target's value and kind, compared through float.hex, so a refactor
    # of the target formulas cannot move a figure by one unit in the last place.
    assert _target_digest(built_pairings(1, 0, **params)) == (count, digest)


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


def test_validate_transcripts_flag_rejects_a_superluminal_log(monkeypatch):
    true_log = protocols._b2a_log

    def superluminal_log(*args):
        tr = true_log(*args)
        # A2 sits a light-second from B1 yet depends on B1's simultaneous announcement.
        label = tr.emit(0.5, B1, EventKind.ANNOUNCE, {"label": 1})
        tr.emit(0.5, A2, EventKind.COMMIT_SUSTAIN, {}, depends_on=(label.event_id,))
        return tr

    monkeypatch.setattr(protocols, "_b2a_log", superluminal_log)
    spec = spec_b2a(n_trials=5, seed=5)
    with pytest.raises(ConfigurationError, match=r"^trial 0: transcript violations"):
        run_trials(replace(spec, validate_transcripts=True))
    assert run_trials(spec).n_trials == 5


# ---------------------------------------------------------------------------
# stats arithmetic


def test_bernoulli_stats_fields():
    stats = TrialStats(Metric.ACCEPTANCE, 400, successes=100)
    assert stats.estimate == pytest.approx(0.25)
    assert stats.std_err == pytest.approx((0.25 * 0.75 / 400) ** 0.5)


def test_mean_stats_fields():
    values = np.array([0.1, 0.4, 0.7, 0.9])
    stats = TrialStats(
        Metric.MEAN_FSQ,
        4,
        value_sum=float(values.sum()),
        value_sumsq=float((values**2).sum()),
    )
    assert stats.estimate == pytest.approx(values.mean())
    assert stats.std_err == pytest.approx(values.std(ddof=1) / 2)


# ---------------------------------------------------------------------------
# formula comparison


def test_compare_exact_pass_and_fail():
    stats = TrialStats(Metric.ACCEPTANCE, 10_000, successes=5000)
    assert compare_to_formula(stats.estimate, stats.std_err, 0.5)
    assert not compare_to_formula(stats.estimate, stats.std_err, 0.5 + 10 * stats.std_err)


def test_compare_degenerate_uses_atol():
    stats = TrialStats(Metric.ACCEPTANCE, 100, successes=100)
    assert compare_to_formula(stats.estimate, stats.std_err, 1.0)
    assert not compare_to_formula(stats.estimate, stats.std_err, 0.999)


def test_compare_bounds_one_sided():
    stats = TrialStats(Metric.ACCEPTANCE, 10_000, successes=3000)
    p, se = stats.estimate, stats.std_err
    assert compare_to_formula(p, se, 0.9, kind=BoundKind.UPPER)
    assert not compare_to_formula(p, se, 0.1, kind=BoundKind.UPPER)
    assert compare_to_formula(p, se, 0.1, kind=BoundKind.LOWER)
    assert not compare_to_formula(p, se, 0.9, kind=BoundKind.LOWER)


@pytest.mark.parametrize(
    "soundness, d, passed",
    [(0.25, 4, True), (0.75, 2, True), (0.125, 4, False)],
    ids=["zero-slack", "large-margin", "below-floor"],
)
def test_compare_soundness_floor(soundness, d, passed):
    # The floor s >= (1 - eps_c)/d at eps_c = 0, as a lower figure of exact values.
    assert compare_to_formula(soundness, 0.0, 1 / d, kind=BoundKind.LOWER) == passed


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
    # A stealing Alice estimates the system Bob points at: the unknown state
    # when Bob is honest, a Haar substitute when retain-guess Bob keeps it.
    steal = ExperimentSpec(
        Protocol.QUANTUM_B2A, ProtocolParams(d=3, n=4, q=2),
        AliceStrategy(AliceKind.STEAL_STATE), HONEST_B, Metric.ALICE_MEAN_FSQ, 10, 0,
    )
    assert formula_target(steal) == (2 / 4, BoundKind.EXACT)
    retain_bob = BobStrategy(BobKind.MEASURE_RETAIN_GUESS)
    assert formula_target(replace(steal, bob=retain_bob)) is None


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
    with pytest.raises(ConfigurationError):
        sweep(spec_b2a(), "q", [2, 99])


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
    table = [result_row(row.spec, row.stats) for row in rows]
    targets = [row["target"] for row in table]
    assert targets == sorted(targets, reverse=True)
    assert all(row["verdict"] == "pass" for row in table)
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
    table = [result_row(row.spec, row.stats) for row in rows]
    targets = [row["target"] for row in table]
    assert targets == sorted(targets)  # acceptance 1 - reject rises with n
    assert all(row["verdict"] == "pass" for row in table)


def test_csv_round_trip_and_formatting():
    spec = spec_b2a(n_trials=200)
    stats = run_trials(spec)
    row = result_row(spec, stats)
    text = rows_to_csv([row])
    header, line = text.strip().split("\n")
    assert header.startswith("protocol,alice,bob,metric,d,n,q")
    assert line.startswith("b2a,ignorant,honest,acceptance,2,4,2")
    assert "pass" in line or "fail" in line
