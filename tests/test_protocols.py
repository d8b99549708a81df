"""Protocol state machines against the exact security figures."""

import math

import numpy as np
import pytest

from qwitness.errors import ConfigurationError
from qwitness.harness import ExperimentSpec, Metric, TrialStats, compare_to_formula, run_trials
from qwitness.protocols import (
    BoundKind,
    Protocol,
    ProtocolParams,
    Verdict,
    a2b_soundness,
    closed_forms,
    eps_c_b2a_exact,
    hoeffding_bound,
    run_classical1,
    run_classical2,
    run_protocol,
    run_quantum_a2b,
    run_quantum_b2a,
    run_quantum_b2a_abort,
    soundness_floor_audit,
)
from qwitness.qudit import sym_dim
from qwitness.spacetime import AgentId, EventKind
from qwitness.strategies import AliceKind, AliceStrategy, BobKind, BobStrategy

HONEST_A = AliceStrategy(AliceKind.HONEST_KNOWING)
IGNORANT = AliceStrategy(AliceKind.IGNORANT)
HONEST_B = BobStrategy(BobKind.HONEST)


def bernoulli_se(p, n):
    return math.sqrt(max(p * (1 - p), 1e-12) / n)


# ---------------------------------------------------------------------------
# closed forms


def test_closed_forms_sender_protocol():
    fig = closed_forms(Protocol.QUANTUM_A2B, ProtocolParams(d=2, n=1))
    assert fig.completeness_err == 0.0
    assert fig.soundness == pytest.approx(0.75)
    assert fig.concealment == pytest.approx(0.75)
    assert fig.baseline_fsq == pytest.approx(2 / 3)


def test_closed_forms_receiver_protocol():
    fig = closed_forms(Protocol.QUANTUM_B2A, ProtocolParams(d=9, n=9, q=1))
    assert fig.concealment == pytest.approx(0.4)
    assert fig.concealment_kind is BoundKind.UPPER
    assert fig.baseline_fsq == pytest.approx(0.2)
    assert fig.soundness == pytest.approx(0.1)


def test_closed_forms_classical():
    fig = closed_forms(Protocol.CLASSICAL1, ProtocolParams(d=5))
    assert fig.soundness == pytest.approx(1 / 5)
    assert fig.concealment == pytest.approx(1.0)
    assert fig.concealment_kind is BoundKind.LOWER
    fig2 = closed_forms(Protocol.CLASSICAL2, ProtocolParams(d=6, q=3, eps_c_target=0.1))
    assert fig2.soundness == pytest.approx(0.5)
    assert fig2.concealment == pytest.approx(0.9**2 / 3)


def test_sender_soundness_closed_form_matches_dimension_ratio():
    for n in range(0, 51):
        for d in range(2, 51):
            ratio = sym_dim(n + 1, d) / (sym_dim(n, d) * d)
            assert abs(ratio - a2b_soundness(n, d)) < 1e-12


def test_sender_concealment_exceeds_soundness_reciprocal():
    for n in range(1, 21):
        for d in range(2, 21):
            fig = closed_forms(Protocol.QUANTUM_A2B, ProtocolParams(d=d, n=n))
            assert fig.concealment > 1 / (d * fig.soundness)


# ---------------------------------------------------------------------------
# receiver completeness formula


def test_reject_probability_empty_sum():
    assert eps_c_b2a_exact(4, 2, 5) == 0.0  # q = n + 1


def test_reject_probability_small_cases():
    assert eps_c_b2a_exact(1, 2, 1) == pytest.approx(1 / 4)
    assert eps_c_b2a_exact(2, 2, 1) == pytest.approx(5 / 12)


def test_reject_probability_decreases_with_n():
    # Default q = ceil((n + 1) / d) at d = 2.
    def value(n):
        return eps_c_b2a_exact(n, 2, math.ceil((n + 1) / 2))

    assert value(16) <= value(4)
    assert value(64) <= value(16)


def test_reject_probability_validates_arguments():
    with pytest.raises(ConfigurationError):
        eps_c_b2a_exact(4, 2, 0)
    with pytest.raises(ConfigurationError):
        eps_c_b2a_exact(4, 2, 6)


def test_hoeffding_values():
    assert hoeffding_bound(0, 0.3) == pytest.approx(1.0)
    assert hoeffding_bound(100, 0.1) == pytest.approx(math.exp(-2), rel=1e-12)
    assert hoeffding_bound(1000, 0.05) == pytest.approx(math.exp(-5), rel=1e-12)
    with pytest.raises(ValueError):
        hoeffding_bound(10, 0.0)


# ---------------------------------------------------------------------------
# parameter handling


def test_default_q_resolution():
    params = ProtocolParams(d=2, n=9)
    assert params.resolved_q(Protocol.QUANTUM_B2A) == 5  # ceil(10 / 2)
    assert params.resolved_q(Protocol.CLASSICAL1) == 1
    # q = ceil(n/d + abort_epsilon n), with abort_epsilon 0.1 by default.
    for abort_params in (ProtocolParams(d=2, n=100), ProtocolParams(d=2, n=100, abort_epsilon=0.1)):
        assert abort_params.resolved_q(Protocol.QUANTUM_B2A_ABORT) == 60
    assert ProtocolParams(d=2, n=100, abort_epsilon=0.3).resolved_q(
        Protocol.QUANTUM_B2A_ABORT) == 80


def test_parameter_validation():
    with pytest.raises(ConfigurationError):
        ProtocolParams(d=1)
    with pytest.raises(ConfigurationError):
        ProtocolParams(d=2, q=0)
    with pytest.raises(ConfigurationError):
        ProtocolParams(d=2, n=3, q=9).resolved_q(Protocol.QUANTUM_B2A)
    with pytest.raises(ConfigurationError):
        ProtocolParams(d=3, q=4).resolved_q(Protocol.CLASSICAL2)
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ConfigurationError):
            ProtocolParams(d=2, n=10, abort_epsilon=bad)
    for bad in (math.nan, -0.1, 1.0):
        with pytest.raises(ConfigurationError):
            ProtocolParams(d=2, eps_c_target=bad)
    # Settings a protocol would ignore are rejected for it.
    ignored = [
        (Protocol.QUANTUM_A2B, ProtocolParams(d=3, n=2, q=5)),
        (Protocol.CLASSICAL1, ProtocolParams(d=2, n=7)),
        (Protocol.CLASSICAL2, ProtocolParams(d=4, n=1, q=2)),
        (Protocol.QUANTUM_A2B, ProtocolParams(d=2, n=2, eps_c_target=0.5)),
        (Protocol.QUANTUM_B2A, ProtocolParams(d=2, n=4, eps_c_target=0.5)),
        (Protocol.QUANTUM_B2A_ABORT, ProtocolParams(d=2, n=4, eps_c_target=0.5)),
        (Protocol.CLASSICAL1, ProtocolParams(d=2, abort_epsilon=0.3)),
        (Protocol.QUANTUM_A2B, ProtocolParams(d=2, n=2, abort_epsilon=0.3)),
        (Protocol.QUANTUM_B2A, ProtocolParams(d=2, n=4, abort_epsilon=0.3)),
        (Protocol.QUANTUM_B2A_ABORT, ProtocolParams(d=2, n=4, q=2, abort_epsilon=0.3)),
    ]
    for protocol, params in ignored:
        with pytest.raises(ConfigurationError):
            params.check(protocol)
    ProtocolParams(d=4, q=2, eps_c_target=0.1).check(Protocol.CLASSICAL2)
    ProtocolParams(d=2, n=4, abort_epsilon=0.3).check(Protocol.QUANTUM_B2A_ABORT)
    # Only honest Alice reads eps_c_target, so the experiment rejects it for others.
    for alice in (IGNORANT, AliceStrategy(AliceKind.SUBSPACE_KNOWLEDGE, 2)):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(
                Protocol.CLASSICAL2, ProtocolParams(d=4, q=2, eps_c_target=0.1),
                alice, HONEST_B, Metric.ACCEPTANCE, 10, 0,
            )


@pytest.mark.parametrize("d, n", [(8, 4), (2, 11)])
def test_sender_protocol_beyond_dense_scale(d, n):
    # Joint dimensions 8**5 and 2**12, past the dense projector's size cap.
    spec = ExperimentSpec(
        Protocol.QUANTUM_A2B, ProtocolParams(d=d, n=n), IGNORANT, HONEST_B,
        Metric.ACCEPTANCE, 4000, 40 + d + n,
    )
    report = compare_to_formula(run_trials(spec), a2b_soundness(n, d), z=4.0)
    assert report.passed, report


# ---------------------------------------------------------------------------
# classical protocols


def test_classical1_honest_always_accepts_at_zero_target():
    rng = np.random.default_rng(1)
    for d in (2, 3, 5):
        for _ in range(100):
            out = run_classical1(ProtocolParams(d=d), HONEST_A, HONEST_B, rng)
            assert out.verdict is Verdict.ACCEPT


def test_classical1_ignorant_acceptance_quarter():
    rng = np.random.default_rng(2)
    trials = 20_000
    accepted = sum(
        run_classical1(ProtocolParams(d=4), IGNORANT, HONEST_B, rng).verdict
        is Verdict.ACCEPT
        for _ in range(trials)
    )
    assert abs(accepted / trials - 0.25) <= 4 * bernoulli_se(0.25, trials)


def test_classical1_honest_with_completeness_slack():
    rng = np.random.default_rng(3)
    trials = 10_000
    params = ProtocolParams(d=3, eps_c_target=0.2)
    accepted = sum(
        run_classical1(params, HONEST_A, HONEST_B, rng).verdict is Verdict.ACCEPT
        for _ in range(trials)
    )
    assert abs(accepted / trials - 0.8) <= 4 * bernoulli_se(0.8, trials)


def test_classical2_ignorant_acceptance():
    rng = np.random.default_rng(4)
    trials = 20_000
    params = ProtocolParams(d=6, q=3)
    accepted = sum(
        run_classical2(params, IGNORANT, HONEST_B, rng).verdict is Verdict.ACCEPT
        for _ in range(trials)
    )
    assert abs(accepted / trials - 0.5) <= 4 * bernoulli_se(0.5, trials)


def test_classical2_with_q1_reduces_to_classical1():
    rng = np.random.default_rng(5)
    params = ProtocolParams(d=3, q=1)
    for _ in range(100):
        assert run_classical2(params, HONEST_A, HONEST_B, rng).verdict is Verdict.ACCEPT


def test_classical2_full_cover_accepts_ignorant_always():
    rng = np.random.default_rng(6)
    params = ProtocolParams(d=3, q=3)
    for _ in range(200):
        assert run_classical2(params, IGNORANT, HONEST_B, rng).verdict is Verdict.ACCEPT


def test_classical2_rejects_positive_target_at_full_cover():
    rng = np.random.default_rng(7)
    params = ProtocolParams(d=3, q=3, eps_c_target=0.1)
    with pytest.raises(ConfigurationError):
        run_classical2(params, HONEST_A, HONEST_B, rng)


# ---------------------------------------------------------------------------
# sender protocol


def test_sender_ignorant_acceptance_n1():
    rng = np.random.default_rng(8)
    trials = 30_000
    accepted = sum(
        run_quantum_a2b(ProtocolParams(d=2, n=1), IGNORANT, HONEST_B, rng).verdict
        is Verdict.ACCEPT
        for _ in range(trials)
    )
    assert abs(accepted / trials - 0.75) <= 4 * bernoulli_se(0.75, trials)


@pytest.mark.parametrize("n,d", [(1, 2), (2, 2), (1, 3), (2, 3)])
def test_sender_ignorant_acceptance_grid(n, d):
    rng = np.random.default_rng(80 + 10 * n + d)
    trials = 30_000
    target = sym_dim(n + 1, d) / (sym_dim(n, d) * d)
    accepted = sum(
        run_quantum_a2b(ProtocolParams(d=d, n=n), IGNORANT, HONEST_B, rng).verdict
        is Verdict.ACCEPT
        for _ in range(trials)
    )
    assert abs(accepted / trials - target) <= 4 * bernoulli_se(target, trials)


# ---------------------------------------------------------------------------
# receiver protocol


def test_receiver_degenerate_single_system():
    rng = np.random.default_rng(9)
    params = ProtocolParams(d=3, n=0, q=1)
    for _ in range(100):
        assert run_quantum_b2a(params, HONEST_A, HONEST_B, rng).verdict is Verdict.ACCEPT


@pytest.mark.parametrize("n,d,q", [(4, 2, 2), (6, 3, 2)])
def test_receiver_honest_rejection_matches_exact(n, d, q):
    rng = np.random.default_rng(90 + n + d + q)
    trials = 10_000
    params = ProtocolParams(d=d, n=n, q=q)
    rejected = sum(
        run_quantum_b2a(params, HONEST_A, HONEST_B, rng).verdict is Verdict.REJECT
        for _ in range(trials)
    )
    target = eps_c_b2a_exact(n, d, q)
    assert abs(rejected / trials - target) <= 4 * bernoulli_se(target, trials)


def test_receiver_concealment_bound_for_retaining_bob():
    rng = np.random.default_rng(10)
    retain = BobStrategy(BobKind.MEASURE_RETAIN_GUESS)
    for d in (2, 3, 5):
        trials = 4000
        params = ProtocolParams(d=d, n=4, q=2)
        values = np.empty(trials)
        for i in range(trials):
            out = run_quantum_b2a(params, HONEST_A, retain, rng)
            values[i] = out.bob_guess.achieved_fsq
        bound = 4 / (d + 1)
        se = values.std(ddof=1) / math.sqrt(trials)
        assert values.mean() <= bound + 4 * se


def test_classical_concealment_lower_bound_achieved():
    # A Bob who guesses the unveiled (or self-measured) projector realizes
    # at least (1 - eps_c)^2 / q mean squared fidelity.
    rng = np.random.default_rng(16)
    retain = BobStrategy(BobKind.MEASURE_RETAIN_GUESS)
    params = ProtocolParams(d=4, q=2, eps_c_target=0.2)
    trials = 5000
    values = np.empty(trials)
    for i in range(trials):
        out = run_classical2(params, HONEST_A, retain, rng)
        values[i] = out.bob_guess.achieved_fsq
    bound = (1 - 0.2) ** 2 / 2
    se = values.std(ddof=1) / math.sqrt(trials)
    assert values.mean() >= bound - 3 * se


def test_receiver_honest_bob_learns_nothing():
    rng = np.random.default_rng(11)
    params = ProtocolParams(d=2, n=4, q=2)
    for _ in range(50):
        out = run_quantum_b2a(params, HONEST_A, HONEST_B, rng)
        assert out.bob_guess is None
        bob_measures = [
            e
            for e in out.transcript.events
            if e.kind is EventKind.MEASURE
            and e.site.agent_id in (AgentId.B1, AgentId.B2)
        ]
        assert not bob_measures


# ---------------------------------------------------------------------------
# abort variant


def test_abort_never_triggers_at_full_budget():
    rng = np.random.default_rng(12)
    params = ProtocolParams(d=2, n=4, q=5)  # q = n + 1
    for _ in range(200):
        out = run_quantum_b2a_abort(params, HONEST_A, HONEST_B, rng)
        assert out.verdict is not Verdict.ABORT


def test_abort_frequency_within_tail_bound():
    rng = np.random.default_rng(13)
    n, eps = 100, 0.1
    params = ProtocolParams(d=2, n=n, q=int(n / 2 + eps * n))
    trials = 2000
    aborts = sum(
        run_quantum_b2a_abort(params, HONEST_A, HONEST_B, rng).verdict is Verdict.ABORT
        for _ in range(trials)
    )
    bound = hoeffding_bound(n, eps)
    assert aborts / trials <= bound + 3 * bernoulli_se(bound, trials)


def test_always_abort_yields_abort_every_time():
    rng = np.random.default_rng(14)
    params = ProtocolParams(d=2, n=4, q=2)
    alice = AliceStrategy(AliceKind.ALWAYS_ABORT)
    for _ in range(50):
        out = run_quantum_b2a_abort(params, alice, HONEST_B, rng)
        assert out.verdict is Verdict.ABORT
        # No verdict announcement once the abort is on the wire.
        verdicts = [
            e for e in out.transcript.events
            if e.kind is EventKind.ANNOUNCE and e.payload.get("step") == "verdict"
        ]
        assert not verdicts


# ---------------------------------------------------------------------------
# transcripts


@pytest.mark.parametrize(
    "protocol,params,alice,bob",
    [
        (Protocol.CLASSICAL1, ProtocolParams(d=2), HONEST_A, HONEST_B),
        (Protocol.CLASSICAL1, ProtocolParams(d=3), IGNORANT, HONEST_B),
        (Protocol.CLASSICAL2, ProtocolParams(d=4, q=2), HONEST_A, HONEST_B),
        (Protocol.QUANTUM_A2B, ProtocolParams(d=2, n=2), HONEST_A, HONEST_B),
        (Protocol.QUANTUM_A2B, ProtocolParams(d=3, n=1), IGNORANT, HONEST_B),
        (Protocol.QUANTUM_B2A, ProtocolParams(d=2, n=4, q=2), HONEST_A, HONEST_B),
        (Protocol.QUANTUM_B2A, ProtocolParams(d=2, n=9, q=2), IGNORANT, HONEST_B),
        (
            Protocol.QUANTUM_B2A,
            ProtocolParams(d=2, n=4, q=2),
            AliceStrategy(AliceKind.STEAL_STATE),
            HONEST_B,
        ),
        (Protocol.QUANTUM_B2A_ABORT, ProtocolParams(d=2, n=6, q=2), HONEST_A, HONEST_B),
    ],
)
def test_transcripts_pass_causality_validation(protocol, params, alice, bob):
    rng = np.random.default_rng(15)
    for _ in range(20):
        out = run_protocol(protocol, params, alice, bob, rng)
        report = out.transcript.validate()
        assert report.ok, report.violations


@pytest.mark.parametrize(
    "protocol,params",
    [
        (Protocol.CLASSICAL1, ProtocolParams(d=2)),
        (Protocol.CLASSICAL2, ProtocolParams(d=4, q=2)),
        (Protocol.QUANTUM_A2B, ProtocolParams(d=2, n=0)),
        (Protocol.QUANTUM_A2B, ProtocolParams(d=2, n=2)),
        (Protocol.QUANTUM_B2A, ProtocolParams(d=2, n=4, q=2)),
        (Protocol.QUANTUM_B2A_ABORT, ProtocolParams(d=2, n=6, q=4)),
    ],
)
def test_verdict_accept_is_a_python_bool(protocol, params):
    # A numpy bool would hash into the payload digest as the string "True".
    rng = np.random.default_rng(1)
    seen = set()
    for _ in range(40):
        out = run_protocol(protocol, params, IGNORANT, HONEST_B, rng)
        for e in out.transcript.events:
            if e.payload.get("step") == "verdict":
                assert type(e.payload["accept"]) is bool
                seen.add(e.payload["accept"])
    assert seen  # every protocol announced at least one verdict


# ---------------------------------------------------------------------------
# audit


def exact_stats(value):
    return TrialStats.from_formula(Metric.ACCEPTANCE, value)


def test_audit_tight_bound_passes_with_zero_slack():
    result = soundness_floor_audit(exact_stats(0.25), exact_stats(0.0), d=4)
    assert result.passed
    assert result.slack == pytest.approx(0.0, abs=1e-12)


def test_audit_large_slack_for_sender_protocol():
    result = soundness_floor_audit(exact_stats(0.75), exact_stats(0.0), d=2)
    assert result.passed
    assert result.slack == pytest.approx(0.25)


def test_audit_fabricated_violation_fails():
    result = soundness_floor_audit(exact_stats(0.125), exact_stats(0.0), d=4)
    assert not result.passed


def test_audit_rejects_degenerate_completeness():
    with pytest.raises(ValueError):
        soundness_floor_audit(exact_stats(0.5), exact_stats(1.0), d=2)
