"""Strategy behaviors: honest baselines and the adversarial analyses."""

import copy
import math
import zlib

import numpy as np
import pytest

from qwitness.errors import ConfigurationError
from qwitness.protocols import Protocol, ProtocolParams, Verdict, run_protocol
from qwitness.strategies import (
    AliceKind,
    AliceStrategy,
    BobKind,
    BobStrategy,
    DetectionCommitContext,
    MeasurementChoiceContext,
    SubmissionContext,
    alice_act,
    bob_act,
    knowledge_subspace,
)
from qwitness.qudit import PureState, fidelity_sq, haar_random

HONEST_A = AliceStrategy(AliceKind.HONEST_KNOWING)
IGNORANT = AliceStrategy(AliceKind.IGNORANT)
HONEST_B = BobStrategy(BobKind.HONEST)


def rng_for(tag):
    # crc32, not hash(): string hashing is salted per process.
    return np.random.default_rng(zlib.crc32(tag.encode()))


def bernoulli_se(p, n):
    return math.sqrt(max(p * (1 - p), 1e-12) / n)


def test_strategy_names_round_trip():
    assert AliceStrategy.from_name("honest").kind is AliceKind.HONEST_KNOWING
    assert AliceStrategy.from_name("subspace-2").subspace_dim == 2
    assert AliceStrategy.from_name("always-abort").kind is AliceKind.ALWAYS_ABORT
    assert BobStrategy.from_name("retain-guess").kind is BobKind.MEASURE_RETAIN_GUESS
    # Every Alice name the CLI accepts reads back from the strategy it builds.
    names = [kind.value for kind in AliceKind if kind is not AliceKind.SUBSPACE_KNOWLEDGE]
    for name in names + [f"subspace-{k}" for k in range(1, 5)]:
        assert AliceStrategy.from_name(name).name == name
    with pytest.raises(ConfigurationError):
        AliceStrategy.from_name("psychic")
    with pytest.raises(ConfigurationError):
        BobStrategy.from_name("psychic")


def test_subspace_strategy_needs_dimension():
    with pytest.raises(ConfigurationError):
        AliceStrategy(AliceKind.SUBSPACE_KNOWLEDGE)
    with pytest.raises(ConfigurationError):
        AliceStrategy(AliceKind.IGNORANT, subspace_dim=2)


@pytest.mark.parametrize("extra", [0, 3, 9])
def test_honest_detection_draws_one_uniform_per_label(extra):
    # Label j is detected iff the j-th of n + 1 uniforms, drawn in label
    # order, falls below |<eta|s_j>|^2; eta itself is always detected and a
    # state orthogonal to it never is.
    rng = np.random.default_rng(20 + extra)
    eta = PureState([1.0, 0.0, 0.0])
    orthogonal = PureState([0.0, 0.6, 0.8j])
    for _ in range(20):
        systems = (eta, orthogonal) + tuple(haar_random(3, rng) for _ in range(extra))
        ctx = DetectionCommitContext(systems, len(systems), eta, False, rng)
        clone = copy.deepcopy(rng)
        uniforms = clone.random(len(systems))
        plan = alice_act(HONEST_A, ctx)
        expected = [
            label for label, (u, s) in enumerate(zip(uniforms, systems), start=1)
            if u < fidelity_sq(s, eta)
        ]
        assert plan.commit_values[: plan.positives] == tuple(expected)
        assert 1 in expected and 2 not in expected
        assert rng.random() == clone.random()


def test_knowledge_subspace_contains_state():
    rng = np.random.default_rng(4)
    eta = haar_random(5, rng)
    basis = knowledge_subspace(eta, 3, rng)
    assert basis.shape == (5, 3)
    assert np.allclose(basis.conj().T @ basis, np.eye(3), atol=1e-10)
    # The state is inside the span: projecting onto the basis preserves it.
    coeffs = basis.conj().T @ eta.amplitudes
    assert np.linalg.norm(basis @ coeffs - eta.amplitudes) < 1e-10


def _classical_plan(alice, d, q, eps_c, rng):
    eta = haar_random(d, rng)
    return eta, alice_act(alice, MeasurementChoiceContext(q, eps_c, eta, rng))


@pytest.mark.parametrize("name,d,q,eps_c", [
    ("honest", 2, 1, 0.0), ("honest", 3, 2, 0.1), ("honest", 4, 4, 0.0),
    ("ignorant", 3, 1, 0.0), ("subspace-1", 3, 1, 0.0), ("subspace-2", 4, 2, 0.0),
    ("subspace-3", 5, 1, 0.0), ("subspace-4", 4, 3, 0.0),
])
def test_classical_plan_basis_is_unitary(name, d, q, eps_c):
    rng = np.random.default_rng(d + 10 * q)
    alice = AliceStrategy.from_name(name)
    for _ in range(20):
        _, plan = _classical_plan(alice, d, q, eps_c, rng)
        assert plan.basis.shape == (d, d)
        assert np.max(np.abs(plan.basis.conj().T @ plan.basis - np.eye(d))) <= 1e-12


@pytest.mark.parametrize("eps_c", [0.0, 0.1])
@pytest.mark.parametrize("d,q", [(2, 1), (3, 1), (3, 2), (5, 3)])
def test_honest_classical_plan_covers_exactly_one_minus_eps_c(eps_c, d, q):
    rng = np.random.default_rng(30 + d + q)
    for _ in range(20):
        eta, plan = _classical_plan(HONEST_A, d, q, eps_c, rng)
        overlaps = np.abs(plan.basis.conj().T @ eta.amplitudes) ** 2
        assert abs(overlaps[0] - (1.0 - eps_c)) <= 1e-12
        assert 0 in plan.commit_values and len(set(plan.commit_values)) == q
        assert abs(overlaps[list(plan.commit_values)].sum() - (1.0 - eps_c)) <= 1e-12


def test_honest_alice_commits_detections_plus_dummies():
    from qwitness.qudit import PureState
    from qwitness.strategies import DetectionCommitContext, alice_act

    rng = np.random.default_rng(21)
    eta = PureState([1, 0])
    orth = PureState([0, 1])
    # Only the first system tests positive with certainty; the rest never do.
    systems = (eta, orth, orth, orth)
    plan = alice_act(HONEST_A, DetectionCommitContext(systems, 3, eta, False, rng))
    assert plan.commit_values is not None
    assert plan.positives == 1
    assert sorted(plan.commit_values) == [0, 0, 1]  # label 1 plus two dummies


def test_honest_alice_subsamples_when_over_budget():
    from qwitness.qudit import PureState
    from qwitness.strategies import DetectionCommitContext, alice_act

    rng = np.random.default_rng(22)
    eta = PureState([1, 0])
    systems = (eta, eta, eta, eta)  # every label detected
    plan = alice_act(HONEST_A, DetectionCommitContext(systems, 2, eta, False, rng))
    assert plan.positives == 4
    assert len(plan.commit_values) == 2
    assert set(plan.commit_values) <= {1, 2, 3, 4}
    assert len(set(plan.commit_values)) == 2


def test_honest_pair_always_accepted_in_sender_protocol():
    rng = rng_for("a2b-honest")
    params = ProtocolParams(d=2, n=2)
    for _ in range(400):
        out = run_protocol(Protocol.QUANTUM_A2B, params, HONEST_A, HONEST_B, rng)
        assert out.verdict is Verdict.ACCEPT


def test_steal_state_alice_statistics():
    # Random-commit acceptance q/(N+1) while she estimates the pointed-at
    # system as well as any single-copy strategy allows: mean 2/(d+1).
    rng = rng_for("steal")
    params = ProtocolParams(d=2, n=9, q=2)
    steal = AliceStrategy(AliceKind.STEAL_STATE)
    trials = 20_000
    accepted = 0
    fsq = np.empty(trials)
    for i in range(trials):
        out = run_protocol(Protocol.QUANTUM_B2A, params, steal, HONEST_B, rng)
        accepted += out.verdict is Verdict.ACCEPT
        fsq[i] = fidelity_sq(out.alice_guess, out.true_state)
    p_target = 2 / 10
    assert abs(accepted / trials - p_target) <= 4 * bernoulli_se(p_target, trials)
    f_target = 2 / 3
    se = fsq.std(ddof=1) / math.sqrt(trials)
    assert abs(fsq.mean() - f_target) <= 4 * se


def test_substitute_bob_gains_knowledge_on_classical1():
    # With a perfectly revealing prediction (eps_c 0) the unveiled or
    # self-measured projector recovers the state; the gain over the
    # no-protocol optimum 2/(d+1) must clear 4 standard errors.
    rng = rng_for("substitute")
    params = ProtocolParams(d=2)
    sub = BobStrategy(BobKind.SUBSTITUTE_STATE)
    trials = 10_000
    fsq = np.empty(trials)
    for i in range(trials):
        out = run_protocol(Protocol.CLASSICAL1, params, HONEST_A, sub, rng)
        fsq[i] = fidelity_sq(out.bob_guess, out.true_state)
    se = fsq.std(ddof=1) / math.sqrt(trials)
    assert fsq.mean() - 2 / 3 >= 4 * se


def test_subspace_alice_half_success():
    rng = rng_for("subspace")
    params = ProtocolParams(d=4)
    alice = AliceStrategy.from_name("subspace-2")
    trials = 30_000
    accepted = sum(
        run_protocol(Protocol.CLASSICAL1, params, alice, HONEST_B, rng).verdict
        is Verdict.ACCEPT
        for _ in range(trials)
    )
    assert abs(accepted / trials - 0.5) <= 4 * bernoulli_se(0.5, trials)


def test_ignorant_alice_b2a_acceptance():
    rng = rng_for("ignorant-b2a")
    params = ProtocolParams(d=2, n=9, q=2)
    trials = 20_000
    accepted = sum(
        run_protocol(Protocol.QUANTUM_B2A, params, IGNORANT, HONEST_B, rng).verdict
        is Verdict.ACCEPT
        for _ in range(trials)
    )
    assert abs(accepted / trials - 0.2) <= 4 * bernoulli_se(0.2, trials)


def test_random_distinct_commit_matches_ignorant():
    # Ignorant Alice commits q random distinct labels, so she is accepted
    # with probability q / (n + 1).
    rng = rng_for("random-distinct")
    params = ProtocolParams(d=3, n=5, q=3)
    trials = 10_000
    accepted = sum(
        run_protocol(Protocol.QUANTUM_B2A, params, IGNORANT, HONEST_B, rng).verdict
        is Verdict.ACCEPT
        for _ in range(trials)
    )
    target = 3 / 6
    assert abs(accepted / trials - target) <= 4 * bernoulli_se(target, trials)


def test_skip_bob_reaches_no_protocol_optimum():
    rng = rng_for("skip")
    params = ProtocolParams(d=4, n=1)
    skip = BobStrategy(BobKind.SKIP_PROTOCOL_MEASURE)
    trials = 30_000
    fsq = np.empty(trials)
    for i in range(trials):
        out = run_protocol(Protocol.QUANTUM_A2B, params, HONEST_A, skip, rng)
        assert out.verdict is Verdict.REJECT
        fsq[i] = fidelity_sq(out.bob_guess, out.true_state)
    se = fsq.std(ddof=1) / math.sqrt(trials)
    assert abs(fsq.mean() - 2 / 5) <= 3 * se


def test_strategy_protocol_mismatches_rejected():
    rng = np.random.default_rng(5)
    steal = AliceStrategy(AliceKind.STEAL_STATE)
    with pytest.raises(ConfigurationError):
        run_protocol(Protocol.CLASSICAL1, ProtocolParams(d=2), steal, HONEST_B, rng)
    always_abort = AliceStrategy(AliceKind.ALWAYS_ABORT)
    with pytest.raises(ConfigurationError):
        run_protocol(
            Protocol.QUANTUM_B2A, ProtocolParams(d=2, n=3, q=1), always_abort, HONEST_B, rng
        )
    with pytest.raises(ConfigurationError):
        run_protocol(Protocol.QUANTUM_A2B, ProtocolParams(d=2, n=1), steal, HONEST_B, rng)


def test_substitute_outcome_guess_is_a_state():
    rng = np.random.default_rng(6)
    sub = BobStrategy(BobKind.SUBSTITUTE_STATE)
    out = run_protocol(Protocol.CLASSICAL1, ProtocolParams(d=2), HONEST_A, sub, rng)
    assert isinstance(out.bob_guess, PureState)
    assert out.bob_guess.dim == out.true_state.dim
    assert out.alice_guess is None


@pytest.mark.parametrize("kind", list(BobKind))
def test_submission_stage(kind):
    # Bob hands the protocol a state to measure or test: his own, a fresh
    # Haar probe (keeping his own), or nothing (keeping his own).
    rng = np.random.default_rng(7)
    eta = haar_random(3, rng)
    clone = copy.deepcopy(rng)
    sub = bob_act(BobStrategy(kind), SubmissionContext(eta, rng))
    if kind in (BobKind.HONEST, BobKind.MEASURE_RETAIN_GUESS):
        assert sub.state is eta and sub.retained is None
    elif kind is BobKind.SUBSTITUTE_STATE:
        probe = haar_random(3, clone)
        assert sub.state is not eta and sub.retained is eta
        assert np.array_equal(sub.state.amplitudes, probe.amplitudes)
    else:
        assert sub.state is None and sub.retained is eta
    assert rng.random() == clone.random()
