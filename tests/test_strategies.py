"""Strategy behaviors: honest baselines and the adversarial analyses."""

import copy
import zlib

import numpy as np
import pytest

from gates import bernoulli_se
from qwitness.errors import ConfigurationError
from qwitness.protocols import Protocol, ProtocolParams, Verdict, run_protocol
from qwitness.strategies import (
    AliceKind,
    AliceStrategy,
    BobKind,
    BobStrategy,
    DetectionCommitContext,
    MeasurementChoiceContext,
    PackageContext,
    SubmissionContext,
    alice_act,
    bob_act,
    knowledge_subspace,
)
from qwitness.qudit import PureState, fidelity_sq, haar_random

HONEST_A = AliceStrategy(AliceKind.HONEST_KNOWING)
IGNORANT = AliceStrategy(AliceKind.IGNORANT)
HONEST_B = BobStrategy(BobKind.HONEST)


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
    # state orthogonal to it never is. Within budget Alice then commits the
    # detections, padded with dummy 0s, in the slot order of one permutation.
    rng = np.random.default_rng(20 + extra)
    eta = PureState([1.0, 0.0, 0.0])
    orthogonal = PureState([0.0, 0.6, 0.8j])
    for _ in range(20):
        systems = (eta, orthogonal) + tuple(haar_random(3, rng) for _ in range(extra))
        q = len(systems)
        ctx = DetectionCommitContext(systems, q, eta, False, rng)
        clone = copy.deepcopy(rng)
        uniforms = clone.random(q)
        plan = alice_act(HONEST_A, ctx)
        expected = [
            label for label, (u, s) in enumerate(zip(uniforms, systems), start=1)
            if u < fidelity_sq(s, eta)
        ]
        padded = expected + [0] * (q - len(expected))
        assert plan.positives == len(expected)
        assert plan.commit_values == tuple(padded[s] for s in clone.permutation(q))
        assert 1 in expected and 2 not in expected
        assert rng.random() == clone.random()


@pytest.mark.parametrize("n", [0, 1, 4, 9])
def test_honest_bob_hides_his_state_at_a_uniform_label(n):
    # Bob's state sits at the label he announces, every decoy stays undrawn,
    # and the label is uniform on 1..n+1: each label's frequency is gated
    # two-sided at z = 5. A Bob who always sent his state at one label, so
    # that Alice knew it, fails here though no figure sees it.
    rng = np.random.default_rng(40 + n)
    eta = PureState([1.0, 0.0])
    trials = 20_000
    counts = np.zeros(n + 2, dtype=int)
    for _ in range(trials):
        package = bob_act(HONEST_B, PackageContext(eta, n, rng))
        label = package.announced_label
        assert package.systems[label - 1] is eta and package.retained is None
        assert len(package.systems) == n + 1
        assert sum(s is None for s in package.systems) == n
        counts[label] += 1
    assert counts[0] == 0
    p = 1 / (n + 1)
    for label in range(1, n + 2):
        assert abs(counts[label] / trials - p) <= 5 * bernoulli_se(p, trials)


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
    # The announced frame fixes orthonormal columns: honest Alice's two, at
    # indices 0 and 1, subspace-k Alice's k, ignorant Alice's none. Every other
    # column is free until a measurement draws it. The state comes out at an
    # index the plan allows: 0 or 1 for honest Alice (only 0 at eps_c = 0),
    # one of the first k for subspace-k Alice, any for ignorant Alice.
    rng = np.random.default_rng(d + 10 * q)
    alice = AliceStrategy.from_name(name)
    fixed = {"honest": min(2, d), "ignorant": 0}.get(name, alice.subspace_dim)
    allowed = {"honest": 1 if eps_c == 0 else 2, "ignorant": d}.get(name, alice.subspace_dim)
    for _ in range(20):
        eta, plan = _classical_plan(alice, d, q, eps_c, rng)
        if fixed:
            cols = np.array([plan.frame.column(j).amplitudes for j in range(fixed)]).T
            assert np.max(np.abs(cols.conj().T @ cols - np.eye(fixed))) <= 1e-12
        for j in range(fixed, d):
            with pytest.raises(ValueError):
                plan.frame.column(j)
        assert plan.frame.measure(eta, rng) < allowed


@pytest.mark.parametrize("eps_c", [0.0, 0.1])
@pytest.mark.parametrize("d,q", [(2, 1), (3, 1), (3, 2), (5, 3)])
def test_honest_classical_plan_covers_exactly_one_minus_eps_c(eps_c, d, q):
    # Column 0 has squared overlap 1 - eps_c with the state and column 1
    # eps_c; the free columns span the complement of both, so they have none.
    # Measuring the state in the frame gives 0 or 1 with those frequencies
    # (two-sided at z = 5), and the commitments cover exactly 1 - eps_c.
    rng = np.random.default_rng(30 + d + q)
    counts = np.zeros(d, dtype=int)
    for _ in range(20):
        eta, plan = _classical_plan(HONEST_A, d, q, eps_c, rng)
        overlaps = [fidelity_sq(plan.frame.column(j), eta) for j in range(2)]
        assert abs(overlaps[0] - (1.0 - eps_c)) <= 1e-12
        assert abs(overlaps[1] - eps_c) <= 1e-12
        assert 0 in plan.commit_values and len(set(plan.commit_values)) == q
        assert set(plan.commit_values) <= set(range(d))
        assert 1 not in plan.commit_values or eps_c == 0.0
        for _ in range(100):
            counts[plan.frame.measure(eta, rng)] += 1
    assert counts[2:].sum() == 0
    trials = counts.sum()
    p = 1.0 - eps_c
    assert abs(counts[0] / trials - p) <= 5 * bernoulli_se(p, trials)


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
    rng = np.random.default_rng(zlib.crc32(b"a2b-honest"))
    params = ProtocolParams(d=2, n=2)
    for _ in range(400):
        out = run_protocol(Protocol.QUANTUM_A2B, params, HONEST_A, HONEST_B, rng)
        assert out.verdict is Verdict.ACCEPT


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
