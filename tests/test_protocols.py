"""Protocol runs: closed forms, settings, draws and logs; the sampled figures are rows of ``gates.py``."""

import ast
import math
import time
import zlib
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from gates import bernoulli_se
from qwitness import estimation, protocols, qudit, strategies
from qwitness.errors import ConfigurationError
from qwitness.harness import (
    BoundKind,
    ExperimentSpec,
    Metric,
    formula_target,
    trial_rng,
)
from qwitness.oracle import check_blind_acceptance
from qwitness.protocols import (
    ALICE_PLAYS,
    BOB_PLAYS,
    Protocol,
    ProtocolParams,
    Verdict,
    eps_c_b2a_exact,
    hoeffding_bound,
    run_protocol,
)
from qwitness.qudit import HaarFrame, fidelity_sq, haar_complement
from qwitness.spacetime import AgentId, EventKind
from qwitness.strategies import (
    AliceKind,
    AliceStrategy,
    BobKind,
    BobStrategy,
    ClassicalPlan,
    knowledge_subspace,
)

HONEST_A = AliceStrategy(AliceKind.HONEST_KNOWING)
IGNORANT = AliceStrategy(AliceKind.IGNORANT)
HONEST_B = BobStrategy(BobKind.HONEST)
RETAIN = BobStrategy(BobKind.MEASURE_RETAIN_GUESS)


def target(protocol, params, alice, bob, metric):
    """The ``formula_target`` of one cell, at the given parameters."""
    return formula_target(ExperimentSpec(protocol, params, alice, bob, metric, 1, 0))


# ---------------------------------------------------------------------------
# closed forms


def test_closed_forms_sender_protocol():
    a2b, params = Protocol.QUANTUM_A2B, ProtocolParams(d=2, n=1)
    skip = BobStrategy(BobKind.SKIP_PROTOCOL_MEASURE)
    assert target(a2b, params, HONEST_A, HONEST_B, Metric.ACCEPTANCE) == (1.0, BoundKind.EXACT)
    soundness, _ = target(a2b, params, IGNORANT, HONEST_B, Metric.ACCEPTANCE)
    assert soundness == pytest.approx(0.75)
    concealment, kind = target(a2b, params, HONEST_A, RETAIN, Metric.MEAN_FSQ)
    assert concealment == pytest.approx(0.75)
    assert kind is BoundKind.EXACT
    baseline, _ = target(a2b, params, HONEST_A, skip, Metric.MEAN_FSQ)
    assert baseline == pytest.approx(2 / 3)


def test_closed_forms_receiver_protocol():
    b2a, params = Protocol.QUANTUM_B2A, ProtocolParams(d=9, n=9, q=1)
    concealment, kind = target(b2a, params, HONEST_A, RETAIN, Metric.MEAN_FSQ)
    assert concealment == pytest.approx(0.4)
    assert kind is BoundKind.UPPER
    steal = AliceStrategy(AliceKind.STEAL_STATE)
    baseline, _ = target(b2a, params, steal, HONEST_B, Metric.ALICE_MEAN_FSQ)
    assert baseline == pytest.approx(0.2)
    soundness, _ = target(b2a, params, IGNORANT, HONEST_B, Metric.ACCEPTANCE)
    assert soundness == pytest.approx(0.1)


def test_closed_forms_classical():
    c1, c2 = Protocol.CLASSICAL1, Protocol.CLASSICAL2
    soundness, _ = target(c1, ProtocolParams(d=5), IGNORANT, HONEST_B, Metric.ACCEPTANCE)
    assert soundness == pytest.approx(1 / 5)
    concealment, kind = target(c1, ProtocolParams(d=5), HONEST_A, RETAIN, Metric.MEAN_FSQ)
    assert concealment == pytest.approx(1.0)
    assert kind is BoundKind.LOWER
    # Soundness q/d does not read eps_c, which only honest Alice may set.
    soundness2, _ = target(c2, ProtocolParams(d=6, q=3), IGNORANT, HONEST_B, Metric.ACCEPTANCE)
    assert soundness2 == pytest.approx(0.5)
    params2 = ProtocolParams(d=6, q=3, eps_c_target=0.1)
    concealment2, _ = target(c2, params2, HONEST_A, RETAIN, Metric.MEAN_FSQ)
    assert concealment2 == pytest.approx(0.9**2 / 3)


def test_sender_soundness_closed_form_matches_dimension_ratio():
    ((_, ok, detail),) = check_blind_acceptance(50)
    assert ok, detail


def test_sender_concealment_exceeds_soundness_reciprocal():
    for n in range(1, 21):
        for d in range(2, 21):
            a2b, params = Protocol.QUANTUM_A2B, ProtocolParams(d=d, n=n)
            concealment, _ = target(a2b, params, HONEST_A, RETAIN, Metric.MEAN_FSQ)
            soundness, _ = target(a2b, params, IGNORANT, HONEST_B, Metric.ACCEPTANCE)
            assert concealment > 1 / (d * soundness)


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


@pytest.mark.parametrize("d,q", [(2, 1), (2, 516), (3, 344), (64, 17)])
def test_reject_probability_past_float_binomials(d, q):
    # C(1030, x) overflows a float: the log-space sum still matches the exact
    # rational sum to 1e-12 relative error.
    n = 1030
    exact = sum(
        Fraction(math.comb(n, x) * (d - 1) ** (n - x) * (x + 1 - q), d**n * (x + 1))
        for x in range(q, n + 1)
    )
    assert eps_c_b2a_exact(n, d, q) == pytest.approx(float(exact), rel=1e-12, abs=0.0)


def test_reject_probability_is_finite_and_fast_at_large_n():
    start = time.perf_counter()
    value = eps_c_b2a_exact(100_000, 2, 50_001)
    assert time.perf_counter() - start < 1.0
    assert 0.0 < value < 1.0


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
    # q = ceil(n/d + n/10), with at least one commitment.
    assert ProtocolParams(d=2, n=100).resolved_q(Protocol.QUANTUM_B2A_ABORT) == 60
    assert ProtocolParams(d=3, n=12).resolved_q(Protocol.QUANTUM_B2A_ABORT) == 6
    assert ProtocolParams(d=2, n=0).resolved_q(Protocol.QUANTUM_B2A_ABORT) == 1


def test_parameter_validation():
    with pytest.raises(ConfigurationError):
        ProtocolParams(d=1)
    with pytest.raises(ConfigurationError):
        ProtocolParams(d=2, q=0)
    with pytest.raises(ConfigurationError):
        ProtocolParams(d=2, n=3, q=9).resolved_q(Protocol.QUANTUM_B2A)
    with pytest.raises(ConfigurationError):
        ProtocolParams(d=3, q=4).resolved_q(Protocol.CLASSICAL2)
    for bad in (math.nan, -0.1, 1.0):
        with pytest.raises(ConfigurationError):
            ProtocolParams(d=2, eps_c_target=bad)
    # Settings a protocol would ignore are rejected when the experiment is built.
    ignored = [
        (Protocol.QUANTUM_A2B, ProtocolParams(d=3, n=2, q=5)),
        (Protocol.CLASSICAL1, ProtocolParams(d=2, n=7)),
        (Protocol.CLASSICAL2, ProtocolParams(d=4, n=1, q=2)),
        (Protocol.QUANTUM_A2B, ProtocolParams(d=2, n=2, eps_c_target=0.5)),
        (Protocol.QUANTUM_B2A, ProtocolParams(d=2, n=4, eps_c_target=0.5)),
        (Protocol.QUANTUM_B2A_ABORT, ProtocolParams(d=2, n=4, eps_c_target=0.5)),
    ]
    for protocol, params in ignored:
        with pytest.raises(ConfigurationError):
            ExperimentSpec(protocol, params, HONEST_A, HONEST_B, Metric.ACCEPTANCE, 10, 0)
    ExperimentSpec(
        Protocol.CLASSICAL2, ProtocolParams(d=4, q=2, eps_c_target=0.1),
        HONEST_A, HONEST_B, Metric.ACCEPTANCE, 10, 0,
    )
    # Only honest Alice reads eps_c_target, so the experiment rejects it for others.
    for alice in (IGNORANT, AliceStrategy(AliceKind.SUBSPACE_KNOWLEDGE, 2)):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(
                Protocol.CLASSICAL2, ProtocolParams(d=4, q=2, eps_c_target=0.1),
                alice, HONEST_B, Metric.ACCEPTANCE, 10, 0,
            )


# ---------------------------------------------------------------------------
# classical protocols


def test_classical1_honest_always_accepts_at_zero_target():
    rng = np.random.default_rng(1)
    for d in (2, 3, 5):
        for _ in range(100):
            out = run_protocol(Protocol.CLASSICAL1, ProtocolParams(d=d), HONEST_A, HONEST_B, rng)
            assert out.verdict is Verdict.ACCEPT


def test_classical2_with_q1_reduces_to_classical1():
    rng = np.random.default_rng(5)
    params = ProtocolParams(d=3, q=1)
    for _ in range(100):
        out = run_protocol(Protocol.CLASSICAL2, params, HONEST_A, HONEST_B, rng)
        assert out.verdict is Verdict.ACCEPT


def test_classical2_full_cover_accepts_ignorant_always():
    rng = np.random.default_rng(6)
    params = ProtocolParams(d=3, q=3)
    for _ in range(200):
        out = run_protocol(Protocol.CLASSICAL2, params, IGNORANT, HONEST_B, rng)
        assert out.verdict is Verdict.ACCEPT


def test_classical2_rejects_positive_target_at_full_cover():
    # At q = d every outcome is committed, so no completeness error is left to aim at.
    params = ProtocolParams(d=3, q=3, eps_c_target=0.1)
    with pytest.raises(ConfigurationError, match="q <= d - 1"):
        ExperimentSpec(
            Protocol.CLASSICAL2, params, HONEST_A, HONEST_B, Metric.ACCEPTANCE, 10, 0
        )


# ---------------------------------------------------------------------------
# sender protocol


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_sender_subspace_alice_draws_no_basis(k, monkeypatch):
    # Her copies take one Beta overlap and one column off eta, never a d x k
    # basis of her subspace; at k = 1 they are eta and she draws nothing.
    columns = []
    real = estimation.haar_complement

    def counted(fixed, count, rng):
        columns.append(count)
        return real(fixed, count, rng)

    def no_basis(*args):
        raise AssertionError("a2b drew a subspace basis")

    monkeypatch.setattr(estimation, "haar_complement", counted)
    monkeypatch.setattr(strategies, "knowledge_subspace", no_basis)
    params, alice = ProtocolParams(d=5, n=3), AliceStrategy(AliceKind.SUBSPACE_KNOWLEDGE, k)
    for i in range(10):
        columns.clear()
        run_protocol(Protocol.QUANTUM_A2B, params, alice, HONEST_B, trial_rng(8, i))
        assert columns == ([] if k == 1 else [1])


# ---------------------------------------------------------------------------
# receiver protocol


def test_receiver_degenerate_single_system():
    rng = np.random.default_rng(9)
    params = ProtocolParams(d=3, n=0, q=1)
    for _ in range(100):
        out = run_protocol(Protocol.QUANTUM_B2A, params, HONEST_A, HONEST_B, rng)
        assert out.verdict is Verdict.ACCEPT


def test_receiver_honest_bob_learns_nothing():
    rng = np.random.default_rng(11)
    params = ProtocolParams(d=2, n=4, q=2)
    for _ in range(50):
        out = run_protocol(Protocol.QUANTUM_B2A, params, HONEST_A, HONEST_B, rng)
        assert out.bob_guess is None
        bob_measures = [
            e
            for e in out.transcript.events
            if e.kind is EventKind.MEASURE
            and e.site.agent_id in (AgentId.B1, AgentId.B2)
        ]
        assert not bob_measures


@pytest.mark.parametrize("n,d", [(4, 2), (6, 3)])
def test_honest_detection_count_is_one_plus_binomial(n, d):
    # Bob's own system always tests positive and each undrawn decoy, once
    # Alice draws it, with probability 1/d: the count she logs is
    # 1 + Binomial(n, 1/d). Each count's frequency is gated two-sided at z = 5.
    rng = np.random.default_rng(60 + n + d)
    params = ProtocolParams(d=d, n=n, q=n + 1)
    trials = 5000
    counts = np.zeros(n + 2, dtype=int)
    for _ in range(trials):
        out = run_protocol(Protocol.QUANTUM_B2A, params, HONEST_A, HONEST_B, rng)
        (measured,) = [e for e in out.transcript.events if e.kind is EventKind.MEASURE]
        counts[measured.payload["positives"]] += 1
    assert counts[0] == 0
    for x in range(n + 1):
        p = math.comb(n, x) * (d - 1) ** (n - x) / d**n
        assert abs(counts[1 + x] / trials - p) <= 5 * bernoulli_se(p, trials)


@pytest.mark.parametrize("protocol", ["b2a", "b2a-abort"])
@pytest.mark.parametrize("alice,bob,draws", [
    ("honest", "honest", 6),
    ("ignorant", "honest", 1),
    ("steal", "honest", 1),
    ("steal", "retain-guess", 2),
    ("honest", "retain-guess", 7),
])
def test_receiver_draws_a_system_only_when_a_party_reads_it(protocol, alice, bob, draws, monkeypatch):
    # Haar states per trial at n = 5: eta, plus each system a party reads.
    # Honest Alice reads all n + 1: n undrawn decoys, or n + 1 undrawn
    # substitutes. Stealing Alice reads the one Bob points at, undrawn only
    # against retain-guess Bob. Ignorant Alice reads none.
    calls = []
    real = strategies.haar_random

    def counted(d, rng):
        calls.append(d)
        return real(d, rng)

    monkeypatch.setattr(strategies, "haar_random", counted)
    monkeypatch.setattr(protocols, "haar_random", counted)
    params = ProtocolParams(d=3, n=5, q=6)
    alice, bob = AliceStrategy.from_name(alice), BobStrategy.from_name(bob)
    for i in range(10):
        calls.clear()
        run_protocol(Protocol(protocol), params, alice, bob, trial_rng(5, i))
        assert len(calls) == draws and set(calls) == {3}


@pytest.mark.parametrize("protocol,d,q,alice,bob,draws", [
    ("classical1", 3, None, "ignorant", "honest", (1, {0})),
    ("classical1", 3, None, "honest", "honest", (1, {1})),
    ("classical1", 3, None, "subspace-2", "honest", (1, {3})),
    ("classical1", 3, None, "ignorant", "retain-guess", (1, {1})),
    ("classical1", 3, None, "honest", "retain-guess", (1, {1})),
    ("classical1", 3, None, "ignorant", "skip", (1, {1})),
    ("classical1", 3, None, "honest", "skip", (1, {2})),
    ("classical1", 3, None, "ignorant", "substitute", (2, {1, 2})),
    ("classical1", 3, None, "honest", "substitute", (2, {1})),
    ("classical2", 4, 2, "ignorant", "honest", (1, {0})),
    ("classical2", 4, 2, "honest", "honest", (1, {1})),
    ("classical2", 4, 2, "honest", "substitute", (2, {1, 2})),
    ("classical1", 3, None, "subspace-2", "retain-guess", (1, {3})),
    ("classical1", 3, None, "subspace-2", "substitute", (2, {3})),
    ("classical2", 4, 2, "subspace-2", "substitute", (2, {3, 4})),
])
def test_classical_draws_a_column_only_when_a_party_reads_it(
    protocol, d, q, alice, bob, draws, monkeypatch
):
    # Per trial: Haar states and haar_complement columns. Eta is the one Haar
    # state but substitute Bob's probe. Ignorant Alice's frame draws a column
    # only when Bob reads one (retain-guess Bob one, substitute Bob one or
    # two); honest Alice draws r alone, not the d - 2 columns no party reads;
    # skip Bob's estimate draws one column. Subspace-2 Alice draws her
    # subspace's second column and the two columns of its Haar rotation, and
    # eta lies in their span, so Bob reads no free column but the probe's.
    # At d = 3 the probe's free column against honest or subspace-2 Alice is
    # the last free one, so it costs no draw.
    calls = {"haar_random": 0, "haar_complement": 0}

    def counted(name, real):
        def wrapper(*args):
            # haar_complement(fixed, count, rng) counts its columns.
            calls[name] += args[1] if name == "haar_complement" else 1
            return real(*args)
        return wrapper

    for name, modules in [
        ("haar_random", (strategies, protocols)),
        ("haar_complement", (strategies, qudit, estimation)),
    ]:
        wrapped = counted(name, getattr(modules[0], name))
        for module in modules:
            monkeypatch.setattr(module, name, wrapped)
    eps_c = 0.1 if alice == "honest" else 0.0
    params = ProtocolParams(d=d, q=q, eps_c_target=eps_c)
    alice, bob = AliceStrategy.from_name(alice), BobStrategy.from_name(bob)
    states, columns = draws
    for i in range(20):
        calls.update(dict.fromkeys(calls, 0))
        run_protocol(Protocol(protocol), params, alice, bob, trial_rng(6, i))
        assert calls["haar_random"] == states
        assert calls["haar_complement"] in columns


# ---------------------------------------------------------------------------
# abort variant


def test_abort_never_triggers_at_full_budget():
    rng = np.random.default_rng(12)
    params = ProtocolParams(d=2, n=4, q=5)  # q = n + 1
    for _ in range(200):
        out = run_protocol(Protocol.QUANTUM_B2A_ABORT, params, HONEST_A, HONEST_B, rng)
        assert out.verdict is not Verdict.ABORT


def test_always_abort_yields_abort_every_time():
    rng = np.random.default_rng(14)
    params = ProtocolParams(d=2, n=4, q=2)
    alice = AliceStrategy(AliceKind.ALWAYS_ABORT)
    for _ in range(50):
        out = run_protocol(Protocol.QUANTUM_B2A_ABORT, params, alice, HONEST_B, rng)
        assert out.verdict is Verdict.ABORT
        # No verdict announcement once the abort is on the wire.
        verdicts = [
            e for e in out.transcript.events
            if e.kind is EventKind.ANNOUNCE and e.payload.get("step") == "verdict"
        ]
        assert not verdicts


# ---------------------------------------------------------------------------
# one strategy per attack


_PAIRING_PARAMS = {
    Protocol.CLASSICAL1: ProtocolParams(d=3),
    Protocol.CLASSICAL2: ProtocolParams(d=3, q=2),
    Protocol.QUANTUM_A2B: ProtocolParams(d=3, n=2),
    Protocol.QUANTUM_B2A: ProtocolParams(d=3, n=4, q=2),
    Protocol.QUANTUM_B2A_ABORT: ProtocolParams(d=3, n=4, q=2),
}


def _replay(protocol, alice, bob):
    """Verdict, JSONL and the bytes of both guesses of 20 seeded trials."""
    runs = []
    for i in range(20):
        out = run_protocol(protocol, _PAIRING_PARAMS[protocol], alice, bob, trial_rng(3, i))
        guesses = (out.bob_guess, out.alice_guess)
        runs.append((
            out.verdict, out.transcript.to_jsonl(),
            *(None if g is None else g.amplitudes.tobytes() for g in guesses),
        ))
    return runs


def test_no_two_strategy_kinds_replay_each_other():
    # Two kinds that give the same trials draw for draw are one attack under
    # two names: each Alice kind is played against honest Bob, each Bob kind
    # against honest Alice, and every pair on one side must differ.
    aliases = []
    for protocol in Protocol:
        alices = {
            kind.value: _replay(
                protocol,
                AliceStrategy(kind, 2 if kind is AliceKind.SUBSPACE_KNOWLEDGE else None),
                HONEST_B,
            )
            for kind in AliceKind if protocol in ALICE_PLAYS[kind]
        }
        bobs = {
            kind.value: _replay(protocol, HONEST_A, BobStrategy(kind))
            for kind in BobKind if protocol in BOB_PLAYS[kind]
        }
        for runs in (alices, bobs):
            aliases += [
                (protocol.value, a, b) for a, b in combinations(runs, 2) if runs[a] == runs[b]
            ]
    assert aliases == []


def test_protocols_reads_no_strategy_kind():
    # Every party decision is drawn in strategies: protocols names a kind
    # only in the table of which strategy plays which protocol.
    tree = ast.parse(Path(protocols.__file__).read_text())
    allowed = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("ALICE_PLAYS", "BOB_PLAYS")
            for t in node.targets
        ):
            allowed |= {id(n) for n in ast.walk(node)}
    readers = [
        (node.lineno, node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("AliceKind", "BobKind")
        and id(node) not in allowed
    ]
    assert readers == []


def test_runners_draw_no_party_move():
    # Runners draw only measurement outcomes and hand rng to the parties:
    # protocols calls no generator method that picks a permutation, an
    # index or a choice.
    tree = ast.parse(Path(protocols.__file__).read_text())
    calls = [
        (node.lineno, node.func.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("permutation", "integers", "choice", "shuffle")
    ]
    assert calls == []


def test_no_module_qr_factors_a_matrix():
    # A Haar unitary is Gram-Schmidt of a Ginibre matrix (haar_complement);
    # QR stays only in the tests' independent references.
    calls = [
        (path.name, node.lineno)
        for path in sorted(Path(protocols.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "qr"
        and isinstance(node.func.value, ast.Attribute)
        and node.func.value.attr == "linalg"
    ]
    assert calls == []


def test_only_the_layouts_write_events():
    # Runs decide and logs follow: each runner calls its family's layout and
    # no event writer; only the layouts and their helpers call one.
    tree = ast.parse(Path(protocols.__file__).read_text())
    called = {
        fn.name: {
            node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
            for node in ast.walk(fn)
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Attribute, ast.Name))
        }
        for fn in tree.body if isinstance(fn, ast.FunctionDef)
    }
    emitters = {"emit", "commit", "sustain", "unveil"}
    writers = {name for name, calls in called.items() if calls & emitters}
    assert writers == {
        "_preshare_event", "_commit_round", "_open_and_rule",
        "_classical_log", "_a2b_log", "_b2a_log",
    }
    for runner, layout in [
        ("_run_classical", "_classical_log"), ("_run_a2b", "_a2b_log"), ("_run_b2a", "_b2a_log"),
    ]:
        assert called[runner] & (emitters | writers) == {layout}


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
# lazy frames against explicit ones


def _qr_unitary(d, rng):
    """A Haar d x d unitary: QR of a Ginibre matrix, R's diagonal phases moved into Q."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _explicit_measurement_choice(strategy, ctx):
    """The explicit-frame reference: Alice's whole d x d basis, every column fixed.

    Built as before the lazy frames: a QR unitary for ignorant Alice and
    for subspace Alice's rotation, ``haar_complement`` and ``column_stack``
    for the rest of honest and subspace Alice's basis, and commitments
    drawn with ``rng.choice``. QR is the tests' own, so the reference does
    not share the sampler it checks.
    """
    d, q, rng = ctx.true_state.dim, ctx.q, ctx.rng
    if strategy.kind is AliceKind.HONEST_KNOWING:
        eta = ctx.true_state.amplitudes
        rest = haar_complement(eta, d - 1, rng)
        r = rest[:, 0]
        a, b = np.sqrt(1.0 - ctx.eps_c_target), np.sqrt(ctx.eps_c_target)
        basis = np.column_stack([a * eta + b * r, b * eta - a * r, rest[:, 1:]])
        others = list(range(2, d))
        if q - 1 > len(others):
            extra = [1] + others
        else:
            extra = list(rng.choice(others, size=q - 1, replace=False)) if q > 1 else []
        commit_values = tuple(sorted([0] + [int(j) for j in extra[: q - 1]]))
    elif strategy.kind is AliceKind.IGNORANT:
        basis = _qr_unitary(d, rng)
        commit_values = tuple(int(j) for j in rng.choice(d, size=q, replace=False))
    else:
        k = strategy.subspace_dim
        subspace = knowledge_subspace(ctx.true_state, k, rng)
        rotated = subspace @ _qr_unitary(k, rng)
        basis = np.column_stack([rotated, haar_complement(rotated, d - k, rng)])
        in_subspace = list(range(min(q, k)))
        filler = rng.choice(np.arange(k, d), size=q - len(in_subspace), replace=False)
        commit_values = tuple(sorted(in_subspace + [int(j) for j in filler]))
    return ClassicalPlan(HaarFrame(d, basis), commit_values)


@pytest.mark.parametrize("protocol,d,q", [("classical1", 3, None), ("classical2", 4, 2)])
@pytest.mark.parametrize("alice", ["honest", "ignorant", "subspace-2", "subspace-d"])
def test_lazy_frames_match_explicit_frames(protocol, d, q, alice, monkeypatch):
    # Each Bob against this Alice, with the lazy frames and with the explicit
    # reference: acceptance, and Bob's mean-fsq when he guesses. Each figure's
    # difference is gated two-sided at z = 5. Subspace-d Alice (k = d) fixes
    # every column of her frame.
    alice = alice.replace("-d", f"-{d}")
    trials = 2000
    params = ProtocolParams(d=d, q=q, eps_c_target=0.1 if alice == "honest" else 0.0)
    alice_s = AliceStrategy.from_name(alice)
    for b, bob in enumerate(BobKind):
        legs = []
        for leg in (0, 1):
            rng = np.random.default_rng([230, d, b, leg, zlib.crc32(alice.encode())])
            with monkeypatch.context() as patch:
                if leg:
                    patch.setattr(
                        strategies, "_alice_measurement_choice", _explicit_measurement_choice
                    )
                runs = [
                    run_protocol(Protocol(protocol), params, alice_s, BobStrategy(bob), rng)
                    for _ in range(trials)
                ]
            figures = [[out.verdict is Verdict.ACCEPT for out in runs]]
            if runs[0].bob_guess is not None:
                figures.append([fidelity_sq(out.bob_guess, out.true_state) for out in runs])
            legs.append(np.array(figures, dtype=float).T)
        lazy, explicit = legs
        se = np.sqrt((lazy.var(axis=0, ddof=1) + explicit.var(axis=0, ddof=1)) / trials)
        assert np.all(np.abs(lazy.mean(axis=0) - explicit.mean(axis=0)) <= 5 * se), bob

