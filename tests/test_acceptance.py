"""Acceptance suite: one test per criterion, each printing a verdict line.

Every tolerance is pinned here; run with ``pytest tests/test_acceptance.py -s``
to see the per-criterion lines as they complete.
"""

import math

import numpy as np
import pytest

from qwitness.cli import main as cli_main
from qwitness.harness import (
    ExperimentSpec,
    Metric,
    run_trials,
)
from qwitness.protocols import (
    Protocol,
    ProtocolParams,
    a2b_soundness,
    eps_c_b2a_exact,
    hoeffding_bound,
    run_protocol,
    soundness_floor_audit,
)
from qwitness.qudit import (
    MAXIMALLY_MIXED,
    fidelity_sq,
    haar_random,
    sym_dim,
    sym_outcome_probability,
    sym_projector,
)
from qwitness.estimation import basis_measure_guess, covariant_estimate
from qwitness.spacetime import (
    AgentId,
    AgentSite,
    EventKind,
    SpacetimeEvent,
    validate_transcript,
)
from qwitness.strategies import AliceKind, AliceStrategy, BobKind, BobStrategy

HONEST_A = AliceStrategy(AliceKind.HONEST_KNOWING)
IGNORANT = AliceStrategy(AliceKind.IGNORANT)
HONEST_B = BobStrategy(BobKind.HONEST)


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


def bernoulli_se(p, n):
    return math.sqrt(max(p * (1 - p), 1e-12) / n)


def acceptance_spec(protocol, params, alice, bob, trials, seed):
    return ExperimentSpec(protocol, params, alice, bob, Metric.ACCEPTANCE, trials, seed)


# ---------------------------------------------------------------------------
# shared Monte Carlo estimates (reused by the audit criterion)


@pytest.fixture(scope="module")
def sender_soundness_estimates():
    out = {}
    for n, d in [(1, 2), (2, 2)]:
        spec = acceptance_spec(
            Protocol.QUANTUM_A2B, ProtocolParams(d=d, n=n),
            IGNORANT, HONEST_B, 100_000, 210 + 10 * n + d,
        )
        out[(n, d)] = run_trials(spec)
    return out


@pytest.fixture(scope="module")
def receiver_soundness_estimates():
    out = {}
    for n, q in [(9, 2), (19, 4)]:
        spec = acceptance_spec(
            Protocol.QUANTUM_B2A, ProtocolParams(d=2, n=n, q=q),
            IGNORANT, HONEST_B, 100_000, 600 + n,
        )
        out[(n, q)] = run_trials(spec)
    return out


@pytest.fixture(scope="module")
def retain_guess_concealment():
    """Honest Alice against retain-guess Bob in b2a at (n, q) = (4, 2): Bob's mean-fsq by d."""
    retain = BobStrategy(BobKind.MEASURE_RETAIN_GUESS)
    return {
        d: run_trials(ExperimentSpec(
            Protocol.QUANTUM_B2A, ProtocolParams(d=d, n=4, q=2),
            HONEST_A, retain, Metric.MEAN_FSQ, 20_000, 700 + d,
        ))
        for d in (2, 3, 5)
    }


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_symmetric_subspace_oracle():
    worst_trace = 0.0
    rng = np.random.default_rng(1)
    for d in range(2, 17):
        n = 1
        while d**n <= 256:
            proj = sym_projector(n, d).matrix
            worst_trace = max(
                worst_trace, abs(float(np.trace(proj).real) - sym_dim(n, d))
            )
            n += 1
    worst_mixed = 0.0
    for d in range(2, 17):
        n_copies = 1
        while d ** (n_copies + 1) <= 256:
            phi = haar_random(d, rng)
            got = sym_outcome_probability([phi] * n_copies + [MAXIMALLY_MIXED], d)
            expected = sym_dim(n_copies + 1, d) / (sym_dim(n_copies, d) * d)
            worst_mixed = max(worst_mixed, abs(got - expected))
            n_copies += 1
    worst_form = 0.0
    for n in range(0, 51):
        for d in range(2, 51):
            ratio = sym_dim(n + 1, d) / (sym_dim(n, d) * d)
            worst_form = max(worst_form, abs(ratio - a2b_soundness(n, d)))
    ok = worst_trace < 1e-10 and worst_mixed < 1e-10 and worst_form < 1e-12
    assert report(
        1, ok,
        f"trace diff {worst_trace:.2e}, mixed-factor diff {worst_mixed:.2e}, "
        f"closed-form diff {worst_form:.2e}",
    )


def test_criterion_2_sender_soundness(sender_soundness_estimates):
    all_ok = True
    details = []
    for (n, d), target in [((1, 2), 0.75), ((2, 2), 2 / 3)]:
        stats = sender_soundness_estimates[(n, d)]
        ok = abs(stats.estimate - target) <= 3 * stats.std_err
        all_ok &= ok
        details.append(f"(N={n},d={d}): {stats.estimate:.4f} vs {target:.4f}")
    assert report(2, all_ok, "; ".join(details))


def test_criterion_3_no_protocol_estimation():
    all_ok = True
    details = []
    for d in (2, 3, 5):
        rng = np.random.default_rng(300 + d)
        trials = 100_000
        values = np.empty(trials)
        for i in range(trials):
            eta = haar_random(d, rng)
            values[i] = fidelity_sq(basis_measure_guess(eta, rng), eta)
        target = 2 / (d + 1)
        se = values.std(ddof=1) / math.sqrt(trials)
        ok = abs(values.mean() - target) <= 3 * se
        all_ok &= ok
        details.append(f"d={d}: {values.mean():.4f} vs {target:.4f}")
    assert report(3, all_ok, "; ".join(details))


def test_criterion_4_sender_concealment():
    all_ok = True
    details = []
    for n, d in [(1, 2), (1, 3), (2, 3)]:
        rng = np.random.default_rng(400 + 10 * n + d)
        trials = 100_000
        m = n + 1
        values = np.empty(trials)
        for i in range(trials):
            eta = haar_random(d, rng)
            values[i] = fidelity_sq(covariant_estimate(eta, m, rng), eta)
        target = (n + 2) / (n + 1 + d)
        se = values.std(ddof=1) / math.sqrt(trials)
        ok = abs(values.mean() - target) <= 3 * se
        all_ok &= ok
        details.append(f"(N={n},d={d}): {values.mean():.4f} vs {target:.4f}")
    assert report(4, all_ok, "; ".join(details))


def test_criterion_5_receiver_completeness():
    all_ok = True
    details = []
    for n, d, q in [(4, 2, 2), (9, 3, 4), (16, 2, 9)]:
        spec = acceptance_spec(
            Protocol.QUANTUM_B2A, ProtocolParams(d=d, n=n, q=q),
            HONEST_A, HONEST_B, 10_000, 500 + n + d + q,
        )
        stats = run_trials(spec)
        rejection = 1.0 - stats.estimate
        target = eps_c_b2a_exact(n, d, q)
        ok = abs(rejection - target) <= 3 * stats.std_err
        all_ok &= ok
        details.append(f"(N={n},d={d},q={q}): {rejection:.4f} vs {target:.4f}")

    def exact(n):
        return eps_c_b2a_exact(n, 2, math.ceil((n + 1) / 2))

    decreasing = exact(64) < exact(16) < exact(4)
    all_ok &= decreasing
    details.append(
        f"decreasing: {exact(4):.4f} > {exact(16):.4f} > {exact(64):.4f}"
    )
    assert report(5, all_ok, "; ".join(details))


def test_criterion_6_receiver_soundness(receiver_soundness_estimates):
    all_ok = True
    details = []
    for n, q in [(9, 2), (19, 4)]:
        stats = receiver_soundness_estimates[(n, q)]
        target = q / (n + 1)
        ok = abs(stats.estimate - target) <= 3 * stats.std_err
        all_ok &= ok
        details.append(f"(N={n},q={q}): {stats.estimate:.4f} vs {target:.4f}")
    assert report(6, all_ok, "; ".join(details))


def test_criterion_7_receiver_concealment_bound(retain_guess_concealment):
    all_ok = True
    details = []
    for d, stats in retain_guess_concealment.items():
        bound = 4 / (d + 1)
        ok = stats.estimate <= bound + 3 * stats.std_err
        all_ok &= ok
        details.append(f"d={d}: {stats.estimate:.4f} <= {bound:.4f}")
    # Honest Bob ends with no guess and no measurement at his sites.
    rng = np.random.default_rng(799)
    zero_information = True
    for _ in range(200):
        out = run_protocol(
            Protocol.QUANTUM_B2A, ProtocolParams(d=2, n=4, q=2), HONEST_A, HONEST_B, rng
        )
        bob_measures = [
            e for e in out.transcript.events
            if e.kind is EventKind.MEASURE
            and e.site.agent_id in (AgentId.B1, AgentId.B2)
        ]
        if out.bob_guess is not None or bob_measures:
            zero_information = False
    all_ok &= zero_information
    details.append(f"honest Bob zero information events: {zero_information}")
    assert report(7, all_ok, "; ".join(details))


def test_criterion_7_exact_retain_guess_figures(retain_guess_concealment):
    # Next to criterion 7's bound, the exact figures of the retain-guess
    # cells, each two-sided at z = 5. Bob keeps eta and learns nothing from
    # the run: 2/(d+1). Honest Alice detects
    # Y ~ Binomial(n+1, 1/d) of his n + 1 Haar substitutes, keeps min(Y, q)
    # and is accepted iff his uniform label is among them: E[min(Y, q)]/(n+1).
    # Stealing Alice estimates a substitute independent of eta: 1/d.
    n, q, trials = 4, 2, 10_000
    retain = BobStrategy(BobKind.MEASURE_RETAIN_GUESS)
    steal = AliceStrategy(AliceKind.STEAL_STATE)
    all_ok = True
    details = []
    for d, stats in retain_guess_concealment.items():
        params = ProtocolParams(d=d, n=n, q=q)
        target = 2 / (d + 1)
        ok = abs(stats.estimate - target) <= 5 * stats.std_err
        details.append(f"d={d}: bob fsq {stats.estimate:.4f} vs {target:.4f}")

        accepted = run_trials(acceptance_spec(
            Protocol.QUANTUM_B2A, params, HONEST_A, retain, trials, 720 + d,
        ))
        p = 1 / d
        kept = sum(
            math.comb(n + 1, y) * p**y * (1 - p) ** (n + 1 - y) * min(y, q)
            for y in range(n + 2)
        )
        target = kept / (n + 1)
        ok &= abs(accepted.estimate - target) <= 5 * bernoulli_se(target, trials)
        details.append(f"acceptance {accepted.estimate:.4f} vs {target:.4f}")

        stolen = run_trials(ExperimentSpec(
            Protocol.QUANTUM_B2A, params, steal, retain, Metric.ALICE_MEAN_FSQ,
            trials, 740 + d,
        ))
        target = 1 / d
        ok &= abs(stolen.estimate - target) <= 5 * stolen.std_err
        details.append(f"alice fsq {stolen.estimate:.4f} vs {target:.4f}")
        all_ok &= ok
    assert report("7 exact", all_ok, "; ".join(details))


def test_criterion_8_soundness_floor_audit(
    sender_soundness_estimates, receiver_soundness_estimates
):
    all_ok = True
    details = []
    # Sender protocol: completeness error is exactly zero.
    for (n, d), stats in sender_soundness_estimates.items():
        result = soundness_floor_audit(stats.estimate, stats.std_err, 0.0, 0.0, d)
        all_ok &= result.passed
        details.append(f"a2b(N={n},d={d}): ratio {result.ratio:.4f} >= {result.floor}")
    # Receiver protocol: pair with the exact completeness error.
    for (n, q), stats in receiver_soundness_estimates.items():
        eps_c = eps_c_b2a_exact(n, 2, q)
        result = soundness_floor_audit(stats.estimate, stats.std_err, eps_c, 0.0, 2)
        all_ok &= result.passed
        details.append(f"b2a(N={n},q={q}): ratio {result.ratio:.4f} >= {result.floor}")
    # The single-prediction classical protocol attains the floor.
    spec = acceptance_spec(
        Protocol.CLASSICAL1, ProtocolParams(d=2),
        IGNORANT, HONEST_B, 30_000, 880,
    )
    stats = run_trials(spec)
    tight = abs(stats.estimate - 0.5) <= 3 * stats.std_err
    all_ok &= tight
    details.append(f"classical1 tightness: {stats.estimate:.4f} vs 0.5")
    assert report(8, all_ok, "; ".join(details))


def test_criterion_9_abort_frequency():
    n, eps = 100, 0.1
    q = int(n / 2 + eps * n)
    spec = ExperimentSpec(
        Protocol.QUANTUM_B2A_ABORT, ProtocolParams(d=2, n=n, q=q),
        HONEST_A, HONEST_B, Metric.ABORT_RATE, 10_000, 900,
    )
    stats = run_trials(spec)
    bound = hoeffding_bound(n, eps)
    ok = stats.estimate <= bound + 3 * bernoulli_se(bound, spec.n_trials)
    # Next to the tail bound, the exact rate, two-sided at z = 5: Alice aborts
    # iff X >= q of the n decoys test positive, X ~ Binomial(n, 1/2).
    exact = sum(math.comb(n, x) for x in range(q, n + 1)) / 2**n
    ok &= abs(stats.estimate - exact) <= 5 * bernoulli_se(exact, spec.n_trials)
    assert report(
        9, ok,
        f"abort rate {stats.estimate:.4f} <= exp(-2 eps^2 N) = {bound:.4f}, "
        f"exact P[X >= q] = {exact:.4f}",
    )


def test_criterion_10_substitute_bob_knowledge_gain():
    rng = np.random.default_rng(1000)
    sub = BobStrategy(BobKind.SUBSTITUTE_STATE)
    trials = 10_000
    values = np.empty(trials)
    for i in range(trials):
        out = run_protocol(Protocol.CLASSICAL1, ProtocolParams(d=2), HONEST_A, sub, rng)
        values[i] = fidelity_sq(out.bob_guess, out.true_state)
    baseline = 2 / 3
    se = values.std(ddof=1) / math.sqrt(trials)
    ok = values.mean() - baseline >= 4 * se
    assert report(
        10, ok,
        f"substitute-state mean F^2 {values.mean():.4f} vs no-protocol {baseline:.4f}",
    )


def test_criterion_10_exact_classical_figures():
    # Next to criterion 10's one-sided gate, the exact figures of the cells
    # whose frames are drawn lazily, each two-sided at z = 5, at classical1
    # d = 3 and classical2 d = 4, q = 2. With eps = eps_c_target, F = 2/(d+1)
    # and s = (1-eps)^2 + eps^2: retain-guess Bob reads the column his
    # outcome names, s against honest Alice and F against ignorant Alice.
    # Substitute Bob's probe is accepted with probability q/d; an unveiling
    # hands him a committed column (1 - eps for honest Alice's column 0,
    # nothing for the free ones, 1/d on average for ignorant Alice's), and
    # otherwise he measures the state in the frame for s or F.
    eps, trials = 0.1, 6000
    retain = BobStrategy(BobKind.MEASURE_RETAIN_GUESS)
    sub = BobStrategy(BobKind.SUBSTITUTE_STATE)
    all_ok = True
    details = []
    for seed, (protocol, d, q) in enumerate(
        [(Protocol.CLASSICAL1, 3, None), (Protocol.CLASSICAL2, 4, 2)]
    ):
        qd = (q or 1) / d
        s, f = (1 - eps) ** 2 + eps**2, 2 / (d + 1)
        cells = [
            (HONEST_A, eps, retain, Metric.MEAN_FSQ, s),
            (HONEST_A, eps, sub, Metric.ACCEPTANCE, qd),
            (HONEST_A, eps, sub, Metric.MEAN_FSQ, (1 - eps) / d + (1 - qd) * s),
            (IGNORANT, 0.0, retain, Metric.MEAN_FSQ, f),
            (IGNORANT, 0.0, sub, Metric.ACCEPTANCE, qd),
            (IGNORANT, 0.0, sub, Metric.MEAN_FSQ, qd / d + (1 - qd) * f),
        ]
        for cell, (alice, eps_c, bob, metric, target) in enumerate(cells):
            stats = run_trials(ExperimentSpec(
                protocol, ProtocolParams(d=d, q=q, eps_c_target=eps_c),
                alice, bob, metric, trials, 1010 + 10 * seed + cell,
            ))
            se = (
                bernoulli_se(target, trials) if metric is Metric.ACCEPTANCE
                else stats.std_err
            )
            ok = abs(stats.estimate - target) <= 5 * se
            all_ok &= ok
            details.append(
                f"{protocol.value} {alice.kind.value}/{bob.kind.value} {metric.value} "
                f"{stats.estimate:.4f} vs {target:.4f}"
            )
    assert report("10 exact", all_ok, "; ".join(details))


def test_criterion_11_infrastructure(tmp_path):
    # Seeded reruns are byte-identical.
    args = [
        "simulate", "--protocol", "b2a", "--d", "2", "--n", "4", "--q", "2",
        "--alice", "honest", "--trials", "500", "--seed", "11",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    reproducible = out1.read_bytes() == out2.read_bytes()

    # Honest runs of every protocol validate.
    rng = np.random.default_rng(1100)
    cases = [
        (Protocol.CLASSICAL1, ProtocolParams(d=2), HONEST_A),
        (Protocol.CLASSICAL2, ProtocolParams(d=4, q=2), HONEST_A),
        (Protocol.QUANTUM_A2B, ProtocolParams(d=2, n=2), HONEST_A),
        (Protocol.QUANTUM_B2A, ProtocolParams(d=2, n=4, q=2), HONEST_A),
        (Protocol.QUANTUM_B2A_ABORT, ProtocolParams(d=2, n=6, q=2), HONEST_A),
    ]
    transcripts_ok = True
    for protocol, params, alice in cases:
        for _ in range(20):
            out = run_protocol(protocol, params, alice, HONEST_B, rng)
            if not out.transcript.validate().ok:
                transcripts_ok = False

    # Adversarial timing fixtures are all flagged.
    b1 = AgentSite(AgentId.B1, 0.01)
    a2 = AgentSite(AgentId.A2, 1.01)
    fixtures = [
        # Receive with no matching send.
        [SpacetimeEvent(0, 0.0, b1, EventKind.RECEIVE, {})],
        # Superluminal dependency: sustain leaning on a distant simultaneous announce.
        [
            SpacetimeEvent(0, 0.02, b1, EventKind.ANNOUNCE, {"label": 3}),
            SpacetimeEvent(1, 0.02, a2, EventKind.COMMIT_SUSTAIN, {}, (0,)),
        ],
        # Receive before light could arrive.
        [
            SpacetimeEvent(0, 0.0, a2, EventKind.SEND, {}),
            SpacetimeEvent(1, 0.1, b1, EventKind.RECEIVE, {}, (0,)),
        ],
    ]
    fixtures_flagged = all(not validate_transcript(f).ok for f in fixtures)

    ok = reproducible and transcripts_ok and fixtures_flagged
    assert report(
        11, ok,
        f"reproducible={reproducible}, transcripts_ok={transcripts_ok}, "
        f"fixtures_flagged={fixtures_flagged}",
    )
