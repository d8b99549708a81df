"""Executable state machines for the knowledge-evidencing protocols.

Four protocols plus an abort variant, each run as a timed event log
over the standard two-pair agent layout:

  classical1   Alice announces a projective measurement and commits one
               predicted outcome; Bob measures and reports; Alice
               unveils iff the report matches.
  classical2   As classical1, but Alice commits q outcome indices and
               unveils the one matching Bob's report, if present.
  a2b          Alice hands Bob N systems; Bob projects the N+1 systems
               (including his own) onto the symmetric subspace and
               accepts on the symmetric outcome.
  b2a          Bob hides his system among N random decoys and sends all
               N+1 to Alice; she flags detections via q sustained
               commitments and must unveil the label Bob announces.
  b2a (abort)  As b2a, but Alice aborts when she detects more than q
               candidates, instead of dropping some at random.

``closed_forms`` evaluates the exact completeness, soundness and
concealment figures for each protocol, and ``soundness_floor_audit``
checks Monte Carlo estimates against the universal floor
soundness / (1 - completeness_err) >= 1/d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .commitment import Commitment, commit, sustain, unveil
from .errors import ConfigurationError
from .estimation import EstimationResult, covariant_estimate
from .qudit import PureState, haar_random, symmetric_acceptance
from .qudit import measure_binary  # noqa: F401 - perfbench tests read protocols.measure_binary
from .spacetime import (
    AgentId,
    EventKind,
    TimingConfig,
    Transcript,
    standard_configuration,
)
from .strategies import (
    AliceKind,
    AliceStrategy,
    BobKind,
    BobStrategy,
    CopyPreparationContext,
    DetectionCommitContext,
    FinalGuessContext,
    MeasurementChoiceContext,
    OutcomeReportContext,
    Package,
    PackageContext,
    alice_act,
    bob_act,
    knowledge_subspace,
    record_guess,
)


class Protocol(Enum):
    CLASSICAL1 = "classical1"
    CLASSICAL2 = "classical2"
    QUANTUM_A2B = "a2b"
    QUANTUM_B2A = "b2a"
    QUANTUM_B2A_ABORT = "b2a-abort"


class Verdict(Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    ABORT = "abort"


class BoundKind(Enum):
    EXACT = "exact"
    UPPER = "upper"
    LOWER = "lower"


@dataclass(frozen=True)
class ProtocolParams:
    """Security parameters shared by all protocols.

    ``d`` is the qudit dimension, ``n`` the decoy or copy count, ``q``
    the commitment-list length (None resolves to the protocol default,
    ceil((n + 1) / d) for the receiver protocol and 1 otherwise), and
    ``cheat_epsilon`` the probability that a commitment accepts an
    unveiling of a value it was not committed to.
    """

    d: int
    n: int = 0
    q: int | None = None
    eps_c_target: float = 0.0
    abort_epsilon: float = 0.1
    cheat_epsilon: float = 0.0

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ConfigurationError("protocol states need dimension d >= 2")
        if self.n < 0:
            raise ConfigurationError("system count n must be nonnegative")
        if self.q is not None and self.q < 1:
            raise ConfigurationError("commitment-list length q must be >= 1")
        if not 0.0 <= self.eps_c_target < 1.0:
            raise ConfigurationError("eps_c_target must lie in [0, 1)")
        if not 0.0 < self.abort_epsilon < math.inf:
            raise ConfigurationError("abort_epsilon must be positive and finite")
        if not 0.0 <= self.cheat_epsilon < 1.0:
            raise ConfigurationError("cheat_epsilon must lie in [0, 1)")

    def check(self, protocol: Protocol) -> None:
        """Reject a setting that ``protocol`` would accept and then ignore."""
        classical = protocol in (Protocol.CLASSICAL1, Protocol.CLASSICAL2)
        if protocol is Protocol.QUANTUM_A2B and self.q is not None:
            raise ConfigurationError("a2b commits nothing, so q does not apply")
        if protocol is Protocol.QUANTUM_A2B and self.cheat_epsilon > 0.0:
            raise ConfigurationError("a2b has no commitments, so cheat_epsilon does not apply")
        if classical and self.n > 0:
            raise ConfigurationError(f"{protocol.value} sends no extra systems, so n must be 0")
        if not classical and self.eps_c_target > 0.0:
            raise ConfigurationError(
                f"eps_c_target applies to the classical protocols only, not {protocol.value}"
            )
        self.resolved_q(protocol)

    def resolved_q(self, protocol: Protocol) -> int:
        if self.q is not None:
            q = self.q
        elif protocol is Protocol.QUANTUM_B2A:
            q = math.ceil((self.n + 1) / self.d)
        elif protocol is Protocol.QUANTUM_B2A_ABORT:
            # Detection budget with headroom so the abort rate is tail-bounded.
            q = max(1, math.ceil(self.n / self.d + self.abort_epsilon * self.n))
        else:
            q = 1
        if protocol in (Protocol.QUANTUM_B2A, Protocol.QUANTUM_B2A_ABORT):
            if q > self.n + 1:
                raise ConfigurationError(f"q={q} must not exceed n + 1 = {self.n + 1}")
        if protocol is Protocol.CLASSICAL2 and q > self.d:
            raise ConfigurationError(f"q={q} must not exceed d={self.d}")
        if protocol is Protocol.CLASSICAL1 and q != 1:
            raise ConfigurationError("classical1 commits exactly one index")
        return q


@dataclass(frozen=True)
class ProtocolOutcome:
    verdict: Verdict
    transcript: Transcript
    bob_guess: EstimationResult | None = None
    alice_guess: EstimationResult | None = None
    true_state: PureState | None = None


@dataclass(frozen=True)
class SecurityFigures:
    """Closed-form protocol figures; bound entries carry their direction."""

    completeness_err: float
    soundness: float
    soundness_kind: BoundKind
    concealment: float
    concealment_kind: BoundKind
    baseline_fsq: float
    abort_bound: float | None = None


# ---------------------------------------------------------------------------
# Closed forms


def eps_c_b2a_exact(n: int, d: int, q: int) -> float:
    """Honest rejection probability of the receiver protocol.

    With the unknown system always detected, rejection happens only
    when x of the n decoys also test positive with x >= q and the
    random size-q sublist misses the announced label:

        sum_{x=q}^{n} C(n, x) (1/d)^x (1 - 1/d)^(n-x) * (x + 1 - q) / (x + 1)
    """
    if not 1 <= q <= n + 1:
        raise ConfigurationError(f"need 1 <= q <= n + 1, got q={q}, n={n}")
    if d < 2:
        raise ConfigurationError("need d >= 2")
    p = 1.0 / d
    total = 0.0
    for x in range(q, n + 1):
        pmf = math.comb(n, x) * p**x * (1.0 - p) ** (n - x)
        total += pmf * (x + 1 - q) / (x + 1)
    return total


def hoeffding_bound(n: int, epsilon: float) -> float:
    """Tail bound exp(-2 epsilon^2 n) on exceeding the detection mean."""
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    return math.exp(-2.0 * epsilon**2 * n)


def a2b_soundness(n: int, d: int) -> float:
    """Best blind acceptance in the sender protocol: 1/(n+1) + n/(d(n+1))."""
    return 1.0 / (n + 1) + n / (d * (n + 1))


def closed_forms(protocol: Protocol, params: ProtocolParams) -> SecurityFigures:
    """The exact security figures for a protocol at the given parameters."""
    d, n = params.d, params.n
    baseline = 2.0 / (d + 1)
    if protocol is Protocol.QUANTUM_A2B:
        return SecurityFigures(
            completeness_err=0.0,
            soundness=a2b_soundness(n, d),
            soundness_kind=BoundKind.EXACT,
            concealment=(n + 2) / (n + 1 + d),
            concealment_kind=BoundKind.EXACT,
            baseline_fsq=baseline,
        )
    if protocol in (Protocol.QUANTUM_B2A, Protocol.QUANTUM_B2A_ABORT):
        q = params.resolved_q(protocol)
        if protocol is Protocol.QUANTUM_B2A:
            eps_c = eps_c_b2a_exact(n, d, q)
            abort_bound = None
        else:
            eps_c = 0.0
            margin = q / n - 1.0 / d if n > 0 else None
            abort_bound = (
                hoeffding_bound(n, margin) if margin is not None and margin > 0 else None
            )
        return SecurityFigures(
            completeness_err=eps_c,
            soundness=q / (n + 1),
            soundness_kind=BoundKind.EXACT,
            concealment=4.0 / (d + 1),
            concealment_kind=BoundKind.UPPER,
            baseline_fsq=baseline,
            abort_bound=abort_bound,
        )
    if protocol in (Protocol.CLASSICAL1, Protocol.CLASSICAL2):
        q = params.resolved_q(protocol)
        eps_c = params.eps_c_target
        return SecurityFigures(
            completeness_err=eps_c,
            soundness=q / d,
            soundness_kind=BoundKind.EXACT,
            concealment=(1.0 - eps_c) ** 2 / q,
            concealment_kind=BoundKind.LOWER,
            baseline_fsq=baseline,
        )
    raise ConfigurationError(f"unsupported protocol {protocol!r}")


# ---------------------------------------------------------------------------
# Shared run scaffolding

# Every run uses the one standard two-pair layout.
_TIMING = TimingConfig()
_SITES = standard_configuration(_TIMING)
_A1, _A2, _B1 = _SITES[AgentId.A1], _SITES[AgentId.A2], _SITES[AgentId.B1]


@dataclass
class _Run:
    rng: np.random.Generator
    transcript: Transcript
    true_state: PureState


def _start_run(params: ProtocolParams, rng: np.random.Generator) -> _Run:
    return _Run(rng, Transcript(), haar_random(params.d, rng))


def _bind_subspace(
    strategy: AliceStrategy, run: _Run
) -> np.ndarray | None:
    if strategy.kind is AliceKind.SUBSPACE_KNOWLEDGE:
        return knowledge_subspace(run.true_state, strategy.subspace_dim, run.rng)
    return None


def _preshare_event(run: _Run):
    """Alice's agents share commitment data well before the run starts."""
    return run.transcript.emit(
        -(_TIMING.D + 2 * _TIMING.d_small),
        _A1,
        EventKind.ANNOUNCE,
        {"step": "pre-shared commitment data"},
    )


# ---------------------------------------------------------------------------
# Classical protocols


def _run_classical(
    protocol: Protocol,
    params: ProtocolParams,
    alice: AliceStrategy,
    bob: BobStrategy,
    rng: np.random.Generator,
) -> ProtocolOutcome:
    q = params.resolved_q(protocol)
    run = _start_run(params, rng)
    t, tr = _TIMING, run.transcript
    a1, a2, b1 = _A1, _A2, _B1

    subspace = _bind_subspace(alice, run)
    plan = alice_act(
        alice,
        MeasurementChoiceContext(
            params.d, q, params.eps_c_target, run.true_state, subspace, rng
        ),
    )
    shared = _preshare_event(run)

    # t = 0: A1 announces the measurement, A2 commits the predicted indices.
    announce = tr.emit(
        0.0, a1, EventKind.ANNOUNCE, {"step": "measurement", "outcomes": params.d},
        depends_on=(shared.event_id,),
    )
    basis_rx = tr.emit(
        t.d_small, b1, EventKind.RECEIVE, {"step": "measurement"},
        depends_on=(announce.event_id,),
    )
    commitments: list[Commitment] = [
        commit(v, params.d, params.cheat_epsilon, a2, 0.0, tr,
               depends_on=(shared.event_id,))
        for v in plan.commit_values
    ]
    # Second commitment round, run by the near pair from pre-shared data.
    for c in commitments:
        sustain(c, a1, t.delta, tr, depends_on=(shared.event_id,),
                window=(t.delta, t.delta))

    # t = delta: B1 measures and reports.
    report = bob_act(bob, OutcomeReportContext(plan.basis, run.true_state, rng))
    unveiled_value: int | None = None
    unveil_deps: tuple[int, ...] = ()
    verdict = Verdict.REJECT
    if report.reported is None:
        tr.emit(t.delta, b1, EventKind.ANNOUNCE, {"step": "no-report"})
    else:
        measured = tr.emit(
            t.delta, b1, EventKind.MEASURE, {"outcome": report.reported},
            depends_on=(basis_rx.event_id,),
        )
        sent = tr.emit(
            t.delta, b1, EventKind.SEND, {"outcome": report.reported},
            depends_on=(measured.event_id,),
        )
        report_rx = tr.emit(
            t.delta + t.d_small, a1, EventKind.RECEIVE, {"step": "report"},
            depends_on=(sent.event_id,),
        )
        # t = delta': A1 unveils iff the report matches a committed index.
        if report.reported in plan.commit_values:
            slot = plan.commit_values.index(report.reported)
            accepted = unveil(
                commitments[slot], report.reported, rng, a1, t.delta_prime, tr,
                depends_on=(report_rx.event_id, shared.event_id),
            )
            unveil_deps = (commitments[slot].phase_events[-1].event_id,)
            if accepted:
                unveiled_value = report.reported
        else:
            tr.emit(
                t.delta_prime, a1, EventKind.ANNOUNCE, {"step": "failure"},
                depends_on=(report_rx.event_id,),
            )
        # Verdict once B1 can compare notes with B2 across the separation.
        verdict_time = t.D + t.delta_prime
        accept = unveiled_value is not None and unveiled_value == report.reported
        tr.emit(
            verdict_time, b1, EventKind.ANNOUNCE,
            {"step": "verdict", "accept": accept},
            depends_on=(*unveil_deps, commitments[0].phase_events[0].event_id),
        )
        verdict = Verdict.ACCEPT if accept else Verdict.REJECT

    guess = bob_act(
        bob,
        FinalGuessContext(
            basis=plan.basis,
            reported=report.reported,
            unveiled_value=unveiled_value,
            retained=report.retained,
            rng=rng,
        ),
    )
    return ProtocolOutcome(
        verdict, tr, record_guess(guess, run.true_state), None, run.true_state
    )


def run_classical1(
    params: ProtocolParams,
    alice: AliceStrategy,
    bob: BobStrategy,
    rng: np.random.Generator,
) -> ProtocolOutcome:
    """Single-prediction classical protocol; soundness 1/d."""
    return _run_classical(Protocol.CLASSICAL1, params, alice, bob, rng)


def run_classical2(
    params: ProtocolParams,
    alice: AliceStrategy,
    bob: BobStrategy,
    rng: np.random.Generator,
) -> ProtocolOutcome:
    """q-prediction classical protocol; soundness q/d."""
    return _run_classical(Protocol.CLASSICAL2, params, alice, bob, rng)


# ---------------------------------------------------------------------------
# Quantum sender protocol (Alice hands over copies)


def run_quantum_a2b(
    params: ProtocolParams,
    alice: AliceStrategy,
    bob: BobStrategy,
    rng: np.random.Generator,
) -> ProtocolOutcome:
    """Alice supplies n systems; Bob projects all n + 1 onto the symmetric subspace."""
    d, n = params.d, params.n
    run = _start_run(params, rng)
    t, tr = _TIMING, run.transcript
    a1, b1 = _A1, _B1

    subspace = _bind_subspace(alice, run)
    # Every copy-preparing strategy hands over n copies of one state phi.
    phi = alice_act(alice, CopyPreparationContext(d, run.true_state, subspace, rng))
    sent = tr.emit(0.0, a1, EventKind.SEND, {"systems": n})
    received = tr.emit(
        t.d_small, b1, EventKind.RECEIVE, {"systems": n}, depends_on=(sent.event_id,)
    )

    verdict = Verdict.REJECT
    if bob.kind is BobKind.SKIP_PROTOCOL_MEASURE:
        tr.emit(2 * t.d_small, b1, EventKind.ANNOUNCE, {"step": "no-measurement"})
        guess = bob_act(bob, FinalGuessContext(retained=run.true_state, rng=rng))
    else:
        own = haar_random(d, rng) if bob.kind is BobKind.SUBSTITUTE_STATE else run.true_state
        # One uniform is drawn even at n = 0, where the test accepts with certainty.
        accept = bool(rng.random() < symmetric_acceptance(phi, n, own))
        measured = tr.emit(
            2 * t.d_small, b1, EventKind.MEASURE, {"outcome": int(accept)},
            depends_on=(received.event_id,),
        )
        tr.emit(
            3 * t.d_small, b1, EventKind.ANNOUNCE,
            {"step": "verdict", "accept": accept},
            depends_on=(measured.event_id,),
        )
        verdict = Verdict.ACCEPT if accept else Verdict.REJECT
        # After an honest run the copies are undisturbed; with honest Alice
        # they are all the unknown state, so Bob may estimate from n + 1 copies.
        copies = n + 1 if alice.kind is AliceKind.HONEST_KNOWING and own is run.true_state else 1
        guess = bob_act(bob, FinalGuessContext(retained=run.true_state, copies=copies, rng=rng))
    return ProtocolOutcome(
        verdict, tr, record_guess(guess, run.true_state), None, run.true_state
    )


# ---------------------------------------------------------------------------
# Quantum receiver protocol (Bob hands over his system among decoys)


def _run_b2a(
    params: ProtocolParams,
    alice: AliceStrategy,
    bob: BobStrategy,
    rng: np.random.Generator,
    abort_option: bool,
) -> ProtocolOutcome:
    protocol = Protocol.QUANTUM_B2A_ABORT if abort_option else Protocol.QUANTUM_B2A
    q = params.resolved_q(protocol)
    d, n = params.d, params.n
    run = _start_run(params, rng)
    t, tr = _TIMING, run.transcript
    a1, a2, b1 = _A1, _A2, _B1

    shared = _preshare_event(run)
    package: Package = bob_act(bob, PackageContext(run.true_state, n, d, rng))

    sent = tr.emit(
        -2 * t.d_small, b1, EventKind.SEND, {"systems": n + 1}
    )
    received = tr.emit(
        -t.d_small, a1, EventKind.RECEIVE, {"systems": n + 1},
        depends_on=(sent.event_id,),
    )

    plan = alice_act(
        alice,
        DetectionCommitContext(package.systems, q, run.true_state, abort_option, rng),
    )
    measure_deps: tuple[int, ...] = (received.event_id,)
    if plan.positives is not None:
        measured = tr.emit(
            -t.d_small / 2, a1, EventKind.MEASURE,
            {"systems": n + 1, "positives": plan.positives},
            depends_on=measure_deps,
        )
        measure_deps = (measured.event_id,)

    if plan.commit_values is None:
        # Abort announcements reach every agent before any verdict window.
        abort_announce = tr.emit(
            0.0, a1, EventKind.ANNOUNCE, {"step": "abort"}, depends_on=measure_deps
        )
        tr.emit(
            t.d_small, b1, EventKind.RECEIVE, {"step": "abort"},
            depends_on=(abort_announce.event_id,),
        )
        tr.emit(
            t.D + t.d_small, a2, EventKind.RECEIVE, {"step": "abort"},
            depends_on=(abort_announce.event_id,),
        )
        alice_guess = _steal_estimate(alice, package, run, None)
        return ProtocolOutcome(Verdict.ABORT, tr, None, alice_guess, run.true_state)

    # The commitment alphabet covers 0..n+1: every label plus the dummy 0.
    order = rng.permutation(len(plan.commit_values))
    commitments: list[tuple[int, Commitment]] = []
    for slot in order:
        value = plan.commit_values[int(slot)]
        c = commit(
            value, n + 2, params.cheat_epsilon, a1, 0.0, tr,
            depends_on=(shared.event_id,) + measure_deps,
        )
        commitments.append((value, c))
    for _, c in commitments:
        sustain(
            c, a2, t.delta, tr,
            depends_on=(shared.event_id,), window=(t.delta, t.delta),
        )

    announce_x = tr.emit(
        t.delta_prime, b1, EventKind.ANNOUNCE, {"label": package.announced_label},
        depends_on=(sent.event_id,),
    )
    x_received = tr.emit(
        t.delta_prime + t.d_small, a1, EventKind.RECEIVE, {"step": "label"},
        depends_on=(announce_x.event_id,),
    )

    x = package.announced_label
    unveil_time = t.delta_prime + 2 * t.d_small
    unveiled: int | None = None
    unveil_deps: tuple[int, ...] = ()
    matching = [c for value, c in commitments if value == x]
    if matching:
        accepted = unveil(
            matching[0], x, rng, a1, unveil_time, tr,
            depends_on=(x_received.event_id, shared.event_id),
        )
        unveil_deps = (matching[0].phase_events[-1].event_id,)
        if accepted:
            unveiled = x
    else:
        tr.emit(
            unveil_time, a1, EventKind.ANNOUNCE, {"step": "failure"},
            depends_on=(x_received.event_id,),
        )

    accept = unveiled == x
    # q >= 1, so the first commitment's sustain event always exists.
    first_sustain = commitments[0][1].phase_events[1]
    tr.emit(
        t.D + unveil_time, b1, EventKind.ANNOUNCE,
        {"step": "verdict", "accept": accept},
        depends_on=(*unveil_deps, first_sustain.event_id),
    )

    bob_guess = None
    if bob.kind is not BobKind.HONEST:
        guess = bob_act(bob, FinalGuessContext(retained=package.retained, rng=rng))
        bob_guess = record_guess(guess, run.true_state)
    alice_guess = _steal_estimate(alice, package, run, x)
    return ProtocolOutcome(
        Verdict.ACCEPT if accept else Verdict.REJECT,
        tr, bob_guess, alice_guess, run.true_state,
    )


def _steal_estimate(
    alice: AliceStrategy, package: Package, run: _Run, label: int | None
) -> EstimationResult | None:
    """A stealing Alice estimates the system Bob points at, once he points."""
    if alice.kind is not AliceKind.STEAL_STATE or label is None:
        return None
    target = package.systems[label - 1]
    result = covariant_estimate(target, 1, run.rng)
    # Record fidelity against the actual unknown state.
    return record_guess(result.guess, run.true_state)


def run_quantum_b2a(
    params: ProtocolParams,
    alice: AliceStrategy,
    bob: BobStrategy,
    rng: np.random.Generator,
) -> ProtocolOutcome:
    """Receiver protocol: decoys, detection commitments, one unveiling."""
    return _run_b2a(params, alice, bob, rng, abort_option=False)


def run_quantum_b2a_abort(
    params: ProtocolParams,
    alice: AliceStrategy,
    bob: BobStrategy,
    rng: np.random.Generator,
) -> ProtocolOutcome:
    """Abort variant: honest Alice aborts rather than drop detections."""
    return _run_b2a(params, alice, bob, rng, abort_option=True)


_RUNNERS = {
    Protocol.CLASSICAL1: run_classical1,
    Protocol.CLASSICAL2: run_classical2,
    Protocol.QUANTUM_A2B: run_quantum_a2b,
    Protocol.QUANTUM_B2A: run_quantum_b2a,
    Protocol.QUANTUM_B2A_ABORT: run_quantum_b2a_abort,
}


def run_protocol(
    protocol: Protocol,
    params: ProtocolParams,
    alice: AliceStrategy,
    bob: BobStrategy,
    rng: np.random.Generator,
) -> ProtocolOutcome:
    return _RUNNERS[protocol](params, alice, bob, rng)


# ---------------------------------------------------------------------------
# Audits


@dataclass(frozen=True)
class AuditResult:
    passed: bool
    ratio: float
    floor: float
    slack: float


def soundness_floor_audit(eps_s_est, eps_c_est, d: int, z: float = 3.0) -> AuditResult:
    """Check estimated soundness against the universal 1/d floor.

    Passes iff (s_hat + z se_s) / (1 - c_hat + z se_c) >= 1/d, i.e. the
    bound holds within the stated standard-error slack.
    """
    if d < 2:
        raise ConfigurationError("floor audit needs d >= 2")
    c_hat = eps_c_est.estimate
    if c_hat >= 1.0:
        raise ValueError("completeness-error estimate >= 1 leaves the ratio undefined")
    numerator = eps_s_est.estimate + z * eps_s_est.std_err
    denominator = 1.0 - c_hat + z * eps_c_est.std_err
    ratio = numerator / denominator
    floor = 1.0 / d
    return AuditResult(ratio >= floor, ratio, floor, ratio - floor)
