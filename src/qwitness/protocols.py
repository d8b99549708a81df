"""Executable runs of the knowledge-evidencing protocols.

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

``run_protocol`` is the one entry point. ``ALICE_PLAYS`` and
``BOB_PLAYS`` say which strategies have a move in which protocol, and
``check_players`` rejects any other pairing before a run starts. Every
party decision comes from ``strategies``: in the classical and sender
protocols Bob submits a state (or nothing) and the runner measures or
tests it.

Runs decide and logs follow: the runners write no event, and one
layout function per family (``_classical_log``, ``_a2b_log``,
``_b2a_log``) lays out the whole log from the values its run decided.
Both commitment protocols lay out one commit, sustain and
unveil-or-fail round, ``_commit_round`` then ``_open_and_rule``, so
each handle's phases run in order by construction.

``eps_c_b2a_exact``, ``a2b_soundness`` and ``hoeffding_bound`` are the
figures that take more than one line of arithmetic; ``harness.formula_target``
turns them, and the one-line figures, into each experiment's target.
The universal floor soundness >= (1 - completeness_err)/d is a figure of
the soundness rows in ``tests/gates.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .commitment import commit, sustain, unveil
from .errors import ConfigurationError
from .qudit import PureState, haar_random, symmetric_acceptance
from .qudit import measure_binary  # noqa: F401 - perfbench tests read protocols.measure_binary
from .spacetime import A1, A2, B1, D, D_SMALL, DELTA, DELTA_PRIME, EventKind, Transcript
from .spacetime import AgentSite, SpacetimeEvent
from .strategies import (
    AliceKind,
    AliceStrategy,
    BobKind,
    BobStrategy,
    CopyPreparationContext,
    DetectionCommitContext,
    FinalGuessContext,
    MeasurementChoiceContext,
    Package,
    PackageContext,
    SubmissionContext,
    alice_act,
    bob_act,
)


class Protocol(Enum):
    CLASSICAL1 = "classical1"
    CLASSICAL2 = "classical2"
    QUANTUM_A2B = "a2b"
    QUANTUM_B2A = "b2a"
    QUANTUM_B2A_ABORT = "b2a-abort"


# The two protocol families that each share one runner and one log layout.
CLASSICAL = frozenset({Protocol.CLASSICAL1, Protocol.CLASSICAL2})
RECEIVER = frozenset({Protocol.QUANTUM_B2A, Protocol.QUANTUM_B2A_ABORT})

# Which protocols each strategy kind plays.
ALICE_PLAYS = {
    AliceKind.HONEST_KNOWING: frozenset(Protocol),
    AliceKind.IGNORANT: frozenset(Protocol),
    AliceKind.SUBSPACE_KNOWLEDGE: CLASSICAL | {Protocol.QUANTUM_A2B},
    AliceKind.STEAL_STATE: RECEIVER,
    AliceKind.ALWAYS_ABORT: frozenset({Protocol.QUANTUM_B2A_ABORT}),
}
BOB_PLAYS = {
    BobKind.HONEST: frozenset(Protocol),
    BobKind.SUBSTITUTE_STATE: CLASSICAL | {Protocol.QUANTUM_A2B},
    BobKind.MEASURE_RETAIN_GUESS: frozenset(Protocol),
    BobKind.SKIP_PROTOCOL_MEASURE: CLASSICAL | {Protocol.QUANTUM_A2B},
}


def check_players(protocol: Protocol, alice: AliceStrategy, bob: BobStrategy) -> None:
    """Reject a strategy that has no move in ``protocol``."""
    if protocol not in ALICE_PLAYS[alice.kind]:
        raise ConfigurationError(
            f"alice strategy {alice.kind.value!r} does not play {protocol.value}"
        )
    if protocol not in BOB_PLAYS[bob.kind]:
        raise ConfigurationError(
            f"bob strategy {bob.kind.value!r} does not play {protocol.value}"
        )


class Verdict(Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    ABORT = "abort"


# Detection headroom of the abort variant's default q, ceil(n/d + 0.1 n), so
# that its abort rate stays tail-bounded.
ABORT_HEADROOM = 0.1


@dataclass(frozen=True)
class ProtocolParams:
    """Security parameters shared by all protocols.

    ``d`` is the qudit dimension, ``n`` the decoy or copy count, ``q``
    the commitment-list length (None resolves to the protocol default:
    ceil((n + 1) / d) for the receiver protocol, ceil(n/d + ABORT_HEADROOM n)
    for its abort variant and 1 for the classical ones; ``a2b`` commits
    nothing and has none), and ``eps_c_target`` honest Alice's completeness
    error in the classical protocols.
    """

    d: int
    n: int = 0
    q: int | None = None
    eps_c_target: float = 0.0

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ConfigurationError("protocol states need dimension d >= 2")
        if self.n < 0:
            raise ConfigurationError("system count n must be nonnegative")
        if self.q is not None and self.q < 1:
            raise ConfigurationError("commitment-list length q must be >= 1")
        if not 0.0 <= self.eps_c_target < 1.0:
            raise ConfigurationError("eps_c_target must lie in [0, 1)")

    def resolved_q(self, protocol: Protocol) -> int | None:
        if protocol is Protocol.QUANTUM_A2B:
            return None
        if self.q is not None:
            q = self.q
        elif protocol is Protocol.QUANTUM_B2A:
            q = math.ceil((self.n + 1) / self.d)
        elif protocol is Protocol.QUANTUM_B2A_ABORT:
            q = max(1, math.ceil(self.n / self.d + ABORT_HEADROOM * self.n))
        else:
            q = 1
        if protocol in RECEIVER and q > self.n + 1:
            raise ConfigurationError(f"q={q} must not exceed n + 1 = {self.n + 1}")
        if protocol is Protocol.CLASSICAL2 and q > self.d:
            raise ConfigurationError(f"q={q} must not exceed d={self.d}")
        if protocol is Protocol.CLASSICAL1 and q != 1:
            raise ConfigurationError("classical1 commits exactly one index")
        return q


class ProtocolOutcome(NamedTuple):
    """One run: the verdict, its event log, the unknown state and any guesses.

    ``true_state`` is the state eta the run drew for Bob. A party who tries
    to learn it leaves a guess, a ``PureState`` scored by nothing here;
    honest Bob, and every Alice but a stealing one, leave None.
    """

    verdict: Verdict
    transcript: Transcript
    true_state: PureState
    bob_guess: PureState | None = None
    alice_guess: PureState | None = None


# ---------------------------------------------------------------------------
# Closed forms


def eps_c_b2a_exact(n: int, d: int, q: int) -> float:
    """Honest rejection probability of the receiver protocol.

    With the unknown system always detected, rejection happens only
    when x of the n decoys also test positive with x >= q and the
    random size-q sublist misses the announced label:

        sum_{x=q}^{n} C(n, x) (1/d)^x (1 - 1/d)^(n-x) * (x + 1 - q) / (x + 1)

    with each binomial term formed in log space: C(n, x) overflows a float
    from n = 1030 on.
    """
    if not 1 <= q <= n + 1:
        raise ConfigurationError(f"need 1 <= q <= n + 1, got q={q}, n={n}")
    if d < 2:
        raise ConfigurationError("need d >= 2")
    log_p, log_1mp, log_n_fact = -math.log(d), math.log1p(-1.0 / d), math.lgamma(n + 1)
    return math.fsum(
        math.exp(log_n_fact - math.lgamma(x + 1) - math.lgamma(n - x + 1)
                 + x * log_p + (n - x) * log_1mp) * (x + 1 - q) / (x + 1)
        for x in range(q, n + 1)
    )


def hoeffding_bound(n: int, epsilon: float) -> float:
    """Tail bound exp(-2 epsilon^2 n) on exceeding the detection mean."""
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    return math.exp(-2.0 * epsilon**2 * n)


def a2b_soundness(n: int, d: int) -> float:
    """Best blind acceptance in the sender protocol: 1/(n+1) + n/(d(n+1))."""
    return 1.0 / (n + 1) + n / (d * (n + 1))


# ---------------------------------------------------------------------------
# Event logs: each family's layout, from the values its run decided


def _preshare_event(tr: Transcript) -> SpacetimeEvent:
    """Alice's agents share commitment data well before the run starts."""
    return tr.emit(
        -(D + 2 * D_SMALL), A1, EventKind.ANNOUNCE, {"step": "pre-shared commitment data"}
    )


def _commit_round(
    tr: Transcript,
    values: tuple[int, ...],
    alphabet: int,
    committer: AgentSite,
    sustainer: AgentSite,
    shared: SpacetimeEvent,
    depends_on: tuple[int, ...] = (),
) -> int:
    """Commit each value at t = 0 under its slot; the other pair sustains them all at delta.

    Returns the id of slot 0's event at A2, which B1 later compares notes with.
    """
    deps = (shared.event_id, *depends_on)
    initiated = [commit(h, v, alphabet, committer, 0.0, tr, deps) for h, v in enumerate(values)]
    sustained = [sustain(h, sustainer, DELTA, tr, (shared.event_id,)) for h in range(len(values))]
    return (initiated if committer == A2 else sustained)[0].event_id


def _open_and_rule(
    tr: Transcript,
    values: tuple[int, ...],
    value: int,
    time: float,
    received: SpacetimeEvent,
    shared: SpacetimeEvent,
    at_a2: int,
) -> None:
    """A1 unveils the first slot holding ``value`` at ``time``, or announces failure.

    B1 rules once it can compare notes with B2 across the separation, on
    the unveiling and on slot 0's event ``at_a2``.
    """
    opened: tuple[int, ...] = ()
    if value in values:
        deps = (received.event_id, shared.event_id)
        opened = (unveil(values.index(value), value, A1, time, tr, deps).event_id,)
    else:
        tr.emit(
            time, A1, EventKind.ANNOUNCE, {"step": "failure"},
            depends_on=(received.event_id,),
        )
    tr.emit(
        D + time, B1, EventKind.ANNOUNCE, {"step": "verdict", "accept": bool(opened)},
        depends_on=(*opened, at_a2),
    )


def _classical_log(
    params: ProtocolParams, values: tuple[int, ...], reported: int | None
) -> Transcript:
    """``classical1/2``: the committed indices in slot order, and Bob's report or None."""
    tr = Transcript()
    shared = _preshare_event(tr)
    # t = 0: A1 announces the measurement, A2 commits the predicted indices.
    announce = tr.emit(
        0.0, A1, EventKind.ANNOUNCE, {"step": "measurement", "outcomes": params.d},
        depends_on=(shared.event_id,),
    )
    basis_rx = tr.emit(
        D_SMALL, B1, EventKind.RECEIVE, {"step": "measurement"},
        depends_on=(announce.event_id,),
    )
    at_a2 = _commit_round(tr, values, params.d, A2, A1, shared)

    # t = delta: B1 measures and reports, or has nothing to report.
    if reported is None:
        tr.emit(DELTA, B1, EventKind.ANNOUNCE, {"step": "no-report"})
        return tr
    measured = tr.emit(
        DELTA, B1, EventKind.MEASURE, {"outcome": reported},
        depends_on=(basis_rx.event_id,),
    )
    sent = tr.emit(
        DELTA, B1, EventKind.SEND, {"outcome": reported}, depends_on=(measured.event_id,)
    )
    report_rx = tr.emit(
        DELTA + D_SMALL, A1, EventKind.RECEIVE, {"step": "report"},
        depends_on=(sent.event_id,),
    )
    # t = delta': A1 unveils iff the report matches a committed index.
    _open_and_rule(tr, values, reported, DELTA_PRIME, report_rx, shared, at_a2)
    return tr


def _a2b_log(params: ProtocolParams, accept: bool | None) -> Transcript:
    """``a2b``: the symmetric test's verdict, or None when Bob tested nothing."""
    n = params.n
    tr = Transcript()
    sent = tr.emit(0.0, A1, EventKind.SEND, {"systems": n})
    received = tr.emit(
        D_SMALL, B1, EventKind.RECEIVE, {"systems": n}, depends_on=(sent.event_id,)
    )
    if accept is None:
        tr.emit(2 * D_SMALL, B1, EventKind.ANNOUNCE, {"step": "no-measurement"})
        return tr
    measured = tr.emit(
        2 * D_SMALL, B1, EventKind.MEASURE, {"outcome": int(accept)},
        depends_on=(received.event_id,),
    )
    tr.emit(
        3 * D_SMALL, B1, EventKind.ANNOUNCE, {"step": "verdict", "accept": accept},
        depends_on=(measured.event_id,),
    )
    return tr


def _b2a_log(
    params: ProtocolParams,
    positives: int | None,
    values: tuple[int, ...] | None,
    label: int,
) -> Transcript:
    """``b2a`` and ``b2a-abort``: Alice's detection count (None if she measured
    nothing), her commit values in slot order (None if she aborted) and
    Bob's announced label.
    """
    n = params.n
    tr = Transcript()
    shared = _preshare_event(tr)
    sent = tr.emit(-2 * D_SMALL, B1, EventKind.SEND, {"systems": n + 1})
    received = tr.emit(
        -D_SMALL, A1, EventKind.RECEIVE, {"systems": n + 1},
        depends_on=(sent.event_id,),
    )
    measure_deps: tuple[int, ...] = (received.event_id,)
    if positives is not None:
        measured = tr.emit(
            -D_SMALL / 2, A1, EventKind.MEASURE,
            {"systems": n + 1, "positives": positives},
            depends_on=measure_deps,
        )
        measure_deps = (measured.event_id,)

    if values is None:
        # Abort announcements reach every agent before any verdict window.
        abort_announce = tr.emit(
            0.0, A1, EventKind.ANNOUNCE, {"step": "abort"}, depends_on=measure_deps
        )
        tr.emit(
            D_SMALL, B1, EventKind.RECEIVE, {"step": "abort"},
            depends_on=(abort_announce.event_id,),
        )
        tr.emit(
            D + D_SMALL, A2, EventKind.RECEIVE, {"step": "abort"},
            depends_on=(abort_announce.event_id,),
        )
        return tr

    # The commitment alphabet covers 0..n+1: every label plus the dummy 0.
    at_a2 = _commit_round(tr, values, n + 2, A1, A2, shared, measure_deps)
    announce_x = tr.emit(
        DELTA_PRIME, B1, EventKind.ANNOUNCE, {"label": label}, depends_on=(sent.event_id,)
    )
    x_received = tr.emit(
        DELTA_PRIME + D_SMALL, A1, EventKind.RECEIVE, {"step": "label"},
        depends_on=(announce_x.event_id,),
    )
    _open_and_rule(tr, values, label, DELTA_PRIME + 2 * D_SMALL, x_received, shared, at_a2)
    return tr


# ---------------------------------------------------------------------------
# Runs: the parties' decisions


def _run_classical(
    protocol: Protocol,
    params: ProtocolParams,
    alice: AliceStrategy,
    bob: BobStrategy,
    rng: np.random.Generator,
) -> ProtocolOutcome:
    q = params.resolved_q(protocol)
    eta = haar_random(params.d, rng)
    plan = alice_act(alice, MeasurementChoiceContext(q, params.eps_c_target, eta, rng))

    # B1 measures what Bob submits in Alice's frame and reports the outcome.
    submission = bob_act(bob, SubmissionContext(eta, rng))
    reported = None
    if submission.state is not None:
        reported = plan.frame.measure(submission.state, rng)
    # Alice can unveil, and Bob accepts, iff a commitment holds the report.
    accept = reported in plan.commit_values

    guess = bob_act(
        bob,
        FinalGuessContext(
            frame=plan.frame,
            reported=reported,
            unveiled=accept,
            retained=submission.retained,
            rng=rng,
        ),
    )
    tr = _classical_log(params, plan.commit_values, reported)
    return ProtocolOutcome(Verdict.ACCEPT if accept else Verdict.REJECT, tr, eta, guess)


def _run_a2b(
    params: ProtocolParams,
    alice: AliceStrategy,
    bob: BobStrategy,
    rng: np.random.Generator,
) -> ProtocolOutcome:
    """Alice supplies n systems; Bob projects all n + 1 onto the symmetric subspace."""
    n = params.n
    eta = haar_random(params.d, rng)

    # Every copy-preparing strategy hands over n copies of one state phi.
    phi = alice_act(alice, CopyPreparationContext(eta, rng))
    own = bob_act(bob, SubmissionContext(eta, rng)).state
    accept = None
    if own is not None:
        # One uniform is drawn even at n = 0, where the test accepts with certainty.
        accept = bool(rng.random() < symmetric_acceptance(phi, n, own))
    # After an honest run the copies are undisturbed; when Alice sent the
    # unknown state itself, Bob may estimate from all n + 1 copies.
    copies = n + 1 if phi is eta and own is eta else 1
    guess = bob_act(bob, FinalGuessContext(retained=eta, copies=copies, rng=rng))
    verdict = Verdict.ACCEPT if accept else Verdict.REJECT
    return ProtocolOutcome(verdict, _a2b_log(params, accept), eta, guess)


def _run_b2a(
    protocol: Protocol,
    params: ProtocolParams,
    alice: AliceStrategy,
    bob: BobStrategy,
    rng: np.random.Generator,
) -> ProtocolOutcome:
    """Receiver protocol: decoys, detection commitments, one unveiling.

    In the abort variant honest Alice aborts rather than drop detections.
    """
    q = params.resolved_q(protocol)
    eta = haar_random(params.d, rng)
    package: Package = bob_act(bob, PackageContext(eta, params.n, rng))

    abort_allowed = protocol is Protocol.QUANTUM_B2A_ABORT
    plan = alice_act(alice, DetectionCommitContext(package.systems, q, eta, abort_allowed, rng))
    x = package.announced_label
    # Bob guesses from what he kept, then Alice from the system he points at:
    # only a stealing Alice guesses, and she never aborts.
    bob_guess = bob_act(bob, FinalGuessContext(retained=package.retained, rng=rng))
    pointed_at = FinalGuessContext(retained=package.systems[x - 1], dim=params.d, rng=rng)
    alice_guess = alice_act(alice, pointed_at)
    values = plan.commit_values
    if values is None:
        verdict = Verdict.ABORT
    else:
        # Alice can unveil, and Bob accepts, iff a commitment holds the label.
        verdict = Verdict.ACCEPT if x in values else Verdict.REJECT
    tr = _b2a_log(params, plan.positives, values, x)
    return ProtocolOutcome(verdict, tr, eta, bob_guess, alice_guess)


def run_protocol(
    protocol: Protocol,
    params: ProtocolParams,
    alice: AliceStrategy,
    bob: BobStrategy,
    rng: np.random.Generator,
) -> ProtocolOutcome:
    """Run one trial of ``protocol`` between the two strategies."""
    check_players(protocol, alice, bob)
    if protocol is Protocol.QUANTUM_A2B:
        return _run_a2b(params, alice, bob, rng)
    if protocol in RECEIVER:
        return _run_b2a(protocol, params, alice, bob, rng)
    return _run_classical(protocol, params, alice, bob, rng)

