"""Pluggable honest and adversarial behaviors for Alice and Bob.

Each strategy is a stateless factory; all per-run randomness comes
from the run's generator. The protocol engine hands each stage what a
party holds through the stage contexts below, and the strategy draws
the rest itself: a subspace known to contain the state, a probe, a
guess. ``alice_act`` and ``bob_act`` dispatch one decision per
protocol stage; the engine only measures or tests what a party hands
it. They make no protocol checks: ``protocols.ALICE_PLAYS`` and
``BOB_PLAYS`` admit a strategy only to the protocols it has a move in,
so each stage function handles exactly the kinds that reach it.

Alice kinds
    honest          knows the exact classical description and follows the protocol
    ignorant        no classical or quantum information about the state
    subspace-k      knows only a k-dimensional subspace containing the state
    steal           commits blind, keeps the received systems unmeasured and
                    estimates the one Bob points at
    always-abort    aborts unconditionally

Bob kinds
    honest          submits his own state and makes no guess
    substitute      submits a fresh random probe in place of his own state and
                    keeps the original unmeasured (classical and a2b only)
    retain-guess    participates, then estimates from whatever he holds
    skip            submits nothing and estimates from his single copy
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError
from .estimation import covariant_estimate, state_at_overlap
from .qudit import (
    HaarFrame,
    PureState,
    clamp_probabilities,
    haar_complement,
    haar_random,
)


class AliceKind(Enum):
    HONEST_KNOWING = "honest"
    IGNORANT = "ignorant"
    SUBSPACE_KNOWLEDGE = "subspace"
    STEAL_STATE = "steal"
    ALWAYS_ABORT = "always-abort"


class BobKind(Enum):
    HONEST = "honest"
    SUBSTITUTE_STATE = "substitute"
    MEASURE_RETAIN_GUESS = "retain-guess"
    SKIP_PROTOCOL_MEASURE = "skip"


@dataclass(frozen=True)
class AliceStrategy:
    kind: AliceKind
    subspace_dim: int | None = None

    def __post_init__(self) -> None:
        if self.kind is AliceKind.SUBSPACE_KNOWLEDGE:
            if self.subspace_dim is None or self.subspace_dim < 1:
                raise ConfigurationError("subspace knowledge needs a dimension >= 1")
        elif self.subspace_dim is not None:
            raise ConfigurationError("subspace_dim only applies to subspace knowledge")

    @classmethod
    def from_name(cls, name: str) -> "AliceStrategy":
        if name.startswith("subspace-"):
            try:
                k = int(name.split("-", 1)[1])
            except ValueError:
                raise ConfigurationError(f"alice strategy {name!r} needs an integer k") from None
            return cls(AliceKind.SUBSPACE_KNOWLEDGE, k)
        try:
            return cls(AliceKind(name))
        except ValueError:
            raise ConfigurationError(f"unknown alice strategy {name!r}") from None

    @property
    def name(self) -> str:
        """The name ``from_name`` reads back: the kind, and ``-k`` for subspace-k Alice."""
        if self.subspace_dim is None:
            return self.kind.value
        return f"{self.kind.value}-{self.subspace_dim}"


@dataclass(frozen=True)
class BobStrategy:
    kind: BobKind

    @classmethod
    def from_name(cls, name: str) -> "BobStrategy":
        try:
            return cls(BobKind(name))
        except ValueError:
            raise ConfigurationError(f"unknown bob strategy {name!r}") from None


def knowledge_subspace(true_state: PureState, k: int, rng: np.random.Generator) -> np.ndarray:
    """Orthonormal basis (d x k) of a random k-dim subspace containing the state."""
    eta = true_state.amplitudes
    return np.column_stack([eta, haar_complement(eta, k - 1, rng)])


def _read_system(system: PureState | None, d: int, rng: np.random.Generator) -> PureState:
    """A received system as the party who reads it holds it: an undrawn one is drawn now."""
    return haar_random(d, rng) if system is None else system


# ---------------------------------------------------------------------------
# Stage contexts and plans


class MeasurementChoiceContext(NamedTuple):
    """Classical protocols: Alice picks the measurement and her committed set."""

    q: int
    eps_c_target: float
    true_state: PureState
    rng: np.random.Generator


class ClassicalPlan(NamedTuple):
    frame: HaarFrame  # the announced measurement, drawn as far as it is read
    commit_values: tuple[int, ...]


class CopyPreparationContext(NamedTuple):
    """Sender protocol: Alice picks the state she hands over n copies of."""

    true_state: PureState
    rng: np.random.Generator


class DetectionCommitContext(NamedTuple):
    """Receiver protocol: Alice measures the labeled systems and commits."""

    systems: tuple[PureState | None, ...]  # labels 1..N+1 in order, as in Package
    q: int
    true_state: PureState
    abort_allowed: bool
    rng: np.random.Generator


class DetectionCommitPlan(NamedTuple):
    commit_values: tuple[int, ...] | None  # in slot order; None when aborting
    positives: int | None  # detection count for honest kinds


class PackageContext(NamedTuple):
    """Receiver protocol: Bob packages the systems he sends to Alice."""

    qb_state: PureState
    n: int
    rng: np.random.Generator


class Package(NamedTuple):
    # Label order. None is a fresh Haar system that no party has drawn yet:
    # a party draws it with ``_read_system`` only when it reads the amplitudes.
    systems: tuple[PureState | None, ...]
    announced_label: int  # 1-based index Bob will announce for his system
    retained: PureState | None


class SubmissionContext(NamedTuple):
    """Classical and sender protocols: Bob picks the state the protocol tests."""

    qb_state: PureState
    rng: np.random.Generator


class Submission(NamedTuple):
    state: PureState | None  # None when Bob declines to take part
    retained: PureState | None  # the original state if he did not submit it


class FinalGuessContext(NamedTuple):
    """Close-out: a party turns what it holds into a guess, or nothing.

    ``retained`` is what the party holds: Bob's kept state, or the
    system Bob's label points Alice at, None if no party has drawn it
    yet; ``dim`` is that system's dimension, so it can be drawn.
    ``copies`` counts the copies of it retain-guess Bob estimates from;
    ``unveiled`` says Alice opened a commitment to ``reported``, which
    binding makes the only value she can open.
    """

    rng: np.random.Generator
    retained: PureState | None = None
    dim: int | None = None
    copies: int = 1
    frame: HaarFrame | None = None
    reported: int | None = None
    unveiled: bool = False


# ---------------------------------------------------------------------------
# Alice


def alice_act(strategy: AliceStrategy, ctx) -> object:
    """Resolve one Alice decision for the given protocol stage."""
    if isinstance(ctx, MeasurementChoiceContext):
        return _alice_measurement_choice(strategy, ctx)
    if isinstance(ctx, CopyPreparationContext):
        return _alice_prepare_copies(strategy, ctx)
    if isinstance(ctx, DetectionCommitContext):
        return _alice_detection_commits(strategy, ctx)
    if isinstance(ctx, FinalGuessContext):
        return _alice_final_guess(strategy, ctx)
    raise ConfigurationError(f"unsupported alice stage {type(ctx).__name__}")


def _alice_measurement_choice(
    strategy: AliceStrategy, ctx: MeasurementChoiceContext
) -> ClassicalPlan:
    d, q, rng = ctx.true_state.dim, ctx.q, ctx.rng
    if strategy.kind is AliceKind.HONEST_KNOWING:
        # Rotate eta and a Haar direction r orthogonal to it, so the first
        # column has squared overlap exactly 1 - eps_c_target with the state,
        # the second eps_c_target, and the free ones none.
        eta = ctx.true_state.amplitudes
        r = haar_complement(eta, 1, rng)[:, 0]
        a, b = np.sqrt(1.0 - ctx.eps_c_target), np.sqrt(ctx.eps_c_target)
        frame = HaarFrame(d, np.array([a * eta + b * r, b * eta - a * r]).T)
        # Committed set: the high-overlap vector plus q - 1 of the columns
        # orthogonal to the state, so coverage is exactly 1 - eps_c_target.
        if q - 1 > d - 2:
            extra = list(range(1, q))  # only reachable when eps_c_target == 0
        else:
            extra = (rng.permutation(d - 2)[: q - 1] + 2).tolist() if q > 1 else []
        return ClassicalPlan(frame, tuple(sorted([0] + extra)))
    if strategy.kind is AliceKind.IGNORANT:
        return ClassicalPlan(HaarFrame(d), tuple(rng.permutation(d)[:q].tolist()))
    # Subspace knowledge: her subspace in a Haar basis fixes the first k
    # columns (Gram-Schmidt of a Ginibre matrix is a Haar unitary); the rest
    # are free, which is their law, Haar on the complement of the subspace.
    k = strategy.subspace_dim
    subspace = knowledge_subspace(ctx.true_state, k, rng)
    frame = HaarFrame(d, subspace @ haar_complement(np.empty((k, 0)), k, rng))
    # The state lies in the first k columns; commit as many of those as fit.
    in_subspace = list(range(min(q, k)))
    filler = (rng.permutation(d - k)[: q - len(in_subspace)] + k).tolist()
    return ClassicalPlan(frame, tuple(sorted(in_subspace + filler)))


def _alice_prepare_copies(
    strategy: AliceStrategy, ctx: CopyPreparationContext
) -> PureState:
    if strategy.kind is AliceKind.HONEST_KNOWING:
        return ctx.true_state
    if strategy.kind is AliceKind.IGNORANT:
        # Best blind strategy: a single random state, repeated.
        return haar_random(ctx.true_state.dim, ctx.rng)
    # Subspace knowledge: a Haar state of a random k-dim subspace through eta
    # has overlap F ~ Beta(1, k - 1) with eta, and its part off eta is Haar on
    # eta's complement; at k = 1 it is eta itself.
    k = strategy.subspace_dim
    if k == 1:
        return ctx.true_state
    return state_at_overlap(ctx.true_state, ctx.rng.beta(1, k - 1), ctx.rng)


def _alice_detection_commits(
    strategy: AliceStrategy, ctx: DetectionCommitContext
) -> DetectionCommitPlan:
    n_plus_1 = len(ctx.systems)
    q, rng = ctx.q, ctx.rng
    if strategy.kind is AliceKind.ALWAYS_ABORT:
        return DetectionCommitPlan(None, None)
    if strategy.kind is AliceKind.HONEST_KNOWING:
        # Projective test onto the known state: she draws every undrawn system
        # in label order, then detects label j with Born probability
        # |<eta|s_j>|^2, one uniform per label in label order.
        d = ctx.true_state.dim
        amps = np.array([_read_system(s, d, rng).amplitudes for s in ctx.systems])
        born = clamp_probabilities(np.abs(amps @ ctx.true_state.amplitudes.conj()) ** 2)
        detected = (rng.random(n_plus_1) < born).nonzero()[0] + 1
        positives = len(detected)
        if positives > q and ctx.abort_allowed:
            return DetectionCommitPlan(None, positives)
        # Her detections, padded with dummy 0s to q, in a uniform slot order;
        # over budget, a uniform ordered q-subset of them, the law of
        # choice(replace=False), cheaper.
        padded = detected.tolist() + [0] * (q - positives)
        values = tuple([padded[s] for s in rng.permutation(len(padded))[:q].tolist()])
        return DetectionCommitPlan(values, positives)
    # Ignorant and steal: the blind optimum, q random distinct labels in a
    # uniform slot order. Stealing Alice keeps every received system unmeasured.
    chosen = rng.permutation(n_plus_1)[:q] + 1
    return DetectionCommitPlan(tuple(chosen.tolist()), None)


def _alice_final_guess(strategy: AliceStrategy, ctx: FinalGuessContext) -> PureState | None:
    """A stealing Alice estimates the system Bob points at; no other Alice guesses."""
    if strategy.kind is AliceKind.STEAL_STATE:
        return covariant_estimate(_read_system(ctx.retained, ctx.dim, ctx.rng), 1, ctx.rng)
    return None


# ---------------------------------------------------------------------------
# Bob


def bob_act(strategy: BobStrategy, ctx) -> object:
    """Resolve one Bob decision for the given protocol stage."""
    if isinstance(ctx, PackageContext):
        return _bob_package(strategy, ctx)
    if isinstance(ctx, SubmissionContext):
        return _bob_submission(strategy, ctx)
    if isinstance(ctx, FinalGuessContext):
        return _bob_final_guess(strategy, ctx)
    raise ConfigurationError(f"unsupported bob stage {type(ctx).__name__}")


def _bob_package(strategy: BobStrategy, ctx: PackageContext) -> Package:
    n = ctx.n
    label = int(ctx.rng.integers(1, n + 2))
    if strategy.kind is BobKind.HONEST:
        # The decoys are i.i.d. Haar and independent of eta, so a shuffle of
        # them is only eta's uniform label; every decoy stays undrawn.
        systems = (None,) * (label - 1) + (ctx.qb_state,) + (None,) * (n + 1 - label)
        return Package(systems, label, None)
    # Retain-guess: keep the unknown state, send n + 1 undrawn substitutes.
    return Package((None,) * (n + 1), label, ctx.qb_state)


def _bob_submission(strategy: BobStrategy, ctx: SubmissionContext) -> Submission:
    if strategy.kind is BobKind.SUBSTITUTE_STATE:
        return Submission(haar_random(ctx.qb_state.dim, ctx.rng), ctx.qb_state)
    if strategy.kind is BobKind.SKIP_PROTOCOL_MEASURE:
        return Submission(None, ctx.qb_state)
    return Submission(ctx.qb_state, None)


def _bob_final_guess(strategy: BobStrategy, ctx: FinalGuessContext) -> PureState | None:
    rng = ctx.rng
    if strategy.kind is BobKind.HONEST:
        return None
    if strategy.kind is BobKind.SUBSTITUTE_STATE and ctx.frame is not None:
        # Classical protocols: the unveiled index pins the projector down;
        # otherwise measure the kept state in the announced frame.
        if ctx.unveiled:
            return ctx.frame.column(ctx.reported)
        return ctx.frame.column(ctx.frame.measure(ctx.retained, rng))
    if ctx.retained is None:
        # Retain-guess Bob in the classical protocols, who measured the state:
        # any unveiling opens his own report.
        return ctx.frame.column(ctx.reported)
    # Skip Bob, and every Bob who kept the unknown state, estimates from it.
    return covariant_estimate(ctx.retained, ctx.copies, rng)
