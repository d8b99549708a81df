"""Pluggable honest and adversarial behaviors for Alice and Bob.

Each strategy is a stateless factory; all per-run randomness comes
from the run's generator and any per-run knowledge (the true state, a
subspace known to contain it) is bound by the protocol engine through
the stage contexts below. ``alice_act`` and ``bob_act`` dispatch one
decision per protocol stage.

Alice kinds
    honest          knows the exact classical description and follows the protocol
    ignorant        no classical or quantum information about the state
    subspace-k      knows only a k-dimensional subspace containing the state
    steal           commits blind and keeps the received systems unmeasured
    random-distinct commits to q random distinct indices (the ignorant
                    optimum for the quantum receiver protocol)
    always-abort    aborts unconditionally (abort variant only)

Bob kinds
    honest          follows the protocol and records no guess
    substitute      swaps in a probe state, keeps the original unmeasured
    retain-guess    participates, then estimates from whatever he holds
    skip            ignores the protocol and estimates from his single copy
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigurationError
from .estimation import EstimationResult, covariant_estimate
from .qudit import (
    PureState,
    clamp_probabilities,
    fidelity_sq,
    haar_complement,
    haar_random,
    measure_basis,
)


class AliceKind(Enum):
    HONEST_KNOWING = "honest"
    IGNORANT = "ignorant"
    SUBSPACE_KNOWLEDGE = "subspace"
    STEAL_STATE = "steal"
    RANDOM_DISTINCT_COMMIT = "random-distinct"
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


@dataclass(frozen=True)
class BobStrategy:
    kind: BobKind

    @classmethod
    def from_name(cls, name: str) -> "BobStrategy":
        try:
            return cls(BobKind(name))
        except ValueError:
            raise ConfigurationError(f"unknown bob strategy {name!r}") from None


def knowledge_subspace(
    true_state: PureState, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Orthonormal basis (d x k) of a random k-dim subspace containing the state."""
    d = true_state.dim
    if not 1 <= k <= d:
        raise ConfigurationError(f"subspace dimension {k} outside [1, {d}]")
    eta = true_state.amplitudes
    return np.column_stack([eta, haar_complement(eta, k - 1, rng)])


def _haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed d x d unitary via QR of a complex Ginibre matrix."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# Stage contexts and plans


@dataclass(frozen=True)
class MeasurementChoiceContext:
    """Classical protocols: Alice picks the measurement and her committed set."""

    d: int
    q: int
    eps_c_target: float
    true_state: PureState
    subspace: np.ndarray | None
    rng: np.random.Generator


@dataclass(frozen=True)
class ClassicalPlan:
    basis: np.ndarray  # columns are the measurement vectors
    commit_values: tuple[int, ...]


@dataclass(frozen=True)
class CopyPreparationContext:
    """Sender protocol: Alice picks the state she hands over n copies of."""

    d: int
    true_state: PureState
    subspace: np.ndarray | None
    rng: np.random.Generator


@dataclass(frozen=True)
class DetectionCommitContext:
    """Receiver protocol: Alice measures the labeled systems and commits."""

    systems: tuple[PureState, ...]  # labels 1..N+1 in order
    q: int
    true_state: PureState
    abort_allowed: bool
    rng: np.random.Generator


@dataclass(frozen=True)
class DetectionCommitPlan:
    commit_values: tuple[int, ...] | None  # None when aborting
    positives: int | None  # detection count for honest kinds


@dataclass(frozen=True)
class PackageContext:
    """Receiver protocol: Bob packages the systems he sends to Alice."""

    qb_state: PureState
    n: int
    d: int
    rng: np.random.Generator


@dataclass(frozen=True)
class Package:
    systems: tuple[PureState, ...]
    announced_label: int  # 1-based index Bob will announce for his system
    retained: PureState | None


@dataclass(frozen=True)
class OutcomeReportContext:
    """Classical protocols: Bob measures and reports an outcome index."""

    basis: np.ndarray
    qb_state: PureState
    rng: np.random.Generator


@dataclass(frozen=True)
class OutcomeReport:
    reported: int | None  # None when Bob declines to take part
    retained: PureState | None  # the original state if he substituted it


@dataclass(frozen=True)
class FinalGuessContext:
    """Close-out: Bob turns whatever he holds into a guess, or nothing.

    ``copies`` counts the copies of ``retained`` that retain-guess Bob
    estimates from; ``unveiled`` says Alice opened a commitment to
    ``reported``, which binding makes the only value she can open.
    """

    rng: np.random.Generator
    retained: PureState | None = None
    copies: int = 1
    basis: np.ndarray | None = None
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
    raise ConfigurationError(f"unsupported alice stage {type(ctx).__name__}")


def _alice_measurement_choice(
    strategy: AliceStrategy, ctx: MeasurementChoiceContext
) -> ClassicalPlan:
    d, q, rng = ctx.d, ctx.q, ctx.rng
    if strategy.kind is AliceKind.HONEST_KNOWING:
        if ctx.eps_c_target > 0.0 and q >= d:
            raise ConfigurationError(
                "eps_c_target > 0 needs q <= d - 1 so the residual stays uncovered"
            )
        # Rotate eta and a Haar direction r orthogonal to it, so the first
        # column has squared overlap exactly 1 - eps_c_target with the state,
        # the second eps_c_target, and the others none.
        eta = ctx.true_state.amplitudes
        rest = haar_complement(eta, d - 1, rng)
        r = rest[:, 0]
        a, b = np.sqrt(1.0 - ctx.eps_c_target), np.sqrt(ctx.eps_c_target)
        basis = np.column_stack([a * eta + b * r, b * eta - a * r, rest[:, 1:]])
        # Committed set: the high-overlap vector plus q - 1 of the columns
        # orthogonal to the state, so coverage is exactly 1 - eps_c_target.
        others = [j for j in range(2, d)]
        if q - 1 > len(others):
            extra = [1] + others  # only reachable when eps_c_target == 0
        else:
            extra = list(rng.choice(others, size=q - 1, replace=False)) if q > 1 else []
        commit_values = tuple(sorted([0] + [int(j) for j in extra[: q - 1]]))
        return ClassicalPlan(basis, commit_values)
    if strategy.kind is AliceKind.IGNORANT:
        basis = _haar_unitary(d, rng)
        commit_values = tuple(int(j) for j in rng.choice(d, size=q, replace=False))
        return ClassicalPlan(basis, commit_values)
    if strategy.kind is AliceKind.SUBSPACE_KNOWLEDGE:
        if ctx.subspace is None:
            raise ConfigurationError("subspace knowledge was not bound for this run")
        k = ctx.subspace.shape[1]
        rotated = ctx.subspace @ _haar_unitary(k, rng)
        basis = np.column_stack([rotated, haar_complement(rotated, d - k, rng)])
        # The state lies in the first k columns; commit as many of those as fit.
        in_subspace = list(range(min(q, k)))
        filler = rng.choice(np.arange(k, d), size=q - len(in_subspace), replace=False)
        commit_values = tuple(sorted(in_subspace + [int(j) for j in filler]))
        return ClassicalPlan(basis, commit_values)
    raise ConfigurationError(
        f"alice strategy {strategy.kind.value!r} does not play classical protocols"
    )


def _alice_prepare_copies(
    strategy: AliceStrategy, ctx: CopyPreparationContext
) -> PureState:
    if strategy.kind is AliceKind.HONEST_KNOWING:
        return ctx.true_state
    if strategy.kind is AliceKind.IGNORANT:
        # Best blind strategy: a single random state, repeated.
        return haar_random(ctx.d, ctx.rng)
    if strategy.kind is AliceKind.SUBSPACE_KNOWLEDGE:
        if ctx.subspace is None:
            raise ConfigurationError("subspace knowledge was not bound for this run")
        k = ctx.subspace.shape[1]
        return PureState(ctx.subspace @ haar_random(k, ctx.rng).amplitudes)
    raise ConfigurationError(
        f"alice strategy {strategy.kind.value!r} does not play the sender protocol"
    )


def _alice_detection_commits(
    strategy: AliceStrategy, ctx: DetectionCommitContext
) -> DetectionCommitPlan:
    n_plus_1 = len(ctx.systems)
    q, rng = ctx.q, ctx.rng
    if strategy.kind is AliceKind.ALWAYS_ABORT:
        if not ctx.abort_allowed:
            raise ConfigurationError("always-abort requires the abort variant")
        return DetectionCommitPlan(None, None)
    if strategy.kind is AliceKind.HONEST_KNOWING:
        # Projective test onto the known state: label j is detected with Born
        # probability |<eta|s_j>|^2, one uniform per label in label order.
        amps = np.array([system.amplitudes for system in ctx.systems])
        born = clamp_probabilities(np.abs(amps @ ctx.true_state.amplitudes.conj()) ** 2)
        detected = (np.flatnonzero(rng.random(n_plus_1) < born) + 1).tolist()
        positives = len(detected)
        if positives > q:
            if ctx.abort_allowed:
                return DetectionCommitPlan(None, positives)
            chosen = rng.choice(detected, size=q, replace=False)
            values = tuple(int(v) for v in chosen)
        else:
            values = tuple(detected) + (0,) * (q - positives)
        return DetectionCommitPlan(values, positives)
    if strategy.kind in (
        AliceKind.IGNORANT,
        AliceKind.RANDOM_DISTINCT_COMMIT,
        AliceKind.STEAL_STATE,
    ):
        # Blind optimum: q random distinct labels. Stealing Alice commits the
        # same way but keeps every received system unmeasured.
        chosen = rng.choice(np.arange(1, n_plus_1 + 1), size=q, replace=False)
        values = tuple(int(v) for v in chosen)
        return DetectionCommitPlan(values, None)
    raise ConfigurationError(
        f"alice strategy {strategy.kind.value!r} does not play the receiver protocol"
    )


# ---------------------------------------------------------------------------
# Bob


def bob_act(strategy: BobStrategy, ctx) -> object:
    """Resolve one Bob decision for the given protocol stage."""
    if isinstance(ctx, PackageContext):
        return _bob_package(strategy, ctx)
    if isinstance(ctx, OutcomeReportContext):
        return _bob_outcome_report(strategy, ctx)
    if isinstance(ctx, FinalGuessContext):
        return _bob_final_guess(strategy, ctx)
    raise ConfigurationError(f"unsupported bob stage {type(ctx).__name__}")


def _bob_package(strategy: BobStrategy, ctx: PackageContext) -> Package:
    n, d, rng = ctx.n, ctx.d, ctx.rng
    if strategy.kind is BobKind.HONEST:
        decoys = [haar_random(d, rng) for _ in range(n)]
        order = rng.permutation(n + 1)
        systems: list[PureState] = [None] * (n + 1)  # type: ignore[list-item]
        label = None
        for slot, source in enumerate(order):
            systems[slot] = ctx.qb_state if source == 0 else decoys[source - 1]
            if source == 0:
                label = slot + 1
        assert label is not None
        return Package(tuple(systems), label, None)
    if strategy.kind in (BobKind.MEASURE_RETAIN_GUESS, BobKind.SUBSTITUTE_STATE):
        # Keep the unknown state; send freshly drawn substitutes instead.
        systems = tuple(haar_random(d, rng) for _ in range(n + 1))
        label = int(rng.integers(1, n + 2))
        return Package(systems, label, ctx.qb_state)
    raise ConfigurationError(
        f"bob strategy {strategy.kind.value!r} does not play the receiver protocol"
    )


def _bob_outcome_report(strategy: BobStrategy, ctx: OutcomeReportContext) -> OutcomeReport:
    basis, rng = ctx.basis, ctx.rng
    if strategy.kind in (BobKind.HONEST, BobKind.MEASURE_RETAIN_GUESS):
        rotated = PureState(basis.conj().T @ ctx.qb_state.amplitudes)
        return OutcomeReport(measure_basis(rotated, rng), None)
    if strategy.kind is BobKind.SUBSTITUTE_STATE:
        probe = haar_random(ctx.qb_state.dim, rng)
        rotated = PureState(basis.conj().T @ probe.amplitudes)
        return OutcomeReport(measure_basis(rotated, rng), ctx.qb_state)
    if strategy.kind is BobKind.SKIP_PROTOCOL_MEASURE:
        return OutcomeReport(None, ctx.qb_state)
    raise ConfigurationError(
        f"bob strategy {strategy.kind.value!r} does not play classical protocols"
    )


def _bob_final_guess(strategy: BobStrategy, ctx: FinalGuessContext) -> PureState | None:
    rng = ctx.rng
    if strategy.kind is BobKind.HONEST:
        return None
    if strategy.kind is BobKind.SKIP_PROTOCOL_MEASURE:
        if ctx.retained is None:
            raise ConfigurationError("skip strategy holds no state to estimate")
        return covariant_estimate(ctx.retained, 1, rng).guess
    if strategy.kind is BobKind.SUBSTITUTE_STATE:
        if ctx.basis is not None and ctx.retained is not None:
            # Classical protocols: the unveiled index pins the projector down;
            # otherwise measure the kept state in the announced basis.
            if ctx.unveiled:
                return PureState(ctx.basis[:, ctx.reported])
            rotated = PureState(ctx.basis.conj().T @ ctx.retained.amplitudes)
            outcome = measure_basis(rotated, rng)
            return PureState(ctx.basis[:, outcome])
        if ctx.retained is not None:
            return covariant_estimate(ctx.retained, 1, rng).guess
        raise ConfigurationError("substitute strategy holds nothing to estimate")
    if strategy.kind is BobKind.MEASURE_RETAIN_GUESS:
        if ctx.retained is not None:
            return covariant_estimate(ctx.retained, ctx.copies, rng).guess
        if ctx.basis is not None:
            # Classical protocols: any unveiling opens his own report.
            return PureState(ctx.basis[:, ctx.reported])
        return None
    raise ConfigurationError(f"unsupported bob strategy {strategy.kind.value!r}")


def record_guess(guess: PureState | None, true_state: PureState) -> EstimationResult | None:
    """Attach the achieved squared fidelity to a strategy's guess."""
    if guess is None:
        return None
    return EstimationResult(guess, fidelity_sq(guess, true_state))
