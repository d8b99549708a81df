"""Ideal relativistic bit-string commitment.

Models the commitment scheme as an ideal functionality rather than a
concrete protocol: perfectly hiding (the receiver view never depends
on the committed value) and binding up to a configurable cheat
probability, the chance that unveiling a value different from the
committed one is nevertheless accepted. The committer may always
decline to unveil, which reveals nothing.

Phases move strictly initiated -> sustained -> unveiled or expired.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cache

import numpy as np

from .errors import CommitmentPhaseError, ConfigurationError
from .spacetime import AgentSite, EventKind, SpacetimeEvent, Transcript


class CommitmentPhase(Enum):
    INITIATED = "initiated"
    SUSTAINED = "sustained"
    UNVEILED = "unveiled"
    EXPIRED = "expired"


@dataclass(frozen=True)
class CommitmentConfig:
    """Alphabet size and binding-failure probability of the functionality.

    ``alphabet_size`` of None means "derived by the protocol engine"
    (the quantum receiver protocol uses index alphabet 0..N+1, so
    N + 2 symbols including the dummy index 0).
    """

    alphabet_size: int | None = None
    cheat_epsilon: float = 0.0

    def __post_init__(self) -> None:
        if self.alphabet_size is not None and self.alphabet_size < 1:
            raise ConfigurationError("alphabet_size must be positive")
        if not 0.0 <= self.cheat_epsilon < 1.0:
            raise ConfigurationError("cheat_epsilon must lie in [0, 1)")

    @cache
    def with_alphabet(self, alphabet_size: int) -> "CommitmentConfig":
        """This configuration with the alphabet resolved; one instance per size."""
        if self.alphabet_size is not None and self.alphabet_size != alphabet_size:
            raise ConfigurationError(
                f"configured alphabet {self.alphabet_size} != required {alphabet_size}"
            )
        return replace(self, alphabet_size=alphabet_size)


@dataclass
class Commitment:
    handle_id: int
    committed_value: int  # hidden from the receiver until unveiled
    config: CommitmentConfig
    phase: CommitmentPhase
    phase_events: list[SpacetimeEvent] = field(default_factory=list)

    def receiver_view(self) -> dict:
        """Everything the receiver can see before an unveiling.

        Must be independent of the committed value; the hiding test
        compares these records byte for byte across different values.
        """
        return {
            "handle": self.handle_id,
            "alphabet_size": self.config.alphabet_size,
            "phase": self.phase.value,
            "events": [e.to_record() for e in self.phase_events],
        }


@dataclass(frozen=True)
class UnveilResult:
    accepted: bool
    claimed_value: int


def commit(
    value: int,
    cfg: CommitmentConfig,
    site: AgentSite,
    time: float,
    transcript: Transcript,
    depends_on: tuple[int, ...] = (),
) -> Commitment:
    """Open a commitment to ``value``; the receiver learns only that it exists."""
    if cfg.alphabet_size is None:
        raise ConfigurationError("alphabet_size must be resolved before committing")
    if not 0 <= value < cfg.alphabet_size:
        raise ValueError(f"value {value} outside alphabet [0, {cfg.alphabet_size})")
    c = Commitment(
        handle_id=transcript.new_handle(),
        committed_value=value,
        config=cfg,
        phase=CommitmentPhase.INITIATED,
    )
    event = transcript.emit(
        time,
        site,
        EventKind.COMMIT_INITIATE,
        {"handle": c.handle_id},
        depends_on=depends_on,
    )
    c.phase_events.append(event)
    return c


def sustain(
    c: Commitment,
    site: AgentSite,
    time: float,
    transcript: Transcript,
    depends_on: tuple[int, ...] = (),
    window: tuple[float, float] | None = None,
) -> Commitment:
    """Second-round confirmation by the distant agent pair."""
    if c.phase is not CommitmentPhase.INITIATED:
        raise CommitmentPhaseError(f"cannot sustain a commitment in phase {c.phase.value}")
    event = transcript.emit(
        time,
        site,
        EventKind.COMMIT_SUSTAIN,
        {"handle": c.handle_id},
        depends_on=depends_on,
        window=window,
    )
    c.phase = CommitmentPhase.SUSTAINED
    c.phase_events.append(event)
    return c


def unveil(
    c: Commitment,
    claimed_value: int,
    rng: np.random.Generator,
    site: AgentSite,
    time: float,
    transcript: Transcript,
    depends_on: tuple[int, ...] = (),
) -> UnveilResult:
    """Unveil ``claimed_value``.

    An honest unveiling (claimed == committed) is always accepted. A
    dishonest one is accepted only with the configured cheat
    probability, which models the binding failure of the underlying
    scheme at finite security parameter.
    """
    if c.phase is not CommitmentPhase.SUSTAINED:
        raise CommitmentPhaseError(f"cannot unveil a commitment in phase {c.phase.value}")
    if claimed_value == c.committed_value:
        accepted = True
    else:
        accepted = rng.random() < c.config.cheat_epsilon
    event = transcript.emit(
        time,
        site,
        EventKind.UNVEIL,
        {"handle": c.handle_id, "value": claimed_value, "accepted": accepted},
        depends_on=depends_on,
    )
    c.phase = CommitmentPhase.UNVEILED
    c.phase_events.append(event)
    return UnveilResult(accepted, claimed_value)


def expire(c: Commitment) -> Commitment:
    """Decline to unveil; always possible and reveals nothing."""
    if c.phase is not CommitmentPhase.SUSTAINED:
        raise CommitmentPhaseError(f"cannot expire a commitment in phase {c.phase.value}")
    c.phase = CommitmentPhase.EXPIRED
    return c
