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

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import CommitmentPhaseError
from .spacetime import AgentSite, EventKind, SpacetimeEvent, Transcript


class CommitmentPhase(Enum):
    INITIATED = "initiated"
    SUSTAINED = "sustained"
    UNVEILED = "unveiled"
    EXPIRED = "expired"


@dataclass
class Commitment:
    handle_id: int
    committed_value: int  # hidden from the receiver until unveiled
    alphabet_size: int
    cheat_epsilon: float
    phase: CommitmentPhase
    phase_events: list[SpacetimeEvent] = field(default_factory=list)

    def receiver_view(self) -> dict:
        """Everything the receiver can see before an unveiling.

        Must be independent of the committed value; the hiding test
        compares these records byte for byte across different values.
        """
        return {
            "handle": self.handle_id,
            "alphabet_size": self.alphabet_size,
            "phase": self.phase.value,
            "events": [e.to_record() for e in self.phase_events],
        }


def commit(
    value: int,
    alphabet_size: int,
    cheat_epsilon: float,
    site: AgentSite,
    time: float,
    transcript: Transcript,
    depends_on: tuple[int, ...] = (),
) -> Commitment:
    """Open a commitment to ``value``; the receiver learns only that it exists.

    A dishonest unveiling of it is accepted with probability ``cheat_epsilon``.
    """
    if not 0 <= value < alphabet_size:
        raise ValueError(f"value {value} outside alphabet [0, {alphabet_size})")
    c = Commitment(
        handle_id=transcript.new_handle(),
        committed_value=value,
        alphabet_size=alphabet_size,
        cheat_epsilon=cheat_epsilon,
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
) -> bool:
    """Unveil ``claimed_value``; True iff the receiver accepts it.

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
        accepted = rng.random() < c.cheat_epsilon
    event = transcript.emit(
        time,
        site,
        EventKind.UNVEIL,
        {"handle": c.handle_id, "value": claimed_value, "accepted": accepted},
        depends_on=depends_on,
    )
    c.phase = CommitmentPhase.UNVEILED
    c.phase_events.append(event)
    return accepted


def expire(c: Commitment) -> Commitment:
    """Decline to unveil; always possible and reveals nothing."""
    if c.phase is not CommitmentPhase.SUSTAINED:
        raise CommitmentPhaseError(f"cannot expire a commitment in phase {c.phase.value}")
    c.phase = CommitmentPhase.EXPIRED
    return c
