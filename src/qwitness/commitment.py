"""Ideal relativistic bit-string commitment.

Models the commitment scheme as an ideal functionality rather than a
concrete protocol, as the paper treats it: perfectly hiding (the
receiver view never depends on the committed value) and perfectly
binding (an unveiling always opens the committed value). The committer
may always decline to unveil, which reveals nothing.

Phases move strictly initiated -> sustained -> unveiled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import CommitmentPhaseError
from .spacetime import AgentSite, EventKind, SpacetimeEvent, Transcript


class CommitmentPhase(Enum):
    INITIATED = "initiated"
    SUSTAINED = "sustained"
    UNVEILED = "unveiled"


@dataclass
class Commitment:
    handle_id: int
    committed_value: int  # hidden from the receiver until unveiled
    alphabet_size: int
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
    site: AgentSite,
    time: float,
    transcript: Transcript,
    depends_on: tuple[int, ...] = (),
) -> Commitment:
    """Open a commitment to ``value``; the receiver learns only that it exists."""
    if not 0 <= value < alphabet_size:
        raise ValueError(f"value {value} outside alphabet [0, {alphabet_size})")
    c = Commitment(
        handle_id=transcript.new_handle(),
        committed_value=value,
        alphabet_size=alphabet_size,
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
    )
    c.phase = CommitmentPhase.SUSTAINED
    c.phase_events.append(event)
    return c


def unveil(
    c: Commitment,
    site: AgentSite,
    time: float,
    transcript: Transcript,
    depends_on: tuple[int, ...] = (),
) -> SpacetimeEvent:
    """Open the committed value to the receiver; returns the UNVEIL event.

    Binding is perfect, so the receiver always accepts what is opened.
    """
    if c.phase is not CommitmentPhase.SUSTAINED:
        raise CommitmentPhaseError(f"cannot unveil a commitment in phase {c.phase.value}")
    event = transcript.emit(
        time,
        site,
        EventKind.UNVEIL,
        {"handle": c.handle_id, "value": c.committed_value, "accepted": True},
        depends_on=depends_on,
    )
    c.phase = CommitmentPhase.UNVEILED
    c.phase_events.append(event)
    return event
