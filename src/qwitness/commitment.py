"""Ideal relativistic bit-string commitment.

Models the commitment scheme as an ideal functionality rather than a
concrete protocol, as the paper treats it: perfectly hiding (no event
before the unveiling carries the committed value) and perfectly
binding (an unveiling always opens the committed value). The committer
may always decline to unveil, which reveals nothing.

A commitment is known by its handle, its slot in the protocol's
commitment list. These three emitters are the only code that writes
commitment payloads; the protocol layouts in ``protocols`` call them in
the fixed order commit, sustain, then at most one unveil per handle.
"""

from __future__ import annotations

from .spacetime import AgentSite, EventKind, SpacetimeEvent, Transcript


def commit(
    handle: int,
    value: int,
    alphabet_size: int,
    site: AgentSite,
    time: float,
    transcript: Transcript,
    depends_on: tuple[int, ...] = (),
) -> SpacetimeEvent:
    """Commit to ``value`` under ``handle``; the receiver learns only that it exists."""
    if not 0 <= value < alphabet_size:
        raise ValueError(f"value {value} outside alphabet [0, {alphabet_size})")
    return transcript.emit(
        time, site, EventKind.COMMIT_INITIATE, {"handle": handle}, depends_on=depends_on
    )


def sustain(
    handle: int,
    site: AgentSite,
    time: float,
    transcript: Transcript,
    depends_on: tuple[int, ...] = (),
) -> SpacetimeEvent:
    """Second-round confirmation by the distant agent pair."""
    return transcript.emit(
        time, site, EventKind.COMMIT_SUSTAIN, {"handle": handle}, depends_on=depends_on
    )


def unveil(
    handle: int,
    value: int,
    site: AgentSite,
    time: float,
    transcript: Transcript,
    depends_on: tuple[int, ...] = (),
) -> SpacetimeEvent:
    """Open the value committed under ``handle`` to the receiver.

    Binding is perfect, so the receiver always accepts what is opened.
    """
    return transcript.emit(
        time,
        site,
        EventKind.UNVEIL,
        {"handle": handle, "value": value, "accepted": True},
        depends_on=depends_on,
    )
