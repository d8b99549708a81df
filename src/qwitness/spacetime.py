"""Agents on a line, timestamped events, and light-cone validation.

All protocol rounds run in one agreed frame with c = 1, positions in
light-seconds. Each party has two agents; the near pairs (A1, B1) and
(A2, B2) sit a short distance apart while the pairs themselves are
separated by a much larger distance, so that a message between the
pairs cannot arrive before the commitment rounds close. Information
flow is checked structurally: every event declares the earlier events
its payload depends on, and validation confirms each declared
dependency lies in the past light cone.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
from typing import NamedTuple

# Operationalizes "much smaller than": short distances and step times
# must not exceed a tenth of the inter-pair separation.
SEPARATION_FACTOR = 10.0
TIME_TOL = 1e-9


class AgentId(Enum):
    A1 = "A1"
    A2 = "A2"
    B1 = "B1"
    B2 = "B2"


class EventKind(Enum):
    SEND = "send"
    RECEIVE = "receive"
    COMMIT_INITIATE = "commit-initiate"
    COMMIT_SUSTAIN = "commit-sustain"
    UNVEIL = "unveil"
    ANNOUNCE = "announce"
    MEASURE = "measure"


@dataclass(frozen=True)
class AgentSite:
    """An agent pinned to a fixed 1-D position for the whole run."""

    agent_id: AgentId
    position: float


# The one agreed layout: the intra-pair gap, the inter-pair separation,
# and the report and unveil step times.
D_SMALL = 0.01
D = 1.0
DELTA = 0.02
DELTA_PRIME = 0.05

# A1, B1 near the origin; B2, A2 near x = D.
A1 = AgentSite(AgentId.A1, 0.0)
B1 = AgentSite(AgentId.B1, D_SMALL)
B2 = AgentSite(AgentId.B2, D)
A2 = AgentSite(AgentId.A2, D + D_SMALL)


class SpacetimeEvent(NamedTuple):
    """One timestamped event of a run: a tuple, cheap to build and immutable."""

    event_id: int
    time: float
    site: AgentSite
    kind: EventKind
    payload: dict
    depends_on: tuple[int, ...] = ()

    @property
    def position(self) -> float:
        return self.site.position

    def payload_digest(self) -> str:
        blob = _DIGEST_ENCODER.encode(self.payload)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def to_record(self) -> dict:
        site = self.site
        return {
            "time": self.time,
            "agent": site.agent_id.value,
            "position": site.position,
            "kind": self.kind.value,
            "payload_digest": self.payload_digest(),
        }


# ``json.dumps`` with any non-default keyword builds a new encoder per call;
# these two encode exactly as ``json.dumps(..., sort_keys=True[, default=str])``.
_DIGEST_ENCODER = json.JSONEncoder(sort_keys=True, default=str)
_RECORD_ENCODER = json.JSONEncoder(sort_keys=True)
# Builds a ``SpacetimeEvent`` from a 6-tuple without its Python-level ``__new__``.
_new_event = tuple.__new__


def causally_precedes(e1: SpacetimeEvent, e2: SpacetimeEvent) -> bool:
    """True iff e2 lies in the closed future light cone of e1 (c = 1)."""
    return e2.time - e1.time >= abs(e2.position - e1.position) - TIME_TOL


@dataclass(frozen=True)
class Violation:
    kind: str
    event_id: int
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


# What a RECEIVE event may depend on to be matched.
_SOURCE_KINDS = (EventKind.SEND, EventKind.ANNOUNCE, EventKind.UNVEIL)


def validate_transcript(events: list[SpacetimeEvent] | tuple[SpacetimeEvent, ...]) -> ValidationReport:
    """Check the causal consistency of a time-ordered log.

    Flags events out of time order, receive events without a causally
    valid matching send (or announce or unveil), and any declared
    dependency that is unknown or outside the past light cone.
    Violations are report entries, never exceptions.

    One pass per event: each dependency gets the ``causally_precedes``
    test written out, which also decides whether a receive is matched.
    """
    by_id = {e.event_id: e for e in events}
    found: list[Violation] = []
    previous_time = float("-inf")
    for event_id, time, site, kind, _, depends_on in events:
        if time < previous_time - TIME_TOL:
            found.append(Violation("ordering", event_id, "events not sorted by time"))
        if time > previous_time:
            previous_time = time
        position = site.position
        matched = False
        for dep_id in depends_on:
            dep = by_id.get(dep_id)
            if dep is None:
                found.append(
                    Violation("missing-dependency", event_id, f"unknown event {dep_id}")
                )
            elif time - dep.time >= abs(position - dep.site.position) - TIME_TOL:
                matched = matched or dep.kind in _SOURCE_KINDS
            else:
                found.append(
                    Violation(
                        "causality",
                        event_id,
                        f"depends on event {dep_id} outside its past light cone",
                    )
                )
        if kind is EventKind.RECEIVE and not matched:
            found.append(Violation("unmatched-receive", event_id, "no causally valid send"))
    return ValidationReport(tuple(found))


@dataclass
class Transcript:
    """Append-only event log owned by a single protocol run."""

    events: list[SpacetimeEvent] = field(default_factory=list)

    def emit(
        self,
        time: float,
        site: AgentSite,
        kind: EventKind,
        payload: dict | None = None,
        depends_on: tuple[int, ...] = (),
    ) -> SpacetimeEvent:
        # An event's id is its position in the log.
        event = _new_event(SpacetimeEvent, (len(self.events), time, site, kind, payload or {}, depends_on))
        self.events.append(event)
        return event

    def validate(self) -> ValidationReport:
        ordered = sorted(self.events, key=itemgetter(1))
        return validate_transcript(ordered)

    def to_jsonl(self, **fields) -> str:
        """One JSON line per event: its ``to_record()``, plus ``fields`` if given."""
        encode = _RECORD_ENCODER.encode
        lines = [encode({**e.to_record(), **fields}) for e in self.events]
        return "\n".join(lines) + ("\n" if lines else "")
