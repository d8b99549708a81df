"""Hiding, binding, and phase discipline of the ideal commitment."""

import json

import pytest

from qwitness.commitment import (
    CommitmentPhase,
    commit,
    sustain,
    unveil,
)
from qwitness.errors import CommitmentPhaseError
from qwitness.spacetime import AgentId, AgentSite, EventKind, Transcript

SITE = AgentSite(AgentId.A2, 1.01)


def fresh(value, alphabet=12):
    tr = Transcript()
    c = commit(value, alphabet, SITE, 0.0, tr)
    return c, tr


def test_round_trip_honest_unveil():
    # Binding is perfect: an unveiling opens the committed value, always accepted.
    for value in (0, 5, 11):
        c, tr = fresh(value)
        sustain(c, SITE, 0.02, tr)
        event = unveil(c, SITE, 0.05, tr)
        assert c.phase is CommitmentPhase.UNVEILED
        assert event is tr.events[-1] is c.phase_events[-1]
        assert event.kind is EventKind.UNVEIL
        assert event.payload == {"handle": c.handle_id, "value": value, "accepted": True}


def test_commit_range_checked():
    tr = Transcript()
    # Alphabet 12: indices 0..11 for N = 10.
    with pytest.raises(ValueError):
        commit(12, 12, SITE, 0.0, tr)
    with pytest.raises(ValueError):
        commit(-1, 12, SITE, 0.0, tr)


def test_hiding_receiver_views_identical_across_values():
    views = []
    for value in (3, 7):
        c, _ = fresh(value)
        views.append(json.dumps(c.receiver_view(), sort_keys=True))
    assert views[0] == views[1]
    assert "committed" not in views[0]
    assert '"3"' not in views[0] and ": 3" not in views[0]


def test_hiding_holds_for_commitment_sets():
    def views(values):
        tr = Transcript()
        return json.dumps(
            [commit(v, 12, SITE, 0.0, tr).receiver_view() for v in values],
            sort_keys=True,
        )

    assert views([1, 5, 9]) == views([2, 0, 7])


def test_hiding_transcript_events_value_free():
    c, tr = fresh(9)
    sustain(c, SITE, 0.02, tr)
    for event in tr.events:
        assert "value" not in event.payload


def test_phase_discipline():
    c, tr = fresh(4)
    with pytest.raises(CommitmentPhaseError):
        unveil(c, SITE, 0.05, tr)  # not sustained yet
    sustain(c, SITE, 0.02, tr)
    with pytest.raises(CommitmentPhaseError):
        sustain(c, SITE, 0.03, tr)  # sustain twice
    unveil(c, SITE, 0.05, tr)
    with pytest.raises(CommitmentPhaseError):
        unveil(c, SITE, 0.06, tr)  # unveil twice


def test_late_sustain_flagged_in_transcript():
    c, tr = fresh(4)
    sustain(c, SITE, 0.07, tr, window=(0.02, 0.02))
    report = tr.validate()
    assert any(v.kind == "window" for v in report.violations)


def test_decline_to_unveil():
    # Declining means never calling unveil: the commitment stays sustained
    # and the receiver's view still shows nothing of the value.
    c, tr = fresh(4)
    sustain(c, SITE, 0.02, tr)
    assert c.phase is CommitmentPhase.SUSTAINED
    view = json.dumps(c.receiver_view(), sort_keys=True)
    assert ": 4" not in view
