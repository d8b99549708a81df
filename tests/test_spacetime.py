"""Layout arithmetic, light cones, and transcript validation."""

import hashlib
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwitness.spacetime import (
    A1,
    A2,
    B1,
    B2,
    D,
    D_SMALL,
    DELTA,
    DELTA_PRIME,
    SEPARATION_FACTOR,
    TIME_TOL,
    AgentId,
    AgentSite,
    EventKind,
    SpacetimeEvent,
    Transcript,
    ValidationReport,
    Violation,
    causally_precedes,
    validate_transcript,
)


def event(eid, time, site, kind=EventKind.ANNOUNCE, deps=()):
    return SpacetimeEvent(eid, time, site, kind, {}, deps)


# ---------------------------------------------------------------------------
# configuration


def test_layout_constants():
    # A1, B1 near the origin; B2, A2 the same short gap apart near x = D.
    assert [(s.agent_id, s.position) for s in (A1, B1, B2, A2)] == [
        (AgentId.A1, 0.0), (AgentId.B1, 0.01), (AgentId.B2, 1.0), (AgentId.A2, 1.01),
    ]
    assert D_SMALL <= D / SEPARATION_FACTOR
    assert 0 < DELTA < DELTA_PRIME <= D / SEPARATION_FACTOR


# ---------------------------------------------------------------------------
# light cone


def test_causally_precedes_same_position():
    assert causally_precedes(event(0, 0.0, A1), event(1, 1.0, A1))


def test_causally_precedes_reflexive_at_zero_separation():
    e = event(0, 0.5, A1)
    assert causally_precedes(e, e)


def test_causally_precedes_outside_cone():
    far = AgentSite(AgentId.B2, 1.0)
    assert not causally_precedes(event(0, 0.0, A1), event(1, 0.5, far))


def test_causally_precedes_null_separation():
    far = AgentSite(AgentId.B2, 1.0)
    assert causally_precedes(event(0, 0.0, A1), event(1, 1.0, far))


grid = st.integers(min_value=-64, max_value=64).map(lambda k: k / 16.0)


@given(t1=grid, x1=grid, t2=grid, x2=grid)
def test_causally_precedes_antisymmetric_for_timelike(t1, x1, t2, x2):
    e1 = event(0, t1, AgentSite(AgentId.A1, x1))
    e2 = event(1, t2, AgentSite(AgentId.B1, x2))
    if abs(t2 - t1) > abs(x2 - x1):  # strictly timelike
        assert causally_precedes(e1, e2) != causally_precedes(e2, e1)


@settings(max_examples=300)
@given(t1=grid, x1=grid, t2=grid, x2=grid, t3=grid, x3=grid)
def test_causally_precedes_transitive(t1, x1, t2, x2, t3, x3):
    e1 = event(0, t1, AgentSite(AgentId.A1, x1))
    e2 = event(1, t2, AgentSite(AgentId.B1, x2))
    e3 = event(2, t3, AgentSite(AgentId.A2, x3))
    if causally_precedes(e1, e2) and causally_precedes(e2, e3):
        assert causally_precedes(e1, e3)


# ---------------------------------------------------------------------------
# transcript validation


def test_empty_transcript_valid():
    assert validate_transcript([]).ok


def test_honest_exchange_valid():
    tr = Transcript()
    sent = tr.emit(0.0, A1, EventKind.SEND, {"m": 1})
    tr.emit(0.01, B1, EventKind.RECEIVE, {"m": 1}, depends_on=(sent.event_id,))
    assert tr.validate().ok


def test_receive_without_send_flagged():
    events = [event(0, 0.0, B1, EventKind.RECEIVE)]
    report = validate_transcript(events)
    assert not report.ok
    assert report.violations[0].kind == "unmatched-receive"


def test_superluminal_receive_flagged():
    far = AgentSite(AgentId.B2, 1.0)
    events = [
        event(0, 0.0, A1, EventKind.SEND),
        event(1, 0.5, far, EventKind.RECEIVE, deps=(0,)),
    ]
    report = validate_transcript(events)
    kinds = {v.kind for v in report.violations}
    assert "causality" in kinds


def test_sustain_depending_on_distant_announce_flagged():
    # A2's sustain at the same coordinate time cannot depend on B1's
    # announcement across the large separation.
    events = [
        event(0, DELTA, B1, EventKind.ANNOUNCE),
        event(1, DELTA, A2, EventKind.COMMIT_SUSTAIN, deps=(0,)),
    ]
    report = validate_transcript(events)
    assert any(v.kind == "causality" and v.event_id == 1 for v in report.violations)


def test_unsorted_transcript_flagged():
    events = [event(0, 1.0, A1), event(1, 0.0, A1)]
    report = validate_transcript(events)
    assert any(v.kind == "ordering" for v in report.violations)


def test_unknown_dependency_flagged():
    report = validate_transcript([event(0, 0.0, A1, deps=(99,))])
    assert any(v.kind == "missing-dependency" for v in report.violations)


# ---------------------------------------------------------------------------
# export


def test_jsonl_schema():
    tr = Transcript()
    sent = tr.emit(0.0, A1, EventKind.SEND, {"value": 3})
    tr.emit(0.01, B1, EventKind.RECEIVE, {}, depends_on=(sent.event_id,))
    lines = tr.to_jsonl().splitlines()
    assert len(lines) == 2
    for line in lines:
        record = json.loads(line)
        assert set(record) == {"time", "agent", "position", "kind", "payload_digest"}
    assert json.loads(lines[0])["kind"] == "send"


def test_payload_digest_stable_and_value_sensitive():
    a = event(0, 0.0, A1)
    b = SpacetimeEvent(0, 0.0, A1, EventKind.ANNOUNCE, {"x": 1})
    c = SpacetimeEvent(0, 0.0, A1, EventKind.ANNOUNCE, {"x": 2})
    assert a.payload_digest() == event(1, 1.0, B1).payload_digest()
    assert b.payload_digest() != c.payload_digest()


def test_event_is_immutable_with_defaults():
    e = SpacetimeEvent(0, 0.0, A1, EventKind.SEND, {})
    assert e.depends_on == ()
    with pytest.raises(AttributeError):
        e.time = 1.0
    with pytest.raises(AttributeError):
        e.depends_on = (1,)


def test_event_record_keeps_the_five_jsonl_fields():
    e = SpacetimeEvent(3, 0.5, B2, EventKind.UNVEIL, {"value": 2}, (0, 1))
    assert e.position == B2.position
    assert e.to_record() == {
        "time": 0.5,
        "agent": "B2",
        "position": B2.position,
        "kind": "unveil",
        "payload_digest": e.payload_digest(),
    }


# ---------------------------------------------------------------------------
# the one-pass validator against the two-pass one it replaced


def reference_validate_transcript(events):
    """``validate_transcript`` before the one-pass rewrite, verbatim but for the dropped window check."""
    by_id = {e.event_id: e for e in events}
    found: list[Violation] = []
    previous_time = float("-inf")
    for e in events:
        if e.time < previous_time - TIME_TOL:
            found.append(Violation("ordering", e.event_id, "events not sorted by time"))
        previous_time = max(previous_time, e.time)
        for dep_id in e.depends_on:
            dep = by_id.get(dep_id)
            if dep is None:
                found.append(
                    Violation("missing-dependency", e.event_id, f"unknown event {dep_id}")
                )
            elif not causally_precedes(dep, e):
                found.append(
                    Violation(
                        "causality",
                        e.event_id,
                        f"depends on event {dep_id} outside its past light cone",
                    )
                )
        if e.kind is EventKind.RECEIVE:
            sources = [
                by_id[i]
                for i in e.depends_on
                if i in by_id
                and by_id[i].kind in (EventKind.SEND, EventKind.ANNOUNCE, EventKind.UNVEIL)
            ]
            if not any(causally_precedes(s, e) for s in sources):
                found.append(
                    Violation("unmatched-receive", e.event_id, "no causally valid send")
                )
    return ValidationReport(tuple(found))


# Times and positions on a 1/16 grid make null separations exact; the layout's
# own sites and step times make the near misses the protocols produce.
coordinate = st.one_of(grid, st.sampled_from([0.0, D_SMALL, DELTA, DELTA_PRIME, D, D + D_SMALL]))
any_site = st.one_of(
    st.sampled_from([A1, B1, B2, A2]),
    st.builds(AgentSite, st.sampled_from(list(AgentId)), coordinate),
)


@st.composite
def event_logs(draw):
    """Event lists, unsorted or sorted, with unknown and repeated ids among the dependencies."""
    n = draw(st.integers(min_value=0, max_value=8))
    events = [
        SpacetimeEvent(
            draw(st.integers(min_value=0, max_value=n + 1)),
            draw(coordinate),
            draw(any_site),
            draw(st.sampled_from(list(EventKind))),
            {},
            tuple(draw(st.lists(st.integers(min_value=-1, max_value=n + 2), max_size=4))),
        )
        for _ in range(n)
    ]
    if draw(st.booleans()):
        events.sort(key=lambda e: e.time)
    return events


# The light cone's tolerance decides this one: B2 -> A2 over D_SMALL in
# D_SMALL, where the float distance exceeds the float time by 9e-18.
NEAR_NULL = [
    SpacetimeEvent(0, 0.0, B2, EventKind.SEND, {}),
    SpacetimeEvent(1, D_SMALL, A2, EventKind.RECEIVE, {}, (0,)),
]


@settings(max_examples=500)
@given(events=event_logs())
@example(events=NEAR_NULL)
def test_one_pass_validator_matches_the_reference(events):
    report = validate_transcript(events)
    assert report == reference_validate_transcript(events)
    # The light-cone test written out in the loop is ``causally_precedes``'s.
    by_id = {e.event_id: e for e in events}
    expected = [
        (e.event_id, f"depends on event {d} outside its past light cone")
        for e in events
        for d in e.depends_on
        if d in by_id and not causally_precedes(by_id[d], e)
    ]
    assert [(v.event_id, v.message) for v in report.violations if v.kind == "causality"] == expected


def test_drawn_logs_cover_every_violation_kind():
    kinds = set()

    @settings(max_examples=200, database=None)
    @given(events=event_logs())
    def collect(events):
        kinds.update(v.kind for v in validate_transcript(events).violations)

    collect()
    assert kinds == {"ordering", "missing-dependency", "causality", "unmatched-receive"}


def test_emit_builds_the_named_tuple():
    tr = Transcript()
    first = tr.emit(0.25, B2, EventKind.UNVEIL, {"value": 1}, depends_on=(7,))
    second = tr.emit(0.5, A2, EventKind.ANNOUNCE)
    assert type(first) is SpacetimeEvent
    assert first == SpacetimeEvent(0, 0.25, B2, EventKind.UNVEIL, {"value": 1}, (7,))
    assert second == SpacetimeEvent(1, 0.5, A2, EventKind.ANNOUNCE, {}, ())
    assert first.position == B2.position


payload_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=5)
    | st.fractions(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@given(payload=st.dictionaries(st.text(max_size=6), payload_values, max_size=4), trial=st.integers())
def test_cached_encoders_match_json_dumps(payload, trial):
    tr = Transcript()
    event = tr.emit(0.125, B1, EventKind.MEASURE, payload)
    blob = json.dumps(payload, sort_keys=True, default=str)
    assert event.payload_digest() == hashlib.sha256(blob.encode()).hexdigest()[:16]
    assert tr.to_jsonl() == json.dumps(event.to_record(), sort_keys=True) + "\n"
    line = json.loads(tr.to_jsonl())
    line["trial"] = trial
    assert tr.to_jsonl(trial=trial) == json.dumps(line, sort_keys=True) + "\n"
