"""Hiding, binding and phase order of the ideal commitment, on the protocol layouts."""

import itertools

import pytest

from qwitness import protocols
from qwitness.commitment import commit
from qwitness.harness import trial_rng
from qwitness.protocols import (
    ALICE_PLAYS,
    BOB_PLAYS,
    Protocol,
    ProtocolParams,
    _b2a_log,
    _classical_log,
    run_protocol,
)
from qwitness.spacetime import A2, EventKind, Transcript
from qwitness.strategies import AliceKind, AliceStrategy, BobKind, BobStrategy

_COMMIT_KINDS = (EventKind.COMMIT_INITIATE, EventKind.COMMIT_SUSTAIN, EventKind.UNVEIL)

# Every runnable pairing at d = 3, on parameters that keep q below the
# number of labels, so that both accepting and failing runs occur.
_PARAMS = {
    Protocol.CLASSICAL1: ProtocolParams(d=3),
    Protocol.CLASSICAL2: ProtocolParams(d=3, q=2),
    Protocol.QUANTUM_A2B: ProtocolParams(d=3, n=2),
    Protocol.QUANTUM_B2A: ProtocolParams(d=3, n=4, q=2),
    Protocol.QUANTUM_B2A_ABORT: ProtocolParams(d=3, n=4, q=2),
}
_PAIRINGS = [
    (protocol, AliceStrategy(a, 2 if a is AliceKind.SUBSPACE_KNOWLEDGE else None), BobStrategy(b))
    for protocol in Protocol
    for a in AliceKind if protocol in ALICE_PLAYS[a]
    for b in BobKind if protocol in BOB_PLAYS[b]
]


def test_commit_range_checked():
    tr = Transcript()
    # Alphabet 12: indices 0..11 for N = 10.
    with pytest.raises(ValueError):
        commit(0, 12, 12, A2, 0.0, tr)
    with pytest.raises(ValueError):
        commit(0, -1, 12, A2, 0.0, tr)
    assert tr.events == []


def _before_opening(tr):
    """Records of every event before A1 unveils or announces failure."""
    records = []
    for e in tr.events:
        if e.kind is EventKind.UNVEIL or e.payload.get("step") == "failure":
            return records
        records.append(e.to_record())
    raise AssertionError("the log never reaches the opening")


def _views(layout, report):
    """The receiver's view before the opening, for every ordered 3-set of 0..3."""
    return {
        repr(_before_opening(layout(values, report)))
        for values in itertools.permutations(range(4), 3)
    }


def test_hiding_receiver_views_identical_across_values():
    # Logs that differ only in the committed indices show the receiver the
    # same records until the opening, whether it then unveils or fails.
    views = _views(lambda values, x: _classical_log(ProtocolParams(d=4), values, x), 2)
    assert len(views) == 1 and views.pop() != "[]"


def test_hiding_holds_for_commitment_sets():
    views = _views(lambda values, x: _b2a_log(ProtocolParams(d=2, n=6), 3, values, x), 3)
    assert len(views) == 1 and views.pop() != "[]"


def test_hiding_transcript_events_value_free():
    # Only an unveiling carries a committed value.
    for tr in (
        _classical_log(ProtocolParams(d=4), (3, 1), 1),
        _b2a_log(ProtocolParams(d=2, n=6), 4, (0, 5, 2, 5), 5),
        _b2a_log(ProtocolParams(d=2, n=6), 4, (0, 5, 2, 5), 6),
    ):
        carriers = [e.kind for e in tr.events if "value" in e.payload]
        assert carriers in ([], [EventKind.UNVEIL])


def test_round_trip_honest_unveil():
    # Binding is perfect: A1 opens the first slot holding the label, and the
    # receiver accepts it.
    tr = _b2a_log(ProtocolParams(d=2, n=6), 4, (0, 5, 2, 5), 5)
    unveils = [e for e in tr.events if e.kind is EventKind.UNVEIL]
    assert [e.payload for e in unveils] == [{"handle": 1, "value": 5, "accepted": True}]
    assert tr.events[-1].payload == {"step": "verdict", "accept": True}


def test_decline_to_unveil():
    # Alice cannot open a label she did not commit: she announces failure,
    # and every handle stays sustained.
    tr = _b2a_log(ProtocolParams(d=2, n=6), 3, (0, 2, 6), 5)
    assert not any(e.kind is EventKind.UNVEIL for e in tr.events)
    assert [e.payload.get("step") for e in tr.events[-2:]] == ["failure", "verdict"]
    assert tr.events[-1].payload["accept"] is False
    sustained = [e.payload["handle"] for e in tr.events if e.kind is EventKind.COMMIT_SUSTAIN]
    assert sustained == [0, 1, 2]


def test_phase_discipline(monkeypatch):
    # Over every runnable pairing, each handle runs initiate, then sustain,
    # then at most one unveil, and every unveiling opens the value committed
    # under its handle.
    committed = []

    def recording_commit(handle, value, *args, **kwargs):
        committed.append((handle, value))
        return commit(handle, value, *args, **kwargs)

    monkeypatch.setattr(protocols, "commit", recording_commit)
    unveiled = 0
    for (protocol, alice, bob), i in itertools.product(_PAIRINGS, range(30)):
        pairing = (protocol.value, alice.kind.value, bob.kind.value, i)
        committed.clear()
        out = run_protocol(protocol, _PARAMS[protocol], alice, bob, trial_rng(21, i))
        assert out.transcript.validate().ok, pairing
        phases: dict[int, list] = {}
        for e in out.transcript.events:
            if e.kind in _COMMIT_KINDS:
                phases.setdefault(e.payload["handle"], []).append(e)
        assert [h for h, _ in committed] == list(phases) == list(range(len(committed))), pairing
        values = dict(committed)
        for handle, events in phases.items():
            kinds = tuple(e.kind for e in events)
            assert kinds in (_COMMIT_KINDS[:2], _COMMIT_KINDS), pairing
            assert [e.time for e in events] == sorted({e.time for e in events}), pairing
            if len(events) == 3:
                assert events[2].payload["value"] == values[handle], pairing
                unveiled += 1
    assert unveiled > 0
