"""Hiding, binding, and phase discipline of the ideal commitment."""

import json
import math

import numpy as np
import pytest

from qwitness.commitment import (
    CommitmentPhase,
    commit,
    expire,
    sustain,
    unveil,
)
from qwitness.errors import CommitmentPhaseError, ConfigurationError
from qwitness.protocols import ProtocolParams
from qwitness.spacetime import AgentId, AgentSite, Transcript

SITE = AgentSite(AgentId.A2, 1.01)


def fresh(value, alphabet=12, cheat=0.0):
    tr = Transcript()
    c = commit(value, alphabet, cheat, SITE, 0.0, tr)
    return c, tr


def test_round_trip_honest_unveil():
    rng = np.random.default_rng(0)
    for value in (0, 5, 11):
        c, tr = fresh(value)
        sustain(c, SITE, 0.02, tr)
        assert unveil(c, value, rng, SITE, 0.05, tr) is True
        assert c.phase is CommitmentPhase.UNVEILED


def test_commit_range_checked():
    tr = Transcript()
    # Alphabet 12: indices 0..11 for N = 10.
    with pytest.raises(ValueError):
        commit(12, 12, 0.0, SITE, 0.0, tr)
    with pytest.raises(ValueError):
        commit(-1, 12, 0.0, SITE, 0.0, tr)


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
            [commit(v, 12, 0.0, SITE, 0.0, tr).receiver_view() for v in values],
            sort_keys=True,
        )

    assert views([1, 5, 9]) == views([2, 0, 7])


def test_hiding_transcript_events_value_free():
    c, tr = fresh(9)
    sustain(c, SITE, 0.02, tr)
    for event in tr.events:
        assert "value" not in event.payload


def test_phase_discipline():
    rng = np.random.default_rng(1)
    c, tr = fresh(4)
    with pytest.raises(CommitmentPhaseError):
        unveil(c, 4, rng, SITE, 0.05, tr)  # not sustained yet
    sustain(c, SITE, 0.02, tr)
    with pytest.raises(CommitmentPhaseError):
        sustain(c, SITE, 0.03, tr)  # sustain twice
    unveil(c, 4, rng, SITE, 0.05, tr)
    with pytest.raises(CommitmentPhaseError):
        unveil(c, 4, rng, SITE, 0.06, tr)  # unveil twice


def test_late_sustain_flagged_in_transcript():
    c, tr = fresh(4)
    sustain(c, SITE, 0.07, tr, window=(0.02, 0.02))
    report = tr.validate()
    assert any(v.kind == "window" for v in report.violations)


def test_decline_to_unveil():
    c, tr = fresh(4)
    sustain(c, SITE, 0.02, tr)
    expire(c)
    assert c.phase is CommitmentPhase.EXPIRED
    view = json.dumps(c.receiver_view(), sort_keys=True)
    assert ": 4" not in view


def test_dishonest_unveil_rejected_when_binding_perfect():
    rng = np.random.default_rng(2)
    for _ in range(200):
        c, tr = fresh(4, cheat=0.0)
        sustain(c, SITE, 0.02, tr)
        assert unveil(c, 5, rng, SITE, 0.05, tr) is False


@pytest.mark.parametrize("cheat", [0.0, 0.05, 0.2])
def test_binding_failure_frequency(cheat):
    rng = np.random.default_rng(int(cheat * 100))
    trials = 10_000
    accepted = 0
    for _ in range(trials):
        c, tr = fresh(4, cheat=cheat)
        sustain(c, SITE, 0.02, tr)
        accepted += unveil(c, 5, rng, SITE, 0.05, tr)
    se = math.sqrt(max(cheat * (1 - cheat), 1e-12) / trials)
    assert abs(accepted / trials - cheat) <= 4 * se + 1e-12


def test_dishonest_unveil_frequency_example():
    rng = np.random.default_rng(3)
    trials = 100_000
    accepted = 0
    for _ in range(trials):
        c, tr = fresh(2, cheat=0.1)
        sustain(c, SITE, 0.02, tr)
        accepted += unveil(c, 0, rng, SITE, 0.05, tr)
    se = math.sqrt(0.1 * 0.9 / trials)
    assert abs(accepted / trials - 0.1) <= 3 * se


def test_cheat_epsilon_validated():
    # The binding failure is a protocol parameter; it must be a probability below 1.
    for bad in (1.0, -0.1, math.nan):
        with pytest.raises(ConfigurationError):
            ProtocolParams(d=2, cheat_epsilon=bad)
