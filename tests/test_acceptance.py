"""Acceptance suite: one test per criterion, each printing a verdict line.

The sampled protocol figures of criteria 2 and 5 to 10 are rows of
``tests/gates.py``, gated by ``tests/test_gates.py``; what stays here is
criteria 1, 3, 4 and 11, and the exact checks of criteria 5, 7 and 8.
Run with ``pytest tests/test_acceptance.py tests/test_gates.py -s`` to see
the per-criterion and per-row lines as they complete.
"""

import math

import numpy as np

from qwitness.cli import main as cli_main
from qwitness.estimation import covariant_estimate
from qwitness.harness import ExperimentSpec, Metric, formula_target
from qwitness.oracle import (
    basis_measure_guess,
    check_blind_acceptance,
    check_estimation,
    check_mixed_factor,
    check_projector_traces,
)
from qwitness.protocols import (
    Protocol,
    ProtocolParams,
    a2b_soundness,
    eps_c_b2a_exact,
    run_protocol,
)
from qwitness.spacetime import (
    AgentId,
    AgentSite,
    EventKind,
    SpacetimeEvent,
    validate_transcript,
)
from qwitness.strategies import AliceKind, AliceStrategy, BobKind, BobStrategy

HONEST_A = AliceStrategy(AliceKind.HONEST_KNOWING)
HONEST_B = BobStrategy(BobKind.HONEST)


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


def report_rows(criterion, rows):
    # A criterion of oracle rows passes when every row does; it shows three, failures first.
    failed = [row for row in rows if not row[1]]
    shown = "; ".join(f"{name}: {detail}" for name, _, detail in (failed or rows)[:3])
    assert report(criterion, not failed, f"{len(rows) - len(failed)}/{len(rows)} rows pass; {shown}")


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_symmetric_subspace_oracle():
    cells = [(n, d) for d in range(2, 17) for n in range(1, 8) if d ** (n + 1) <= 256]
    rows = check_projector_traces(16)
    rows += check_mixed_factor("copies+mixed n={n} d={d}", cells, np.random.default_rng(1))
    rows += check_blind_acceptance(50)
    report_rows(1, rows)


def test_criterion_3_no_protocol_estimation():
    report_rows(3, [
        check_estimation(f"d={d}", basis_measure_guess, 2 / (d + 1), d, 100_000,
                         np.random.default_rng(300 + d), z=3.0)
        for d in (2, 3, 5)
    ])


def test_criterion_4_sender_concealment():
    report_rows(4, [
        check_estimation(f"(N={n},d={d})", lambda eta, rng, m=n + 1: covariant_estimate(eta, m, rng),
                         (n + 2) / (n + 1 + d), d, 100_000, np.random.default_rng(400 + 10 * n + d), z=3.0)
        for n, d in [(1, 2), (1, 3), (2, 3)]
    ])


def test_criterion_5_receiver_completeness():
    # The sampled rejection rates are rows of tests/gates.py.
    def exact(n):
        return eps_c_b2a_exact(n, 2, math.ceil((n + 1) / 2))

    decreasing = exact(64) < exact(16) < exact(4)
    assert report(
        5, decreasing,
        f"decreasing: {exact(4):.4f} > {exact(16):.4f} > {exact(64):.4f}",
    )


def test_criterion_7_honest_bob_learns_nothing():
    # Honest Bob ends with no guess and no measurement at his sites; the
    # concealment figures are rows of tests/gates.py.
    rng = np.random.default_rng(799)
    zero_information = True
    for _ in range(200):
        out = run_protocol(
            Protocol.QUANTUM_B2A, ProtocolParams(d=2, n=4, q=2), HONEST_A, HONEST_B, rng
        )
        bob_measures = [
            e for e in out.transcript.events
            if e.kind is EventKind.MEASURE
            and e.site.agent_id in (AgentId.B1, AgentId.B2)
        ]
        if out.bob_guess is not None or bob_measures:
            zero_information = False
    assert report(7, zero_information, f"honest Bob zero information events: {zero_information}")


def test_criterion_8_soundness_floor_audit():
    # Criterion 8's sampled floor, s >= (1 - eps_c)/d, is a figure of the
    # criterion-2 and criterion-6 rows of tests/gates.py. Here the exact
    # ratio rho = d s/(1 - eps_c) of the same cells meets 1, and the
    # classical1 d = 2 cell attains it.
    cells = [(f"a2b(N={n},d={d})", d, a2b_soundness(n, d), 0.0) for n, d in [(1, 2), (2, 2)]]
    cells += [
        (f"b2a(N={n},q={q})", 2, q / (n + 1), eps_c_b2a_exact(n, 2, q))
        for n, q in [(9, 2), (19, 4)]
    ]
    ratios = {name: d * s / (1 - eps_c) for name, d, s, eps_c in cells}
    tight = ExperimentSpec(
        Protocol.CLASSICAL1, ProtocolParams(d=2), AliceStrategy(AliceKind.IGNORANT), HONEST_B,
        Metric.ACCEPTANCE, 1, 0,
    )
    s, _ = formula_target(tight)
    rho_tight = 2 * s / (1 - tight.params.eps_c_target)
    all_ok = all(rho >= 1 - 1e-12 for rho in ratios.values()) and rho_tight == 1.0
    details = [f"{name}: rho {rho:.4f} >= 1" for name, rho in ratios.items()]
    details.append(f"classical1(d=2): rho {rho_tight:.4f} == 1")
    assert report(8, all_ok, "; ".join(details))


def test_criterion_11_infrastructure(tmp_path):
    # Seeded reruns are byte-identical.
    args = [
        "simulate", "--protocol", "b2a", "--d", "2", "--n", "4", "--q", "2",
        "--alice", "honest", "--trials", "500", "--seed", "11",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    reproducible = out1.read_bytes() == out2.read_bytes()

    # Honest runs of every protocol validate.
    rng = np.random.default_rng(1100)
    cases = [
        (Protocol.CLASSICAL1, ProtocolParams(d=2), HONEST_A),
        (Protocol.CLASSICAL2, ProtocolParams(d=4, q=2), HONEST_A),
        (Protocol.QUANTUM_A2B, ProtocolParams(d=2, n=2), HONEST_A),
        (Protocol.QUANTUM_B2A, ProtocolParams(d=2, n=4, q=2), HONEST_A),
        (Protocol.QUANTUM_B2A_ABORT, ProtocolParams(d=2, n=6, q=2), HONEST_A),
    ]
    transcripts_ok = True
    for protocol, params, alice in cases:
        for _ in range(20):
            out = run_protocol(protocol, params, alice, HONEST_B, rng)
            if not out.transcript.validate().ok:
                transcripts_ok = False

    # Adversarial timing fixtures are all flagged.
    b1 = AgentSite(AgentId.B1, 0.01)
    a2 = AgentSite(AgentId.A2, 1.01)
    fixtures = [
        # Receive with no matching send.
        [SpacetimeEvent(0, 0.0, b1, EventKind.RECEIVE, {})],
        # Superluminal dependency: sustain leaning on a distant simultaneous announce.
        [
            SpacetimeEvent(0, 0.02, b1, EventKind.ANNOUNCE, {"label": 3}),
            SpacetimeEvent(1, 0.02, a2, EventKind.COMMIT_SUSTAIN, {}, (0,)),
        ],
        # Receive before light could arrive.
        [
            SpacetimeEvent(0, 0.0, a2, EventKind.SEND, {}),
            SpacetimeEvent(1, 0.1, b1, EventKind.RECEIVE, {}, (0,)),
        ],
    ]
    fixtures_flagged = all(not validate_transcript(f).ok for f in fixtures)

    ok = reproducible and transcripts_ok and fixtures_flagged
    assert report(
        11, ok,
        f"reproducible={reproducible}, transcripts_ok={transcripts_ok}, "
        f"fixtures_flagged={fixtures_flagged}",
    )
