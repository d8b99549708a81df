"""Every statistical gate on a protocol figure, as one table.

A row is one cell (protocol, parameters, Alice and Bob) and one random
stream: an ``ExperimentSpec`` whose trials run once, trial i through
``harness.run_trial`` as ``simulate`` runs it, with each figure of the
cell, of any metric, read off each outcome. Each figure meets its target
by ``harness.compare_to_formula``.

``check(row, shift)`` runs a row and prints one verdict line for it.
Shift 0 is the committed master. At shift k > 0 a master m becomes
m + k * 2**80. To re-roll the whole table and tally the verdicts:

    PYTHONPATH=src:tests python -c "import gates; runs = [(r.id, k, gates.check(r, k)) for k in range(1, 6) for r in gates.ROWS]; failed = [(i, k) for i, k, ok in runs if not ok]; print('failed:', failed, f'{len(runs) - len(failed)} of {len(runs)} passed')"

Stream independence is keyed by that integer: ``trial_rng(m, 0)`` draws
exactly ``default_rng(m)``'s stream, so two rows must never share one.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from enum import Enum
from functools import cache
from itertools import product

from qwitness import harness
from qwitness.errors import ConfigurationError
from qwitness.harness import BoundKind, ExperimentSpec, Metric, compare_to_formula, formula_target
from qwitness.protocols import (
    Protocol,
    ProtocolParams as P,
    a2b_soundness,
    eps_c_b2a_exact,
    hoeffding_bound,
)
from qwitness.qudit import sym_dim
from qwitness.strategies import AliceStrategy, BobKind, BobStrategy

# A shift moves a master this far, past every committed master.
MASTER_SHIFT = 2**80


def bernoulli_se(p, n):
    """A Bernoulli figure's standard error at probability p over n trials."""
    return math.sqrt(max(p * (1 - p), 1e-12) / n)


class SE(Enum):
    ESTIMATE = "std_err"  # the estimate's own standard error
    TARGET = "bernoulli_se(target)"  # a Bernoulli figure's, at its target


@dataclass(frozen=True)
class Figure:
    target: float
    source: str  # where the target comes from
    kind: BoundKind = BoundKind.EXACT
    z: float = 3.0
    se: SE = SE.ESTIMATE
    metric: Metric | None = None  # None: the spec's own metric


@dataclass(frozen=True)
class Row:
    id: str  # where the gate came from, then the cell
    spec: ExperimentSpec
    figures: tuple[Figure, ...]

    def metric(self, figure: Figure) -> Metric:
        return figure.metric or self.spec.metric


@dataclass(frozen=True)
class Fold:
    """A row that re-ran a cell: it runs no trials, and its cell's row gates its figure."""

    id: str
    spec: ExperimentSpec
    figure: Figure


def _spec(protocol, params, alice, bob, metric, trials, seed):
    return ExperimentSpec(
        Protocol(protocol), params, AliceStrategy.from_name(alice),
        BobStrategy.from_name(bob), Metric(metric), trials, seed,
    )


ALICE_NAMES = ("honest", "ignorant", "subspace-2", "steal", "always-abort")


def built_pairings(n_trials, seed, d=3, n=6, q=2, eps_c_targets=(0.0,)):
    """Every protocol x Alice x Bob x metric spec that builds, at d = 3 by default.

    ``n`` applies to the non-classical protocols and ``q`` to classical2 and
    b2a-abort; the other protocols take their default q.
    """
    for protocol in Protocol:
        classical = protocol in (Protocol.CLASSICAL1, Protocol.CLASSICAL2)
        q_set = q if protocol in (Protocol.CLASSICAL2, Protocol.QUANTUM_B2A_ABORT) else None
        for eps_c, name, bob, metric in product(eps_c_targets, ALICE_NAMES, BobKind, Metric):
            params = P(d=d, n=0 if classical else n, q=q_set, eps_c_target=eps_c)
            try:
                spec = ExperimentSpec(
                    protocol, params, AliceStrategy.from_name(name),
                    BobStrategy(bob), metric, n_trials, seed,
                )
            except ConfigurationError:
                continue
            yield spec


def _acceptance_criteria():
    for n, d in [(1, 2), (2, 2)]:
        yield Row(
            f"criterion-2/a2b-n{n}-d{d}",
            _spec("a2b", P(d=d, n=n), "ignorant", "honest", "acceptance", 100_000, 210 + 10 * n + d),
            (
                Figure(a2b_soundness(n, d), "a2b_soundness"),
                Figure(1 / d, "criterion 8's floor (1 - eps_c)/d, eps_c = 0", BoundKind.LOWER),
            ),
        )
    # Criterion 5 gates the rejection rate at eps_c; b2a only accepts or
    # rejects, so that is acceptance at 1 - eps_c, with the same se.
    for n, d, q in [(4, 2, 2), (9, 3, 4), (16, 2, 9)]:
        yield Row(
            f"criterion-5/b2a-n{n}-d{d}-q{q}",
            _spec("b2a", P(d=d, n=n, q=q), "honest", "honest", "acceptance", 10_000, 500 + n + d + q),
            (Figure(1.0 - eps_c_b2a_exact(n, d, q), "1 - eps_c_b2a_exact"),),
        )
    for n, q in [(9, 2), (19, 4)]:
        yield Row(
            f"criterion-6/b2a-n{n}-q{q}",
            _spec("b2a", P(d=2, n=n, q=q), "ignorant", "honest", "acceptance", 100_000, 600 + n),
            (
                Figure(q / (n + 1), "soundness q/(n+1)"),
                Figure((1 - eps_c_b2a_exact(n, 2, q)) / 2, "criterion 8's floor (1 - eps_c)/d",
                       BoundKind.LOWER),
            ),
        )
    # Criterion 7 at (n, q) = (4, 2). Retain-guess Bob keeps eta and learns
    # nothing from the run: 2/(d+1), under the paper's bound 4/(d+1). Honest
    # Alice detects Y ~ Binomial(n+1, 1/d) of his n + 1 Haar substitutes,
    # keeps min(Y, q) and is accepted iff his uniform label is among them:
    # E[min(Y, q)]/(n+1). Stealing Alice estimates a substitute
    # independent of eta: 1/d.
    n, q = 4, 2
    for d in (2, 3, 5):
        params = P(d=d, n=n, q=q)
        p = 1 / d
        kept = sum(
            math.comb(n + 1, y) * p**y * (1 - p) ** (n + 1 - y) * min(y, q)
            for y in range(n + 2)
        )
        accepted = Figure(kept / (n + 1), "E[min(Y, q)]/(n+1), Y ~ Bin(n+1, 1/d)", z=5,
                          se=SE.TARGET, metric=Metric.ACCEPTANCE)
        yield Row(
            f"criterion-7/b2a-retain-guess-fsq-d{d}",
            _spec("b2a", params, "honest", "retain-guess", "mean-fsq", 20_000, 700 + d),
            (
                Figure(4 / (d + 1), "the paper's bound 4/(d+1)", BoundKind.UPPER),
                Figure(2 / (d + 1), "no-protocol optimum 2/(d+1)", z=5),
                accepted,
            ),
        )
        yield Fold(
            f"criterion-7/b2a-retain-guess-acceptance-d{d}",
            _spec("b2a", params, "honest", "retain-guess", "acceptance", 10_000, 720 + d),
            accepted,
        )
        yield Row(
            f"criterion-7/b2a-steal-retain-guess-fsq-d{d}",
            _spec("b2a", params, "steal", "retain-guess", "alice-mean-fsq", 10_000, 740 + d),
            (Figure(1 / d, "a Haar substitute: 1/d", z=5),),
        )
    yield Row(
        "criterion-8/classical1-tightness-d2",
        _spec("classical1", P(d=2), "ignorant", "honest", "acceptance", 30_000, 880),
        (Figure(0.5, "the soundness floor 1/d"),),
    )
    # Alice aborts iff X >= q of the n decoys test positive, X ~ Binomial(n, 1/2).
    n, eps = 100, 0.1
    q = int(n / 2 + eps * n)
    tail = sum(math.comb(n, x) for x in range(q, n + 1)) / 2**n
    hoeffding = Figure(hoeffding_bound(n, eps), "Hoeffding exp(-2 eps^2 n)", BoundKind.UPPER,
                       se=SE.TARGET)
    yield Row(
        f"criterion-9/b2a-abort-n{n}-q{q}",
        _spec("b2a-abort", P(d=2, n=n, q=q), "honest", "honest", "abort-rate", 10_000, 900),
        (hoeffding, Figure(tail, "P[X >= q], X ~ Bin(n, 1/2)", z=5, se=SE.TARGET)),
    )
    yield Fold(
        f"protocols/abort-tail-n{n}",
        _spec("b2a-abort", P(d=2, n=n, q=q), "honest", "honest", "abort-rate", 2000, 13),
        hoeffding,
    )
    # The closed form below at eps = 0, d = 2 and q = 1 is exactly 1.
    exact = Figure(1.0, "(1-eps)/d + (1 - q/d) s at eps = 0, d = 2", z=4)
    yield Row(
        "criterion-10/classical1-substitute-d2",
        _spec("classical1", P(d=2), "honest", "substitute", "mean-fsq", 10_000, 1000),
        (exact,),
    )
    yield Fold(
        "strategies/substitute-classical1-d2",
        _spec("classical1", P(d=2), "honest", "substitute", "mean-fsq", 10_000, 3488830393),
        exact,
    )
    # Criterion 10's exact cells, at classical1 d = 3 and classical2 d = 4,
    # q = 2. With eps = eps_c_target, F = 2/(d+1) and s = (1-eps)^2 + eps^2:
    # retain-guess Bob reads the column his outcome names, s against honest
    # Alice and F against ignorant Alice. Substitute Bob's probe is accepted
    # with probability q/d; an unveiling hands him a committed column (1 - eps
    # for honest Alice's column 0, nothing for the free ones, 1/d on average
    # for ignorant Alice's), and otherwise he measures the state in the frame
    # for s or F. Each cell keeps its committed master, 1010 + 10 * block + offset.
    eps = 0.1
    for block, (protocol, d, q) in enumerate([("classical1", 3, None), ("classical2", 4, 2)]):
        qd = (q or 1) / d
        s, f = (1 - eps) ** 2 + eps**2, 2 / (d + 1)
        cells = [
            (0, "honest", eps, "retain-guess", s, "s"),
            (2, "honest", eps, "substitute", (1 - eps) / d + (1 - qd) * s, "(1-eps)/d + (1 - q/d) s"),
            (3, "ignorant", 0.0, "retain-guess", f, "F"),
            (5, "ignorant", 0.0, "substitute", qd / d + (1 - qd) * f, "q/d^2 + (1 - q/d) F"),
        ]
        for offset, alice, eps_c, bob, figure, source in cells:
            params = P(d=d, q=q, eps_c_target=eps_c)
            figures = (Figure(figure, source, z=5),)
            if bob == "substitute":
                accepted = Figure(qd, "q/d", z=5, se=SE.TARGET, metric=Metric.ACCEPTANCE)
                figures += (accepted,)
                yield Fold(
                    f"criterion-10/{protocol}-d{d}-{alice}-substitute-acceptance",
                    _spec(protocol, params, alice, bob, "acceptance", 6000,
                          1010 + 10 * block + offset - 1),
                    accepted,
                )
            yield Row(
                f"criterion-10/{protocol}-d{d}-{alice}-{bob}-mean-fsq",
                _spec(protocol, params, alice, bob, "mean-fsq", 6000, 1010 + 10 * block + offset),
                figures,
            )


def _harness_gates():
    # Each pairing with a formula_target, at its own master: 9100 plus its
    # index among the built pairings.
    for index, spec in enumerate(built_pairings(2000, 0)):
        target = formula_target(spec)
        if target is not None:
            value, kind = target
            yield Row(
                f"harness/target-{spec.protocol.value}-{spec.alice.name}-{spec.bob.kind.value}"
                f"-{spec.metric.value}",
                replace(spec, master_seed=9100 + index),
                (Figure(value, "formula_target", kind, z=5),),
            )
    yield Row(
        "harness/always-abort-retain-guess",
        _spec("b2a-abort", P(d=3, n=4, q=2), "always-abort", "retain-guess", "mean-fsq", 20_000, 23),
        (Figure(2 / 4, "no-protocol optimum 2/(d+1), from the copy he kept", z=4),),
    )


def _protocol_gates():
    # Joint dimensions 8**5 and 2**12, past the dense projector's size cap.
    for d, n in [(8, 4), (2, 11)]:
        yield Row(
            f"protocols/sender-beyond-dense-d{d}-n{n}",
            _spec("a2b", P(d=d, n=n), "ignorant", "honest", "acceptance", 4000, 40 + d + n),
            (Figure(a2b_soundness(n, d), "a2b_soundness", z=4),),
        )
    for rid, protocol, params, alice, trials, master, figure, source in [
        ("classical1-ignorant-d4", "classical1", P(d=4), "ignorant", 20_000, 2, 0.25, "q/d"),
        ("classical1-honest-eps0.2-d3", "classical1", P(d=3, eps_c_target=0.2), "honest",
         10_000, 3, 0.8, "1 - eps_c"),
        ("classical2-ignorant-d6-q3", "classical2", P(d=6, q=3), "ignorant", 20_000, 4, 0.5,
         "q/d"),
    ]:
        yield Row(
            f"protocols/{rid}",
            _spec(protocol, params, alice, "honest", "acceptance", trials, master),
            (Figure(figure, source, z=4, se=SE.TARGET),),
        )
    # Criterion 2's rows gate the d = 2 cells: the ratio is a2b_soundness.
    yield Fold(
        "protocols/sender-ignorant-n1-d2",
        _spec("a2b", P(d=2, n=1), "ignorant", "honest", "acceptance", 30_000, 8),
        Figure(0.75, "a2b soundness (1 + n/d)/(n+1)", z=4, se=SE.TARGET),
    )
    for n, d in [(1, 2), (2, 2), (1, 3), (2, 3)]:
        rid = f"protocols/sender-grid-n{n}-d{d}"
        spec = _spec("a2b", P(d=d, n=n), "ignorant", "honest", "acceptance", 30_000,
                     80 + 10 * n + d)
        figure = Figure(sym_dim(n + 1, d) / (sym_dim(n, d) * d), "sym_dim ratio", z=4, se=SE.TARGET)
        yield Fold(rid, spec, figure) if d == 2 else Row(rid, spec, (figure,))
    # Subspace-k Alice's copies have overlap F ~ Beta(1, k - 1) with eta, so
    # honest Bob accepts with 1/(n+1) + n E[F]/(n+1) = (1 + n/k)/(n+1), and
    # substitute Bob's Haar probe with (1 + n/d)/(n+1). Retain-guess Bob
    # estimates from his one copy, 2/(d+1), or at k = 1, where Alice sends
    # eta itself, from all n + 1: (n+2)/(n+1+d).
    for d, k, n in [(3, 2, 2), (5, 3, 3), (8, 8, 2), (3, 1, 4)]:
        figures = {
            "honest": ("acceptance", (1 + n / k) / (n + 1), "(1 + n/k)/(n+1)"),
            "substitute": ("acceptance", (1 + n / d) / (n + 1), "(1 + n/d)/(n+1)"),
            "retain-guess": (
                "mean-fsq",
                (n + 2) / (n + 1 + d) if k == 1 else 2 / (d + 1),
                "(n+2)/(n+1+d) at k = 1, else 2/(d+1)",
            ),
        }
        for index, (bob, (metric, figure, source)) in enumerate(figures.items()):
            yield Row(
                f"protocols/sender-subspace-d{d}-k{k}-n{n}-{bob}",
                _spec("a2b", P(d=d, n=n), f"subspace-{k}", bob, metric, 20_000,
                      2500 + 100 * d + 10 * k + index),
                (Figure(figure, source, z=5),),
            )
    # Criterion 5's row gates (n, d, q) = (4, 2, 2).
    for n, d, q in [(4, 2, 2), (6, 3, 2)]:
        rid = f"protocols/receiver-rejection-n{n}-d{d}-q{q}"
        spec = _spec("b2a", P(d=d, n=n, q=q), "honest", "honest", "acceptance", 10_000,
                     90 + n + d + q)
        figure = Figure(1.0 - eps_c_b2a_exact(n, d, q), "1 - eps_c_b2a_exact", z=4, se=SE.TARGET)
        yield Fold(rid, spec, figure) if n == 4 else Row(rid, spec, (figure,))
    # A Bob who guesses the unveiled (or self-measured) projector realizes
    # at least (1 - eps_c)^2 / q mean squared fidelity.
    yield Row(
        "protocols/classical2-concealment-d4-q2",
        _spec("classical2", P(d=4, q=2, eps_c_target=0.2), "honest", "retain-guess",
              "mean-fsq", 5000, 16),
        (Figure((1 - 0.2) ** 2 / 2, "(1 - eps_c)^2/q", BoundKind.LOWER),),
    )


def _strategy_gates():
    yield Row(
        "strategies/steal-b2a-n9",
        _spec("b2a", P(d=2, n=9, q=2), "steal", "honest", "acceptance", 20_000, 3941803159),
        (
            Figure(2 / 10, "random commits q/(n+1)", z=4, se=SE.TARGET),
            Figure(2 / 3, "single-copy optimum 2/(d+1)", z=4, metric=Metric.ALICE_MEAN_FSQ),
        ),
    )
    # Criterion 6's row gates ignorant Alice at b2a n = 9.
    yield Fold(
        "strategies/ignorant-b2a-n9",
        _spec("b2a", P(d=2, n=9, q=2), "ignorant", "honest", "acceptance", 20_000, 3370384752),
        Figure(0.2, "q/(n+1)", z=4, se=SE.TARGET),
    )
    for rid, protocol, params, alice, trials, master, figure, source in [
        ("subspace-classical1-d4", "classical1", P(d=4), "subspace-2", 30_000, 1405169376, 0.5,
         "min(q, k)/k"),
        # Ignorant Alice commits q random distinct labels.
        ("random-distinct-b2a-n5", "b2a", P(d=3, n=5, q=3), "ignorant", 10_000,
         4121248291, 0.5, "q/(n+1)"),
    ]:
        yield Row(
            f"strategies/{rid}",
            _spec(protocol, params, alice, "honest", "acceptance", trials, master),
            (Figure(figure, source, z=4, se=SE.TARGET),),
        )
    # Skip Bob never submits, so he is never accepted.
    yield Row(
        "strategies/skip-a2b-d4",
        _spec("a2b", P(d=4, n=1), "honest", "skip", "mean-fsq", 30_000, 4168504701),
        (
            Figure(2 / 5, "no-protocol optimum 2/(d+1)"),
            Figure(0.0, "skip Bob is never accepted", metric=Metric.ACCEPTANCE),
        ),
    )


_TABLE = (*_acceptance_criteria(), *_harness_gates(), *_protocol_gates(), *_strategy_gates())
ROWS = tuple(gate for gate in _TABLE if isinstance(gate, Row))
FOLDS = tuple(gate for gate in _TABLE if isinstance(gate, Fold))
_BY_ID = {row.id: row for row in ROWS}


def cell(spec: ExperimentSpec) -> tuple:
    """What a row runs, apart from its metric, trial count and master."""
    return (spec.protocol, replace(spec.params, q=spec.params.resolved_q(spec.protocol)),
            spec.alice, spec.bob)


def seed(row: Row, shift: int = 0) -> int:
    """The master the row's stream is seeded with at a shift."""
    return row.spec.master_seed + shift * MASTER_SHIFT


def stats(row_id: str, shift: int = 0) -> dict[Metric, harness.TrialStats]:
    """Each metric the row's figures read, over its trials at a shift; run once."""
    return _run(row_id, shift)


@cache  # keyed on both arguments as passed, so ``stats`` always passes both
def _run(row_id: str, shift: int) -> dict[Metric, harness.TrialStats]:
    row = _BY_ID[row_id]
    spec = replace(row.spec, master_seed=seed(row, shift))
    values = {row.metric(f): array("d") for f in row.figures}
    for i in range(spec.n_trials):
        outcome = harness.run_trial(spec, i)
        for metric, column in values.items():
            column.append(harness._metric_value(outcome, metric))
    return {metric: harness._fold(metric, column) for metric, column in values.items()}


def standard_error(figure: Figure, stats: harness.TrialStats) -> float:
    if figure.se is SE.TARGET:
        return bernoulli_se(figure.target, stats.n_trials)
    return stats.std_err


def passes(figure: Figure, stats: harness.TrialStats) -> bool:
    return compare_to_formula(
        stats.estimate, standard_error(figure, stats), figure.target, figure.z, figure.kind
    )


def slack(figure: Figure, n_trials: int) -> float:
    """How far past its target a figure may fall at a pass: z times a Bernoulli se there."""
    return figure.z * bernoulli_se(figure.target, n_trials)


def covered(fold: Fold) -> bool:
    """Whether the row of the fold's cell gates its figure no looser; prints one verdict line."""
    key = (fold.figure.metric or fold.spec.metric, fold.figure.kind, fold.figure.target)
    found = [
        (row.id, slack(figure, row.spec.n_trials))
        for row in ROWS if cell(row.spec) == cell(fold.spec)
        for figure in row.figures if (row.metric(figure), figure.kind, figure.target) == key
    ]
    was = slack(fold.figure, fold.spec.n_trials)
    ok = len(found) == 1 and found[0][1] <= was
    rows = ", ".join(f"{rid} at {row_slack:.4f}" for rid, row_slack in found) or "none"
    print(f"[gate {fold.id}] {'PASS' if ok else 'FAIL'}  slack {was:.4f}; its cell's row: {rows}")
    return ok


def check(row: Row, shift: int = 0) -> bool:
    """Run a row at a shift and print one verdict line: each figure's estimate, target and z."""
    row_stats = stats(row.id, shift)
    verdicts, details = [], []
    for figure in row.figures:
        metric = row.metric(figure)
        got = row_stats[metric]
        diff, se = got.estimate - figure.target, standard_error(figure, got)
        z = diff / se if se > 0 else math.copysign(math.inf, diff) if diff else 0.0
        verdicts.append(passes(figure, got))
        details.append(
            f"{metric.value} {got.estimate:.4f} {figure.kind.value} {figure.target:.4f} "
            f"({figure.source}; z {z:+.2f}, gate {figure.z:g})"
        )
    ok = all(verdicts)
    print(f"[gate {row.id} shift {shift}] {'PASS' if ok else 'FAIL'}  {'; '.join(details)}")
    return ok
