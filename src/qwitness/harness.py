"""Monte Carlo experiment runner.

One experiment is a fully specified, seeded batch of independent
protocol runs aggregated into a single metric. Per-trial generators
are derived counter-style from (master_seed, trial index), and the
per-trial values are summed in trial order however the range is split
across processes, so results are bit-identical across executions and
across ``jobs``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from array import array
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import ConfigurationError
from .protocols import (
    BoundKind,
    Protocol,
    ProtocolOutcome,
    ProtocolParams,
    Verdict,
    closed_forms,
    run_protocol,
)
from .strategies import AliceKind, AliceStrategy, BobKind, BobStrategy

Z_DEFAULT = 3.0
_Z95 = 1.959963984540054


class Metric(Enum):
    ACCEPTANCE = "acceptance"
    ABORT_RATE = "abort-rate"
    MEAN_FSQ = "mean-fsq"
    ALICE_MEAN_FSQ = "alice-mean-fsq"


_BERNOULLI_METRICS = (Metric.ACCEPTANCE, Metric.ABORT_RATE)


@dataclass(frozen=True)
class TrialStats:
    """Aggregated metric over a batch of trials.

    Bernoulli metrics track a success count; fidelity metrics track
    value sums. ``merge`` adds counts exactly, but its float sums depend
    on how trials were grouped, in the last digits. A closed-form value
    can be wrapped via ``from_formula`` (zero error).
    """

    metric: Metric
    n_trials: int
    successes: int = 0
    value_sum: float = 0.0
    value_sumsq: float = 0.0
    formula_value: float | None = None

    @property
    def is_bernoulli(self) -> bool:
        return self.metric in _BERNOULLI_METRICS

    @property
    def estimate(self) -> float:
        if self.formula_value is not None:
            return self.formula_value
        if self.n_trials == 0:
            raise ConfigurationError("no trials to estimate from")
        if self.is_bernoulli:
            return self.successes / self.n_trials
        return self.value_sum / self.n_trials

    # Aliases matching the two metric families.
    @property
    def p_hat(self) -> float:
        return self.estimate

    @property
    def mean(self) -> float:
        return self.estimate

    @property
    def std_err(self) -> float:
        if self.formula_value is not None:
            return 0.0
        n = self.n_trials
        if n == 0:
            raise ConfigurationError("no trials to estimate from")
        if self.is_bernoulli:
            p = self.successes / n
            return math.sqrt(p * (1.0 - p) / n)
        if n < 2:
            return 0.0
        mean = self.value_sum / n
        var = max(0.0, (self.value_sumsq - n * mean * mean) / (n - 1))
        return math.sqrt(var / n)

    @property
    def ci95(self) -> tuple[float, float]:
        e, se = self.estimate, self.std_err
        return (e - _Z95 * se, e + _Z95 * se)

    def merge(self, other: "TrialStats") -> "TrialStats":
        if self.metric is not other.metric:
            raise ConfigurationError("cannot merge stats for different metrics")
        if self.formula_value is not None or other.formula_value is not None:
            raise ConfigurationError("formula stats are not mergeable")
        return TrialStats(
            self.metric,
            self.n_trials + other.n_trials,
            self.successes + other.successes,
            self.value_sum + other.value_sum,
            self.value_sumsq + other.value_sumsq,
        )

    @classmethod
    def from_formula(cls, metric: Metric, value: float) -> "TrialStats":
        return cls(metric, 0, formula_value=value)


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything that determines an experiment's output bit for bit."""

    protocol: Protocol
    params: ProtocolParams
    alice: AliceStrategy
    bob: BobStrategy
    metric: Metric
    n_trials: int
    master_seed: int
    validate_transcripts: bool = False

    def __post_init__(self) -> None:
        self.params.check(self.protocol)
        # Only honest Alice aims her measurement at a completeness error.
        if self.params.eps_c_target > 0.0 and self.alice.kind is not AliceKind.HONEST_KNOWING:
            raise ConfigurationError(
                f"eps_c_target applies to honest Alice only, not {self.alice.kind.value}"
            )


def trial_rng(master_seed: int, index: int) -> np.random.Generator:
    """Deterministic per-trial generator, stable under partitioning."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(index,)))


def _metric_value(outcome: ProtocolOutcome, metric: Metric) -> float:
    if metric is Metric.ACCEPTANCE:
        return 1.0 if outcome.verdict is Verdict.ACCEPT else 0.0
    if metric is Metric.ABORT_RATE:
        return 1.0 if outcome.verdict is Verdict.ABORT else 0.0
    if metric is Metric.MEAN_FSQ:
        if outcome.bob_guess is None:
            raise ConfigurationError("mean-fsq metric needs a Bob strategy that guesses")
        return outcome.bob_guess.achieved_fsq
    if outcome.alice_guess is None:
        raise ConfigurationError("alice-mean-fsq metric needs a stealing Alice")
    return outcome.alice_guess.achieved_fsq


def run_trial(spec: ExperimentSpec, index: int) -> ProtocolOutcome:
    """Run a single trial of the experiment at the given index."""
    rng = trial_rng(spec.master_seed, index)
    return run_protocol(spec.protocol, spec.params, spec.alice, spec.bob, rng)


def _trial_values(spec: ExperimentSpec, start: int, stop: int) -> array:
    """The metric value of each trial in [start, stop), in trial order."""
    values = array("d")
    for i in range(start, stop):
        try:
            outcome = run_trial(spec, i)
            value = _metric_value(outcome, spec.metric)
        except ConfigurationError as e:
            raise ConfigurationError(f"trial {i}: {e}") from e
        if spec.validate_transcripts:
            report = outcome.transcript.validate()
            if not report.ok:
                raise ConfigurationError(
                    f"trial {i}: transcript violations {report.violations}"
                )
        values.append(value)
    return values


def _fold(metric: Metric, values: array) -> TrialStats:
    """Aggregate per-trial values, adding them in the order given."""
    if metric in _BERNOULLI_METRICS:
        return TrialStats(metric, len(values), sum(int(v) for v in values))
    value_sum = value_sumsq = 0.0
    for v in values:
        value_sum += v
        value_sumsq += v * v
    return TrialStats(metric, len(values), 0, value_sum, value_sumsq)


def run_trials_range(spec: ExperimentSpec, start: int, stop: int) -> TrialStats:
    """Run trials [start, stop) and aggregate the metric."""
    return _fold(spec.metric, _trial_values(spec, start, stop))


def run_trials(spec: ExperimentSpec, jobs: int = 1) -> TrialStats:
    """Run all trials over 1 to os.cpu_count() processes, summing values in trial order."""
    if spec.n_trials < 1:
        raise ConfigurationError("experiment needs at least one trial")
    cpus = os.cpu_count() or 1
    if not 1 <= jobs <= cpus:
        raise ConfigurationError(f"jobs must lie in [1, {cpus}], got {jobs}")
    if jobs == 1:
        return run_trials_range(spec, 0, spec.n_trials)
    from concurrent.futures import ProcessPoolExecutor

    chunk = math.ceil(spec.n_trials / jobs)
    starts = range(0, spec.n_trials, chunk)
    stops = [min(start + chunk, spec.n_trials) for start in starts]
    with ProcessPoolExecutor(max_workers=len(starts)) as pool:
        parts = list(pool.map(_trial_values, [spec] * len(starts), starts, stops))
    return _fold(spec.metric, sum(parts, array("d")))


# ---------------------------------------------------------------------------
# Formula comparison


@dataclass(frozen=True)
class ComparisonReport:
    passed: bool
    estimate: float
    target: float
    difference: float
    std_err: float
    z: float
    kind: BoundKind


def compare_to_formula(
    stats: TrialStats,
    target: float,
    z: float = Z_DEFAULT,
    kind: BoundKind = BoundKind.EXACT,
    atol: float = 1e-9,
) -> ComparisonReport:
    """Compare an estimate with a closed-form target.

    Exact targets are two-sided: |estimate - target| <= z * std_err
    (plus ``atol`` when the standard error vanishes). Upper bounds
    require estimate <= target + z * std_err, lower bounds the mirror.
    """
    if stats.n_trials == 0 and stats.formula_value is None:
        raise ConfigurationError("cannot compare empty stats")
    estimate, se = stats.estimate, stats.std_err
    slack = z * se + (atol if se == 0.0 else 0.0)
    diff = estimate - target
    if kind is BoundKind.EXACT:
        passed = abs(diff) <= slack
    elif kind is BoundKind.UPPER:
        passed = diff <= slack
    else:
        passed = diff >= -slack
    return ComparisonReport(passed, estimate, target, diff, se, z, kind)


def formula_target(spec: ExperimentSpec) -> tuple[float, BoundKind] | None:
    """Closed-form target for an experiment, where one is defined."""
    figures = closed_forms(spec.protocol, spec.params)
    alice, bob, metric = spec.alice.kind, spec.bob.kind, spec.metric
    if metric is Metric.ACCEPTANCE and bob is BobKind.HONEST:
        if alice is AliceKind.HONEST_KNOWING:
            if spec.protocol is Protocol.QUANTUM_B2A_ABORT:
                return None  # acceptance splits between reject and abort
            return 1.0 - figures.completeness_err, BoundKind.EXACT
        if alice in (AliceKind.IGNORANT, AliceKind.RANDOM_DISTINCT_COMMIT):
            return figures.soundness, BoundKind.EXACT
        return None
    if metric is Metric.MEAN_FSQ:
        if bob is BobKind.SKIP_PROTOCOL_MEASURE:
            return figures.baseline_fsq, BoundKind.EXACT
        # The paper's concealment figures hold for honest Alice.
        if bob is BobKind.MEASURE_RETAIN_GUESS and alice is AliceKind.HONEST_KNOWING:
            return figures.concealment, figures.concealment_kind
        return None
    if metric is Metric.ALICE_MEAN_FSQ and alice is AliceKind.STEAL_STATE:
        return figures.baseline_fsq, BoundKind.EXACT
    if metric is Metric.ABORT_RATE and alice is AliceKind.HONEST_KNOWING:
        if figures.abort_bound is not None:
            return figures.abort_bound, BoundKind.UPPER
    return None


# ---------------------------------------------------------------------------
# Sweeps and export


@dataclass(frozen=True)
class SweepRow:
    spec: ExperimentSpec  # the row's parameters and its own derived seed
    stats: TrialStats
    target: float | None
    target_kind: BoundKind | None
    passed: bool | None


_SWEEP_AXES = ("d", "n", "q", "eps_c_target", "abort_epsilon")


def sweep(base: ExperimentSpec, axis: str, values, jobs: int = 1) -> list[SweepRow]:
    """Rerun the experiment along one parameter axis, each row over ``jobs`` processes."""
    if axis not in _SWEEP_AXES:
        raise ConfigurationError(f"unknown sweep axis {axis!r}; pick one of {_SWEEP_AXES}")
    # Every row's spec is built, and so checked, before any row runs.
    specs = []
    for row_index, value in enumerate(values):
        params = replace(base.params, **{axis: value})
        row_seed = int(
            np.random.SeedSequence(base.master_seed, spawn_key=(10_000 + row_index,))
            .generate_state(1)[0]
        )
        specs.append(replace(base, params=params, master_seed=row_seed))
    rows: list[SweepRow] = []
    for spec in specs:
        stats = run_trials(spec, jobs)
        target = formula_target(spec)
        if target is None:
            rows.append(SweepRow(spec, stats, None, None, None))
        else:
            t_value, t_kind = target
            report = compare_to_formula(stats, t_value, kind=t_kind)
            rows.append(SweepRow(spec, stats, t_value, t_kind, report.passed))
    return rows


_CSV_COLUMNS = [
    "protocol", "alice", "bob", "metric", "d", "n", "q", "eps_c_target",
    "n_trials", "seed", "estimate", "std_err", "target", "target_kind", "verdict",
]


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _spec_fields(spec: ExperimentSpec) -> dict:
    alice = spec.alice.kind.value
    if spec.alice.subspace_dim is not None:
        alice = f"{alice}-{spec.alice.subspace_dim}"
    return {
        "protocol": spec.protocol.value,
        "alice": alice,
        "bob": spec.bob.kind.value,
        "metric": spec.metric.value,
        "d": spec.params.d,
        "n": spec.params.n,
        "q": spec.params.resolved_q(spec.protocol),
        "eps_c_target": spec.params.eps_c_target,
        "n_trials": spec.n_trials,
        "seed": spec.master_seed,
    }


def result_row(
    spec: ExperimentSpec,
    stats: TrialStats,
    target: tuple[float, BoundKind] | None,
) -> dict:
    row = _spec_fields(spec)
    row["estimate"] = stats.estimate
    row["std_err"] = stats.std_err
    if target is None:
        row.update({"target": None, "target_kind": None, "verdict": None})
    else:
        t_value, t_kind = target
        report = compare_to_formula(stats, t_value, kind=t_kind)
        row.update({
            "target": t_value,
            "target_kind": t_kind.value,
            "verdict": "pass" if report.passed else "fail",
        })
    return row


def rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _fmt(row.get(k)) for k in _CSV_COLUMNS})
    return buf.getvalue()


def rows_to_json(rows: list[dict]) -> str:
    return json.dumps(rows, indent=2, sort_keys=True) + "\n"
