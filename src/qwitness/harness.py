"""Monte Carlo experiment runner.

One experiment is a fully specified, seeded batch of independent
protocol runs aggregated into a single metric. A fidelity metric scores
the trial's guess against the trial's unknown state, here and nowhere
else. Per-trial generators are derived counter-style from (master_seed,
trial index), and the per-trial values are summed in trial order however
the range is split across processes, so results are bit-identical across
executions and across ``jobs``.
"""

from __future__ import annotations

import math
import os
from array import array
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError
from .estimation import mean_estimation_fsq
from .protocols import (
    CLASSICAL,
    RECEIVER,
    Protocol,
    ProtocolOutcome,
    ProtocolParams,
    Verdict,
    a2b_soundness,
    check_players,
    eps_c_b2a_exact,
    hoeffding_bound,
    run_protocol,
)
from .qudit import fidelity_sq
from .strategies import AliceKind, AliceStrategy, BobKind, BobStrategy

Z_DEFAULT = 3.0
# Most complex amplitudes one trial may hold in its largest arrays: 64 MiB.
# The receiver protocols leave a system undrawn until a party reads it, but
# honest Alice reads all n + 1, so there a trial still holds (n + 1) * d.
# A classical frame holds only the columns it has fixed: at most three for
# honest and ignorant Alice, k + 1 for subspace-k Alice, never more than
# d, so d * d bounds it. An a2b trial holds one state's d amplitudes at a
# time, whoever plays Alice.
TRIAL_AMPLITUDE_CAP = 2**22
# Slack added to a comparison whose standard error vanishes.
ZERO_SE_ATOL = 1e-9


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
    on how trials were grouped, in the last digits.
    """

    metric: Metric
    n_trials: int
    successes: int = 0
    value_sum: float = 0.0
    value_sumsq: float = 0.0

    @property
    def is_bernoulli(self) -> bool:
        return self.metric in _BERNOULLI_METRICS

    @property
    def estimate(self) -> float:
        if self.n_trials == 0:
            raise ConfigurationError("no trials to estimate from")
        if self.is_bernoulli:
            return self.successes / self.n_trials
        return self.value_sum / self.n_trials

    @property
    def std_err(self) -> float:
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

    def merge(self, other: "TrialStats") -> "TrialStats":
        if self.metric is not other.metric:
            raise ConfigurationError("cannot merge stats for different metrics")
        return TrialStats(
            self.metric,
            self.n_trials + other.n_trials,
            self.successes + other.successes,
            self.value_sum + other.value_sum,
            self.value_sumsq + other.value_sumsq,
        )


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
        """Reject, before any trial, a setting the run would ignore or could not play."""
        if self.master_seed < 0:
            raise ConfigurationError(f"seed must be nonnegative, got {self.master_seed}")
        protocol, params, alice = self.protocol, self.params, self.alice.kind
        classical = protocol in CLASSICAL
        if protocol is Protocol.QUANTUM_A2B and params.q is not None:
            raise ConfigurationError("a2b commits nothing, so q does not apply")
        if classical and params.n > 0:
            raise ConfigurationError(f"{protocol.value} sends no extra systems, so n must be 0")
        q = params.resolved_q(protocol)
        # Only honest Alice in a classical protocol aims at a completeness
        # error, and only while a residual outcome stays uncovered.
        if params.eps_c_target > 0.0:
            if not classical:
                raise ConfigurationError(
                    f"eps_c_target applies to the classical protocols only, not {protocol.value}"
                )
            if alice is not AliceKind.HONEST_KNOWING:
                raise ConfigurationError(
                    f"eps_c_target applies to honest Alice only, not {alice.value}"
                )
            if q >= params.d:
                raise ConfigurationError(
                    "eps_c_target > 0 needs q <= d - 1 so the residual stays uncovered"
                )
        check_players(protocol, self.alice, self.bob)
        k = self.alice.subspace_dim
        if k is not None and k > params.d:
            raise ConfigurationError(f"subspace dimension {k} exceeds d={params.d}")
        # A trial's largest arrays, of d amplitudes a state: a classical
        # frame's fixed columns, at most d, the receiver protocols' n + 1
        # systems, and in a2b one state, whoever plays Alice.
        states = params.d if classical else 1 if protocol is Protocol.QUANTUM_A2B else params.n + 1
        amplitudes = states * params.d
        if amplitudes > TRIAL_AMPLITUDE_CAP:
            raise ConfigurationError(
                f"a {protocol.value} trial at d={params.d}, n={params.n} would hold "
                f"{amplitudes} amplitudes, over the cap of {TRIAL_AMPLITUDE_CAP}"
            )
        # A metric the chosen protocol and strategies never produce.
        metric = self.metric
        if metric is Metric.ABORT_RATE and protocol is not Protocol.QUANTUM_B2A_ABORT:
            raise ConfigurationError(f"abort-rate needs b2a-abort: {protocol.value} never aborts")
        if metric is Metric.MEAN_FSQ and self.bob.kind is BobKind.HONEST:
            raise ConfigurationError("mean-fsq metric needs a Bob strategy that guesses")
        if metric is Metric.ALICE_MEAN_FSQ and alice is not AliceKind.STEAL_STATE:
            raise ConfigurationError("alice-mean-fsq metric needs a stealing Alice")


# PCG64's ``jumped`` step, 2**128 over the golden ratio. Trial i starts i
# such steps past the master's state, so two trials whose indices differ
# by a power of two do not share the low bits of their LCG states.
_JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835


@lru_cache(maxsize=16)
def _master_seed(master_seed: int) -> np.random.bit_generator.ISeedSequence:
    """``SeedSequence(master_seed)`` as PCG64 reads it, its 4 seed words generated once.

    ``numpy.random`` is first touched here, by the first trial: importing
    it with this module raised the benchmark's peak RSS by about 0.5 MB.
    """
    words = np.random.SeedSequence(master_seed).generate_state(4, np.uint64)

    class MasterSeed(np.random.bit_generator.ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 asks for exactly generate_state(4, np.uint64).
            return words

    return MasterSeed()


def trial_rng(master_seed: int, index: int) -> np.random.Generator:
    """``Generator(PCG64(SeedSequence(master_seed)).jumped(index))``, stable under partitioning.

    A counter-based scheme (Salmon et al., SC'11): a fresh PCG64 from the
    master's cached seed words, advanced by index times ``jumped``'s step.
    """
    if master_seed < 0 or index < 0:
        raise ValueError(f"expected nonnegative seed and index, got {master_seed}, {index}")
    bits = np.random.PCG64(_master_seed(master_seed))
    bits.advance(index * _JUMP % 2**128)
    return np.random.Generator(bits)


def _metric_value(outcome: ProtocolOutcome, metric: Metric) -> float:
    if metric is Metric.ACCEPTANCE:
        return 1.0 if outcome.verdict is Verdict.ACCEPT else 0.0
    if metric is Metric.ABORT_RATE:
        return 1.0 if outcome.verdict is Verdict.ABORT else 0.0
    guess = outcome.bob_guess if metric is Metric.MEAN_FSQ else outcome.alice_guess
    return fidelity_sq(guess, outcome.true_state)


def run_trial(spec: ExperimentSpec, index: int) -> ProtocolOutcome:
    """Run a single trial of the experiment at the given index."""
    rng = trial_rng(spec.master_seed, index)
    return run_protocol(spec.protocol, spec.params, spec.alice, spec.bob, rng)


def _trial_values(spec: ExperimentSpec, start: int, stop: int) -> array:
    """The metric value of each trial in [start, stop), in trial order."""
    values = array("d")
    for i in range(start, stop):
        outcome = run_trial(spec, i)
        value = _metric_value(outcome, spec.metric)
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


class BoundKind(Enum):
    EXACT = "exact"
    UPPER = "upper"
    LOWER = "lower"


def compare_to_formula(
    estimate: float,
    std_err: float,
    target: float,
    z: float = Z_DEFAULT,
    kind: BoundKind = BoundKind.EXACT,
) -> bool:
    """Whether an estimate meets a closed-form target within z standard errors.

    Exact targets are two-sided: |estimate - target| <= z * std_err
    (plus ``ZERO_SE_ATOL`` when the standard error vanishes). Upper bounds
    require estimate <= target + z * std_err, lower bounds the mirror.
    """
    slack = z * std_err + (ZERO_SE_ATOL if std_err == 0.0 else 0.0)
    diff = estimate - target
    if kind is BoundKind.EXACT:
        return abs(diff) <= slack
    if kind is BoundKind.UPPER:
        return diff <= slack
    return diff >= -slack


def formula_target(spec: ExperimentSpec) -> tuple[float, BoundKind] | None:
    """The closed-form figure an experiment must meet, and its kind, where one is defined.

    Acceptance against honest Bob is 1 - completeness error for honest
    Alice and soundness for ignorant Alice. Retain-guess Bob's mean-fsq is
    concealment, and the abort rate a Hoeffding tail; the paper states both
    for honest Alice.
    """
    protocol, params, metric = spec.protocol, spec.params, spec.metric
    alice, bob = spec.alice.kind, spec.bob.kind
    d, n = params.d, params.n
    q = params.resolved_q(protocol)
    receiver = protocol in RECEIVER
    # The single-copy optimum 2/(d+1): skip Bob guesses without the protocol,
    # and honest Bob points a stealing Alice at the unknown state itself. Any
    # other Bob points her at a Haar substitute, independent of it.
    if (metric is Metric.MEAN_FSQ and bob is BobKind.SKIP_PROTOCOL_MEASURE) or (
        metric is Metric.ALICE_MEAN_FSQ and bob is BobKind.HONEST
    ):
        return mean_estimation_fsq(1, d), BoundKind.EXACT
    if metric is Metric.ACCEPTANCE and bob is BobKind.HONEST:
        if alice is AliceKind.IGNORANT:
            if protocol is Protocol.QUANTUM_A2B:
                return a2b_soundness(n, d), BoundKind.EXACT
            return (q / (n + 1) if receiver else q / d), BoundKind.EXACT
        # Honest Alice's acceptance in b2a-abort splits between reject and abort.
        if alice is not AliceKind.HONEST_KNOWING or protocol is Protocol.QUANTUM_B2A_ABORT:
            return None
        if protocol is Protocol.QUANTUM_B2A:
            return 1.0 - eps_c_b2a_exact(n, d, q), BoundKind.EXACT
        return 1.0 - params.eps_c_target, BoundKind.EXACT  # eps_c_target is 0 in a2b
    if alice is not AliceKind.HONEST_KNOWING:
        return None
    if metric is Metric.MEAN_FSQ and bob is BobKind.MEASURE_RETAIN_GUESS:
        if protocol is Protocol.QUANTUM_A2B:
            return mean_estimation_fsq(n + 1, d), BoundKind.EXACT
        if receiver:
            return 4.0 / (d + 1), BoundKind.UPPER
        return (1.0 - params.eps_c_target) ** 2 / q, BoundKind.LOWER
    # Honest Alice aborts when X >= q of the n decoys test positive, with
    # X ~ Binomial(n, 1/d): Hoeffding's tail at the margin q/n - 1/d.
    if metric is Metric.ABORT_RATE and n > 0:
        margin = q / n - 1.0 / d
        if margin > 0:
            return hoeffding_bound(n, margin), BoundKind.UPPER
    return None


# ---------------------------------------------------------------------------
# Sweeps and result rows


@dataclass(frozen=True)
class SweepRow:
    spec: ExperimentSpec  # the row's parameters and its own derived seed
    stats: TrialStats


# The ProtocolParams fields a sweep may vary, each with the type of its values.
SWEEP_AXES = {"d": int, "n": int, "q": int, "eps_c_target": float}


def sweep(base: ExperimentSpec, axis: str, values, jobs: int = 1) -> list[SweepRow]:
    """Rerun the experiment along one parameter axis, each row over ``jobs`` processes."""
    if axis not in SWEEP_AXES:
        raise ConfigurationError(
            f"unknown sweep axis {axis!r}; pick one of {tuple(SWEEP_AXES)}"
        )
    # Every row's spec is built, and so checked, before any row runs.
    specs = []
    for row_index, value in enumerate(values):
        params = replace(base.params, **{axis: value})
        row_seed = int(
            np.random.SeedSequence(base.master_seed, spawn_key=(10_000 + row_index,))
            .generate_state(1)[0]
        )
        specs.append(replace(base, params=params, master_seed=row_seed))
    return [SweepRow(spec, run_trials(spec, jobs)) for spec in specs]


def _spec_fields(spec: ExperimentSpec) -> dict:
    return {
        "protocol": spec.protocol.value,
        "alice": spec.alice.name,
        "bob": spec.bob.kind.value,
        "metric": spec.metric.value,
        "d": spec.params.d,
        "n": spec.params.n,
        "q": spec.params.resolved_q(spec.protocol),
        "eps_c_target": spec.params.eps_c_target,
        "n_trials": spec.n_trials,
        "seed": spec.master_seed,
    }


def result_row(spec: ExperimentSpec, stats: TrialStats) -> dict:
    """The experiment's settings, its estimate and its verdict against ``formula_target``."""
    target = formula_target(spec)
    row = _spec_fields(spec)
    row["estimate"] = stats.estimate
    row["std_err"] = stats.std_err
    if target is None:
        row.update({"target": None, "target_kind": None, "verdict": None})
    else:
        t_value, t_kind = target
        passed = compare_to_formula(stats.estimate, stats.std_err, t_value, kind=t_kind)
        row.update({
            "target": t_value,
            "target_kind": t_kind.value,
            "verdict": "pass" if passed else "fail",
        })
    return row
