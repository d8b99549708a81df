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
import operator
import os
from array import array
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError
from .protocols import (
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
        classical = protocol in (Protocol.CLASSICAL1, Protocol.CLASSICAL2)
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
        # A trial's largest arrays: the classical d x d basis, the receiver
        # protocols' n + 1 systems, and in a2b subspace Alice's d x k basis.
        if classical:
            amplitudes = params.d * params.d
        elif protocol is Protocol.QUANTUM_A2B:
            amplitudes = params.d * (k or 1)
        else:
            amplitudes = (params.n + 1) * params.d
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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), which
# trial_rng repeats word for word: a 4-word pool, 32-bit arithmetic.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# Trials whose seed words are hashed together and cached as one entry:
# 16 entries of 256 x 4 uint64 words hold at most 128 KiB.
_SEED_CHUNK = 256


def _words32(n: int) -> list[int]:
    """The 32-bit words of a nonnegative int, least significant first, as SeedSequence splits it."""
    n = operator.index(n)
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _seed_sequence_state(entropy: list) -> list:
    """SeedSequence's ``mix_entropy`` over ``entropy``, then ``generate_state(8)``.

    Each word is an int or a uint32 array holding that word for many
    sequences at once; uint32 arrays wrap as the C code does, and ints
    are masked to 32 bits. The first ``_POOL_SIZE`` words must be ints.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        result = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    state = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ (value >> 16))
    return state


@lru_cache(maxsize=16)
def _chunk_seed_words(master_seed: int, chunk: int) -> np.ndarray:
    """``SeedSequence(master_seed, spawn_key=(i,)).generate_state(4, np.uint64)`` for every
    trial i of one aligned chunk, as a read-only (``_SEED_CHUNK``, 4) array.
    """
    # The spawn key follows the master's words, padded to the pool size.
    entropy = _words32(master_seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    # An aligned chunk never straddles a multiple of 2**32, so its indices
    # share every word but the lowest, and the lowest never carries.
    first = chunk * _SEED_CHUNK
    low, *high = _words32(first)
    entropy.append(np.arange(low, low + _SEED_CHUNK, dtype=np.uint32))
    entropy += high
    state = np.array(_seed_sequence_state(entropy), dtype=np.uint64)
    # Consecutive 32-bit words make one uint64, low word first.
    seeds = np.ascontiguousarray((state[0::2] | (state[1::2] << 32)).T)
    seeds.flags.writeable = False
    return seeds


@lru_cache(maxsize=1)
def _seed_words_type() -> type:
    """An ISeedSequence that hands PCG64 the seed words a SeedSequence would generate.

    Defined on first use, so ``numpy.random`` is still imported by the
    first trial: importing it with this module raised the benchmark's
    peak RSS by about 0.5 MB.
    """

    class SeedWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 asks for exactly generate_state(4, np.uint64).
            return self.words

    return SeedWords


def trial_rng(master_seed: int, index: int) -> np.random.Generator:
    """Deterministic per-trial generator, stable under partitioning.

    Its state equals that of
    ``np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(index,)))``:
    the seed words come from the same hash, cached a chunk of trials at a
    time, and PCG64 seeds itself from them.
    """
    if master_seed < 0 or index < 0:
        raise ValueError(f"expected nonnegative seed and index, got {master_seed}, {index}")
    chunk, offset = divmod(index, _SEED_CHUNK)
    words = _chunk_seed_words(master_seed, chunk)[offset]
    return np.random.Generator(np.random.PCG64(_seed_words_type()(words)))


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
) -> ComparisonReport:
    """Compare an estimate with a closed-form target.

    Exact targets are two-sided: |estimate - target| <= z * std_err
    (plus ``ZERO_SE_ATOL`` when the standard error vanishes). Upper bounds
    require estimate <= target + z * std_err, lower bounds the mirror.
    """
    estimate, se = stats.estimate, stats.std_err
    slack = z * se + (ZERO_SE_ATOL if se == 0.0 else 0.0)
    diff = estimate - target
    if kind is BoundKind.EXACT:
        passed = abs(diff) <= slack
    elif kind is BoundKind.UPPER:
        passed = diff <= slack
    else:
        passed = diff >= -slack
    return ComparisonReport(passed, estimate, target, diff, se, z, kind)


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
    receiver = protocol in (Protocol.QUANTUM_B2A, Protocol.QUANTUM_B2A_ABORT)
    # The single-copy optimum 2/(d+1): skip Bob guesses without the protocol,
    # and honest Bob points a stealing Alice at the unknown state itself. Any
    # other Bob points her at a Haar substitute, independent of it.
    if (metric is Metric.MEAN_FSQ and bob is BobKind.SKIP_PROTOCOL_MEASURE) or (
        metric is Metric.ALICE_MEAN_FSQ and bob is BobKind.HONEST
    ):
        return 2.0 / (d + 1), BoundKind.EXACT
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
            return (n + 2) / (n + 1 + d), BoundKind.EXACT
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
        report = compare_to_formula(stats, t_value, kind=t_kind)
        row.update({
            "target": t_value,
            "target_kind": t_kind.value,
            "verdict": "pass" if report.passed else "fail",
        })
    return row
