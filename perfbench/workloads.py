"""Workload definitions, the paper's figures and the benchmark's checks.

Nothing here imports ``qwitness``: every target is computed from the
paper's formulas with exact rational arithmetic where the figure is
rational, so a fault in ``qwitness.protocols.closed_forms`` cannot hide
a fault in the sampler. ``run.py`` (the parent process) uses this module
without paying for numpy or the package under test.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from fractions import Fraction

# Width of every statistical gate, in standard errors. At z = 5 a correct
# sampler fails one two-sided gate with probability ~6e-7, so even a few
# thousand runs of the benchmark fail none, while a target shifted by 10
# standard errors always fails.
Z = 5.0

# Fields documented for one exported transcript event, and the trial index
# the CLI adds to each line of a ``--transcripts`` file.
JSONL_FIELDS = frozenset({"time", "agent", "position", "kind", "payload_digest"})
CLI_JSONL_FIELDS = JSONL_FIELDS | {"trial"}

# Light-cone slack, matching the program's own validator tolerance.
TIME_TOL = 1e-9

BERNOULLI_METRICS = ("acceptance", "abort-rate")

# Worker processes for the fan-out check: nproc on the reference machine.
# Every workload runs its experiments with one process, because starting a
# process pool swings by +-50% on a shared 2-core machine; the fan-out runs
# after a round's clock stops and is timed in the traced run.
FANOUT_JOBS = 2


@dataclass(frozen=True)
class Figure:
    """A paper figure: its value, whether it is exact or a bound, and its formula."""

    value: float
    kind: str  # "exact", "upper" or "lower"
    label: str


@dataclass(frozen=True)
class Experiment:
    """One operation: a seeded Monte Carlo experiment and the figure it must meet."""

    name: str
    protocol: str
    d: int
    figure: Figure
    trials: int
    n: int = 0
    q: int | None = None
    eps_c: float = 0.0
    alice: str = "honest"
    bob: str = "honest"
    metric: str = "acceptance"
    # Also run with FANOUT_JOBS processes and require identical TrialStats.
    jobs_check: bool = False
    # Re-run this many single trials and check the honest-Bob and
    # transcript properties on each outcome.
    sample: int = 0


@dataclass(frozen=True)
class CliRun:
    """One operation: ``qwitness simulate --transcripts`` through ``cli.main``."""

    name: str
    protocol: str
    d: int
    q: int
    alice: str
    figure: Figure
    trials: int
    transcript_limit: int


@dataclass(frozen=True)
class Workload:
    name: str
    validate_transcripts: bool
    operations: tuple


# ---------------------------------------------------------------------------
# Paper figures, computed here and not through qwitness.protocols


def a2b_soundness(n: int, d: int) -> Figure:
    value = Fraction(1, n + 1) + Fraction(n, d * (n + 1))
    return Figure(float(value), "exact", "1/(n+1) + n/(d(n+1))")


def a2b_concealment(n: int, d: int) -> Figure:
    return Figure(float(Fraction(n + 2, n + 1 + d)), "exact", "(n+2)/(n+1+d)")


def b2a_soundness(n: int, q: int) -> Figure:
    return Figure(float(Fraction(q, n + 1)), "exact", "q/(n+1)")


def b2a_completeness_error(n: int, d: int, q: int) -> Fraction:
    """Honest rejection probability, enumerated over the decoy detection count.

    Bob's own system is always detected; each of the n Haar decoys is
    detected with probability 1/d. With x decoys detected Alice keeps a
    uniform q-subset of the x + 1 detections, which misses Bob's label
    with probability max(0, x + 1 - q)/(x + 1).
    """
    total = Fraction(0)
    for x in range(n + 1):
        pmf = Fraction(math.comb(n, x) * (d - 1) ** (n - x), d**n)
        total += pmf * Fraction(max(0, x + 1 - q), x + 1)
    return total


def b2a_completeness(n: int, d: int, q: int) -> Figure:
    value = 1 - b2a_completeness_error(n, d, q)
    return Figure(float(value), "exact", "1 - binomial completeness error")


def b2a_concealment(d: int) -> Figure:
    return Figure(float(Fraction(4, d + 1)), "upper", "<= 4/(d+1)")


def abort_rate_bound(n: int, d: int, q: int) -> Figure:
    eps = q / n - 1 / d
    return Figure(math.exp(-2 * eps * eps * n), "upper", "<= exp(-2 eps^2 n)")


def classical_soundness(d: int, q: int) -> Figure:
    return Figure(float(Fraction(q, d)), "exact", "q/d")


def classical_completeness(eps: float) -> Figure:
    return Figure(1.0 - eps, "exact", "1 - eps_c")


def classical_concealment(eps: float, q: int) -> Figure:
    return Figure((1.0 - eps) ** 2 / q, "lower", ">= (1-eps)^2/q")


def no_protocol_fsq(d: int, kind: str = "exact") -> Figure:
    label = "2/(d+1)" if kind == "exact" else ">= 2/(d+1)"
    return Figure(float(Fraction(2, d + 1)), kind, label)


# ---------------------------------------------------------------------------
# Workloads


def _receiver() -> Workload:
    ops = []
    for n, d, q, trials in [(4, 2, 2, 1000), (9, 3, 4, 500), (16, 2, 9, 500)]:
        ops.append(Experiment(
            f"b2a-completeness-n{n}-d{d}-q{q}", "b2a", d, b2a_completeness(n, d, q),
            trials, n=n, q=q,
        ))
    for n, q, trials in [(9, 2, 1000), (19, 4, 500)]:
        ops.append(Experiment(
            f"b2a-soundness-n{n}-q{q}", "b2a", 2, b2a_soundness(n, q),
            trials, n=n, q=q, alice="ignorant",
        ))
    # q = n/2 + eps n with eps = 0.1, the acceptance suite's abort setting.
    ops.append(Experiment(
        "b2a-abort-rate-n100", "b2a-abort", 2, abort_rate_bound(100, 2, 60),
        100, n=100, q=60, metric="abort-rate",
    ))
    return Workload("receiver", False, tuple(ops))


def _sender() -> Workload:
    ops = []
    for n, d, trials in [(1, 2, 1000), (2, 2, 1000), (7, 2, 100)]:
        ops.append(Experiment(
            f"a2b-soundness-n{n}-d{d}", "a2b", d, a2b_soundness(n, d),
            trials, n=n, alice="ignorant",
        ))
    for n, d, trials in [(2, 3, 1000), (4, 3, 100), (3, 4, 100)]:
        ops.append(Experiment(
            f"a2b-concealment-n{n}-d{d}", "a2b", d, a2b_concealment(n, d),
            trials, n=n, bob="retain-guess", metric="mean-fsq",
        ))
    return Workload("sender", False, tuple(ops))


def _audit() -> Workload:
    eps = 0.1
    fsq = "mean-fsq"
    ops = (
        Experiment("classical1-soundness-d3", "classical1", 3,
                   classical_soundness(3, 1), 600, alice="ignorant"),
        Experiment("classical2-soundness-d4-q2", "classical2", 4,
                   classical_soundness(4, 2), 600, q=2, alice="ignorant"),
        Experiment("classical1-completeness-d3", "classical1", 3,
                   classical_completeness(eps), 600, eps_c=eps),
        Experiment("classical2-completeness-d4-q2", "classical2", 4,
                   classical_completeness(eps), 600, q=2, eps_c=eps),
        Experiment("classical1-substitute-d3", "classical1", 3,
                   no_protocol_fsq(3, "lower"), 600, eps_c=eps,
                   bob="substitute", metric=fsq),
        Experiment("classical1-retain-guess-d2", "classical1", 2,
                   classical_concealment(eps, 1), 600, eps_c=eps,
                   bob="retain-guess", metric=fsq),
        Experiment("classical2-retain-guess-d4-q2", "classical2", 4,
                   classical_concealment(eps, 2), 600, q=2, eps_c=eps,
                   bob="retain-guess", metric=fsq),
        Experiment("classical2-skip-d4-q2", "classical2", 4,
                   no_protocol_fsq(4), 600, q=2, eps_c=eps, bob="skip", metric=fsq),
        Experiment("b2a-completeness-n4-d2-q2", "b2a", 2, b2a_completeness(4, 2, 2),
                   600, n=4, q=2, jobs_check=True, sample=40),
        Experiment("b2a-concealment-n4-d4-q2", "b2a", 4, b2a_concealment(4),
                   600, n=4, q=2, bob="retain-guess", metric=fsq),
        CliRun("cli-simulate-transcripts", "classical2", 4, 2, "ignorant",
               classical_soundness(4, 2), 600, 20),
    )
    return Workload("audit", True, ops)


WORKLOADS = {w.name: w for w in (_receiver(), _sender(), _audit())}


def scaled(op, scale: float):
    """The operation with its trial count scaled, for quick test runs."""
    return replace(op, trials=max(20, round(op.trials * scale)))


def master_seed(seed: int, workload: str, index: int) -> int:
    """Experiment seed derived from the run's ``--seed``; stable across rounds."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


# ---------------------------------------------------------------------------
# Checks. Each returns a list of failure messages; empty means it passed.


def std_err(stats: dict, figure: Figure) -> float:
    """Standard error of the estimate under the figure's null hypothesis.

    Bernoulli metrics use the variance at the target value, so a gate on a
    probability of 0 or 1 demands an exact count; fidelity metrics use the
    sample variance.
    """
    n = stats["n_trials"]
    if stats["metric"] in BERNOULLI_METRICS:
        t = min(max(figure.value, 0.0), 1.0)
        return math.sqrt(t * (1.0 - t) / n)
    if n < 2:
        return 0.0
    mean = stats["value_sum"] / n
    var = max(0.0, (stats["value_sumsq"] - n * mean * mean) / (n - 1))
    return math.sqrt(var / n)


def estimate(stats: dict) -> float:
    if stats["metric"] in BERNOULLI_METRICS:
        return stats["successes"] / stats["n_trials"]
    return stats["value_sum"] / stats["n_trials"]


def check_figure(stats: dict, figure: Figure, z: float = Z) -> list[str]:
    """Exact figures get a two-sided gate, bounds a one-sided one."""
    est, se = estimate(stats), std_err(stats, figure)
    slack = z * se + 1e-12
    diff = est - figure.value
    ok = {
        "exact": abs(diff) <= slack,
        "upper": diff <= slack,
        "lower": diff >= -slack,
    }[figure.kind]
    if ok:
        return []
    return [
        f"estimate {est:.6g} vs {figure.label} = {figure.value:.6g} "
        f"({figure.kind}, se {se:.3g}, z {z})"
    ]


def check_same_stats(name: str, got, reference) -> list[str]:
    """Two runs of one seeded experiment must give identical TrialStats."""
    if got == reference:
        return []
    return [f"{name}: {got} differs from {reference}"]


def lightcone_violations(events) -> list[str]:
    """Declared dependencies outside the past light cone (c = 1).

    Written against the event records directly, independently of
    ``qwitness.spacetime.validate_transcript``.
    """
    by_id = {e.event_id: e for e in events}
    found = []
    for e in events:
        for dep_id in e.depends_on:
            dep = by_id.get(dep_id)
            if dep is None:
                found.append(f"event {e.event_id} depends on unknown event {dep_id}")
            elif e.time - dep.time < abs(e.site.position - dep.site.position) - TIME_TOL:
                found.append(f"event {e.event_id} depends on event {dep_id} faster than light")
    return found


def check_jsonl_fields(lines: list[dict], fields: frozenset) -> list[str]:
    if not lines:
        return ["no transcript lines exported"]
    bad = [sorted(set(line) ^ fields) for line in lines if set(line) != fields]
    if bad:
        return [f"{len(bad)} of {len(lines)} lines with wrong fields, e.g. {bad[0]}"]
    return []
