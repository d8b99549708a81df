"""Command-line front end: verify, simulate, sweep.

Exit codes: 0 success, 1 check failure, 2 usage error or unwritable
output path. Outputs carry no timestamps or hostnames, so identical
invocations (same seed) reproduce identical files byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from itertools import combinations

import numpy as np

from .errors import ConfigurationError
from .estimation import covariant_estimate, mean_estimation_fsq
from .harness import (
    SWEEP_AXES,
    ExperimentSpec,
    Metric,
    result_row,
    run_trial,
    run_trials,
    sweep,
)
from .protocols import (
    Protocol,
    ProtocolParams,
    a2b_soundness,
    eps_c_b2a_exact,
)
from .qudit import (
    MAXIMALLY_MIXED,
    HermitianOperator,
    fidelity_sq,
    haar_random,
    measure_binary,
    sym_dim,
    sym_outcome_probability,
    sym_projector,
)
from .strategies import AliceStrategy, BobStrategy


# ---------------------------------------------------------------------------
# verify: brute-force oracles against closed forms


def _grid(max_dim: int, cap: int):
    # No d above cap has a power d^n <= cap with n >= 1.
    for d in range(2, min(max_dim, cap) + 1):
        n = 1
        while d**n <= cap:
            yield n, d
            n += 1


def _check_projector_traces(max_dim: int) -> list[tuple[str, bool, str]]:
    rows = []
    for n, d in _grid(max_dim, 256):
        proj = sym_projector(n, d).matrix
        trace = float(np.trace(proj).real)
        expected = sym_dim(n, d)
        idem = float(np.max(np.abs(proj @ proj - proj)))
        herm = float(np.max(np.abs(proj - proj.conj().T)))
        ok = abs(trace - expected) < 1e-8 and idem < 1e-10 and herm < 1e-10
        rows.append(
            (f"projector n={n} d={d}", ok, f"trace {trace:.6f} vs {expected}")
        )
    return rows


def _check_mixed_outcome(max_dim: int, rng) -> list[tuple[str, bool, str]]:
    rows = []
    for d in range(2, min(max_dim, 6) + 1):
        phi = haar_random(d, rng)
        got = sym_outcome_probability([phi, MAXIMALLY_MIXED], d)
        expected = sym_dim(2, d) / (sym_dim(1, d) * d)
        rows.append(
            (f"pure+mixed d={d}", abs(got - expected) < 1e-10,
             f"{got:.12f} vs {expected:.12f}")
        )
    for n_copies, d in [(1, 2), (2, 2), (1, 3), (3, 2)]:
        if d ** (n_copies + 1) > 256 or d > max_dim:
            continue
        phi = haar_random(d, rng)
        got = sym_outcome_probability([phi] * n_copies + [MAXIMALLY_MIXED], d)
        expected = sym_dim(n_copies + 1, d) / (sym_dim(n_copies, d) * d)
        rows.append(
            (f"copies+mixed n={n_copies} d={d}", abs(got - expected) < 1e-10,
             f"{got:.12f} vs {expected:.12f}")
        )
    return rows


def _check_blind_acceptance_form(max_dim: int) -> list[tuple[str, bool, str]]:
    worst = 0.0
    for n in range(0, 51):
        for d in range(2, min(max_dim, 50) + 1):
            lhs = sym_dim(n + 1, d) / (sym_dim(n, d) * d)
            rhs = a2b_soundness(n, d)
            worst = max(worst, abs(lhs - rhs))
    return [("blind-acceptance closed form", worst < 1e-12, f"max |diff| {worst:.2e}")]


def _reject_probability_enumerated(n: int, d: int, q: int) -> float:
    """Independent oracle: exact detection pmf plus explicit sublist enumeration."""
    p = 1.0 / d
    total = 0.0
    for x in range(n + 1):
        pmf = math.comb(n, x) * p**x * (1 - p) ** (n - x)
        detected = x + 1  # the unknown system always tests positive
        if detected <= q:
            continue
        subsets = list(combinations(range(detected), q))
        missing = sum(1 for s in subsets if 0 not in s)
        total += pmf * missing / len(subsets)
    return total


def _check_reject_probability(max_dim: int) -> list[tuple[str, bool, str]]:
    rows = []
    for n, d, q in [(1, 2, 1), (2, 2, 1), (4, 2, 2), (6, 3, 2), (9, 3, 4), (10, 4, 3)]:
        if d > max_dim:
            continue
        got = eps_c_b2a_exact(n, d, q)
        expected = _reject_probability_enumerated(n, d, q)
        rows.append(
            (f"reject-probability n={n} d={d} q={q}", abs(got - expected) < 1e-12,
             f"{got:.12f} vs {expected:.12f}")
        )
    return rows


def _check_haar_moments(max_dim: int, trials: int, rng) -> list[tuple[str, bool, str]]:
    rows = []
    for d in (2, 3):
        if d > max_dim:
            continue
        sq = np.empty(trials)
        for i in range(trials):
            amps = haar_random(d, rng).amplitudes
            sq[i] = abs(amps[0]) ** 2
        quartic = sq * sq
        for name, values, target in (
            ("|c0|^2", sq, 1.0 / d),
            ("|c0|^4", quartic, 2.0 / (d * (d + 1))),
        ):
            se = values.std(ddof=1) / math.sqrt(trials)
            ok = abs(values.mean() - target) <= 4.0 * se
            rows.append(
                (f"haar {name} d={d}", ok, f"{values.mean():.5f} vs {target:.5f}")
            )
    return rows


def _check_born_frequencies(max_dim: int, trials: int, rng) -> list[tuple[str, bool, str]]:
    rows = []
    for d in sorted({2, min(max_dim, 4)}):
        state = haar_random(d, rng)
        direction = haar_random(d, rng)
        projector = HermitianOperator.from_state(direction)
        prob = abs(np.vdot(direction.amplitudes, state.amplitudes)) ** 2
        hits = sum(measure_binary(state, projector, rng).index for _ in range(trials))
        p_hat = hits / trials
        se = math.sqrt(max(prob * (1 - prob), 1e-12) / trials)
        rows.append(
            (f"born frequency d={d}", abs(p_hat - prob) <= 4.0 * se,
             f"{p_hat:.4f} vs {prob:.4f}")
        )
    return rows


def _check_estimation_law(rng) -> list[tuple[str, bool, str]]:
    trials = 20_000
    m, d = 1, 2
    values = np.empty(trials)
    for i in range(trials):
        eta = haar_random(d, rng)
        values[i] = fidelity_sq(covariant_estimate(eta, m, rng), eta)
    target = mean_estimation_fsq(m, d)
    se = values.std(ddof=1) / math.sqrt(trials)
    ok = abs(values.mean() - target) <= 4.0 * se
    return [(f"estimation law m={m} d={d}", ok, f"{values.mean():.4f} vs {target:.4f}")]


def cmd_verify(args) -> int:
    # Every sample-mean check needs a standard error, and every oracle d >= 2.
    if args.trials < 2:
        raise ConfigurationError(f"--trials must be at least 2, got {args.trials}")
    if args.max_dim < 2:
        raise ConfigurationError(f"--max-dim must be at least 2, got {args.max_dim}")
    if args.seed < 0:
        raise ConfigurationError(f"--seed must be nonnegative, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    checks: list[tuple[str, bool, str]] = []
    checks += _check_projector_traces(args.max_dim)
    checks += _check_mixed_outcome(args.max_dim, rng)
    checks += _check_blind_acceptance_form(args.max_dim)
    checks += _check_reject_probability(args.max_dim)
    checks += _check_haar_moments(args.max_dim, args.trials, rng)
    checks += _check_born_frequencies(args.max_dim, max(args.trials // 10, 1000), rng)
    checks += _check_estimation_law(rng)
    width = max(len(name) for name, _, _ in checks)
    failures = 0
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        failures += 0 if ok else 1
        print(f"{status}  {name:<{width}}  {detail}")
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# simulate / sweep


def _build_spec(args) -> ExperimentSpec:
    params = ProtocolParams(d=args.d, n=args.n, q=args.q, eps_c_target=args.eps_c_target)
    return ExperimentSpec(
        protocol=Protocol(args.protocol),
        params=params,
        alice=AliceStrategy.from_name(args.alice),
        bob=BobStrategy.from_name(args.bob),
        metric=Metric(args.metric),
        n_trials=args.trials,
        master_seed=args.seed,
    )


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def rows_to_csv(rows: list[dict]) -> str:
    """``result_row`` rows as CSV, one column per key in the order the rows give."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _fmt(v) for k, v in row.items()})
    return buf.getvalue()


def _format_rows(rows: list[dict], fmt: str) -> str:
    if fmt == "csv":
        return rows_to_csv(rows)
    if fmt == "json":
        return json.dumps(rows, indent=2, sort_keys=True) + "\n"
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)


def _check_writable(path: str | None) -> None:
    """Fail before any trial runs if ``path`` is a directory, an existing file
    without write permission, or lies in no writable directory.

    None and "-" mean stdout; an empty path names no file. Creates nothing,
    so a run stopped by a later usage error leaves no file behind.
    """
    if path is None or path == "-":
        return
    if not path:
        raise ConfigurationError("an output path must not be empty")
    if os.path.isdir(path):
        raise ConfigurationError(f"cannot write {path}: it is a directory")
    if os.path.exists(path) and not os.access(path, os.W_OK):
        raise ConfigurationError(f"cannot write {path}: the file is not writable")
    parent = os.path.dirname(path) or "."
    if not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
        raise ConfigurationError(f"cannot write {path}: {parent} is not a writable directory")


def _write_output(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def cmd_simulate(args) -> int:
    if args.transcript_limit is not None and args.transcripts is None:
        raise ConfigurationError("--transcript-limit needs --transcripts")
    limit = 10 if args.transcript_limit is None else args.transcript_limit
    if limit < 0:
        raise ConfigurationError(f"--transcript-limit must be nonnegative, got {limit}")
    spec = _build_spec(args)
    # The event logs always go to a file of their own, never to stdout.
    if args.transcripts == "-":
        raise ConfigurationError("--transcripts needs a file path, not stdout")
    _check_writable(args.out)
    _check_writable(args.transcripts)
    if args.transcripts is not None and args.out not in (None, "-") and (
        os.path.realpath(args.out) == os.path.realpath(args.transcripts)
    ):
        raise ConfigurationError(f"--out and --transcripts both name {args.transcripts}")
    stats = run_trials(spec, jobs=args.jobs)
    row = result_row(spec, stats)
    _write_output(args.out, _format_rows([row], args.format))
    if args.transcripts:
        # Exported trials run again here, so --jobs workers ship back only stats.
        with open(args.transcripts, "w") as fh:
            for i in range(min(spec.n_trials, limit)):
                fh.write(run_trial(spec, i).transcript.to_jsonl(trial=i))
    if row["target"] is not None:
        print(
            f"estimate {row['estimate']:.6g} +- {row['std_err']:.2g} "
            f"vs target {row['target']:.6g} ({row['target_kind']}): {row['verdict']}",
            file=sys.stderr,
        )
    return 0


def cmd_sweep(args) -> int:
    spec = _build_spec(args)
    parse = SWEEP_AXES[args.axis]
    values = []
    for chunk in args.values.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            values.append(parse(chunk))
        except ValueError:
            raise ConfigurationError(f"--values: {chunk!r} is not a valid {args.axis}") from None
    if not values:
        raise ConfigurationError("--values names no value to sweep")
    _check_writable(args.out)
    rows = sweep(spec, args.axis, values, jobs=args.jobs)
    table = [result_row(row.spec, row.stats) for row in rows]
    _write_output(args.out, _format_rows(table, args.format))
    return 0


# ---------------------------------------------------------------------------
# parser


def _load_config_defaults(path: str) -> dict[str, str]:
    defaults = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigurationError(f"bad config line {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            # Entries become flags, which argparse matches by prefix too.
            if key and "config".startswith(key.replace("_", "-")):
                raise ConfigurationError(f"entry {key!r} would name another config file")
            defaults[key] = value
    return defaults


# Options of simulate and sweep that the command line or the config file must give.
_REQUIRED_RUN_OPTIONS = ("protocol", "d", "alice")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwitness",
        description="Simulate and verify knowledge-evidencing protocols",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the brute-force oracle suite")
    p_verify.add_argument("--max-dim", type=int, default=6)
    p_verify.add_argument("--trials", type=int, default=100_000)
    p_verify.add_argument("--seed", type=int, default=2024)
    p_verify.set_defaults(func=cmd_verify)

    def add_run_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None, help="key=value defaults file")
        p.add_argument("--protocol", choices=[proto.value for proto in Protocol],
                       help="required, here or in the config file")
        p.add_argument("--d", type=int, help="required, here or in the config file")
        p.add_argument("--n", type=int, default=0)
        p.add_argument("--q", type=int, default=None)
        p.add_argument("--eps-c-target", type=float, default=0.0)
        p.add_argument("--alice", help="required, here or in the config file")
        p.add_argument("--bob", default="honest")
        p.add_argument("--metric", default="acceptance",
                       choices=[m.value for m in Metric])
        p.add_argument("--trials", type=int, default=10_000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", default="csv", choices=["csv", "json", "jsonl"])

    p_sim = sub.add_parser("simulate", help="run one experiment")
    add_run_options(p_sim)
    p_sim.add_argument("--transcripts", default=None,
                       help="also write per-trial event logs (JSONL)")
    p_sim.add_argument("--transcript-limit", type=int, default=None,
                       help="trials whose event logs --transcripts writes (default 10)")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="rerun along one parameter axis")
    add_run_options(p_sweep)
    p_sweep.add_argument("--axis", required=True, choices=list(SWEEP_AXES))
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def _parse_args(argv: list[str], parser: argparse.ArgumentParser) -> argparse.Namespace:
    """Parse ``argv``, taking ``--config`` file entries as defaults; flags win.

    argparse itself decides which flags were given, abbreviated and
    ``--flag=value`` forms included: the file's entries are inserted as
    flags ahead of the command line's own, and for each option the last
    value given wins.
    """
    args = parser.parse_args(argv)
    if getattr(args, "config", None) is not None:
        try:
            defaults = _load_config_defaults(args.config)
        except (OSError, ConfigurationError) as e:
            parser.error(f"cannot read config: {e}")
        entries = [f"--{key.replace('_', '-')}={value}" for key, value in defaults.items()]
        at = argv.index(args.command) + 1
        args = parser.parse_args(argv[:at] + entries + argv[at:])
    missing = [f"--{name}" for name in _REQUIRED_RUN_OPTIONS if getattr(args, name, "") is None]
    if missing:
        parser.error(f"the following arguments are required: {', '.join(missing)}")
    return args


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = _parse_args(argv, parser)
    try:
        return args.func(args)
    except (ConfigurationError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
