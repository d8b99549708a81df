"""Command-line front end: verify, simulate, sweep.

Exit codes: 0 success, 1 check failure, 2 usage error. Outputs carry
no timestamps or hostnames, so identical invocations (same seed)
reproduce identical files byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import combinations

import numpy as np

from .errors import ConfigurationError
from .estimation import covariant_estimate, mean_estimation_fsq
from .harness import (
    ExperimentSpec,
    Metric,
    compare_to_formula,
    formula_target,
    result_row,
    rows_to_csv,
    rows_to_json,
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
    for d in range(2, max_dim + 1):
        n = 1
        while d**n <= cap:
            yield n, d
            n += 1


def _check_projector_traces(max_dim: int, dim_fn) -> list[tuple[str, bool, str]]:
    rows = []
    for n, d in _grid(max_dim, 256):
        proj = sym_projector(n, d).matrix
        trace = float(np.trace(proj).real)
        expected = dim_fn(n, d)
        idem = float(np.max(np.abs(proj @ proj - proj)))
        herm = float(np.max(np.abs(proj - proj.conj().T)))
        ok = abs(trace - expected) < 1e-8 and idem < 1e-10 and herm < 1e-10
        rows.append(
            (f"projector n={n} d={d}", ok, f"trace {trace:.6f} vs {expected}")
        )
    return rows


def _check_mixed_outcome(max_dim: int, dim_fn, rng) -> list[tuple[str, bool, str]]:
    rows = []
    for d in range(2, min(max_dim, 6) + 1):
        phi = haar_random(d, rng)
        got = sym_outcome_probability([phi, MAXIMALLY_MIXED], d)
        expected = dim_fn(2, d) / (dim_fn(1, d) * d)
        rows.append(
            (f"pure+mixed d={d}", abs(got - expected) < 1e-10,
             f"{got:.12f} vs {expected:.12f}")
        )
    for n_copies, d in [(1, 2), (2, 2), (1, 3), (3, 2)]:
        if d ** (n_copies + 1) > 256 or d > max_dim:
            continue
        phi = haar_random(d, rng)
        got = sym_outcome_probability([phi] * n_copies + [MAXIMALLY_MIXED], d)
        expected = dim_fn(n_copies + 1, d) / (dim_fn(n_copies, d) * d)
        rows.append(
            (f"copies+mixed n={n_copies} d={d}", abs(got - expected) < 1e-10,
             f"{got:.12f} vs {expected:.12f}")
        )
    return rows


def _check_blind_acceptance_form(max_dim: int, dim_fn) -> list[tuple[str, bool, str]]:
    worst = 0.0
    for n in range(0, 51):
        for d in range(2, min(max_dim, 50) + 1):
            lhs = dim_fn(n + 1, d) / (dim_fn(n, d) * d)
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
        values[i] = covariant_estimate(eta, m, rng).achieved_fsq
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
    rng = np.random.default_rng(args.seed)
    dim_fn = sym_dim
    if args.inject_fault:
        dim_fn = lambda n, d: sym_dim(n, d) + 1  # noqa: E731 - test hook
    checks: list[tuple[str, bool, str]] = []
    checks += _check_projector_traces(args.max_dim, dim_fn)
    checks += _check_mixed_outcome(args.max_dim, dim_fn, rng)
    checks += _check_blind_acceptance_form(args.max_dim, dim_fn)
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
    params = ProtocolParams(
        d=args.d,
        n=args.n,
        q=args.q,
        eps_c_target=args.eps_c_target,
        abort_epsilon=args.abort_epsilon,
    )
    return ExperimentSpec(
        protocol=Protocol(args.protocol),
        params=params,
        alice=AliceStrategy.from_name(args.alice),
        bob=BobStrategy.from_name(args.bob),
        metric=Metric(args.metric),
        n_trials=args.trials,
        master_seed=args.seed,
    )


def _format_rows(rows: list[dict], fmt: str) -> str:
    if fmt == "csv":
        return rows_to_csv(rows)
    if fmt == "json":
        return rows_to_json(rows)
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)


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
    stats = run_trials(spec, jobs=args.jobs)
    target = formula_target(spec)
    _write_output(args.out, _format_rows([result_row(spec, stats, target)], args.format))
    if args.transcripts:
        lines = []
        for i in range(min(spec.n_trials, limit)):
            outcome = run_trial(spec, i)
            for record in outcome.transcript.to_jsonl().splitlines():
                entry = json.loads(record)
                entry["trial"] = i
                lines.append(json.dumps(entry, sort_keys=True))
        with open(args.transcripts, "w") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
    if target is not None:
        t_value, t_kind = target
        report = compare_to_formula(stats, t_value, kind=t_kind)
        print(
            f"estimate {stats.estimate:.6g} +- {stats.std_err:.2g} "
            f"vs target {t_value:.6g} ({t_kind.value}): "
            f"{'pass' if report.passed else 'fail'}",
            file=sys.stderr,
        )
    return 0


def cmd_sweep(args) -> int:
    spec = _build_spec(args)
    parse = float if args.axis in ("eps_c_target", "abort_epsilon") else int
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
    rows = sweep(spec, args.axis, values, jobs=args.jobs)
    table = [result_row(row.spec, row.stats, formula_target(row.spec)) for row in rows]
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
            key, value = line.split("=", 1)
            defaults[key.strip()] = value.strip()
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
    p_verify.add_argument("--inject-fault", action="store_true",
                          help="test hook: perturb the symmetric dimension")
    p_verify.set_defaults(func=cmd_verify)

    def add_run_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None, help="key=value defaults file")
        p.add_argument("--protocol", choices=[proto.value for proto in Protocol],
                       help="required, here or in the config file")
        p.add_argument("--d", type=int, help="required, here or in the config file")
        p.add_argument("--n", type=int, default=0)
        p.add_argument("--q", type=int, default=None)
        p.add_argument("--eps-c-target", type=float, default=0.0)
        p.add_argument("--abort-epsilon", type=float, default=None,
                       help="b2a-abort without --q only (default 0.1)")
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
    p_sweep.add_argument("--axis", required=True,
                         choices=["d", "n", "q", "eps_c_target", "abort_epsilon"])
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
    except ConfigurationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
