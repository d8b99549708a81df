"""Command-line front end: verify, simulate, sweep.

Flags and printing only: ``verify`` prints the rows of
``oracle.checks``, and ``simulate`` and ``sweep`` print
``harness.result_row`` rows. Exit codes: 0 success, 1 check failure,
2 usage error or unwritable output path. Outputs carry no timestamps or
hostnames, so identical invocations (same seed) reproduce identical
files byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import oracle
from .errors import ConfigurationError
from .harness import (
    SWEEP_AXES,
    TRIAL_AMPLITUDE_CAP,
    ExperimentSpec,
    Metric,
    result_row,
    run_trial,
    run_trials,
    sweep,
)
from .protocols import Protocol, ProtocolParams
from .strategies import AliceStrategy, BobStrategy


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    # Every sample-mean check needs a standard error, and every oracle d >= 2.
    # The cap bounds the time of the Haar moment check, which draws a state per trial.
    if not 2 <= args.trials <= TRIAL_AMPLITUDE_CAP:
        raise ConfigurationError(f"--trials must lie in [2, {TRIAL_AMPLITUDE_CAP}], got {args.trials}")
    if args.max_dim < 2:
        raise ConfigurationError(f"--max-dim must be at least 2, got {args.max_dim}")
    if args.seed < 0:
        raise ConfigurationError(f"--seed must be nonnegative, got {args.seed}")
    checks = oracle.checks(args.max_dim, args.trials, args.seed)
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
