"""CLI contract: exit codes, reproducible outputs, config handling."""

import dataclasses
import hashlib
import json
import os

import pytest

import qwitness.cli
from qwitness.cli import build_parser, main
from qwitness.harness import SWEEP_AXES
from qwitness.protocols import ProtocolParams


def run_cli(args):
    return main(args)


def exit_code(args):
    """The CLI's exit code, whether it returns it or argparse exits with it."""
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


def test_verify_passes(capsys):
    code = run_cli(["verify", "--max-dim", "3", "--trials", "4000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert "checks passed" in out
    # Every printed byte, at the default seed 2024.
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4589a8c51518643f69534d6be5c971f373c65fe278fb641ba05db41d5813243a"
    )


def test_verify_fault_injection_fails(capsys, monkeypatch):
    true_dim = qwitness.cli.sym_dim
    monkeypatch.setattr(qwitness.cli, "sym_dim", lambda n, d: true_dim(n, d) + 1)
    code = run_cli(["verify", "--max-dim", "3", "--trials", "2000"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("flags", [["--trials", "0"], ["--trials", "1"], ["--max-dim", "1"]])
def test_verify_degenerate_values_exit_2(flags, capsys):
    code = run_cli(["verify", "--max-dim", "2", "--trials", "2000"] + flags)
    captured = capsys.readouterr()
    assert code == 2
    assert flags[0] in captured.err
    assert "checks passed" not in captured.out


def test_verify_grid_stops_at_the_cap():
    # No d above the cap has a power d^n <= cap, so a huge --max-dim adds nothing.
    assert list(qwitness.cli._grid(10**12, 256)) == list(qwitness.cli._grid(256, 256))


def test_verify_runs_each_born_dimension_once(capsys):
    assert run_cli(["verify", "--max-dim", "2", "--trials", "2000"]) == 0
    assert capsys.readouterr().out.count("born frequency d=2") == 1


def test_simulate_missing_dimension_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate", "--protocol", "b2a", "--alice", "ignorant"])
    assert exc.value.code == 2


def test_simulate_invalid_params_exit_2(capsys):
    code = run_cli([
        "simulate", "--protocol", "b2a", "--d", "2", "--n", "3", "--q", "9",
        "--alice", "ignorant", "--trials", "5",
    ])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_simulate_reproducible_csv(tmp_path):
    args = [
        "simulate", "--protocol", "b2a", "--d", "2", "--n", "9", "--q", "2",
        "--alice", "ignorant", "--trials", "2000", "--seed", "7",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    line = out1.read_text().strip().split("\n")[1]
    assert line.startswith("b2a,ignorant,honest,acceptance,2,9,2")


@pytest.mark.parametrize("command", [["simulate"], ["sweep", "--axis", "n", "--values", "1"]])
def test_jobs_outside_cpu_range_exit_2(command, capsys):
    code = run_cli(command + [
        "--protocol", "a2b", "--d", "2", "--alice", "ignorant", "--trials", "5",
        "--jobs", "0",
    ])
    assert code == 2
    assert "jobs" in capsys.readouterr().err


def test_simulate_prints_target_comparison(tmp_path, capsys):
    code = run_cli([
        "simulate", "--protocol", "a2b", "--d", "2", "--n", "1",
        "--alice", "ignorant", "--trials", "3000", "--seed", "5",
        "--out", str(tmp_path / "o.csv"),
    ])
    assert code == 0
    err = capsys.readouterr().err
    assert "target 0.75" in err


def test_simulate_transcript_export(tmp_path):
    path = tmp_path / "events.jsonl"
    code = run_cli([
        "simulate", "--protocol", "classical1", "--d", "2",
        "--alice", "honest", "--trials", "5", "--seed", "1",
        "--out", str(tmp_path / "o.csv"),
        "--transcripts", str(path), "--transcript-limit", "3",
    ])
    assert code == 0
    lines = path.read_text().strip().split("\n")
    records = [json.loads(line) for line in lines]
    assert {r["trial"] for r in records} == {0, 1, 2}
    for r in records:
        assert set(r) == {"time", "agent", "position", "kind", "payload_digest", "trial"}


# sha256 of the --transcripts file, pinned before the export stopped parsing
# each line back: the benchmark's CLI run, and an honest b2a run.
TRANSCRIPT_PINS = [
    (["--protocol", "classical2", "--d", "4", "--q", "2", "--alice", "ignorant",
      "--trials", "600", "--transcript-limit", "20"],
     240, "9c15e860f3a4e0315557075376500e1b6a128ddf265be0dd7a710b2263646dfa"),
    (["--protocol", "b2a", "--n", "4", "--d", "2", "--q", "2", "--alice", "honest",
      "--trials", "40", "--transcript-limit", "40"],
     480, "60b1e610a076d162d1f9631662dfbe7d5cf609d15fdab1a3111ccdca4b56b0cd"),
]


@pytest.mark.parametrize("flags,n_lines,digest", TRANSCRIPT_PINS)
def test_transcript_file_bytes_pinned(flags, n_lines, digest, tmp_path):
    path = tmp_path / "events.jsonl"
    code = run_cli(["simulate", *flags, "--out", str(tmp_path / "o.csv"), "--transcripts", str(path)])
    assert code == 0
    data = path.read_bytes()
    assert data.count(b"\n") == n_lines
    assert hashlib.sha256(data).hexdigest() == digest


def test_simulate_negative_transcript_limit_exit_2(tmp_path, capsys):
    path = tmp_path / "events.jsonl"
    code = run_cli([
        "simulate", "--protocol", "classical1", "--d", "2",
        "--alice", "honest", "--trials", "5", "--out", str(tmp_path / "o.csv"),
        "--transcripts", str(path), "--transcript-limit", "-3",
    ])
    assert code == 2
    assert "--transcript-limit" in capsys.readouterr().err
    assert not path.exists() and not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("flags", [
    ["--protocol", "a2b", "--d", "3", "--n", "2", "--q", "5"],
    ["--protocol", "classical1", "--d", "2", "--n", "7"],
    ["--protocol", "b2a", "--d", "2", "--n", "4", "--eps-c-target", "0.5"],
    ["--protocol", "classical1", "--d", "2", "--transcript-limit", "3"],
    ["--protocol", "classical1", "--d", "2", "--eps-c-target", "0.1"],
    ["--protocol", "b2a", "--d", "2", "--n", "4", "--abort-epsilon", "0.3"],
    ["--protocol", "b2a-abort", "--d", "2", "--n", "4", "--q", "2", "--abort-epsilon", "0.3"],
])
def test_ignored_flags_exit_2(flags, tmp_path, capsys):
    # The removed --abort-epsilon flag is an argparse usage error, exit 2 too.
    out = tmp_path / "o.csv"
    code = exit_code(["simulate", *flags, "--alice", "ignorant", "--trials", "5",
                    "--out", str(out)])
    assert code == 2
    assert "error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--cheat-epsilon", "--abort-epsilon"])
def test_removed_flag_is_usage_error(flag):
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate", "--protocol", "b2a-abort", "--d", "2", "--n", "4",
                 "--alice", "ignorant", flag, "0.1"])
    assert exc.value.code == 2


_B2A_RUN = ["--protocol", "b2a", "--d", "2", "--n", "4", "--trials", "5"]


@pytest.mark.parametrize("argv", [
    ["simulate", *_B2A_RUN, "--alice", "subspace-x"],
    ["sweep", *_B2A_RUN, "--alice", "subspace-x", "--axis", "n", "--values", "1"],
    ["sweep", *_B2A_RUN, "--alice", "ignorant", "--axis", "n", "--values", "1,x"],
    ["sweep", *_B2A_RUN, "--alice", "ignorant", "--axis", "n", "--values", ""],
    ["sweep", *_B2A_RUN, "--alice", "ignorant", "--axis", "abort_epsilon", "--values", "0.1,0.2"],
])
def test_malformed_values_exit_2(argv, capsys):
    # abort_epsilon is no sweep axis: argparse rejects the choice, exit 2 too.
    assert exit_code(argv) == 2
    captured = capsys.readouterr()
    assert "error" in captured.err
    assert captured.out == ""


_SIMULATE = ["simulate", "--trials", "5"]


@pytest.mark.parametrize("flags", [
    [*_SIMULATE, "--protocol", "classical2", "--d", "3", "--q", "3", "--alice", "honest",
     "--eps-c-target", "0.1"],
    [*_SIMULATE, "--protocol", "classical1", "--d", "3", "--alice", "subspace-5"],
    [*_SIMULATE, "--protocol", "classical1", "--d", "3", "--alice", "always-abort"],
    [*_SIMULATE, "--protocol", "a2b", "--d", "2", "--n", "2", "--alice", "steal"],
    [*_SIMULATE, "--protocol", "b2a", "--d", "2", "--n", "4", "--alice", "always-abort"],
    [*_SIMULATE, "--protocol", "b2a", "--d", "2", "--n", "4", "--alice", "ignorant",
     "--metric", "mean-fsq"],
    [*_SIMULATE, "--protocol", "classical1", "--d", "3", "--alice", "honest",
     "--metric", "alice-mean-fsq"],
    [*_SIMULATE, "--protocol", "classical1", "--d", "3", "--alice", "honest",
     "--metric", "abort-rate"],
    [*_SIMULATE, "--protocol", "b2a", "--d", "2", "--n", "4", "--alice", "random-distinct"],
    [*_SIMULATE, "--protocol", "b2a", "--d", "2", "--n", "4", "--alice", "honest",
     "--bob", "substitute"],
    [*_SIMULATE, "--protocol", "b2a-abort", "--d", "2", "--n", "4", "--alice", "honest",
     "--bob", "substitute"],
    [*_SIMULATE, "--protocol", "classical1", "--d", "3", "--alice", "honest", "--seed", "-1"],
    ["sweep", "--protocol", "classical1", "--d", "3", "--alice", "ignorant", "--trials", "5",
     "--seed", "-1", "--axis", "d", "--values", "2,3"],
    ["verify", "--max-dim", "2", "--trials", "2000", "--seed", "-1"],
])
def test_settings_no_trial_can_run_are_rejected_before_trial_0(flags, capsys):
    assert run_cli(flags) == 2
    err = capsys.readouterr().err
    assert "error" in err
    assert "trial 0" not in err


def _no_trials(*args, **kwargs):
    raise AssertionError("a trial ran before the output path was checked")


def _assert_unwritable_exits_2(argv, tmp_path, capsys):
    """A path in a missing directory, and a path naming a directory, each exit 2."""
    outdir = tmp_path / "outdir"
    outdir.mkdir()
    for path in (tmp_path / "missing" / "x.csv", outdir):
        code = run_cli([*argv, str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert captured.out == ""
        # Nothing was written: no file, no directory, nothing inside outdir.
        assert list(tmp_path.iterdir()) == [outdir]
        assert list(outdir.iterdir()) == []


@pytest.mark.parametrize("option", ["--out", "--transcripts"])
def test_unwritable_output_path_exits_2(option, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(qwitness.cli, "run_trials", _no_trials)
    argv = [
        "simulate", "--protocol", "classical1", "--d", "2", "--alice", "honest",
        "--trials", "5", option,
    ]
    _assert_unwritable_exits_2(argv, tmp_path, capsys)


def test_sweep_unwritable_output_path_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(qwitness.cli, "sweep", _no_trials)
    argv = [
        "sweep", "--protocol", "classical1", "--d", "2", "--alice", "honest",
        "--trials", "5", "--axis", "d", "--values", "2,3", "--out",
    ]
    _assert_unwritable_exits_2(argv, tmp_path, capsys)


@pytest.mark.parametrize("argv", [
    ["simulate", "--protocol", "classical1", "--d", "2", "--alice", "honest",
     "--trials", "5", "--out"],
    ["simulate", "--protocol", "classical1", "--d", "2", "--alice", "honest",
     "--trials", "5", "--transcripts"],
    ["sweep", "--protocol", "classical1", "--d", "2", "--alice", "honest",
     "--trials", "5", "--axis", "d", "--values", "2,3", "--out"],
])
def test_read_only_output_file_exits_2(argv, tmp_path, capsys, monkeypatch):
    # Root may write any file, so the permission is denied through os.access.
    monkeypatch.setattr(qwitness.cli, "run_trials", _no_trials)
    monkeypatch.setattr(qwitness.cli, "sweep", _no_trials)
    target = tmp_path / "kept.csv"
    target.write_text("old\n")
    real_access = os.access

    def access(path, mode):
        if os.fspath(path) == str(target) and mode & os.W_OK:
            return False
        return real_access(path, mode)

    monkeypatch.setattr(os, "access", access)
    code = run_cli([*argv, str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and "not writable" in captured.err
    assert captured.out == ""
    assert target.read_text() == "old\n"


@pytest.mark.parametrize("paths", [
    ["--transcripts", "-"],
    ["--out", "sub/../run.csv", "--transcripts", "run.csv"],
])
def test_transcripts_go_to_a_file_of_their_own(paths, tmp_path, capsys, monkeypatch):
    # "-" would be written as a file named "-", and the CSV would be
    # overwritten by the JSONL: each exits 2 before trial 0 and writes nothing.
    monkeypatch.setattr(qwitness.cli, "run_trials", _no_trials)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    code = run_cli([
        "simulate", "--protocol", "classical1", "--d", "2", "--alice", "honest",
        "--trials", "5", *paths,
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and "--transcripts" in captured.err
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["sub"]


@pytest.mark.parametrize("argv", [
    ["simulate", "--protocol", "classical1", "--d", "2", "--alice", "honest",
     "--trials", "5", "--out"],
    ["simulate", "--protocol", "classical1", "--d", "2", "--alice", "honest",
     "--trials", "5", "--transcripts"],
    ["sweep", "--protocol", "classical1", "--d", "2", "--alice", "honest",
     "--trials", "5", "--axis", "d", "--values", "2,3", "--out"],
])
def test_empty_output_path_exits_2(argv, capsys, monkeypatch):
    # An empty path names no file: --transcripts would be skipped and --out
    # would fail only after every trial had run.
    monkeypatch.setattr(qwitness.cli, "run_trials", _no_trials)
    monkeypatch.setattr(qwitness.cli, "sweep", _no_trials)
    code = run_cli([*argv, ""])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and "empty" in captured.err
    assert captured.out == ""


def test_bob_guesses_after_an_abort(capsys):
    # Honest Alice aborts in some trials; retain-guess Bob guesses in every one.
    code = run_cli([
        "simulate", "--protocol", "b2a-abort", "--d", "2", "--n", "20", "--alice", "honest",
        "--bob", "retain-guess", "--metric", "mean-fsq", "--trials", "2000", "--seed", "1",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines()[1].endswith(",upper,pass")
    assert captured.err.rstrip().endswith(": pass")


# Each flag on each protocol either changes the run or is rejected: (protocol,
# Alice, flag, two values). Rows that change the run differ in the estimate or
# in the exported transcripts; the CSV itself echoes eps_c_target, so it is
# not compared whole. The --abort-epsilon flag is gone, so its rows are
# rejected on every protocol.
_BASE = {
    "classical1": ["--d", "3"],
    "classical2": ["--d", "4", "--q", "2"],
    "a2b": ["--d", "2", "--n", "2"],
    "b2a": ["--d", "2", "--n", "4"],
    "b2a-abort": ["--d", "2", "--n", "10"],
}
_FLAG_ROWS = [
    ("classical1", "honest", "--n", "1", "2"),
    ("classical1", "ignorant", "--q", "2", "3"),
    ("classical1", "honest", "--eps-c-target", "0.1", "0.4"),
    ("classical1", "ignorant", "--eps-c-target", "0.1", "0.4"),
    ("classical1", "honest", "--abort-epsilon", "0.1", "0.4"),
    ("classical2", "honest", "--n", "1", "2"),
    ("classical2", "ignorant", "--q", "1", "3"),
    ("classical2", "honest", "--eps-c-target", "0.1", "0.4"),
    ("classical2", "subspace-2", "--eps-c-target", "0.1", "0.4"),
    ("classical2", "honest", "--abort-epsilon", "0.1", "0.4"),
    ("a2b", "ignorant", "--n", "1", "4"),
    ("a2b", "ignorant", "--q", "1", "2"),
    ("a2b", "honest", "--eps-c-target", "0.1", "0.4"),
    ("a2b", "ignorant", "--abort-epsilon", "0.1", "0.4"),
    ("b2a", "ignorant", "--n", "2", "6"),
    ("b2a", "ignorant", "--q", "1", "3"),
    ("b2a", "honest", "--eps-c-target", "0.1", "0.4"),
    ("b2a", "honest", "--abort-epsilon", "0.1", "0.4"),
    ("b2a-abort", "honest", "--n", "4", "10"),
    ("b2a-abort", "honest", "--q", "3", "6"),
    ("b2a-abort", "honest", "--eps-c-target", "0.1", "0.4"),
    ("b2a-abort", "honest", "--abort-epsilon", "0.1", "0.4"),
]


@pytest.mark.parametrize("protocol, alice, flag, first, second", _FLAG_ROWS)
def test_no_flag_is_silently_ignored(protocol, alice, flag, first, second, tmp_path, capsys):
    results = []
    for value in (first, second):
        out, transcripts = tmp_path / f"{value}.csv", tmp_path / f"{value}.jsonl"
        # The removed --abort-epsilon flag is rejected by argparse itself.
        code = exit_code([
            "simulate", "--protocol", protocol, *_BASE[protocol], "--alice", alice,
            flag, value, "--trials", "100", "--seed", "3",
            "--out", str(out), "--transcripts", str(transcripts),
        ])
        capsys.readouterr()
        if code == 2:
            results.append(None)
            continue
        assert code == 0
        estimate = out.read_text().splitlines()[1].split(",")[10]
        results.append((estimate, transcripts.read_bytes()))
    if None in results:
        assert results == [None, None], f"{flag} {first} and {second} must both be rejected"
    else:
        (est1, tr1), (est2, tr2) = results
        assert est1 != est2 or tr1 != tr2


def test_every_setting_has_one_sweep_axis_and_one_flag():
    fields = [field.name for field in dataclasses.fields(ProtocolParams)]
    assert list(SWEEP_AXES) == fields
    for name, parse in SWEEP_AXES.items():
        args = build_parser().parse_args(["simulate", f"--{name.replace('_', '-')}", "2"])
        assert getattr(args, name) == parse("2")


def test_sweep_single_value(tmp_path, capsys):
    code = run_cli([
        "sweep", "--protocol", "a2b", "--d", "2", "--alice", "ignorant",
        "--trials", "2000", "--seed", "5", "--axis", "n", "--values", "1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert len(lines) == 2  # header plus one row
    assert ",0.75," in lines[1]


def test_sweep_monotone_soundness(capsys):
    code = run_cli([
        "sweep", "--protocol", "a2b", "--d", "2", "--alice", "ignorant",
        "--trials", "3000", "--seed", "5", "--axis", "n", "--values", "1,2,4",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")[1:]
    estimates = [float(line.split(",")[10]) for line in lines]
    assert estimates == sorted(estimates, reverse=True)


def test_sweep_concealment_bound_rows_pass(capsys):
    code = run_cli([
        "sweep", "--protocol", "b2a", "--n", "4", "--q", "2", "--d", "2",
        "--alice", "honest", "--bob", "retain-guess", "--metric", "mean-fsq",
        "--trials", "2000", "--seed", "9", "--axis", "d", "--values", "2,4,8",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")[1:]
    for line in lines:
        fields = line.split(",")
        assert fields[13] == "upper"
        assert fields[14] == "pass"


def test_config_file_defaults_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("protocol=b2a\nd=2\nn=9\nq=2\nalice=ignorant\ntrials=500\nseed=3\n")
    code = run_cli(["simulate", "--config", str(cfg), "--trials", "250"])
    assert code == 0
    out = capsys.readouterr().out
    row = out.strip().split("\n")[1]
    fields = row.split(",")
    assert fields[0] == "b2a"
    assert fields[8] == "250"  # flag wins over the config value
    # The --flag=value forms count as given too.
    for args in (["--d=3", "--config", str(cfg)], [f"--config={cfg}", "--d=3"]):
        assert run_cli(["simulate", *args, "--trials=250"]) == 0
        fields = capsys.readouterr().out.strip().split("\n")[1].split(",")
        assert (fields[4], fields[8]) == ("3", "250")
    # argparse accepts unique prefixes, for --trials and for --config alike.
    cfg.write_text("protocol=classical1\nd=3\nalice=ignorant\ntrials=500\nseed=1\n")
    for args in (["--config", str(cfg), "--tri", "250"], ["--conf", str(cfg), "--trials=250"]):
        assert run_cli(["simulate", *args]) == 0
        fields = capsys.readouterr().out.strip().split("\n")[1].split(",")
        assert (fields[0], fields[8]) == ("classical1", "250")
    assert run_cli(["simulate", "--conf", str(cfg)]) == 0
    fields = capsys.readouterr().out.strip().split("\n")[1].split(",")
    assert (fields[0], fields[4], fields[8]) == ("classical1", "3", "500")


def test_config_file_entries_are_checked_like_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("protocol=b2a\nd=2\nalice=ignorant\ntrials=5\nbogus=1\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "--bogus" in capsys.readouterr().err
    cfg.write_text("protocol=b2a\nalice=ignorant\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "required: --d" in capsys.readouterr().err
    # A config file names no other config file, spelled in full or abbreviated.
    other = tmp_path / "other.cfg"
    other.write_text("d=5\n")
    for key in ("config", "conf"):
        cfg.write_text(f"{key}={other}\nprotocol=classical1\nalice=ignorant\nd=3\n")
        with pytest.raises(SystemExit) as exc:
            run_cli(["simulate", "--config", str(cfg), "--trials", "20"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "another config file" in captured.err
        assert captured.out == ""


def test_sweep_rows_reproduce_at_their_printed_seed(capsys):
    run = ["--protocol", "a2b", "--d", "2", "--alice", "ignorant", "--trials", "50"]
    assert run_cli(["sweep", *run, "--seed", "5", "--axis", "n", "--values", "1,2"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")[1:]
    assert len(lines) == 2
    for line in lines:
        fields = line.split(",")
        n, seed = fields[5], fields[9]
        assert seed != "5"  # each row runs at its own derived seed
        assert run_cli(["simulate", *run, "--n", n, "--seed", seed]) == 0
        assert capsys.readouterr().out.strip().split("\n")[1] == line


def test_a2b_rows_leave_q_empty(capsys):
    # a2b commits nothing, so its rows name no commitment-list length.
    run = ["--protocol", "a2b", "--d", "2", "--n", "2", "--alice", "ignorant", "--trials", "20"]
    assert run_cli(["simulate", *run]) == 0
    header, line = capsys.readouterr().out.strip().split("\n")
    assert dict(zip(header.split(","), line.split(",")))["q"] == ""
    assert run_cli(["simulate", *run, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)[0]["q"] is None
    assert run_cli(["simulate", *run, "--format", "jsonl"]) == 0
    assert json.loads(capsys.readouterr().out)["q"] is None


def test_subspace_alice_keeps_her_name_along_a_sweep(capsys):
    sweep = ["sweep", "--protocol", "classical1", "--d", "3", "--alice", "subspace-2",
             "--trials", "20", "--axis", "d", "--values", "2,3,4"]
    assert run_cli(sweep) == 0
    lines = capsys.readouterr().out.strip().split("\n")[1:]
    assert [line.split(",")[1] for line in lines] == ["subspace-2"] * 3


def test_sweep_jsonl_has_one_json_row_per_value(capsys):
    sweep = ["sweep", "--protocol", "a2b", "--d", "2", "--alice", "ignorant",
             "--trials", "50", "--seed", "5", "--axis", "n", "--values", "1,2"]
    assert run_cli(sweep + ["--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["n"] for row in rows] == [1, 2]
    assert run_cli(sweep + ["--format", "jsonl"]) == 0
    assert [json.loads(line) for line in capsys.readouterr().out.splitlines()] == rows
