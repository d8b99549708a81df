"""CLI contract: exit codes, reproducible outputs, config handling."""

import json

import pytest

from qwitness.cli import main


def run_cli(args):
    return main(args)


def test_verify_passes(capsys):
    code = run_cli(["verify", "--max-dim", "3", "--trials", "4000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert "checks passed" in out


def test_verify_fault_injection_fails(capsys):
    code = run_cli(["verify", "--max-dim", "3", "--trials", "2000", "--inject-fault"])
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
    out = tmp_path / "o.csv"
    code = run_cli(["simulate", *flags, "--alice", "ignorant", "--trials", "5",
                    "--out", str(out)])
    assert code == 2
    assert "error" in capsys.readouterr().err
    assert not out.exists()


def test_removed_cheat_epsilon_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate", "--protocol", "b2a", "--d", "2", "--n", "4",
                 "--alice", "ignorant", "--cheat-epsilon", "0.1"])
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
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert "error" in captured.err
    assert captured.out == ""


# Each flag on each protocol either changes the run or is rejected: (protocol,
# Alice, flag, two values). Rows that change the run differ in the estimate or
# in the exported transcripts; the CSV itself echoes eps_c_target, so it is
# not compared whole.
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
        code = run_cli([
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


def test_sweep_jsonl_has_one_json_row_per_value(capsys):
    sweep = ["sweep", "--protocol", "a2b", "--d", "2", "--alice", "ignorant",
             "--trials", "50", "--seed", "5", "--axis", "n", "--values", "1,2"]
    assert run_cli(sweep + ["--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["n"] for row in rows] == [1, 2]
    assert run_cli(sweep + ["--format", "jsonl"]) == 0
    assert [json.loads(line) for line in capsys.readouterr().out.splitlines()] == rows
