"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main, run_experiment
from repro.experiments import ExperimentResult


def test_every_experiment_registered():
    expected = {f"table{i}" for i in range(1, 7)} | {
        f"figure{i}" for i in range(1, 7)
    } | {"availability", "pathdiag", "chaos", "prediction", "megascale",
         "storm"}
    assert set(EXPERIMENTS) == expected


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_run_availability(capsys):
    assert main(["run", "availability"]) == 0
    out = capsys.readouterr().out
    assert "683" in out
    assert "regenerated in" in out


def test_run_writes_output_file(tmp_path, capsys):
    assert main(["run", "availability", "--out-dir", str(tmp_path)]) == 0
    written = tmp_path / "availability.txt"
    assert written.exists()
    assert "six-nines" in written.read_text()


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_run_experiment_passes_seed_scale_and_jobs(monkeypatch, name):
    module, _description = EXPERIMENTS[name]
    result = ExperimentResult(name=name, paper_reference="-")
    calls = []

    def recorder(**kwargs):
        calls.append(kwargs)
        return result, {}

    monkeypatch.setattr(module, "run", recorder)
    for scale in ("quick", "bench", "full"):
        assert run_experiment(name, seed=3, scale=scale, jobs=2) is result
    assert calls == [
        {"seed": 3, "scale": scale, "jobs": 2}
        for scale in ("quick", "bench", "full")
    ]


def test_unknown_experiment_exits_nonzero_with_one_line_error(capsys):
    # Same error contract as the trace/paths subcommands: exit code 2 and a
    # single "error: ..." line on stderr, never a traceback or usage dump.
    # The message points at the scenario listing (`repro run --list`).
    assert main(["run", "nope"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: unknown experiment: nope (see 'repro run --list')\n"
    )
    assert captured.out == ""


def test_run_list_enumerates_scenarios(capsys):
    assert main(["run", "--list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_run_without_experiment_points_at_list(capsys):
    assert main(["run"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: missing experiment name (see 'repro run --list')\n"
    )
    assert captured.out == ""


def test_run_experiment_raises_on_unknown_name():
    with pytest.raises(ValueError, match="unknown experiment: 'nope'"):
        run_experiment("nope")


def test_parser_flags():
    args = build_parser().parse_args(
        ["run", "figure1", "--quick", "--seed", "9"]
    )
    assert args.scale == "quick" and args.seed == 9
    assert args.jobs == 1


def test_no_size_flag_selects_bench_and_full_selects_full():
    parse = build_parser().parse_args
    assert parse(["run", "figure1"]).scale == "bench"
    assert parse(["run", "figure1", "--full"]).scale == "full"


def test_quick_and_full_together_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "figure1", "--quick", "--full"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_parser_jobs_flag():
    args = build_parser().parse_args(["run", "table2", "--jobs", "4"])
    assert args.jobs == 4


def test_trace_forces_sequential_run(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    assert main(["run", "availability", "--jobs", "4",
                 "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "--trace forces --jobs 1" in out
    assert trace.exists()
