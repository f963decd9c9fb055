"""Tests for the CLI surface of tracing: run --trace and the trace command."""

import json
from types import SimpleNamespace

import pytest

from repro.cli import build_parser, main
from repro.telemetry import TraceBus, capture_to_jsonl, read_timeline


def make_timeline(path):
    with capture_to_jsonl(path):
        bus = TraceBus(label="run")
        bus.publish("request.end", operation="ViewItem", ok=True,
                    duration=0.3)
        bus.publish("rm.decision", level="ejb", target=("SB_ViewItem",))
        bus.publish("rm.action.end", level="ejb", ok=True, duration=0.6)
    return path


def test_trace_command_summarizes_timeline(tmp_path, capsys):
    path = make_timeline(tmp_path / "timeline.jsonl")
    assert main(["trace", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("3 events, t=0.000..0.000s\n")
    assert "events by kind:" in out
    assert "recovery timeline (2 events)" in out
    assert "slowest requests" in out


def test_trace_command_slowest_flag(tmp_path, capsys):
    path = tmp_path / "timeline.jsonl"
    with capture_to_jsonl(path):
        bus = TraceBus()
        for i in range(6):
            bus.publish("request.end", operation=f"Op{i}", ok=True,
                        duration=float(i))
    main(["trace", str(path), "--slowest", "2"])
    out = capsys.readouterr().out
    assert "Op5" in out and "Op4" in out
    assert "Op3" not in out


def test_trace_command_missing_file_is_a_clean_error(tmp_path, capsys):
    assert main(["trace", str(tmp_path / "nope.jsonl")]) == 2
    err = capsys.readouterr().err
    assert "no such trace file" in err


def test_trace_command_empty_file_is_a_clean_error(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert main(["trace", str(path)]) == 2
    assert "empty timeline" in capsys.readouterr().err


def test_trace_command_corrupt_file_is_a_clean_error(tmp_path, capsys):
    path = tmp_path / "corrupt.jsonl"
    path.write_text('{"t": 1.0, "kind": "x"}\nnot json at all\n')
    assert main(["trace", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "corrupt.jsonl:2" in err


def test_trace_command_wrong_schema_is_a_clean_error(tmp_path, capsys):
    path = tmp_path / "notatrace.jsonl"
    path.write_text('{"some": "other", "jsonl": "file"}\n')
    assert main(["trace", str(path)]) == 2
    assert "not a trace timeline" in capsys.readouterr().err


def test_run_parser_accepts_trace_flag(tmp_path):
    args = build_parser().parse_args(
        ["run", "figure1", "--quick", "--trace", str(tmp_path / "t.jsonl")]
    )
    assert args.trace == tmp_path / "t.jsonl"
    assert build_parser().parse_args(["run", "figure1"]).trace is None


def test_run_trace_into_a_missing_directory_is_a_clean_error(
        tmp_path, capsys):
    path = tmp_path / "nope" / "t.jsonl"
    argv = ["run", "availability", "--quick", "--trace", str(path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: no such directory: {path.parent}\n"
    )


@pytest.mark.parametrize("argv", [
    ("incidents", "--json"), ("incidents", "--prom"), ("slo", "--prom"),
    ("shards", "--json"), ("shards", "--prom"), ("health", "--prom"),
], ids=" ".join)
def test_export_into_a_missing_directory_is_a_clean_error(
        tmp_path, capsys, argv):
    """Checked before the replay: nothing is rendered, one error line."""
    command, flag = argv
    timeline = make_timeline(tmp_path / "t.jsonl")
    export = tmp_path / "nope" / "x.out"
    assert main([command, str(timeline), flag, str(export)]) == 2
    assert capsys.readouterr() == (
        "", f"error: no such directory: {export.parent}\n"
    )
    assert not export.parent.exists()


def test_timeline_is_valid_jsonl(tmp_path):
    path = make_timeline(tmp_path / "timeline.jsonl")
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    assert all({"t", "seq", "kind", "bus"} <= set(r) for r in records)


# ----------------------------------------------------------------------
# The `paths` subcommand
# ----------------------------------------------------------------------

def make_span_timeline(path):
    with capture_to_jsonl(path):
        bus = TraceBus(label="run")
        bus.publish(
            "request.end", client=0, operation="CommitBid", ok=False,
            duration=1.0, failure="http-error", retries=0, server="server-1",
            status=500,
            calls=((None, "EbidWAR"), (0, "CommitBid"),
                   (1, "IdentityManager")),
            failed_in=("IdentityManager",),
        )
        bus.publish("rm.decision", level="ejb", target=("IdentityManager",))
    return path


def test_paths_command_renders_call_tree_and_ranking(tmp_path, capsys):
    path = make_span_timeline(tmp_path / "spans.jsonl")
    assert main(["paths", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("2 events: 3 spans across 1 completed paths\n")
    assert "observed call trees" in out
    assert "/ebid/CommitBid" in out
    assert "EbidWAR -> CommitBid" in out
    assert "anomaly ranking" in out
    assert "recovery decision audit" in out
    assert "rm.decision" in out


def test_paths_command_missing_file_is_a_clean_error(tmp_path, capsys):
    assert main(["paths", str(tmp_path / "nope.jsonl")]) == 2
    assert "no such trace file" in capsys.readouterr().err


def test_paths_command_empty_file_is_a_clean_error(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert main(["paths", str(path)]) == 2
    assert "empty timeline" in capsys.readouterr().err


def test_paths_command_corrupt_file_is_a_clean_error(tmp_path, capsys):
    path = tmp_path / "corrupt.jsonl"
    path.write_text("{broken\n")
    assert main(["paths", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_paths_command_spanless_timeline_degrades_gracefully(tmp_path, capsys):
    path = make_timeline(tmp_path / "plain.jsonl")
    assert main(["paths", str(path)]) == 0
    out = capsys.readouterr().out
    assert "no request.end carries calls" in out


def test_paths_ranking_counts_every_traced_request(tmp_path, capsys):
    """A bus's failed requests come first and more than 4,096 successful
    ones follow: the ranking still judges every one of them."""
    path = tmp_path / "many.jsonl"
    failed, succeeded = 3, 4200
    with capture_to_jsonl(path):
        bus = TraceBus(label="run")
        for i in range(failed + succeeded):
            ok = i >= failed
            component = "ViewItem" if ok else "CommitBid"
            bus.publish(
                "request.end", operation=component, ok=ok, duration=0.1,
                calls=((None, "EbidWAR"), (0, component)),
                failed_in=() if ok else (component,),
            )
    assert main(["paths", str(path)]) == 0
    out = capsys.readouterr().out
    assert (
        f"{failed + succeeded} paths / {failed} failed):\n"
        "    1. CommitBid"
    ) in out


# ----------------------------------------------------------------------
# Whole timelines
# ----------------------------------------------------------------------

TIMELINE_COMMANDS = ("incidents", "slo", "health", "alerts", "shards", "paths")

#: A second line that breaks the envelope, and what the error names.
MALFORMED = {
    "t-not-a-number": ('{"t": "2.0", "seq": 1, "kind": "tick", "bus": 0}',
                       "'t' is not a finite number"),
    "kind-not-a-string": ('{"t": 2.0, "seq": 1, "kind": 5, "bus": 0}',
                          "'kind' is not a string"),
    "seq-not-an-integer": ('{"t": 2.0, "seq": "1", "kind": "tick", "bus": 0}',
                           "'seq' is not an integer"),
    "bus-not-a-name": ('{"t": 2.0, "seq": 1, "kind": "tick", "bus": [0]}',
                       "'bus' is not an integer or a string"),
    "bus-goes-backwards": ('{"t": 0.5, "seq": 1, "kind": "tick", "bus": 0}',
                           "bus 0's (t, seq) goes backwards"),
}


@pytest.mark.parametrize("command", ("trace",) + TIMELINE_COMMANDS)
@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_envelope_is_a_one_line_error(tmp_path, capsys, case,
                                                command):
    line, message = MALFORMED[case]
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"t": 1.0, "seq": 0, "kind": "tick", "bus": 0}\n' + line + "\n"
    )
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}:2: {message}")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["trace", "--slowest", "-2"],
    ["paths", "--limit", "-1"],
    ["slo", "--window", "0"],
    ["slo", "--window", "nan"],
    ["slo", "--latency", "-1"],
    ["slo", "--latency", "0"],
    ["slo", "--availability", "1.5"],
    ["slo", "--availability", "0"],
    ["trace", "--slowest", "two"],
])
def test_out_of_range_options_are_usage_errors(tmp_path, capsys, argv):
    path = make_timeline(tmp_path / "timeline.jsonl")
    command, *options = argv
    with pytest.raises(SystemExit) as exited:
        main([command, str(path), *options])
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage:")
    assert f"argument {options[0]}: {options[1]!r} is not" in captured.err


def test_options_at_their_bounds_are_accepted(tmp_path, capsys):
    path = make_timeline(tmp_path / "timeline.jsonl")
    assert main(["trace", str(path), "--slowest", "0"]) == 0
    assert capsys.readouterr().out.endswith(
        "slowest requests (of 1 completed):\n"
    )
    assert main(["paths", str(path), "--limit", "0"]) == 0
    assert main(["slo", str(path), "--availability", "1",
                 "--window", "0.5", "--latency", "0.1"]) == 0


def publish_run(bus, clock):
    """A small incident among requests, published on ``bus``."""
    for i in range(40):
        clock.now = float(i)
        if i == 12:
            bus.publish("fault.injected", fault="deadlock",
                        target="SB_ViewItem", server="node1")
        if i == 20:
            bus.publish("rm.decision", level="ejb", target=("SB_ViewItem",),
                        server="node1")
            bus.publish("rm.action.end", level="ejb", ok=True, duration=0.6,
                        server="node1")
        ok = not 14 <= i < 20
        bus.publish("request.end", client=i % 3, operation="ViewItem", ok=ok,
                    duration=0.2, failure=None if ok else "network",
                    retries=0, server="node1",
                    status=200 if ok else "network")


def run_cli(capsys, *argv):
    assert main(list(argv)) == 0
    captured = capsys.readouterr()
    return captured.out, captured.err


def test_bus_that_fits_writes_no_evicted_record(tmp_path, capsys):
    """Every bus fits: the timeline holds each record it published, in
    order, and no subcommand warns."""
    path = tmp_path / "run.jsonl"
    clock = SimpleNamespace(now=0.0)
    with capture_to_jsonl(path):
        bus = TraceBus(kernel=clock, label="run")
        publish_run(bus, clock)
    records = list(read_timeline(path))
    assert [r["seq"] for r in records] == list(range(bus.published))
    out, err = run_cli(capsys, "trace", str(path))
    assert "warning" not in out and err == ""
    for command in TIMELINE_COMMANDS:
        assert run_cli(capsys, command, str(path))[1] == "", command
