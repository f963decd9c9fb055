"""Tests for the CLI surface of tracing: run --trace and the trace command."""

import json
from types import SimpleNamespace

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
    assert "3 events from 1 bus(es)" in out
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


# ----------------------------------------------------------------------
# Whole timelines
# ----------------------------------------------------------------------

TIMELINE_COMMANDS = ("incidents", "slo", "health", "alerts", "shards", "paths")


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
    records = read_timeline(path)
    assert [r["seq"] for r in records] == list(range(bus.published))
    out, err = run_cli(capsys, "trace", str(path))
    assert "warning" not in out and err == ""
    for command in TIMELINE_COMMANDS:
        assert run_cli(capsys, command, str(path))[1] == "", command
