"""Tests for JSONL timeline export, capture scopes, and the summarizer."""

import gc
import weakref

import pytest

from repro.cli import main
from repro.observability import replay
from repro.sim import Kernel
from repro.telemetry import (
    TimelineError,
    TimelineSummary,
    TraceBus,
    capture_to_jsonl,
    read_timeline,
    tracing_enabled_by_default,
)


def test_write_read_roundtrip(tmp_path):
    path = tmp_path / "timeline.jsonl"
    with capture_to_jsonl(path):
        bus_a = TraceBus(label="alpha")
        bus_b = TraceBus(label="beta")
        bus_b.publish("rm.decision", level="ejb")
        bus_a.publish("request.end", operation="ViewItem", duration=0.2)
    records = list(read_timeline(path))

    # Sections follow bus creation, not publish order.
    assert len(records) == 2
    assert records[0]["bus"] == "alpha"
    assert records[0]["kind"] == "request.end"
    assert records[0]["operation"] == "ViewItem"
    assert records[1]["bus"] == "beta"
    assert records[1]["level"] == "ejb"


def test_unlabelled_buses_get_positional_ids(tmp_path):
    path = tmp_path / "timeline.jsonl"
    with capture_to_jsonl(path):
        buses = [TraceBus(), TraceBus(enabled=False), TraceBus()]
        for bus in buses:
            bus.publish("tick")
    assert [r["bus"] for r in read_timeline(path)] == [0, 2]


def test_capture_to_jsonl_exports_buses_created_inside(tmp_path):
    outside = Kernel()  # exists before the capture: must not leak in
    outside.trace.enabled = True
    path = tmp_path / "timeline.jsonl"
    with capture_to_jsonl(path):
        assert tracing_enabled_by_default()
        inside = Kernel()
        assert inside.trace.enabled
        inside.trace.publish("tick", origin="inside")
        outside.trace.publish("tick", origin="outside")
    assert not tracing_enabled_by_default()
    inside.trace.publish("tick", origin="after")  # the block is over

    records = list(read_timeline(path))
    assert [r.get("origin") for r in records] == ["inside"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["timeline.jsonl"]


def test_capture_to_jsonl_survives_kernel_garbage_collection(tmp_path):
    """The capture holds no bus: a kernel dropped inside the block is
    collected before it ends, and what it published is still written."""
    path = tmp_path / "timeline.jsonl"
    with capture_to_jsonl(path):
        kernel = Kernel()
        kernel.trace.publish("tick")
        gone = weakref.ref(kernel)
        del kernel
        gc.collect()
        assert gone() is None
        Kernel().trace.publish("tock")
    assert [(r["bus"], r["kind"]) for r in read_timeline(path)] == [
        (0, "tick"), (1, "tock"),
    ]


def test_load_timeline_returns_records(tmp_path):
    """Reading yields one record at a time: a record is in hand before
    the reader has looked at the line after it."""
    path = tmp_path / "timeline.jsonl"
    with capture_to_jsonl(path):
        TraceBus(label="run").publish("tick")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("not json at all\n")
    records = read_timeline(path)
    first = next(records)
    assert first["kind"] == "tick" and first["bus"] == "run"
    with pytest.raises(TimelineError, match=r"timeline.jsonl:2: not valid"):
        next(records)


def test_load_timeline_classifies_errors(tmp_path):
    with pytest.raises(TimelineError, match="no such trace file"):
        list(read_timeline(tmp_path / "nope.jsonl"))

    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(TimelineError, match="empty timeline"):
        list(read_timeline(empty))

    unreadable = tmp_path / "dir.jsonl"
    unreadable.mkdir()
    with pytest.raises(TimelineError, match="cannot read"):
        list(read_timeline(unreadable))

    binary = tmp_path / "binary.jsonl"
    binary.write_bytes(b'{"t": 0.0, "kind": "tick"}\n\xff\xfe\n')
    with pytest.raises(TimelineError, match="binary.jsonl: not UTF-8"):
        list(read_timeline(binary))


def test_summarize_empty_timeline(tmp_path, capsys):
    """Blank lines hold no record: the file is an empty timeline."""
    path = tmp_path / "blank.jsonl"
    path.write_text("\n  \n")
    assert main(["trace", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "empty timeline" in captured.err


def _summarize(records, slowest=5):
    [(_bus, [summary], _end)] = replay(
        records, lambda: [TimelineSummary(slowest)]
    )
    return summary.render()


def test_summarize_timeline_sections():
    records = [
        {"t": 0.5, "seq": 0, "kind": "request.end", "bus": 0,
         "operation": "ViewItem", "ok": True, "duration": 0.21},
        {"t": 1.0, "seq": 1, "kind": "request.end", "bus": 0,
         "operation": "MakeBid", "ok": False, "duration": 7.9,
         "failure": "timeout"},
        {"t": 2.0, "seq": 2, "kind": "rm.decision", "bus": 0,
         "level": "ejb", "target": ["SB_ViewItem"]},
        {"t": 2.0, "seq": 3, "kind": "lb.failover.begin", "bus": 0,
         "node": "node-1", "mode": "micro"},
        {"t": 2.2, "seq": 4, "kind": "lb.failover", "bus": 0,
         "from_node": "node-1", "to_node": "node-2"},
        {"t": 2.6, "seq": 5, "kind": "component.microreboot.end", "bus": 0,
         "components": ["SB_ViewItem"], "duration": 0.55},
        {"t": 3.0, "seq": 6, "kind": "lb.failover.end", "bus": 0,
         "node": "node-1"},
        {"t": 9.0, "seq": 7, "kind": "lb.failover.begin", "bus": 0,
         "node": "node-3", "mode": "full"},
    ]
    text = _summarize(records)
    assert text.startswith("8 events, t=0.500..9.000s\n")
    assert "events by kind" in text
    assert "recovery timeline (2 events)" in text
    assert "rm.decision" in text and "level=ejb" in text
    assert "node-1: micro failover t=2.000..3.000s (1.000s)" in text
    assert "requests redirected during failover: 1" in text
    assert "never ended (wedged?)" in text  # node-3's window stayed open
    assert "slowest requests (of 2 completed)" in text
    assert "FAILED(timeout)" in text


def test_summarize_respects_slowest_limit():
    records = [
        {"t": float(i), "seq": i, "kind": "request.end", "bus": 0,
         "operation": f"Op{i}", "ok": True, "duration": float(i)}
        for i in range(10)
    ]
    text = _summarize(records, slowest=3)
    listed = [line for line in text.splitlines() if "  Op" in line]
    assert len(listed) == 3
    assert "Op9" in listed[0]  # slowest first
