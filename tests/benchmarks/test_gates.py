"""Tests for ``benchmarks/gates.py``: switches, BENCH sections, the 10% bound.

Every BENCH file here lives under ``tmp_path``; the recorded numbers are
the committed baselines' own.
"""

import json
import math

import pytest

from benchmarks import gates

#: (metric, recorded) pairs gated as "may not exceed recorded × 1.1".
LIMITS = [
    ("hardened failed_requests", 103),
    ("hardened recovery_actions", 7),
    ("proactive failed_requests", 1),
    ("proactive coarse_actions", 0),
    ("parallel failed_requests", 36),
    ("parallel mean_recovery_phase", 8.083),
]
#: (metric, recorded) pairs gated as "may not fall below recorded × 0.9".
FLOORS = [
    ("kernel events_per_sec", 522012),
    ("megascale smoke requests_per_sec", 1019702),
    ("storm smoke requests_per_sec", 1209017),
    ("storm+plane requests_per_sec", 953026),
]

OBSERVABILITY = {
    "cluster": {
        "correlation": {"requests_per_sec": 953026, "wall_s": 35.63},
        "overhead": {"overhead_pct": -7.89, "rounds": 2},
    },
    "overhead": {"overhead_pct": 3.01, "rounds": 3},
}


@pytest.fixture
def switches(monkeypatch):
    """Set (or, for None, unset) the two gate switches."""

    def _set(name, value):
        if value is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, value)

    return _set


def _write(path, report):
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize(
    "value, on", [(None, True), ("", False), ("0", False), ("1", True)]
)
def test_gate_switch(switches, value, on):
    switches("REPRO_BENCH_GATE", value)
    assert gates.enabled() is on


@pytest.mark.parametrize(
    "value, on", [(None, False), ("", False), ("0", False), ("1", True)]
)
def test_rebaseline_switch(switches, value, on):
    switches("REPRO_BENCH_REBASELINE", value)
    assert gates.rebaselining() is on


def test_baseline_absent_file_or_key_is_none(tmp_path, switches):
    switches("REPRO_BENCH_REBASELINE", None)
    bench = tmp_path / "BENCH_observability.json"
    assert gates.baseline(bench, "cluster") is None
    _write(bench, OBSERVABILITY)
    assert gates.baseline(bench, "cluster", "absent") is None
    assert gates.baseline(bench, "overhead", "rounds", "deeper") is None


def test_baseline_reads_a_nested_section(tmp_path, switches):
    switches("REPRO_BENCH_REBASELINE", "0")
    bench = tmp_path / "BENCH_observability.json"
    _write(bench, OBSERVABILITY)
    assert gates.baseline(bench) == OBSERVABILITY
    assert gates.baseline(bench, "overhead") == OBSERVABILITY["overhead"]
    assert gates.baseline(
        bench, "cluster", "correlation", "requests_per_sec"
    ) == 953026


def test_baseline_is_none_while_rebaselining(tmp_path, switches):
    switches("REPRO_BENCH_REBASELINE", "1")
    bench = tmp_path / "BENCH_observability.json"
    _write(bench, OBSERVABILITY)
    assert gates.baseline(bench, "cluster", "correlation") is None


def test_rebaselining_both_cluster_sections_keeps_each(tmp_path, switches):
    """The cluster benchmark's two records, in test order, under rebaseline."""
    switches("REPRO_BENCH_REBASELINE", "1")
    bench = tmp_path / "BENCH_observability.json"
    _write(bench, OBSERVABILITY)
    overhead = {"overhead_pct": 4.2, "rounds": 2}
    correlation = {"requests_per_sec": 700000, "wall_s": 48.5}

    gates.record(bench, overhead, "cluster", "overhead")
    gates.record(bench, correlation, "cluster", "correlation")

    report = json.loads(bench.read_text())
    assert report["cluster"] == {
        "correlation": correlation, "overhead": overhead,
    }
    assert report["overhead"] == OBSERVABILITY["overhead"]


def test_record_creates_missing_file_and_sections(tmp_path):
    bench = tmp_path / "BENCH_kernel.json"
    gates.record(bench, {"events_per_sec": 1}, "kernel")
    gates.record(bench, {"speedup": None}, "campaign")
    assert json.loads(bench.read_text()) == {
        "campaign": {"speedup": None}, "kernel": {"events_per_sec": 1},
    }


def test_record_without_section_replaces_the_file(tmp_path):
    bench = tmp_path / "BENCH_chaos.json"
    _write(bench, {"stale": True})
    gates.record(bench, {"seed": 0})
    assert json.loads(bench.read_text()) == {"seed": 0}


def test_record_writes_one_layout(tmp_path):
    bench = tmp_path / "BENCH_scale.json"
    gates.record(bench, {"wall_s": 1.23, "sessions": 50000}, "smoke")
    assert bench.read_text() == (
        '{\n  "smoke": {\n    "sessions": 50000,\n    "wall_s": 1.23\n  }\n}\n'
    )


@pytest.mark.parametrize("metric, recorded", LIMITS)
def test_at_most_holds_up_to_the_bound_inclusive(metric, recorded):
    bound = recorded * 1.1
    gates.at_most(metric, bound, recorded)
    gates.at_most(metric, math.nextafter(bound, -math.inf), recorded)
    past = math.nextafter(bound, math.inf)
    with pytest.raises(AssertionError) as failure:
        gates.at_most(metric, past, recorded)
    message = str(failure.value)
    for part in (metric, repr(past), f"recorded {recorded}",
                 f"<= {bound:.10g}", "REPRO_BENCH_REBASELINE=1"):
        assert part in message


@pytest.mark.parametrize("metric, recorded", FLOORS)
def test_at_least_holds_down_to_the_bound_inclusive(metric, recorded):
    bound = recorded * 0.9
    gates.at_least(metric, bound, recorded)
    gates.at_least(metric, math.nextafter(bound, math.inf), recorded)
    past = math.nextafter(bound, -math.inf)
    with pytest.raises(AssertionError) as failure:
        gates.at_least(metric, past, recorded)
    message = str(failure.value)
    for part in (metric, repr(past), f"recorded {recorded}",
                 f">= {bound:.10g}", "REPRO_BENCH_REBASELINE=1"):
        assert part in message


def test_whole_counts_either_side_of_a_limit():
    gates.at_most("hardened failed_requests", 113, 103)
    with pytest.raises(AssertionError):
        gates.at_most("hardened failed_requests", 114, 103)


def test_no_recorded_value_means_no_check():
    gates.at_most("hardened failed_requests", 10**9, None)
    gates.at_least("kernel events_per_sec", 0, None)


def test_failed_check_leaves_the_file_byte_identical(tmp_path, switches):
    switches("REPRO_BENCH_REBASELINE", None)
    bench = tmp_path / "BENCH_chaos.json"
    _write(bench, {"hardened_pipeline": {"failed_requests": 103}})
    before = bench.read_bytes()

    with pytest.raises(AssertionError):
        gates.at_most(
            "hardened failed_requests",
            114,
            gates.baseline(bench, "hardened_pipeline", "failed_requests"),
        )
        gates.record(bench, {"hardened_pipeline": {"failed_requests": 114}})

    assert bench.read_bytes() == before
