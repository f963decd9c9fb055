"""Tests for the action-weighted throughput (Taw) accounting."""

import math
import tracemalloc

import pytest

from repro.workload.metrics import ActionRecord, OperationRecord, TawAccounting


def op(name="ViewItem", issued=10.0, completed=10.5, ok=True, group="Browse/View"):
    return OperationRecord(
        operation=name,
        url=f"/ebid/{name}",
        issued_at=issued,
        completed_at=completed,
        ok=ok,
        response_time=completed - issued,
        functional_group=group,
    )


def action(name="ViewItem", ops=()):
    record = ActionRecord(name=name, client_id=1, started_at=0.0)
    record.operations = list(ops)
    return record


def test_committed_action_counts_all_ops_good():
    metrics = TawAccounting()
    metrics.record_action(action(ops=[op(issued=1, completed=2),
                                      op(issued=3, completed=4)]))
    assert metrics.good_requests == 2
    assert metrics.failed_requests == 0
    assert metrics.good_actions == 1


def test_one_failure_retroactively_fails_the_whole_action():
    """The heart of Taw (§4): actions succeed or fail atomically."""
    metrics = TawAccounting()
    metrics.record_action(
        action(
            name="PlaceBid",
            ops=[
                op("ViewItem", 1, 2, ok=True),
                op("MakeBid", 3, 4, ok=True),
                op("CommitBid", 5, 6, ok=False),
            ],
        )
    )
    assert metrics.failed_requests == 3  # the earlier successes count bad
    assert metrics.good_requests == 0
    assert metrics.failed_actions == 1


def test_series_bucketing_by_second():
    metrics = TawAccounting()
    metrics.record_action(action(ops=[op(issued=10.2, completed=10.9)]))
    metrics.record_action(action(ops=[op(issued=10.5, completed=11.1)]))
    series = metrics.good_taw_series()
    assert series[10] == 1
    assert series[11] == 1


def test_requests_in_window():
    metrics = TawAccounting()
    metrics.record_action(action(ops=[op(issued=5, completed=5.5)]))
    metrics.record_action(action(ops=[op(issued=20, completed=20.5, ok=False)]))
    good, bad = metrics.requests_in_window(0, 10)
    assert (good, bad) == (1, 0)
    good, bad = metrics.requests_in_window(10, 30)
    assert (good, bad) == (0, 1)


def test_requests_in_window_edges_are_half_open():
    """The [start, end) contract: window edges never double- or zero-count.

    A request completing at exactly t=10 lives in bucket 10: it belongs
    to [10, 20) and not to [0, 10) — the boundary bucket goes to exactly
    one side.
    """
    metrics = TawAccounting()
    metrics.record_action(action(ops=[op(issued=9.5, completed=10.0)]))
    assert metrics.requests_in_window(0, 10) == (0, 0)
    assert metrics.requests_in_window(10, 20) == (1, 0)


def test_requests_in_window_partitions_the_run():
    """Consecutive windows sum to the run total (no gaps, no overlaps)."""
    metrics = TawAccounting()
    for second in range(0, 30, 3):
        metrics.record_action(
            action(ops=[op(issued=second, completed=second + 0.5,
                           ok=(second % 2 == 0))])
        )
    windows = [(0, 10), (10, 20), (20, 30)]
    good = sum(metrics.requests_in_window(s, e)[0] for s, e in windows)
    bad = sum(metrics.requests_in_window(s, e)[1] for s, e in windows)
    assert good == metrics.good_requests
    assert bad == metrics.failed_requests


def test_requests_in_window_compares_bucket_labels_not_timestamps():
    """Documented nuance: the comparison is on int bucket labels."""
    metrics = TawAccounting()
    metrics.record_action(action(ops=[op(issued=9.2, completed=9.7)]))
    # t=9.7 lives in bucket 9: inside [0, 10) but outside [9.5, 10).
    assert metrics.requests_in_window(0, 10) == (1, 0)
    assert metrics.requests_in_window(9.5, 10) == (0, 0)
    assert metrics.requests_in_window(9, 10) == (1, 0)


def test_operations_mix():
    metrics = TawAccounting()
    metrics.record_action(action(ops=[op("ViewItem"), op("ViewItem"),
                                      op("MakeBid")]))
    mix = metrics.operations_mix()
    assert mix["ViewItem"] == pytest.approx(2 / 3)
    assert mix["MakeBid"] == pytest.approx(1 / 3)


def test_response_time_stats():
    metrics = TawAccounting()
    metrics.record_action(action(ops=[op(issued=0, completed=0.5),
                                      op(issued=1, completed=10.0)]))
    assert metrics.mean_response_time() == pytest.approx((0.5 + 9.0) / 2)
    assert metrics.response_times_over(8.0) == 1


def test_response_time_series_buckets_means():
    metrics = TawAccounting()
    metrics.record_action(action(ops=[op(issued=0, completed=0.2),
                                      op(issued=0.5, completed=0.9)]))
    series = metrics.response_time_series(bucket_seconds=1.0)
    assert series[0.0] == pytest.approx(0.3)


def test_group_unavailability_merges_spans():
    metrics = TawAccounting()
    metrics.record_action(
        action(ops=[op(issued=10, completed=12, ok=False)])
    )
    metrics.record_action(
        action(ops=[op(issued=11, completed=14, ok=False)])
    )
    metrics.record_action(
        action(ops=[op(issued=30, completed=31, ok=False)])
    )
    spans = metrics.group_unavailability("Browse/View")
    assert spans == [(10, 14), (30, 31)]


def test_group_unavailability_pads_instant_failures():
    metrics = TawAccounting()
    metrics.record_action(action(ops=[op(issued=10, completed=10, ok=False)]))
    spans = metrics.group_unavailability("Browse/View", min_span=1.0)
    assert spans == [(10, 11)]


def test_failures_by_kind_and_operation():
    """Only the failed operation counts, not the ok one failed with it."""
    metrics = TawAccounting()
    failed = op("CommitBid", ok=False)
    failed.failure_kind = "http-error"
    metrics.record_action(action(ops=[op("ViewItem"), failed]))
    assert metrics.failed_requests == 2  # Taw fails the whole action
    assert metrics.failures_by_operation == {"CommitBid": 1}
    assert metrics.failures_by_kind == {"http-error": 1}


# ----------------------------------------------------------------------
# The per-request columns
# ----------------------------------------------------------------------

def test_a_recorded_request_costs_under_128_bytes():
    """20,000 one-request actions, each dropped once recorded.

    Stamps stay inside 20 seconds, about a real run's density, so the
    per-second series (one entry per second, not per request) does not
    count here.  One object-held action took about 412 bytes.
    """
    tracemalloc.start()
    try:
        metrics = TawAccounting()
        before = tracemalloc.get_traced_memory()[0]
        for i in range(20_000):
            issued = i / 1000
            metrics.record_action(
                action(ops=[op(issued=issued, completed=issued + 0.25,
                               ok=i % 7 != 0)])
            )
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(metrics.actions) == 20_000
    assert retained / 20_000 < 128


@pytest.mark.parametrize("field, value, error", [
    ("completed_at", math.nan, ValueError),
    ("response_time", math.nan, ValueError),
    ("ok", 1, TypeError),
    ("ok", None, TypeError),
    ("operation", 7, TypeError),
    ("failure_kind", b"timeout", TypeError),
    ("issued_at", None, TypeError),
    ("retries", 65_536, OverflowError),
    ("retries", -1, OverflowError),
])
def test_a_value_the_columns_cannot_hold_is_refused_whole(field, value, error):
    """Nothing is coerced: the action is refused and no row of it stays."""
    metrics = TawAccounting()
    metrics.record_action(action(ops=[op(issued=1, completed=2)]))
    bad = op("MakeBid", issued=3, completed=4)
    setattr(bad, field, value)
    with pytest.raises(error):
        metrics.record_action(action(ops=[op(issued=2, completed=3), bad]))
    assert len(metrics.actions) == 1
    assert metrics.total_requests == 1  # the Taw loop never ran
    metrics.record_action(action(name="Next", ops=[op(issued=5, completed=6)]))
    assert [a.name for a in metrics.actions] == ["ViewItem", "Next"]
    assert metrics.actions[-1].operations == [op(issued=5, completed=6)]
    assert metrics.response_times == [(2.0, 1.0), (6.0, 1.0)]


def test_the_string_table_refuses_a_code_it_cannot_hold():
    """Codes are unsigned 16-bit: the 65,536th string raises, not wraps."""
    metrics = TawAccounting()
    ops = [op() for _ in range(65_535)]
    for i, record in enumerate(ops):
        record.url = f"/u/{i}"
    with pytest.raises(OverflowError):
        metrics.record_action(action(ops=ops))
    assert len(metrics.actions) == 0
    assert metrics.operations_mix() == {}


def test_mean_response_time_skips_untimed_requests():
    metrics = TawAccounting()
    untimed = op(issued=3, completed=4)
    untimed.completed_at = untimed.response_time = None
    metrics.record_action(action(ops=[op(issued=0, completed=0.5), untimed,
                                      op(issued=1, completed=2.0)]))
    assert metrics.mean_response_time() == (0.5 + 1.0) / 2
    assert metrics.response_times == [(0.5, 0.5), (2.0, 1.0)]
    assert metrics.failure_intervals == []
    assert TawAccounting().mean_response_time() is None
