"""Rolling SLO windows: canonical computation and the live engine."""

import pytest

from repro.observability.exporter import replay
from repro.observability.slo import (
    RequestWindows,
    SloEngine,
    SloPolicy,
    SloWindow,
    _quantile,
    aggregate_slo,
    compute_windows,
)
from repro.sim.kernel import Kernel
from repro.workload.metrics import ActionRecord, OperationRecord, TawAccounting
from tests.tracing import record


def _action(t, ok=True, rt=0.5):
    record = ActionRecord(name="X", client_id=1, started_at=t - rt)
    record.operations = [
        OperationRecord(
            operation="X", url="/ebid/X", issued_at=t - rt, completed_at=t,
            ok=ok, response_time=rt, functional_group="Browse/View",
        )
    ]
    return record


# ----------------------------------------------------------------------
# Policy
# ----------------------------------------------------------------------

def test_policy_validation():
    with pytest.raises(ValueError):
        SloPolicy(window=0.0)
    with pytest.raises(ValueError):
        SloPolicy(availability_target=0.0)
    with pytest.raises(ValueError):
        SloPolicy(availability_target=1.5)
    assert SloPolicy(availability_target=0.99).error_budget == pytest.approx(0.01)


# ----------------------------------------------------------------------
# compute_windows
# ----------------------------------------------------------------------

def test_windows_partition_the_run():
    good = {1: 3, 10: 2, 19: 1}
    bad = {5: 1, 25: 2}
    windows = compute_windows(good, bad, [], 30.0, policy=SloPolicy(window=10.0))
    assert [(w.start, w.end) for w in windows] == [(0, 10), (10, 20), (20, 30)]
    assert sum(w.good for w in windows) == 6
    assert sum(w.bad for w in windows) == 3
    assert windows[0].good == 3 and windows[0].bad == 1
    assert windows[1].good == 3 and windows[1].bad == 0
    assert windows[2].good == 0 and windows[2].bad == 2


def test_trailing_partial_window_is_never_judged():
    windows = compute_windows({1: 1, 35: 1}, {}, [], 39.0,
                              policy=SloPolicy(window=10.0))
    assert len(windows) == 3  # [30, 39) is partial: dropped


def test_availability_violation_and_burn():
    policy = SloPolicy(window=10.0, availability_target=0.99)
    windows = compute_windows({0: 90}, {0: 10}, [], 10.0, policy=policy)
    (window,) = windows
    assert window.availability == pytest.approx(0.9)
    assert window.violated
    assert "availability" in window.reasons[0]
    # 10% failures against a 1% budget: burning 10x.
    assert window.burn == pytest.approx(10.0)


def test_zero_error_budget_burns_infinitely():
    policy = SloPolicy(window=10.0, availability_target=1.0)
    (window,) = compute_windows({0: 9}, {0: 1}, [], 10.0, policy=policy)
    assert window.burn == float("inf")
    (clean,) = compute_windows({0: 9}, {}, [], 10.0, policy=policy)
    assert clean.burn == 0.0


def test_latency_violation_via_p99():
    policy = SloPolicy(window=10.0, latency_target=1.0)
    rts = [(float(i) / 100, 0.1) for i in range(98)] + [(9.4, 30.0),
                                                        (9.5, 30.0)]
    (window,) = compute_windows({0: 100}, {}, rts, 10.0, policy=policy)
    assert window.p99 == pytest.approx(30.0)
    assert window.violated
    assert "p99" in window.reasons[0]


def test_quiet_windows_are_never_judged():
    policy = SloPolicy(window=10.0, min_requests=5)
    (window,) = compute_windows({0: 1}, {5: 1}, [], 10.0, policy=policy)
    assert window.availability == pytest.approx(0.5)
    assert not window.violated  # below min_requests: not judged


def test_gaw_is_good_per_second():
    (window,) = compute_windows({0: 30}, {}, [], 30.0)
    assert window.gaw == pytest.approx(1.0)


def test_quantile_nearest_rank():
    assert _quantile([], 0.5) is None
    assert _quantile([1.0], 0.99) == 1.0
    values = sorted(float(i) for i in range(100))
    assert _quantile(values, 0.50) == 49.0
    assert _quantile(values, 0.99) == 98.0


def test_window_to_dict_serializes_inf_burn():
    window = SloWindow(start=0.0, end=10.0, good=0, bad=5,
                       availability_target=1.0)
    assert window.to_dict()["burn"] == "inf"


# ----------------------------------------------------------------------
# RequestWindows (timeline replay)
# ----------------------------------------------------------------------

def test_windows_from_records_per_request_approximation():
    records = [
        {"t": 1.0, "kind": "request.end", "ok": True, "duration": 0.2},
        {"t": 5.0, "kind": "request.end", "ok": False, "duration": 9.0},
        {"t": 12.0, "kind": "request.end", "ok": True, "duration": 0.3},
        {"t": 21.0, "kind": "rm.decision", "level": "ejb"},  # not a request
    ]
    [(_bus, [requests], end)] = replay(records, lambda: [RequestWindows()])
    assert end == 21.0  # the latest event of any kind ends the span
    windows = requests.windows(end, policy=SloPolicy(window=10.0))
    assert len(windows) == 2
    assert (windows[0].good, windows[0].bad) == (1, 1)
    assert (windows[1].good, windows[1].bad) == (1, 0)
    assert windows[0].violated


# ----------------------------------------------------------------------
# Live engine
# ----------------------------------------------------------------------

def test_live_engine_judges_lagged_windows_and_publishes_violations():
    kernel = Kernel()
    kernel.trace.enabled = True
    taw = TawAccounting()
    policy = SloPolicy(window=10.0, availability_target=0.999)
    engine = SloEngine(taw, bus=kernel.trace, policy=policy)
    violated = record(kernel.trace, "slo.violated")

    schedule = [(1.0, True), (5.0, True), (12.0, False), (15.0, True),
                (25.0, True), (35.0, True), (45.0, True)]

    def driver():
        last = 0.0
        for when, ok in schedule:
            yield kernel.timeout(when - last)
            last = when
            taw.record_action(_action(when, ok=ok))
            kernel.trace.publish("request.end", operation="X", ok=ok,
                                 duration=0.5)

    kernel.process(driver(), name="workload")
    kernel.run(until=50.0)

    # Window 1 ([10, 20): one bad request) settles once the clock clears
    # window 2 — the 35s event judges windows 0 and 1.
    assert [w.start for w in engine.live_violations] == [10.0]
    assert len(violated) == 1
    assert violated[0].fields["window_start"] == 10.0
    assert violated[0].fields["reasons"]

    # The canonical pass agrees with the live one on full windows.
    windows = engine.evaluate(50.0)
    assert len(windows) == 5
    assert [w.start for w in windows if w.violated] == [10.0]


def test_live_engine_is_passive_no_kernel_events():
    """Attaching the engine must not schedule anything on the kernel."""
    kernel = Kernel()
    kernel.trace.enabled = True
    baseline = kernel.events_processed
    SloEngine(TawAccounting(), bus=kernel.trace)
    kernel.run(until=100.0)
    assert kernel.events_processed == baseline


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------

def test_aggregate_slo_rollup():
    policy = SloPolicy(window=10.0, availability_target=0.99)
    windows = compute_windows({0: 90, 10: 10}, {0: 10}, [], 30.0,
                              policy=policy)
    summary = aggregate_slo(windows)
    assert summary["windows"] == 3
    assert summary["judged"] == 2  # the third window is empty
    assert summary["violations"] == 1
    assert summary["violation_windows"] == [0.0]
    assert summary["min_availability"] == pytest.approx(0.9)
    assert summary["max_burn"] == pytest.approx(10.0)
