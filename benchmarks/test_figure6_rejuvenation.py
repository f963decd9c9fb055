"""Bench: regenerate Figure 6 (microrejuvenation vs whole-JVM rejuvenation)."""

from repro.experiments import figure6

from benchmarks.conftest import bench_scale, campaign_jobs, run_once


def test_figure6_rejuvenation(benchmark, record_result):
    result, outcomes = run_once(
        benchmark, figure6.run, scale=bench_scale(), jobs=campaign_jobs()
    )
    record_result("figure6_rejuvenation", result)
    print()
    print(result.render())

    jvm = outcomes["jvm-restart"]
    urb = outcomes["microrejuvenation"]
    # Both schemes kept the leak from crashing the service.
    assert jvm["jvm_restarts"] >= 1
    assert urb["microreboots"] >= 1
    # An order of magnitude fewer failed requests (paper: 11,915 vs 1,383).
    assert urb["failed_requests"] < jvm["failed_requests"] / 5
    # "Good Taw never dropped to zero" under microrejuvenation.
    assert urb["zero_good_seconds"] <= 1
    assert jvm["zero_good_seconds"] > 10
    # The service learned who leaks: biggest leakers lead the order.
    assert urb["rejuvenation_order"][0] == "ViewItem"
    # Memory was actually reclaimed below the alarm threshold each round.
    available = [mem for _t, mem in urb["memory_timeline"]]
    assert max(available) > 0.75 * 1024**3
    benchmark.extra_info["failed_requests"] = {
        "jvm-restart": jvm["failed_requests"],
        "microrejuvenation": urb["failed_requests"],
    }
