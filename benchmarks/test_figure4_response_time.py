"""Bench: regenerate Figure 4 (response time during failover at 2× load)."""

from repro.experiments import figure4

from benchmarks.conftest import bench_scale, campaign_jobs, run_once


def test_figure4_response_time(benchmark, record_result):
    result, outcomes = run_once(
        benchmark, figure4.run, scale=bench_scale(), jobs=campaign_jobs()
    )
    record_result("figure4_response_time", result)
    print()
    print(result.render())

    by_key = {(o["n_nodes"], o["recovery"]): o for o in outcomes}
    sizes = sorted({o["n_nodes"] for o in outcomes})
    smallest = sizes[0]
    restart = by_key[(smallest, "process-restart")]
    urb = by_key[(smallest, "microreboot")]
    # The JVM restart saturates the survivors: multi-second spike.
    assert restart["peak_response_time"] > 2.0
    # Microreboots preserve the cluster's load dynamics (§5.3).
    assert urb["peak_response_time"] < 1.0
    assert urb["peak_response_time"] < restart["peak_response_time"] / 5
    # Larger clusters absorb the failover more gracefully.
    if len(sizes) > 1:
        assert (
            by_key[(sizes[-1], "process-restart")]["peak_response_time"]
            < restart["peak_response_time"]
        )
    benchmark.extra_info["peaks"] = {
        f"{n}/{r}": round(o["peak_response_time"], 2)
        for (n, r), o in by_key.items()
    }
