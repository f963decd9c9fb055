"""Bench: regenerate Table 4 (>8 s requests during failover at 2× load)."""

from repro.experiments import table4

from benchmarks.conftest import bench_scale, campaign_jobs, run_once


def test_table4_slow_requests(benchmark, record_result):
    result, outcomes = run_once(
        benchmark, table4.run, scale=bench_scale(), jobs=campaign_jobs()
    )
    record_result("table4_slow_requests", result)
    print()
    print(result.render())

    by_key = {(o["n_nodes"], o["recovery"]): o["over_8s"] for o in outcomes}
    sizes = sorted({o["n_nodes"] for o in outcomes})
    # Microreboots never push response times past the 8 s threshold.
    for n in sizes:
        assert by_key[(n, "microreboot")] <= 1, n
    # Process restarts overload the survivors; worst at the smallest cluster.
    assert by_key[(sizes[0], "process-restart")] > 10
    for smaller, larger in zip(sizes, sizes[1:]):
        assert (
            by_key[(larger, "process-restart")]
            <= by_key[(smaller, "process-restart")]
        )
    benchmark.extra_info["over_8s"] = {str(k): v for k, v in by_key.items()}
