"""Bench: regenerate Figure 3 (failover under normal load, 2-8 nodes)."""

from repro.experiments import figure3

from benchmarks.conftest import bench_scale, campaign_jobs, run_once


def test_figure3_failover(benchmark, record_result):
    result, outcomes = run_once(
        benchmark, figure3.run, scale=bench_scale(), jobs=campaign_jobs()
    )
    record_result("figure3_failover", result)
    print()
    print(result.render())

    by_key = {(o["n_nodes"], o["recovery"]): o for o in outcomes}
    sizes = sorted({o["n_nodes"] for o in outcomes})
    for n in sizes:
        restart = by_key[(n, "process-restart")]
        urb = by_key[(n, "microreboot")]
        # µRB failover always beats restart failover, at every cluster size.
        assert urb["failed_requests"] < restart["failed_requests"] / 3, n
        # Restart failures track the failed-over session count; µRB
        # failures track the (much smaller) in-flight request count.
        assert restart["sessions_failed_over"] > 5 * urb["sessions_failed_over"], n

    # The µRB failure count stays roughly flat as the cluster grows.
    urb_counts = [by_key[(n, "microreboot")]["failed_requests"] for n in sizes]
    assert max(urb_counts) - min(urb_counts) <= max(20, 3 * min(urb_counts) + 10)

    # The *relative* benefit shrinks with cluster size (right graph).
    rel = {
        n: by_key[(n, "process-restart")]["failed_requests"]
        / max(by_key[(n, "process-restart")]["total_requests"], 1)
        for n in sizes
    }
    assert rel[sizes[0]] > rel[sizes[-1]]
    benchmark.extra_info["failed_requests"] = {
        f"{n}/{r}": by_key[(n, r)]["failed_requests"]
        for n, r in by_key
    }
