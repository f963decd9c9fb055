"""Bench: regenerate Table 6 (masking µRBs with HTTP/1.1 Retry-After)."""

from repro.experiments import table6

from benchmarks.conftest import bench_scale, campaign_jobs, run_once


def test_table6_retry_masking(benchmark, record_result):
    result, measured = run_once(
        benchmark, table6.run, scale=bench_scale(), jobs=campaign_jobs()
    )
    record_result("table6_retry_masking", result)
    print()
    print(result.render())

    for component, (no_retry, retry, delay_retry) in measured.items():
        # The paper's ordering: retry masks failures, the drain delay more.
        assert no_retry >= retry >= delay_retry, component
        assert delay_retry <= 0.5, component
    # Without masking, every µRB visibly fails some requests somewhere.
    assert sum(row[0] for row in measured.values()) > 0
    benchmark.extra_info["measured"] = {
        k: list(v) for k, v in measured.items()
    }
