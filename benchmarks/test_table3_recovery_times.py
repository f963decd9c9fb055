"""Bench: regenerate Table 3 (recovery times under load)."""

import pytest

from repro.experiments import table3

from benchmarks.conftest import bench_scale, campaign_jobs, run_once


def test_table3_recovery_times(benchmark, record_result):
    result, rows = run_once(
        benchmark, table3.run, scale=bench_scale(), jobs=campaign_jobs()
    )
    record_result("table3_recovery_times", result)
    print()
    print(result.render())

    # Every component's measured µRB within 20% of the paper's figure.
    for name, (paper_total, _crash, _reinit) in table3.PAPER_TABLE3.items():
        if name not in rows:
            continue
        measured_ms = rows[name][0] * 1000
        assert measured_ms == pytest.approx(paper_total, rel=0.20), name

    # The headline ordering: EJB µRB ≪ WAR < app restart ≪ JVM restart.
    jvm = rows["JVM/JBoss process restart"][0]
    app = rows["Entire eBid application"][0]
    war = rows["WAR (Web component)"][0]
    group = rows["EntityGroup"][0]
    assert group < war < app < jvm
    assert jvm / group > 20  # order-of-magnitude gap
    benchmark.extra_info["jvm_restart_ms"] = round(jvm * 1000)
