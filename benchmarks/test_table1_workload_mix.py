"""Bench: regenerate Table 1 (the client workload mix)."""

from repro.ebid.descriptors import OperationCategory
from repro.experiments import table1

from benchmarks.conftest import bench_scale, campaign_jobs, run_once


def test_table1_workload_mix(benchmark, record_result):
    result, _measured = run_once(
        benchmark, table1.run, scale=bench_scale(), jobs=campaign_jobs()
    )
    record_result("table1_workload_mix", result)
    print()
    print(result.render())

    measured = {row[0]: row[2] for row in result.rows}
    paper = {cat.value: pct for cat, pct in table1.PAPER_MIX.items()}
    for category, paper_pct in paper.items():
        assert abs(measured[category] - paper_pct) <= 2.5, category
    benchmark.extra_info["measured_mix"] = measured
