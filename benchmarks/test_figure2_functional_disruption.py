"""Bench: regenerate Figure 2 (functional disruption by group)."""

from repro.ebid.descriptors import FUNCTIONAL_GROUPS
from repro.experiments import figure2

from benchmarks.conftest import bench_scale, campaign_jobs, run_once


def test_figure2_functional_disruption(benchmark, record_result):
    result, _outcomes = run_once(
        benchmark, figure2.run, scale=bench_scale(), jobs=campaign_jobs()
    )
    record_result("figure2_functional_disruption", result)
    print()
    print(result.render())

    gaps = {row[0]: (row[1], row[2]) for row in result.rows}
    # JVM restart: every functional group gaps for at least the restart.
    for group in FUNCTIONAL_GROUPS:
        assert gaps[group][0] >= 15.0, group
    # µRB: only the group containing the faulty component gaps at all.
    assert gaps["User Account"][1] > 0
    for group in ("Browse/View", "Search", "Bid/Buy/Sell"):
        assert gaps[group][1] == 0.0, group
    benchmark.extra_info["gaps"] = gaps
