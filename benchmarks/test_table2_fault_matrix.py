"""Bench: regenerate Table 2 (fault → worst-case recovery level)."""

from repro.experiments import table2

from benchmarks.conftest import bench_scale, campaign_jobs, run_once

#: Rows whose measured outcome is expected to differ from the paper's label
#: (documented divergences — see EXPERIMENTS.md).
KNOWN_DIVERGENCES = {
    "Corrupt session bean attrs: wrong",  # cache churn self-heals the WAR
    "Corrupt data inside FastS: wrong",  # our sweep prevents the paper's ≈
}


def test_table2_fault_matrix(benchmark, record_result):
    result, outcomes = run_once(
        benchmark, table2.run, scale=bench_scale(), jobs=campaign_jobs()
    )
    record_result("table2_fault_matrix", result)
    print()
    print(result.render())

    assert all(o["resuscitated"] for o in outcomes), [
        o["label"] for o in outcomes if not o["resuscitated"]
    ]
    mismatches = []
    for (label, paper, measured, _res, _rep), outcome in zip(
        result.rows, outcomes
    ):
        expected = paper.replace(" ≈", "")
        got = measured.replace(" ≈", "")
        normalized = {
            "unnecessary": "none needed",
            "none (checksum discard)": "none needed",
            "WAR (paper: WAR )": "WAR",
        }.get(expected, expected)
        if got != normalized and label not in KNOWN_DIVERGENCES:
            mismatches.append((label, paper, measured))
    assert not mismatches, mismatches
    benchmark.extra_info["rows"] = len(result.rows)
