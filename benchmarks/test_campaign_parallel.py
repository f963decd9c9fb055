"""Bench: Table 2 campaign wall-clock, sequential vs ``jobs=4``.

The 26-row fault matrix is the repo's longest campaign and the tentpole's
target workload: every row is an independent trial, so fanning them across
worker processes should cut wall-clock near-linearly while producing
byte-identical rendered output (the determinism contract).

Writes the measured wall-clocks into the ``campaign`` section of
``BENCH_kernel.json``.  The ≥3× speedup gate only binds when the machine
actually has ≥4 usable cores — a 1-core sandbox cannot demonstrate
parallel speedup, and pretending otherwise would just make the gate noise.
For the same reason no speedup is recorded then: ``speedup`` is null and
``reason`` says why.
"""

import time

from benchmarks import gates
from repro.experiments import table2
from repro.parallel import available_jobs, campaign_summary, run_campaign
from repro.parallel.campaign import TrialSpec

JOBS = 4
MIN_SPEEDUP = 3.0
#: The timed campaign runs table2 at this scale.
SCALE = "quick"


def _timed_run(jobs):
    started = time.perf_counter()
    result, outcomes = table2.run(seed=0, scale=SCALE, jobs=jobs)
    return time.perf_counter() - started, result.render(), outcomes


def test_table2_campaign_parallel_speedup():
    cores = available_jobs()

    sequential_s, sequential_text, _ = _timed_run(1)
    parallel_s, parallel_text, _ = _timed_run(JOBS)

    assert parallel_text == sequential_text, (
        "campaign output must be byte-identical between jobs=1 and jobs=4"
    )

    # Cheap probe for how many workers the pool actually used (1 when the
    # platform lacks spawn support and the campaign fell back in-process).
    specs = [
        TrialSpec(
            task="repro.experiments.table2:run_scenario_index",
            kwargs={"index": index, "n_clients": 30},
            tag=f"bench/{index}",
            seed=0,
        )
        for index in range(len(table2._scenarios()))
    ]
    summary = campaign_summary(run_campaign(specs, jobs=JOBS))

    speedup = sequential_s / parallel_s if parallel_s else 0.0
    payload = {
        "experiment": "table2",
        "trials": summary["trials"],
        "n_clients": table2.SCALES[SCALE]["n_clients"],
        "cores": cores,
        "jobs": JOBS,
        "workers_used": summary["workers"],
        "sequential_s": round(sequential_s, 2),
        "parallel_s": round(parallel_s, 2),
        "speedup": round(speedup, 2) if cores >= JOBS else None,
    }
    if cores < JOBS:
        payload["reason"] = (
            f"{cores} usable core(s) < jobs={JOBS}: wall-clock ratio not a "
            "parallel speedup"
        )
    print(f"\ncampaign: {payload}")

    if gates.enabled() and cores >= JOBS:
        assert speedup >= MIN_SPEEDUP, (
            f"table2 campaign at --jobs {JOBS} is only {speedup:.2f}x faster "
            f"than sequential on a {cores}-core machine "
            f"(contract: ≥{MIN_SPEEDUP:.0f}x)"
        )
    gates.record("BENCH_kernel.json", payload, "campaign")
