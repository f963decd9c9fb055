"""Bench: the megascale scenario — 1M cohort sessions on a sharded cluster.

Three contracts gate the tentpole, all recorded in ``BENCH_scale.json``:

* **standard scale** — ``repro run megascale`` at its default scale
  (1,000,000 sessions, 128 shards) must finish both arms within a bounded
  wall-clock and driver-process memory budget.  The budgets are generous
  multiples of the measured numbers, so they catch complexity regressions
  (anything per-session where per-cohort was intended), not machine noise;
* **determinism** — the same seed must produce the same outcome payload,
  run to run and ``jobs=1`` vs ``jobs=2`` (checked at smoke scale); the
  smoke throughput also carries a 10% regression gate against the recorded
  baseline for CI;
* **small-N equivalence** — the cohort engine must match the per-client
  engine's goodput rate and action mix within the documented tolerances
  (the same contract tests/workload/test_cohort.py enforces; recorded
  here so the measured error rides the benchmark artifact).
"""

import time
from collections import Counter

from benchmarks import gates
from benchmarks.conftest import peak_rss_mib, total_requests
from repro.ebid.schema import DatasetConfig
from repro.experiments import megascale
from repro.experiments.common import SingleNodeRig
from repro.sim.kernel import Kernel
from repro.sim.rng import RngRegistry
from repro.workload.cohort import CohortEngine

#: Standard-scale budgets (measured ≈70 s / ≈130 MiB on a 1-core sandbox).
STANDARD_WALL_BUDGET_S = 240.0
STANDARD_RSS_BUDGET_MIB = 768.0
#: Equivalence tolerances, same numbers tests/workload/test_cohort.py gates.
GAW_RELATIVE_TOLERANCE = 0.05
ACTION_MIX_ABSOLUTE_TOLERANCE = 0.02


def test_megascale_standard_scale_within_budgets():
    """Both arms at 1M sessions finish inside wall-clock + memory budgets."""
    started = time.perf_counter()
    _result, outcomes = megascale.run(seed=0, scale="bench", jobs=1)
    wall = time.perf_counter() - started
    rss = peak_rss_mib()

    for arm, o in outcomes.items():
        assert o["sessions"] >= 1_000_000, arm
        assert o["population"] == o["sessions"], (
            f"{arm}: session population not conserved"
        )
        assert o["availability"] is not None and o["availability"] > 0.99
    # The fault arm actually exercised the recovery + failover machinery.
    faulted = outcomes["shardfault"]
    assert faulted["recovery_actions"] > 0
    assert faulted["worst_shard"]["shard"] == faulted["fault_shard"]

    requests = total_requests(outcomes)
    payload = {
        "sessions": outcomes["steady"]["sessions"],
        "shards": outcomes["steady"]["shards"],
        "nodes": outcomes["steady"]["nodes"],
        "arms": len(outcomes),
        "requests": requests,
        "requests_per_sec": round(requests / wall),
        "wall_s": round(wall, 1),
        "wall_budget_s": STANDARD_WALL_BUDGET_S,
        "peak_rss_mib": round(rss, 1),
        "rss_budget_mib": STANDARD_RSS_BUDGET_MIB,
        "availability_steady": outcomes["steady"]["availability"],
        "availability_shardfault": faulted["availability"],
        "worst_shard_availability": faulted["worst_shard"]["availability"],
    }
    print(f"\nmegascale standard: {payload}")

    if gates.enabled():
        assert wall <= STANDARD_WALL_BUDGET_S, (
            f"megascale standard took {wall:.1f}s "
            f"(budget {STANDARD_WALL_BUDGET_S:.0f}s)"
        )
        assert rss <= STANDARD_RSS_BUDGET_MIB, (
            f"megascale standard peaked at {rss:.0f} MiB "
            f"(budget {STANDARD_RSS_BUDGET_MIB:.0f} MiB)"
        )
    gates.record("BENCH_scale.json", payload, "standard")


def test_megascale_smoke_determinism_and_regression():
    """Same seed ⇒ same payload; jobs=1 ≡ jobs=2; throughput regression."""
    started = time.perf_counter()
    result_a, outcomes_a = megascale.run(seed=0, scale="quick", jobs=1)
    wall = time.perf_counter() - started
    result_b, outcomes_b = megascale.run(seed=0, scale="quick", jobs=1)
    _result_p, outcomes_p = megascale.run(seed=0, scale="quick", jobs=2)

    assert outcomes_a == outcomes_b, "same seed must give the same payload"
    assert outcomes_a == outcomes_p, "jobs=1 and jobs=2 must agree exactly"
    # Rendered output is deterministic too, bar the final wall/RSS note.
    assert result_a.rows == result_b.rows
    assert result_a.notes[:-1] == result_b.notes[:-1]

    requests = total_requests(outcomes_a)
    throughput = round(requests / wall)
    payload = {
        "sessions": outcomes_a["steady"]["sessions"],
        "shards": outcomes_a["steady"]["shards"],
        "requests": requests,
        "requests_per_sec": throughput,
        "wall_s": round(wall, 2),
        "availability_steady": outcomes_a["steady"]["availability"],
        "availability_shardfault": outcomes_a["shardfault"]["availability"],
    }
    print(f"\nmegascale smoke: {payload}")

    if gates.enabled():
        gates.at_least(
            "megascale smoke requests_per_sec",
            throughput,
            gates.baseline("BENCH_scale.json", "smoke", "requests_per_sec"),
        )
    gates.record("BENCH_scale.json", payload, "smoke")


def test_small_n_equivalence_contract():
    """Cohort ↔ per-client equivalence, recorded into BENCH_scale.json."""
    n, duration = 150, 400.0
    rig = SingleNodeRig(
        seed=3,
        n_clients=n,
        dataset=DatasetConfig.tiny(),
        with_recovery_manager=False,
    )
    rig.start()
    rig.run_for(duration)
    pc = rig.metrics
    pc_gaw = pc.good_requests / duration
    mix = Counter(action.name for action in pc.actions)
    pc_mix = {name: c / sum(mix.values()) for name, c in mix.items()}
    mean_rt = pc.mean_response_time()

    kernel = Kernel()
    engine = CohortEngine(
        kernel, RngRegistry(3), lambda shard, op: (0.0, mean_rt), n, ["s0"]
    )
    engine.start(duration)
    kernel.run(until=duration)
    cohort_gaw = engine.metrics.good_requests / duration
    cohort_mix = engine.action_mix()

    gaw_diff = abs(cohort_gaw - pc_gaw) / pc_gaw
    mix_diff = max(
        abs(pc_mix.get(a, 0.0) - cohort_mix.get(a, 0.0))
        for a in set(pc_mix) | set(cohort_mix)
    )
    payload = {
        "n_clients": n,
        "duration_s": duration,
        "per_client_gaw_per_sec": round(pc_gaw, 3),
        "cohort_gaw_per_sec": round(cohort_gaw, 3),
        "gaw_relative_diff": round(gaw_diff, 4),
        "gaw_tolerance": GAW_RELATIVE_TOLERANCE,
        "max_action_mix_diff": round(mix_diff, 4),
        "action_mix_tolerance": ACTION_MIX_ABSOLUTE_TOLERANCE,
    }
    print(f"\nmegascale equivalence: {payload}")

    assert gaw_diff < GAW_RELATIVE_TOLERANCE
    assert mix_diff < ACTION_MIX_ABSOLUTE_TOLERANCE
    gates.record("BENCH_scale.json", payload, "equivalence")
