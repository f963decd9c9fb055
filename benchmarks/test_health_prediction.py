"""Bench: health prediction — passivity, lead time, proactive gate.

Runs the quick-sized prediction campaign (reactive / shadow / proactive
arms on an identical leak-heavy fault schedule) twice — ``--jobs 1`` and
``--jobs 2`` must render byte-identical tables — and gates the
predictive stack's whole value proposition:

* **passivity** — the shadow arm (full prediction stack, policy never
  acts) must produce exactly the reactive arm's workload outcome: the
  observability layer observes without perturbing;
* **lead time** — the shadow arm's alerts must precede the incidents
  they predict (positive median lead);
* **proactive wins** — the acting arm must beat reactive with strictly
  fewer failed requests AND strictly fewer coarse (WAR-and-above)
  restarts: prediction turns OOM outages into cheap preemptive µRBs;
* **overhead** — the prediction stack (estimators, health registry,
  alert engine, heap monitors) must cost < 10% wall time versus the
  bare reactive rig (best-of-N timing to shave scheduler noise).

The measured numbers are recorded in ``BENCH_health.json``; the
committed baseline doubles as a 10% regression gate on the proactive
arm.
"""

import time

from benchmarks import gates
from repro.experiments import health_prediction
from repro.experiments.health_prediction import coarse_actions, run_one_arm

SEED = 0
#: Observability overhead ceiling: shadow arm vs reactive arm wall time.
MAX_OVERHEAD = 0.10
#: Timing repetitions (minimum taken) for the overhead measurement.
TIMING_REPS = 3


def _quick(jobs):
    result, outcomes = health_prediction.run(
        seed=SEED, scale="quick", jobs=jobs
    )
    return result.render(), outcomes


def _measure_overhead():
    """Shadow-vs-reactive wall-time fraction, noise-hardened.

    The two arms are interleaved (A B A B ...) so a background load
    spike hits both measurements, and each arm's *minimum* is used —
    the minimum is the run least disturbed by the scheduler, which is
    the quantity the overhead ceiling is actually about.
    """
    walls = {"reactive": [], "shadow": []}
    for _ in range(TIMING_REPS):
        for arm in walls:
            started = time.perf_counter()
            run_one_arm(arm, seed=SEED, **health_prediction.SCALES["quick"])
            walls[arm].append(time.perf_counter() - started)
    reactive, shadow = min(walls["reactive"]), min(walls["shadow"])
    return (shadow - reactive) / reactive


def test_health_prediction_determinism_and_gates():
    sequential_text, outcomes = _quick(jobs=1)
    parallel_text, _ = _quick(jobs=2)

    assert parallel_text == sequential_text, (
        "prediction campaign output must be byte-identical between "
        "--jobs 1 and --jobs 2"
    )

    reactive = outcomes["reactive"]
    shadow = outcomes["shadow"]
    proactive = outcomes["proactive"]

    overhead = _measure_overhead()

    payload = {
        "spec": "quick",
        "seed": SEED,
        "reactive": {
            "failed_requests": reactive["failed_requests"],
            "recovery_actions": reactive["recovery_actions"],
            "coarse_actions": coarse_actions(reactive),
            "availability": reactive["availability"],
        },
        "shadow": {
            "alerts_fired": shadow["alerts_fired"],
            "median_alert_lead_s": shadow["median_alert_lead"],
            "warned_incidents": len(shadow["alert_lead_times"] or []),
        },
        "proactive": {
            "failed_requests": proactive["failed_requests"],
            "recovery_actions": proactive["recovery_actions"],
            "coarse_actions": coarse_actions(proactive),
            "preemptive_actions": proactive["preemptive_actions"],
            "availability": proactive["availability"],
        },
        "overhead_fraction": round(overhead, 4),
    }
    print(f"\nhealth-prediction: {payload}")

    if gates.enabled():
        # Passivity: the shadow arm's workload outcome is the reactive arm's.
        for key in ("good_requests", "failed_requests", "recovery_actions",
                    "availability", "actions_by_level"):
            assert shadow[key] == reactive[key], (
                f"shadow arm perturbed the run it watched: {key} is "
                f"{shadow[key]} vs reactive {reactive[key]}"
            )

        # Lead time: alerts genuinely precede the incidents they predict.
        assert shadow["alerts_fired"] > 0, "shadow arm fired no alerts"
        assert shadow["median_alert_lead"] is not None and (
            shadow["median_alert_lead"] > 0
        ), (
            f"median alert lead must be positive, got "
            f"{shadow['median_alert_lead']}"
        )

        # The headline: prediction must win on both axes, strictly.
        assert proactive["failed_requests"] < reactive["failed_requests"], (
            f"proactive arm failed {proactive['failed_requests']} requests, "
            f"reactive {reactive['failed_requests']} — prediction must "
            "strictly reduce failures"
        )
        assert coarse_actions(proactive) < coarse_actions(reactive), (
            f"proactive arm ran {coarse_actions(proactive)} coarse "
            f"restarts, reactive {coarse_actions(reactive)} — prediction "
            "must strictly reduce WAR-and-above restarts"
        )
        assert proactive["preemptive_actions"] > 0, (
            "proactive arm dispatched no preemptive µRBs — the win above "
            "would be an accident, not prediction"
        )

        # Overhead: watching must stay cheap.
        assert overhead < MAX_OVERHEAD, (
            f"prediction stack costs {overhead:.1%} wall time over the bare "
            f"reactive rig (limit {MAX_OVERHEAD:.0%})"
        )

        # Regression gate against the committed baseline.
        for key in ("failed_requests", "coarse_actions"):
            gates.at_most(
                f"proactive {key}",
                payload["proactive"][key],
                gates.baseline("BENCH_health.json", "proactive", key),
            )
    gates.record("BENCH_health.json", payload)
