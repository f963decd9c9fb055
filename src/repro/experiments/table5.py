"""Table 5: fault-free performance impact of the µRB modifications.

Four configurations: original vs microreboot-enabled server, crossed with
in-JVM (FastS) vs external (SSM) session state.  Paper: throughput varies
<2% (within the margin of error); latency rises 70-90% with SSM because of
marshalling plus the network round trip, which matters little against the
~100 ms human-perceptible threshold.

In our substrate the µRB modifications (sentinel check on lookup, lifecycle
bookkeeping) have no modeled cost — consistent with the paper's finding
that they are within noise — so the "JBoss vs JBossµRB" pairs differ only
by run-to-run jitter, while the FastS/SSM pairs differ structurally.
"""

from repro.experiments.common import ExperimentResult, SingleNodeRig
from repro.parallel import TrialSpec, run_campaign

PAPER = {
    ("JBoss", "fasts"): (72.09, 15.02),
    ("JBossµRB", "fasts"): (72.42, 16.08),
    ("JBoss", "ssm"): (71.63, 28.43),
    ("JBossµRB", "ssm"): (70.86, 27.69),
}

CONFIGS = (
    ("JBoss", "fasts"),
    ("JBossµRB", "fasts"),
    ("JBoss", "ssm"),
    ("JBossµRB", "ssm"),
)


def run_one(server_variant, store, seed, n_clients, duration):
    # The variants differ only in whether the µRB machinery is armed; a
    # different seed component keeps their jitter independent, as two
    # separate testbed runs would be.
    rig = SingleNodeRig(
        seed=seed + (1 if server_variant == "JBossµRB" else 0),
        n_clients=n_clients,
        session_store=store,
        with_recovery_manager=(server_variant == "JBossµRB"),
    )
    rig.start(warmup=60.0)
    start_good = rig.metrics.good_requests
    start_time = rig.kernel.now
    rig.run_for(duration)
    completed = rig.metrics.good_requests - start_good
    throughput = completed / (rig.kernel.now - start_time)
    window_rts = [
        rt for t, rt in rig.metrics.response_times if t >= start_time
    ]
    latency = sum(window_rts) / len(window_rts) if window_rts else 0.0
    return throughput, latency


#: Clients and the measured window after a 60 s warm-up, per scale.
SCALES = {
    "quick": {"n_clients": 500, "duration": 180.0},
    "bench": {"n_clients": 500, "duration": 300.0},
    "full": {"n_clients": 500, "duration": 600.0},
}


def run(seed=0, scale="bench", jobs=1):
    """Measure all four configurations, one trial each."""
    result = ExperimentResult(
        name="Fault-free performance: µRB modifications and session stores",
        paper_reference="Table 5",
        headers=(
            "Configuration", "paper req/s", "measured req/s",
            "paper latency (ms)", "measured latency (ms)",
        ),
    )
    specs = [
        TrialSpec(
            task="repro.experiments.table5:run_one",
            kwargs={"server_variant": variant, "store": store,
                    **SCALES[scale]},
            tag=f"{variant}/{store}",
            seed=seed,
        )
        for variant, store in CONFIGS
    ]
    measured = {
        config: trial.value
        for config, trial in zip(CONFIGS, run_campaign(specs, jobs=jobs))
    }
    for variant, store in CONFIGS:
        throughput, latency = measured[(variant, store)]
        paper_tp, paper_lat = PAPER[(variant, store)]
        store_label = "FastS" if store == "fasts" else "SSM"
        result.rows.append(
            (
                f"{variant} + eBid{store_label}",
                paper_tp,
                round(throughput, 2),
                paper_lat,
                round(latency * 1000, 2),
            )
        )
    fasts_lat = measured[("JBossµRB", "fasts")][1]
    ssm_lat = measured[("JBossµRB", "ssm")][1]
    if fasts_lat:
        result.notes.append(
            f"SSM latency penalty: +{100 * (ssm_lat / fasts_lat - 1):.0f}% "
            "(paper: +70-90%)"
        )
    return result, measured
