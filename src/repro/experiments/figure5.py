"""Figure 5: cheap recovery relaxes failure detection (§6.3).

Left graph: a fault is injected in the most-frequently called EJB
(BrowseCategories) and recovery is *delayed* by Tdet seconds, then
performed either as a µRB or a JVM restart.  The paper's dotted line shows
that with µRB-based recovery a monitor may take up to ≈53.5 s to detect the
failure and still beat JVM restarts with instantaneous detection.

Right graph: false positives cost one useless recovery each.  With ≈3,917
failed requests per JVM restart and ≈78 per µRB, microreboot-based recovery
tolerates false-positive rates up to ≈98% before it is worse than restarts
with perfect detection.
"""

from repro.experiments.common import ExperimentResult, SingleNodeRig
from repro.parallel import TrialSpec, run_campaign

#: Clients and the detection delays swept (seconds), per scale.
SCALES = {
    "quick": {"n_clients": 150, "t_dets": (0.0, 2.0, 10.0, 40.0, 80.0)},
    "bench": {"n_clients": 150, "t_dets": (0.0, 2.0, 10.0, 40.0, 80.0)},
    "full": {
        "n_clients": 500,
        "t_dets": (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 60.0, 80.0, 100.0),
    },
}


#: Seconds each delay point runs on after its recovery.
SETTLE = 45.0

#: The false-positive series counts up to this many useless recoveries.
MAX_USELESS_RECOVERIES = 200


def run_delay_point(recovery, t_det, seed, n_clients):
    """Failed requests when recovery happens ``t_det`` s after injection."""
    rig = SingleNodeRig(
        seed=seed, n_clients=n_clients, with_recovery_manager=False
    )
    rig.start(warmup=30.0)
    before = rig.metrics.failed_requests
    rig.injector.inject_transient_exception("BrowseCategories")
    rig.run_for(t_det)

    def recover():
        if recovery == "microreboot":
            yield from rig.system.coordinator.microreboot(["BrowseCategories"])
        else:
            yield from rig.node.restart_jvm()

    rig.kernel.run_until_triggered(rig.kernel.process(recover()))
    rig.run_for(SETTLE)
    return rig.metrics.failed_requests - before


def detection_crossover(series_restart, series_urb):
    """Largest Tdet where µRB still beats restart-with-Tdet=0."""
    budget = series_restart[0.0]
    crossover = None
    for t_det in sorted(series_urb):
        if series_urb[t_det] <= budget:
            crossover = t_det
    return crossover, budget


def false_positive_series(failed_per_restart, failed_per_urb):
    """f(n) = failures from n useless recoveries + one useful one."""
    ns = range(MAX_USELESS_RECOVERIES + 1)
    restart = {n: (n + 1) * failed_per_restart for n in ns}
    urb = {n: (n + 1) * failed_per_urb for n in ns}
    # Largest n for which n useless µRBs + 1 useful µRB still beat one
    # perfect-detection restart; FP rate = n/(n+1).
    tolerable_n = max(
        (n for n in urb if urb[n] <= failed_per_restart), default=0
    )
    tolerable_fp = tolerable_n / (tolerable_n + 1) if tolerable_n else 0.0
    return restart, urb, tolerable_fp


def run(seed=0, scale="bench", jobs=1):
    """Both graphs of Figure 5."""
    size = SCALES[scale]
    t_dets = size["t_dets"]

    left = {"microreboot": {}, "process-restart": {}}
    arms = [
        (recovery, t_det) for recovery in left for t_det in t_dets
    ]
    specs = [
        TrialSpec(
            task="repro.experiments.figure5:run_delay_point",
            kwargs={
                "recovery": recovery,
                "t_det": t_det,
                "n_clients": size["n_clients"],
            },
            tag=f"{recovery}/Tdet={t_det}",
            seed=seed,
        )
        for recovery, t_det in arms
    ]
    trials = run_campaign(specs, jobs=jobs)
    for (recovery, t_det), trial in zip(arms, trials):
        left[recovery][t_det] = trial.value

    crossover, budget = detection_crossover(
        left["process-restart"], left["microreboot"]
    )
    restart_fp, urb_fp, tolerable_fp = false_positive_series(
        failed_per_restart=left["process-restart"][0.0],
        failed_per_urb=max(left["microreboot"][0.0], 1),
    )

    result = ExperimentResult(
        name="Relaxing failure detection with cheap recovery",
        paper_reference="Figure 5 (paper: ≈53.5 s detection headroom; ≈98% FP tolerance)",
        headers=("Tdet (s)", "restart: failed reqs", "µRB: failed reqs"),
    )
    for t_det in t_dets:
        result.rows.append(
            (
                t_det,
                left["process-restart"][t_det],
                left["microreboot"][t_det],
            )
        )
    result.series["fp:restart"] = restart_fp
    result.series["fp:microreboot"] = urb_fp
    result.notes.append(
        f"µRB recovery beats Tdet=0 restarts (budget {budget} failed "
        f"requests) for detection delays up to ≈{crossover} s"
    )
    result.notes.append(
        f"tolerable false-positive rate with µRBs: {100 * tolerable_fp:.1f}%"
    )
    return result, {
        "left": left,
        "crossover": crossover,
        "tolerable_fp": tolerable_fp,
    }
