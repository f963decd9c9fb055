"""Figure 6: averting leak-induced failures with microrejuvenation (§6.4).

Memory leaks are injected in two components: ViewItem (a frequently-called
stateless session bean, 250 KB/invocation) and Item (an entity bean inside
the long-recovering EntityGroup, 2 KB/invocation).  The rejuvenation
service watches available heap; below ``Malarm`` (35% of the 1 GB heap) it
microreboots components in a rolling fashion until ``Msufficient`` (80%)
is available, learning which components release the most memory.

Paper: whole-JVM rejuvenation failed 11,915 requests over the 30-minute
run; microrejuvenation failed 1,383 — an order of magnitude better — and
good Taw never dropped to zero.
"""

from repro.core.rejuvenation import RejuvenationService
from repro.experiments.common import ExperimentResult, SingleNodeRig
from repro.experiments.plotting import ascii_timeseries
from repro.parallel import run_arms

KB = 1024

SCHEMES = ("jvm-restart", "microrejuvenation")

#: Both schemes act when free heap drops below this share of capacity
#: (``Malarm``), checking every ``CHECK_INTERVAL`` seconds.
M_ALARM_FRACTION = 0.35
CHECK_INTERVAL = 5.0


class JvmRejuvenator:
    """The baseline: whole-JVM restart whenever memory runs low."""

    def __init__(self, kernel, node):
        self.kernel = kernel
        self.node = node
        self.restarts = 0
        self.memory_samples = []

    def start(self):
        return self.kernel.process(self._run(), name="jvm-rejuvenator")

    def _run(self):
        heap = self.node.server.heap
        while True:
            yield self.kernel.timeout(CHECK_INTERVAL)
            self.memory_samples.append((self.kernel.now, heap.available))
            if heap.available < heap.capacity * M_ALARM_FRACTION:
                yield from self.node.restart_jvm()
                self.restarts += 1
                self.memory_samples.append((self.kernel.now, heap.available))


def run_one(scheme, seed, n_clients, duration, item_leak, viewitem_leak):
    rig = SingleNodeRig(
        seed=seed, n_clients=n_clients, with_recovery_manager=False
    )
    rig.injector.inject_memory_leak("Item", item_leak)
    rig.injector.inject_memory_leak("ViewItem", viewitem_leak)

    if scheme == "microrejuvenation":
        service = RejuvenationService(
            rig.kernel,
            rig.system.coordinator,
            m_alarm_fraction=M_ALARM_FRACTION,
            m_sufficient_fraction=0.80,
            check_interval=CHECK_INTERVAL,
        )
    else:
        service = JvmRejuvenator(rig.kernel, rig.node)
    service.start()
    rig.start()
    rig.run_for(duration)

    good_series = rig.metrics.good_taw_series()
    zero_good_seconds = sum(
        1
        for second in range(int(duration))
        if good_series.get(second, 0) == 0
    )
    return {
        "scheme": scheme,
        "failed_requests": rig.metrics.failed_requests,
        "good_requests": rig.metrics.good_requests,
        "memory_timeline": list(service.memory_samples),
        "zero_good_seconds": zero_good_seconds,
        "microreboots": getattr(service, "microreboots_performed", 0),
        "jvm_restarts": getattr(
            service, "jvm_restarts_performed", getattr(service, "restarts", 0)
        ),
        "rejuvenation_order": list(getattr(service, "candidates", []))[:3],
    }


#: Clients, run length and the per-invocation leaks in Item and ViewItem
#: (bytes), per scale.  The short scales leak faster, so the heap still
#: runs low within the run.
SCALES = {
    "quick": {"n_clients": 200, "duration": 600.0, "item_leak": 2 * KB,
              "viewitem_leak": 1800 * KB},
    "bench": {"n_clients": 200, "duration": 600.0, "item_leak": 2 * KB,
              "viewitem_leak": 1800 * KB},
    "full": {"n_clients": 500, "duration": 1800.0, "item_leak": 2 * KB,
             "viewitem_leak": 250 * KB},
}


def run(seed=0, scale="bench", jobs=1):
    """Leaking under both rejuvenation schemes (30 minutes at full scale)."""
    result = ExperimentResult(
        name="Available memory and lost work under rejuvenation",
        paper_reference="Figure 6 (paper: 11,915 vs 1,383 failed requests)",
        headers=(
            "scheme", "failed reqs", "good reqs", "rejuvenation events",
            "seconds with zero goodput",
        ),
    )
    outcomes = run_arms(
        "repro.experiments.figure6:run_one",
        SCHEMES,
        SCALES[scale],
        seed,
        jobs,
        key="scheme",
    )
    for scheme in SCHEMES:
        outcome = outcomes[scheme]
        events = (
            outcome["microreboots"]
            if scheme == "microrejuvenation"
            else outcome["jvm_restarts"]
        )
        result.rows.append(
            (
                scheme,
                outcome["failed_requests"],
                outcome["good_requests"],
                events,
                outcome["zero_good_seconds"],
            )
        )
        result.series[f"memory:{scheme}"] = dict(outcome["memory_timeline"])
        result.figures[f"available memory, {scheme}"] = ascii_timeseries(
            {t: mem / (1024 * 1024) for t, mem in outcome["memory_timeline"]},
            label="MB ", height=8,
        )
    urb = outcomes["microrejuvenation"]
    result.notes.append(
        "after the first rolling sweep the biggest leakers lead the "
        f"candidate list: {urb['rejuvenation_order']}"
    )
    return result, outcomes
