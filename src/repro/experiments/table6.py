"""Table 6: masking microreboots with HTTP/1.1 Retry-After (§6.2).

During a µRB the component's JNDI name is bound to a sentinel; idempotent
requests that hit the sentinel get ``503 Retry-After`` and the client
re-issues them once the component is back.  Optionally, a drain delay
between sentinel rebind and destruction lets in-flight requests complete.

Paper (averages over 10 trials): e.g. ViewItem 23 failed requests per µRB
with no retry, 16 with retry, 8 with delay & retry — retry masks roughly
half of the failures, the drain delay most of the rest.
"""

from repro.core.retry import RetryPolicy
from repro.experiments.common import ExperimentResult, SingleNodeRig
from repro.parallel import TrialSpec, run_campaign

PAPER = {
    "ViewItem": (23, 16, 8),
    "BrowseCategories": (20, 8, 0),
    "SearchItemsByCategory": (31, 15, 0),
    "Authenticate": (20, 9, 1),
}

MODES = (
    ("No retry", RetryPolicy.disabled()),
    ("Retry", RetryPolicy.retry_only()),
    ("Delay & retry", RetryPolicy.delay_and_retry()),
)


def run_mode(component, mode, seed, n_clients, trials, gap):
    """Average failed requests per µRB of ``component`` under the retry
    mode labelled ``mode``."""
    rig = SingleNodeRig(
        seed=seed,
        n_clients=n_clients,
        retry_policy=dict(MODES)[mode],
        with_recovery_manager=False,
    )
    rig.start(warmup=40.0)
    coordinator = rig.system.coordinator
    failures = []
    for _ in range(trials):
        rig.run_for(gap)
        before = rig.metrics.failed_requests
        rig.kernel.run_until_triggered(
            rig.kernel.process(coordinator.microreboot([component]))
        )
        rig.run_for(gap / 2)  # let retroactive action failures settle
        failures.append(rig.metrics.failed_requests - before)
    return sum(failures) / len(failures)


#: Clients, µRBs averaged per cell and the seconds between them, per scale.
SCALES = {
    "quick": {"n_clients": 200, "trials": 4, "gap": 12.0},
    "bench": {"n_clients": 200, "trials": 4, "gap": 12.0},
    "full": {"n_clients": 500, "trials": 10, "gap": 12.0},
}


def run(seed=0, scale="bench", jobs=1):
    """Sweep the paper's four components across the three retry modes.

    Each (component, mode) cell is one trial of a campaign, seeded
    ``seed + mode index``.
    """
    result = ExperimentResult(
        name="Masking microreboots with HTTP/1.1 Retry-After",
        paper_reference="Table 6",
        headers=(
            "Component", "paper (no/retry/delay)",
            "No retry", "Retry", "Delay & retry",
        ),
    )
    specs = [
        TrialSpec(
            task="repro.experiments.table6:run_mode",
            kwargs={"component": component, "mode": label, **SCALES[scale]},
            tag=f"{component}/{label}",
            seed=seed + mode_index,
        )
        for component in PAPER
        for mode_index, (label, _policy) in enumerate(MODES)
    ]
    averages = iter(trial.value for trial in run_campaign(specs, jobs=jobs))
    measured = {}
    for component in PAPER:
        row = [round(next(averages), 1) for _mode in MODES]
        measured[component] = tuple(row)
        result.rows.append(
            (component, "/".join(str(v) for v in PAPER[component]), *row)
        )
    result.notes.append(
        "expected ordering per component: no-retry >= retry >= delay&retry"
    )
    return result, measured
