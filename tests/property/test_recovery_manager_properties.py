"""Property-based tests: every recovery the RM decides on completes once.

Whatever mix of failure reports, preemptions, waits and failing
microreboots reaches it, under either scheduler and with or without
hardening, the recovery manager must leave no loose ends once the kernel
drains: no process died, every storm-limiter slot came back, nothing is
still in flight, and decisions, completions and recorded actions pair up
one to one.
"""

from hypothesis import given, settings, strategies as st

from repro.core import (
    FailureKind,
    FailureReport,
    HardeningPolicy,
    RecoveryManager,
    RecoveryStormLimiter,
)
from tests.toyapp import URL_PATH_MAP, build_toy_system
from tests.tracing import record

KINDS = (
    FailureKind.HTTP_ERROR,
    FailureKind.RESOURCE_EXHAUSTION,
    FailureKind.APP_SPECIFIC,
)
#: Every toy component plus one name the server does not know.
PREEMPT_TARGETS = ("Account", "Ledger", "Audit", "Transfer", "Greeter",
                   "ToyWAR", "NoSuchBean")

steps = st.one_of(
    st.tuples(
        st.just("burst"),
        st.sampled_from(sorted(URL_PATH_MAP)),
        st.sampled_from(KINDS),
        st.integers(min_value=1, max_value=4),
    ),
    st.tuples(st.just("preempt"), st.sampled_from(PREEMPT_TARGETS)),
    st.tuples(st.just("wait"), st.floats(min_value=0.0, max_value=60.0)),
    st.tuples(st.just("break"), st.booleans()),
)


def failing_microreboot(names, level="ejb"):
    raise RuntimeError(f"injected {level} microreboot failure")
    yield  # pragma: no cover - makes this a generator like the real one


@settings(max_examples=60, deadline=None)
@given(
    scheduler=st.sampled_from(("serial", "parallel")),
    hardened=st.booleans(),
    limit=st.integers(min_value=1, max_value=3),
    plan=st.lists(steps, max_size=25),
)
def test_every_decided_recovery_completes_once(scheduler, hardened, limit, plan):
    system = build_toy_system()
    kernel = system.kernel
    kernel.trace.enabled = True
    decisions = record(kernel.trace, "rm.decision")
    ends = record(kernel.trace, "rm.action.end")
    limiter = RecoveryStormLimiter(kernel, limit=limit)
    rm = RecoveryManager(
        kernel,
        system.coordinator,
        URL_PATH_MAP,
        scheduler=scheduler,
        hardening=(
            HardeningPolicy.hardened() if hardened
            else HardeningPolicy.disabled()
        ),
        storm_limiter=limiter,
    )
    rm.start()

    def run_plan():
        for step in plan:
            if step[0] == "burst":
                _, url, kind, n = step
                for _ in range(n):
                    rm.report(FailureReport(
                        time=kernel.now, url=url,
                        operation=url.rsplit("/", 1)[-1], kind=kind,
                    ))
            elif step[0] == "preempt":
                rm.preempt(step[1])
            elif step[0] == "wait":
                yield kernel.timeout(step[1])
            elif step[1]:
                system.coordinator.microreboot = failing_microreboot
            else:
                vars(system.coordinator).pop("microreboot", None)

    kernel.process(run_plan(), name="plan")
    kernel.run()

    assert kernel.unhandled_failure_count == 0, kernel.unhandled_failures
    assert limiter.active == 0
    assert not rm.recovering
    assert len(decisions) == len(ends) == len(rm.actions)
    assert all(a.finished_at >= a.decided_at for a in rm.actions)
