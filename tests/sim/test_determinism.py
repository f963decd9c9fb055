"""The kernel contracts the parallel campaign runner rests on.

``repro.parallel`` promises byte-identical output between ``jobs=1`` and
``jobs=N``.  That promise reduces to kernel-level determinism: FIFO order
for same-timestamp events, an inclusive ``run_until_triggered`` limit, and
identical seeds producing identical traces in whatever process runs them.
These tests pin each contract down so hot-path rewrites cannot silently
bend them.
"""

import pytest

from repro.parallel.demo import simulate_trial
from repro.sim.errors import SimulationError
from repro.sim.kernel import INFINITY, Kernel


# --- same-timestamp FIFO ordering -------------------------------------------

def test_same_timestamp_events_fire_in_scheduling_order():
    kernel = Kernel()
    order = []
    for label in "abcdef":
        event = kernel.event()
        event.callbacks.append(lambda _e, label=label: order.append(label))
        event.succeed()
    kernel.run()
    assert order == list("abcdef")


def test_same_deadline_timeouts_fire_in_creation_order():
    kernel = Kernel()
    order = []

    def sleeper(tag):
        yield kernel.timeout(5.0)
        order.append(tag)

    for tag in range(10):
        kernel.process(sleeper(tag))
    kernel.run()
    assert order == list(range(10))


def test_fifo_survives_interleaved_immediate_and_delayed_events():
    kernel = Kernel()
    order = []

    def now_then_later(tag):
        yield kernel.timeout(0.0)
        order.append(("now", tag))
        yield kernel.timeout(1.0)
        order.append(("later", tag))

    for tag in range(4):
        kernel.process(now_then_later(tag))
    kernel.run()
    assert order == [("now", t) for t in range(4)] + \
        [("later", t) for t in range(4)]


def test_step_and_run_agree_on_ordering():
    def build():
        kernel = Kernel()
        seen = []

        def proc(tag):
            yield kernel.timeout(1.0)
            seen.append((tag, kernel.now))
            yield kernel.timeout(1.0)
            seen.append((tag, kernel.now))

        for tag in range(5):
            kernel.process(proc(tag))
        return kernel, seen

    kernel_a, seen_a = build()
    kernel_a.run()
    kernel_b, seen_b = build()
    while kernel_b.peek() != INFINITY:
        kernel_b.step()
    assert seen_a == seen_b
    assert kernel_a.events_processed == kernel_b.events_processed


def test_timeout_due_at_t_runs_before_events_triggered_at_t():
    # Timeouts scheduled before T (at 0 and at 0.5) and due at T precede
    # everything triggered at T, even an event triggered by the first of
    # them: the same (time, seq) order a single heap gives.
    kernel = Kernel()
    order = []
    signal = kernel.event()
    signal.callbacks.append(lambda _e: order.append("signal"))

    def first():
        yield kernel.timeout(1.0)
        order.append("first")
        signal.succeed()
        kernel.process(spawned())

    def spawned():
        order.append("spawned")
        yield kernel.timeout(0.0)
        order.append("spawned+0")

    def late():
        yield kernel.timeout(0.5)
        yield kernel.timeout(0.5)
        order.append("late")

    kernel.process(first())
    kernel.process(late())
    kernel.run()
    assert order == ["first", "late", "signal", "spawned", "spawned+0"]


def test_peek_is_now_while_events_are_due_at_once():
    kernel = Kernel()
    kernel.run(until=2.0)
    kernel.timeout(5.0)
    assert kernel.peek() == 7.0
    kernel.event().succeed()
    assert kernel.peek() == 2.0
    kernel.step()
    assert kernel.peek() == 7.0


def test_run_until_triggered_drains_due_events_without_future_ones():
    kernel = Kernel()
    done = kernel.event().succeed("now")
    assert kernel.peek() == kernel.now
    assert kernel.run_until_triggered(done, limit=0.0) == "now"

    def immediate():
        return "at once"
        yield  # pragma: no cover - makes this a generator

    proc = kernel.process(immediate())
    assert kernel.run_until_triggered(proc) == "at once"
    assert kernel.peek() == 0.0  # its completion is due, not yet processed
    kernel.run()
    assert kernel.peek() == INFINITY


# --- run_until_triggered limit boundary -------------------------------------

def test_run_until_triggered_at_exactly_the_limit_triggers():
    # The completion event lands at exactly t == limit; the boundary is
    # inclusive, so it still triggers.
    kernel = Kernel()

    def sleeper():
        yield kernel.timeout(10.0)
        return "on-time"

    proc = kernel.process(sleeper())
    assert kernel.run_until_triggered(proc, limit=10.0) == "on-time"
    assert kernel.now == 10.0


def test_run_until_triggered_just_past_the_limit_raises():
    kernel = Kernel()

    def sleeper():
        yield kernel.timeout(10.0 + 1e-9)

    proc = kernel.process(sleeper())
    with pytest.raises(SimulationError, match="did not trigger"):
        kernel.run_until_triggered(proc, limit=10.0)
    assert not proc.triggered  # the pending process was left untouched


def test_run_until_triggered_drained_queue_raises():
    kernel = Kernel()
    event = kernel.event()  # never succeeds, nothing else scheduled
    with pytest.raises(SimulationError, match="queue drained"):
        kernel.run_until_triggered(event)


# --- identical seed => identical trace ---------------------------------------

def test_identical_seeds_reproduce_the_event_log_exactly():
    runs = [simulate_trial(seed=42, clients=5, requests=8) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]
    assert runs[0]["events_processed"] > 0


def test_different_seeds_diverge():
    digests = {
        simulate_trial(seed=seed, clients=5, requests=8)["log_digest"]
        for seed in range(5)
    }
    assert len(digests) == 5


def test_jobs1_vs_jobsN_trace_identical():
    # The cross-process version of the contract: the same spec list run
    # sequentially and on a spawn pool yields identical digests.
    from repro.parallel import TrialSpec, run_campaign

    specs = [
        TrialSpec(task="repro.parallel.demo:simulate_trial",
                  kwargs={"clients": 3, "requests": 5}, tag=f"t{i}", seed=i)
        for i in range(4)
    ]
    sequential = [r.value["log_digest"] for r in run_campaign(specs, jobs=1)]
    pooled = [r.value["log_digest"] for r in run_campaign(specs, jobs=2)]
    assert pooled == sequential


# --- bookkeeping: events_processed and bounded unhandled failures ------------

def test_events_processed_counts_every_step():
    kernel = Kernel()

    def proc():
        yield kernel.timeout(1.0)
        yield kernel.timeout(1.0)

    kernel.process(proc())
    kernel.run()
    # start event + two timeouts + process completion event
    assert kernel.events_processed == 4


def test_unhandled_failures_retention_is_bounded():
    kernel = Kernel()
    n = kernel.UNHANDLED_RETENTION + 50
    for i in range(n):
        kernel.event().fail(RuntimeError(f"boom-{i}"))
    kernel.run()
    assert kernel.unhandled_failure_count == n
    assert len(kernel.unhandled_failures) == kernel.UNHANDLED_RETENTION
    # The *earliest* failures are the ones kept for debugging.
    first = kernel.unhandled_failures[0]._value
    assert str(first) == "boom-0"


def test_handled_failures_do_not_count_as_unhandled():
    kernel = Kernel()

    def handler():
        try:
            yield kernel.event().fail(RuntimeError("caught"))
        except RuntimeError:
            pass

    kernel.process(handler())
    kernel.run()
    assert kernel.unhandled_failure_count == 0
    assert kernel.unhandled_failures == []
