"""Unit tests for the simulation kernel: clock, events, ordering."""

import pytest

from repro.sim import Event, Kernel, SimulationError


def test_clock_starts_at_zero():
    assert Kernel().now == 0.0


def test_timeout_advances_clock():
    kernel = Kernel()
    seen = []

    def proc():
        yield kernel.timeout(2.5)
        seen.append(kernel.now)

    kernel.process(proc())
    kernel.run()
    assert seen == [2.5]


def test_timeout_carries_value():
    kernel = Kernel()
    got = []

    def proc():
        value = yield kernel.timeout(1.0, value="payload")
        got.append(value)

    kernel.process(proc())
    kernel.run()
    assert got == ["payload"]


def test_negative_timeout_rejected():
    kernel = Kernel()
    with pytest.raises(SimulationError):
        kernel.timeout(-1.0)


def test_run_until_stops_clock_exactly():
    kernel = Kernel()

    def proc():
        while True:
            yield kernel.timeout(10.0)

    kernel.process(proc())
    kernel.run(until=25.0)
    assert kernel.now == 25.0


def test_run_until_does_not_process_later_events():
    kernel = Kernel()
    fired = []

    def proc():
        yield kernel.timeout(30.0)
        fired.append(kernel.now)

    kernel.process(proc())
    kernel.run(until=25.0)
    assert fired == []
    kernel.run(until=35.0)
    assert fired == [30.0]


def test_run_backwards_rejected():
    kernel = Kernel()
    kernel.run(until=10.0)
    with pytest.raises(SimulationError):
        kernel.run(until=5.0)


def test_same_time_events_fifo_order():
    kernel = Kernel()
    order = []

    def proc(tag):
        yield kernel.timeout(1.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        kernel.process(proc(tag))
    kernel.run()
    assert order == ["a", "b", "c"]


def test_event_succeed_resumes_waiter():
    kernel = Kernel()
    event = kernel.event()
    got = []

    def waiter():
        value = yield event
        got.append(value)

    def trigger():
        yield kernel.timeout(5.0)
        event.succeed(42)

    kernel.process(waiter())
    kernel.process(trigger())
    kernel.run()
    assert got == [42]


def test_event_fail_raises_in_waiter():
    kernel = Kernel()
    event = kernel.event()
    caught = []

    def waiter():
        try:
            yield event
        except ValueError as exc:
            caught.append(str(exc))

    def trigger():
        yield kernel.timeout(1.0)
        event.fail(ValueError("boom"))

    kernel.process(waiter())
    kernel.process(trigger())
    kernel.run()
    assert caught == ["boom"]


def test_event_double_trigger_rejected():
    kernel = Kernel()
    event = kernel.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)
    with pytest.raises(SimulationError):
        event.fail(RuntimeError("late"))


def test_event_fail_requires_exception():
    kernel = Kernel()
    with pytest.raises(SimulationError):
        kernel.event().fail("not an exception")


def test_value_before_trigger_rejected():
    kernel = Kernel()
    with pytest.raises(SimulationError):
        _ = kernel.event().value


def test_unhandled_failed_event_is_collected():
    kernel = Kernel()
    kernel.event().fail(RuntimeError("orphan"))
    kernel.run()
    assert len(kernel.unhandled_failures) == 1


def test_handled_failed_event_not_collected():
    kernel = Kernel()
    event = kernel.event()

    def waiter():
        try:
            yield event
        except RuntimeError:
            pass

    kernel.process(waiter())
    event.fail(RuntimeError("handled"))
    kernel.run()
    assert kernel.unhandled_failures == []


def test_peek_reports_next_event_time():
    kernel = Kernel()
    assert kernel.peek() == float("inf")
    kernel.timeout(3.0)
    assert kernel.peek() == 3.0


def test_step_on_empty_queue_rejected():
    with pytest.raises(SimulationError):
        Kernel().step()


def test_run_until_triggered_returns_value():
    kernel = Kernel()

    def proc():
        yield kernel.timeout(2.0)
        return "done"

    process = kernel.process(proc())
    assert kernel.run_until_triggered(process) == "done"
    assert kernel.now == 2.0


def test_run_until_triggered_raises_process_error():
    kernel = Kernel()

    def proc():
        yield kernel.timeout(1.0)
        raise KeyError("inside")

    process = kernel.process(proc())
    with pytest.raises(KeyError):
        kernel.run_until_triggered(process)


def test_run_until_triggered_respects_limit():
    kernel = Kernel()
    event = kernel.event()

    def late():
        yield kernel.timeout(100.0)
        event.succeed()

    kernel.process(late())
    with pytest.raises(SimulationError):
        kernel.run_until_triggered(event, limit=10.0)


def test_run_until_triggered_waits_for_a_pending_timeout():
    """A timeout has its value from birth but happens at its deadline."""
    kernel = Kernel()
    timer = kernel.timeout(5.0, value="v")
    assert kernel.run_until_triggered(timer) == "v"
    assert kernel.now == 5.0
    assert timer.callbacks is None  # processed, not merely valued
    assert kernel.peek() == float("inf")
    # Once processed, it has triggered: asking again returns at once.
    assert kernel.run_until_triggered(timer) == "v"
    assert kernel.now == 5.0


def test_run_until_triggered_refuses_a_retired_timeout():
    kernel = Kernel()
    timer = kernel.timeout(5.0, value="v")
    timer.cancel()
    with pytest.raises(SimulationError, match="cancelled"):
        kernel.run_until_triggered(timer)
    assert kernel.now == 0.0


def test_run_until_triggered_stops_at_limit_before_a_timeouts_deadline():
    kernel = Kernel()
    timer = kernel.timeout(5.0, value="v")
    with pytest.raises(SimulationError, match="did not trigger before"):
        kernel.run_until_triggered(timer, limit=2.0)
    assert kernel.now == 0.0
    assert kernel.run_until_triggered(timer, limit=5.0) == "v"  # inclusive


def test_any_of_triggers_on_first():
    """...and stops observing the sub-events still pending, so they do
    not hold the condition (and its value) until they fire."""
    kernel = Kernel()
    results = []
    pending = []

    def proc():
        first = kernel.timeout(1.0, value="fast")
        second = kernel.timeout(5.0, value="slow")
        pending.append(second)
        outcome = yield kernel.any_of([first, second])
        results.append((kernel.now, list(outcome.values())))

    kernel.process(proc())
    kernel.run(until=2.0)
    assert results == [(1.0, ["fast"])]
    assert pending[0].callbacks == []
    kernel.run()
    assert results == [(1.0, ["fast"])]


def test_all_of_waits_for_every_event():
    kernel = Kernel()
    results = []

    def proc():
        events = [kernel.timeout(t, value=t) for t in (1.0, 3.0, 2.0)]
        outcome = yield kernel.all_of(events)
        results.append((kernel.now, sorted(outcome.values())))

    kernel.process(proc())
    kernel.run()
    assert results == [(3.0, [1.0, 2.0, 3.0])]


def test_any_of_with_already_processed_event():
    kernel = Kernel()
    done = kernel.timeout(0.0, value="early")
    kernel.run(until=0.5)
    results = []

    pending = []

    def proc():
        pending.append(kernel.timeout(9.0))
        outcome = yield kernel.any_of([done, pending[0]])
        results.append(list(outcome.values()))

    kernel.process(proc())
    kernel.run(until=1.0)
    assert results == [["early"]]
    assert pending[0].callbacks == []  # triggered before it was attached


def test_all_of_empty_list_triggers_immediately():
    kernel = Kernel()
    results = []

    def proc():
        outcome = yield kernel.all_of([])
        results.append(outcome)

    kernel.process(proc())
    kernel.run()
    assert results == [{}]


def test_any_of_propagates_failure():
    kernel = Kernel()
    event = kernel.event()
    caught = []

    pending = []

    def proc():
        pending.append(kernel.timeout(10.0))
        try:
            yield kernel.any_of([event, pending[0]])
        except RuntimeError as exc:
            caught.append(str(exc))

    kernel.process(proc())
    event.fail(RuntimeError("sub-event failed"))
    kernel.run(until=1.0)
    assert caught == ["sub-event failed"]
    assert pending[0].callbacks == []
    kernel.run()
    assert caught == ["sub-event failed"]


def test_condition_rejects_foreign_kernel_events():
    kernel_a, kernel_b = Kernel(), Kernel()
    foreign = Event(kernel_b)
    with pytest.raises(SimulationError):
        kernel_a.any_of([foreign, kernel_a.event()])


# --- retiring timeouts that lost their race ----------------------------------

def test_cancelled_timeouts_leave_the_heap_unstepped():
    kernel = Kernel()
    timers = {t: kernel.timeout(t) for t in (1.0, 2.0, 3.0, 5.0, 4.0)}
    timers[1.0].cancel()
    timers[2.0].cancel()
    assert len(kernel._queue) == 5  # two of five retired: not compacted yet
    timers[3.0].cancel()
    assert len(kernel._queue) == 2  # retired outnumber live: compacted
    timers[3.0].cancel()  # already retired
    fired = []
    while kernel.peek() < float("inf"):
        kernel.step()
        fired.append(kernel.now)
    # Filtering [1, 2, 3, 5, 4] leaves [5, 4]: compaction must re-heapify.
    assert fired == [4.0, 5.0]
    assert kernel.events_processed == 2


def test_cancel_with_a_waiter_raises():
    kernel = Kernel()
    waited, raced = kernel.timeout(5.0), kernel.timeout(5.0)

    def proc():
        yield waited

    kernel.process(proc())
    kernel.any_of([raced, kernel.event()])
    kernel.run(until=1.0)
    for timer in (waited, raced):
        with pytest.raises(SimulationError, match="it has waiters"):
            timer.cancel()


def test_waiting_on_a_retired_timeout_raises():
    kernel = Kernel()
    retired, reply = kernel.timeout(5.0), kernel.event()
    retired.cancel()
    with pytest.raises(SimulationError, match="retired timeout"):
        kernel.any_of([reply, retired])

    def proc():
        yield retired

    process = kernel.process(proc())
    reply.succeed()  # wakes the refused condition, which detaches cleanly
    kernel.run()
    assert process.ok is False
    assert isinstance(process.value, SimulationError)


def test_cancel_after_firing_or_when_due_does_nothing():
    kernel = Kernel()
    first, second = kernel.timeout(1.0), kernel.timeout(1.0)
    # Both are laned when the clock reaches 1.0, so the second is due when
    # the first's callback cancels it, and still fires.
    first.callbacks.append(lambda _event: second.cancel())
    kernel.run()
    assert second.callbacks is None
    first.cancel()  # already fired
    due = kernel.timeout(0.0, value="due")
    due.cancel()  # due at once: already in the ready lane
    waited = kernel.all_of([due])  # so it may still be waited on
    kernel.run()
    assert waited.value == {due: "due"}
    assert kernel.events_processed == 4


def test_peek_and_step_skip_retired_entries_at_the_head():
    kernel = Kernel()
    early, late = kernel.timeout(1.0), kernel.timeout(2.0, value="late")
    early.cancel()
    assert kernel._queue[0][2] is early  # one of two retired: kept
    assert kernel.peek() == 2.0
    kernel.step()
    assert kernel.now == 2.0
    assert late.callbacks is None
    assert kernel.peek() == float("inf")
    late_retired = kernel.timeout(3.0)
    late_retired.cancel()
    with pytest.raises(SimulationError, match="empty event queue"):
        kernel.step()
