"""Property-based tests on the simulation kernel and core structures."""

import heapq

from hypothesis import example, given, settings, strategies as st

from repro.appserver.memory import HeapModel
from repro.sim import Interrupt, Kernel
from repro.sim.kernel import INFINITY
from repro.stores.leases import LeaseTable


@settings(max_examples=100, deadline=None)
@given(delays=st.lists(st.floats(min_value=0, max_value=1000), max_size=40))
def test_events_fire_in_nondecreasing_time_order(delays):
    kernel = Kernel()
    fired = []

    def waiter(delay):
        yield kernel.timeout(delay)
        fired.append(kernel.now)

    for delay in delays:
        kernel.process(waiter(delay))
    kernel.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@settings(max_examples=100, deadline=None)
@given(
    delays=st.lists(
        st.floats(min_value=0, max_value=100), min_size=1, max_size=20
    ),
    split=st.floats(min_value=0, max_value=100),
)
def test_run_until_is_equivalent_to_one_run(delays, split):
    """Splitting a run at an arbitrary time must not change the outcome."""

    def build():
        kernel = Kernel()
        fired = []

        def waiter(delay):
            yield kernel.timeout(delay)
            fired.append(round(kernel.now, 9))

        for delay in delays:
            kernel.process(waiter(delay))
        return kernel, fired

    one_kernel, one_fired = build()
    one_kernel.run(until=200.0)

    two_kernel, two_fired = build()
    two_kernel.run(until=split)
    two_kernel.run(until=200.0)

    assert one_fired == two_fired


# --- the ready lane against a heap-only reference ---------------------------

class _HeapLane:
    """Stands in for the kernel's ready lane: files every event that is due
    at once into the heap, stamped (now, next sequence number)."""

    def __init__(self, kernel):
        self.kernel = kernel

    def __bool__(self):
        return False

    def append(self, event):
        kernel = self.kernel
        heapq.heappush(
            kernel._queue, (kernel._now, next(kernel._sequence), event)
        )


class HeapOnlyKernel(Kernel):
    """Reference kernel: one heap orders every event by (time, scheduling
    order), one pop per step.  A cancelled timeout stays live and is
    stepped as a no-op."""

    def __init__(self):
        super().__init__()
        self._ready = _HeapLane(self)

    def _retire(self, timeout):
        pass

    def peek(self):
        return self._queue[0][0] if self._queue else INFINITY

    def step(self):
        when, _seq, event = heapq.heappop(self._queue)
        self._now = when
        self.events_processed += 1
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if event._ok is False and not event.defused:
            self._record_unhandled(event)

    def run(self, until=None):
        while self._queue and (until is None or self._queue[0][0] <= until):
            self.step()
        if until is not None:
            self._now = until


class Boom(Exception):
    pass


#: A real delay at t = 0 that rounds to ``now`` once the clock has moved.
TINY = 1e-20
N_SHARED = 3
MAX_PROCESSES = 10

delays = st.sampled_from([0.0, 0.0, TINY, 0.5, 1.0, 2.5])
shared = st.integers(0, N_SHARED - 1)
ops = st.one_of(
    st.tuples(st.just("timeout"), delays),
    st.tuples(st.just("wait"), shared),
    st.tuples(st.just("succeed"), shared),
    st.tuples(st.just("fail"), shared),
    st.tuples(st.just("spawn"), st.integers(0, 3)),
    st.tuples(st.just("interrupt"), st.integers(0, MAX_PROCESSES - 1)),
    st.tuples(st.just("join"), st.integers(0, MAX_PROCESSES - 1)),
    st.tuples(st.just("any_of"), st.tuples(delays, shared)),
    st.tuples(st.just("race"), st.tuples(delays, shared)),
)
programs = st.lists(st.lists(ops, max_size=6), min_size=1, max_size=4)
#: Mostly races against shared events that other ops succeed: the shared
#: event often wins, so these programs retire many timers.
racing_ops = st.one_of(
    st.tuples(st.just("race"), st.tuples(delays, shared)),
    st.tuples(st.just("succeed"), shared),
    st.tuples(st.just("timeout"), delays),
)
racing_programs = st.lists(
    st.lists(racing_ops, max_size=6), min_size=2, max_size=4
)
#: Timeouts nobody waits on, scheduled before the program starts: live
#: heap entries that keep retired ones below the compaction threshold, so
#: those reach the heap's head.
idle_timers = st.lists(st.sampled_from([0.5, 1.0, 2.5, 4.0]), max_size=8)
run_plans = st.lists(
    st.one_of(
        st.tuples(st.just("run"), st.sampled_from([0.0, TINY, 0.5, 1.0, 3.0])),
        st.tuples(st.just("step"), st.integers(1, 6)),
    ),
    max_size=8,
)


def _describe(value):
    if isinstance(value, dict):  # an AnyOf's {sub-event: value}
        return tuple(value.values())
    return value


def run_program(kernel, scripts, plan, idle):
    """Run a random program, beside ``idle`` unwatched timeouts, driven by
    ``run(until)`` slices and ``step()`` calls, then drained.

    Returns the per-resume ``(now, process, op, what)`` trace, the
    ``peek()`` before each slice, ``events_processed``, the unhandled
    failure count and how many timers were cancelled before they were due.
    A ``race`` op cancels its timer when the shared event wins; after each
    cancel, the heap may hold at most one retired entry more than live ones.
    """
    trace, peeks = [], []
    events = [kernel.event() for _ in range(N_SHARED)]
    processes = []
    cancelled = set()
    retired_early = 0

    def cancel(timer, due):
        nonlocal retired_early
        timer.cancel()
        cancelled.add(timer)
        if kernel.now < due:
            retired_early += 1
        if not isinstance(kernel, HeapOnlyKernel):
            heap = kernel._queue
            dead = sum(1 for entry in heap if entry[2] in cancelled)
            assert dead <= len(heap) - dead + 1

    def body(pid, script):
        for index, (op, arg) in enumerate(script):
            target = None
            try:
                if op == "timeout":
                    target = kernel.timeout(arg, ("t", arg))
                elif op == "wait":
                    target = events[arg]
                elif op == "join":
                    if arg < len(processes):
                        target = processes[arg]
                elif op == "any_of":
                    delay, which = arg
                    target = kernel.any_of(
                        [kernel.timeout(delay, ("t", delay)), events[which]]
                    )
                elif op == "race":
                    delay, which = arg
                    timer = kernel.timeout(delay, ("t", delay))
                    due = kernel.now + delay
                    target = kernel.any_of([timer, events[which]])
                elif op in ("succeed", "fail"):
                    if events[arg].triggered:
                        pass
                    elif op == "succeed":
                        events[arg].succeed(("s", arg))
                    else:
                        events[arg].fail(Boom(arg))
                elif op == "spawn":
                    spawn(scripts[arg % len(scripts)])
                elif op == "interrupt" and arg < len(processes):
                    processes[arg].interrupt(pid)
                if target is None:
                    what = op
                else:
                    value = yield target
                    what = _describe(value)
                    if op == "race" and timer not in value:
                        cancel(timer, due)
            except Interrupt as exc:
                what = ("interrupted", exc.cause)
            except Boom as exc:
                what = ("boom", exc.args[0])
            trace.append((kernel.now, pid, index, what))
        return pid

    def spawn(script):
        if len(processes) < MAX_PROCESSES:
            processes.append(kernel.process(body(len(processes), script)))

    for delay in idle:
        kernel.timeout(delay)
    for script in scripts:
        spawn(script)
    for action, arg in plan:
        peeks.append(kernel.peek())
        if action == "run":
            kernel.run(until=kernel.now + arg)
        else:
            for _ in range(arg):
                if kernel.peek() == INFINITY:
                    break
                kernel.step()
    kernel.run()
    return (trace, peeks, kernel.events_processed,
            kernel.unhandled_failure_count, retired_early)


@settings(max_examples=200, deadline=None)
@given(
    scripts=st.one_of(programs, racing_programs),
    plan=run_plans,
    idle=idle_timers,
)
# Retires six timers, compacts the heap and skips retired heads in run(),
# step() and peek().
@example(
    scripts=[
        [("succeed", 0), ("race", (2.5, 0)), ("race", (1.0, 0)),
         ("timeout", 0.5), ("race", (TINY, 0)), ("race", (2.5, 1))],
        [("race", (2.5, 1)), ("race", (0.5, 2)), ("timeout", 1.0)],
        [("timeout", 0.5), ("succeed", 1), ("race", (1.0, 1)),
         ("succeed", 2)],
    ],
    plan=[("step", 4), ("run", 0.5), ("step", 3), ("run", 1.0)],
    idle=[4.0, 4.0, 4.0],
)
def test_ready_lane_matches_heap_only_order(scripts, plan, idle):
    """Same-instant events skip the heap and retired timers are never
    stepped, yet every resume happens at the same time and in the same
    order as under one (time, seq) heap that steps every timer."""
    trace, peeks, steps, unhandled, retired = run_program(
        Kernel(), scripts, plan, idle
    )
    ref_trace, ref_peeks, ref_steps, ref_unhandled, ref_retired = (
        run_program(HeapOnlyKernel(), scripts, plan, idle)
    )
    assert trace == ref_trace
    assert unhandled == ref_unhandled
    assert retired == ref_retired
    assert ref_steps - steps == retired
    if not retired:
        # Nothing retired: peek() sees the same heap as the reference.
        assert peeks == ref_peeks


@settings(max_examples=100, deadline=None)
@given(
    grants=st.lists(
        st.tuples(st.integers(0, 5), st.floats(min_value=0.1, max_value=50)),
        max_size=30,
    ),
    check_at=st.floats(min_value=0, max_value=100),
)
def test_lease_liveness_matches_grant_arithmetic(grants, check_at):
    kernel = Kernel()
    table = LeaseTable(kernel, default_ttl=10.0)
    expiry = {}
    for key, ttl in grants:
        table.grant(key, ttl)
        expiry[key] = kernel.now + ttl
    kernel.run(until=check_at)
    for key, when in expiry.items():
        assert table.is_live(key) == (when > check_at)


class BruteForceLeases:
    """Reference lease table: scans every key on every call."""

    def __init__(self, default_ttl):
        self.default_ttl = default_ttl
        self.expiry = {}
        self.expired_count = 0

    def grant(self, now, key, ttl):
        self.expiry[key] = now + (self.default_ttl if ttl is None else ttl)

    def renew(self, now, key, ttl):
        if self.expiry.get(key, -1.0) <= now:
            return False
        self.grant(now, key, ttl)
        return True

    def release(self, key):
        self.expiry.pop(key, None)

    def collect_expired(self, now):
        expired = [key for key, when in self.expiry.items() if when <= now]
        for key in expired:
            del self.expiry[key]
        self.expired_count += len(expired)
        return expired


ttls = st.one_of(st.none(), st.sampled_from([0.5, 1.0, 2.5]))
lease_keys = st.integers(0, 2)
lease_ops = st.lists(
    st.one_of(
        st.tuples(st.just("grant"), lease_keys, ttls),
        st.tuples(st.just("renew"), lease_keys, ttls),
        st.tuples(st.just("release"), lease_keys, st.none()),
        st.tuples(st.just("advance"), st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                  st.none()),
        st.tuples(st.just("collect"), st.none(), st.none()),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(ops=lease_ops)
@example(ops=[("grant", 0, 0.5), ("advance", 1.0, None), ("renew", 0, None)])
def test_lease_collection_matches_a_brute_force_table(ops):
    """The earliest-expiry bound never hides a lapsed lease: collection
    returns the same keys, in the same order, as scanning every time."""
    kernel = Kernel()
    table = LeaseTable(kernel, default_ttl=2.0)
    reference = BruteForceLeases(default_ttl=2.0)
    for op, arg, ttl in ops:
        now = kernel.now
        if op == "grant":
            table.grant(arg, ttl)
            reference.grant(now, arg, ttl)
        elif op == "renew":
            assert table.renew(arg, ttl) == reference.renew(now, arg, ttl)
        elif op == "release":
            table.release(arg)
            reference.release(arg)
        elif op == "advance":
            kernel.run(until=now + arg)
        else:
            assert table.collect_expired() == reference.collect_expired(now)
        assert table.expired_count == reference.expired_count
        assert len(table) == len(reference.expiry)
        for key in range(3):
            assert table.is_live(key) == (
                reference.expiry.get(key, -1.0) > kernel.now
            )
    assert table.collect_expired() == reference.collect_expired(kernel.now)
    assert table.expired_count == reference.expired_count


leak_ops = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c", "<server>"]),
              st.integers(0, 10_000)),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(ops=leak_ops, release=st.sampled_from(["a", "b", "c"]))
def test_heap_accounting_is_conserved(ops, release):
    heap = HeapModel(capacity=10**9, baseline=10**6)
    from repro.appserver.errors import OutOfMemoryError_

    expected = {}
    for owner, nbytes in ops:
        try:
            heap.leak(owner, nbytes)
        except OutOfMemoryError_:
            pass
        expected[owner] = expected.get(owner, 0) + nbytes
    assert heap.leaked_total == sum(expected.values())
    assert heap.available == heap.capacity - heap.baseline - heap.leaked_total

    freed = heap.release_owner(release)
    assert freed == expected.get(release, 0)
    assert heap.leaked_total == sum(expected.values()) - freed
    assert heap.release_all() == sum(
        v for k, v in expected.items() if k != release
    )
    assert heap.available == heap.capacity - heap.baseline
