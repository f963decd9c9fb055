"""The simulation kernel: virtual clock and event queue."""

import heapq
from collections import deque
from itertools import count

from repro.sim.errors import SimulationError
from repro.sim.events import _RETIRED, AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process
from repro.telemetry.trace import TraceBus

#: Sentinel return for :meth:`Kernel.peek` when nothing is scheduled.
INFINITY = float("inf")


class Kernel:
    """Discrete-event simulation kernel.

    Time is a float; the reproduction uses **seconds** throughout (paper
    tables quote milliseconds, converted at the edges).  The kernel is
    deterministic: events triggered at the same instant are processed in the
    order they were scheduled.

    Typical usage::

        kernel = Kernel()

        def hello():
            yield kernel.timeout(1.5)
            print("world at", kernel.now)

        kernel.process(hello())
        kernel.run(until=10.0)
    """

    #: How many unhandled failed events are retained verbatim; beyond this
    #: only ``unhandled_failure_count`` grows, so multi-hour simulated
    #: campaigns cannot leak memory through a busy failure path.
    UNHANDLED_RETENTION = 100

    def __init__(self):
        self._now = 0.0
        #: Events due at ``now``, in processing order (see "Scheduling").
        self._ready = deque()
        #: Heap of ``(time, seq, event)`` for events due after ``now``.
        self._queue = []
        #: How many ``_queue`` entries are retired timeouts (see "Retiring").
        self._retired = 0
        self._sequence = count()
        #: Failed events whose exception was never delivered to any process.
        #: Only the first ``UNHANDLED_RETENTION`` are kept (debugging wants
        #: the earliest failures); ``unhandled_failure_count`` counts all.
        self.unhandled_failures = []
        self.unhandled_failure_count = 0
        #: Total events processed by this kernel (steps taken).
        self.events_processed = 0
        #: Structured event tracing for everything running on this kernel.
        #: Disabled unless telemetry's default says otherwise; instrumented
        #: components publish unconditionally and the bus no-ops.
        self.trace = TraceBus(self)
        #: Numbers for unnamed application servers, from 1 per simulation:
        #: default names depend only on what this simulation built, not on
        #: what else the process built before it.
        self.server_ids = count(1)

    @property
    def now(self):
        """Current simulation time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # Event construction helpers
    # ------------------------------------------------------------------
    def event(self):
        """Create a new untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay, value=None):
        """Create an event that triggers ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator, name=None):
        """Spawn a new :class:`Process` from ``generator``."""
        return Process(self, generator, name=name)

    def any_of(self, events):
        """Event triggering when any of ``events`` does."""
        return AnyOf(self, events)

    def all_of(self, events):
        """Event triggering when all of ``events`` have."""
        return AllOf(self, events)

    # ------------------------------------------------------------------
    # Scheduling and execution
    # ------------------------------------------------------------------
    #
    # Two lanes hold the pending events.  ``_ready`` is a FIFO of events due
    # at ``now``: process starts, ``succeed``/``fail``, interrupts and any
    # timeout whose deadline rounds to ``now``.  ``_queue`` is a heap of
    # ``(time, seq, event)`` for events due strictly later.  When the ready
    # lane runs dry the clock advances to the heap's earliest time and every
    # heap entry due then moves, in ``(time, seq)`` order, into the empty
    # lane.  Those entries were scheduled before the clock reached their
    # time, so they precede everything triggered at that instant, which the
    # lane appends behind them: the lane replays exactly the ``(time, seq)``
    # order of a single heap, without a tuple, a sequence number or a heap
    # push and pop for the events that are due at once (about half of all
    # events in the per-client workloads).
    #
    # Retiring.  A timeout cancelled before its deadline (``Timeout.cancel``)
    # stays in the heap, marked, and is dropped unstepped when it reaches
    # the head: it never enters the lane, never moves the clock, and
    # ``peek()`` never reports its time.  Once retired entries outnumber
    # live ones the heap is compacted in place (``run()`` holds the list in
    # a local).  Keys ``(time, seq)`` are unique, so the live entries pop in
    # the same order after ``heapify`` as before; dropping an entry nobody
    # waits on changes no callback, so the order of every other event is
    # unchanged.  Each compaction costs O(retired + live) = O(retired), so
    # a cancel costs amortized O(1).

    def _record_unhandled(self, event):
        """Remember a failed event nobody handled (bounded retention)."""
        self.unhandled_failure_count += 1
        if len(self.unhandled_failures) < self.UNHANDLED_RETENTION:
            self.unhandled_failures.append(event)

    def _retire(self, timeout):
        """Mark ``timeout``'s heap entry retired (see "Retiring")."""
        timeout.callbacks = _RETIRED
        self._retired += 1
        queue = self._queue
        if 2 * self._retired > len(queue):
            queue[:] = [
                entry for entry in queue if entry[2].callbacks is not _RETIRED
            ]
            heapq.heapify(queue)
            self._retired = 0

    def peek(self):
        """Time of the next scheduled event, or ``INFINITY`` if none."""
        if self._ready:
            return self._now
        queue = self._queue
        while queue and queue[0][2].callbacks is _RETIRED:
            heapq.heappop(queue)
            self._retired -= 1
        return queue[0][0] if queue else INFINITY

    def step(self):
        """Process exactly one event."""
        ready = self._ready
        if not ready:
            # Advance the clock to the heap's earliest live time and lane
            # every live heap entry due then.
            when = self.peek()
            if when == INFINITY:
                raise SimulationError("step() on an empty event queue")
            if when < self._now:
                raise SimulationError("event queue corrupted: time went backwards")
            self._now = when
            queue = self._queue
            while queue and queue[0][0] == when:
                event = heapq.heappop(queue)[2]
                if event.callbacks is _RETIRED:
                    self._retired -= 1
                else:
                    ready.append(event)
        event = ready.popleft()
        self.events_processed += 1
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if event._ok is False and not event.defused:
            self._record_unhandled(event)

    def run(self, until=None):
        """Run until the queue drains or the clock reaches ``until`` seconds.

        When ``until`` is given, the clock is advanced to exactly ``until``
        on return even if the queue drained earlier, so back-to-back
        ``run(until=...)`` calls observe a monotone clock.
        """
        if until is None:
            horizon = INFINITY
        elif until < self._now:
            raise SimulationError(
                f"run(until={until}) but the clock is already at {self._now}"
            )
        else:
            horizon = until
        # Inlined step(): this loop is the single hottest path in the whole
        # reproduction.  The clock and the horizon are checked once per
        # distinct timestamp, not once per event, and the heap only ever
        # holds future events, so the time-went-backwards check that step()
        # performs cannot fire here and is elided.
        queue = self._queue
        ready = self._ready
        pop = heapq.heappop
        take = ready.popleft
        lane = ready.append
        record = self._record_unhandled
        retired = _RETIRED
        steps = 0
        while True:
            while ready:
                event = take()
                steps += 1
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if event._ok is False and not event.defused:
                    record(event)
            if not queue or queue[0][0] > horizon:
                break
            when, _seq, event = pop(queue)
            if event.callbacks is retired:
                self._retired -= 1
                continue
            self._now = when
            lane(event)
            while queue and queue[0][0] == when:
                event = pop(queue)[2]
                if event.callbacks is retired:
                    self._retired -= 1
                else:
                    lane(event)
        self.events_processed += steps
        if until is not None:
            self._now = until

    def run_until_triggered(self, event, limit=None):
        """Run until ``event`` triggers; raises if the queue drains first.

        ``limit`` optionally bounds the simulated time spent waiting; an
        event scheduled exactly at ``t == limit`` still triggers (the
        boundary is inclusive).

        A :class:`Timeout` has its value from construction, so for one
        "triggers" means the kernel has processed it (``callbacks is
        None``, as in ``_Condition._snapshot``); a retired one never will
        and raises :class:`SimulationError`.
        """
        timer = isinstance(event, Timeout)
        while event.callbacks is not None if timer else not event.triggered:
            if event.callbacks is _RETIRED:
                raise SimulationError(
                    f"{event!r} was cancelled and will never trigger"
                )
            when = self.peek()
            if when == INFINITY:
                raise SimulationError(f"queue drained before {event!r} triggered")
            if limit is not None and when > limit:
                raise SimulationError(f"{event!r} did not trigger before t={limit}")
            self.step()
        if event._ok is False:
            event.defused = True
            raise event._value
        return event._value
