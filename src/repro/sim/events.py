"""Events: the unit of synchronization between simulated processes.

This module is the simulator's hottest code: every request, timeout, and
process wake-up in a million-request campaign allocates and triggers these
objects.  Three deliberate micro-optimizations keep it fast:

* every class declares ``__slots__`` (no per-instance ``__dict__``, faster
  attribute access and allocation);
* :class:`Timeout` — the dominant plain-delay case — initializes its
  fields inline, skipping the generic ``Event.__init__``, and enqueues
  itself directly: onto the kernel's ready lane when its deadline is
  ``now``, onto the heap otherwise;
* :meth:`Event.succeed` / :meth:`Event.fail` append to the ready lane
  directly: a triggered event is due at once, so it needs no heap entry.

A timeout that lost its race can be retired (:meth:`Timeout.cancel`): the
kernel then drops its heap entry without stepping it.
"""

from heapq import heappush

from repro.sim.errors import SimulationError

_PENDING = object()


class _Retired(tuple):
    """The ``callbacks`` of a retired timeout: empty, and refusing waiters."""

    __slots__ = ()

    def append(self, callback):
        raise SimulationError("cannot wait on a retired timeout")

    def remove(self, callback):
        raise ValueError("a retired timeout has no callbacks")  # as [] does


#: Marks a retired timeout; the kernel drops its heap entry unstepped.
_RETIRED = _Retired()


class Event:
    """A one-shot occurrence that processes can wait for.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    triggers it, scheduling its callbacks to run at the current simulation
    time (in FIFO order relative to other events triggered at the same
    instant).  A process waits for an event simply by yielding it.

    Attributes:
        kernel: the :class:`~repro.sim.kernel.Kernel` this event belongs to.
        callbacks: list of callables invoked with the event when it is
            processed; ``None`` once the event has been processed, and an
            empty sentinel that refuses new callbacks once a timeout has
            been retired (:meth:`Timeout.cancel`).
        defused: set to True when a failed event's exception has been
            delivered to (and therefore handled by) a waiting process.
            Failed events that are never defused are collected by the kernel
            in ``kernel.unhandled_failures`` to aid debugging.
    """

    __slots__ = ("kernel", "callbacks", "defused", "abandoned", "_value", "_ok")

    def __init__(self, kernel):
        self.kernel = kernel
        self.callbacks = []
        self.defused = False
        #: Set when the (sole) process waiting on this event was interrupted
        #: away from it; resources use this to skip dead waiters.
        self.abandoned = False
        self._value = _PENDING
        self._ok = None

    @property
    def triggered(self):
        """True once the event has a value (success or failure)."""
        return self._value is not _PENDING

    @property
    def ok(self):
        """True if the event succeeded, False if it failed, None if pending."""
        return self._ok

    @property
    def value(self):
        """The event's value (or exception, for failed events)."""
        if self._value is _PENDING:
            raise SimulationError(f"{self!r} has not been triggered yet")
        return self._value

    def succeed(self, value=None):
        """Trigger the event successfully with ``value``.

        Returns the event so construction and triggering can be chained.
        """
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.kernel._ready.append(self)
        return self

    def fail(self, exception):
        """Trigger the event with an exception to be thrown into waiters."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() requires an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        self.kernel._ready.append(self)
        return self

    def __repr__(self):
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else f"failed({self._value!r})"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers automatically after a fixed delay."""

    __slots__ = ("delay", "_when")

    def __init__(self, kernel, delay, value=None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # Fast path: a Timeout is born triggered, so skip Event.__init__ and
        # enqueue directly.  A deadline that rounds to now (``timeout(0)``,
        # or a delay too small to move the clock) is due at once.
        self.kernel = kernel
        self.callbacks = []
        self.defused = False
        self.abandoned = False
        self._ok = True
        self._value = value
        self.delay = delay
        now = kernel._now
        self._when = when = now + delay
        if when == now:
            kernel._ready.append(self)
        else:
            heappush(kernel._queue, (when, next(kernel._sequence), self))

    def cancel(self):
        """Retire this timeout: it will not fire, and nothing may wait on it.

        Meant for a timer that lost its race, such as the patience timer
        of a reply-or-timeout :class:`AnyOf` whose reply came first: the
        kernel drops its heap entry without stepping it, so it neither
        holds memory until its deadline nor counts in
        ``events_processed``.  A timeout that has fired, or that is due
        now and so already in the ready lane, is left alone.  Raises
        :class:`SimulationError` while a process or condition waits on it.
        """
        callbacks = self.callbacks
        if callbacks:
            raise SimulationError(f"cannot cancel {self!r}: it has waiters")
        if (
            callbacks is not None
            and callbacks is not _RETIRED
            and self._when > self.kernel._now
        ):
            self.kernel._retire(self)


class _Condition(Event):
    """Base for events composed of several sub-events."""

    __slots__ = ("events", "_completed")

    def __init__(self, kernel, events):
        # Event.__init__'s fields, set inline: every request waits on an
        # AnyOf (reply vs. timeout), so this constructor is on its path.
        self.kernel = kernel
        self.callbacks = []
        self.defused = False
        self.abandoned = False
        self._value = _PENDING
        self._ok = None
        self.events = events = list(events)
        self._completed = 0
        if not events:
            self.succeed(self._snapshot())
            return
        observe = self._observe
        for event in events:
            if event.kernel is not kernel:
                raise SimulationError("cannot mix events from different kernels")
            if event.callbacks is None:
                # Already processed: account for it immediately.
                observe(event)
            elif self._value is _PENDING:
                event.callbacks.append(observe)

    def _snapshot(self):
        """Mapping of processed sub-events to their values, in yield order.

        Tests ``callbacks is None`` (processed) rather than ``triggered``
        because a Timeout has a value from construction but has not
        *happened* until the kernel processes it.
        """
        return {e: e._value for e in self.events if e.callbacks is None and e._ok}

    def _observe(self, event):
        if self._value is not _PENDING:  # already triggered
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
        else:
            self._completed += 1
            if not self._check():
                return
            self.succeed(self._snapshot())
        self._detach()

    def _detach(self):
        """Stop observing the sub-events that are still pending.

        Once the condition has triggered, observing a later sub-event is a
        no-op.  Left on that event's callbacks, the observer would keep the
        condition and every value it reaches alive until the event fires;
        a request's reply-or-timeout condition would hold the reply until
        the timeout, long after the reply was consumed.
        """
        observe = self._observe
        for event in self.events:
            if event.callbacks is not None:
                try:
                    event.callbacks.remove(observe)
                except ValueError:
                    pass  # not attached (yet, in __init__)

    def _check(self):
        raise NotImplementedError


class AnyOf(_Condition):
    """Triggers as soon as any sub-event triggers (or fails on first failure)."""

    __slots__ = ()

    def _check(self):
        return self._completed >= 1


class AllOf(_Condition):
    """Triggers once every sub-event has triggered."""

    __slots__ = ()

    def _check(self):
        return self._completed >= len(self.events)
