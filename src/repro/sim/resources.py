"""Shared resources: FIFO queues, locks, and semaphores.

These model the contention points in the simulated platform: thread pools,
database row locks, and inter-process mailboxes.  Locks track their owner so
that the microreboot machinery can forcibly release resources held by killed
shepherd threads — and so that the §7 "leaked external resource" limitation
can be reproduced by *not* doing so.
"""

from collections import deque

from repro.sim.errors import SimulationError
from repro.sim.events import Event


class Queue:
    """Unbounded FIFO queue of items, usable as a process mailbox."""

    def __init__(self, kernel):
        self.kernel = kernel
        self._items = deque()
        self._getters = deque()

    def __len__(self):
        return len(self._items)

    def put(self, item):
        """Add ``item``; wakes the oldest waiting getter, if any."""
        while self._getters:
            getter = self._getters.popleft()
            if getter.triggered or getter.abandoned:
                continue  # the waiting process was interrupted; skip it
            getter.succeed(item)
            return
        self._items.append(item)

    def get(self):
        """Return an event that triggers with the next item."""
        event = Event(self.kernel)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def drain(self):
        """Remove and return all queued items."""
        items = list(self._items)
        self._items.clear()
        return items


class Semaphore:
    """Counting semaphore with FIFO handoff."""

    def __init__(self, kernel, capacity):
        if capacity < 1:
            raise SimulationError(f"semaphore capacity must be >= 1, got {capacity}")
        self.kernel = kernel
        self.capacity = capacity
        self._in_use = 0
        self._waiters = deque()

    @property
    def available(self):
        return self.capacity - self._in_use

    def acquire(self):
        """Return an event that triggers when a slot is held."""
        event = Event(self.kernel)
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self):
        """Release one slot, handing it to the oldest live waiter."""
        if self._in_use <= 0:
            raise SimulationError("release() of a semaphore with no holders")
        while self._waiters:
            waiter = self._waiters.popleft()
            if waiter.triggered or waiter.abandoned:
                continue  # waiter was interrupted; its slot request lapsed
            waiter.succeed()
            return
        self._in_use -= 1


class Lock:
    """Mutual-exclusion lock with owner tracking.

    ``owner`` is an arbitrary hashable supplied at acquire time (the
    reproduction passes the shepherd-thread process).  Owner tracking lets
    the platform release everything held by a killed thread — and lets tests
    reproduce the paper's §7 scenario where a resource acquired *behind the
    platform's back* stays locked after a microreboot.
    """

    def __init__(self, kernel, name=None):
        self.kernel = kernel
        self.name = name
        self.owner = None
        self._waiters = deque()  # (event, owner) pairs

    def acquire(self, owner):
        """Return an event that triggers when ``owner`` holds the lock."""
        if owner is None:
            raise SimulationError("Lock.acquire requires a non-None owner")
        event = Event(self.kernel)
        if self.owner is None:
            self.owner = owner
            event.succeed()
        else:
            self._waiters.append((event, owner))
        return event

    def release(self, owner):
        """Release the lock; it must currently be held by ``owner``."""
        if self.owner != owner:
            raise SimulationError(
                f"lock {self.name!r} released by {owner!r} but held by {self.owner!r}"
            )
        self._hand_off()

    def force_release_owner(self, owner):
        """Release the lock if held by ``owner``; drop ``owner``'s waits.

        Returns True if the lock was actually released.  This is the cleanup
        path the platform runs for resources it *knows about* when a shepherd
        thread is killed by a microreboot.
        """
        self._waiters = deque((e, o) for e, o in self._waiters if o != owner)
        if self.owner == owner:
            self._hand_off()
            return True
        return False

    def waiting_owners(self):
        """Owners currently queued for the lock (for deadlock detection)."""
        return [o for _e, o in self._waiters]

    def _hand_off(self):
        while self._waiters:
            event, owner = self._waiters.popleft()
            if event.triggered or event.abandoned:
                continue
            self.owner = owner
            event.succeed()
            return
        self.owner = None
