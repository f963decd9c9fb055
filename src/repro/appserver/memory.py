"""JVM heap model with per-owner attribution.

The paper's microrejuvenation service (§6.4) works because the platform can
observe how much memory each component's microreboot releases.  We model the
heap as a fixed-capacity pool with a baseline footprint (server + application
code and caches) plus *leaked* bytes attributed to an owner: a component
name, or the reserved owners below for leaks outside the application
(§5.1's "JVM memory exhaustion outside the application").

Owners:
    component name   freed by microrebooting that component
    OWNER_SERVER     intra-JVM leak outside the application; only a JVM
                     restart frees it
    OWNER_EXTERNAL   leak outside the JVM entirely (another OS process);
                     only an OS reboot frees it — tracked by the node's OS
                     model, included here for a uniform API
"""

from repro.appserver.errors import OutOfMemoryError_

OWNER_SERVER = "<server>"
OWNER_EXTERNAL = "<external>"

#: Default heap size: the paper's middle-tier nodes have 1 GB of RAM and a
#: 1 GB heap is used in the Figure 6 rejuvenation experiment.
DEFAULT_CAPACITY = 1024 * 1024 * 1024


class HeapModel:
    """Fixed-capacity heap with leak attribution.

    Transient per-request allocations are assumed to be reclaimed by the
    garbage collector and are not tracked individually; what matters to the
    experiments is the monotone growth of *unreclaimable* (leaked) memory
    and which reboot level releases it.
    """

    def __init__(self, capacity=DEFAULT_CAPACITY, baseline=None):
        if baseline is None:
            # JBoss + deployed application resident set; leaves ~87% of a
            # 1 GB heap available at steady state, matching Figure 6's
            # starting point of roughly 900 MB available.
            baseline = int(capacity * 0.13)
        if baseline > capacity:
            raise ValueError("baseline footprint exceeds heap capacity")
        self.capacity = capacity
        self.baseline = baseline
        self._leaked = {}
        #: Running sum of ``_leaked``'s (integer) byte counts, kept by every
        #: mutation so the per-request allocation check needs no sum.
        self._leaked_total = 0

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def leaked_total(self):
        return self._leaked_total

    @property
    def used(self):
        return self.baseline + self.leaked_total

    @property
    def available(self):
        return self.capacity - self.used

    def leaked_by(self, owner):
        """Bytes currently leaked by ``owner``."""
        return self._leaked.get(owner, 0)

    def owners_by_leak(self):
        """Owners sorted descending by leaked bytes (rejuvenation order)."""
        return sorted(self._leaked, key=self._leaked.get, reverse=True)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def leak(self, owner, nbytes):
        """Record ``nbytes`` leaked by ``owner``.

        Raises :class:`OutOfMemoryError_` if the heap is already exhausted;
        the allocation itself is what would throw in a real JVM.  The leak
        is recorded either way (the failed allocation attempt does not free
        anything).
        """
        if nbytes < 0:
            raise ValueError(f"cannot leak a negative amount: {nbytes}")
        exhausted = self.available <= 0
        self._leaked[owner] = self._leaked.get(owner, 0) + nbytes
        self._leaked_total += nbytes
        if exhausted:
            raise OutOfMemoryError_(f"heap exhausted while allocating for {owner!r}")

    def check_allocation(self, nbytes=0):
        """Raise :class:`OutOfMemoryError_` if ``nbytes`` cannot be served.

        Called on the request path: once leaks exhaust the heap, ordinary
        request processing starts failing with OOM errors.
        """
        if self.capacity - (self.baseline + self._leaked_total) - nbytes <= 0:
            raise OutOfMemoryError_(
                f"allocation of {nbytes} bytes failed "
                f"({self.available} of {self.capacity} available)"
            )

    def release_owner(self, owner):
        """Free everything leaked by ``owner``; returns the bytes freed.

        This is what a microreboot of a leaking component achieves: the
        component's object graph becomes garbage and the post-µRB collection
        reclaims it.
        """
        freed = self._leaked.pop(owner, 0)
        self._leaked_total -= freed
        return freed

    def release_application(self, component_names):
        """Free leaks of every listed component (whole-application restart)."""
        return sum(self.release_owner(name) for name in component_names)

    def release_all(self):
        """Free every leak including the server's own (JVM restart)."""
        freed = self._leaked_total
        self._leaked.clear()
        self._leaked_total = 0
        return freed

    def __repr__(self):
        return (
            f"<HeapModel {self.available // (1024 * 1024)} MB free of "
            f"{self.capacity // (1024 * 1024)} MB>"
        )
