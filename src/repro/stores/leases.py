"""Lease bookkeeping (§2, "Leases").

"Resources in a frequently-microrebooting system should be leased, to
improve the reliability of cleaning up after µRBs."  SSM's session storage
model is lease-based: orphaned session state is garbage-collected
automatically when its lease expires.
"""

INFINITY = float("inf")


def _check_ttl(ttl):
    if ttl <= 0:
        raise ValueError(f"lease TTL must be positive, got {ttl}")
    return ttl


class LeaseTable:
    """Expiry times per key, driven by the simulation clock."""

    def __init__(self, kernel, default_ttl):
        self.kernel = kernel
        self.default_ttl = _check_ttl(default_ttl)
        self._expiry = {}
        #: A lower bound on the earliest expiry in ``_expiry`` (infinity
        #: when empty): lowered by :meth:`grant`, made exact again by each
        #: scan of :meth:`collect_expired`.  Until the clock reaches it no
        #: lease can have lapsed, so collection need not scan.
        self._earliest = INFINITY
        self.expired_count = 0

    def __len__(self):
        return len(self._expiry)

    def grant(self, key, ttl=None):
        """Grant (or re-grant) a lease on ``key``."""
        expiry = self.kernel.now + (
            self.default_ttl if ttl is None else _check_ttl(ttl)
        )
        self._expiry[key] = expiry
        if expiry < self._earliest:
            self._earliest = expiry

    def renew(self, key, ttl=None):
        """Extend a live lease; returns False if it already lapsed."""
        if ttl is not None:
            _check_ttl(ttl)
        if not self.is_live(key):
            return False
        self.grant(key, ttl)
        return True

    def release(self, key):
        """Drop the lease explicitly (e.g. user logged out)."""
        self._expiry.pop(key, None)

    def is_live(self, key):
        return key in self._expiry and self._expiry[key] > self.kernel.now

    def collect_expired(self):
        """Remove and return keys whose leases have lapsed, in the order the
        keys entered the table."""
        now = self.kernel.now
        if now < self._earliest:
            return []
        expired = []
        earliest = INFINITY
        for key, when in self._expiry.items():
            if when <= now:
                expired.append(key)
            elif when < earliest:
                earliest = when
        for key in expired:
            del self._expiry[key]
        self._earliest = earliest
        self.expired_count += len(expired)
        return expired
