"""Microcheckpointing for long-running operations (§8, "Workload").

"Microreboots thrive on workloads consisting of fine-grain, independent
requests; if a system is faced with long running operations, then
individual components could be periodically microcheckpointed to keep the
cost of µRBs low, keeping in mind the associated risk of persistent faults.
In the same vein, requests need to be sufficiently self-contained, such
that a fresh instance of a microrebooted component can pick up a request
and continue processing it where the previous instance left off."

The checkpoint store follows the crash-only rules: it lives *outside* the
components (so it survives their microreboots), hides behind a small
high-level API, and leases its entries so orphaned progress records are
garbage-collected rather than leaking forever.

The "risk of persistent faults" the paper warns about is first-class here:
checkpoints carry a generation counter, and :meth:`load` can be asked to
distrust checkpoints that have survived too many reincarnations of their
owner — the escape hatch when the checkpointed state itself is what keeps
killing the component.
"""

import copy

from repro.stores.leases import LeaseTable


class MicrocheckpointStore:
    """Progress records for resumable long-running operations."""

    #: Long-running work that has made no progress for this long is
    #: presumed abandoned and collected.
    DEFAULT_LEASE_TTL = 600.0

    def __init__(self, kernel, lease_ttl=DEFAULT_LEASE_TTL,
                 max_resumptions=None):
        self.kernel = kernel
        self.leases = LeaseTable(kernel, lease_ttl)
        #: When set, checkpoints resumed more than this many times are
        #: discarded instead of returned (the persistent-fault guard).
        self.max_resumptions = max_resumptions
        self._checkpoints = {}  # key -> {"progress": ..., "resumptions": n}
        self.discards = 0

    def __len__(self):
        self._gc()
        return len(self._checkpoints)

    # ------------------------------------------------------------------
    def save(self, key, progress):
        """Record (or overwrite) the progress of operation ``key``.

        ``progress`` must be self-contained (copied on the way in and out):
        a fresh instance on any node must be able to continue from it.
        """
        entry = self._checkpoints.get(key)
        resumptions = entry["resumptions"] if entry else 0
        self._checkpoints[key] = {
            "progress": copy.deepcopy(progress),
            "resumptions": resumptions,
        }
        self.leases.grant(key)

    def load(self, key):
        """The saved progress (a copy), or None.

        Each successful load counts as a resumption; if the checkpoint has
        been resumed ``max_resumptions`` times already, it is presumed to
        be carrying the fault that keeps killing its owner and is discarded
        (returning None, i.e. "start over").
        """
        self._gc()
        entry = self._checkpoints.get(key)
        if entry is None or not self.leases.is_live(key):
            self._drop(key)
            return None
        if (
            self.max_resumptions is not None
            and entry["resumptions"] >= self.max_resumptions
        ):
            self._drop(key)
            return None
        entry["resumptions"] += 1
        self.leases.renew(key)
        return copy.deepcopy(entry["progress"])

    def complete(self, key):
        """The operation finished: its progress record is obsolete."""
        self._drop(key)

    def _drop(self, key):
        if self._checkpoints.pop(key, None) is not None:
            self.discards += 1
        self.leases.release(key)

    def _gc(self):
        for key in self.leases.collect_expired():
            if self._checkpoints.pop(key, None) is not None:
                self.discards += 1
