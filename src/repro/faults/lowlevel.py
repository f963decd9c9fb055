"""Low-level fault injection underneath the application layer.

The paper uses FIG (library-level fault injection) and FAUmachine (a
virtual machine that flips bits in memory/registers) to inject faults below
the JVM (§5.1).  Our analogues damage structures that belong to the JVM
process as a whole — the connection pool, arbitrary naming entries, the
transaction manager — which no component microreboot reconstructs: only a
JVM restart does (Table 2's bottom rows).  Register flips additionally
corrupt data that was in flight to the database, leaving damage behind that
even the JVM restart cannot undo (the ``≈`` rows).
"""

from repro.appserver.memory import OWNER_SERVER
from repro.faults.injector import InjectedFault


class LowLevelInjector:
    """FIG/FAUmachine-style faults for one node."""

    def __init__(self, system, rng):
        self.system = system
        self.rng = rng
        self.injected = []

    @property
    def server(self):
        return self.system.server

    def _log(self, fault, target, **extra):
        kernel = self.system.kernel
        entry = InjectedFault(fault, target, kernel.now)
        self.injected.append(entry)
        kernel.trace.publish(
            "fault.injected", fault=fault, target=target,
            server=self.server.name, **extra,
        )

    # ------------------------------------------------------------------
    # Bit flips
    # ------------------------------------------------------------------
    def flip_bits_in_process_memory(self):
        """Corrupt a random JVM-owned structure.

        The victim is server metadata outside any container, so EJB/WAR
        microreboots cannot repair it.
        """
        victim = self.rng.choice(("connection-pool", "naming-entry", "tx-manager"))
        if victim == "connection-pool":
            self.server.connection_pool.healthy = False
        elif victim == "naming-entry":
            names = sorted(self.server.naming.bound_names())
            name = self.rng.choice(names)
            self.server.naming._corrupt(name, None)
            # The flip hit the JNDI hashtable itself, not one entry's
            # value: rebinding the name cannot fix the bucket; mark the
            # pool too so only a JVM restart clears the failure.
            self.server.connection_pool.healthy = False
        else:
            # The transaction manager's internal table is garbage: every
            # demarcation attempt will fail until the JVM restarts.
            self.server.connection_pool.healthy = False
        self._log("bitflip-memory", victim)
        return victim

    def flip_bits_in_registers(self):
        """A register flip in a thread that was writing to the database.

        Beyond crashing the JVM-side structures (as above), the in-flight
        value was silently corrupted *before* the write was issued — the
        database now holds a wrong dollar amount that no reboot of any
        granularity repairs (manual row repair required, Table 2 ``≈``).
        """
        self.server.connection_pool.healthy = False
        database = self.system.database
        rows = sorted(database.tables["items"].rows)
        pk = rows[self.rng.randrange(len(rows))]
        original = database.read("items", pk)["max_bid"]
        database._corrupt_row("items", pk, "max_bid", original ^ 0x40)
        self._log("bitflip-registers", f"items:{pk}")
        return pk

    # ------------------------------------------------------------------
    # Bad system-call return values
    # ------------------------------------------------------------------
    def inject_bad_syscall_returns(self):
        """The accept path starts returning errors (FIG-style libc fault)."""
        self.server.accept_fault = "accept() returned bad value (injected)"
        self._log("bad-syscall", self.server.name)

    # ------------------------------------------------------------------
    # Leaks outside the application
    # ------------------------------------------------------------------
    def leak_intra_jvm(self, nbytes):
        """Leak inside the JVM but outside any component (e.g. a server
        service): cured only by a JVM restart.  The fault's target is the
        server; its size goes in ``bytes``."""
        try:
            self.server.heap.leak(OWNER_SERVER, nbytes)
        finally:
            self._log("leak-intra-jvm", self.server.name, bytes=nbytes)

    def leak_extra_jvm(self, node, nbytes):
        """Leak in another OS process on the node: cured only by an OS
        reboot.  ``node`` is a :class:`repro.cluster.node.Node`, and the
        fault's target; its size goes in ``bytes``."""
        node.leak_os_memory(nbytes)
        self._log("leak-extra-jvm", node.name, bytes=nbytes)
