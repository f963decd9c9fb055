"""One middle-tier node: the OS hosting a JVM running the server.

The node is the recovery manager's ``node_controller``: it provides the
two coarsest recovery actions (JVM restart, OS reboot) and models OS-level
memory, which an extra-JVM leak exhausts (Table 2: only an OS reboot
cures that).
"""

OS_MEMORY = 2 * 1024 * 1024 * 1024  # paper nodes have 1-1.5 GB + swap


class Node:
    """OS + JVM wrapper around one :class:`~repro.ebid.app.EbidSystem`."""

    def __init__(self, system):
        self.system = system
        self.os_memory = OS_MEMORY
        self.os_leaked = 0
        self.os_reboots = 0
        self.jvm_restarts = 0
        #: CPU hogs injected by chaos campaigns (external processes on the
        #: node stealing cycles from the JVM).
        self.slowdown_hogs = 0

    @property
    def name(self):
        return self.system.server.name

    @property
    def server(self):
        return self.system.server

    @property
    def kernel(self):
        return self.system.kernel

    @property
    def os_available(self):
        return self.os_memory - self.os_leaked

    # ------------------------------------------------------------------
    # OS-level memory (extra-JVM leaks)
    # ------------------------------------------------------------------
    def leak_os_memory(self, nbytes):
        """Memory leaked by another process on this node."""
        self.os_leaked += nbytes
        self._apply_os_pressure()

    def _apply_os_pressure(self):
        if self.os_available <= 0:
            # The OS cannot service the JVM any more: accepts start failing.
            self.server.accept_fault = "ENOMEM: node out of memory"

    # ------------------------------------------------------------------
    # Node-level slowdown (chaos fault)
    # ------------------------------------------------------------------
    def inject_slowdown(self, hogs=2):
        """Another process on this node starts hogging the CPU.

        Each hog stretches every request's service time like a runaway
        thread — except it lives *outside* the JVM, so no microreboot or
        JVM restart cures it (an OS reboot kills the process).
        """
        for _ in range(hogs):
            self.server.cpu.add_hog()
        self.slowdown_hogs += hogs
        self.kernel.trace.publish(
            "node.slowdown", node=self.name, hogs=self.slowdown_hogs
        )

    def clear_slowdown(self):
        """The hogging process exits (chaos heal or OS reboot)."""
        if self.slowdown_hogs <= 0:
            return
        for _ in range(self.slowdown_hogs):
            self.server.cpu.remove_hog()
        self.slowdown_hogs = 0
        self.kernel.trace.publish("node.slowdown.clear", node=self.name)

    # ------------------------------------------------------------------
    # Recovery actions (the node_controller protocol)
    # ------------------------------------------------------------------
    def restart_jvm(self):
        """Generator: kill -9 the JVM and cold-boot it (§4, via ssh)."""
        self.jvm_restarts += 1
        started = self.kernel.now
        self.kernel.trace.publish("node.restart", node=self.name, action="jvm")
        self.system.database.close_sessions_owned_by(
            self._db_session_owners()
        )
        yield from self.server.restart_jvm()
        # A JVM restart does not help an exhausted OS: reinstate pressure.
        self._apply_os_pressure()
        self.kernel.trace.publish(
            "node.restart.end", node=self.name, action="jvm",
            duration=self.kernel.now - started,
        )

    def reboot_os(self):
        """Generator: reboot the whole node."""
        self.os_reboots += 1
        started = self.kernel.now
        self.kernel.trace.publish("node.restart", node=self.name, action="os")
        self.server.kill()
        yield self.kernel.timeout(self.server.timing.os_reboot_time)
        self.os_leaked = 0
        self.clear_slowdown()  # the hogging processes died with the OS
        yield from self.server.boot(cold=True)
        self.kernel.trace.publish(
            "node.restart.end", node=self.name, action="os",
            duration=self.kernel.now - started,
        )

    def _db_session_owners(self):
        """Owners of database sessions opened from this JVM.

        When the JVM dies, the OS tears down its TCP connections and the
        database terminates the corresponding sessions immediately (§7).
        """
        return [
            session.owner
            for session in self.system.database._sessions.values()
            if getattr(session.owner, "server", None) is self.server
        ]
