"""Processor-sharing CPU model for a middle-tier node.

Response-time dynamics drive several of the paper's results (Figure 4,
Table 4: requests exceeding 8 s during failover under doubled load), so the
CPU cannot be a fixed per-request delay — it must slow down under load and
recover as the backlog drains.

We approximate processor sharing: a job needing ``t`` seconds of CPU is
served in quanta, and each quantum is stretched by the number of jobs
currently sharing the processor.  This preserves the closed-loop behaviour
that matters (saturation when offered load exceeds capacity, graceful
slowdown otherwise) at a few simulator events per request.

"Hogs" model runaway computations (the injected infinite loops of §5.1): a
hog occupies the processor indefinitely, inflating everyone else's service
times until the hog's thread is killed by a microreboot.
"""

from repro.sim.errors import SimulationError


class ProcessorSharingCpu:
    """Quantum-based processor-sharing approximation."""

    def __init__(self, kernel, cores=1, quantum=0.004):
        if cores < 1:
            raise SimulationError(f"cores must be >= 1, got {cores}")
        if quantum <= 0:
            raise SimulationError(f"quantum must be positive, got {quantum}")
        self.kernel = kernel
        self.cores = cores
        self.quantum = quantum
        self._active = 0
        self._hogs = 0

    @property
    def active_jobs(self):
        """Jobs currently consuming CPU, including hogs."""
        return self._active + self._hogs

    @property
    def load(self):
        """Instantaneous load: jobs per core."""
        return self.active_jobs / self.cores

    def consume(self, demand):
        """Generator: occupy the CPU for ``demand`` seconds of service.

        Yield from this inside a simulated process.  The elapsed simulated
        time is ``demand`` when the processor is uncontended and stretches
        proportionally to the number of concurrent jobs otherwise.  The
        accounting is interrupt-safe: a killed shepherd thread stops
        contributing to the load.
        """
        if demand < 0:
            raise SimulationError(f"negative CPU demand: {demand}")
        self._active += 1
        try:
            remaining = demand
            while remaining > 0:
                slice_ = min(remaining, self.quantum)
                # Each quantum is stretched by the jobs per core sharing
                # it (at least 1): max(1.0, active_jobs / cores).
                stretch = (self._active + self._hogs) / self.cores
                yield self.kernel.timeout(
                    slice_ * (stretch if stretch > 1.0 else 1.0)
                )
                remaining -= slice_
        finally:
            self._active -= 1

    # ------------------------------------------------------------------
    # Runaway computations
    # ------------------------------------------------------------------
    def add_hog(self):
        """Register a thread stuck in an infinite loop."""
        self._hogs += 1

    def remove_hog(self):
        """Unregister a runaway thread (its shepherd was killed)."""
        if self._hogs <= 0:
            raise SimulationError("remove_hog() with no registered hogs")
        self._hogs -= 1
