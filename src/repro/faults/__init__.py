"""Fault injection (§5.1).

The hooks mirror what the paper's industry contacts report plaguing
production J2EE systems: deadlocked threads, infinite loops, leak-induced
resource exhaustion, bug-induced corruption of volatile metadata, and
incorrectly-handled transient exceptions — plus FIG/FAUmachine-style
low-level faults injected underneath the JVM layer.

Injection corrupts *real* data structures (the JNDI map, transaction method
maps, the primary-key generator, instance attributes, store contents), so
failures manifest organically when request processing touches the damage,
and a microreboot cures them only because it genuinely discards and
reconstructs that state.
"""

from repro.faults.chaos import (ChaosEngine, ChaosEvent, ChaosSpec,
                                FaultExecutor)
from repro.faults.corruption import CorruptionMode
from repro.faults.injector import FaultInjector, InjectedFault
from repro.faults.lowlevel import LowLevelInjector

__all__ = [
    "ChaosEngine",
    "ChaosEvent",
    "ChaosSpec",
    "CorruptionMode",
    "FaultExecutor",
    "FaultInjector",
    "InjectedFault",
    "LowLevelInjector",
]
