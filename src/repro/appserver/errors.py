"""Exception hierarchy for the application-server platform.

The split mirrors the failure taxonomy the paper's detectors care about:
platform-level conditions (server down, component unavailable, out of
memory), application-level exceptions (the "various Java exceptions handled
incorrectly" of §5.1), and naming / transaction / invocation errors elicited
by metadata corruption.
"""


class AppServerError(Exception):
    """Base class for all platform errors."""


class ServerDownError(AppServerError):
    """The server process is not accepting connections (JVM down or OS down).

    Clients observe this as a network-level error ("cannot connect to
    server"), one of the signals the paper's simple fault detector uses.
    """


class ComponentUnavailableError(AppServerError):
    """A call reached a component that is currently microrebooting.

    When the retry machinery of §6.2 is enabled, this carries the estimated
    recovery time so the web tier can answer ``503 Retry-After``.
    """

    def __init__(self, component, retry_after=None):
        super().__init__(f"component {component!r} is unavailable")
        self.component = component
        self.retry_after = retry_after


class NamingError(AppServerError):
    """A JNDI lookup failed (unbound name or corrupted entry)."""

    def __init__(self, name, reason="not bound"):
        super().__init__(f"naming lookup of {name!r} failed: {reason}")
        self.name = name
        self.reason = reason


class InvocationError(AppServerError):
    """A call could not be dispatched (e.g. no such method on the target).

    This is what a *wrong* JNDI entry elicits: the call lands on a container
    that does not implement the requested method.
    """


class TransactionError(AppServerError):
    """Transaction demarcation or completion failed."""


class ApplicationException(AppServerError):
    """An exception escaping application code (the EJB's business logic)."""

    def __init__(self, component, message):
        super().__init__(f"exception in {component}: {message}")
        self.component = component


class OutOfMemoryError_(AppServerError):
    """The simulated JVM heap is exhausted.

    Named with a trailing underscore to avoid shadowing the Python builtin
    while keeping the Java name recognizable.
    """


class StaleReferenceError(AppServerError):
    """A cross-container metadata reference points at a recycled peer.

    This is why recovery groups exist (§3.2): "EJBs might maintain
    references to other EJBs and ... certain metadata relationships can
    span containers".  Microrebooting one member of a coupled group leaves
    its peers holding references to the destroyed incarnation; the next
    invocation through such a reference fails here.  The microreboot
    coordinator avoids this by always recycling the transitive closure.
    """

    def __init__(self, component, peer):
        super().__init__(
            f"{component} holds a stale reference to {peer} "
            f"(peer was recycled without its recovery group)"
        )
        self.component = component
        self.peer = peer
