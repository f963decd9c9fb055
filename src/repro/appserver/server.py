"""The application server: deployment, request handling, process lifecycle.

This is the JBoss analogue.  One :class:`ApplicationServer` is one JVM
process on one middle-tier node: it hosts the naming service, transaction
manager, classloaders, component containers, a heap, and a CPU.  Requests
arrive through :meth:`handle_request`, are carried by shepherd-thread
processes through the WAR and the EJBs, and are bounded by a request lease
(the TTL of §2, "Leases") that purges stuck requests.
"""

import enum

from repro.appserver.classloader import ClassLoaderRegistry
from repro.appserver.component import InvocationContext
from repro.appserver.container import Container, ContainerState
from repro.appserver.cpu import ProcessorSharingCpu
from repro.appserver.descriptors import ComponentKind
from repro.appserver.errors import (
    AppServerError,
    ComponentUnavailableError,
    ServerDownError,
)
from repro.appserver.http import (
    HttpResponse,
    HttpStatus,
    error_response,
    status_key,
)
from repro.appserver.memory import HeapModel
from repro.appserver.naming import NamingService
from repro.appserver.timing import TimingModel
from repro.appserver.transactions import TransactionManager
from repro.sim.errors import Interrupt


class ServerState(enum.Enum):
    STOPPED = "stopped"
    STARTING = "starting"
    RUNNING = "running"


class ConnectionPool:
    """Database connection pool — server metadata a µRB does *not* scrub.

    §7: "our implementation of µRB does not scrub data maintained by the
    application server on behalf of the application, such as the database
    connection pool and various caches"; low-level faults (bit flips) that
    corrupt it therefore require a JVM restart.
    """

    def __init__(self):
        self.healthy = True

    def checkout(self):
        if not self.healthy:
            raise AppServerError("database connection pool is corrupted")

    def reset(self):
        self.healthy = True


def _purge(lease):
    """An expired request lease's callback: interrupt the shepherd it was
    armed for (the lease's value), which answers with a dropped
    connection."""
    lease.value.interrupt(cause="request-lease-expired")


def network_error_response(reason):
    """What a client sees when the server process is not accepting."""
    return HttpResponse(
        status=HttpStatus.INTERNAL_SERVER_ERROR,
        body=f"network error: {reason}",
        network_error=True,
    )


class ApplicationServer:
    """One JVM running the microreboot-enabled application server."""

    def __init__(self, kernel, rng, timing=None, name=None):
        self.kernel = kernel
        self.rng = rng
        self.timing = timing or TimingModel()
        # Numbered per kernel: the name reaches traces and session cookies,
        # so it must not depend on what the process built before.
        self.name = name or f"server-{next(kernel.server_ids)}"
        self.heap = HeapModel()
        self.cpu = ProcessorSharingCpu(kernel, quantum=self.timing.cpu_quantum)
        self.naming = NamingService()
        self.transactions = TransactionManager()
        self.classloaders = ClassLoaderRegistry()
        self.connection_pool = ConnectionPool()
        self.containers = {}
        self.state = ServerState.STOPPED

        #: External resources, wired by the assembly code.
        self.database = None
        self.session_store = None
        self.static_store = None

        #: Deployed applications: name -> list of descriptors, in deploy order.
        self.applications = {}
        self.web_component_name = None

        #: Transparent call-retry machinery of §6.2 (off by default, as in
        #: the paper's baseline experiments).
        self.retry_enabled = False

        #: Request lease: stuck requests are purged after this many seconds.
        self.request_lease_ttl = 12.0

        #: Session-cookie serial: per-server (the name makes the cookie
        #: cluster-unique), monotone across microreboots, and — unlike a
        #: process-global counter — deterministic run to run, so session
        #: placement on a shard ring is a pure function of the seed.
        self.session_serial = 0

        #: Server-level fault hook (bad syscall returns): when set, request
        #: admission fails with the given exception message.
        self.accept_fault = None

        #: Span layer (wired by the rig): admitted requests get a
        #: TraceContext attached here unless one is already attached.
        self.span_collector = None

        # Statistics.
        self.requests_accepted = 0
        self.requests_completed = 0
        self.responses_by_status = {}

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------
    def deploy(self, app_name, descriptors):
        """Register an application's components (containers are built now,
        initialized by :meth:`boot`)."""
        if app_name in self.applications:
            raise AppServerError(f"application {app_name!r} already deployed")
        self.applications[app_name] = list(descriptors)
        for descriptor in descriptors:
            if descriptor.name in self.containers:
                raise AppServerError(f"component {descriptor.name!r} already exists")
            loader = self.classloaders.loader_for(descriptor.name)
            self.containers[descriptor.name] = Container(self, descriptor, loader)
            if descriptor.kind is ComponentKind.WEB:
                self.web_component_name = descriptor.name
        # Reboot-coupled metadata spans containers symmetrically (§3.2):
        # each container learns its group peers so it can detect a stale
        # cross-container reference if a peer is ever recycled without it.
        names = {d.name for d in descriptors}
        for descriptor in descriptors:
            for ref in descriptor.group_references:
                if ref not in names:
                    raise AppServerError(
                        f"{descriptor.name!r} group-references unknown "
                        f"component {ref!r}"
                    )
                self.containers[descriptor.name].group_peers.add(ref)
                self.containers[ref].group_peers.add(descriptor.name)

    def descriptors_for(self, app_name):
        return list(self.applications[app_name])

    def component_names(self, app_name=None):
        """Deployed component names (optionally of one application)."""
        if app_name is None:
            return list(self.containers)
        return [d.name for d in self.applications[app_name]]

    # ------------------------------------------------------------------
    # Process lifecycle
    # ------------------------------------------------------------------
    def boot(self, cold=True):
        """Generator: start the JVM/JBoss process and deploy applications.

        ``cold=True`` charges the full service-initialization plus
        application-deployment time (Table 3's 19.083 s JVM restart);
        ``cold=False`` is used by tests to build a running system without
        simulating start-up time.
        """
        if self.state is not ServerState.STOPPED:
            raise AppServerError(f"boot() while {self.state.value}")
        self.state = ServerState.STARTING
        if cold:
            yield self.kernel.timeout(self.timing.jboss_services_init_time())
            yield self.kernel.timeout(self.timing.jvm_app_deploy_time)
        for descriptors in self.applications.values():
            for descriptor in descriptors:
                container = self.containers[descriptor.name]
                container.classloader = self.classloaders.loader_for(descriptor.name)
                container.initialize()
                self.naming.bind(descriptor.name, descriptor.name)
        self.connection_pool.reset()
        self.state = ServerState.RUNNING

    def kill(self):
        """``kill -9`` the JVM: immediate, destructive, loses in-JVM state.

        In-flight shepherd threads die; the database rolls back their
        transactions (its TCP sessions terminate); the heap, classloaders
        (and thus static variables), connection pool, and any session store
        living inside the JVM are lost.
        """
        self.state = ServerState.STOPPED
        for container in self.containers.values():
            container.destroy(cause="jvm-kill")
            container.state = ContainerState.STOPPED
        self.transactions.abort_all()
        for name in list(self.naming.bound_names()):
            self.naming.unbind(name)
        self.heap.release_all()
        self.classloaders.discard_all()
        self.connection_pool.reset()
        self.accept_fault = None
        if self.session_store is not None:
            self.session_store.notify_jvm_exit(self)

    def restart_jvm(self):
        """Generator: the paper's coarsest in-node recovery action."""
        self.kill()
        yield self.kernel.timeout(self.timing.jvm_crash_time)
        yield from self.boot(cold=True)

    def assert_running(self):
        if self.state is not ServerState.RUNNING:
            raise ServerDownError(f"{self.name} is {self.state.value}")

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    def handle_request(self, request):
        """Accept a request; returns an event triggering with the response.

        The event always *succeeds* — failures are encoded in the response
        (HTTP status, error body, or a network-error marker), because that
        is what the paper's client-side detectors observe.  An admitted
        request gets one process, its shepherd thread (:meth:`_shepherd`),
        which triggers the event once the response is counted.
        """
        done = self.kernel.event()
        if self.state is not ServerState.RUNNING:
            return done.succeed(network_error_response("connection refused"))
        if self.accept_fault is not None:
            return done.succeed(network_error_response(self.accept_fault))
        self.requests_accepted += 1
        request.server = self.name
        if self.span_collector is not None:
            self.span_collector.attach(request)
        ctx = InvocationContext(self, request)
        ctx.shepherd_process = self.kernel.process(
            self._shepherd(ctx, request, done),
            name=f"shepherd-{request.request_id}",
        )
        return done

    def _shepherd(self, ctx, request, done):
        """Generator: the shepherd thread, the one process of a request.

        It arms the request lease first: a timer whose value is this
        shepherd and whose callback (:func:`_purge`) interrupts it, so a
        request still in flight when the lease expires is purged (§2,
        "stuck requests can be automatically purged").  Once the response
        is made, the shepherd retires the lease if it is still pending,
        counts the response and triggers ``done`` with it, in that order:
        whoever waits on ``done`` sees the counts already updated.
        """
        lease = self.kernel.timeout(
            self.request_lease_ttl, ctx.shepherd_process
        )
        lease.callbacks.append(_purge)
        try:
            response = yield from self._serve(ctx, request)
        except Exception:  # noqa: BLE001 - the shepherd died uncleanly
            response = network_error_response("connection reset (thread died)")
        if lease.callbacks:  # pending: unhook _purge, then retire the timer
            lease.callbacks.clear()
            lease.cancel()
        self.requests_completed += 1
        key = status_key(response)
        self.responses_by_status[key] = self.responses_by_status.get(key, 0) + 1
        done.succeed(response)

    def _serve(self, ctx, request):
        """Generator: carry the request through the WAR and the EJBs.

        Every outcome is turned into an :class:`HttpResponse` for the
        detectors to inspect; only an error raised while building one
        escapes (the shepherd dies uncleanly).
        """
        try:
            response = yield from ctx.call(
                self.web_component_name, "handle", request
            )
            if not isinstance(response, HttpResponse):
                response = error_response(
                    HttpStatus.INTERNAL_SERVER_ERROR,
                    f"servlet returned {type(response).__name__}",
                )
        except Interrupt as interrupt:
            # The thread was killed (microreboot, JVM kill, or lease
            # expiry); the client observes a dropped connection.
            response = network_error_response(
                f"connection reset ({interrupt.cause})"
            )
        except ComponentUnavailableError as unavailable:
            if self.retry_enabled and request.idempotent and unavailable.retry_after:
                response = HttpResponse(
                    status=HttpStatus.SERVICE_UNAVAILABLE,
                    body="retry later",
                    retry_after=unavailable.retry_after,
                )
            else:
                response = error_response(
                    HttpStatus.INTERNAL_SERVER_ERROR,
                    f"exception: {unavailable}",
                )
        except AppServerError as exc:
            response = error_response(
                HttpStatus.INTERNAL_SERVER_ERROR, f"exception: {exc}"
            )
        except Exception as exc:  # noqa: BLE001 - bean bugs become 500s
            response = error_response(
                HttpStatus.INTERNAL_SERVER_ERROR,
                f"unhandled exception: {type(exc).__name__}: {exc}",
            )
        return response

    def __repr__(self):
        return f"<ApplicationServer {self.name} {self.state.value}>"
