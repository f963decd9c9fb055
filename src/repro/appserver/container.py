"""Per-component management containers.

"There is one container per EJB object, and it manages all instances of that
object" (§3.1).  The container owns the instance pool, the volatile
transaction-method map (a fault-injection target), the set of in-flight
invocations (the shepherd threads a microreboot must kill), and the
interceptor chain every call passes through.
"""

import enum

from repro.appserver.component import StatelessSessionBean
from repro.appserver.descriptors import TxAttribute
from repro.appserver.errors import (
    AppServerError,
    ComponentUnavailableError,
    InvocationError,
    StaleReferenceError,
    TransactionError,
)


class ContainerState(enum.Enum):
    STOPPED = "stopped"
    RUNNING = "running"
    MICROREBOOTING = "microrebooting"


class Container:
    """Lifecycle manager and call mediator for one component."""

    def __init__(self, server, descriptor, classloader):
        self.server = server
        self.descriptor = descriptor
        self.classloader = classloader
        self.name = descriptor.name
        self.state = ContainerState.STOPPED
        self.instances = []
        self._round_robin = 0
        #: Volatile copy of the descriptor's transaction attributes; rebuilt
        #: on every (re)initialization, corruptible by fault injection.
        self.tx_method_map = {}
        #: In-flight invocations: ctx -> method name.  A microreboot kills
        #: the shepherd process of every ctx present here.
        self.active_invocations = {}
        #: Fault-injection extension points: generators run before dispatch.
        #: ``invocation_hooks`` model faults lodged in the component's
        #: volatile state (cleared when a microreboot rebuilds it);
        #: ``persistent_invocation_hooks`` model bugs in the code itself
        #: (e.g. a leak on every invocation), which no reboot removes.
        self.invocation_hooks = []
        self.persistent_invocation_hooks = []
        self.invocation_count = 0
        self.failed_invocation_count = 0
        self.generation = 0  # bumped by every (re)initialization
        #: Names of reboot-coupled peer components (symmetric closure of the
        #: descriptors' group_references; filled in by the server's deploy).
        self.group_peers = set()
        #: Peer name -> the peer generation this container's metadata was
        #: built against.  Captured lazily on first use; a mismatch means a
        #: peer was recycled without this container — a stale reference.
        self._peer_generations = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def initialize(self):
        """(Re)build instances and volatile metadata; container goes live.

        Timing (the descriptor's ``reinit_time``) is charged by whoever
        drives the lifecycle — the deployer on start-up, the microreboot
        coordinator during recovery — because those paths overlap work
        differently (§5.2).
        """
        self.tx_method_map = dict(self.descriptor.tx_methods)
        self.instances = [self._new_instance() for _ in range(self.descriptor.pool_size)]
        self._round_robin = 0
        self._peer_generations = {}
        self.generation += 1
        self.state = ContainerState.RUNNING

    def destroy(self, cause="shutdown"):
        """Forcefully stop: kill shepherd threads, drop instances/metadata.

        Implements the destructive half of a µRB (§3.2): "destroys all
        extant instances, kills all shepherding threads associated with
        those instances, releases all associated resources, discards server
        metadata maintained on behalf of the component".  The classloader is
        deliberately *not* touched here.
        """
        interrupted = sum(
            1 for ctx in self.active_invocations if ctx.shepherd_process is not None
        )
        self.server.kernel.trace.publish(
            "component.destroy",
            component=self.name,
            cause=cause,
            interrupted_threads=interrupted,
        )
        for ctx in list(self.active_invocations):
            if ctx.shepherd_process is not None:
                ctx.shepherd_process.interrupt(cause=f"{cause}:{self.name}")
        self.active_invocations.clear()
        for instance in self.instances:
            instance.on_stop()
        self.instances = []
        self.tx_method_map = {}
        self.invocation_hooks = []
        if self.state is not ContainerState.MICROREBOOTING:
            self.state = ContainerState.STOPPED

    def _new_instance(self):
        instance = self.descriptor.factory()
        instance.setup(self)
        instance.on_start()
        return instance

    def _pick_instance(self):
        if not self.instances:
            raise AppServerError(f"container {self.name!r} has no instances")
        instance = self.instances[self._round_robin % len(self.instances)]
        self._round_robin += 1
        return instance

    def _discard_instance(self, instance):
        """Replace a failed stateless-session instance with a fresh one.

        Standard EJB behaviour, and the reason corrupted instance attributes
        are "naturally expunged from the system after the first call fails"
        (Table 2).
        """
        try:
            index = self.instances.index(instance)
        except ValueError:
            return
        instance.failed = True
        instance.on_stop()
        self.instances[index] = self._new_instance()

    # ------------------------------------------------------------------
    # Invocation (the interceptor chain)
    # ------------------------------------------------------------------
    def invoke(self, ctx, method, args, kwargs):
        """Generator: dispatch one call through the interceptor chain.

        When the request carries a trace, the whole dispatch — including
        the state checks and fault hooks that run *before* an instance is
        picked — is bracketed by a span, so a component whose injected
        fault fires pre-dispatch still shows up on the failed path (the
        property Pinpoint-style localization depends on).

        One generator covers the span and the dispatch: every yield of the
        business method passes through each enclosing generator, so the
        request path keeps as few of them as it can.
        """
        trace = ctx.trace
        if trace is not None:
            parent = ctx.current_span
            span = trace.start_span(self.name, parent=parent)
            if span is not None:
                ctx.current_span = span
        try:
            server = self.server
            server.assert_running()
            if self.state is ContainerState.MICROREBOOTING:
                raise ComponentUnavailableError(
                    self.name, retry_after=self.descriptor.microreboot_time
                )
            if self.state is ContainerState.STOPPED:
                raise ComponentUnavailableError(self.name)
            server.heap.check_allocation()
            if self.group_peers:
                self._validate_group_references()

            # The shepherd thread is "inside" the component from here on:
            # faults injected via hooks (deadlocks, infinite loops) stall
            # threads that a microreboot must be able to find and kill.
            self.active_invocations[ctx] = method
            began_tx = suspended_tx = None
            instance = None
            saved_write_count = None
            try:
                if self.persistent_invocation_hooks or self.invocation_hooks:
                    for hook in [
                        *self.persistent_invocation_hooks, *self.invocation_hooks
                    ]:
                        yield from hook(self, ctx, method)

                began_tx, suspended_tx = self._apply_tx_attribute(ctx, method)
                instance = self._pick_instance()
                saved_write_count = ctx.nontx_write_count
                ctx.nontx_write_count = 0
                self.invocation_count += 1
                if ctx.transaction is not None:
                    ctx.transaction.touch(self.name)

                handler = getattr(instance, method, None)
                if method.startswith("_") or not callable(handler):
                    raise InvocationError(
                        f"container {self.name!r} does not implement {method!r}"
                    )
                result = yield from handler(ctx, *args, **kwargs)
                if ctx.nontx_write_count:
                    self._post_invoke_demarcation_check(ctx, method)
            except BaseException:
                self.failed_invocation_count += 1
                if (
                    instance is not None
                    and isinstance(instance, StatelessSessionBean)
                    and self.instances
                ):
                    self._discard_instance(instance)
                if began_tx is not None and began_tx.is_active:
                    server.transactions.rollback(began_tx)
                    ctx.transaction = None
                raise
            else:
                if began_tx is not None and began_tx.is_active:
                    server.transactions.commit(began_tx)
                    ctx.transaction = None
            finally:
                self.active_invocations.pop(ctx, None)
                if saved_write_count is not None:
                    ctx.nontx_write_count += saved_write_count
                if suspended_tx is not None:
                    ctx.transaction = suspended_tx
        except BaseException:
            if trace is not None:
                if span is not None:
                    span.failed = True
                ctx.current_span = parent
            raise
        if trace is not None:
            ctx.current_span = parent
        return result

    def _validate_group_references(self):
        """Fail fast on metadata references into a recycled group peer.

        The first invocation after a (re)initialization snapshots each
        reboot-coupled peer's generation — the incarnation this container's
        cross-container metadata now refers to.  If a peer is later
        recycled *without* this container (something the microreboot
        coordinator's group expansion prevents, and an ablated coordinator
        does not), the dangling reference surfaces here.
        """
        for peer_name in self.group_peers:
            peer = self.server.containers.get(peer_name)
            if peer is None or peer.state is not ContainerState.RUNNING:
                continue  # unavailable peers fail later, through naming
            cached = self._peer_generations.get(peer_name)
            if cached is None:
                self._peer_generations[peer_name] = peer.generation
            elif cached != peer.generation:
                raise StaleReferenceError(self.name, peer_name)

    def _apply_tx_attribute(self, ctx, method):
        """Transaction interceptor: demarcate per the (volatile) method map.

        Returns ``(began_tx, suspended_tx)``.  Raises TransactionError for
        corrupted map entries: a null entry elicits the NPE-style failure
        the paper injects, a type-invalid entry an "unknown attribute"
        failure.  A *wrong* (valid but different) attribute is applied
        as-is — the damage surfaces later, in the post-invocation check.
        """
        if method not in self.tx_method_map and method not in self.descriptor.tx_methods:
            # Method has no declared demarcation: default Supports.
            return None, None
        if method not in self.tx_method_map:
            raise TransactionError(
                f"transaction method map of {self.name!r} lost entry {method!r}"
            )
        attribute = self.tx_method_map[method]
        if attribute is None:
            raise TransactionError(
                f"null transaction attribute for {self.name}.{method}"
            )
        if not isinstance(attribute, TxAttribute):
            raise TransactionError(
                f"invalid transaction attribute {attribute!r} "
                f"for {self.name}.{method}"
            )
        if attribute is TxAttribute.REQUIRED:
            if ctx.transaction is None:
                ctx.transaction = self.server.transactions.begin(ctx)
                return ctx.transaction, None
            return None, None
        if attribute is TxAttribute.NOT_SUPPORTED:
            suspended, ctx.transaction = ctx.transaction, None
            return None, suspended
        return None, None  # SUPPORTS

    def _post_invoke_demarcation_check(self, ctx, method):
        """Detect methods that ran outside their declared transaction.

        When the volatile map was corrupted to a *wrong* attribute, a method
        declared ``Required`` completes having auto-committed its writes
        individually.  The container notices the mismatch here — after the
        writes have already been flushed — so the failure is visible to the
        caller *and* partial state persists in the database, reproducing the
        ``≈`` (manual repair) outcome of Table 2.
        """
        declared = self.descriptor.tx_methods.get(method)
        if (
            declared is TxAttribute.REQUIRED
            and ctx.transaction is None
            and ctx.nontx_write_count > 0
        ):
            raise TransactionError(
                f"{self.name}.{method} is declared Required but completed "
                f"with {ctx.nontx_write_count} auto-committed write(s)"
            )

    def __repr__(self):
        return f"<Container {self.name!r} {self.state.value}>"
