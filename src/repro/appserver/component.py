"""Component model: beans, the web component, and the invocation context.

Application code (eBid) is written as component classes whose business
methods are *generators*: they ``yield`` simulation events (CPU consumption,
store accesses) and call other components through the
:class:`InvocationContext`, never through direct references (§2,
"Decoupling").  A single shepherd thread carries a request through the WAR
and every EJB it touches, exactly as in J2EE where "a single Java thread
shepherds a user request through multiple EJBs" (§3.1).
"""

from repro.appserver.descriptors import ComponentKind
from repro.appserver.http import HttpStatus, error_response, longest_prefix
from repro.appserver.errors import (
    ApplicationException,
    ComponentUnavailableError,
    NamingError,
)
from repro.appserver.naming import Sentinel


class InvocationContext:
    """Per-request state threaded through every component call.

    Attributes:
        server: the :class:`~repro.appserver.server.ApplicationServer`.
        request: the :class:`~repro.appserver.http.HttpRequest` being served
            (None for internally-generated work).
        transaction: the active :class:`~repro.appserver.transactions
            .Transaction`, or None.
        shepherd_process: the simulated process carrying the request; the
            microreboot machinery interrupts it to kill the thread.
        nontx_write_count: auto-committed (non-transactional) persistent
            writes performed by the current invocation frame; the container
            uses it for its post-invocation demarcation check.
        trace: the request's :class:`~repro.telemetry.spans.TraceContext`
            (None when spans are disabled); containers bracket invocations
            with spans against it.
        current_span: the innermost open span, i.e. the parent for the next
            component call's span.
    """

    __slots__ = (
        "server", "request", "transaction", "shepherd_process",
        "nontx_write_count", "trace", "current_span",
    )

    def __init__(self, server, request=None):
        self.server = server
        self.request = request
        self.transaction = None
        self.shepherd_process = None
        self.nontx_write_count = 0
        self.trace = getattr(request, "trace", None) if request is not None else None
        self.current_span = None

    # ------------------------------------------------------------------
    # Calling other components
    # ------------------------------------------------------------------
    def call(self, name, method, *args, **kwargs):
        """Invoke ``method`` on component ``name`` through the platform.

        Business methods use ``result = yield from ctx.call(...)``.  The
        call is mediated by the naming service and the target's container,
        which applies the interceptor chain (state check, transaction
        demarcation, fault hooks).  The name is resolved here and the
        container's invocation generator is returned as-is, so the
        caller's ``yield from`` drives it without a wrapper generator in
        between.

        Raises:
            NamingError: unbound or null-corrupted JNDI entry.
            ComponentUnavailableError: the target is microrebooting (carries
                the sentinel's retry-after estimate).
            InvocationError: the resolved container does not implement
                ``method`` (a *wrong* JNDI entry sends the call to the wrong
                container); raised once the returned generator runs.
        """
        server = self.server
        binding = server.naming.lookup(name)
        if isinstance(binding, Sentinel):
            raise ComponentUnavailableError(name, retry_after=binding.retry_after)
        container = server.containers.get(binding)
        if container is None:
            raise NamingError(name, f"entry points at unknown container {binding!r}")
        return container.invoke(self, method, args, kwargs)

    # ------------------------------------------------------------------
    # Resource consumption
    # ------------------------------------------------------------------
    def consume(self, seconds):
        """Burn ``seconds`` of node CPU (with jitter, shared).

        Returns the CPU's consume generator, for ``yield from``; the
        jitter is drawn now, as the generator is made.
        """
        server = self.server
        return server.cpu.consume(server.timing.sample(server.rng, seconds))

    def io_delay(self, seconds):
        """The timeout event of an I/O latency (network/disk, no CPU held).

        Yield it: ``yield ctx.io_delay(seconds)``.
        """
        server = self.server
        return server.kernel.timeout(server.timing.sample(server.rng, seconds))


class Component:
    """Base class for everything deployable.

    Subclasses define business methods as generators taking ``(self, ctx,
    ...)``.  The container instantiates components via the descriptor's
    factory, then calls :meth:`setup`; :meth:`on_start` runs once per
    (re)initialization.
    """

    KIND = None  # subclasses set a ComponentKind

    def __init__(self):
        self.container = None
        self.server = None
        self.failed = False  # set when an invocation on this instance blew up

    def setup(self, container):
        """Wire the instance to its container; called before on_start."""
        self.container = container
        self.server = container.server

    @property
    def name(self):
        return self.container.name if self.container else type(self).__name__

    @property
    def statics(self):
        """The component class' static-variable table.

        Lives on the classloader, so it survives microreboots (§3.2).
        eBid's beans do not use mutable statics; this exists so tests can
        demonstrate the hazard.
        """
        return self.container.classloader.statics

    def on_start(self):
        """Hook run when the component (re)initializes.  May be overridden."""

    def on_stop(self):
        """Hook run when the component is stopped/destroyed."""

    def app_error(self, message):
        """Build an ApplicationException attributed to this component."""
        return ApplicationException(self.name, message)


class EntityBean(Component):
    """A persistent application object mapped to a database table.

    Uses container-managed persistence (§3.3): the bean never writes SQL;
    the helpers below charge the database access latency, enlist the active
    transaction, and go through the server's database reference.

    Persistence follows the *lenient* J2EE container behaviour: with an
    active transaction, writes are undo-logged and atomic; without one, each
    write auto-commits individually.  The container's post-invocation check
    flags methods that were declared transactional but completed with
    auto-committed writes — that mismatch is how a corrupted ("wrong")
    transaction method map manifests as both a user-visible failure and
    persistent partial state needing manual repair (Table 2's ``≈``).
    """

    KIND = ComponentKind.ENTITY

    @property
    def table(self):
        return self.container.descriptor.table

    def _db(self):
        # Every persistence operation checks a connection out of the
        # server's pool — metadata that microreboots do not scrub, so a
        # low-level fault corrupting the pool fails every entity access
        # until the JVM restarts (§7, Table 2's bit-flip rows).
        self.server.connection_pool.checkout()
        database = self.server.database
        if database is None:
            raise self.app_error("no database configured")
        return database

    def _charge(self, ctx):
        """The database access latency, as an event to yield."""
        return ctx.io_delay(self.server.timing.db_access_time)

    def _tx_id(self, ctx):
        """Enlist and return the current tx id, or None for auto-commit."""
        tx = ctx.transaction
        if tx is None:
            ctx.nontx_write_count += 1
            return None
        tx.enlist(self._db())
        return tx.tx_id

    # -- reads ----------------------------------------------------------
    def ejb_load(self, ctx, pk):
        """Generator: load one row by primary key (None if absent)."""
        yield self._charge(ctx)
        return self._db().read(self.table, pk)

    def ejb_find(self, ctx, *, limit=None, key=None, **equals):
        """Generator: rows whose columns equal the given values.

        ``key`` orders and ``limit`` truncates the rows inside
        :meth:`~repro.stores.database.Database.select`, so a finder that
        keeps the first few rows copies only those.
        """
        yield self._charge(ctx)
        return self._db().select(self.table, limit=limit, key=key, **equals)

    # -- writes ---------------------------------------------------------
    def ejb_create(self, ctx, row):
        """Generator: insert a row (primary key must be present)."""
        yield self._charge(ctx)
        self._db().insert(self.table, row, tx_id=self._tx_id(ctx))
        return row

    def ejb_store(self, ctx, pk, **fields):
        """Generator: update columns of an existing row."""
        yield self._charge(ctx)
        self._db().update(self.table, pk, fields, tx_id=self._tx_id(ctx))


class StatelessSessionBean(Component):
    """A higher-level operation over entity beans (§3.3).

    Holds no conversational state; any instance can serve any call.  The
    container discards an instance whose invocation raised — which is why
    corrupted instance attributes are "naturally expunged after the first
    call fails" (Table 2).
    """

    KIND = ComponentKind.STATELESS_SESSION


class WebComponent(Component):
    """The WAR: servlets that drive EJBs and render responses.

    Subclasses register servlets by URL prefix.  The WAR owns a small
    rendered-fragment cache (browse pages are cache-friendly); the cache is
    discarded on WAR microreboot, which is why a wrong value computed by a
    faulty bean can outlive that bean's own µRB until the WAR is also
    recycled (Table 2, "corrupt session EJB attributes — wrong").
    """

    KIND = ComponentKind.WEB

    def __init__(self):
        super().__init__()
        self._servlets = {}
        #: URL -> servlet (None when nothing matches): the memo behind
        #: :meth:`servlet_for`.  It lives on the instance, so a WAR
        #: microreboot discards it with the instance.
        self._routes = {}
        self.fragment_cache = {}

    def register_servlet(self, url_prefix, handler):
        """Map a URL prefix to a generator method ``handler(ctx, request)``."""
        self._servlets[url_prefix] = handler
        self._routes.clear()

    def handle(self, ctx, request):
        """Generator: the WAR's entry point — route to a servlet.

        The server invokes this through the normal container path, so a WAR
        microreboot makes requests fail (or retry) exactly like EJB calls.
        Charges the web tier's base CPU demand (connection handling,
        parsing, rendering) on top of whatever the servlet and beans burn.
        """
        yield from ctx.consume(self.server.timing.request_cpu_time)
        servlet = self.servlet_for(request.url)
        if servlet is None:
            return error_response(HttpStatus.NOT_FOUND, f"no servlet for {request.url}")
        response = yield from servlet(ctx, request)
        return response

    def servlet_for(self, url):
        """Longest-prefix match of ``url`` against registered servlets."""
        routes = self._routes
        if url not in routes:
            routes[url] = self._servlets.get(longest_prefix(url, self._servlets))
        return routes[url]

    def cache_get(self, key):
        return self.fragment_cache.get(key)

    def cache_put(self, key, value):
        self.fragment_cache[key] = value

    def on_stop(self):
        self.fragment_cache.clear()
