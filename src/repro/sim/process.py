"""Generator-based simulated processes."""

from types import GeneratorType

from repro.sim.errors import Interrupt, SimulationError
from repro.sim.events import _PENDING, Event


class Process(Event):
    """A simulated thread of control, driven by a Python generator.

    The generator yields :class:`Event` objects; the process sleeps until the
    yielded event triggers and then resumes with the event's value (or with
    the event's exception thrown in at the yield point).  A process is itself
    an event: it triggers with the generator's return value when the
    generator finishes, or fails with the escaping exception if the generator
    raises.

    Processes may be interrupted with :meth:`interrupt`, which throws
    :class:`~repro.sim.errors.Interrupt` into the generator at its current
    yield point.  This is the mechanism the microreboot machinery uses to
    kill shepherd threads executing inside a recycled component.
    """

    __slots__ = ("_generator", "name", "_waiting_on")

    def __init__(self, kernel, generator, name=None):
        if not isinstance(generator, GeneratorType):
            raise SimulationError(
                f"Process requires a generator, got {type(generator).__name__}"
            )
        # Event.__init__'s fields, set inline: one process is spawned per
        # request hop, so this constructor is on the request path.
        self.kernel = kernel
        self.callbacks = []
        self.defused = False
        self.abandoned = False
        self._value = _PENDING
        self._ok = None
        self._generator = generator
        self.name = name or generator.__name__
        self._waiting_on = None
        # Kick the process off via an immediately-scheduled event so that it
        # starts running in kernel event order, not synchronously.  The
        # start event is fresh, so succeed()'s already-triggered check is
        # skipped and it is enqueued exactly as succeed() would.
        start = Event(kernel)
        start.callbacks.append(self._resume)
        start._ok = True
        start._value = None
        kernel._ready.append(start)

    @property
    def is_alive(self):
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause=None):
        """Throw :class:`Interrupt` into the process at its current yield.

        Interrupting a finished process is a no-op (it is already dead, as
        with POSIX signals to reaped processes).  The interrupt is delivered
        through the normal event queue so ordering relative to other events
        at the same instant is deterministic.
        """
        if self.triggered:
            return
        trigger = Event(self.kernel)
        trigger.callbacks.append(self._resume)
        trigger.defused = True  # delivery to the generator is the handling
        trigger.fail(Interrupt(cause))

    def _resume(self, trigger):
        """Advance the generator with the triggered event ``trigger``."""
        if self._value is not _PENDING:  # i.e. self.triggered, sans property
            # The process already finished (e.g. an interrupt raced with the
            # event it was waiting for); drop the stale wakeup.
            return
        waiting = self._waiting_on
        if waiting is not None:
            if trigger is not waiting and waiting.callbacks is not None:
                # Interrupted while waiting: stop listening to the old event
                # so a later trigger does not resume us at the wrong yield
                # point, and mark the event abandoned so resource queues
                # skip it.
                try:
                    waiting.callbacks.remove(self._resume)
                except ValueError:
                    pass
                waiting.abandoned = True
            self._waiting_on = None

        generator = self._generator
        event = trigger
        while True:
            try:
                if event._ok:
                    target = generator.send(event._value)
                else:
                    event.defused = True
                    target = generator.throw(event._value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self.defused = False
                self.fail(exc)
                return

            if isinstance(target, Event):
                if target.callbacks is None:
                    # Already processed: resume immediately with its value.
                    event = target
                    continue
                try:
                    target.callbacks.append(self._resume)
                except SimulationError as refused:  # a retired timeout
                    exc = refused
                else:
                    self._waiting_on = target
                    return
            else:
                exc = SimulationError(
                    f"process {self.name!r} yielded {target!r}, expected an Event"
                )
            try:
                generator.throw(exc)
            except BaseException as err:  # noqa: BLE001 - report the real error
                self.fail(err)
                return
            raise exc  # pragma: no cover - generator swallowed the error

    def __repr__(self):
        state = "alive" if self.is_alive else "dead"
        return f"<Process {self.name!r} {state}>"
