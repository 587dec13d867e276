"""Generator-based discrete-event simulation kernel.

The kernel is deliberately small and explicit: a time-ordered heap of
:class:`Event` objects and generator-based :class:`Process` coroutines that
yield the events they want to wait for.  It is the substrate on which every
hardware model in this repository (AXI buses, DMA, ICAP, DRAM, ...) runs.

Time is a ``float`` measured in **nanoseconds**.  Events scheduled for the
same instant fire in FIFO order (a monotonically increasing sequence number
breaks heap ties), which makes simulations fully deterministic.

Typical use::

    sim = Simulator()
    ready = sim.event()

    def producer(sim):
        yield sim.timeout(10.0)
        ready.succeed("data")

    def consumer(sim):
        item = yield ready
        ...

    sim.process(producer(sim))
    sim.process(consumer(sim))
    sim.run(until=1000.0)
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, List, Optional, Tuple

from .errors import Deadlock, SchedulingError, SimulationError

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Simulator",
]

# Sentinel distinguishing "no value yet" from an event value of ``None``.
_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    An event goes through three states: *pending* (just created),
    *triggered* (scheduled on the heap with a value or an exception) and
    *processed* (callbacks have run).  Events may only be triggered once.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exc", "_processed", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        #: Callables invoked with this event when it is processed.  ``None``
        #: once processed (further appends are a bug we want to surface).
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._exc: Optional[BaseException] = None
        self._processed = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value/exception (it is on the heap)."""
        return self._value is not _PENDING or self._exc is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have been invoked."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        return self.triggered and self._exc is None

    @property
    def value(self) -> Any:
        if self._exc is not None:
            raise self._exc
        if self._value is _PENDING:
            raise SimulationError(f"event {self!r} has no value yet")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        # Not ``triggered``: a pending Timeout already holds its value.
        if self._value is not _PENDING or self._exc is not None:
            raise SchedulingError(f"event {self!r} already triggered")
        self._value = value
        self.sim._enqueue(0.0, self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception propagates into every waiting process.
        """
        if self._value is not _PENDING or self._exc is not None:
            raise SchedulingError(f"event {self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() requires an exception, got {exc!r}")
        self._exc = exc
        self._value = None
        self.sim._enqueue(0.0, self)
        return self

    # -- internals ----------------------------------------------------------
    def _process(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        if callbacks:
            for callback in callbacks:
                callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or self.__class__.__name__
        state = (
            "processed" if self._processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{label} {state} at t={self.sim.now:.3f}ns>"


class Timeout(Event):
    """An event that fires ``delay`` nanoseconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SchedulingError(f"negative timeout delay {delay!r}")
        # Timeouts are the hottest allocation in the kernel; skip the
        # per-instance name f-string and render the delay in __repr__.
        super().__init__(sim)
        self.delay = delay
        self._value = value
        self.sim._enqueue(delay, self)

    @property
    def triggered(self) -> bool:
        """True once the timeout has fired.  It holds its value from
        creation, so only reaching its time (being processed) counts."""
        return self._processed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed" if self._processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<timeout({self.delay:g}) {state} at t={self.sim.now:.3f}ns>"


class _Resume:
    """Lightweight heap entry: resume a process from an already-processed event.

    Yielding an event that has already fired must resume the process at the
    *same* timestamp, after everything currently scheduled there (FIFO).
    Allocating a full replay :class:`Event` for that is wasteful — this
    carries just the captured value/exception and the target process.
    """

    __slots__ = ("process", "value", "exc")

    def __init__(self, process: "Process", value: Any, exc: Optional[BaseException]):
        self.process = process
        self.value = value
        self.exc = exc

    def _process(self) -> None:
        if self.exc is not None:
            self.process._step(throw=self.exc)
        else:
            self.process._step(send=self.value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<resume:{self.process.name}>"


class _Call:
    """Lightweight heap entry: call ``fn(*args)`` when its time comes.

    Device models chain the stages of a transaction through these
    (:meth:`Simulator.call_later`) instead of spawning a process: no
    :class:`Event` is allocated and no generator is resumed.
    """

    __slots__ = ("fn", "args")

    def __init__(self, fn: Callable[..., None], args: tuple):
        self.fn = fn
        self.args = args

    def _process(self) -> None:
        self.fn(*self.args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<call:{getattr(self.fn, '__qualname__', self.fn)!s}>"


class Process(Event):
    """A running coroutine.  Also an event that fires when the coroutine ends.

    The wrapped generator yields :class:`Event` instances; the process is
    resumed with the event's value (or the event's exception is thrown into
    the generator).  The generator's return value becomes this event's value.
    """

    __slots__ = ("_generator", "daemon")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator,
        name: str = "",
        daemon: bool = False,
    ):
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        if not hasattr(generator, "send"):
            raise TypeError(f"Process requires a generator, got {generator!r}")
        self._generator = generator
        #: Daemon processes (infinite hardware server loops) do not count
        #: toward deadlock detection: a run that leaves only daemons
        #: waiting has simply finished its workload.
        self.daemon = daemon
        # Kick off the process at the current simulation time.
        bootstrap = Event(sim, name=f"bootstrap:{self.name}")
        bootstrap.callbacks.append(self._resume)
        bootstrap._value = None
        sim._enqueue(0.0, bootstrap)
        sim.processes_spawned += 1
        if not daemon:
            sim._live_processes += 1

    def _process(self) -> None:
        had_waiters = bool(self.callbacks)
        super()._process()
        if self._exc is not None and not had_waiters:
            # A process died with an exception and nobody was waiting on it.
            # Surface the failure instead of letting it vanish.
            self.sim._unhandled.append(self)

    # -- internals ----------------------------------------------------------
    def _resume(self, event: Event) -> None:
        if event._exc is not None:
            self._step(throw=event._exc)
        else:
            self._step(send=event._value)

    def _step(self, send: Any = None, throw: Optional[BaseException] = None) -> None:
        sim = self.sim
        try:
            if throw is not None:
                target = self._generator.throw(throw)
            else:
                target = self._generator.send(send)
        except StopIteration as stop:
            if not self.daemon:
                sim._live_processes -= 1
            self._value = stop.value
            sim._enqueue(0.0, self)
            return
        except BaseException as exc:
            if not self.daemon:
                sim._live_processes -= 1
            self._exc = exc
            self._value = None
            sim._enqueue(0.0, self)
            if not isinstance(exc, Exception):  # pragma: no cover
                raise
            return

        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must "
                f"yield Event instances"
            )
        if target.sim is not sim:
            raise SimulationError(
                f"process {self.name!r} yielded an event from a different "
                f"simulator"
            )
        if target._processed:
            # The event already fired; resume immediately (same timestamp)
            # via a lightweight heap entry instead of a replay Event.
            sim._enqueue(0.0, _Resume(self, target._value, target._exc))
        else:
            target.callbacks.append(self._resume)


class Simulator:
    """The event loop: a time-ordered heap of triggered events.

    ``now`` is the current simulation time in nanoseconds.  All model
    components hold a reference to a shared ``Simulator``.
    """

    def __init__(self) -> None:
        #: Current simulation time in nanoseconds; only the kernel moves it.
        self.now: float = 0.0
        # Heap entries hold Events or lightweight _Resume/_Call records;
        # the sequence number breaks ties so entries are never compared.
        self._heap: List[Tuple[float, int, Any]] = []
        #: The number of the latest entry queued or held (a held entry takes
        #: the next: ``sim.sequence += 1``); ``sequence - events_processed
        #: - _cancelled`` entries are pending, on the heap or held.
        self.sequence = 0
        self._cancelled = 0
        self._live_processes = 0
        self._running = False
        self._unhandled: List[Process] = []
        #: Every process that died unobserved, kept for post-mortem
        #: inspection even after :meth:`run` raised the first failure.
        self.unhandled_failures: List[Process] = []
        #: Execution statistics (exported by the observability layer).
        #: ``events_processed`` counts the entries the model's timing
        #: went through: every heap entry dispatched, plus every held
        #: entry run in place of one (:meth:`enter`).
        self.events_processed = 0
        self.heap_high_water = 0
        self.processes_spawned = 0
        #: The dispatch in progress: entries later than ``_until`` stay
        #: on the heap, and it ends once ``_target`` has triggered.
        self._until = float("-inf")
        self._target: Optional[Event] = None
        #: The clearance: a held entry due before this is next
        #: (:meth:`enter`, :meth:`advance`); queueing an entry resets it
        #: to 0.0, unchecked.
        self.clear = 0.0

    # -- time ---------------------------------------------------------------
    @property
    def now_us(self) -> float:
        """Current simulation time in microseconds."""
        return self.now / 1e3

    @property
    def now_s(self) -> float:
        """Current simulation time in seconds."""
        return self.now / 1e9

    # -- event construction ---------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh, untriggered event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` ns from now."""
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator, name: str = "", daemon: bool = False
    ) -> Process:
        """Register ``generator`` as a new process starting now.

        ``daemon=True`` marks an infinite server loop (a hardware block
        waiting for requests): it is excluded from deadlock detection.
        """
        return Process(self, generator, name=name, daemon=daemon)

    def call_later(
        self, delay: float, fn: Callable[..., None], *args: Any
    ) -> _Call:
        """Call ``fn(*args)`` ``delay`` ns from now, as one heap entry.

        The entry orders with events exactly like a :class:`Timeout`
        created at this point (same time, FIFO among equal times) and is
        counted in ``events_processed``.  Nothing can wait on it; an
        exception raised by ``fn`` propagates out of :meth:`run`.
        Returns the entry, which :meth:`cancel` can withdraw until it
        runs.
        """
        entry = _Call(fn, args)
        self._enqueue(delay, entry)
        return entry

    def cancel(self, entry: _Call) -> None:
        """Take the queued ``entry`` off the heap unrun: it is never
        counted in ``events_processed``, and ``heap_high_water`` keeps
        the peak it already recorded."""
        self._note_pending()
        heap = self._heap
        for index, item in enumerate(heap):
            if item[2] is entry:
                del heap[index]
                heapq.heapify(heap)
                self._cancelled += 1
                return
        raise SchedulingError(f"{entry!r} is not queued")

    # -- scheduling ----------------------------------------------------------
    def _enqueue(self, delay: float, event: Any) -> None:
        if delay < 0:
            raise SchedulingError(f"cannot schedule {delay!r} ns in the past")
        self.sequence += 1
        self.clear = 0.0
        heapq.heappush(self._heap, (self.now + delay, self.sequence, event))
        pending = self.sequence - self.events_processed - self._cancelled
        if pending > self.heap_high_water:
            self.heap_high_water = pending

    def _note_pending(self) -> None:
        pending = self.sequence - self.events_processed - self._cancelled
        if pending > self.heap_high_water:
            self.heap_high_water = pending

    # -- entries held in place -------------------------------------------------
    def enter(self, when: float, seq: int) -> bool:
        """Run the held entry ``(when, seq)`` in place if the dispatch in
        progress would run it next: ``when`` within its ``until``, ahead
        of the heap's head, and not in the instant its target triggered
        in (the dispatch returns there; a later instant trails the
        target's own entry).  ``now`` then moves to ``when`` and the
        entry counts in ``events_processed``.  Until an entry is queued,
        one due before the heap's head needs no second look at the heap.
        A held entry due before ``now`` raises :class:`SchedulingError`.
        """
        if when < self.now:
            raise SchedulingError(f"held entry at {when!r} ns is in the past")
        if not when < self.clear:
            heap = self._heap
            if when > self._until or (heap and heap[0] < (when, seq)):
                return False
            target = self._target
            if when == self.now and target is not None and target.triggered:
                return False
            self.clear = min(heap[0][0], self._until) if heap else self._until
        pending = self.sequence - self.events_processed - self._cancelled
        if pending > self.heap_high_water:
            self.heap_high_water = pending
        self.now = when
        self.events_processed += 1
        return True

    def advance(self, when: float, entries: int, peak: int) -> None:
        """Account ``entries`` held entries run in place, each due before
        :attr:`clear` and so next without a look at the heap, the last at
        ``when``: ``now`` moves there and they count in
        ``events_processed``.  ``peak`` is the highest ``sequence -
        events_processed`` read as one of them began (0 if none), which
        ``heap_high_water`` keeps as :meth:`enter` would have.  A ``when``
        before ``now`` raises :class:`SchedulingError`.
        """
        if when < self.now:
            raise SchedulingError(f"held entry at {when!r} ns is in the past")
        pending = peak - self._cancelled
        if pending > self.heap_high_water:
            self.heap_high_water = pending
        self.now = when
        self.events_processed += entries

    def queue_held(self, when: float, seq: int, fn: Callable, *args: Any) -> None:
        """Queue the held entry ``(when, seq)`` as the ``call_later(fn,
        *args)`` it stands for; one due before ``now`` raises
        :class:`SchedulingError`."""
        if when < self.now:
            raise SchedulingError(f"held entry at {when!r} ns is in the past")
        self._note_pending()
        self.clear = 0.0
        heapq.heappush(self._heap, (when, seq, _Call(fn, args)))

    # -- execution -------------------------------------------------------------
    def _raise_unhandled(self) -> None:
        # One event can cascade into several unobserved process deaths
        # (e.g. a failing event with multiple waiters at the same
        # timestamp).  Sibling casualties are separate Process events
        # still sitting on the heap at this same timestamp — collect
        # them too, then raise the first but keep every casualty
        # inspectable instead of silently dropping the rest.
        same_time = []
        while self._heap and self._heap[0][0] == self.now:
            same_time.append(heapq.heappop(self._heap))
        for item in same_time:
            sibling = item[2]
            if (
                isinstance(sibling, Process)
                and sibling._exc is not None
                and not sibling.callbacks
            ):
                self.events_processed += 1
                sibling._process()
            else:
                heapq.heappush(self._heap, item)
        self.unhandled_failures.extend(self._unhandled)
        first = self._unhandled[0]
        self._unhandled.clear()
        raise first._exc

    def peek(self) -> float:
        """Time of the next event, or ``float('inf')`` if the heap is empty."""
        return self._heap[0][0] if self._heap else float("inf")

    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap drains or ``until`` (absolute ns) is reached.

        Draining the heap with processes still waiting raises
        :class:`Deadlock` — silence would hide lost wakeups.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        self._running = True
        try:
            self._dispatch(float("inf") if until is None else until, None)
            # A bounded run may legitimately drain the heap while processes
            # wait on external stimulus (the caller pokes the model and runs
            # again); only an unbounded run can never wake them.
            if until is None:
                if self._live_processes > 0:
                    raise Deadlock(self._live_processes)
            elif self.now < until:
                self.now = until
        finally:
            self._running = False

    def run_until(self, event: Event) -> Any:
        """Run until ``event`` fires; returns its value (or raises)."""
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        # Register as an observer so a failing process does not ALSO land
        # in the unhandled-failure list (its exception is delivered to the
        # caller through ``event.value`` below).
        if event.callbacks is not None:
            event.callbacks.append(lambda _event: None)
        self._running = True
        try:
            if not event.triggered:
                self._dispatch(float("inf"), event)
                if not event.triggered:
                    raise Deadlock(self._live_processes)
            return event.value
        finally:
            self._running = False
            self._target = None

    def _dispatch(self, until: float, target: Optional[Event]) -> None:
        """Process heap entries in (time, enqueue) order until the heap
        drains, the next entry lies past ``until`` or ``target`` has
        triggered (later entries at the same time stay on the heap).

        Every entry lies at or after ``now``: a negative delay and a
        held entry in the past raise :class:`SchedulingError`.  So
        ``now`` never moves back; an event refuses a second trigger.
        """
        heap = self._heap
        pop = heapq.heappop
        self._until, self._target = until, target
        self.clear = 0.0
        while heap and heap[0][0] <= until:
            when, _seq, entry = pop(heap)
            self.now = when
            self.events_processed += 1
            entry._process()
            if self._unhandled:
                self._raise_unhandled()
            if target is not None and target.triggered:
                return
