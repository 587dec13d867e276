"""Level-sensitive signals and interrupt lines.

:class:`Signal` models a named wire carrying an arbitrary value.  Processes
can wait for the signal to take a specific value (or satisfy a predicate),
and observers can register callbacks on every change.

:class:`InterruptLine` is a boolean signal with assert/deassert/pulse
semantics and an accounting of how many times it fired — the building block
for the CRC-error and DMA-done interrupts of the paper's Fig. 2.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from .kernel import Event, Simulator

__all__ = ["Signal", "InterruptLine"]


class Signal:
    """A wire with a current value, change callbacks, and waitable edges."""

    def __init__(self, sim: Simulator, initial: Any = None, name: str = "signal"):
        self.sim = sim
        self.name = name
        self._value = initial
        self._watchers: List[Callable[[Any, Any], None]] = []
        self._waiters: List[Tuple[Callable[[Any], bool], Event]] = []
        #: (time_ns, value) change history, capped to keep memory bounded.
        self.history: List[Tuple[float, Any]] = [(sim.now, initial)]
        self.history_limit = 10_000

    @property
    def value(self) -> Any:
        return self._value

    def set(self, value: Any) -> None:
        """Drive a new value; waiters and watchers fire only on change."""
        if value == self._value:
            return
        old, self._value = self._value, value
        if len(self.history) < self.history_limit:
            self.history.append((self.sim.now, value))
        for watcher in list(self._watchers):
            watcher(old, value)
        pending, self._waiters = self._waiters, []
        for predicate, event in pending:
            if predicate(value):
                event.succeed(value)
            else:
                self._waiters.append((predicate, event))

    def watch(self, callback: Callable[[Any, Any], None]) -> None:
        """Register ``callback(old, new)`` on every change."""
        self._watchers.append(callback)

    def wait_for(self, target: Any) -> Event:
        """Event firing when the signal next equals ``target``.

        Fires immediately (same timestamp) if it already does.
        """
        return self.wait_until(lambda v: v == target)

    def wait_until(self, predicate: Callable[[Any], bool]) -> Event:
        """Event firing when ``predicate(value)`` next holds (or holds now)."""
        event = self.sim.event(name=f"{self.name}.until")
        if predicate(self._value):
            event.succeed(self._value)
        else:
            self._waiters.append((predicate, event))
        return event

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Signal {self.name}={self._value!r}>"


class InterruptLine(Signal):
    """A boolean signal with interrupt semantics.

    ``assert_()`` raises the line, ``deassert()`` lowers it, ``pulse()``
    raises then immediately lowers (edge-triggered consumers still see it
    through :meth:`wait_assert` because the rising edge fires waiters).
    """

    def __init__(self, sim: Simulator, name: str = "irq"):
        super().__init__(sim, initial=False, name=name)
        #: Number of rising edges ever driven.
        self.assert_count = 0
        #: Simulation time (ns) of the most recent rising edge, or ``None``.
        self.last_assert_ns: Optional[float] = None

    def assert_(self) -> None:
        if not self._value:
            self.assert_count += 1
            self.last_assert_ns = self.sim.now
        self.set(True)

    def deassert(self) -> None:
        self.set(False)

    def pulse(self) -> None:
        self.assert_()
        self.deassert()

    @property
    def asserted(self) -> bool:
        return bool(self._value)

    def wait_assert(self, timeout_ns: Optional[float] = None) -> Event:
        """Event firing on the next rising edge.

        Unlike :meth:`Signal.wait_for`, a currently-high level does *not*
        satisfy the wait — interrupt consumers are edge-triggered.  With
        ``timeout_ns`` the event fires ``True`` on the edge or ``False``
        ``timeout_ns`` ns from now, whichever comes first, and the one
        that comes first withdraws the other: a finished wait leaves no
        entry on the heap and no waiter on the line.
        """
        if timeout_ns is None:
            event = self.sim.event(name=f"{self.name}.rise")
        else:
            event = _RiseOrDeadline(self, timeout_ns)
        self._waiters.append((bool, event))
        return event


class _RiseOrDeadline(Event):
    """A rising-edge wait that gives up at a deadline.

    It is the line's waiter and holds the deadline's heap entry.  The
    edge (:meth:`Signal.set` calling :meth:`succeed`) cancels the entry;
    the entry, if it runs first, takes the waiter off the line.  Either
    way both links are dropped, so a fired wait holds no reference cycle.
    """

    __slots__ = ("_line", "_deadline")

    def __init__(self, line: InterruptLine, timeout_ns: float):
        super().__init__(line.sim, name=f"{line.name}.rise")
        self._line: Optional[InterruptLine] = line
        self._deadline = line.sim.call_later(timeout_ns, self._expire)

    def succeed(self, value: Any = True) -> Event:
        """The rising edge: fire ``value`` and withdraw the deadline."""
        self.sim.cancel(self._deadline)
        self._line = self._deadline = None
        return super().succeed(value)

    def _expire(self) -> None:
        line = self._line
        line._waiters = [w for w in line._waiters if w[1] is not self]
        self._line = self._deadline = None
        super().succeed(False)
