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

    @property
    def observed(self) -> bool:
        """True while a watcher or a waiter would act on a change."""
        return bool(self._watchers or self._waiters)

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

    def unwatch(self, callback: Callable[[Any, Any], None]) -> None:
        self._watchers.remove(callback)

    def wait_for(self, target: Any) -> Event:
        """Event firing when the signal next equals ``target``.

        Fires immediately (same timestamp) if it already does.
        """
        return self.wait_until(lambda v: v == target)

    def wait_change(self) -> Event:
        """Event firing on the next change, whatever the new value."""
        event = self.sim.event(name=f"{self.name}.change")
        self._waiters.append((lambda _v: True, event))
        return event

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

    def wait_assert(self) -> Event:
        """Event firing on the next rising edge.

        Unlike :meth:`Signal.wait_for`, a currently-high level does *not*
        satisfy the wait — interrupt consumers are edge-triggered.
        """
        event = self.sim.event(name=f"{self.name}.rise")
        self._waiters.append((lambda v: bool(v), event))
        return event
