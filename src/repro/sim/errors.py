"""Exception types raised by the simulation kernel.

The kernel distinguishes three failure classes:

* :class:`SimulationError` — programming errors in the way the kernel is
  driven (scheduling in the past, running a finished simulator, ...).
* :class:`Deadlock` — the event heap drained while processes were still
  waiting; nothing can ever wake them.
* :class:`Interrupt` — delivered *into* a process generator when another
  process calls :meth:`Process.interrupt`.  It is a control-flow signal,
  not an error in the simulation itself.
"""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for kernel-level errors."""


class SchedulingError(SimulationError):
    """An event was scheduled incorrectly (negative delay, re-trigger, ...)."""


class Deadlock(SimulationError):
    """The event queue is empty but live processes are still waiting."""

    def __init__(self, waiting: int):
        super().__init__(
            f"simulation deadlocked: {waiting} process(es) waiting with an "
            f"empty event queue"
        )
        self.waiting = waiting


class Interrupt(Exception):
    """Thrown inside a process generator by :meth:`Process.interrupt`.

    ``cause`` carries an arbitrary payload describing why the process was
    interrupted (for instance the hardware interrupt source).
    """

    def __init__(self, cause=None):
        super().__init__(cause)
        self.cause = cause
