"""Exception types raised by the simulation kernel.

The kernel distinguishes two failure classes:

* :class:`SimulationError` — programming errors in the way the kernel is
  driven (scheduling in the past, running a finished simulator, ...).
* :class:`Deadlock` — the event heap drained while processes were still
  waiting; nothing can ever wake them.
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

