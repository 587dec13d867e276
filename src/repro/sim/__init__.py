"""Discrete-event simulation kernel.

Public surface::

    from repro.sim import Simulator, Signal, InterruptLine, ClockDomain

The kernel is generator-based: processes are Python generators that yield
:class:`~repro.sim.kernel.Event` objects (timeouts, signal edges, other
processes) and are resumed when those events fire.
"""

from .clock import MHZ, NS_PER_S, NS_PER_US, ClockDomain
from .errors import Deadlock, SchedulingError, SimulationError
from .kernel import Event, Process, Simulator, Timeout
from .signal import InterruptLine, Signal
from .trace import TraceRecord, Tracer

__all__ = [
    "ClockDomain",
    "Deadlock",
    "Event",
    "InterruptLine",
    "MHZ",
    "NS_PER_S",
    "NS_PER_US",
    "Process",
    "SchedulingError",
    "Signal",
    "SimulationError",
    "Simulator",
    "Timeout",
    "TraceRecord",
    "Tracer",
]
