"""Discrete-event simulation kernel.

Public surface::

    from repro.sim import Simulator, Channel, Signal, InterruptLine, ClockDomain

The kernel is generator-based: processes are Python generators that yield
:class:`~repro.sim.kernel.Event` objects (timeouts, channel operations,
signal edges, other processes) and are resumed when those events fire.
"""

from .channel import Channel
from .clock import MHZ, NS_PER_S, NS_PER_US, ClockDomain
from .errors import Deadlock, SchedulingError, SimulationError
from .kernel import AllOf, AnyOf, Condition, Event, Process, Simulator, Timeout
from .signal import InterruptLine, Signal
from .trace import TraceRecord, Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "Channel",
    "ClockDomain",
    "Condition",
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
