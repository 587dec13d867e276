"""AXI memory-mapped crossbar interconnect.

Routes master bursts to the DDR controller.  Each master gets its own
command lane: a private FIFO whose head pays the forward-path latency
(address decode + register slices) and is then handed to the controller
tagged with the master's name.  Lanes run concurrently — so when the
Fig. 1 framework's DMA bitstream fetch, CPU traffic, and a second
tenant's generator all pull on the memory system at once, their forward
paths overlap and the *DDR command multiplexer* (round-robin, in
:class:`repro.dram.BankDramController`) becomes the genuine point of
contention, with per-master bandwidth accounting on both sides.

A lane is a callback queue, not a process.  Its head's forward path is
one kernel entry (:meth:`~repro.sim.Simulator.call_later`) ending in
:meth:`~repro.dram.BankDramController.accept`, and the controller's
service end starts the lane's next request.  For a single master this
times identically to a serialising round-robin arbiter: one lane, FIFO
order, forward latency then controller service.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

from ..dram import BankDramController, MemoryRequest
from ..obs import Counts, MetricsRegistry
from ..sim import Event, Simulator

__all__ = ["AxiInterconnect", "AxiSlaveError"]

_DEFAULT_MASTER = "m0"


class AxiSlaveError(RuntimeError):
    """An AXI error response (SLVERR/DECERR) on the memory-mapped bus.

    Raised *through the transaction's completion event* — the waiting
    master receives it where it yielded, exactly like a real error
    response lands on the issuing channel.
    """


class _Lane:
    """One master's command lane: a FIFO of ``(request, then)`` whose head
    is in flight while ``busy``."""

    __slots__ = ("queue", "busy")

    def __init__(self):
        self.queue: Deque[
            Tuple[MemoryRequest, Callable[[MemoryRequest], None]]
        ] = deque()
        self.busy = False


class AxiInterconnect:
    """Master-side crossbar entry into the PS memory system."""

    def __init__(
        self,
        sim: Simulator,
        controller: BankDramController,
        forward_latency_ns: float = 160.0,
        name: str = "axi_ic",
        metrics: Optional[MetricsRegistry] = None,
    ):
        if forward_latency_ns < 0:
            raise ValueError("forward latency cannot be negative")
        self.sim = sim
        self.controller = controller
        self.forward_latency_ns = forward_latency_ns
        self.name = name
        self._lanes: Dict[str, _Lane] = {}
        #: Per-master ledgers: exported ``bytes`` and ``wait_ns``, plus
        #: the model-only ``transactions`` count.
        self.masters: Dict[str, Counts] = {}
        self.metrics = metrics if metrics is not None else MetricsRegistry(now_fn=lambda: sim.now)
        self.counts = self.metrics.counts(
            name, transactions=0, bytes=0, error_responses=0
        )
        self._m_outstanding = self.metrics.gauge(f"{name}.outstanding_requests")
        self._m_queue_wait_us = self.metrics.histogram(f"{name}.queue_wait_us")
        self._m_outstanding.set(0.0)
        #: Optional fault hooks (installed by :mod:`repro.chaos`).
        #: ``fault_stall_ns()`` adds forward-path latency to the next
        #: transaction (arbitration/register-slice stall);
        #: ``fault_error(kind, addr, size)`` may return an exception with
        #: which the transaction completes instead of reaching the DDR
        #: controller (an SLVERR response).
        self.fault_stall_ns: Optional[Callable[[], float]] = None
        self.fault_error: Optional[
            Callable[[str, int, int], Optional[Exception]]
        ] = None

    # -- master API ----------------------------------------------------------
    def read(self, addr: int, size: int, master: str = _DEFAULT_MASTER) -> Event:
        """Submit a read; the event value is the data bytes."""
        done = self.sim.event(name=f"{self.name}.read")
        request = MemoryRequest(addr=addr, size=size, master=master, done=done)
        self.submit(request, MemoryRequest.complete)
        return done

    def write(self, addr: int, data: bytes, master: str = _DEFAULT_MASTER) -> Event:
        """Submit a write; the event fires when it is committed."""
        done = self.sim.event(name=f"{self.name}.write")
        request = MemoryRequest(
            addr=addr,
            size=len(data),
            is_write=True,
            data=data,
            master=master,
            done=done,
        )
        self.submit(request, MemoryRequest.complete)
        return done

    def submit(
        self, request: MemoryRequest, then: Callable[[MemoryRequest], None]
    ) -> None:
        """Queue ``request`` on its master's lane now.

        ``then(request)`` runs once the controller has served it
        (``request.read_data`` holds a read's bytes).  An error response
        from :attr:`fault_error` fails ``request.done`` instead and never
        reaches the controller.  An idle lane starts at once when it is
        the only one; with more, one zero-delay entry later, as
        :meth:`~repro.dram.BankDramController.accept` picks.
        """
        master = request.master
        lane = self._lanes.get(master)
        if lane is None:
            lane = self._lanes[master] = _Lane()
            ledger = self.masters[master] = self.metrics.counts(
                f"{self.name}.master.{master}", bytes=0, wait_ns=0.0
            )
            ledger.transactions = 0
        self._m_outstanding.add(1)
        request.submitted_ns = self.sim.now
        lane.queue.append((request, then))
        if not lane.busy:
            lane.busy = True
            if len(self._lanes) == 1:
                self.forward(lane)
            else:
                self.sim.call_later(0.0, self.forward, lane)

    # -- lane stages (kernel entries) ------------------------------------------
    def forward(self, lane: _Lane) -> None:
        """Take the lane's head now: account its wait, then pay the forward
        path (decode + arbitration + slices) as one entry."""
        request = lane.queue[0][0]
        wait_ns = self.sim.now - request.submitted_ns
        counts = self.counts
        counts.transactions += 1
        counts.bytes += request.size
        ledger = self.masters[request.master]
        ledger.transactions += 1
        ledger.wait_ns += wait_ns
        self._m_queue_wait_us.observe(wait_ns / 1e3)
        stall_ns = 0.0
        if self.fault_stall_ns is not None:
            stall_ns = max(0.0, self.fault_stall_ns())
        self.sim.call_later(
            self.forward_latency_ns + stall_ns, self.forwarded, lane, request
        )

    def forwarded(self, lane: _Lane, request: MemoryRequest) -> None:
        """The head has crossed the forward path: an error response ends
        it here, otherwise it goes on to the DDR multiplexer."""
        if self.fault_error is not None:
            kind = "w" if request.is_write else "r"
            error = self.fault_error(kind, request.addr, request.size)
            if error is not None:
                lane.queue.popleft()
                self.counts.error_responses += 1
                request.done.fail(error)
                self._m_outstanding.add(-1)
                self._next(lane)
                return
        self.controller.accept(request, self.served)

    def served(self, request: MemoryRequest) -> None:
        """The controller has served the head: close its accounting, start
        the lane's next request, then hand this one back to its issuer."""
        master = request.master
        lane = self._lanes[master]
        then = lane.queue.popleft()[1]
        self.masters[master].bytes += request.size
        self._m_outstanding.add(-1)
        self._next(lane)
        then(request)

    def _next(self, lane: _Lane) -> None:
        if lane.queue:
            self.forward(lane)
        else:
            lane.busy = False
