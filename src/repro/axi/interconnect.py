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
from itertools import accumulate
from typing import Callable, Deque, Dict, Optional, Sequence, Tuple

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


#: One master's command lane: a FIFO of ``(request, then)`` whose head is
#: in flight while it is not empty.
_Lane = Deque[Tuple[MemoryRequest, Callable[[MemoryRequest], None]]]


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
        self.metrics = metrics if metrics is not None else MetricsRegistry(clock=sim)
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
        lane = self.admit(request)
        lane.append((request, then))
        if len(lane) == 1:
            if len(self._lanes) == 1:
                self.forward(lane)
            else:
                self.sim.call_later(0.0, self.forward, lane)

    def admit(self, request: MemoryRequest) -> _Lane:
        """Account ``request`` entering its master's lane now (the master
        is registered on its first request); returns the lane."""
        lane = self._lanes.get(request.master)
        if lane is None:
            lane = self._register(request.master)
        self._m_outstanding.add(1)
        request.submitted_ns = self.sim.now
        return lane

    def _register(self, master: str) -> _Lane:
        """Give ``master`` its lane and ledger."""
        lane = self._lanes[master] = deque()
        ledger = self.masters[master] = self.metrics.counts(
            f"{self.name}.master.{master}", bytes=0, wait_ns=0.0
        )
        ledger.transactions = 0
        return lane

    def quiet(self, master: str) -> bool:
        """True when ``master`` alone is registered and its lane is idle."""
        return all(name == master and not lane for name, lane in self._lanes.items())

    def occupy(
        self, request: MemoryRequest, then: Callable[[MemoryRequest], None]
    ) -> _Lane:
        """Put ``request``, admitted and past its wait, on its idle lane
        as :meth:`submit` leaves it in flight; returns the lane."""
        lane = self._lanes[request.master]
        lane.append((request, then))
        return lane

    # -- lane stages (kernel entries) ------------------------------------------
    def forward(self, lane: _Lane) -> None:
        """Take the lane's head now and pay its forward path (decode +
        arbitration + slices) as one entry."""
        request = lane[0][0]
        self.sim.call_later(self.route(request), self.forwarded, lane, request)

    def route(self, request: MemoryRequest) -> float:
        """Account ``request`` taking the forward path now, after its wait
        in the lane; returns the path's delay."""
        wait_ns = self.sim.now - request.submitted_ns
        counts = self.counts
        counts.transactions += 1
        counts.bytes += request.size
        ledger = self.masters[request.master]
        ledger.transactions += 1
        ledger.wait_ns += wait_ns
        self._m_queue_wait_us.observe(wait_ns / 1e3)
        return self.forward_latency_ns + self.stall_ns()

    def stall_ns(self) -> float:
        """The stall :attr:`fault_stall_ns` adds to the forward path of
        the transaction taking it now (0.0 if none)."""
        if self.fault_stall_ns is None:
            return 0.0
        return max(0.0, self.fault_stall_ns())

    def forwarded(self, lane: _Lane, request: MemoryRequest) -> None:
        """The head has crossed the forward path: an error response ends
        it here, otherwise it goes on to the DDR multiplexer."""
        error = self.error_response(request)
        if error is None:
            self.controller.accept(request, self.served)
        else:
            self.refuse(lane, request, error)

    def error_response(self, request: MemoryRequest) -> Optional[Exception]:
        """The error :attr:`fault_error` answers ``request`` with at the
        end of its forward path, if any."""
        if self.fault_error is None:
            return None
        kind = "w" if request.is_write else "r"
        return self.fault_error(kind, request.addr, request.size)

    def refuse(self, lane: _Lane, request: MemoryRequest, error: Exception) -> None:
        """End the lane's head ``request`` with ``error`` and start the
        lane's next."""
        lane.popleft()
        self.counts.error_responses += 1
        request.done.fail(error)
        self._m_outstanding.add(-1)
        self._next(lane)

    def served(self, request: MemoryRequest) -> None:
        """The controller has served the head: close its accounting, start
        the lane's next request, then hand this one back to its issuer."""
        lane = self._lanes[request.master]
        then = lane.popleft()[1]
        self.retire(request)
        self._next(lane)
        then(request)

    def retire(self, request: MemoryRequest) -> None:
        """Close the accounting of ``request``, served by the controller
        now."""
        self.masters[request.master].bytes += request.size
        self._m_outstanding.add(-1)

    def _next(self, lane: _Lane) -> None:
        if lane:
            self.forward(lane)

    def pass_through(
        self,
        master: str,
        issued: Sequence[float],
        retired: Sequence[float],
        routed_bytes: int,
        retired_bytes: int,
    ) -> None:
        """Account, in bulk, requests of ``master`` that met an idle lane:
        one admitted and routed with no wait at each time of ``issued``
        (``routed_bytes`` in all) and one retired at each time of
        ``retired`` (``retired_bytes``), each request retired before the
        next is admitted.  The first retirement leads when it outnumbers
        the admissions.  The gauge, histogram and ledgers read as
        :meth:`admit`, :meth:`route` and :meth:`retire` per request leave
        them."""
        if not issued and not retired:
            return
        if master not in self._lanes:
            self._register(master)
        ledger = self.masters[master]
        counts = self.counts
        count = len(issued)
        counts.transactions += count
        counts.bytes += routed_bytes
        ledger.transactions += count
        ledger.bytes += retired_bytes
        self._m_queue_wait_us.observe_many([0.0] * count)
        # The outstanding count rises at each admission and falls at each
        # retirement, alternately.
        steps = count + len(retired)
        times = [0.0] * steps
        if count >= len(retired):
            times[::2], times[1::2], deltas = issued, retired, (1, -1)
        else:
            times[::2], times[1::2], deltas = retired, issued, (-1, 1)
        gauge = self._m_outstanding
        levels = list(accumulate(deltas * (steps // 2 + 1), initial=gauge.value or 0.0))
        gauge.set_many(times, levels[1 : steps + 1])
