"""AXI memory-mapped crossbar interconnect.

Routes master bursts to the DDR controller.  Each master gets its own
command lane: a private FIFO drained by a per-master process that pays
the forward-path latency (address decode + register slices) and then
issues the burst to the controller tagged with the master's name.  Lanes
run concurrently — so when the Fig. 1 framework's DMA bitstream fetch,
CPU traffic, and a second tenant's generator all pull on the memory
system at once, their forward paths overlap and the *DDR command
multiplexer* (round-robin, in :class:`repro.dram.BankDramController`)
becomes the genuine point of contention, with per-master bandwidth
accounting on both sides.

For a single master this times identically to the previous serialising
round-robin arbiter: one lane, FIFO order, forward latency then
controller service.

When a read is the only traffic on the memory path (one master
registered here and at the controller, its lane and the multiplexer
idle, no fault hook armed), :meth:`AxiInterconnect.forward_read` runs it
without the daemons: the forward, DDR-service and port-streaming stages
become kernel entries (:meth:`Simulator.call_later`) that call the same
accounting helpers at the same instants, so every time and counter is
the one the lane and server processes would produce.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional

from ..dram import BankDramController, MemoryRequest
from ..obs import MetricsRegistry
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
    """One master's command lane: FIFO queue + wake event."""

    __slots__ = ("queue", "wake", "holder")

    def __init__(self):
        self.queue: Deque[tuple] = deque()
        self.wake: Optional[Event] = None
        #: ``(port, done)`` of the :meth:`AxiInterconnect.forward_read`
        #: burst holding the lane; requests queue behind it unserved.
        self.holder: Optional[tuple] = None


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
        self.transactions = 0
        self.per_master_transactions: Dict[str, int] = {}
        self.per_master_bytes: Dict[str, int] = {}
        self.per_master_wait_ns: Dict[str, float] = {}
        self.metrics = metrics if metrics is not None else MetricsRegistry(now_fn=lambda: sim.now)
        self._m_transactions = self.metrics.counter(f"{name}.transactions")
        self._m_bytes = self.metrics.counter(f"{name}.bytes")
        self._m_outstanding = self.metrics.gauge(f"{name}.outstanding_requests")
        self._m_queue_wait_us = self.metrics.histogram(f"{name}.queue_wait_us")
        self._m_error_responses = self.metrics.counter(f"{name}.error_responses")
        self._m_master_bytes: Dict[str, object] = {}
        self._m_master_wait: Dict[str, object] = {}
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
        self._submit(master, ("r", addr, size, None, done, self.sim.now))
        return done

    def write(self, addr: int, data: bytes, master: str = _DEFAULT_MASTER) -> Event:
        done = self.sim.event(name=f"{self.name}.write")
        self._submit(master, ("w", addr, len(data), data, done, self.sim.now))
        return done

    def forward_read(self, addr: int, size: int, port, done) -> bool:
        """Run ``port``'s read as kernel entries if it meets no other traffic.

        Applies only when ``port.name`` is the one master registered here
        and at the controller, its lane and the DDR multiplexer are idle
        and no fault hook is armed; otherwise returns False and does
        nothing.  The burst then holds the lane: the forward stage ends
        in :meth:`BankDramController.accept`, the service end calls
        :meth:`returned`, which hands the data to ``port.deliver``.
        ``done`` is the port's completion target (an :class:`Event` or
        the issuing master's own, see :meth:`AxiHpPort.read`).
        The crossbar's fault hooks are read only here, at issue:
        :mod:`repro.chaos` arms and disarms them between runs.
        """
        master = port.name
        lane = self._lanes.get(master)
        if (
            lane is None
            or len(self._lanes) != 1
            or lane.holder is not None
            or lane.wake is None
            or lane.wake.triggered
            or self.fault_stall_ns is not None
            or self.fault_error is not None
            or not self.controller.uncontended(master)
        ):
            return False
        lane.holder = (port, done)
        self._admit(master)
        self.sim.call_later(
            self._start(master, size, self.sim.now),
            self.controller.accept,
            MemoryRequest(addr=addr, size=size, master=master),
            self.returned,
        )
        return True

    def returned(self, request: MemoryRequest) -> None:
        """A :meth:`forward_read` burst has been served: close its crossbar
        accounting, release the lane and hand the data to the port."""
        master = request.master
        lane = self._lanes[master]
        port, done = lane.holder
        lane.holder = None
        self._finish(master, request.size)
        if lane.queue:
            lane.wake.succeed()
        port.deliver(request.size, request.read_data, done)

    # -- internals ----------------------------------------------------------
    def _admit(self, master: str) -> _Lane:
        """Count one more request in flight from ``master``; its lane."""
        lane = self._lanes.get(master)
        if lane is None:
            lane = self._lanes[master] = _Lane()
            self.per_master_transactions[master] = 0
            self.per_master_bytes[master] = 0
            self.per_master_wait_ns[master] = 0.0
            self._m_master_bytes[master] = self.metrics.counter(
                f"{self.name}.master.{master}.bytes"
            )
            self._m_master_wait[master] = self.metrics.counter(
                f"{self.name}.master.{master}.wait_ns"
            )
            self.sim.process(
                self._lane_server(master, lane),
                name=f"{self.name}.lane.{master}",
                daemon=True,
            )
        self._m_outstanding.add(1)
        return lane

    def _submit(self, master: str, request: tuple) -> None:
        lane = self._admit(master)
        lane.queue.append(request)
        if lane.holder is None and lane.wake is not None and not lane.wake.triggered:
            lane.wake.succeed()

    def _start(self, master: str, size: int, submitted_ns: float) -> float:
        """Take a transaction off ``master``'s lane now: account its wait;
        returns its forward-path delay (decode + arbitration + slices)."""
        wait_ns = self.sim.now - submitted_ns
        self.transactions += 1
        self.per_master_transactions[master] += 1
        self.per_master_wait_ns[master] += wait_ns
        self._m_master_wait[master].inc(wait_ns)
        self._m_transactions.inc()
        self._m_bytes.inc(size)
        self._m_queue_wait_us.observe(wait_ns / 1e3)
        stall_ns = 0.0
        if self.fault_stall_ns is not None:
            stall_ns = max(0.0, self.fault_stall_ns())
        return self.forward_latency_ns + stall_ns

    def _finish(self, master: str, size: int) -> None:
        """Close a served transaction's accounting."""
        self.per_master_bytes[master] += size
        self._m_master_bytes[master].inc(size)
        self._m_outstanding.add(-1)

    def _lane_server(self, master: str, lane: _Lane):
        while True:
            if not lane.queue:
                lane.wake = self.sim.event(name=f"{self.name}.lane.{master}.wake")
                yield lane.wake
            kind, addr, size, data, done, submitted_ns = lane.queue.popleft()
            yield self.sim.timeout(self._start(master, size, submitted_ns))
            if self.fault_error is not None:
                error = self.fault_error(kind, addr, size)
                if error is not None:
                    self._m_error_responses.inc()
                    done.fail(error)
                    self._m_outstanding.add(-1)
                    continue
            if kind == "r":
                payload = yield self.controller.read(addr, size, master=master)
                done.succeed(payload)
            else:
                yield self.controller.write(addr, data, master=master)
                done.succeed(None)
            self._finish(master, size)
