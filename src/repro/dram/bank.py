"""Bank-aware DDR controller: bank machines, refresh engine, multiplexer.

The PS memory controller.  Three cooperating pieces, mirroring a real
DDR controller's split (and the gram-style decomposition named in
ROADMAP.md):

* **Bank machines** — per-bank open-row state lives in
  :class:`~repro.dram.device.DramDevice`.  Each access is classified
  hit / miss / conflict and priced from :class:`BankTiming`:

  ==========  =============================  =========================
  outcome     commands                       latency
  ==========  =============================  =========================
  hit         CAS                            tCAS
  miss        ACTIVATE + CAS                 tRCD + tCAS
  conflict    PRECHARGE + ACTIVATE + CAS     tRP + tRCD + tCAS
  ==========  =============================  =========================

  Under the **closed-page** policy every access auto-precharges, so no
  row stays open and every access pays tRCD + tCAS.

* **Refresh engine** — one all-banks refresh is *due* every tREFI and
  occupies the command bus for tRFC.  ``refresh_mode="engine"`` models
  that deterministically: refresh *k* becomes due at ``k·tREFI``, runs
  at ``max(due, previous refresh end, last service end)``, and any
  request arriving while the engine holds the bus stalls for the
  remainder (counted in ``refresh_stall_ns``).  ``refresh_mode="lazy"``
  is the cheaper accounting the calibrated campaigns use (refreshes that
  fell in idle gaps are free; at most one tRFC charged per busy period)
  — it is the default.  ``refresh_mode="off"`` disables refresh
  entirely.

* **Command multiplexer** — per-master FIFO queues drained round-robin
  onto the single shared command/data bus.  One burst occupies the bus
  end-to-end (stall + activate/precharge + CAS + data transfer); that
  serialisation is exactly the multi-master contention the paper's
  memory-path bottleneck comes from.  Per-master bytes / wait ledgers
  feed the crossbar's bandwidth accounting.  Every count the controller
  keeps (bytes, row outcomes, waits, refreshes) lives in its
  :class:`~repro.obs.Counts` records, which the metrics registry
  exports as ``ddrc.*`` counters.  The multiplexer is a
  callback queue, not a process: a free bus picks a request and its
  service is one kernel entry (:meth:`~repro.sim.Simulator.call_later`),
  whose end completes the request and picks the next.

Calibration note: the defaults (tCAS 202, tRCD 100, **tRP 0**) give the
end-to-end latencies the paper's memory-side bandwidth calibrates to —
row hit 202 ns, row miss 302 ns, which already fold precharge into the
activate figure, so by default conflict == miss == 302 ns.  Set
``dram_trp_ns`` (e.g. 100 ns) for a distinct conflict penalty, as the
contention campaign does.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import reduce
from itertools import repeat
from operator import add, sub, truediv
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..obs import Counts, MetricsRegistry
from ..sim import Event, Simulator

from .device import DramDevice

__all__ = [
    "BankDramController",
    "BankTiming",
    "MemoryRequest",
    "PAGE_POLICIES",
    "REFRESH_MODES",
]

PAGE_POLICIES = ("open", "closed")
REFRESH_MODES = ("off", "lazy", "engine")


@dataclass
class MemoryRequest:
    """One burst request as issued by an AXI master."""

    addr: int
    size: int
    is_write: bool = False
    data: Optional[bytes] = None
    #: Filled by the controller for reads.
    read_data: Optional[bytes] = field(default=None, repr=False)
    #: Where the issuer learns the outcome: ``succeed(read data or None)``
    #: once served, ``fail(exc)`` on an error response.  An
    #: :class:`Event`, or any object completed like one.
    done: Optional[Event] = None
    #: Submission time at the current stage, for queue-wait accounting.
    submitted_ns: float = 0.0
    #: Issuing master (crossbar routing tag + per-master accounting).
    master: str = "m0"

    def complete(self) -> None:
        """Succeed :attr:`done` with the read bytes (``None`` for a write)."""
        self.done.succeed(self.read_data)


@dataclass(frozen=True)
class BankTiming:
    """Decomposed DDR command timings (ns)."""

    #: Column access: CAS-to-data latency, as seen end-to-end at the port.
    tcas_ns: float = 202.0
    #: ACTIVATE-to-CAS (row open) latency.
    trcd_ns: float = 100.0
    #: PRECHARGE (row close) latency.  0 by default: the calibrated
    #: row-miss figure already folds precharge into activate.
    trp_ns: float = 0.0
    #: Average refresh interval — one refresh is due every tREFI.
    trefi_ns: float = 7800.0
    #: Refresh cycle time — the command bus is held for tRFC per refresh.
    trfc_ns: float = 160.0

    @property
    def hit_ns(self) -> float:
        return self.tcas_ns

    @property
    def miss_ns(self) -> float:
        return self.trcd_ns + self.tcas_ns

    @property
    def conflict_ns(self) -> float:
        return self.trp_ns + self.trcd_ns + self.tcas_ns

    def access_ns(self, outcome: str) -> float:
        if outcome == "hit":
            return self.hit_ns
        if outcome == "miss":
            return self.miss_ns
        return self.conflict_ns


class BankDramController:
    """Bank-aware DDR controller with a multi-master command multiplexer.

    Masters submit bursts with :meth:`accept` (or its event forms
    ``read``/``write``); the request's ``master`` tag routes it into its
    own queue for round-robin arbitration and per-master accounting.
    """

    def __init__(
        self,
        sim: Simulator,
        device: Optional[DramDevice] = None,
        name: str = "ddrc",
        metrics: Optional[MetricsRegistry] = None,
        timing: Optional[BankTiming] = None,
        page_policy: str = "open",
        refresh_mode: str = "lazy",
    ):
        if page_policy not in PAGE_POLICIES:
            raise ValueError(f"page_policy must be one of {PAGE_POLICIES}")
        if refresh_mode not in REFRESH_MODES:
            raise ValueError(f"refresh_mode must be one of {REFRESH_MODES}")
        self.sim = sim
        self.device = device or DramDevice()
        self.name = name
        self.timing = timing or BankTiming()
        self.page_policy = page_policy
        self.refresh_mode = refresh_mode
        #: Per-master FIFOs of ``(request, then)``.
        self._queues: Dict[
            str, Deque[Tuple[MemoryRequest, Callable[[MemoryRequest], None]]]
        ] = {}
        self._rr_order: List[str] = []
        self._rr_index = 0
        self._pending = 0
        #: True while a burst holds the bus or a pick is scheduled.
        self._busy = False
        #: When the burst on the bus started service (one at a time).
        self._service_start_ns = 0.0
        self.busy_ns = 0.0
        #: Per-master ledgers: exported ``bytes`` and ``wait_ns``, plus
        #: the model-only ``requests`` count.
        self.masters: Dict[str, Counts] = {}
        #: Lazy-refresh state: when the refreshes accounted so far end.
        self.last_refresh_ns = 0.0
        # Engine-refresh state: next due time, bus-held-until, last
        # service end (a refresh can't preempt an in-flight burst).
        self._refresh_next_ns = self.timing.trefi_ns
        self._refresh_busy_until_ns = 0.0
        self._service_end_ns = 0.0
        self.metrics = metrics if metrics is not None else MetricsRegistry(clock=sim)
        self.counts = self.metrics.counts(
            name,
            requests_served=0,
            bytes_read=0,
            bytes_written=0,
            row_hits=0,
            row_misses=0,
            row_conflicts=0,
            queue_wait_ns=0.0,
            refresh_stall_ns=0.0,
            refreshes_completed=0,
        )
        self._m_queue_depth = self.metrics.gauge(f"{name}.queue_depth")
        self._m_queue_wait_us = self.metrics.histogram(f"{name}.queue_wait_us")
        self._m_service_us = self.metrics.histogram(f"{name}.service_us")
        self._m_queue_depth.set(0.0)
        #: Optional fault hooks (installed by :mod:`repro.chaos`).
        #: ``fault_latency_ns(request)`` adds service latency to one
        #: request (a latency spike); ``fault_read_tamper(request, data)``
        #: may return altered read data (an in-flight bit flip).  Both are
        #: consulted when a burst's service starts and ends — the backing
        #: store itself is never modified, matching transient DRAM/link
        #: faults.
        self.fault_latency_ns: Optional[Callable[[MemoryRequest], float]] = None
        self.fault_read_tamper: Optional[
            Callable[[MemoryRequest, bytes], bytes]
        ] = None
        #: Optional :class:`repro.verify.InvariantMonitor` (set by attach).
        self.monitor = None

    # -- master-facing API ----------------------------------------------------
    def read(self, addr: int, size: int, master: str = "m0") -> Event:
        """Submit a read burst; the event's value is the data bytes."""
        done = self.sim.event()
        self.accept(
            MemoryRequest(addr=addr, size=size, master=master, done=done),
            MemoryRequest.complete,
        )
        return done

    def write(self, addr: int, data: bytes, master: str = "m0") -> Event:
        """Submit a write burst; the event fires when committed."""
        done = self.sim.event()
        request = MemoryRequest(
            addr=addr,
            size=len(data),
            is_write=True,
            data=data,
            master=master,
            done=done,
        )
        self.accept(request, MemoryRequest.complete)
        return done

    @property
    def queue_depth(self) -> int:
        return self._pending

    def accept(
        self, request: MemoryRequest, then: Callable[[MemoryRequest], None]
    ) -> None:
        """Queue ``request`` at the multiplexer now; ``then(request)`` runs
        in the entry that ends its service (``request.read_data`` holds a
        read's bytes).

        A free bus picks at once when one master is registered.  With
        more, the pick is one zero-delay entry later, so every master that
        reaches the free bus in this instant is queued before it and the
        round-robin pointer, not arrival order, decides who goes first.
        """
        self.admit(request).append((request, then))
        if not self._busy:
            self._busy = True
            if len(self._rr_order) == 1:
                self.pick()
            else:
                self.sim.call_later(0.0, self.pick)

    def admit(self, request: MemoryRequest) -> Deque:
        """Account ``request`` reaching the multiplexer now (its master is
        registered on its first request); returns its master's queue."""
        request.submitted_ns = self.sim.now
        queue = self._queues.get(request.master)
        if queue is None:
            queue = self._register(request.master)
        self._pending += 1
        self._m_queue_depth.set(self._pending)
        return queue

    def _register(self, master: str) -> Deque:
        """Give ``master`` its queue, round-robin slot and ledger."""
        queue = self._queues[master] = deque()
        self._rr_order.append(master)
        ledger = self.masters[master] = self.metrics.counts(
            f"{self.name}.master.{master}", bytes=0, wait_ns=0.0
        )
        ledger.requests = 0
        return queue

    def quiet(self, master: str) -> bool:
        """True when ``master`` alone is registered and the bus is free."""
        return not self._busy and all(name == master for name in self._rr_order)

    def occupy(self) -> None:
        """Hold the bus for a burst its caller put in service, as
        :meth:`accept` leaves it."""
        self._busy = True

    # -- command multiplexer -------------------------------------------------
    def pick(self) -> None:
        """Put the round-robin pick on the bus; its service is one entry."""
        request, then = self._next_request()
        self.sim.call_later(self.begin_service(request), self.served, request, then)

    def served(
        self, request: MemoryRequest, then: Callable[[MemoryRequest], None]
    ) -> None:
        """The burst on the bus is done: complete it, then pick again."""
        self.finish_service(request)
        then(request)
        if self._pending:
            self.pick()
        else:
            self._busy = False

    def _next_request(
        self,
    ) -> Tuple[MemoryRequest, Callable[[MemoryRequest], None]]:
        """Round-robin pick: resume scanning after the last-served master."""
        count = len(self._rr_order)
        for offset in range(count):
            index = (self._rr_index + offset) % count
            master = self._rr_order[index]
            queue = self._queues[master]
            if queue:
                self._rr_index = (index + 1) % count
                return queue.popleft()
        raise AssertionError("pending count out of sync with queues")

    # -- refresh engine -------------------------------------------------------
    def refresh_stall(self, start_ns: float, floor_ns: Optional[float] = None) -> float:
        """Charge refresh to a burst going on the bus at ``start_ns``:
        returns its stall, counted in ``refresh_stall_ns``.  ``floor_ns``
        is when the bus last finished a burst, if not yet accounted."""
        stall_ns = self._refresh_stall(start_ns, floor_ns)
        if stall_ns:
            self.counts.refresh_stall_ns += stall_ns
        return stall_ns

    def _refresh_stall(
        self, start_ns: float, floor_ns: Optional[float] = None
    ) -> float:
        """Stall imposed on a burst starting at ``start_ns`` by refresh.

        Advances refresh bookkeeping as a side effect.  Deterministic:
        depends only on the timing parameters and the service history.
        """
        timing = self.timing
        if self.refresh_mode == "off" or timing.trefi_ns <= 0:
            return 0.0
        if self.refresh_mode == "lazy":
            elapsed = start_ns - self.last_refresh_ns
            if elapsed >= timing.trefi_ns:
                intervals = int(elapsed // timing.trefi_ns)
                self.last_refresh_ns += intervals * timing.trefi_ns
                self.counts.refreshes_completed += intervals
                return timing.trfc_ns
            return 0.0
        # engine: run every refresh due by start_ns at its earliest slot.
        busy_until = self._refresh_busy_until_ns
        next_due = self._refresh_next_ns
        floor = self._service_end_ns if floor_ns is None else floor_ns
        completed = 0
        while next_due <= start_ns:
            begin = max(next_due, busy_until, floor)
            busy_until = begin + timing.trfc_ns
            next_due += timing.trefi_ns
            completed += 1
        if completed:
            self._refresh_busy_until_ns = busy_until
            self._refresh_next_ns = next_due
            self.counts.refreshes_completed += completed
        return max(0.0, busy_until - start_ns)

    def sync_refresh(self, now_ns: Optional[float] = None) -> None:
        """Catch up refresh bookkeeping to ``now_ns`` (engine mode).

        Idempotent and timing-neutral: it executes exactly the refreshes
        a subsequent request would have executed, in the same slots, so
        calling it (e.g. from a quiescence check) never changes later
        service timing.
        """
        if self.refresh_mode == "engine":
            self._refresh_stall(self.sim.now if now_ns is None else now_ns)

    # -- service -------------------------------------------------------------
    def begin_service(self, request: MemoryRequest) -> float:
        """Put the picked ``request`` on the bus now: account its queue
        wait, charge refresh, classify the bank access.  Returns how long
        the burst occupies the bus (ns)."""
        device = self.device
        counts = self.counts
        self._pending -= 1
        started = self._service_start_ns = self.sim.now
        self._m_queue_depth.set(self._pending)
        wait_ns = started - request.submitted_ns
        counts.queue_wait_ns += wait_ns
        self._m_queue_wait_us.observe(wait_ns / 1e3)
        ledger = self.masters[request.master]
        ledger.requests += 1
        ledger.wait_ns += wait_ns

        stall_ns = self.refresh_stall(started)
        outcome, bank, row, open_before = device.bank_access(
            request.addr, request.size, self.page_policy
        )
        if outcome == "hit":
            counts.row_hits += 1
        elif outcome == "miss":
            counts.row_misses += 1
        else:
            counts.row_conflicts += 1
        if self.monitor is not None:
            self.monitor.on_dram_access(
                self, request, bank, row, outcome, open_before, stall_ns
            )
        access = self.timing.access_ns(outcome)
        transfer = device.transfer_ns(request.size)
        return stall_ns + access + transfer + self.fault_ns(request)

    def fault_ns(self, request: MemoryRequest) -> float:
        """The latency :attr:`fault_latency_ns` adds to ``request``'s
        service (0.0 if none)."""
        if self.fault_latency_ns is None:
            return 0.0
        return max(0.0, self.fault_latency_ns(request))

    def finish_service(self, request: MemoryRequest) -> None:
        """Complete the burst on the bus now: move its data and close its
        accounting (``request.read_data`` holds a read's bytes)."""
        device = self.device
        counts = self.counts
        if request.is_write:
            assert request.data is not None
            device.store(request.addr, request.data)
            counts.bytes_written += request.size
        else:
            request.read_data = device.load(request.addr, request.size)
            if self.fault_read_tamper is not None:
                request.read_data = self.fault_read_tamper(
                    request, request.read_data
                )
            counts.bytes_read += request.size
        self.masters[request.master].bytes += request.size
        counts.requests_served += 1
        now = self.sim.now
        self.busy_ns += now - self._service_start_ns
        self._m_service_us.observe((now - self._service_start_ns) / 1e3)
        self._service_end_ns = now

    def serve_through(
        self,
        master: str,
        started: Sequence[float],
        ended: Sequence[float],
        nbytes: int,
        outcomes: Dict[str, int],
    ) -> None:
        """Account, in bulk, reads of ``master`` that met an idle bus: one
        put on the bus with no wait at each time of ``started`` (the count
        of each bank outcome in ``outcomes``; its refresh already
        charged by :meth:`refresh_stall` and its bank classified by the
        device), and one served at each time of ``ended``, ``nbytes`` in
        all.  The first end closes the service begun last before these
        when it has no start among them.  The
        gauges, histograms and ledgers read as :meth:`begin_service` and
        :meth:`finish_service` per read leave them."""
        if not started and not ended:
            return
        ledger = self.masters.get(master)
        if ledger is None:
            self._register(master)
            ledger = self.masters[master]
        counts = self.counts
        # Pair every end with its start, the first perhaps from before.
        begins = started
        if len(ended) > len(started):
            begins = [self._service_start_ns]
            begins += started
        if started:
            count = len(started)
            # Each read is queued and put on the bus in one instant.
            times = [0.0] * (2 * count)
            times[::2] = times[1::2] = started
            levels = [self._pending + 1, self._pending] * count
            self._m_queue_depth.set_many(times, levels)
            self._m_queue_wait_us.observe_many([0.0] * count)
            ledger.requests += count
            counts.row_hits += outcomes["hit"]
            counts.row_misses += outcomes["miss"]
            counts.row_conflicts += outcomes["conflict"]
            self._service_start_ns = started[-1]
        if ended:
            spans = list(map(sub, ended, begins))
            self.busy_ns = reduce(add, spans, self.busy_ns)
            self._m_service_us.observe_many(list(map(truediv, spans, repeat(1e3))))
            counts.bytes_read += nbytes
            ledger.bytes += nbytes
            counts.requests_served += len(ended)
            self._service_end_ns = ended[-1]
