"""AXI DMA engine (MM2S: memory to stream).

Models the Xilinx AXI DMA in direct register mode, clocked by the
over-clockable PL clock.  The read engine is a classic non-overlapped
burst loop: reserve stream-FIFO space, spend the command-issue overhead,
fetch one burst through an HP port, push it onto the AXI4-Stream.  Its
measured behaviour is what the paper's Fig. 5 knee comes from:

* below ~200 MHz the stream side (4 bytes x f) is the bottleneck;
* above it, the per-burst memory path (interconnect + DDR latency +
  HP-port streaming + the command gap paid in *over-clocked* cycles)
  saturates around 790 MB/s.

The loop runs as a callback chain, not a process: the FIFO grant calls
:meth:`AxiDmaEngine.granted`, which spends the command gap as one kernel
entry (:meth:`~repro.sim.Simulator.call_later`) ending in
:meth:`~AxiDmaEngine.issue`; the HP port calls
:meth:`~AxiDmaEngine.fetched` with the burst's bytes, which go onto the
stream as read from DRAM.  A soft reset moves the transfer epoch on, so
an entry or port access of the abandoned transfer drops out when it lands.
A buffer whose datapath is quiet runs the same stages as one loop inside
the ``issue`` entry of its first burst while the kernel's order lets it,
and each device applies the buffer's accounting at once
(:meth:`~AxiDmaEngine._run_buffer`).

Scatter-gather (SG) mode adds two stages to the chain, through the same
HP port as the data: :meth:`~AxiDmaEngine.start_chain` reads a
descriptor (:meth:`~AxiDmaEngine.descriptor_fetched`) and runs its
buffer; :meth:`~AxiDmaEngine.complete` writes its STATUS word back
(:meth:`~AxiDmaEngine.status_written`), then the engine reads the next
descriptor, or raises the chain's one completion interrupt.

Xilinx guarantees this block to 150 MHz; the paper drives it to 310 MHz.
The engine itself has no notion of failure — the timing model decides
when an over-clocked control path stops delivering the completion
interrupt (see :mod:`repro.timing`).
"""

from __future__ import annotations

import struct
from collections import deque
from typing import Callable, Deque, Optional, Tuple

from ..axi.ports import AxiHpPort
from ..axi.stream import AxiStream, StreamBurst
from ..dram import MemoryRequest
from ..obs import MetricsRegistry
from ..sim import ClockDomain, InterruptLine, Simulator

from .descriptors import CTRL_EOF, CTRL_LEN_MASK, DESC_BYTES, STATUS_OFFSET, STAT_CMPLT
from .registers import (
    DMACR_IOC_IRQ_EN,
    DMACR_RESET,
    DMACR_RS,
    DMASR_DMA_INT_ERR,
    DMASR_HALTED,
    DMASR_IDLE,
    DMASR_IOC_IRQ,
    MM2S_DMACR,
    MM2S_DMASR,
    MM2S_LENGTH,
    MM2S_SA,
)

__all__ = ["AxiDmaEngine", "S2mmDmaEngine"]


#: The STATUS word an SG descriptor's write-back stores.
_STATUS_COMPLETE = struct.pack(">I", STAT_CMPLT)

#: A quiet buffer's memory-path stages, one kernel entry each on the
#: chain (:meth:`AxiDmaEngine._run_buffer`).
_ISSUE, _FORWARD, _SERVE, _STREAM = 1, 2, 3, 4
#: Drained bytes a quiet buffer's run holds before the ICAP takes them.
_FEED_BYTES = 64 * 1024


class _PortTarget:
    """Where the HP port completes one access of a transfer epoch.

    The port completes it as it would an :class:`~repro.sim.Event`:
    ``succeed(data)`` runs the engine ``stage`` it was issued for,
    ``fail(exc)`` reports an error response.  Both reach the engine
    tagged with the epoch.  The engine keeps no reference to it, so once
    the access completes it is freed by reference counting.
    """

    __slots__ = ("engine", "stage", "epoch")

    def __init__(self, engine: "AxiDmaEngine", stage: Callable, epoch: int):
        self.engine = engine
        self.stage = stage
        self.epoch = epoch

    def succeed(self, data: Optional[bytes]) -> None:
        self.stage(self.epoch, data)

    def fail(self, exc: BaseException) -> None:
        self.engine.failed(self.epoch, exc)


class AxiDmaEngine:
    """MM2S DMA: DRAM -> AXI4-Stream mover."""

    #: Default max bytes per memory read burst (256 beats x 4-byte words).
    MAX_BURST_BYTES = 1024
    #: Default cycles (in the DMA's own clock domain) to issue each read
    #: command: datamover command word, address handshake, re-arbitration.
    CMD_OVERHEAD_CYCLES = 10

    def __init__(
        self,
        sim: Simulator,
        clock: ClockDomain,
        port: AxiHpPort,
        stream: AxiStream,
        name: str = "dma",
        max_burst_bytes: int = MAX_BURST_BYTES,
        cmd_overhead_cycles: int = CMD_OVERHEAD_CYCLES,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if max_burst_bytes < 4 or max_burst_bytes % 4:
            raise ValueError("burst size must be a positive multiple of 4 bytes")
        if cmd_overhead_cycles < 0:
            raise ValueError("command overhead cannot be negative")
        self.sim = sim
        self.clock = clock
        self.port = port
        self.stream = stream
        self.name = name
        self.max_burst_bytes = max_burst_bytes
        self.cmd_overhead_cycles = cmd_overhead_cycles
        self.metrics = metrics if metrics is not None else MetricsRegistry(clock=sim)
        self.counts = self.metrics.counts(
            name,
            bursts_issued=0,
            bytes_moved=0,
            cmd_overhead_cycles=0,
            transfers_completed=0,
            resets=0,
            axi_errors=0,
        )
        self._m_transfer_us = self.metrics.histogram(f"{name}.transfer_us")
        self._m_mb_s = self.metrics.histogram(f"{name}.achieved_mb_s")
        #: Completion interrupt (IOC).  The PDR system sets
        #: ``suppress_completion_irq`` to model a control-path timing
        #: failure.
        self.ioc_irq = InterruptLine(sim, name=f"{name}.ioc")
        self.suppress_completion_irq = False
        self._control = DMACR_RS | DMACR_IOC_IRQ_EN
        self._status = DMASR_IDLE
        self._source_addr = 0
        #: True while a transfer's chain is live.
        self._active = False
        #: Bumped by every soft reset; chain entries and port reads carry
        #: the epoch they were issued in and drop out if it has moved on.
        self._epoch = 0
        #: The in-flight transfer: next read address, bytes left, the
        #: programmed length, start time, bytes pushed, current burst.
        self._cursor = 0
        self._remaining = 0
        self._length = 0
        self._started_ns = 0.0
        self._pushed_bytes = 0
        self._burst_bytes = 0
        #: SG mode: the descriptor whose buffer is moving and the next one
        #: (``None`` after the tail).  ``_descriptor`` is ``None`` in
        #: direct register mode.
        self._descriptor: Optional[int] = None
        self._next_descriptor: Optional[int] = None
        #: Outstanding stream-space reservation of the in-flight transfer
        #: ``(words, granted callback)``, handed back on reset so an
        #: aborted producer cannot leak FIFO space.
        self._reservation: Optional[Tuple[int, Callable[[], None]]] = None
        #: Optional :class:`~repro.verify.InvariantMonitor` checking the
        #: start/complete/reset state-machine transitions.
        self.monitor = None

    # -- register interface (as the PS driver sees it) -----------------------
    def reg_write(self, offset: int, value: int) -> None:
        if offset == MM2S_DMACR:
            if value & DMACR_RESET:
                self._reset()
                return
            self._control = value
            if value & DMACR_RS:
                self._status &= ~DMASR_HALTED
            else:
                self._status |= DMASR_HALTED
        elif offset == MM2S_DMASR:
            if value & DMASR_IOC_IRQ:  # write-1-to-clear
                self._status &= ~DMASR_IOC_IRQ
                self.ioc_irq.deassert()
        elif offset == MM2S_SA:
            self._source_addr = value
        elif offset == MM2S_LENGTH:
            if value % 4:
                # The stream carries whole 32-bit words: a ragged tail
                # could neither be pushed nor drained.
                raise ValueError(
                    f"{self.name}: MM2S_LENGTH {value} is not a multiple of 4 bytes"
                )
            if value:
                self._start(self._source_addr, value)
        else:
            raise ValueError(f"{self.name}: no register at offset {offset:#x}")

    def reg_read(self, offset: int) -> int:
        if offset == MM2S_DMACR:
            return self._control
        if offset == MM2S_DMASR:
            return self._status
        if offset == MM2S_SA:
            return self._source_addr
        if offset == MM2S_LENGTH:
            return 0
        raise ValueError(f"{self.name}: no register at offset {offset:#x}")

    @property
    def idle(self) -> bool:
        return bool(self._status & DMASR_IDLE)

    @property
    def running(self) -> bool:
        return bool(self._control & DMACR_RS) and not (self._status & DMASR_HALTED)

    # -- engine ------------------------------------------------------------------
    def _reset(self) -> None:
        """Soft reset (DMACR.Reset): halt the engine, kill any transfer.

        The real block abandons the in-flight datamover command on reset.
        Here the transfer epoch moves on, so a pending command gap or
        port read finds itself stale when it lands, and the outstanding
        stream-space reservation is handed back so the FIFO accounting
        stays exact.  Words already pushed onto the stream remain queued —
        the ICAP abort path is responsible for quiescing the consumer.
        """
        self._epoch += 1
        self._active = False
        self._descriptor = None
        if self._reservation is not None:
            words, granted = self._reservation
            self._reservation = None
            self.stream.cancel_reserve(granted, words)
        self._control = 0
        self._status = DMASR_HALTED | DMASR_IDLE
        self.counts.resets += 1
        self.ioc_irq.deassert()
        if self.monitor is not None:
            self.monitor.on_dma_reset(self)

    def _start(self, addr: int, length: int) -> None:
        if not self.running:
            raise RuntimeError(f"{self.name}: LENGTH written while halted")
        if self._active:
            raise RuntimeError(f"{self.name}: transfer already in progress")
        self._status &= ~DMASR_IDLE
        self._active = True
        self._cursor = addr
        self._remaining = length
        self._length = length
        self._started_ns = self.sim.now
        self._pushed_bytes = 0
        if self.monitor is not None:
            self.monitor.on_dma_start(self)
        self._reserve_next(self.granted)

    def _reserve_next(self, granted: Callable[[], None]) -> None:
        """Claim FIFO room for the next burst (``granted()`` runs once it
        is ours), or for the final drain (:meth:`complete` runs then)."""
        if self._remaining:
            self._burst_bytes = min(self.max_burst_bytes, self._remaining)
            words = self._burst_bytes >> 2
        else:
            # Completion means the stream slave accepted the last beat:
            # wait for the FIFO to drain fully before declaring it done.
            words, granted = self.stream.fifo_words, self.complete
        self._reservation = (words, granted)
        self.stream.reserve(words, granted)

    def granted(self) -> None:
        """FIFO room for the next burst is ours: pay the command gap."""
        # Command issue overhead is paid in the over-clocked domain:
        # faster clock, smaller gap — until the memory path dominates.
        self.sim.call_later(
            self.clock.cycles_to_ns(self.cmd_overhead_cycles), self.issue, self._epoch
        )

    def issue(self, epoch: int) -> None:
        """The command gap is over: read the burst through the HP port.

        A buffer's first burst runs its stages inside this entry while
        its datapath is quiet and the kernel's order lets it
        (:meth:`_run_buffer`).
        """
        if epoch != self._epoch:
            return
        if self._remaining == self._length and self._run_buffer():
            return
        self._issued()
        self.port.read(
            self._cursor, self._burst_bytes, _PortTarget(self, self.fetched, epoch)
        )

    def _issued(self) -> None:
        self.counts.cmd_overhead_cycles += self.cmd_overhead_cycles

    def fetched(self, epoch: int, data: bytes) -> None:
        """The burst has left the HP port: push its bytes onto the stream."""
        if epoch != self._epoch:
            return
        self._push(data)
        self._reserve_next(self.granted)

    def _push(self, data: bytes) -> None:
        """Push the burst's bytes onto the stream and count them."""
        burst_bytes = self._burst_bytes
        self.stream.push(StreamBurst(data, self._remaining == burst_bytes))
        self._reservation = None
        self._pushed_bytes += len(data)
        self._cursor += burst_bytes
        self._remaining -= burst_bytes
        counts = self.counts
        counts.bursts_issued += 1
        counts.bytes_moved += burst_bytes

    def _run_buffer(self) -> bool:
        """Run the buffer whose first burst issues now inside this entry,
        as one loop over its stages, while the kernel's order allows;
        returns whether it started, and so took the burst's issue
        (DESIGN §16).

        It starts when the port's master alone uses an idle lane and
        bus, the ICAP alone waits on an empty stream and the buffer lies
        inside the DRAM.  The chain's two pending stages, the burst's
        memory path and the ICAP's drain, are held in local variables
        under the numbers the chain would queue them with, their times
        made from the chain's delays in the chain's order; each runs in
        place while it is the kernel's next entry.  The devices'
        accounting is tallied and applied through each device's bulk
        method when the buffer ends or hands off; the ICAP takes its
        bursts' bytes every 64 KiB, and while a monitor watches, the
        stream settles after every stage that operated on it.  The
        first burst's arrival at the ICAP and the last drain run the
        chain's own methods, so ``busy``, ``done`` and the completion
        move as there.  A stage that is not next, an SLVERR or an ICAP
        lock-up hands the rest to the chain.
        """
        sim = self.sim
        port = self.port
        interconnect = port.interconnect
        controller = interconnect.controller
        device = controller.device
        stream = self.stream
        icap = stream.consumer
        master = port.name
        cursor, remaining, size = self._cursor, self._remaining, self._burst_bytes
        if not (
            stream.quiet(size >> 2)
            and interconnect.quiet(master)
            and controller.quiet(master)
            and device.holds(cursor, remaining)
        ):
            return False
        # A monitor's probes run at the stages they check: the DDR
        # controller's at each access and the ICAP's at each drain, on
        # state the loop keeps live, and the stream's after each stage
        # that operated on it, once the stream has settled.
        dram_monitor, icap_monitor = controller.monitor, icap.monitor
        stream_watched = stream.monitor is not None
        stall_hook, error_hook = interconnect.fault_stall_ns, interconnect.fault_error
        latency_hook = controller.fault_latency_ns
        tamper_hook = controller.fault_read_tamper
        lockup_hook = icap.fault_lockup_cycles
        load = device.load

        # The delays every full burst shares.
        full = self.max_burst_bytes
        full_words = full >> 2
        gap = self.clock.cycles_to_ns(self.cmd_overhead_cycles)
        forward = interconnect.forward_latency_ns
        transfer = device.transfer_ns(full)
        tail = port.tail_ns(full)
        drain = icap.drain_ns(full_words)
        fifo = stream.fifo_words
        feed_every = max(1, _FEED_BYTES // full)
        # The bank machine is asked once per row: the bursts after the
        # first in a row hit it, or miss it again under the closed page.
        timing = controller.timing
        row_bytes = device.timing.row_bytes
        policy = controller.page_policy
        closed = policy == "closed"
        again = "miss" if closed else "hit"
        again_ns = timing.access_ns(again)
        row = bank = -1
        # Lazy refresh is due once tREFI has passed since the last one;
        # the refresh engine is asked at every burst.
        trefi = timing.trefi_ns
        lazy = controller.refresh_mode == "lazy" and trefi > 0
        engine = controller.refresh_mode == "engine" and trefi > 0
        last_refresh = controller.last_refresh_ns
        last_end = None

        # The kernel's counters, mirrored: the held stages take their
        # numbers from ``seq``, ``events`` counts the stages run in place
        # and ``peak`` the most entries pending as one began.
        now = sim.now
        seq, events, peak, clear = sim.sequence, sim.events_processed, 0, sim.clear
        # The held stages: the memory path's (``mem``: 0 while the DMA
        # waits for FIFO room) and the drain's (``drained``: the burst's
        # bytes, or None; ``lockup``: the lock-up holding it back), each
        # with its time and number.  The first is this entry.
        mem, mem_at, mem_seq = _ISSUE, now, 0
        drained, drain_at, drain_seq, drained_words, lockup = None, 0.0, 0, 0, 0.0
        data = b""
        error = None
        # The stream: its free room, the bursts pushed and not yet taken,
        # whether the ICAP waits for one and the room the DMA waits for.
        free = stream.free_words
        queued: Deque[Tuple[bytes, int]] = deque()
        consumer_waits = True
        waiting, waited_at = 0, 0.0
        total = -(-remaining // full)
        received = 0
        wait_from = 0.0
        request = MemoryRequest(cursor, size, master=master)

        # The tallies each device applies in bulk.
        issued, started, ended = [], [], []
        issued_bytes = served_bytes = 0
        outcomes = dict.fromkeys(("hit", "miss", "conflict"), 0)
        pushed = pushed_size = pushed_len = pushed_words = 0
        depths, levels_at, levels, waited_ns = [], [], [], []
        taken = taken_words = granted_words = released_words = waits = ops = 0
        bursts, received_at, waited_since = [], [], []

        def sync() -> None:
            # The kernel's counters as the stages run so far leave them.
            nonlocal peak
            sim.sequence = seq
            sim.advance(now, events - sim.events_processed, peak)
            peak = 0

        def call(fn: Callable, *args):
            # A call out of the loop (a fault hook, a signal's edge) sees
            # the kernel at the stage, and may queue entries.
            nonlocal seq, clear
            sync()
            result = fn(*args)
            seq, clear = sim.sequence, sim.clear
            return result

        def entered(when: float, number: int) -> bool:
            # A stage due at or after the clearance asks the kernel.
            nonlocal events, clear
            sync()
            if not sim.enter(when, number):
                return False
            events, clear = sim.events_processed, sim.clear
            return True

        def settle() -> None:
            # The stream takes the operations so far and the state the
            # loop leaves it in.
            nonlocal pushed_words, taken, taken_words, granted_words
            nonlocal released_words, waits, ops
            next_grant = self.granted if remaining else self.complete
            stream.settle(
                free_words=free,
                queued=[
                    StreamBurst(burst, received + index == total)
                    for index, (burst, _words) in enumerate(queued, 1)
                ],
                taker=icap.receive if consumer_waits else None,
                waiter=(waiting, next_grant, waited_at) if waiting else None,
                pushed_words=pushed_words,
                taken_words=taken_words,
                taken_bursts=taken,
                granted_words=granted_words,
                released_words=released_words,
                waits=waits,
                waited_ns=waited_ns,
                depths=depths,
                levels_at=levels_at,
                levels=levels,
                ops=ops,
            )
            for tally in (depths, levels_at, levels, waited_ns):
                tally.clear()
            pushed_words = taken = taken_words = granted_words = 0
            released_words = waits = ops = 0

        def flush() -> None:
            # Every device applies the tallies so far and takes the state
            # the loop leaves it in.
            nonlocal issued_bytes, served_bytes, pushed, pushed_size, pushed_len
            sync()
            icap.finish_bursts(bursts, received_at, waited_since, wait_from)
            controller.serve_through(master, started, ended, served_bytes, outcomes)
            interconnect.pass_through(master, issued, ended, issued_bytes, served_bytes)
            port.carry(pushed_size)
            if ops:
                settle()
            counts = self.counts
            counts.cmd_overhead_cycles += len(issued) * self.cmd_overhead_cycles
            counts.bursts_issued += pushed
            counts.bytes_moved += pushed_size
            self._pushed_bytes += pushed_len
            self._cursor, self._remaining, self._burst_bytes = cursor, remaining, size
            if mem:
                self._reservation = (size >> 2, self.granted)
            elif waiting:
                grant = self.granted if remaining else self.complete
                self._reservation = (waiting, grant)
            for tally in (issued, started, ended, bursts, received_at, waited_since):
                tally.clear()
            outcomes.update(hit=0, miss=0, conflict=0)
            issued_bytes = served_bytes = pushed = pushed_size = pushed_len = 0

        while True:
            # The drain runs first when the heap would order it first: by
            # time, then by number.
            if drained is not None and (
                not mem
                or drain_at < mem_at
                or (drain_at == mem_at and drain_seq < mem_seq)
            ):
                if drain_at < clear:
                    if seq - events > peak:
                        peak = seq - events
                    events += 1
                elif not entered(drain_at, drain_seq):
                    break
                now = drain_at
                if received == total:
                    # The last burst: the chain's own drain completes the
                    # buffer once the devices hold the loop's state.
                    flush()
                    stream.release(icap.finish_burst(StreamBurst(drained, True)))
                    stream.take(icap.receive)
                    return True
                if icap_monitor is not None:
                    call(icap_monitor.on_icap_words, icap, drained_words)
                bursts.append(drained)
                wait_from = now
                free += drained_words
                released_words += drained_words
                ops += 1
                if waiting and free >= waiting:
                    free -= waiting
                    granted_words += waiting
                    waited_ns.append(now - waited_at)
                    waiting = 0
                    mem, mem_at = _ISSUE, now + gap
                    seq += 1
                    mem_seq = seq
                levels_at.append(now)
                levels.append(fifo - free)
                # The ICAP takes the next burst, if one is queued.
                if queued:
                    drained, drained_words = queued.popleft()
                    received += 1
                    taken += 1
                    taken_words += drained_words
                    if lockup_hook is not None:
                        lockup = call(icap.lockup_ns)
                    if lockup:
                        drain_at = now + lockup
                    elif drained_words == full_words:
                        drain_at = now + drain
                    else:
                        drain_at = now + icap.drain_ns(drained_words)
                    seq += 1
                    drain_seq = seq
                else:
                    drained = None
                    consumer_waits = True
                if stream_watched:
                    sync()
                    settle()
                if len(bursts) == feed_every:
                    icap.finish_bursts(bursts, received_at, waited_since, now)
                    bursts.clear()
                    received_at.clear()
                    waited_since.clear()
                if lockup:
                    break
                continue
            if not mem:
                # No stage held: nothing drains and the DMA has no room.
                break
            if mem_seq:
                if mem_at < clear:
                    if seq - events > peak:
                        peak = seq - events
                    events += 1
                elif not entered(mem_at, mem_seq):
                    break
                now = mem_at
            if mem == _ISSUE:
                issued.append(now)
                issued_bytes += size
                if stall_hook is None:
                    mem_at = now + forward
                else:
                    mem_at = now + (forward + call(interconnect.stall_ns))
                mem = _FORWARD
            elif mem == _FORWARD:
                if error_hook is not None:
                    request.addr, request.size = cursor, size
                    error = call(interconnect.error_response, request)
                    if error is not None:
                        break
                started.append(now)
                stall = 0.0
                if lazy:
                    if now - last_refresh >= trefi:
                        stall = controller.refresh_stall(now)
                        last_refresh = controller.last_refresh_ns
                elif engine:
                    stall = controller.refresh_stall(now, last_end)
                if cursor // row_bytes == row:
                    outcome, access = again, again_ns
                    opened = None if closed else row
                else:
                    outcome, bank, row, opened = device.bank_access(
                        cursor, size, policy
                    )
                    access = timing.access_ns(outcome)
                outcomes[outcome] += 1
                if dram_monitor is not None:
                    request.addr, request.size = cursor, size
                    call(
                        dram_monitor.on_dram_access,
                        controller, request, bank, row, outcome, opened, stall,
                    )
                if size == full:
                    mem_at = stall + access + transfer
                else:
                    mem_at = stall + access + device.transfer_ns(size)
                if latency_hook is not None:
                    request.addr, request.size = cursor, size
                    mem_at += call(controller.fault_ns, request)
                mem_at += now
                mem = _SERVE
            elif mem == _SERVE:
                data = load(cursor, size)
                if tamper_hook is not None:
                    request.addr, request.size, request.read_data = cursor, size, data
                    data = call(tamper_hook, request, data)
                ended.append(now)
                served_bytes += size
                last_end = now
                extra = tail if size == full else port.tail_ns(size)
                if extra > 0:
                    mem, mem_at = _STREAM, now + extra
                else:
                    mem = 0
            else:
                mem = 0
            if mem:
                seq += 1
                mem_seq = seq
            else:
                # The burst has left the port: push it onto the stream,
                # where the ICAP may wait for it, then reserve room for
                # the next burst, or for the final drain.
                pushed += 1
                pushed_size += size
                pushed_len += len(data)
                words = len(data) >> 2
                pushed_words += words
                depths.append(fifo - free)
                ops += 2
                if consumer_waits:
                    consumer_waits = False
                    received += 1
                    taken += 1
                    taken_words += words
                    if received == 1:
                        call(icap.start_burst)
                    else:
                        received_at.append(now)
                        waited_since.append(wait_from)
                    drained, drained_words = data, words
                    if lockup_hook is not None:
                        lockup = call(icap.lockup_ns)
                    if lockup:
                        drain_at = now + lockup
                    elif words == full_words:
                        drain_at = now + drain
                    else:
                        drain_at = now + icap.drain_ns(words)
                    seq += 1
                    drain_seq = seq
                else:
                    queued.append((data, words))
                cursor += size
                remaining -= size
                if remaining:
                    size = full if remaining > full else remaining
                    need = size >> 2
                else:
                    need = fifo
                if free >= need:
                    free -= need
                    granted_words += need
                    levels_at.append(now)
                    levels.append(fifo - free)
                    mem, mem_at = _ISSUE, now + gap
                    seq += 1
                    mem_seq = seq
                else:
                    waits += 1
                    waiting, waited_at = need, now
            if stream_watched and ops:
                sync()
                settle()
            if lockup:
                break

        # The handoff: the devices take the loop's state, a burst past its
        # issue goes on its lane, then the held stages are queued as the
        # chain's entries.
        flush()
        request.addr, request.size, request.read_data = cursor, size, data
        request.done = _PortTarget(self, self.fetched, self._epoch)
        if mem == _FORWARD or mem == _SERVE:
            lane = interconnect.occupy(request, port.deliver)
        if error is not None:
            interconnect.refuse(lane, request, error)
        elif mem == _ISSUE:
            sim.queue_held(mem_at, mem_seq, self.issue, self._epoch)
        elif mem == _FORWARD:
            sim.queue_held(mem_at, mem_seq, interconnect.forwarded, lane, request)
        elif mem == _SERVE:
            controller.occupy()
            served = interconnect.served
            sim.queue_held(mem_at, mem_seq, controller.served, request, served)
        elif mem == _STREAM:
            sim.queue_held(mem_at, mem_seq, port.streamed, request)
        if drained is not None:
            stage = icap.clock_in if lockup else icap.drained
            burst = StreamBurst(drained, received == total)
            sim.queue_held(drain_at, drain_seq, stage, burst)
        return True

    def failed(self, epoch: int, exc: BaseException) -> None:
        """AXI error response on a burst, a descriptor read or a status
        write-back: latch DMAIntErr and halt.

        No completion interrupt will ever arrive — the firmware's
        IRQ-timeout recovery path takes it from here (DMA soft reset +
        ICAP abort).  An outstanding FIFO reservation goes back so the
        accounting stays exact for the abort drain.
        """
        if epoch != self._epoch:
            return
        if self._reservation is not None:
            words, granted = self._reservation
            self._reservation = None
            self.stream.cancel_reserve(granted, words)
        self._status |= DMASR_HALTED | DMASR_DMA_INT_ERR
        self._active = False
        self.counts.axi_errors += 1

    def complete(self) -> None:
        """The stream FIFO has drained: hand the room back and finish the
        buffer — the transfer in direct register mode, or one descriptor
        of an SG chain, whose STATUS word is then written back.  Only a
        direct-mode transfer leaves the engine Idle here; an SG chain
        reads Idle once its tail's write-back lands."""
        self._reservation = None
        self.stream.release(self.stream.fifo_words)
        self._active = False
        if self._descriptor is None:
            self._status |= DMASR_IDLE
        self.counts.transfers_completed += 1
        if self.monitor is not None:
            self.monitor.on_dma_complete(self, self._length, self._pushed_bytes)
        duration_us = (self.sim.now - self._started_ns) / 1e3
        self._m_transfer_us.observe(duration_us)
        if duration_us > 0:
            self._m_mb_s.observe(self._length / duration_us)  # B/us == MB/s
        if self._descriptor is None:
            self._raise_ioc()
        else:
            self.port.write(
                self._descriptor + STATUS_OFFSET,
                _STATUS_COMPLETE,
                _PortTarget(self, self.status_written, self._epoch),
            )

    def _raise_ioc(self) -> None:
        if (self._control & DMACR_IOC_IRQ_EN) and not self.suppress_completion_irq:
            self._status |= DMASR_IOC_IRQ
            self.ioc_irq.assert_()

    # -- scatter-gather mode ----------------------------------------------------
    def start_chain(self, head_addr: int) -> None:
        """SG mode: walk the descriptor chain at ``head_addr``.

        Each descriptor's buffer moves through the burst chain with no
        software between buffers; the chain raises one completion
        interrupt, after the tail's write-back.
        """
        if not self.running:
            raise RuntimeError(f"{self.name}: chain started while halted")
        if self._active or self._descriptor is not None:
            raise RuntimeError(f"{self.name}: transfer already in progress")
        self._status &= ~DMASR_IDLE
        self._fetch_descriptor(head_addr)

    def _fetch_descriptor(self, addr: int) -> None:
        self._descriptor = addr
        self.port.read(
            addr, DESC_BYTES, _PortTarget(self, self.descriptor_fetched, self._epoch)
        )

    def descriptor_fetched(self, epoch: int, raw: bytes) -> None:
        """A descriptor has left the HP port: move its buffer (a zero or
        ragged length halts the engine with DMAIntErr instead)."""
        if epoch != self._epoch:
            return
        next_addr, _, buffer_addr, _, _, _, control, _ = struct.unpack(">8I", raw)
        length = control & CTRL_LEN_MASK
        if not length or length % 4:
            self._status |= DMASR_HALTED | DMASR_DMA_INT_ERR
            return
        self._next_descriptor = None if control & CTRL_EOF else next_addr
        self._start(buffer_addr, length)

    def status_written(self, epoch: int, _data: None) -> None:
        """A descriptor's STATUS word is in DRAM: read the next descriptor,
        or end the chain: the engine reads Idle, then raises the chain's
        completion interrupt."""
        if epoch != self._epoch:
            return
        if self._next_descriptor is not None:
            self._fetch_descriptor(self._next_descriptor)
            return
        self._descriptor = None
        self._status |= DMASR_IDLE
        self._raise_ioc()


class S2mmDmaEngine:
    """S2MM DMA: AXI4-Stream -> DRAM mover (the write direction).

    The Fig. 1 framework uses this to return ASP results to memory: the
    engine is armed with a destination buffer, then drains the stream
    burst by burst, writing each through an HP port, until TLAST or the
    buffer fills.  Like the MM2S engine it runs in the over-clockable
    domain and pays a per-burst command overhead.
    """

    CMD_OVERHEAD_CYCLES = 10

    def __init__(
        self,
        sim: Simulator,
        clock: ClockDomain,
        port: AxiHpPort,
        stream: AxiStream,
        name: str = "dma_s2mm",
        cmd_overhead_cycles: int = CMD_OVERHEAD_CYCLES,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if cmd_overhead_cycles < 0:
            raise ValueError("command overhead cannot be negative")
        self.sim = sim
        self.clock = clock
        self.port = port
        self.stream = stream
        self.name = name
        self.cmd_overhead_cycles = cmd_overhead_cycles
        self.metrics = metrics if metrics is not None else MetricsRegistry(clock=sim)
        self.counts = self.metrics.counts(
            name,
            bursts_issued=0,
            bytes_moved=0,
            cmd_overhead_cycles=0,
            transfers_completed=0,
        )
        self._m_transfer_us = self.metrics.histogram(f"{name}.transfer_us")
        self._m_mb_s = self.metrics.histogram(f"{name}.achieved_mb_s")
        self.ioc_irq = InterruptLine(sim, name=f"{name}.ioc")
        self.suppress_completion_irq = False
        self._idle = True

    @property
    def idle(self) -> bool:
        return self._idle

    def arm(self, dest_addr: int, max_bytes: int) -> None:
        """Arm a receive into ``[dest_addr, dest_addr + max_bytes)``.

        Completion (TLAST seen or buffer full) pulses the IOC interrupt;
        the number of bytes actually landed accumulates in
        ``counts.bytes_moved``.
        """
        if max_bytes < 4:
            raise ValueError("receive buffer must hold at least one word")
        if not self._idle:
            raise RuntimeError(f"{self.name}: receive already in progress")
        self._idle = False
        self.sim.process(self._run(dest_addr, max_bytes), name=f"{self.name}.s2mm")

    def _run(self, dest_addr: int, max_bytes: int):
        counts = self.counts
        started_ns = self.sim.now
        cursor = dest_addr
        remaining = max_bytes
        while remaining > 0:
            burst = yield self.stream.pop()
            yield self.clock.wait_cycles(self.cmd_overhead_cycles)
            counts.cmd_overhead_cycles += self.cmd_overhead_cycles
            data = burst.data
            if len(data) > remaining:
                data = data[:remaining]
            yield self.port.write(cursor, data)
            self.stream.release(burst.word_count)
            cursor += len(data)
            remaining -= len(data)
            counts.bursts_issued += 1
            counts.bytes_moved += len(data)
            if burst.last:
                break
        self._idle = True
        counts.transfers_completed += 1
        duration_us = (self.sim.now - started_ns) / 1e3
        self._m_transfer_us.observe(duration_us)
        received = cursor - dest_addr
        if duration_us > 0:
            self._m_mb_s.observe(received / duration_us)  # B/us == MB/s
        if not self.suppress_completion_irq:
            self.ioc_irq.pulse()
