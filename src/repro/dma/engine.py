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
from typing import Callable, Optional, Tuple

from ..axi.ports import AxiHpPort
from ..axi.stream import AxiStream, StreamBurst
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
        self.metrics = metrics if metrics is not None else MetricsRegistry(now_fn=lambda: sim.now)
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
        self._reserve_next()

    def _reserve_next(self) -> None:
        """Claim FIFO room for the next burst, or for the final drain."""
        if self._remaining:
            self._burst_bytes = min(self.max_burst_bytes, self._remaining)
            words, granted = self._burst_bytes >> 2, self.granted
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
        """The command gap is over: read the burst through the HP port."""
        if epoch != self._epoch:
            return
        self.counts.cmd_overhead_cycles += self.cmd_overhead_cycles
        self.port.read(
            self._cursor, self._burst_bytes, _PortTarget(self, self.fetched, epoch)
        )

    def fetched(self, epoch: int, data: bytes) -> None:
        """The burst has left the HP port: push its bytes onto the stream."""
        if epoch != self._epoch:
            return
        burst_bytes = self._burst_bytes
        self.stream.push(StreamBurst(data, self._remaining == burst_bytes))
        self._reservation = None
        self._pushed_bytes += len(data)
        self._cursor += burst_bytes
        self._remaining -= burst_bytes
        counts = self.counts
        counts.bursts_issued += 1
        counts.bytes_moved += burst_bytes
        self._reserve_next()

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
        self.metrics = metrics if metrics is not None else MetricsRegistry(now_fn=lambda: sim.now)
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
