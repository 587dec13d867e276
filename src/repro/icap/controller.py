"""The AXI4-Stream ICAP controller (the block of refs [8]/[9]).

Consumes 32-bit words from an :class:`~repro.axi.stream.AxiStream` at one
word per clock cycle — the ICAPE2 primitive's rate, which over-clocking
raises — and feeds them to the :class:`~repro.icap.primitive.ConfigPort`.

The consumer is a callback chain, not a process: the stream hands each
burst to :meth:`IcapController.receive`, the drain at one word per cycle
is one kernel entry (:meth:`~repro.sim.Simulator.call_later`) ending in
:meth:`~IcapController.drained`, which queues the burst's bytes for the
configuration port, releases its FIFO room and asks the stream for the
next burst.  The port decodes the queued bytes in batches of up to
64 KiB: when that much is queued, at a stream's last burst (before
``busy``, ``done`` and ``error_irq`` move) and before every port reset.
So mid-stream the port and the configuration memory may lag the ICAP by
less than a batch; they are exact at every TLAST, before every port
reset and at the end of every abort, and nothing reads them in between
(SEU delivery and the scrubber wait for ``busy`` to fall).

Over-clocking failure injection happens here: an optional *word corruptor*
(installed by the PDR system from the timing model's verdict) XORs masks
into a burst's bytes between the stream and the configuration engine,
modelling the data-path timing violations that make the paper's ≥320 MHz
runs fail their CRC.
"""

from __future__ import annotations

import weakref
from functools import reduce
from itertools import repeat
from operator import add, sub, truediv
from typing import Callable, List, Optional, Sequence, Tuple

from ..axi.stream import AxiStream, StreamBurst
from ..fabric.config_memory import ConfigMemory
from ..obs import MetricsRegistry
from ..sim import ClockDomain, InterruptLine, Signal, Simulator

from .primitive import ConfigPort

__all__ = ["IcapController"]

#: Undecoded bytes that make the ICAP feed the configuration port
#: before the stream's last burst.  It bounds the copies a decode holds
#: at once (the joined batch, its byteswap, the CRC's pending run and
#: the frame buffer).
_BATCH_BYTES = 64 * 1024


class IcapController:
    """Timed stream-to-ICAP bridge."""

    def __init__(
        self,
        sim: Simulator,
        clock: ClockDomain,
        memory: ConfigMemory,
        stream: AxiStream,
        name: str = "icap",
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.sim = sim
        self.clock = clock
        #: Held weakly: the stream holds :meth:`receive` between bursts,
        #: and a strong link back would make the pair a reference cycle
        #: that keeps the configuration memory alive until the cyclic
        #: collector runs.  The stream's owner and producer keep it alive.
        self._stream = weakref.ref(stream)
        self.name = name
        self.port = ConfigPort(memory)
        self.metrics = metrics if metrics is not None else MetricsRegistry(clock=sim)
        self.counts = self.metrics.counts(
            name,
            words_consumed=0,
            bursts_consumed=0,
            stall_cycles=0.0,
            corrupted_words=0,
            transfers=0,
            aborts=0,
            lockup_cycles=0,
        )
        #: High while a configuration stream is being consumed.
        self.busy = Signal(sim, initial=False, name=f"{name}.busy")
        #: When ``busy`` last fell: a stream's last burst drained, or an
        #: abort finished quiescing the stream.
        self.idle_since_ns = sim.now
        #: Rises when the stream desyncs (configuration done).
        self.done = Signal(sim, initial=False, name=f"{name}.done")
        #: Asserted if the configuration engine latched an error.
        self.error_irq = InterruptLine(sim, name=f"{name}.error")
        #: Optional fault injector: a burst's big-endian bytes ->
        #: ``(bytes, flipped_words)`` (set by the PDR system when the
        #: timing model says the data path is past its fmax).
        self.word_corruptor: Optional[Callable[[bytes], Tuple[bytes, int]]] = None
        #: Optional fault hook (installed by :mod:`repro.chaos`):
        #: extra cycles the ICAPE2 holds busy before accepting the next
        #: burst (a transient busy lock-up).  Backpressure propagates to
        #: the DMA through the stream FIFO, so the transfer stretches but
        #: no words are lost.
        self.fault_lockup_cycles: Optional[Callable[[], int]] = None
        #: Latched at the *end* of :meth:`abort` (stale in-flight words are
        #: legitimately drained during the abort itself); cleared when
        #: :meth:`begin_transfer` re-arms.  While latched, any word reaching
        #: the configuration port is a protocol violation.
        self._aborted = False
        #: Optional :class:`~repro.verify.InvariantMonitor` checking the
        #: busy/done protocol on every consumed burst.
        self.monitor = None
        #: When the controller last asked the stream for a burst.
        self._wait_started_ns = sim.now
        #: Drained bursts' bytes (after the corruptor), not yet decoded.
        self._pending: List[bytes] = []
        self._pending_bytes = 0
        #: The ICAP is its stream's consumer: a producer whose datapath is
        #: quiet runs its bursts through this controller's accounting.
        stream.consumer = self
        stream.take(self.receive)

    @property
    def aborted(self) -> bool:
        """True between a completed abort and the next ``begin_transfer``."""
        return self._aborted

    def begin_transfer(self) -> None:
        """Arm the controller for a new configuration stream."""
        self._decode_pending()
        self.port.reset()
        self.done.set(False)
        self._aborted = False
        self.counts.transfers += 1

    #: Abort quiesce polls before giving up (a wedged producer bug, not a
    #: timing failure — the producer must be halted before aborting).
    ABORT_POLL_LIMIT = 100_000

    def abort(self):
        """Abort an in-flight transfer (process generator).

        The producer (DMA) must already be halted.  Whatever it pushed
        before dying is consumed and discarded at stream rate — the
        queued bursts are decoded and the configuration port is reset
        *afterwards*, so stale words cannot leave a partially decoded
        packet state behind — then the busy and done flags are cleared
        so the scrubber's busy gate reopens.
        """
        polls = 0
        stream = self._stream()
        while stream.queued_bursts or stream.free_words < stream.fifo_words:
            polls += 1
            if polls > self.ABORT_POLL_LIMIT:
                raise RuntimeError(
                    f"{self.name}: abort cannot quiesce the stream "
                    f"(producer still running?)"
                )
            yield self.clock.wait_cycles(16)
        self._decode_pending()
        self.port.reset()
        self.idle_since_ns = self.sim.now
        self.busy.set(False)
        self.done.set(False)
        self.counts.aborts += 1
        self._aborted = True

    def receive(self, burst: StreamBurst) -> None:
        """The stream hands over the next burst: clock it in, after the
        lock-up the fault hook holds it back for, if any."""
        self.start_burst()
        lockup_ns = self.lockup_ns()
        if lockup_ns:
            self.sim.call_later(lockup_ns, self.clock_in, burst)
        else:
            self.clock_in(burst)

    def lockup_ns(self) -> float:
        """Account the lock-up :attr:`fault_lockup_cycles` holds the burst
        reaching the ICAP now back for; returns its length (0 if none)."""
        hook = self.fault_lockup_cycles
        lockup = 0 if hook is None else max(0, int(hook()))
        if not lockup:
            return 0.0
        self.counts.lockup_cycles += lockup
        return self.clock.cycles_to_ns(lockup)

    def start_burst(self) -> None:
        """Account a burst reaching the ICAP now: a mid-transfer wait for
        it is a stall, ``busy`` rises and ``done`` falls."""
        if self.busy.value:
            # Mid-transfer wait for the next burst: the stream side
            # starved the ICAP — count it in over-clock cycles.
            self.counts.stall_cycles += self.clock.ns_to_cycles(
                self.sim.now - self._wait_started_ns
            )
        self.busy.set(True)
        # busy and done are mutually exclusive: an SG descriptor
        # chain starts its next bitstream without a begin_transfer,
        # so the previous segment's desync flag drops here.
        self.done.set(False)

    def clock_in(self, burst: StreamBurst) -> None:
        """Drain the burst through the ICAP, one word per clock cycle."""
        self.sim.call_later(self.drain_ns(burst.word_count), self.drained, burst)

    def drain_ns(self, words: int) -> float:
        """How long ``words`` words take through the ICAP."""
        return self.clock.cycles_to_ns(words)

    def drained(self, burst: StreamBurst) -> None:
        """The burst has passed the ICAP: queue it for the configuration
        port, hand its FIFO room back and take the next burst."""
        stream = self._stream()
        stream.release(self.finish_burst(burst))
        stream.take(self.receive)

    def finish_burst(self, burst: StreamBurst) -> int:
        """Account a burst that has passed the ICAP now: queue its bytes
        (after the corruptor) for the configuration port, and at the
        stream's last burst decode them and move ``busy``, ``done`` and
        ``error_irq``.  Returns the words whose FIFO room it frees."""
        counts = self.counts
        count = burst.word_count
        data = burst.data
        if self.word_corruptor is not None:
            data, flipped = self.word_corruptor(data)
            counts.corrupted_words += flipped
        if self.monitor is not None:
            self.monitor.on_icap_words(self, count)
        self._pending.append(data)
        self._pending_bytes += len(data)
        counts.words_consumed += count
        counts.bursts_consumed += 1
        if burst.last or self._pending_bytes >= _BATCH_BYTES:
            self._decode_pending()
        if burst.last:
            self.idle_since_ns = self.sim.now
            self.busy.set(False)
            if self.port.desynced:
                self.done.set(True)
            if self.port.has_error:
                self.error_irq.assert_()
        self._wait_started_ns = self.sim.now
        return count

    def finish_bursts(
        self,
        bursts: Sequence[bytes],
        received_at: Sequence[float],
        waited_since: Sequence[float],
        drained_at: float,
    ) -> None:
        """Account, in bulk, bursts of a stream that is not at its last
        burst: each of ``bursts`` (its bytes) passed the ICAP, the last
        at ``drained_at``, and a burst reached the busy ICAP at each time
        of ``received_at`` after a wait since the matching time of
        ``waited_since``.  The counts and the decode batches are those of
        :meth:`start_burst` and :meth:`finish_burst` per burst; a monitor
        checks each drain where it happens."""
        counts = self.counts
        counts.stall_cycles = reduce(
            add,
            map(
                truediv,
                map(sub, received_at, waited_since),
                repeat(self.clock.period_ns),
            ),
            counts.stall_cycles,
        )
        if not bursts:
            return
        corruptor = self.word_corruptor
        pending = self._pending
        words = 0
        for data in bursts:
            count = len(data) >> 2
            if corruptor is not None:
                data, flipped = corruptor(data)
                counts.corrupted_words += flipped
            pending.append(data)
            self._pending_bytes += len(data)
            words += count
            if self._pending_bytes >= _BATCH_BYTES:
                self._decode_pending()
        counts.words_consumed += words
        counts.bursts_consumed += len(bursts)
        self._wait_started_ns = drained_at

    def _decode_pending(self) -> None:
        """Feed the queued bursts to the configuration port as one batch."""
        if self._pending:
            data = b"".join(self._pending)
            self._pending.clear()
            self._pending_bytes = 0
            self.port.feed_bytes(data)
