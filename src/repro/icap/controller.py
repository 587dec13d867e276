"""The AXI4-Stream ICAP controller (the block of refs [8]/[9]).

Consumes 32-bit words from an :class:`~repro.axi.stream.AxiStream` at one
word per clock cycle — the ICAPE2 primitive's rate, which over-clocking
raises — and feeds them to the :class:`~repro.icap.primitive.ConfigPort`.

The consumer is a callback chain, not a process: the stream hands each
burst to :meth:`IcapController.receive`, the drain at one word per cycle
is one kernel entry (:meth:`~repro.sim.Simulator.call_later`) ending in
:meth:`~IcapController.drained`, which configures the burst's bytes,
releases its FIFO room and asks the stream for the next burst.

Over-clocking failure injection happens here: an optional *word corruptor*
(installed by the PDR system from the timing model's verdict) mangles
words between the stream and the configuration engine, modelling the
data-path timing violations that make the paper's ≥320 MHz runs fail
their CRC.
"""

from __future__ import annotations

import operator
import weakref
from typing import Callable, List, Optional

from ..axi.stream import AxiStream, StreamBurst
from ..fabric.config_memory import ConfigMemory
from ..obs import MetricsRegistry
from ..sim import ClockDomain, InterruptLine, Signal, Simulator

from .primitive import ConfigPort

__all__ = ["IcapController"]


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
        self.metrics = metrics if metrics is not None else MetricsRegistry(now_fn=lambda: sim.now)
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
        #: Rises when the stream desyncs (configuration done).
        self.done = Signal(sim, initial=False, name=f"{name}.done")
        #: Asserted if the configuration engine latched an error.
        self.error_irq = InterruptLine(sim, name=f"{name}.error")
        #: Optional fault injector: words -> words (set by the PDR system
        #: when the timing model says the data path is past its fmax).
        self.word_corruptor: Optional[Callable[[List[int]], List[int]]] = None
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
        stream.take(self.receive)

    @property
    def aborted(self) -> bool:
        """True between a completed abort and the next ``begin_transfer``."""
        return self._aborted

    def begin_transfer(self) -> None:
        """Arm the controller for a new configuration stream."""
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
        configuration port is reset *afterwards*, so stale words cannot
        leave a partially decoded packet state behind — then the busy and
        done flags are cleared so the scrubber's busy gate reopens.
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
        self.port.reset()
        self.busy.set(False)
        self.done.set(False)
        self.counts.aborts += 1
        self._aborted = True

    def receive(self, burst: StreamBurst) -> None:
        """The stream hands over the next burst: clock it in."""
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
        if self.fault_lockup_cycles is not None:
            lockup = max(0, int(self.fault_lockup_cycles()))
            if lockup:
                self.counts.lockup_cycles += lockup
                self.sim.call_later(
                    self.clock.cycles_to_ns(lockup), self.clock_in, burst
                )
                return
        self.clock_in(burst)

    def clock_in(self, burst: StreamBurst) -> None:
        """Drain the burst through the ICAP, one word per clock cycle."""
        self.sim.call_later(
            self.clock.cycles_to_ns(burst.word_count), self.drained, burst
        )

    def drained(self, burst: StreamBurst) -> None:
        """The burst has passed the ICAP: configure it, hand its FIFO room
        back and take the next burst."""
        counts = self.counts
        count = burst.word_count
        if self.word_corruptor is not None:
            original = burst.words
            words = self.word_corruptor(original)
            counts.corrupted_words += sum(map(operator.ne, original, words))
            count = len(words)
            if self.monitor is not None:
                self.monitor.on_icap_words(self, count)
            self.port.feed_words(words)
        else:
            if self.monitor is not None:
                self.monitor.on_icap_words(self, count)
            self.port.feed_bytes(burst.data)
        counts.words_consumed += count
        counts.bursts_consumed += 1
        if burst.last:
            self.busy.set(False)
            if self.port.desynced:
                self.done.set(True)
            if self.port.has_error:
                self.error_irq.assert_()
        stream = self._stream()
        stream.release(burst.word_count)
        self._wait_started_ns = self.sim.now
        stream.take(self.receive)
