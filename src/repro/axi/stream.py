"""AXI4-Stream link model.

Data moves as *bursts* of 32-bit words (a burst is the unit of DMA
scheduling; beat-level timing is charged by the producer/consumer clocks,
not per-event, to keep the discrete-event load tractable).  The stream has
a bounded FIFO — exactly the DMA's internal stream buffer — so
backpressure propagates: a slow consumer (the ICAP at low clock) stalls
the producer (the memory-side read engine), and vice versa.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Tuple

from ..obs import MetricsRegistry
from ..sim import Channel, Event, Simulator

__all__ = ["StreamBurst", "AxiStream"]


@dataclass
class StreamBurst:
    """One TLAST-delimited group of words on the stream."""

    words: List[int]
    last: bool = False
    meta: dict = field(default_factory=dict)

    @property
    def size_bytes(self) -> int:
        return len(self.words) * 4


class AxiStream:
    """A 32-bit AXI4-Stream channel with a bounded word FIFO."""

    WORD_BYTES = 4

    def __init__(
        self,
        sim: Simulator,
        fifo_words: int = 1024,
        name: str = "axis",
        metrics: Optional[MetricsRegistry] = None,
    ):
        if fifo_words < 1:
            raise ValueError("stream FIFO must hold at least one word")
        self.sim = sim
        self.name = name
        self.fifo_words = fifo_words
        self._bursts: Channel = Channel(sim, name=f"{name}.bursts")
        self._free_words = fifo_words
        # FIFO of blocked producers; popleft() keeps the drain O(1) per
        # waiter (a plain list.pop(0) made long stalls quadratic).
        self._space_waiters: Deque[Tuple[int, Event, float]] = deque()
        self._reserve_event_name = f"{name}.reserve"
        self.total_words = 0
        #: Optional :class:`~repro.verify.InvariantMonitor`; ``None`` costs a
        #: single identity check per stream operation.
        self.monitor = None
        #: Conservation ledgers for the invariant monitor.  ``granted`` /
        #: ``released`` track FIFO space reservations; ``queued`` /
        #: ``consumed`` track words pushed onto vs popped off the stream.
        self.stat_granted_words = 0
        self.stat_released_words = 0
        self.stat_queued_words = 0
        self.stat_consumed_words = 0
        #: Total sim time (ns) producers spent stalled on a full FIFO.
        #: Model accounting: results read it, the counter only mirrors it.
        self.stat_stall_ns = 0.0
        self.metrics = metrics if metrics is not None else MetricsRegistry(now_fn=lambda: sim.now)
        self._m_occupancy = self.metrics.gauge(f"{name}.occupancy_words")
        self._m_depth = self.metrics.histogram(f"{name}.fifo_depth_words")
        self._m_stalls = self.metrics.counter(f"{name}.backpressure_stalls")
        self._m_stall_ns = self.metrics.counter(f"{name}.backpressure_ns")
        self._m_words = self.metrics.counter(f"{name}.words_total")
        self._m_occupancy.set(0.0)

    # -- producer side ---------------------------------------------------------
    def reserve(self, words: int) -> Event:
        """Wait until the FIFO has room for ``words`` more words."""
        if words > self.fifo_words:
            raise ValueError(
                f"burst of {words} words exceeds FIFO depth {self.fifo_words}"
            )
        event = self.sim.event(name=self._reserve_event_name)
        if self._free_words >= words and not self._space_waiters:
            self._free_words -= words
            self.stat_granted_words += words
            self._m_occupancy.set(self.fifo_words - self._free_words)
            event.succeed()
        else:
            self._m_stalls.inc()
            self._space_waiters.append((words, event, self.sim.now))
        if self.monitor is not None:
            self.monitor.on_stream_op(self)
        return event

    def cancel_reserve(self, event: Event, words: int) -> None:
        """Undo a :meth:`reserve` whose producer is being torn down.

        If the reservation was already granted, its words return to the
        pool; if it is still queued, the waiter entry is removed so the
        space is never handed to a producer that no longer exists.
        Granted-and-pushed reservations are the consumer's to release and
        must not be cancelled.
        """
        if event.triggered:
            self.release(words)
            return
        for index, (_need, waiter, _since) in enumerate(self._space_waiters):
            if waiter is event:
                del self._space_waiters[index]
                break
        if self.monitor is not None:
            self.monitor.on_stream_op(self)

    def push(self, burst: StreamBurst) -> None:
        """Enqueue a burst whose space was previously reserved."""
        self.total_words += len(burst.words)
        self.stat_queued_words += len(burst.words)
        self._m_words.inc(len(burst.words))
        self._m_depth.observe(self.fifo_words - self._free_words)
        self._bursts.try_put(burst)
        if self.monitor is not None:
            self.monitor.on_stream_op(self)

    # -- consumer side ---------------------------------------------------------
    def pop(self) -> Event:
        """Wait for the next burst; value is the :class:`StreamBurst`."""
        event = self._bursts.get()
        if event.callbacks is not None:
            event.callbacks.append(self._on_popped)
        return event

    def _on_popped(self, event: Event) -> None:
        # Move the delivered burst's words from the queued to the consumed
        # ledger the instant the consumer receives them.
        if event._exc is None:
            words = len(event._value.words)
            self.stat_queued_words -= words
            self.stat_consumed_words += words

    def release(self, words: int) -> None:
        """Return consumed words to the FIFO space pool."""
        self._free_words += words
        self.stat_released_words += words
        if self._free_words > self.fifo_words:
            raise AssertionError(f"{self.name}: released more words than consumed")
        while self._space_waiters:
            need, event, waited_since_ns = self._space_waiters[0]
            if self._free_words < need:
                break
            self._space_waiters.popleft()
            self._free_words -= need
            self.stat_granted_words += need
            stall_ns = self.sim.now - waited_since_ns
            self.stat_stall_ns += stall_ns
            self._m_stall_ns.inc(stall_ns)
            event.succeed()
        self._m_occupancy.set(self.fifo_words - self._free_words)
        if self.monitor is not None:
            self.monitor.on_stream_op(self)

    # -- inspection ---------------------------------------------------------------
    @property
    def backpressure_ns(self) -> float:
        """Total sim time producers spent stalled on a full FIFO.

        Reads :attr:`stat_stall_ns`, so it does not depend on telemetry;
        the critical-path extractor diffs this around the DMA transfer
        window to attribute consumer-bound time.
        """
        return self.stat_stall_ns

    @property
    def queued_bursts(self) -> int:
        return self._bursts.level

    @property
    def free_words(self) -> int:
        return self._free_words

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<AxiStream {self.name}: {self.fifo_words - self._free_words}"
            f"/{self.fifo_words} words queued>"
        )
