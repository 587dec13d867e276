"""AXI4-Stream link model.

Data moves as *bursts* of 32-bit words (a burst is the unit of DMA
scheduling; beat-level timing is charged by the producer/consumer clocks,
not per-event, to keep the discrete-event load tractable).  The stream has
a bounded FIFO — exactly the DMA's internal stream buffer — so
backpressure propagates: a slow consumer (the ICAP at low clock) stalls
the producer (the memory-side read engine), and vice versa.

Both sides are direct calls, so a burst crosses the stream without a
kernel entry of its own.  A producer claims FIFO room with
:meth:`AxiStream.reserve` and a consumer asks for the next burst with
:meth:`AxiStream.take`; each passes a callback that runs at once when it
can, or from the :meth:`~AxiStream.release` or :meth:`~AxiStream.push`
that makes it possible.  Process code waits on the same operations as
events (``reserve`` without a callback, :meth:`AxiStream.pop`).
"""

from __future__ import annotations

import struct
from collections import deque
from functools import reduce
from operator import add
from typing import Callable, Deque, Iterable, List, Optional, Sequence, Tuple

from ..obs import MetricsRegistry
from ..sim import Event, Simulator

__all__ = ["StreamBurst", "AxiStream"]


class StreamBurst:
    """One TLAST-delimited group of 32-bit words on the stream.

    ``data`` carries the words as big-endian bytes, the layout the DMA
    reads them in from DRAM, so a burst moves without a round trip
    through Python ints.  Producers that hold ints pass ``words=``
    instead; :attr:`words` unpacks for consumers that need them.
    """

    __slots__ = ("data", "last")

    def __init__(
        self,
        data: bytes = b"",
        last: bool = False,
        words: Optional[Sequence[int]] = None,
    ):
        if words is not None:
            data = struct.pack(f">{len(words)}I", *words)
        self.data = data
        self.last = last

    @property
    def words(self) -> List[int]:
        return list(struct.unpack(f">{len(self.data) >> 2}I", self.data))

    @property
    def word_count(self) -> int:
        return len(self.data) >> 2

    @property
    def size_bytes(self) -> int:
        return len(self.data)


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
        self._bursts: Deque[StreamBurst] = deque()
        #: Consumers waiting for a burst, oldest first.
        self._takers: Deque[Callable[[StreamBurst], None]] = deque()
        self._free_words = fifo_words
        # FIFO of blocked producers ``(words, granted, since_ns)``;
        # popleft() keeps the drain O(1) per waiter (a plain list.pop(0)
        # made long stalls quadratic).
        self._space_waiters: Deque[Tuple[int, Callable[[], None], float]] = deque()
        self._reserve_event_name = f"{name}.reserve"
        self._pop_event_name = f"{name}.pop"
        #: Optional :class:`~repro.verify.InvariantMonitor`; ``None`` costs a
        #: single identity check per stream operation.
        self.monitor = None
        #: The block draining this stream, when one registered itself (the
        #: ICAP does).
        self.consumer = None
        #: Conservation ledgers for the invariant monitor.  ``granted`` /
        #: ``released`` track FIFO space reservations; ``queued`` /
        #: ``consumed`` track words pushed onto vs handed off the stream
        #: (``counts.words_total`` counts every word pushed), and
        #: ``pushed`` / ``taken`` count the bursts.
        self.stat_granted_words = 0
        self.stat_released_words = 0
        self.stat_queued_words = 0
        self.stat_consumed_words = 0
        self.stat_pushed_bursts = 0
        self.stat_taken_bursts = 0
        self.metrics = metrics if metrics is not None else MetricsRegistry(clock=sim)
        #: ``backpressure_ns`` is the total sim time producers spent
        #: stalled on a full FIFO; results read it.
        self.counts = self.metrics.counts(
            name, backpressure_stalls=0, backpressure_ns=0.0, words_total=0
        )
        self._m_occupancy = self.metrics.gauge(f"{name}.occupancy_words")
        self._m_depth = self.metrics.histogram(f"{name}.fifo_depth_words")
        self._m_occupancy.set(0.0)

    # -- producer side ---------------------------------------------------------
    def reserve(
        self, words: int, granted: Optional[Callable[[], None]] = None
    ) -> Optional[Event]:
        """Claim FIFO room for ``words`` more words.

        With ``granted``, call ``granted()`` the moment the room is
        claimed: now if it is free and no producer is queued, else from
        the :meth:`release` that frees it.  Without, return an event that
        fires then.
        """
        if words > self.fifo_words:
            raise ValueError(
                f"burst of {words} words exceeds FIFO depth {self.fifo_words}"
            )
        event = None
        if granted is None:
            event = self.sim.event(name=self._reserve_event_name)
            granted = event.succeed
        free = self._free_words >= words and not self._space_waiters
        if free:
            self._free_words -= words
            self.stat_granted_words += words
            self._m_occupancy.set(self.fifo_words - self._free_words)
        else:
            self.counts.backpressure_stalls += 1
            self._space_waiters.append((words, granted, self.sim.now))
        if self.monitor is not None:
            self.monitor.on_stream_op(self)
        if free:
            granted()
        return event

    def cancel_reserve(self, claim, words: int) -> None:
        """Undo a :meth:`reserve` whose producer is being torn down.

        ``claim`` is the event :meth:`reserve` returned or the
        ``granted`` callback passed to it.  A claim still queued leaves
        the queue, so the space is never handed to a producer that no
        longer exists; a granted one returns its words to the pool.
        Granted-and-pushed reservations are the consumer's to release and
        must not be cancelled.
        """
        if isinstance(claim, Event):
            claim = claim.succeed
        for index, (_need, granted, _since) in enumerate(self._space_waiters):
            if granted == claim:
                del self._space_waiters[index]
                if self.monitor is not None:
                    self.monitor.on_stream_op(self)
                return
        self.release(words)

    def push(self, burst: StreamBurst) -> None:
        """Enqueue a burst whose space was previously reserved; a waiting
        consumer receives it at once."""
        words = len(burst.data) >> 2
        self.counts.words_total += words
        self.stat_queued_words += words
        self.stat_pushed_bursts += 1
        self._m_depth.observe(self.fifo_words - self._free_words)
        if self._takers:
            self._hand_off(self._takers.popleft(), burst)
        else:
            self._bursts.append(burst)
        if self.monitor is not None:
            self.monitor.on_stream_op(self)

    # -- consumer side ---------------------------------------------------------
    def take(self, receive: Callable[[StreamBurst], None]) -> None:
        """Hand the next burst to ``receive(burst)``: now if one is
        queued, else from the :meth:`push` that brings it."""
        if self._bursts:
            self._hand_off(receive, self._bursts.popleft())
        else:
            self._takers.append(receive)

    def pop(self) -> Event:
        """Wait for the next burst; value is the :class:`StreamBurst`."""
        event = self.sim.event(name=self._pop_event_name)
        self.take(event.succeed)
        return event

    def _hand_off(self, receive: Callable[[StreamBurst], None], burst: StreamBurst) -> None:
        # Move the burst's words from the queued to the consumed ledger
        # the instant the consumer receives them.
        words = len(burst.data) >> 2
        self.stat_queued_words -= words
        self.stat_consumed_words += words
        self.stat_taken_bursts += 1
        receive(burst)

    def release(self, words: int) -> None:
        """Return consumed words to the FIFO space pool."""
        self._free_words += words
        self.stat_released_words += words
        if self._free_words > self.fifo_words:
            raise AssertionError(f"{self.name}: released more words than consumed")
        grants = []
        while self._space_waiters:
            need, granted, waited_since_ns = self._space_waiters[0]
            if self._free_words < need:
                break
            self._space_waiters.popleft()
            self._free_words -= need
            self.stat_granted_words += need
            self.counts.backpressure_ns += self.sim.now - waited_since_ns
            grants.append(granted)
        self._m_occupancy.set(self.fifo_words - self._free_words)
        if self.monitor is not None:
            self.monitor.on_stream_op(self)
        # Producers learn of their room only once the FIFO state is
        # settled: a grant may release again (the DMA's final drain).
        for granted in grants:
            granted()

    def settle(
        self,
        *,
        free_words: int,
        queued: Iterable[StreamBurst],
        taker: Optional[Callable[[StreamBurst], None]],
        waiter: Optional[Tuple[int, Callable[[], None], float]],
        pushed_words: int,
        taken_words: int,
        taken_bursts: int,
        granted_words: int,
        released_words: int,
        waits: int,
        waited_ns: Sequence[float],
        depths: Sequence[int],
        levels_at: Sequence[float],
        levels: Sequence[int],
        ops: int,
    ) -> None:
        """Apply, in bulk, the operations of a producer and a consumer
        that held this stream alone, and take the state they left: the
        free room, the ``queued`` bursts, the consumer waiting as
        ``taker`` (or draining) and the producer waiting as ``waiter``
        (or not).  One burst was pushed per value of ``depths`` (the
        depth each found), ``taken_bursts`` were handed off, ``waits``
        reservations queued and were granted after ``waited_ns`` each;
        the occupancy read each of ``levels`` from the matching time of
        ``levels_at``.  The counts, ledgers, gauge and histogram read as
        the :meth:`push`, :meth:`reserve`, :meth:`release` and
        :meth:`take` calls leave them; the monitor checks the stream
        ``ops`` times, once the whole batch is applied."""
        if free_words > self.fifo_words:
            raise AssertionError(f"{self.name}: released more words than consumed")
        self._free_words = free_words
        self._bursts = deque(queued)
        self._takers = deque() if taker is None else deque((taker,))
        self._space_waiters = deque() if waiter is None else deque((waiter,))
        counts = self.counts
        counts.words_total += pushed_words
        counts.backpressure_stalls += waits
        counts.backpressure_ns = reduce(add, waited_ns, counts.backpressure_ns)
        self.stat_queued_words += pushed_words - taken_words
        self.stat_consumed_words += taken_words
        self.stat_pushed_bursts += len(depths)
        self.stat_taken_bursts += taken_bursts
        self.stat_granted_words += granted_words
        self.stat_released_words += released_words
        self._m_depth.observe_many(depths)
        self._m_occupancy.set_many(levels_at, levels)
        if self.monitor is not None:
            for _ in range(ops):
                self.monitor.on_stream_op(self)

    # -- inspection ---------------------------------------------------------------
    def quiet(self, held_words: int) -> bool:
        """True when the stream holds nothing but ``held_words`` of granted
        room, no producer is blocked and its consumer alone waits for the
        next burst."""
        return (
            self.consumer is not None
            and not self._bursts
            and not self._space_waiters
            and self._free_words + held_words == self.fifo_words
            and list(self._takers) == [self.consumer.receive]
        )

    @property
    def queued_bursts(self) -> int:
        return len(self._bursts)

    @property
    def free_words(self) -> int:
        return self._free_words

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<AxiStream {self.name}: {self.fifo_words - self._free_words}"
            f"/{self.fifo_words} words queued>"
        )
