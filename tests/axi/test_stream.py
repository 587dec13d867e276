"""Tests for the AXI4-Stream link."""

import pytest

from repro.axi import AxiStream, StreamBurst
from repro.sim import Simulator


def test_fifo_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        AxiStream(sim, fifo_words=0)


def test_burst_size_accounting():
    burst = StreamBurst(words=[1, 2, 3], last=True)
    assert burst.size_bytes == 12


def test_reserve_rejects_oversized_burst():
    sim = Simulator()
    stream = AxiStream(sim, fifo_words=16)
    with pytest.raises(ValueError):
        stream.reserve(17)


def test_push_pop_roundtrip():
    sim = Simulator()
    stream = AxiStream(sim, fifo_words=64)
    got = []

    def producer(sim):
        for i in range(3):
            yield stream.reserve(4)
            stream.push(StreamBurst(words=[i] * 4, last=(i == 2)))

    def consumer(sim):
        while True:
            burst = yield stream.pop()
            got.append(burst.words)
            stream.release(len(burst.words))
            if burst.last:
                return

    sim.process(producer(sim))
    sim.process(consumer(sim))
    sim.run()
    assert got == [[0] * 4, [1] * 4, [2] * 4]
    assert stream.total_words == 12
    assert stream.free_words == 64


def test_backpressure_blocks_producer():
    sim = Simulator()
    stream = AxiStream(sim, fifo_words=8)
    marks = {}

    def producer(sim):
        yield stream.reserve(8)
        stream.push(StreamBurst(words=[0] * 8))
        yield stream.reserve(8)  # must wait for the consumer
        marks["second_reserve"] = sim.now
        stream.push(StreamBurst(words=[1] * 8, last=True))

    def consumer(sim):
        burst = yield stream.pop()
        yield sim.timeout(100.0)
        stream.release(len(burst.words))
        burst = yield stream.pop()
        stream.release(len(burst.words))

    sim.process(producer(sim))
    sim.process(consumer(sim))
    sim.run()
    assert marks["second_reserve"] == 100.0


def test_release_overflow_detected():
    sim = Simulator()
    stream = AxiStream(sim, fifo_words=8)
    with pytest.raises(AssertionError):
        stream.release(9)


def test_single_release_drains_waiters_in_fifo_order():
    """One big release wakes every satisfiable waiter, oldest first.

    Regression test for the deque-based drain: the previous list.pop(0)
    implementation was O(n) per waiter; this pins the behaviour (arrival
    order, all drained in one release) the deque must preserve.
    """
    sim = Simulator()
    stream = AxiStream(sim, fifo_words=16)
    order = []

    def producer(sim, tag, words):
        yield stream.reserve(words)
        order.append(tag)
        stream.push(StreamBurst(words=[0] * words))

    def consumer(sim):
        # Absorb the first burst, wait, then release everything at once.
        burst = yield stream.pop()
        yield sim.timeout(50.0)
        stream.release(len(burst.words))
        for _ in range(4):
            burst = yield stream.pop()
            stream.release(len(burst.words))

    sim.process(producer(sim, "first", 16))  # fills the FIFO
    sim.process(producer(sim, "a", 4))
    sim.process(producer(sim, "b", 4))
    sim.process(producer(sim, "c", 4))
    sim.process(producer(sim, "d", 4))
    sim.process(consumer(sim))
    sim.run()
    assert order == ["first", "a", "b", "c", "d"]
    assert stream.free_words == 16


def test_head_of_line_waiter_blocks_smaller_followers():
    """Strict FIFO: a large waiter at the head is not bypassed by a small
    one behind it, even when the small request would fit."""
    sim = Simulator()
    stream = AxiStream(sim, fifo_words=8)
    order = []

    def producer(sim, tag, words):
        yield stream.reserve(words)
        order.append((tag, sim.now))
        stream.push(StreamBurst(words=[0] * words))

    def consumer(sim):
        burst = yield stream.pop()
        yield sim.timeout(10.0)
        stream.release(len(burst.words) // 2)  # 4 words free: not enough for "big"
        yield sim.timeout(10.0)
        stream.release(len(burst.words) - len(burst.words) // 2)
        burst = yield stream.pop()
        stream.release(len(burst.words))
        burst = yield stream.pop()
        stream.release(len(burst.words))

    sim.process(producer(sim, "filler", 8))
    sim.process(producer(sim, "big", 8))
    sim.process(producer(sim, "small", 2))
    sim.process(consumer(sim))
    sim.run()
    # "big" needed the full 8 words (free at t=20); "small" stayed queued
    # behind it despite fitting in the 4 words available at t=10.
    assert order == [("filler", 0.0), ("big", 20.0), ("small", 20.0)]


def test_reserve_fifo_fairness():
    """Space waiters are served in arrival order (no starvation)."""
    sim = Simulator()
    stream = AxiStream(sim, fifo_words=4)
    order = []

    def producer(sim, tag):
        yield stream.reserve(4)
        order.append(tag)
        stream.push(StreamBurst(words=[0] * 4))

    def consumer(sim):
        for _ in range(3):
            burst = yield stream.pop()
            yield sim.timeout(10.0)
            stream.release(len(burst.words))

    sim.process(producer(sim, "a"))
    sim.process(producer(sim, "b"))
    sim.process(producer(sim, "c"))
    sim.process(consumer(sim))
    sim.run()
    assert order == ["a", "b", "c"]


def test_cancel_reserve_returns_granted_space():
    """Regression: tearing down a producer holding granted-but-unpushed
    space must return it, or the FIFO shrinks forever (the DMA-reset
    leak)."""
    sim = Simulator()
    stream = AxiStream(sim, fifo_words=8)
    grant = stream.reserve(8)
    assert grant.triggered
    assert stream.free_words == 0
    stream.cancel_reserve(grant, 8)
    assert stream.free_words == 8


def test_cancel_reserve_removes_queued_waiter():
    sim = Simulator()
    stream = AxiStream(sim, fifo_words=8)
    held = stream.reserve(8)
    assert held.triggered
    waiting = stream.reserve(4)
    assert not waiting.triggered
    stream.cancel_reserve(waiting, 4)
    # The dead waiter must not be woken (and must not eat the space).
    stream.release(8)
    assert not waiting.triggered
    assert stream.free_words == 8
