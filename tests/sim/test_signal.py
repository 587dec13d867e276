"""Tests for signals and interrupt lines."""

import gc
import weakref

import pytest

from repro.sim import InterruptLine, Signal, Simulator


def test_signal_initial_value():
    sim = Simulator()
    signal = Signal(sim, initial=3)
    assert signal.value == 3


def test_set_same_value_is_noop():
    sim = Simulator()
    signal = Signal(sim, initial="a")
    changes = []
    signal.watch(lambda old, new: changes.append((old, new)))
    signal.set("a")
    assert changes == []
    signal.set("b")
    assert changes == [("a", "b")]


def test_wait_for_value():
    sim = Simulator()
    signal = Signal(sim, initial=0, name="state")
    seen = {}

    def waiter(sim):
        value = yield signal.wait_for(2)
        seen["t"] = sim.now
        seen["v"] = value

    def driver(sim):
        yield sim.timeout(5.0)
        signal.set(1)
        yield sim.timeout(5.0)
        signal.set(2)

    sim.process(waiter(sim))
    sim.process(driver(sim))
    sim.run()
    assert seen == {"t": 10.0, "v": 2}


def test_wait_for_already_satisfied():
    sim = Simulator()
    signal = Signal(sim, initial="ready")
    seen = {}

    def waiter(sim):
        yield signal.wait_for("ready")
        seen["t"] = sim.now

    sim.process(waiter(sim))
    sim.run()
    assert seen["t"] == 0.0


def test_wait_until_predicate():
    sim = Simulator()
    signal = Signal(sim, initial=0)
    seen = {}

    def waiter(sim):
        value = yield signal.wait_until(lambda v: v >= 5)
        seen["v"] = value

    def driver(sim):
        for v in (1, 3, 5):
            yield sim.timeout(1.0)
            signal.set(v)

    sim.process(waiter(sim))
    sim.process(driver(sim))
    sim.run()
    assert seen["v"] == 5


def test_watchers_see_every_change_in_order():
    sim = Simulator()
    signal = Signal(sim, initial=0)
    hits = []
    signal.watch(lambda old, new: hits.append(("first", old, new)))
    signal.watch(lambda old, new: hits.append(("second", old, new)))
    signal.set(1)
    signal.set(2)
    assert hits == [
        ("first", 0, 1),
        ("second", 0, 1),
        ("first", 1, 2),
        ("second", 1, 2),
    ]


def test_history_records_changes():
    sim = Simulator()
    signal = Signal(sim, initial=0)
    signal.set(1)
    signal.set(2)
    assert [v for _, v in signal.history] == [0, 1, 2]


def test_interrupt_line_assert_deassert():
    sim = Simulator()
    irq = InterruptLine(sim, name="crc_err")
    assert not irq.asserted
    irq.assert_()
    assert irq.asserted
    assert irq.assert_count == 1
    irq.assert_()  # already high: no new edge
    assert irq.assert_count == 1
    irq.deassert()
    irq.assert_()
    assert irq.assert_count == 2


def test_interrupt_wait_assert_is_edge_triggered():
    sim = Simulator()
    irq = InterruptLine(sim)
    irq.assert_()  # already high before the wait

    seen = {}

    def waiter(sim):
        yield irq.wait_assert()
        seen["t"] = sim.now

    def driver(sim):
        yield sim.timeout(3.0)
        irq.deassert()
        yield sim.timeout(3.0)
        irq.assert_()

    sim.process(waiter(sim))
    sim.process(driver(sim))
    sim.run()
    # The pre-existing high level must NOT satisfy the wait; only the new edge.
    assert seen["t"] == 6.0


def test_interrupt_pulse_wakes_waiter():
    sim = Simulator()
    irq = InterruptLine(sim)
    seen = {}

    def waiter(sim):
        yield irq.wait_assert()
        seen["t"] = sim.now

    def driver(sim):
        yield sim.timeout(2.0)
        irq.pulse()

    sim.process(waiter(sim))
    sim.process(driver(sim))
    sim.run()
    assert seen["t"] == 2.0
    assert not irq.asserted
    assert irq.last_assert_ns == 2.0


def test_wait_assert_edge_before_deadline_fires_true_and_withdraws_it():
    sim = Simulator()
    irq = InterruptLine(sim)
    seen = {}

    def waiter(sim):
        seen["v"] = yield irq.wait_assert(timeout_ns=100.0)
        seen["t"] = sim.now
        seen["next"] = sim.peek()

    sim.process(waiter(sim))
    sim.call_later(30.0, irq.assert_)
    sim.run()
    assert seen == {"v": True, "t": 30.0, "next": float("inf")}
    assert sim.now == 30.0
    # The edge took the waiter off the line: a second edge wakes nothing.
    irq.deassert()
    irq.assert_()
    assert sim.peek() == float("inf")


def test_wait_assert_deadline_first_fires_false_and_leaves_the_line():
    sim = Simulator()
    irq = InterruptLine(sim)
    seen = {}

    def waiter(sim):
        seen["v"] = yield irq.wait_assert(timeout_ns=100.0)
        seen["t"] = sim.now

    sim.process(waiter(sim))
    sim.run()
    assert seen == {"v": False, "t": 100.0}
    # The deadline took the waiter off the line: the edge wakes nothing.
    irq.assert_()
    assert sim.peek() == float("inf")


def test_wait_assert_without_deadline_waits_for_the_edge():
    sim = Simulator()
    irq = InterruptLine(sim)
    wait = irq.wait_assert()
    sim.run()
    assert not wait.triggered
    # The waiter stays on the line until the edge.
    irq.assert_()
    assert sim.peek() == 0.0
    assert sim.run_until(wait) is True
    assert sim.now == 0.0


@pytest.mark.parametrize("edge_ns", [30.0, None], ids=["edge", "deadline"])
def test_a_fired_deadline_wait_holds_no_cycle(edge_ns):
    """With the cyclic collector off, dropping the last references to a
    finished wait frees its simulator at once."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        sim = Simulator()
        irq = InterruptLine(sim)
        wait = irq.wait_assert(timeout_ns=100.0)
        if edge_ns is not None:
            sim.call_later(edge_ns, irq.assert_)
        sim.run()
        assert wait.value is (edge_ns is not None)
        freed = weakref.ref(sim)
        del sim, irq, wait
        assert freed() is None
    finally:
        if enabled:
            gc.enable()
