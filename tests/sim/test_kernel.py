"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import (
    Deadlock,
    Event,
    SchedulingError,
    SimulationError,
    Simulator,
)


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.now_us == 0.0
    assert sim.now_s == 0.0


def test_timeout_advances_time():
    sim = Simulator()
    done = {}

    def proc(sim):
        yield sim.timeout(25.0)
        done["t"] = sim.now

    sim.process(proc(sim))
    sim.run()
    assert done["t"] == 25.0
    assert sim.now == 25.0


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SchedulingError):
        sim.timeout(-1.0)


def test_timeout_value_passthrough():
    sim = Simulator()
    got = {}

    def proc(sim):
        got["v"] = yield sim.timeout(1.0, value="payload")

    sim.process(proc(sim))
    sim.run()
    assert got["v"] == "payload"


def test_events_same_time_fire_fifo():
    sim = Simulator()
    order = []

    def proc(sim, tag):
        yield sim.timeout(10.0)
        order.append(tag)

    for tag in range(5):
        sim.process(proc(sim, tag))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []

    def proc(sim, delay, tag):
        yield sim.timeout(delay)
        order.append(tag)

    sim.process(proc(sim, 30.0, "c"))
    sim.process(proc(sim, 10.0, "a"))
    sim.process(proc(sim, 20.0, "b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_run_until_event_returns_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(5.0)
        return 42

    process = sim.process(proc(sim))
    assert sim.run_until(process) == 42


def test_run_until_absolute_time_stops_early():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(100.0)

    sim.process(proc(sim))
    sim.run(until=40.0)
    assert sim.now == 40.0


def test_process_waits_for_process():
    sim = Simulator()
    trail = []

    def child(sim):
        yield sim.timeout(10.0)
        trail.append("child")
        return "result"

    def parent(sim):
        value = yield sim.process(child(sim))
        trail.append(f"parent:{value}")

    sim.process(parent(sim))
    sim.run()
    assert trail == ["child", "parent:result"]


def test_waiting_on_already_finished_process():
    sim = Simulator()
    got = {}

    def child(sim):
        yield sim.timeout(1.0)
        return "early"

    def parent(sim, process):
        yield sim.timeout(50.0)
        got["v"] = yield process

    child_process = sim.process(child(sim))
    sim.process(parent(sim, child_process))
    sim.run()
    assert got["v"] == "early"


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    flag = sim.event()
    got = {}

    def waiter(sim):
        got["v"] = yield flag

    def firer(sim):
        yield sim.timeout(7.0)
        flag.succeed("go")

    sim.process(waiter(sim))
    sim.process(firer(sim))
    sim.run()
    assert got["v"] == "go"


def test_event_double_trigger_rejected():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SchedulingError):
        event.succeed(2)
    with pytest.raises(SchedulingError):
        event.fail(RuntimeError("nope"))


def test_event_fail_propagates_into_waiter():
    sim = Simulator()
    flag = sim.event()
    caught = {}

    def waiter(sim):
        try:
            yield flag
        except RuntimeError as exc:
            caught["e"] = str(exc)

    def firer(sim):
        yield sim.timeout(1.0)
        flag.fail(RuntimeError("bus error"))

    sim.process(waiter(sim))
    sim.process(firer(sim))
    sim.run()
    assert caught["e"] == "bus error"


def test_fail_requires_exception():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_unhandled_process_exception_surfaces():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise ValueError("model bug")

    sim.process(bad(sim))
    with pytest.raises(ValueError, match="model bug"):
        sim.run()


def test_all_same_timestamp_failures_are_retained():
    """One failing event kills several waiters: the first death raises,
    every casualty stays inspectable in ``unhandled_failures``."""
    sim = Simulator()
    flag = sim.event()

    def doomed(sim):
        yield flag  # flag fails -> uncaught -> process dies

    def firer(sim):
        yield sim.timeout(1.0)
        flag.fail(ValueError("bus error"))

    processes = [sim.process(doomed(sim)) for _ in range(3)]
    sim.process(firer(sim))
    with pytest.raises(ValueError, match="bus error"):
        sim.run()
    assert sim.unhandled_failures == processes
    assert all(str(p._exc) == "bus error" for p in sim.unhandled_failures)


def test_kernel_telemetry_counters():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        yield sim.timeout(2.0)

    for _ in range(4):
        sim.process(proc(sim))
    sim.run()
    assert sim.processes_spawned == 4
    assert sim.events_processed > 0
    assert sim.heap_high_water >= 4


def test_handled_process_exception_via_waiter():
    sim = Simulator()
    caught = {}

    def bad(sim):
        yield sim.timeout(1.0)
        raise ValueError("expected")

    def parent(sim):
        try:
            yield sim.process(bad(sim))
        except ValueError as exc:
            caught["e"] = str(exc)

    sim.process(parent(sim))
    sim.run()
    assert caught["e"] == "expected"


def test_deadlock_detected():
    sim = Simulator()

    def stuck(sim):
        yield sim.event()  # never triggered

    sim.process(stuck(sim))
    with pytest.raises(Deadlock):
        sim.run()


def test_yield_non_event_is_error():
    sim = Simulator()

    def bad(sim):
        yield 42

    sim.process(bad(sim))
    with pytest.raises(SimulationError, match="must"):
        sim.run()


def test_peek_reports_next_event_time():
    sim = Simulator()
    sim.timeout(30.0)
    assert sim.peek() == 30.0


def test_peek_empty_heap_is_inf():
    sim = Simulator()
    assert sim.peek() == float("inf")


def test_nested_process_chain():
    sim = Simulator()

    def leaf(sim, n):
        yield sim.timeout(float(n))
        return n * 2

    def mid(sim, n):
        value = yield sim.process(leaf(sim, n))
        return value + 1

    def root(sim):
        total = 0
        for n in range(1, 4):
            total += yield sim.process(mid(sim, n))
        return total

    process = sim.process(root(sim))
    assert sim.run_until(process) == (2 + 1) + (4 + 1) + (6 + 1)


def test_many_processes_scale():
    sim = Simulator()
    counter = {"n": 0}

    def proc(sim, delay):
        yield sim.timeout(delay)
        counter["n"] += 1

    for i in range(1000):
        sim.process(proc(sim, float(i % 17) + 1.0))
    sim.run()
    assert counter["n"] == 1000
