"""Edge cases of the kernel fast path: already-processed resume,
run_until after Deadlock, event accounting, callback entries."""

import pytest

from repro.sim import Deadlock, SchedulingError, SimulationError, Simulator


def test_resume_on_already_processed_event_delivers_value():
    sim = Simulator()
    flag = sim.event()
    got = {}

    def firer(sim):
        yield sim.timeout(1.0)
        flag.succeed("payload")

    def late_waiter(sim):
        yield sim.timeout(50.0)
        got["v"] = yield flag  # fired and processed 49 ns ago

    sim.process(firer(sim))
    sim.process(late_waiter(sim))
    sim.run()
    assert got["v"] == "payload"


def test_resume_on_already_processed_event_same_timestamp():
    sim = Simulator()
    flag = sim.event()
    got = {}

    def late_waiter(sim):
        yield sim.timeout(50.0)
        got["v"] = yield flag
        got["t"] = sim.now

    def firer(sim):
        yield sim.timeout(1.0)
        flag.succeed("go")

    sim.process(late_waiter(sim))
    sim.process(firer(sim))
    sim.run()
    # The resume happens AT the waiter's current time, not later.
    assert got["v"] == "go"
    assert got["t"] == 50.0


def test_resume_on_already_failed_event_raises_into_process():
    sim = Simulator()
    flag = sim.event()
    caught = {}

    def firer(sim):
        yield sim.timeout(1.0)
        flag.fail(RuntimeError("stale failure"))

    def observer(sim):
        # Witness the failure so it does not count as unhandled.
        try:
            yield flag
        except RuntimeError:
            pass

    def late_waiter(sim):
        yield sim.timeout(50.0)
        try:
            yield flag
        except RuntimeError as exc:
            caught["exc"] = str(exc)

    sim.process(firer(sim))
    sim.process(observer(sim))
    sim.process(late_waiter(sim))
    sim.run()
    assert caught["exc"] == "stale failure"


def test_resume_on_finished_process_event():
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


def test_run_until_usable_after_deadlock():
    sim = Simulator()
    got = {}

    def stuck(sim, gate):
        got["v"] = yield gate

    gate = sim.event()
    sim.process(stuck(sim, gate))
    with pytest.raises(Deadlock):
        sim.run()
    # The kernel survives the deadlock: poke the model and drive it again.
    gate.succeed("released")
    done = sim.event()

    def closer(sim):
        yield sim.timeout(1.0)
        done.succeed("done")

    sim.process(closer(sim))
    assert sim.run_until(done) == "done"
    assert got["v"] == "released"


def test_events_processed_counts_resume_entries():
    sim = Simulator()
    flag = sim.event()

    def firer(sim):
        yield sim.timeout(1.0)
        flag.succeed()

    def late_waiter(sim):
        yield sim.timeout(2.0)
        yield flag

    sim.process(firer(sim))
    sim.process(late_waiter(sim))
    sim.run()
    # 2 bootstraps + 2 timeouts + flag + 1 resume + 2 process-end events.
    assert sim.events_processed == 8


def test_timeout_repr_shows_delay():
    sim = Simulator()
    timeout = sim.timeout(12.5)
    assert "timeout(12.5)" in repr(timeout)
    assert timeout.name == ""


def test_yield_non_event_still_rejected():
    sim = Simulator()

    def bad(sim):
        yield 42

    sim.process(bad(sim))
    with pytest.raises(SimulationError):
        sim.run()


def test_call_later_entries_count_and_fire_fifo():
    sim = Simulator()
    calls = []

    def record(tag):
        calls.append((sim.now, tag))

    sim.call_later(5.0, record, "a")
    timeout = sim.timeout(5.0)
    timeout.callbacks.append(lambda _event: calls.append((sim.now, "timeout")))
    sim.call_later(5.0, record, "b")
    sim.call_later(1.0, record, "early")
    sim.run()
    # Equal times fire in scheduling order, timeouts included.
    assert calls == [(1.0, "early"), (5.0, "a"), (5.0, "timeout"), (5.0, "b")]
    assert sim.events_processed == 4


def test_call_later_chains_without_processes_and_rejects_negative_delay():
    sim = Simulator()
    done = sim.event()

    def stage(left):
        if left:
            sim.call_later(10.0, stage, left - 1)
        else:
            done.succeed(sim.now)

    sim.call_later(10.0, stage, 2)
    assert sim.run_until(done) == 30.0
    assert sim.processes_spawned == 0
    assert sim.events_processed == 3  # run_until stops once done triggers
    with pytest.raises(SchedulingError):
        sim.call_later(-1.0, stage, 0)


def test_cancelled_entry_never_runs_or_counts():
    sim = Simulator()
    calls = []
    entries = {
        delay: sim.call_later(delay, calls.append, delay)
        for delay in (1.0, 4.0, 2.0, 3.0)
    }
    sim.cancel(entries[1.0])
    sim.run()
    # The rest still fire in time order: the heap stays a heap.
    assert calls == [2.0, 3.0, 4.0]
    assert sim.events_processed == 3
    assert sim.heap_high_water == 4
    with pytest.raises(SchedulingError):
        sim.cancel(entries[2.0])
    # The cancelled entry is no longer pending: four queued afresh reach
    # the peak again, not past it.
    for delay in (1.0, 2.0, 3.0, 4.0):
        sim.call_later(delay, calls.append, delay)
    assert sim.heap_high_water == 4


def test_run_until_a_timeout_runs_to_its_time():
    sim = Simulator()
    assert sim.run_until(sim.timeout(1000.0, "x")) == "x"
    assert sim.now == 1000.0
    assert sim.events_processed == 1


def test_pending_timeout_refuses_succeed_and_fail():
    sim = Simulator()
    timeout = sim.timeout(10.0)
    with pytest.raises(SchedulingError):
        timeout.succeed(1)
    with pytest.raises(SchedulingError):
        timeout.fail(RuntimeError("early"))


def test_held_entries_run_in_place_only_while_next_in_the_heaps_order():
    """An entry holds two stages under the sequence numbers ``call_later``
    would give them: the first runs in place, the second trails a heap
    entry of its own instant that was queued first, so it is queued."""
    sim = Simulator()
    order = []
    sim.call_later(10.0, order.append, "queued first")

    def stage():
        early = sim.sequence = sim.sequence + 1
        late = sim.sequence = sim.sequence + 1
        sim.call_later(20.0, order.append, "queued while two are held")
        assert sim.heap_high_water == 4  # two heap entries and the two held
        assert sim.enter(5.0, early)
        order.append(("in place", sim.now))
        assert not sim.enter(10.0, late)
        sim.queue_held(10.0, late, order.append, "held")

    sim.call_later(0.0, stage)
    sim.run()
    assert order == [
        ("in place", 5.0),
        "queued first",
        "held",
        "queued while two are held",
    ]
    assert sim.events_processed == 5
    assert sim.heap_high_water == 4


def test_held_entries_stop_at_until_and_in_the_instant_the_target_fires():
    sim = Simulator()
    entered = []

    def stage():
        held = sim.sequence = sim.sequence + 1
        entered.append(sim.enter(7.0, held))
        sim.queue_held(7.0, held, lambda: None)

    sim.call_later(0.0, stage)
    sim.run(until=5.0)
    assert entered == [False] and sim.now == 5.0
    sim.run()

    # The target fires inside an entry: a stage held earlier for the same
    # instant stays queued, as the dispatch returns after that entry.
    target = sim.event()

    def fire():
        held = sim.sequence = sim.sequence + 1
        target.succeed("done")
        entered.append(sim.enter(sim.now, held))
        sim.queue_held(sim.now, held, lambda: None)

    sim.call_later(1.0, fire)
    assert sim.run_until(target) == "done"
    assert entered == [False, False]
    assert sim.peek() == sim.now


def test_held_entries_are_checked_again_once_an_entry_is_queued():
    """Held entries due before the heap's head run in place one after
    another; an entry queued in between is seen by the next one."""
    sim = Simulator()
    order = []
    sim.call_later(10.0, order.append, "queued first")

    def stage():
        first = sim.sequence = sim.sequence + 1
        second = sim.sequence = sim.sequence + 1
        third = sim.sequence = sim.sequence + 1
        assert sim.enter(2.0, first)
        assert sim.enter(4.0, second)
        sim.call_later(2.0, order.append, "queued at 6")
        assert not sim.enter(8.0, third)
        sim.queue_held(8.0, third, order.append, "held")

    sim.call_later(0.0, stage)
    sim.run()
    assert order == ["queued at 6", "held", "queued first"]
    assert sim.events_processed == 6
    assert sim.heap_high_water == 4  # the first heap entry and the three held


def test_held_entries_before_now_are_refused():
    """A held entry due before ``now`` is refused, in place or queued,
    even where the clearance left by an earlier check would admit it;
    the clock, the counts and the heap stay as they were."""
    sim = Simulator()
    sim.call_later(10.0, lambda: None)
    seen = []

    def stage():
        first = sim.sequence = sim.sequence + 1
        late = sim.sequence = sim.sequence + 1
        assert sim.enter(4.0, first)  # clears the way up to 10 ns
        with pytest.raises(SchedulingError, match="in the past"):
            sim.enter(3.0, late)
        with pytest.raises(SchedulingError, match="in the past"):
            sim.queue_held(3.0, late, seen.append, "held")
        seen.append((sim.now, sim.events_processed, len(sim._heap)))
        sim.queue_held(4.0, late, seen.append, "held")  # at now: accepted

    sim.call_later(2.0, stage)
    sim.run()
    assert seen == [(4.0, 2, 1), "held"]
