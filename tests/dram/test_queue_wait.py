"""Regression tests for DRAM queue-wait accounting.

``MemoryRequest.submitted_ns`` used to be stamped and never read — the
time a request spent queued behind other masters was invisible.  The
controller now publishes it: the interval from submission to the start
of service accumulates into ``counts.queue_wait_ns`` (exported as the
``<name>.queue_wait_ns`` metric) and the per-master ledgers.  A solo
closed-loop master never waits; two contending masters must.
"""

import pytest

from repro.dram import BankDramController, DramDevice
from repro.sim import Simulator


def _drive_masters(controller, sim, masters, bursts=8, size=1024):
    def master(sim, name):
        for index in range(bursts):
            yield controller.read(index * size, size, master=name)

    for name in masters:
        sim.process(master(sim, name))
    sim.run()


@pytest.mark.parametrize("make", [BankDramController])
def test_solo_master_never_queue_waits(make):
    sim = Simulator()
    controller = make(sim, DramDevice())
    _drive_masters(controller, sim, ["solo"])
    assert controller.counts.queue_wait_ns == 0.0
    assert controller.masters["solo"].wait_ns == 0.0


@pytest.mark.parametrize("make", [BankDramController])
def test_contended_masters_accumulate_nonzero_queue_wait(make):
    sim = Simulator()
    controller = make(sim, DramDevice())
    _drive_masters(controller, sim, ["a", "b"])
    # Both masters submit at t=0 every round: the loser of each round
    # waits out the winner's full service time.
    assert controller.counts.queue_wait_ns > 0.0
    assert controller.masters["a"].wait_ns + controller.masters["b"].wait_ns == \
        pytest.approx(controller.counts.queue_wait_ns)
    name = controller.name
    metric = controller.metrics.to_dict()[f"{name}.queue_wait_ns"]
    assert metric["value"] == pytest.approx(controller.counts.queue_wait_ns)


@pytest.mark.parametrize("make", [BankDramController])
def test_queue_wait_scales_with_contention(make):
    def total_wait(master_count):
        sim = Simulator()
        controller = make(sim, DramDevice())
        _drive_masters(controller, sim, [f"m{i}" for i in range(master_count)])
        return controller.counts.queue_wait_ns

    assert total_wait(1) == 0.0
    assert 0.0 < total_wait(2) < total_wait(4)


def test_system_probe_exposes_queue_wait():
    from repro.core import PdrSystem

    system = PdrSystem()
    snapshot = system.metrics.to_dict()
    assert "ddrc.queue_wait_ns" in snapshot
