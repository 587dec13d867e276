"""The uncontended burst fast path equals the reference daemon path.

A read that is the only traffic on the memory path runs as kernel
callback entries (``AxiInterconnect.forward_read``); every other read
runs through the crossbar lane and DDR server processes.  Arming no-op
fault hooks forces the daemons without changing any time, because
``forward + max(0.0, 0.0)`` equals ``forward + 0.0``.  Each test runs
the same workload both ways and compares everything the model reports;
only the kernel's event and process counts may differ.
"""

import dataclasses

import pytest

from repro.axi import AxiHpPort, AxiInterconnect
from repro.core import PdrSystem, PdrSystemConfig
from repro.dram import BankDramController, DramDevice
from repro.fabric import FirFilterAsp
from repro.sim import Simulator

#: Kernel statistics: the only registry entries the fast path may move.
_KERNEL_PROBES = (
    "sim.events_processed",
    "sim.heap_high_water",
    "sim.processes_spawned",
)


def _force_reference(interconnect, controller):
    interconnect.fault_stall_ns = lambda: 0.0
    controller.fault_latency_ns = lambda request: 0.0


def _observed(system, results):
    metrics = system.metrics.to_dict()
    for name in _KERNEL_PROBES:
        metrics.pop(name, None)
    device = system.dram_controller.device
    return {
        "results": results,
        "now": system.sim.now,
        "metrics": metrics,
        "ledgers": {
            master: dataclasses.asdict(ledger)
            for master, ledger in system.dram_controller.masters.items()
        },
        "rows": (device.row_hits, device.row_misses, device.row_conflicts),
        "port_bytes": system.hp0.bytes_transferred,
    }


def _run_both(workload, **config):
    """``workload(system)`` on a default and on a forced-reference system."""
    runs = {}
    for forced in (False, True):
        system = PdrSystem(PdrSystemConfig(**config))
        system.set_die_temperature(40.0)
        if forced:
            _force_reference(system.interconnect, system.dram_controller)
        runs[forced] = (system, _observed(system, workload(system)))
    (fast, fast_seen), (reference, reference_seen) = runs[False], runs[True]
    assert fast_seen == reference_seen
    assert fast.sim.events_processed < reference.sim.events_processed
    assert fast.sim.processes_spawned < reference.sim.processes_spawned
    return fast, reference


def _two_loads(freq_mhz):
    def workload(system):
        return [
            system.reconfigure("RP1", FirFilterAsp([1, 2, 3, 4]), freq_mhz),
            system.reconfigure("RP2", FirFilterAsp([5, 6, 7, 8]), freq_mhz),
        ]

    return workload


@pytest.mark.parametrize("freq_mhz", [100.0, 200.0, 320.0])
def test_single_loads_match_reference(freq_mhz):
    fast, reference = _run_both(_two_loads(freq_mhz))
    # Every read after the first one per system takes the fast path:
    # 6 fewer kernel entries per burst and no transaction process.
    saved = reference.sim.processes_spawned - fast.sim.processes_spawned
    assert reference.sim.events_processed - fast.sim.events_processed == 6 * saved


def test_sg_batch_matches_reference():
    def workload(system):
        jobs = [
            ("RP1", FirFilterAsp([1, 2, 3, 4])),
            ("RP2", FirFilterAsp([9, 8, 7, 6])),
        ]
        return system.reconfigure_batch(jobs, 200.0)

    _run_both(workload)


def test_telemetry_off_matches_reference():
    fast, _ = _run_both(_two_loads(200.0), telemetry=False)
    # The stall accounting behind ``device_us`` ran with no probes.
    assert fast.stream.stat_stall_ns > 0.0


# -- late arrivals -------------------------------------------------------------
def _rig(forced):
    sim = Simulator()
    controller = BankDramController(sim, DramDevice())
    interconnect = AxiInterconnect(sim, controller)
    if forced:
        _force_reference(interconnect, controller)
    return sim, interconnect, controller, AxiHpPort(sim, interconnect, name="hp0")


def _late_arrival_run(forced, arrivals):
    """hp0 registers with one read, then issues a second read at 2 us
    (fast unless forced); ``arrivals`` are ``(delay after it, master,
    addr, via)`` reads issued while it is in flight."""
    sim, interconnect, controller, port = _rig(forced)
    done = {}

    def read(name, event):
        value = yield event
        done[name] = (sim.now, value)

    def hp0():
        yield port.read(0x0, 1024)
        yield sim.timeout(2000.0 - sim.now)
        yield sim.process(read("hp0", port.read(0x10000, 1024)))

    def late(delay, master, addr, via):
        yield sim.timeout(2000.0 + delay)
        source = interconnect if via == "crossbar" else controller
        event = source.read(addr, 1024, master=master)
        yield sim.process(read(f"{master}@{delay}", event))

    sim.process(hp0())
    for arrival in arrivals:
        sim.process(late(*arrival))
    sim.run()
    return sim, {
        "done": done,
        "queue_wait_ns": controller.queue_wait_ns,
        "ledgers": {m: dataclasses.asdict(l) for m, l in controller.masters.items()},
        "axi_wait": dict(interconnect.per_master_wait_ns),
        "axi_bytes": dict(interconnect.per_master_bytes),
        "busy_ns": controller.busy_ns,
        "now": sim.now,
        "port_bytes": port.bytes_transferred,
    }


@pytest.mark.parametrize(
    "arrivals",
    [
        # A second master's first read inside hp0's forward window (the
        # burst is forwarded 2000..2160 ns), another inside its DDR
        # service (2160..~2600 ns): both queue behind the fast burst.
        [(50.0, "cpu", 0x40000, "crossbar"), (300.0, "cpu", 0x50000, "crossbar")],
        # hp0's own follow-up read queues behind the lane it holds.
        [(100.0, "hp0", 0x20000, "crossbar")],
        # A master reaching the multiplexer directly inside the forward
        # window keeps the bus: the fast burst queues for the server.
        [(40.0, "dma2", 0x60000, "controller")],
    ],
    ids=["second-master", "same-master", "direct-to-controller"],
)
def test_late_arrivals_queue_exactly_as_behind_the_daemons(arrivals):
    fast_sim, fast = _late_arrival_run(False, arrivals)
    reference_sim, reference = _late_arrival_run(True, arrivals)
    assert fast == reference
    assert fast_sim.processes_spawned < reference_sim.processes_spawned
    # The late arrivals really waited, at the multiplexer or in the lane.
    assert fast["queue_wait_ns"] + sum(fast["axi_wait"].values()) > 0.0
