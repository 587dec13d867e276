"""Per-kind delivery tests for the chaos injector.

Each test builds a hand-written :class:`FaultPlan` (one fault, known
magnitude) so the delivery mechanics are exercised in isolation from the
seeded plan generator.
"""

import pytest

from repro.axi import AxiSlaveError
from repro.chaos import ChaosInjector, Fault, FaultPlan
from repro.core import PdrSystem
from repro.fabric import FirFilterAsp
from repro.resilience import ResilientReconfigurator

WORKLOAD = FirFilterAsp([3, 1, 4])


def plan_of(*faults):
    return FaultPlan(fault_seed=0, horizon_us=1e6, faults=tuple(faults))


def drain_to(system, at_ns):
    if system.sim.now < at_ns:
        system.sim.run(until=at_ns)


# ------------------------------------------------------------------ lifecycle
def test_arm_installs_and_disarm_removes_hooks(system):
    injector = ChaosInjector(system, plan_of())
    assert system.dram_controller.fault_latency_ns is None
    injector.arm()
    assert system.dram_controller.fault_latency_ns is not None
    assert system.dram_controller.fault_read_tamper is not None
    assert system.interconnect.fault_stall_ns is not None
    assert system.interconnect.fault_error is not None
    assert system.icap.fault_lockup_cycles is not None
    injector.disarm()
    assert system.dram_controller.fault_latency_ns is None
    assert system.interconnect.fault_error is None
    assert system.icap.fault_lockup_cycles is None


def test_double_arm_rejected(system):
    injector = ChaosInjector(system, plan_of())
    injector.arm()
    with pytest.raises(RuntimeError):
        injector.arm()
    with pytest.raises(RuntimeError):
        ChaosInjector(system, plan_of()).arm()  # hooks already taken


# ------------------------------------------------------------------ transients
def test_dram_bitflip_tampers_exactly_count_reads(system):
    fault = Fault(
        "dram_bitflip", 1.0, (("count", 1), ("flip_mask", 1 << 7))
    )
    injector = ChaosInjector(system, plan_of(fault))
    injector.arm()
    system.dram.store(0x100, bytes(16))
    drain_to(system, 10_000.0)

    tampered = system.sim.run_until(system.interconnect.read(0x100, 16))
    word0 = int.from_bytes(tampered[:4], "big")
    assert word0 == 1 << 7
    assert tampered[4:] == bytes(12)

    # The budget (count=1) is consumed: the next read is clean.
    clean = system.sim.run_until(system.interconnect.read(0x100, 16))
    assert clean == bytes(16)
    event = injector.events[0]
    assert event["applications"] == 1
    assert event["recovered_ns"] is not None
    assert system.metrics.get("chaos.injected.dram_bitflip").value == 1


def test_dram_latency_window_slows_reads(system):
    fault = Fault(
        "dram_latency",
        1.0,
        (("extra_ns", 5_000.0), ("window_us", 100.0)),
    )
    injector = ChaosInjector(system, plan_of(fault))
    injector.arm()
    system.dram.store(0x100, bytes(16))
    drain_to(system, 10_000.0)

    start = system.sim.now
    system.sim.run_until(system.interconnect.read(0x100, 16))
    slow_ns = system.sim.now - start

    drain_to(system, 200_000.0)  # window expired
    start = system.sim.now
    system.sim.run_until(system.interconnect.read(0x100, 16))
    fast_ns = system.sim.now - start
    assert slow_ns >= fast_ns + 5_000.0
    assert injector.events[0]["recovered_ns"] == pytest.approx(101_000.0)


def test_axi_slverr_recovered_by_retry_ladder(system):
    fault = Fault("axi_slverr", 1.0, (("count", 1),))
    injector = ChaosInjector(system, plan_of(fault))
    injector.arm()
    drain_to(system, 10_000.0)

    recoverer = ResilientReconfigurator(system)
    outcome = recoverer.reconfigure("RP1", WORKLOAD, 100.0)
    # First attempt eats the SLVERR (DMA halts, IRQ timeout), retry wins.
    assert outcome.injected_failure
    assert outcome.recovered
    assert system.dma.counts.axi_errors == 1
    assert system.dma.idle and not system.icap.busy.value
    assert injector.events[0]["applications"] == 1


def test_icap_lockup_stretches_but_completes(system):
    fault = Fault(
        "icap_lockup", 1.0, (("bursts", 1), ("cycles", 100_000))
    )
    injector = ChaosInjector(system, plan_of(fault))
    injector.arm()
    drain_to(system, 10_000.0)

    result = system.reconfigure("RP1", WORKLOAD, 100.0)
    assert result.succeeded  # backpressure, not data loss
    assert system.metrics.get("icap.lockup_cycles").value == 100_000
    assert injector.events[0]["applications"] == 1


# ------------------------------------------------------------ clocking / power
def test_clock_loss_of_lock_recovers(system):
    assert system.reconfigure("RP1", WORKLOAD, 200.0).succeeded
    fault = Fault("clock_loss_of_lock", system.sim.now / 1e3 + 1.0, ())
    injector = ChaosInjector(system, plan_of(fault))
    injector.arm()
    drain_to(system, system.sim.now + 2_000.0)

    assert system.clock_wizard.lock_losses == 1
    assert not system.clock_wizard.locked
    # MMCM re-acquires after lock_time; the domain frequency comes back.
    drain_to(
        system,
        system.sim.now + system.clock_wizard.constraints.lock_time_us * 1e3 + 1e3,
    )
    assert system.clock_wizard.locked
    assert system.overclock.freq_mhz == pytest.approx(200.0)
    assert injector.events[0]["recovered_ns"] is not None


def test_brownout_clamps_firmware_requests(system):
    fault = Fault(
        "brownout",
        1.0,
        (("ceiling_mhz", 120.0), ("duration_us", 50_000.0)),
    )
    injector = ChaosInjector(system, plan_of(fault))
    injector.arm()
    drain_to(system, 10_000.0)

    assert system.supply.browned_out
    result = system.reconfigure("RP1", WORKLOAD, 300.0)
    assert result.freq_mhz <= 120.0 + 1e-9
    assert system.metrics.get("power.brownout_clamps").value == 1

    drain_to(system, 51_000.0 * 1e3)  # droop expired (50 ms window)
    assert not system.supply.browned_out
    assert injector.events[0]["recovered_ns"] is not None


# ------------------------------------------------------------------------ SEU
def test_seu_waits_for_golden_content_then_corrupts(system):
    fault = Fault(
        "seu",
        1.0,
        (("flip_mask", 1 << 3), ("offset_words", 2_222), ("region", "RP2")),
    )
    injector = ChaosInjector(system, plan_of(fault))
    injector.arm()
    # No golden CRC for RP2 yet: the delivery stays gated.
    drain_to(system, 500_000.0)
    assert injector.events[0]["injected_ns"] is None

    assert system.reconfigure("RP2", WORKLOAD, 100.0).succeeded
    drain_to(system, system.sim.now + 200_000.0)
    event = injector.events[0]
    assert event["injected_ns"] is not None
    assert event["region"] == "RP2"

    # The flip is real: a scrub pass over RP2 now fails CRC.
    scrub = system.sim.run_until(
        system.sim.process(system.scrubber.scrub_region_once("RP2"))
    )
    assert not scrub.ok
    assert system.metrics.get("chaos.injected.seu").value == 1


def test_injected_count_summary(system):
    faults = (
        Fault("axi_slverr", 1.0, (("count", 1),)),
        Fault("brownout", 2.0, (("ceiling_mhz", 120.0), ("duration_us", 10.0))),
    )
    injector = ChaosInjector(system, plan_of(*faults))
    injector.arm()
    drain_to(system, 10_000.0)
    assert injector.injected_count == 2
    assert injector.injected_by_kind() == {"axi_slverr": 1, "brownout": 1}
    assert system.metrics.get("chaos.faults_injected").value == 2
