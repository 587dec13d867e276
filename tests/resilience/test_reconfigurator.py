"""Tests for the resilient reconfigurator (retry + scrub-repair loops)."""

import pytest

from repro.axi import AxiSlaveError
from repro.fabric import FirFilterAsp
from repro.resilience import (
    FrequencyGovernor,
    RecoveryPolicy,
    ResilientReconfigurator,
    detect_modes,
)
from repro.timing import FailureMode

WORKLOAD = FirFilterAsp([3, 1, 4, 1, 5])


@pytest.fixture()
def reconfigurator(system):
    return ResilientReconfigurator(system)


def test_in_spec_transfer_succeeds_first_try(reconfigurator):
    outcome = reconfigurator.reconfigure("RP2", WORKLOAD, 100.0)
    assert outcome.recovered
    assert not outcome.injected_failure
    assert outcome.attempts_used == 1
    assert outcome.recovery_latency_us is None


def test_irq_timeout_recovers_with_backoff(system, reconfigurator):
    # 320 MHz at 40 C violates the control path: no completion interrupt.
    system.set_die_temperature(40.0)
    outcome = reconfigurator.reconfigure("RP2", WORKLOAD, 320.0)
    assert outcome.injected_failure
    assert FailureMode.CONTROL_HANG in outcome.first_failure_modes
    assert outcome.recovered
    assert outcome.attempts_used > 1
    assert outcome.final_freq_mhz < 320.0
    assert outcome.recovery_latency_us > 0
    # After the abort-and-retry loop the engines are quiescent.
    assert system.dma.idle
    assert not system.icap.busy.value
    # And the region really holds the new design.
    assert system.run_asp("RP2", [1, 0, 0, 0, 0]) == [3, 1, 4, 1, 5]


def test_recovery_metrics_counted(system, reconfigurator):
    system.set_die_temperature(100.0)
    reconfigurator.reconfigure("RP2", WORKLOAD, 360.0)
    metrics = system.metrics
    assert metrics.get("resilience.failures_detected").value >= 1
    assert metrics.get("resilience.recoveries").value == 1
    assert metrics.get("resilience.retries").value >= 1
    assert metrics.get("resilience.backoffs").value >= 1
    assert metrics.get("resilience.time_to_repair_us").count == 1
    assert metrics.get("resilience.giveups").value == 0


def test_budget_exhaustion_reported(system):
    # One attempt, no backoff headroom: the violation cannot clear.
    policy = RecoveryPolicy(max_attempts=1)
    reconfigurator = ResilientReconfigurator(system, policy=policy)
    system.set_die_temperature(100.0)
    outcome = reconfigurator.reconfigure("RP2", WORKLOAD, 360.0)
    assert outcome.injected_failure
    assert not outcome.recovered
    assert outcome.final_freq_mhz is None
    assert system.metrics.get("resilience.giveups").value == 1
    # Even a failed loop leaves the engines quiescent.
    assert system.dma.idle
    assert not system.icap.busy.value


def test_governor_learns_from_the_loop(system, reconfigurator):
    system.set_die_temperature(100.0)
    outcome = reconfigurator.reconfigure("RP2", WORKLOAD, 360.0)
    governor = reconfigurator.governor
    assert governor.safe_fmax_mhz("RP2") == pytest.approx(outcome.final_freq_mhz)
    # The second identical request fails the same rungs again, pushing
    # their streaks past the quarantine threshold.
    second = reconfigurator.reconfigure("RP2", WORKLOAD, 360.0)
    assert second.recovered
    assert second.newly_quarantined >= 1
    # By the third request the governor clamps straight to the learned
    # safe frequency and the loop collapses to a single attempt.
    third = reconfigurator.reconfigure("RP2", WORKLOAD, 360.0)
    assert third.governor_clamped
    assert third.attempts_used == 1
    assert third.recovered
    assert third.final_freq_mhz < second.final_freq_mhz + 1.0


def test_detect_modes_uses_observables_only(system):
    system.set_die_temperature(40.0)
    result = system.reconfigure("RP2", WORKLOAD, 310.0)
    # 310 MHz at 40 C: control path violated, data path still intact.
    assert detect_modes(result) == (FailureMode.CONTROL_HANG,)
    result = system.reconfigure("RP2", WORKLOAD, 100.0)
    assert detect_modes(result) == ()


def test_scrub_mismatch_triggers_golden_repair(system, reconfigurator):
    reconfigurator.attach_scrubber()
    assert reconfigurator.reconfigure("RP2", WORKLOAD, 100.0).recovered

    # Soft-error upset: flip a configuration bit behind the firmware's back.
    system.memory.corrupt_region_word("RP2", 12_345, flip_mask=0x4)
    scrub = system.sim.run_until(
        system.sim.process(system.scrubber.scrub_region_once("RP2"))
    )
    assert not scrub.ok
    assert reconfigurator.pending_repairs == ["RP2"]

    outcomes = reconfigurator.repair_pending()
    assert len(outcomes) == 1
    assert outcomes[0].recovered
    assert reconfigurator.pending_repairs == []
    assert system.metrics.get("resilience.scrub_repairs").value == 1

    # The re-written region passes a fresh scrub pass.
    scrub = system.sim.run_until(
        system.sim.process(system.scrubber.scrub_region_once("RP2"))
    )
    assert scrub.ok
    assert system.run_asp("RP2", [1, 0, 0, 0, 0]) == [3, 1, 4, 1, 5]


def test_repair_without_golden_content_raises(system, reconfigurator):
    reconfigurator.pending_repairs.append("RP1")
    with pytest.raises(KeyError):
        reconfigurator.repair_pending()


def test_repair_runs_at_safe_frequency(system, reconfigurator):
    reconfigurator.attach_scrubber()
    reconfigurator.reconfigure("RP2", WORKLOAD, 250.0)
    system.memory.corrupt_region_word("RP2", 99, flip_mask=0x1)
    system.sim.run_until(
        system.sim.process(system.scrubber.scrub_region_once("RP2"))
    )
    outcomes = reconfigurator.repair_pending()
    # The repair reuses the learned safe frequency, not some default.
    assert outcomes[0].attempts[0].requested_mhz == pytest.approx(250.0, rel=0.05)


def test_custom_governor_is_used(system):
    governor = FrequencyGovernor(quarantine_after=1)
    reconfigurator = ResilientReconfigurator(system, governor=governor)
    assert reconfigurator.governor is governor


def test_batch_in_spec_recovers_first_pass(system, reconfigurator):
    jobs = [("RP1", FirFilterAsp([1, 2, 3])), ("RP2", WORKLOAD)]
    outcome = reconfigurator.reconfigure_batch(jobs, 100.0)
    assert outcome.recovered
    assert outcome.region_ok == {"RP1": True, "RP2": True}
    assert outcome.recoveries == {}
    assert outcome.attempts_used == 2  # one chain verdict per region
    assert outcome.latency_us > 0
    # Both regions really hold their new designs.
    assert system.run_asp("RP2", [1, 0, 0, 0, 0]) == [3, 1, 4, 1, 5]


def test_batch_failure_falls_back_to_per_region_recovery(system, reconfigurator):
    # 320 MHz at 40 C corrupts the data path: the chain's CRCs fail and
    # each invalid region re-drives through the individual retry loop.
    system.set_die_temperature(40.0)
    jobs = [("RP1", FirFilterAsp([1, 2, 3])), ("RP2", WORKLOAD)]
    outcome = reconfigurator.reconfigure_batch(jobs, 320.0)
    assert outcome.recovered
    assert outcome.recoveries  # at least one region needed the loop
    for recovery in outcome.recoveries.values():
        assert recovery.recovered
    assert outcome.attempts_used > len(jobs)
    assert system.run_asp("RP2", [1, 0, 0, 0, 0]) == [3, 1, 4, 1, 5]


def test_batch_recovers_both_regions_after_a_descriptor_slverr(system, reconfigurator):
    # An error response on the head descriptor's read halts the chain:
    # the interrupt is lost, and both regions go through the retry loop.
    armed = [True]

    def fault_error(kind, addr, size):
        if armed[0] and kind == "r" and addr == 0x0F00_0000 and size == 32:
            armed[0] = False
            return AxiSlaveError("injected SLVERR on the head descriptor")
        return None

    system.interconnect.fault_error = fault_error
    jobs = [("RP1", FirFilterAsp([2, 7, 1, 8])), ("RP2", WORKLOAD)]
    try:
        outcome = reconfigurator.reconfigure_batch(jobs, 200.0)
    finally:
        system.interconnect.fault_error = None
    assert not armed[0]
    assert outcome.recovered
    assert sorted(outcome.recoveries) == ["RP1", "RP2"]
    for recovery in outcome.recoveries.values():
        assert recovery.recovered
    assert system.run_asp("RP2", [1, 0, 0, 0, 0]) == [3, 1, 4, 1, 5]
