"""Tests for the runtime invariant monitor."""

from types import SimpleNamespace

import pytest

from repro.axi.stream import AxiStream
from repro.fabric import FirFilterAsp, PassthroughAsp
from repro.resilience import ResilientReconfigurator
from repro.sim import Simulator
from repro.verify import InvariantMonitor, InvariantViolation


# ------------------------------------------------------------- clean runs --
def test_clean_reconfigure_passes_all_probes(system):
    monitor = InvariantMonitor().attach(system)
    asp = FirFilterAsp([1, 2, 3])
    result = system.reconfigure("RP1", asp, freq_mhz=100.0)
    monitor.check_result(system, "RP1", asp, result)
    monitor.check_quiescent(system)
    assert result.succeeded
    assert monitor.ok
    assert monitor.counts.checks > 10_000  # the probes genuinely ran


def test_failure_path_keeps_invariants(system):
    """Over-clocked failure + firmware abort must not break conservation."""
    monitor = InvariantMonitor().attach(system)
    asp = PassthroughAsp()
    result = system.reconfigure("RP2", asp, freq_mhz=400.0)
    monitor.check_result(system, "RP2", asp, result)
    monitor.check_quiescent(system)
    assert not result.succeeded
    assert monitor.ok


def test_attach_registers_verify_metrics(system):
    monitor = InvariantMonitor().attach(system)
    system.reconfigure("RP1", PassthroughAsp(), freq_mhz=100.0)
    assert system.metrics.get("verify.checks").value == monitor.counts.checks
    assert system.metrics.get("verify.violations").value == 0


def test_detach_removes_every_hook(system):
    monitor = InvariantMonitor().attach(system)
    monitor.detach()
    for component in (system.stream, system.dma, system.icap):
        assert component.monitor is None


# --------------------------------------------------------- kernel probes --
def test_lost_wakeup_probe():
    sim = Simulator()
    monitor = InvariantMonitor()
    sim._live_processes = 2  # processes wait, heap empty: a lost wakeup
    with pytest.raises(InvariantViolation, match="no_lost_wakeups"):
        monitor.check_kernel_quiescent(sim)


# --------------------------------------------------------- stream probes --
def test_stream_reservation_leak_detected():
    """A release() that hands back fewer words than it claims trips the
    reservation-accounting probe — the deliberately-broken invariant of
    the acceptance criteria."""
    sim = Simulator()
    stream = AxiStream(sim, fifo_words=16, name="leaky")
    monitor = InvariantMonitor(raise_on_violation=False)
    stream.monitor = monitor
    stream.reserve(8)
    # Sabotage the ledger: pretend one granted word never existed.
    stream.stat_granted_words -= 1
    stream.release(8)
    assert any("reservation" in v for v in monitor.violations)


def test_stream_word_conservation_detected():
    sim = Simulator()
    stream = AxiStream(sim, fifo_words=16, name="lossy")
    monitor = InvariantMonitor(raise_on_violation=False)
    stream.monitor = monitor
    stream.reserve(4)
    stream.stat_queued_words += 3  # phantom words: produced != consumed+queued
    stream.release(4)
    assert any("word_conservation" in v for v in monitor.violations)


# ------------------------------------------------------------ icap probes --
def _icap_stub(busy=True, done=False, aborted=False):
    return SimpleNamespace(
        name="icap",
        busy=SimpleNamespace(value=busy),
        done=SimpleNamespace(value=done),
        aborted=aborted,
    )


def test_icap_write_while_aborted_detected():
    monitor = InvariantMonitor()
    with pytest.raises(InvariantViolation, match="no_write_while_aborted"):
        monitor.on_icap_words(_icap_stub(aborted=True), 101)


def test_icap_busy_done_exclusive():
    monitor = InvariantMonitor()
    with pytest.raises(InvariantViolation, match="busy_done_exclusive"):
        monitor.on_icap_words(_icap_stub(busy=True, done=True), 1)


def test_icap_aborted_latch_lifecycle(system):
    """abort() latches the flag; begin_transfer() re-arms."""
    assert not system.icap.aborted
    system.sim.run_until(
        system.sim.process(system.abort_transfer(), name="test.abort")
    )
    assert system.icap.aborted
    system.icap.begin_transfer()
    assert not system.icap.aborted


# -------------------------------------------------------------- dma probes --
def test_dma_bad_reset_detected():
    monitor = InvariantMonitor()
    engine = SimpleNamespace(
        name="dma",
        idle=False,
        running=True,
        _reservation=None,
        ioc_irq=SimpleNamespace(asserted=False),
    )
    with pytest.raises(InvariantViolation, match="reset_transition"):
        monitor.on_dma_reset(engine)


def test_dma_descriptor_byte_mismatch_detected():
    monitor = InvariantMonitor()
    engine = SimpleNamespace(name="dma", idle=True)
    with pytest.raises(InvariantViolation, match="descriptor_bytes"):
        monitor.on_dma_complete(engine, 1024, 1020)


# ------------------------------------------------------------ memory probe --
def test_golden_frame_mismatch_detected(system):
    monitor = InvariantMonitor(raise_on_violation=False).attach(system)
    asp = PassthroughAsp()
    result = system.reconfigure("RP1", asp, freq_mhz=100.0)
    assert result.succeeded
    # Corrupt after the CRC read-back passed: the monitor must notice
    # that memory no longer matches the golden encoding.
    system.memory.corrupt_region_word("RP1", 7)
    monitor.check_result(system, "RP1", asp, result)
    assert any("memory.golden_frames" in v for v in monitor.violations)


# --------------------------------------------------------- governor probes --
def test_governor_clamp_must_not_rise():
    monitor = InvariantMonitor()
    governor = SimpleNamespace()
    monitor.on_governor_quarantine(governor, "RP1", 4, 300.0)
    with pytest.raises(InvariantViolation, match="clamp_monotonic"):
        monitor.on_governor_quarantine(governor, "RP1", 4, 320.0)
    # A lower floor is fine (tightening), and other buckets are independent.
    monitor2 = InvariantMonitor()
    monitor2.on_governor_quarantine(governor, "RP1", 4, 300.0)
    monitor2.on_governor_quarantine(governor, "RP1", 4, 280.0)
    monitor2.on_governor_quarantine(governor, "RP1", 5, 320.0)
    assert monitor2.ok


def test_governor_authorise_over_grant_detected():
    monitor = InvariantMonitor()
    with pytest.raises(InvariantViolation, match="authorise_clamp"):
        monitor.on_governor_authorise(SimpleNamespace(), "RP1", 200.0, 40.0, 250.0)


def test_recovery_loop_under_monitor(system):
    """A real quarantine-producing recovery run satisfies the probes."""
    monitor = InvariantMonitor().attach(system)
    recoverer = ResilientReconfigurator(system)
    monitor.attach_governor(recoverer.governor)
    outcome = recoverer.reconfigure("RP3", PassthroughAsp(), 400.0)
    monitor.check_quiescent(system)
    assert outcome.attempts_used > 1  # 400 MHz must fail at least once
    assert monitor.ok
