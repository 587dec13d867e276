"""Tests for the CRC read-back scrubber."""

import pytest

from repro.bitstream import crc32c_words, make_z7020_layout
from repro.crccheck import CrcScrubber
from repro.fabric import ConfigMemory, FirFilterAsp, encode_asp_frames
from repro.sim import ClockDomain, Signal, Simulator


@pytest.fixture()
def rig():
    sim = Simulator()
    layout = make_z7020_layout()
    memory = ConfigMemory(layout)
    clock = ClockDomain(sim, 100.0)
    scrubber = CrcScrubber(sim, clock, memory)
    return sim, memory, scrubber


def _configure(memory, region, taps):
    frames = encode_asp_frames(
        memory.layout.region_frame_count(region), FirFilterAsp(taps)
    )
    memory.write_region(region, frames)
    return crc32c_words(w for frame in frames for w in frame)


def test_requires_expected_crc(rig):
    _sim, _memory, scrubber = rig
    with pytest.raises(KeyError):
        scrubber.scrub_region_once("RP1")


def test_expected_crc_region_validated(rig):
    _sim, _memory, scrubber = rig
    with pytest.raises(KeyError):
        scrubber.set_expected_crc("RP99", 0)


def test_clean_pass(rig):
    sim, memory, scrubber = rig
    crc = _configure(memory, "RP1", [1, 2, 3])
    scrubber.set_expected_crc("RP1", crc)
    process = sim.process(scrubber.scrub_region_once("RP1"))
    result = sim.run_until(process)
    assert result.ok
    assert scrubber.counts.scrubs_run == 1
    assert scrubber.counts.mismatches == 0
    assert not scrubber.error_irq.asserted


def test_corruption_detected_and_irq_asserted(rig):
    sim, memory, scrubber = rig
    crc = _configure(memory, "RP1", [1, 2, 3])
    scrubber.set_expected_crc("RP1", crc)
    memory.corrupt_region_word("RP1", 54_321, flip_mask=0x20)
    process = sim.process(scrubber.scrub_region_once("RP1"))
    result = sim.run_until(process)
    assert not result.ok
    assert scrubber.counts.mismatches == 1
    assert scrubber.error_irq.asserted


def test_pass_duration_scales_with_clock(rig):
    sim, memory, scrubber = rig
    crc = _configure(memory, "RP2", [5])
    scrubber.set_expected_crc("RP2", crc)

    start = sim.now
    sim.run_until(sim.process(scrubber.scrub_region_once("RP2")))
    slow = sim.now - start

    scrubber.clock.set_frequency(200.0)
    start = sim.now
    sim.run_until(sim.process(scrubber.scrub_region_once("RP2")))
    fast = sim.now - start
    assert fast == pytest.approx(slow / 2, rel=0.01)
    assert slow == pytest.approx(scrubber.pass_time_ns("RP2") * 2, rel=0.01)


def test_scrub_pauses_while_icap_busy():
    sim = Simulator()
    layout = make_z7020_layout()
    memory = ConfigMemory(layout)
    clock = ClockDomain(sim, 100.0)
    busy = Signal(sim, initial=True, name="icap.busy")
    scrubber = CrcScrubber(sim, clock, memory, busy_gate=busy)
    crc = crc32c_words(memory.iter_region_words("RP1"))
    scrubber.set_expected_crc("RP1", crc)

    def release(sim):
        yield sim.timeout(5000.0)
        busy.set(False)

    sim.process(release(sim))
    process = sim.process(scrubber.scrub_region_once("RP1"))
    result = sim.run_until(process)
    assert result.ok
    assert result.at_ns > 5000.0  # could not finish before the gate opened


def test_continuous_loop_detects_later_corruption(rig):
    sim, memory, scrubber = rig
    crc = _configure(memory, "RP3", [7, 8])
    scrubber.set_expected_crc("RP3", crc)
    scrubber.start()

    def corrupt_later(sim):
        yield sim.timeout(3e6)
        memory.corrupt_region_word("RP3", 99, flip_mask=0x2)

    sim.process(corrupt_later(sim))
    sim.run_until(scrubber.error_irq.wait_assert())
    assert scrubber.counts.mismatches >= 1
    assert sim.now > 3e6
    scrubber.stop()


def test_start_is_idempotent(rig):
    _sim, _memory, scrubber = rig
    scrubber.start()
    first = scrubber._process
    scrubber.start()
    assert scrubber._process is first
    scrubber.stop()
