"""Tests for scatter-gather descriptors and batch reconfiguration."""

import struct

import pytest

from repro.axi import AxiSlaveError
from repro.core import PdrSystem
from repro.dma import (
    DMACR_IOC_IRQ_EN,
    DMACR_RS,
    DMASR_DMA_INT_ERR,
    DMASR_HALTED,
    DMASR_IDLE,
    MM2S_DMACR,
    MM2S_DMASR,
    SgDescriptor,
    write_descriptor_chain,
)
from repro.dma.descriptors import CTRL_EOF
from repro.fabric import Aes128Asp, FirFilterAsp, MatMulAsp


def test_descriptor_validation():
    with pytest.raises(ValueError):
        SgDescriptor(buffer_addr=0, length=0)
    with pytest.raises(ValueError):
        SgDescriptor(buffer_addr=0, length=1 << 27)
    # The MM2S engine moves whole 32-bit words.
    with pytest.raises(ValueError, match="2302"):
        SgDescriptor(buffer_addr=0, length=2302)


def test_chain_layout_in_dram():
    from repro.dram import DramDevice

    dram = DramDevice()
    descriptors = [
        SgDescriptor(buffer_addr=0x1000, length=256),
        SgDescriptor(buffer_addr=0x2000, length=512),
    ]
    head = write_descriptor_chain(dram, 0x8000, descriptors)
    assert head == 0x8000
    first = dram.load(0x8000, 32)
    # NXTDESC points at the second descriptor.
    assert int.from_bytes(first[0:4], "big") == 0x8020
    assert int.from_bytes(first[8:12], "big") == 0x1000
    control = int.from_bytes(first[24:28], "big")
    assert control & (1 << 27)  # SOF on the head
    second = dram.load(0x8020, 32)
    assert int.from_bytes(second[24:28], "big") & (1 << 26)  # EOF on the tail


def test_chain_validation():
    from repro.dram import DramDevice

    dram = DramDevice()
    with pytest.raises(ValueError):
        write_descriptor_chain(dram, 0x8000, [])
    with pytest.raises(ValueError):
        write_descriptor_chain(
            dram, 0x8001, [SgDescriptor(buffer_addr=0, length=4)]
        )


@pytest.fixture(scope="module")
def system():
    return PdrSystem()


def test_batch_reconfigures_every_region(system):
    jobs = [
        ("RP1", FirFilterAsp([1, 2])),
        ("RP2", Aes128Asp([1, 2, 3, 4])),
        ("RP3", MatMulAsp(2)),
    ]
    batch = system.reconfigure_batch(jobs, 200.0)
    assert batch.load.crc_valid
    assert sorted(batch.region_valid) == ["RP1", "RP2", "RP3"]
    assert batch.load.bitstream_bytes == 3 * 528_760
    # All three regions are functional afterwards.
    assert system.run_asp("RP1", [1, 0]) == [1, 2]
    assert len(system.run_asp("RP2", [0, 0, 0, 0])) == 4
    assert system.run_asp("RP3", [1, 0, 0, 1, 5, 6, 7, 8]) == [5, 6, 7, 8]


def test_batch_throughput_matches_single(system):
    """Back-to-back chain sustains the single-transfer rate."""
    single = system.reconfigure("RP4", FirFilterAsp([9]), 200.0)
    batch = system.reconfigure_batch(
        [("RP1", FirFilterAsp([5])), ("RP2", FirFilterAsp([6]))], 200.0
    )
    assert batch.load.throughput_mb_s == pytest.approx(
        single.throughput_mb_s, rel=0.01
    )


def test_batch_writes_back_completion_status(system):
    system.reconfigure_batch([("RP1", FirFilterAsp([3]))], 180.0)
    # The head descriptor's STATUS word carries the completed bit.
    status = int.from_bytes(system.dram.load(0x0F00_0000 + 28, 4), "big")
    assert status & (1 << 31)


def test_batch_validation(system):
    with pytest.raises(ValueError):
        system.reconfigure_batch([], 200.0)
    with pytest.raises(KeyError):
        system.reconfigure_batch([("RP9", FirFilterAsp([1]))], 200.0)


def test_batch_corruption_detected_per_region(system):
    """Over-clocked past the data path, every region in the chain fails
    its read-back independently."""
    batch = system.reconfigure_batch(
        [("RP1", FirFilterAsp([7])), ("RP2", FirFilterAsp([8]))], 360.0
    )
    assert not batch.load.crc_valid
    assert set(batch.region_valid.values()) == {False}


def test_batch_clock_request_is_gated_by_a_brownout():
    """A browned-out rail clamps a batch's clock as it clamps a single
    load's, counts the clamp and says so in the trace."""
    system = PdrSystem()
    system.supply.brownout(100.0, 50e6)
    batch = system.reconfigure_batch(
        [("RP1", FirFilterAsp([5])), ("RP2", FirFilterAsp([6]))], 200.0
    )
    assert batch.load.freq_mhz == 100.0
    assert batch.load.latency_us == pytest.approx(2650.818, abs=1e-3)
    assert batch.load.crc_valid
    assert system.power_counts.brownout_clamps == 1
    assert any(
        "brownout: 200 MHz request clamped to 100 MHz" in record.message
        for record in system.trace.records
    )


def test_batch_past_the_control_path_loses_its_interrupt():
    """At 310 MHz the chain's completion interrupt never arrives: the
    firmware times out, aborts the transfer and still scrubs."""
    system = PdrSystem()
    batch = system.reconfigure_batch(
        [("RP1", FirFilterAsp([5])), ("RP2", FirFilterAsp([6]))], 310.0
    )
    load = batch.load
    assert not load.interrupt_seen
    assert load.latency_us is None
    assert load.latency_unavailable_reason == "no completion interrupt"
    assert "fault_abort" in load.phase_us
    assert system.fw_counts.irq_timeouts == 1
    assert system.dma.idle
    assert batch.region_valid == {"RP1": True, "RP2": True}
    assert system.results[-1] is load


def test_dmasr_idle_stays_clear_until_the_chain_is_done():
    """In SG mode DMASR.Idle means the chain is done: it is clear while a
    STATUS write-back or the next descriptor fetch is outstanding, and
    set once the batch returns."""
    system = PdrSystem()
    dma = system.dma
    seen = []
    for stage in ("descriptor_fetched", "status_written"):
        run_stage = getattr(dma, stage)

        def probe(epoch, data, stage=stage, run_stage=run_stage):
            seen.append((stage, dma.idle))
            run_stage(epoch, data)

        setattr(dma, stage, probe)
    system.reconfigure_batch(
        [("RP1", FirFilterAsp([5])), ("RP2", FirFilterAsp([6]))], 200.0
    )
    assert [stage for stage, _ in seen] == [
        "descriptor_fetched",
        "status_written",
    ] * 2
    assert [idle for _, idle in seen] == [False] * 4
    assert dma.idle
    assert dma.reg_read(MM2S_DMASR) & DMASR_IDLE


def test_batch_phases_sum_to_its_latency():
    system = PdrSystem()
    batch = system.reconfigure_batch(
        [("RP1", FirFilterAsp([5])), ("RP2", FirFilterAsp([6]))], 200.0
    )
    load = batch.load
    assert load.region == "RP1+RP2"
    assert load.timed_phase_sum_us == pytest.approx(load.latency_us, abs=1.0)
    assert load.critical_path is not None
    assert load.device_us
    assert load.pdr_power_w > 0


def _corrupted_positions(jobs):
    """Stream word indices a 360 MHz batch of ``jobs`` corrupted."""
    system = PdrSystem()
    fed = []
    port = system.icap.port
    feed_words = port.feed_words
    port.feed_words = lambda words: (fed.extend(words), feed_words(words))[1]
    system.reconfigure_batch(jobs, 360.0)
    sent = b"".join(system.make_bitstream(region, asp).to_bytes() for region, asp in jobs)
    expected = struct.unpack(f">{len(sent) // 4}I", sent)
    assert len(fed) == len(expected)
    return {index for index, (got, want) in enumerate(zip(fed, expected)) if got != want}


def test_batch_corruption_is_salted_with_its_regions():
    """Equal-size chains over different regions draw different corruption."""
    asps = (FirFilterAsp([7]), FirFilterAsp([8]))
    first = _corrupted_positions([("RP1", asps[0]), ("RP2", asps[1])])
    second = _corrupted_positions([("RP3", asps[0]), ("RP4", asps[1])])
    assert first and second
    assert first != second


def _fail_first_descriptor_read(system):
    """Answer the first read of the chain's head descriptor with SLVERR."""
    armed = [True]

    def fault_error(kind, addr, size):
        if armed[0] and kind == "r" and addr == 0x0F00_0000 and size == 32:
            armed[0] = False
            return AxiSlaveError("injected SLVERR on the head descriptor")
        return None

    system.interconnect.fault_error = fault_error


def test_slverr_on_a_descriptor_fetch_loses_the_interrupt():
    """An error response on a descriptor read halts the engine; the
    firmware's IRQ timeout takes over instead of the error escaping."""
    system = PdrSystem()
    _fail_first_descriptor_read(system)
    batch = system.reconfigure_batch(
        [("RP1", FirFilterAsp([5])), ("RP2", FirFilterAsp([6]))], 200.0
    )
    assert not batch.load.interrupt_seen
    assert batch.load.latency_us is None
    assert system.dma.idle
    assert system.dma.counts.axi_errors == 1
    assert system.fw_counts.irq_timeouts == 1
    assert not system.icap.busy.value


@pytest.mark.parametrize("length", [0, 6])
def test_malformed_descriptor_halts_the_engine(length):
    """A descriptor read back with a zero or ragged length latches
    DMAIntErr and halts the engine: no buffer moves, no interrupt."""
    system = PdrSystem()
    dma = system.dma
    raw = struct.pack(">8I", 0, 0, 0x1000_0000, 0, 0, 0, CTRL_EOF | length, 0)
    system.dram.store(0x0F00_0000, raw)
    dma.reg_write(MM2S_DMACR, DMACR_RS | DMACR_IOC_IRQ_EN)
    dma.start_chain(0x0F00_0000)
    system.sim.run(until=system.sim.now + 10_000.0)
    status = dma.reg_read(MM2S_DMASR)
    assert status & DMASR_DMA_INT_ERR
    assert status & DMASR_HALTED
    assert dma.counts.bytes_moved == 0
    assert not dma.ioc_irq.asserted
