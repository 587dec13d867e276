"""Tests for the per-partition data channel and the S2MM engine."""

import pytest

from repro.axi import AxiHpPort, AxiInterconnect, AxiStream, StreamBurst
from repro.core import PdrSystem, RpDataChannel
from repro.dma import S2mmDmaEngine
from repro.dram import BankDramController, DramDevice
from repro.fabric import Aes128Asp, Crc32Asp, FirFilterAsp
from repro.sim import ClockDomain, Simulator


# --------------------------------------------------------------------- S2MM --
def _s2mm_rig():
    sim = Simulator()
    device = DramDevice()
    interconnect = AxiInterconnect(sim, BankDramController(sim, device))
    port = AxiHpPort(sim, interconnect)
    clock = ClockDomain(sim, 150.0)
    stream = AxiStream(sim, fifo_words=512)
    engine = S2mmDmaEngine(sim, clock, port, stream)
    return sim, device, stream, engine


def test_s2mm_lands_stream_in_memory():
    sim, device, stream, engine = _s2mm_rig()
    engine.arm(0x8000, 64)

    def producer(sim):
        yield stream.reserve(16)
        stream.push(StreamBurst(words=list(range(16)), last=True))

    sim.process(producer(sim))
    sim.run_until(engine.ioc_irq.wait_assert())
    assert engine.counts.bytes_moved == 64
    landed = device.load(0x8000, 64)
    assert landed[:4] == b"\x00\x00\x00\x00"
    assert landed[4:8] == b"\x00\x00\x00\x01"


def test_s2mm_truncates_to_buffer():
    sim, _device, stream, engine = _s2mm_rig()
    engine.arm(0x8000, 8)  # two words of room

    def producer(sim):
        yield stream.reserve(4)
        stream.push(StreamBurst(words=[1, 2, 3, 4], last=True))

    sim.process(producer(sim))
    sim.run_until(engine.ioc_irq.wait_assert())
    assert engine.counts.bytes_moved == 8


def test_s2mm_records_metrics_like_mm2s():
    """The write engine carries the same instrument set as the read engine."""
    from repro.obs import MetricsRegistry

    sim = Simulator()
    device = DramDevice()
    interconnect = AxiInterconnect(sim, BankDramController(sim, device))
    port = AxiHpPort(sim, interconnect)
    clock = ClockDomain(sim, 150.0)
    metrics = MetricsRegistry(now_fn=lambda: sim.now)
    stream = AxiStream(sim, fifo_words=512, metrics=metrics)
    engine = S2mmDmaEngine(sim, clock, port, stream, metrics=metrics)
    engine.arm(0x8000, 64)

    def producer(sim):
        yield stream.reserve(16)
        stream.push(StreamBurst(words=list(range(16)), last=True))

    sim.process(producer(sim))
    sim.run_until(engine.ioc_irq.wait_assert())
    assert metrics.get("dma_s2mm.bursts_issued").value == 1
    assert metrics.get("dma_s2mm.bytes_moved").value == 64
    assert metrics.get("dma_s2mm.cmd_overhead_cycles").value == engine.cmd_overhead_cycles
    assert metrics.get("dma_s2mm.transfers_completed").value == 1
    assert metrics.get("dma_s2mm.transfer_us").count == 1
    assert metrics.get("dma_s2mm.transfer_us").sum > 0
    assert metrics.get("dma_s2mm.achieved_mb_s").count == 1


def test_s2mm_validation():
    sim, _device, _stream, engine = _s2mm_rig()
    with pytest.raises(ValueError):
        engine.arm(0, 2)
    engine.arm(0, 1024)
    with pytest.raises(RuntimeError):
        engine.arm(0, 1024)  # already armed


# ----------------------------------------------------------------- channel --
@pytest.fixture(scope="module")
def system_with_channel():
    system = PdrSystem()
    system.reconfigure("RP1", FirFilterAsp([2, 1]), 200.0)
    hp_port = AxiHpPort(system.sim, system.interconnect, name="hp_rp1")
    rp_clock = ClockDomain(system.sim, 100.0, name="rp1_clk")
    channel = RpDataChannel(
        system.sim,
        hp_port,
        rp_clock,
        system.regions["RP1"],
        metrics=system.metrics,
    )
    return system, channel


def test_channel_roundtrip_through_dram(system_with_channel):
    system, channel = system_with_channel
    process = system.sim.process(
        channel.run_job([1, 0, 0, 0], in_addr=0x1900_0000, out_addr=0x1910_0000)
    )
    output, (data_in_us, compute_us, data_out_us) = system.sim.run_until(process)
    assert output == [2, 1, 0, 0]
    assert data_in_us > 0 and compute_us > 0 and data_out_us > 0
    assert channel.jobs_completed == 1
    # The result really landed in DRAM.
    assert system.dram.load(0x1910_0000, 4) == (2).to_bytes(4, "big")


def test_channel_crc_asp_reduces_output(system_with_channel):
    system, channel = system_with_channel
    system.reconfigure("RP1", Crc32Asp(), 200.0)
    process = system.sim.process(
        channel.run_job(list(range(1024)), 0x1920_0000, 0x1930_0000)
    )
    output, (data_in_us, _c, data_out_us) = system.sim.run_until(process)
    assert len(output) == 1
    # 1024 words in, 1 word out: the in-phase dominates the out-phase.
    assert data_in_us > data_out_us


def test_channel_timing_scales_with_rp_clock(system_with_channel):
    system, channel = system_with_channel
    system.reconfigure("RP1", FirFilterAsp([1]), 200.0)

    def run_once():
        process = system.sim.process(
            channel.run_job(list(range(2048)), 0x1940_0000, 0x1950_0000)
        )
        _out, times = system.sim.run_until(process)
        return sum(times)

    channel.rp_clock.set_frequency(100.0)
    slow = run_once()
    channel.rp_clock.set_frequency(200.0)
    fast = run_once()
    assert fast < slow
    assert slow / fast == pytest.approx(2.0, rel=0.25)


def test_channel_rejects_empty_job(system_with_channel):
    system, channel = system_with_channel
    with pytest.raises(ValueError):
        # Generator: the error surfaces on first resume.
        system.sim.run_until(system.sim.process(channel.run_job([], 0, 0x1000)))


def test_channel_threads_system_registry_to_both_engines(system_with_channel):
    """After a job, the shared registry shows traffic on BOTH directions."""
    system, channel = system_with_channel
    metrics = channel.mm2s.metrics
    assert channel.s2mm.metrics is metrics
    for direction in ("mm2s", "s2mm"):
        prefix = f"{channel.name}.{direction}"
        assert metrics.get(f"{prefix}.bursts_issued").value > 0
        assert metrics.get(f"{prefix}.bytes_moved").value > 0
        assert metrics.get(f"{prefix}.transfer_us").count > 0


def test_hll_outputs_match_direct_asp_execution():
    """Functional invariant: routing a job through the full data channel
    must give byte-identical results to calling the ASP directly."""
    from repro.core import AspRequest, HllFramework

    framework = HllFramework(icap_freq_mhz=200.0)
    asp = Aes128Asp([7, 7, 7, 7])
    words = [0xCAFEBABE, 0x12345678, 0, 0xFFFFFFFF]
    result = framework.run_job(AspRequest(asp=asp, input_words=words))
    assert result.output_words == asp.process(words)
