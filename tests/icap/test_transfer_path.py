"""Integration tests: DRAM -> interconnect -> DMA -> stream -> ICAP."""

import pytest

from repro.axi import AxiHpPort, AxiInterconnect, AxiStream
from repro.bitstream import BitstreamBuilder, make_z7020_layout
from repro.dma import (
    AxiDmaEngine,
    DMACR_IOC_IRQ_EN,
    DMACR_RESET,
    DMACR_RS,
    DMASR_IOC_IRQ,
    MM2S_DMACR,
    MM2S_DMASR,
    MM2S_LENGTH,
    MM2S_SA,
)
from repro.dram import BankDramController, DramDevice
from repro.fabric import ConfigMemory, FirFilterAsp, encode_asp_frames
from repro.icap import IcapController
from repro.sim import ClockDomain, Simulator


class TransferRig:
    """The Fig. 2 transfer path, standalone."""

    def __init__(self, freq_mhz=100.0):
        self.sim = Simulator()
        self.layout = make_z7020_layout()
        self.memory = ConfigMemory(self.layout)
        self.dram = DramDevice()
        controller = BankDramController(self.sim, self.dram)
        interconnect = AxiInterconnect(self.sim, controller)
        self.port = AxiHpPort(self.sim, interconnect)
        self.clock = ClockDomain(self.sim, freq_mhz)
        self.stream = AxiStream(self.sim, fifo_words=1024)
        self.dma = AxiDmaEngine(self.sim, self.clock, self.port, self.stream)
        self.icap = IcapController(self.sim, self.clock, self.memory, self.stream)

    def load(self, region="RP1", asp=None):
        builder = BitstreamBuilder(self.layout)
        frames = encode_asp_frames(
            self.layout.region_frame_count(region), asp or FirFilterAsp([2, 1])
        )
        bitstream = builder.build_partial(region, frames)
        self.dram.store(0x1000, bitstream.to_bytes())
        return bitstream, frames

    def start(self, size):
        self.dma.reg_write(MM2S_DMACR, DMACR_RS | DMACR_IOC_IRQ_EN)
        self.dma.reg_write(MM2S_SA, 0x1000)
        self.dma.reg_write(MM2S_LENGTH, size)


def test_end_to_end_transfer_configures_region():
    rig = TransferRig()
    bitstream, frames = rig.load("RP1")
    rig.icap.begin_transfer()
    rig.start(bitstream.size_bytes)
    irq = rig.dma.ioc_irq.wait_assert()
    rig.sim.run_until(irq)
    assert rig.memory.region_frames("RP1") == frames
    assert rig.icap.port.desynced
    assert not rig.icap.port.has_error


def test_throughput_at_nominal_frequency():
    """At 100 MHz the path must deliver ~399 MB/s (Table I row 1)."""
    rig = TransferRig(freq_mhz=100.0)
    bitstream, _ = rig.load()
    rig.icap.begin_transfer()
    start = rig.sim.now
    rig.start(bitstream.size_bytes)
    rig.sim.run_until(rig.dma.ioc_irq.wait_assert())
    throughput = bitstream.size_bytes / (rig.sim.now - start) * 1e3  # MB/s
    assert throughput == pytest.approx(399.0, rel=0.01)


def test_throughput_saturates_at_high_frequency():
    """At 280 MHz the memory path caps throughput near 790 MB/s."""
    rig = TransferRig(freq_mhz=280.0)
    bitstream, _ = rig.load()
    rig.icap.begin_transfer()
    start = rig.sim.now
    rig.start(bitstream.size_bytes)
    rig.sim.run_until(rig.dma.ioc_irq.wait_assert())
    throughput = bitstream.size_bytes / (rig.sim.now - start) * 1e3
    assert 770.0 < throughput < 810.0


def test_word_corruptor_breaks_load():
    rig = TransferRig()
    bitstream, frames = rig.load("RP2")
    rig.icap.word_corruptor = lambda words: [w ^ 0x1 for w in words]
    rig.icap.begin_transfer()
    rig.start(bitstream.size_bytes)
    rig.sim.run_until(rig.dma.ioc_irq.wait_assert())
    assert rig.memory.region_frames("RP2") != frames


def test_suppressed_irq_never_fires():
    rig = TransferRig()
    bitstream, frames = rig.load("RP1")
    rig.dma.suppress_completion_irq = True
    rig.icap.begin_transfer()
    rig.start(bitstream.size_bytes)
    rig.sim.run(until=5e6)  # 5 ms — far beyond the transfer
    assert rig.dma.ioc_irq.assert_count == 0
    # ... but the data still landed (the paper's 310 MHz regime).
    assert rig.memory.region_frames("RP1") == frames


def test_dma_register_interface():
    rig = TransferRig()
    rig.dma.reg_write(MM2S_DMACR, DMACR_RS)
    assert rig.dma.running
    rig.dma.reg_write(MM2S_SA, 0xABC0)
    assert rig.dma.reg_read(MM2S_SA) == 0xABC0
    rig.dma.reg_write(MM2S_DMACR, DMACR_RESET)
    assert not rig.dma.running
    with pytest.raises(ValueError):
        rig.dma.reg_write(0x99, 1)
    with pytest.raises(ValueError):
        rig.dma.reg_read(0x99)


def test_length_write_while_halted_rejected():
    rig = TransferRig()
    rig.dma.reg_write(MM2S_DMACR, DMACR_RESET)
    with pytest.raises(RuntimeError, match="halted"):
        rig.dma.reg_write(MM2S_LENGTH, 1024)


def test_irq_ack_clears_status():
    rig = TransferRig()
    bitstream, _ = rig.load()
    rig.icap.begin_transfer()
    rig.start(bitstream.size_bytes)
    rig.sim.run_until(rig.dma.ioc_irq.wait_assert())
    assert rig.dma.reg_read(MM2S_DMASR) & DMASR_IOC_IRQ
    rig.dma.reg_write(MM2S_DMASR, DMASR_IOC_IRQ)
    assert not rig.dma.reg_read(MM2S_DMASR) & DMASR_IOC_IRQ
    assert not rig.dma.ioc_irq.asserted


def test_short_unaligned_tail_burst():
    """A transfer that is not a multiple of the burst size completes."""
    rig = TransferRig()
    rig.dram.store(0x1000, bytes(range(256)) * 9)  # 2304 B = 2.25 bursts
    rig.start(2304)
    rig.sim.run_until(rig.dma.ioc_irq.wait_assert())
    assert rig.dma.counts.bytes_moved == 2304


def test_unaligned_length_rejected_at_length_write():
    """The stream carries whole words: a length with a ragged tail is
    refused before the engine starts, naming the length."""
    rig = TransferRig()
    rig.dram.store(0x1000, bytes(range(256)) * 9)
    with pytest.raises(ValueError, match="2302"):
        rig.start(2302)
    assert rig.dma.idle
    rig.sim.run(until=50e3)
    assert rig.dma.counts.bytes_moved == 0
    assert rig.stream.free_words == rig.stream.fifo_words


def test_soft_reset_mid_burst_abandons_the_transfer():
    """A DMACR soft reset 5 us into a 200 MHz load, with 3 bursts moved
    and a 4th in flight: the in-flight burst never reaches the stream,
    its FIFO room comes back, no IOC is raised, and the next transfer
    runs normally."""
    rig = TransferRig(freq_mhz=200.0)
    bitstream, frames = rig.load("RP1")
    rig.icap.begin_transfer()
    rig.start(bitstream.size_bytes)
    rig.sim.run(until=5e3)
    assert rig.dma.counts.bytes_moved == 3 * 1024
    assert rig.port.bytes_transferred == 3 * 1024  # the 4th is still out
    rig.dma.reg_write(MM2S_DMACR, DMACR_RESET)
    rig.sim.run(until=55e3)
    assert rig.dma.counts.bytes_moved == 3 * 1024
    assert rig.dma.ioc_irq.assert_count == 0
    assert rig.stream.stat_granted_words == rig.stream.stat_released_words
    assert rig.stream.free_words == rig.stream.fifo_words

    rig.icap.begin_transfer()
    rig.start(bitstream.size_bytes)
    rig.sim.run_until(rig.dma.ioc_irq.wait_assert())
    assert rig.dma.counts.transfers_completed == 1
    assert rig.dma.counts.bytes_moved == 3 * 1024 + bitstream.size_bytes
    assert rig.memory.region_frames("RP1") == frames
