"""Tests for the AXI-Lite DMA front-end."""

import pytest

from repro.axi import AxiHpPort, AxiInterconnect, AxiStream
from repro.dma import (
    AxiDmaEngine,
    DMACR_IOC_IRQ_EN,
    DMACR_RS,
    DmaLiteFrontend,
    MM2S_DMACR,
    MM2S_DMASR,
    MM2S_LENGTH,
    MM2S_SA,
)
from repro.dram import BankDramController, DramDevice
from repro.sim import ClockDomain, Simulator


@pytest.fixture()
def rig():
    sim = Simulator()
    device = DramDevice()
    interconnect = AxiInterconnect(sim, BankDramController(sim, device))
    port = AxiHpPort(sim, interconnect)
    clock = ClockDomain(sim, 100.0)
    stream = AxiStream(sim, fifo_words=1024)
    dma = AxiDmaEngine(sim, clock, port, stream)
    gp_clock = ClockDomain(sim, 100.0)
    frontend = DmaLiteFrontend(sim, gp_clock, dma)
    return sim, device, stream, dma, frontend


def test_register_access_routes_to_engine(rig):
    sim, _device, _stream, dma, frontend = rig

    def driver(sim):
        yield frontend.regs.write(MM2S_SA, 0x4000)
        value = yield frontend.regs.read(MM2S_SA)
        return value

    process = sim.process(driver(sim))
    assert sim.run_until(process) == 0x4000
    assert dma.reg_read(MM2S_SA) == 0x4000


def test_bus_accesses_are_timed(rig):
    sim, _device, _stream, _dma, frontend = rig

    def driver(sim):
        yield frontend.regs.write(MM2S_SA, 1)
        yield frontend.regs.read(MM2S_DMASR)

    sim.run_until(sim.process(driver(sim)))
    # Two 5-cycle AXI-Lite accesses at 100 MHz.
    assert sim.now == pytest.approx(100.0)


def test_full_transfer_through_lite_bus(rig):
    sim, device, stream, dma, frontend = rig
    device.store(0x4000, bytes(range(256)) * 16)  # 4 KiB
    drained = []

    def consumer(sim):
        while True:
            burst = yield stream.pop()
            drained.extend(burst.words)
            stream.release(len(burst.words))
            if burst.last:
                return

    def driver(sim):
        yield frontend.regs.write(MM2S_DMACR, DMACR_RS | DMACR_IOC_IRQ_EN)
        yield frontend.regs.write(MM2S_SA, 0x4000)
        yield frontend.regs.write(MM2S_LENGTH, 4096)
        yield dma.ioc_irq.wait_assert()

    sim.process(consumer(sim))
    sim.run_until(sim.process(driver(sim)))
    assert len(drained) == 1024
    assert dma.counts.bytes_moved == 4096
