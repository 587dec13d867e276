"""Scatter-gather descriptor engine (AXI DMA SG mode).

Direct register mode (what the paper's measurements use) needs the PS to
program SA/LENGTH for every transfer.  SG mode instead walks a chain of
DMA descriptors resident in DRAM: each descriptor names one buffer, and
the engine fetches the next descriptor itself — so a whole *sequence* of
partial bitstreams streams back-to-back with no software in the loop.

Descriptor layout (Xilinx-compatible fields, 8 words = 32 bytes):

====  ==========================================
word  field
====  ==========================================
0     NXTDESC (address of the next descriptor)
1     reserved
2     BUFFER_ADDR
3     reserved
4     reserved
5     reserved
6     CONTROL: bits[25:0] length, bit 27 SOF, bit 26 EOF
7     STATUS: bit 31 completed (written back by the engine)
====  ==========================================

The chain terminates at a descriptor whose EOF bit is set (tail-pointer
mode is not modelled).  Each descriptor fetch and status write-back costs
a memory round trip — the ablation-style test shows this overhead is
negligible against half-megabyte bitstreams but visible for tiny buffers.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List

from ..dram.device import DramDevice
from ..sim import InterruptLine

from .engine import AxiDmaEngine
from .registers import (
    DMACR_IOC_IRQ_EN,
    DMACR_RS,
    DMASR_IOC_IRQ,
    MM2S_DMACR,
    MM2S_DMASR,
    MM2S_LENGTH,
    MM2S_SA,
)

__all__ = ["SgDescriptor", "write_descriptor_chain", "SgDmaEngine"]

DESC_BYTES = 32
_CTRL_LEN_MASK = 0x03FFFFFF
_CTRL_EOF = 1 << 26
_CTRL_SOF = 1 << 27
_STAT_CMPLT = 1 << 31


@dataclass
class SgDescriptor:
    """One software-built descriptor."""

    buffer_addr: int
    length: int
    first: bool = False
    last: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.length <= _CTRL_LEN_MASK:
            raise ValueError(f"descriptor length {self.length} out of range")
        if self.length % 4:
            raise ValueError(
                f"descriptor length {self.length} is not a multiple of 4 bytes"
            )

    def pack(self, next_addr: int) -> bytes:
        control = self.length
        if self.first:
            control |= _CTRL_SOF
        if self.last:
            control |= _CTRL_EOF
        return struct.pack(
            ">8I", next_addr, 0, self.buffer_addr, 0, 0, 0, control, 0
        )


def write_descriptor_chain(
    dram: DramDevice, base_addr: int, descriptors: List[SgDescriptor]
) -> int:
    """Lay a chain out in DRAM; returns the head descriptor address."""
    if not descriptors:
        raise ValueError("descriptor chain cannot be empty")
    if base_addr % DESC_BYTES:
        raise ValueError("descriptor base must be 32-byte aligned")
    descriptors = list(descriptors)
    descriptors[0].first = True
    descriptors[-1].last = True
    for index, descriptor in enumerate(descriptors):
        addr = base_addr + index * DESC_BYTES
        next_addr = base_addr + (index + 1) * DESC_BYTES
        dram.store(addr, descriptor.pack(next_addr))
    return base_addr


class SgDmaEngine:
    """Walks a descriptor chain through an underlying MM2S engine.

    The fetch and write-back use the same HP port as the data, so SG
    bookkeeping competes with payload bandwidth exactly as in hardware.
    """

    def __init__(self, dma: AxiDmaEngine, name: str = "sg"):
        self.dma = dma
        self.sim = dma.sim
        self.name = name
        self.chain_done_irq = InterruptLine(self.sim, name=f"{name}.done")
        self.descriptors_processed = 0

    def start_chain(self, head_addr: int):
        """Process the chain (returns the driving Process)."""
        return self.sim.process(self._walk(head_addr), name=f"{self.name}.walk")

    def _walk(self, head_addr: int):
        port = self.dma.port
        addr = head_addr
        while True:
            raw = yield port.read(addr, DESC_BYTES)
            fields = struct.unpack(">8I", raw)
            next_addr, buffer_addr, control = fields[0], fields[2], fields[6]
            length = control & _CTRL_LEN_MASK
            if length == 0:
                raise ValueError(f"descriptor at {addr:#x} has zero length")

            # Drive the underlying engine in direct mode for this buffer.
            self.dma.reg_write(MM2S_DMACR, DMACR_RS | DMACR_IOC_IRQ_EN)
            self.dma.reg_write(MM2S_SA, buffer_addr)
            irq = self.dma.ioc_irq.wait_assert()
            self.dma.reg_write(MM2S_LENGTH, length)
            yield irq
            self.dma.reg_write(MM2S_DMASR, DMASR_IOC_IRQ)  # ack IOC (W1C)

            # Write completion status back into the descriptor.
            status = struct.pack(">I", _STAT_CMPLT)
            yield port.write(addr + 28, status)
            self.descriptors_processed += 1

            if control & _CTRL_EOF:
                break
            addr = next_addr
        self.chain_done_irq.pulse()
        return self.descriptors_processed
