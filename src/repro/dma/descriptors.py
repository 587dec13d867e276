"""Scatter-gather descriptors (AXI DMA SG mode).

Direct register mode (what the paper's measurements use) needs the PS to
program SA/LENGTH for every transfer.  SG mode instead walks a chain of
DMA descriptors resident in DRAM: each descriptor names one buffer, and
the engine fetches the next descriptor itself — so a whole *sequence* of
partial bitstreams streams back-to-back with no software in the loop.
The walk is a stage of the engine's callback chain
(:meth:`~repro.dma.engine.AxiDmaEngine.start_chain`); this module holds
the layout and the software side that builds a chain.

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

__all__ = ["SgDescriptor", "write_descriptor_chain"]

DESC_BYTES = 32
CTRL_LEN_MASK = 0x03FFFFFF
CTRL_EOF = 1 << 26
CTRL_SOF = 1 << 27
#: Byte offset of the STATUS word within a descriptor.
STATUS_OFFSET = 28
STAT_CMPLT = 1 << 31


@dataclass
class SgDescriptor:
    """One software-built descriptor."""

    buffer_addr: int
    length: int
    first: bool = False
    last: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.length <= CTRL_LEN_MASK:
            raise ValueError(f"descriptor length {self.length} out of range")
        if self.length % 4:
            raise ValueError(
                f"descriptor length {self.length} is not a multiple of 4 bytes"
            )

    def pack(self, next_addr: int) -> bytes:
        control = self.length
        if self.first:
            control |= CTRL_SOF
        if self.last:
            control |= CTRL_EOF
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
