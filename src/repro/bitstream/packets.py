"""Configuration packet encoding (7-series style).

The configuration stream (after the sync word) is a sequence of packets:

* **Type 1** — ``[31:29]=001``, opcode ``[28:27]`` (00 NOP, 01 READ,
  10 WRITE), register address ``[17:13]``, word count ``[10:0]``.
* **Type 2** — ``[31:29]=010``, opcode as above, word count ``[26:0]``;
  it extends the immediately preceding type-1 packet's register target and
  is used for large FDRI frame-data writes.

This module provides header pack/unpack and the well-known constant words
(sync, NOOP, bus-width detection).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "SYNC_WORD",
    "NOOP_WORD",
    "DUMMY_WORD",
    "BUS_WIDTH_SYNC_WORD",
    "BUS_WIDTH_DETECT_WORD",
    "OP_NOP",
    "OP_READ",
    "OP_WRITE",
    "PacketHeader",
    "type1",
    "type2",
]

SYNC_WORD = 0xAA995566
NOOP_WORD = 0x20000000
DUMMY_WORD = 0xFFFFFFFF
BUS_WIDTH_SYNC_WORD = 0x000000BB
BUS_WIDTH_DETECT_WORD = 0x11220044

OP_NOP = 0
OP_READ = 1
OP_WRITE = 2

_TYPE_SHIFT = 29
_OP_SHIFT = 27
_ADDR_SHIFT = 13
_ADDR_MASK = 0x1F
_T1_COUNT_MASK = 0x7FF
_T2_COUNT_MASK = 0x07FFFFFF


@dataclass(frozen=True)
class PacketHeader:
    """Decoded view of a configuration packet header word."""

    packet_type: int
    opcode: int
    register_addr: int  # meaningful for type 1 only
    word_count: int

    @property
    def is_write(self) -> bool:
        return self.opcode == OP_WRITE


def type1(opcode: int, register_addr: int, word_count: int) -> int:
    """Encode a type-1 packet header."""
    if opcode not in (OP_NOP, OP_READ, OP_WRITE):
        raise ValueError(f"bad opcode {opcode}")
    if not 0 <= register_addr <= _ADDR_MASK:
        raise ValueError(f"register address {register_addr} out of range")
    if not 0 <= word_count <= _T1_COUNT_MASK:
        raise ValueError(f"type-1 word count {word_count} out of range")
    return (
        (1 << _TYPE_SHIFT)
        | (opcode << _OP_SHIFT)
        | (register_addr << _ADDR_SHIFT)
        | word_count
    )


def type2(opcode: int, word_count: int) -> int:
    """Encode a type-2 packet header (target register from preceding type 1)."""
    if opcode not in (OP_NOP, OP_READ, OP_WRITE):
        raise ValueError(f"bad opcode {opcode}")
    if not 0 <= word_count <= _T2_COUNT_MASK:
        raise ValueError(f"type-2 word count {word_count} out of range")
    return (2 << _TYPE_SHIFT) | (opcode << _OP_SHIFT) | word_count


def decode_header(word: int) -> PacketHeader:
    """Decode a packet header word (raises on unknown packet types)."""
    if not 0 <= word <= 0xFFFFFFFF:
        raise ValueError(f"header word {word:#x} out of range")
    packet_type = (word >> _TYPE_SHIFT) & 0x7
    opcode = (word >> _OP_SHIFT) & 0x3
    if packet_type == 1:
        return PacketHeader(
            packet_type=1,
            opcode=opcode,
            register_addr=(word >> _ADDR_SHIFT) & _ADDR_MASK,
            word_count=word & _T1_COUNT_MASK,
        )
    if packet_type == 2:
        return PacketHeader(
            packet_type=2,
            opcode=opcode,
            register_addr=-1,
            word_count=word & _T2_COUNT_MASK,
        )
    raise ValueError(f"unknown packet type {packet_type} in word {word:#010x}")
