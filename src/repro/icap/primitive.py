"""The device configuration port state machine.

This is the logic behind both the ICAP and the PCAP: it consumes a
configuration word stream (after bus-width detection and sync), decodes
type-1/type-2 packets, executes register writes — including FDRI frame
writes into the configuration memory with FAR auto-increment — folds the
configuration CRC, and reports the error/done flags the rest of the
system reacts to.

Like the real silicon, the FDRI path holds one frame in a pipeline
register: frame *k* commits when frame *k+1* completes, so the trailing
pad frame that every bitstream carries is never written to the array.
"""

from __future__ import annotations

import struct
from array import array
from typing import Optional

from ..bitstream.crc import ConfigCrc
from ..bitstream.device import FRAME_BYTES, FRAME_WORDS
from ..bitstream.packets import NOOP_WORD, SYNC_WORD, decode_header
from ..bitstream.registers import Command, ConfigRegister
from ..fabric.config_memory import ConfigMemory

__all__ = ["ConfigPort"]

_WORD_STRUCT = struct.Struct("<I")
_BIG_WORD = struct.Struct(">I")
_SYNC_BYTES = _BIG_WORD.pack(SYNC_WORD)
_MASK32 = 0xFFFFFFFF
#: An ``array`` typecode with 4-byte items ("I" on every common ABI).
_U32 = "I" if array("I").itemsize == 4 else "L"

_CRC = int(ConfigRegister.CRC)
_FAR = int(ConfigRegister.FAR)
_FDRI = int(ConfigRegister.FDRI)
_CMD = int(ConfigRegister.CMD)
_IDCODE = int(ConfigRegister.IDCODE)

#: Registers whose payload words must act one at a time: a matching CRC
#: write and the RCRC command both reset the CRC accumulator mid-run.
_PER_WORD_REGISTERS = (_CRC, _CMD)


def _swap_words(data: bytes) -> bytes:
    """Reverse the bytes of every 32-bit word: big-endian packed words
    become little-endian packed words.

    ``array`` copies raw bytes in and out and ``byteswap`` reverses each
    item in place, so the result does not depend on the host's byte
    order.
    """
    words = array(_U32, data)
    words.byteswap()
    return words.tobytes()


class ConfigPort:
    """Word-at-a-time configuration engine bound to a config memory."""

    def __init__(self, memory: ConfigMemory):
        self.memory = memory
        self.layout = memory.layout
        self.crc = ConfigCrc()
        self.reset()

    def reset(self) -> None:
        """Return to the pre-sync state (as after PROG or power-up)."""
        self.synced = False
        self.desynced = False
        self.wcfg_active = False
        self.crc_error = False
        self.idcode_error = False
        self._last_register: Optional[int] = None
        self._payload_register: Optional[int] = None
        self._payload_remaining = 0
        self._far_index: Optional[int] = None
        # The FDRI pipeline moves packed little-endian frame bytes: one
        # partially-filled frame buffer plus the held (pipeline) frame.
        self._frame_buffer = bytearray()
        self._held_frame: Optional[bytes] = None
        self.frames_committed = 0
        self.words_consumed = 0
        self.crc.reset()

    # -- status ------------------------------------------------------------
    @property
    def has_error(self) -> bool:
        return self.crc_error or self.idcode_error

    # -- stream input -----------------------------------------------------------
    def feed_word(self, word: int) -> None:
        """Consume one 32-bit configuration word."""
        word &= 0xFFFFFFFF
        self.words_consumed += 1

        if not self.synced:
            if word == SYNC_WORD:
                self.synced = True
                self.desynced = False
            return

        if self._payload_remaining:
            self._payload_remaining -= 1
            self._handle_write(self._payload_register, word)
            return

        if word == NOOP_WORD:
            return
        try:
            header = decode_header(word)
        except ValueError:
            # Unknown packet type: a corrupted stream.  Hardware would
            # raise a status flag; we latch it as a CRC-class error.
            self.crc_error = True
            return
        if header.packet_type == 1:
            self._last_register = header.register_addr
            register = header.register_addr
        else:
            if self._last_register is None:
                self.crc_error = True
                return
            register = self._last_register
        if header.word_count and header.is_write:
            self._payload_register = register
            self._payload_remaining = header.word_count

    def feed_words(self, words) -> None:
        """Consume a word sequence; identical to :meth:`feed_word` per word.

        The words, masked to 32 bits, are packed big-endian and decoded
        by :meth:`feed_bytes`.
        """
        try:
            data = struct.pack(f">{len(words)}I", *words)
        except struct.error:
            data = struct.pack(
                f">{len(words)}I", *[word & _MASK32 for word in words]
            )
        self.feed_bytes(data)

    def feed_bytes(self, data: bytes) -> None:
        """Consume words packed big-endian (DMA bursts as read from DRAM,
        one or many); identical to :meth:`feed_word` per word.

        Words before the sync word are skipped with one search.  Every
        payload run to a register but CRC and CMD goes through in bulk
        from one byteswapped slice: FDRI data packs into frames and
        folds through the content-cached CRC; FAR, IDCODE and
        side-effect-free registers fold uncached (corrupted streams never
        repeat) and apply their effect once per run.  Packet headers,
        NOOPs and CRC/CMD writes go word by word.
        """
        end = len(data)
        if end & 3:
            raise ValueError(f"{end} bytes are not whole 32-bit words")
        offset = 0
        while offset < end:
            if not self.synced:
                stop = data.find(_SYNC_BYTES, offset)
                while stop > 0 and stop & 3:  # a match across words
                    stop = data.find(_SYNC_BYTES, stop + 1)
                if stop < 0:
                    stop = end
                self.words_consumed += (stop - offset) >> 2
                offset = stop
                if offset < end:
                    self.feed_word(SYNC_WORD)
                    offset += 4
                continue
            register = self._payload_register
            if self._payload_remaining and register not in _PER_WORD_REGISTERS:
                count = min(self._payload_remaining, (end - offset) >> 2)
                self._payload_remaining -= count
                self.words_consumed += count
                stop = offset + (count << 2)
                self._payload_run(register, _swap_words(data[offset:stop]))
                offset = stop
                continue
            self.feed_word(_BIG_WORD.unpack_from(data, offset)[0])
            offset += 4

    def _payload_run(self, register: int, packed: bytes) -> None:
        """Bulk :meth:`_handle_write` for a payload run packed
        little-endian, to any register but CRC and CMD."""
        if register == _FDRI:
            self.crc.update_run(_FDRI, None, packed=packed)
            self._fdri_run(packed)
        else:
            self._register_run(register, packed)

    def _fdri_run(self, packed: bytes) -> None:
        """Frame data, packed little-endian, through the FDRI pipeline.

        The held frame and every frame the data completes but the last
        commit in one write; the last completed frame is held.
        """
        if not self.wcfg_active or self.idcode_error:
            return  # writes are ignored until WCFG, or after an ID failure
        buffer = self._frame_buffer
        buffer += packed
        whole = len(buffer) - len(buffer) % FRAME_BYTES
        if not whole:
            return
        held = self._held_frame
        last = whole - FRAME_BYTES
        if held is not None:
            self._commit_frames(held + buffer[:last])
        elif last:
            self._commit_frames(buffer[:last])
        self._held_frame = bytes(buffer[last:whole])
        del buffer[:whole]

    def _register_run(self, register: int, packed: bytes) -> None:
        """Bulk :meth:`_handle_write` for a run to FAR, IDCODE or a
        register without side effects, packed little-endian.

        The run folds into the CRC uncached.  As word-by-word writes
        would, any unmapped FAR word or wrong IDCODE latches its error
        and the last mapped FAR word sets the frame index: a forward scan
        stops at the first unmapped word, a backward one at the last
        mapped word.
        """
        self.crc.fold_run(register, packed)
        if register == _FAR:
            words = struct.unpack(f"<{len(packed) >> 2}I", packed)
            far_index = self.layout.far_word_index
            if None in map(far_index, words):
                self.crc_error = True
            for index in map(far_index, reversed(words)):
                if index is not None:
                    self._far_index = index
                    break
        elif register == _IDCODE:
            words = struct.unpack(f"<{len(packed) >> 2}I", packed)
            if words.count(self.layout.idcode) < len(words):
                self.idcode_error = True

    # -- register semantics -------------------------------------------------
    def _handle_write(self, register: Optional[int], word: int) -> None:
        if register is None:  # pragma: no cover - guarded in feed_word
            return
        if register == _CRC:
            if not self.crc.check(word):
                self.crc_error = True
            return

        self.crc.update(register, word)

        if register == _IDCODE:
            if word != self.layout.idcode:
                self.idcode_error = True
        elif register == _FAR:
            index = self.layout.far_word_index(word)
            if index is None:
                self.crc_error = True
            else:
                self._far_index = index
        elif register == _FDRI:
            self._fdri_run(_WORD_STRUCT.pack(word))
        elif register == _CMD:
            self._command(word)

    def _commit_frames(self, packed: bytes) -> None:
        """Write whole frames at the frame index, which advances past
        them.  An unset index, or frames past the end of the device,
        latch ``crc_error`` and are dropped."""
        index = self._far_index
        if index is None:
            self.crc_error = True
            return
        count = len(packed) // FRAME_BYTES
        room = self.layout.total_frames - index
        if count > room:
            self.crc_error = True  # ran off the end of the device
            count = room
            packed = packed[: room * FRAME_BYTES]
        if count:
            self.memory.write_frame_packed(index, packed)
            self._far_index = index + count
            self.frames_committed += count

    # -- read-back (FDRO) -----------------------------------------------------
    def read_frames(self, far_index: int, frame_count: int) -> list:
        """Execute an FDRO read-back: RCFG + FAR + type-1 FDRO read.

        Returns the words the FDRO would stream out.  As in hardware, the
        first frame of the output is a pipeline pad frame (dummy words) —
        the caller discards it — followed by ``frame_count`` real frames
        in auto-increment order.
        """
        if frame_count < 1:
            raise ValueError("must read at least one frame")
        if not 0 <= far_index < self.layout.total_frames:
            raise ValueError(f"read-back start frame {far_index} out of range")
        if far_index + frame_count > self.layout.total_frames:
            raise ValueError("read-back runs off the end of the device")
        words = [0] * FRAME_WORDS  # the FDRO pipeline pad frame
        for index in range(far_index, far_index + frame_count):
            words.extend(self.memory.read_frame(index))
        return words

    def read_frames_packed(self, far_index: int, frame_count: int) -> bytes:
        """Packed-bytes :meth:`read_frames`: pad frame + frame data as
        little-endian bytes (the scrubber's bulk read-back path)."""
        if frame_count < 1:
            raise ValueError("must read at least one frame")
        if not 0 <= far_index < self.layout.total_frames:
            raise ValueError(f"read-back start frame {far_index} out of range")
        if far_index + frame_count > self.layout.total_frames:
            raise ValueError("read-back runs off the end of the device")
        return bytes(FRAME_BYTES) + self.memory.read_frames_packed(
            far_index, frame_count
        )

    def _command(self, command: int) -> None:
        if command == int(Command.RCRC):
            self.crc.reset()
            self.crc_error = False
        elif command == int(Command.WCFG):
            self.wcfg_active = True
            self._frame_buffer = bytearray()
            self._held_frame = None
        elif command == int(Command.DGHIGH_LFRM):
            # End of frame data: the held (pad) frame is discarded.
            self.wcfg_active = False
            self._held_frame = None
            self._frame_buffer = bytearray()
        elif command == int(Command.DESYNC):
            self.synced = False
            self.desynced = True
            self.wcfg_active = False
            self._held_frame = None
            self._frame_buffer = bytearray()
