"""FPGA configuration memory.

The configuration memory is the array of frames that the ICAP writes and
the read-back path reads.  Loading a partial bitstream mutates the frames
of one reconfigurable partition, which in turn changes the functional
behaviour of that partition (see :mod:`repro.fabric.region`).

Storage is one flat ``bytearray`` slab of little-endian 32-bit words
(frame *i* occupies bytes ``[i*FRAME_BYTES, (i+1)*FRAME_BYTES)``), so the
hot paths — ICAP frame commits, scrubber read-back, golden-image
comparison — move packed bytes instead of per-word Python lists.  The
word-list API is preserved on top of the slab for tests and the ASP
decode path.

The model keeps a per-frame generation counter so tests can assert exactly
which frames a reconfiguration touched, and supports targeted corruption
for fault-injection experiments.
"""

from __future__ import annotations

import struct
from typing import List, Sequence

from ..bitstream.device import FRAME_BYTES, FRAME_WORDS, DeviceLayout
from ..bitstream.far import FrameAddress

__all__ = ["ConfigMemory"]

_FRAME_STRUCT = struct.Struct(f"<{FRAME_WORDS}I")


class ConfigMemory:
    """The device's frame array, addressed by flat frame index."""

    def __init__(self, layout: DeviceLayout):
        self.layout = layout
        self.total_frames = layout.total_frames
        self._slab = bytearray(self.total_frames * FRAME_BYTES)
        self._generation: List[int] = [0] * self.total_frames
        self.total_frame_writes = 0

    # -- access ------------------------------------------------------------
    def read_frame(self, index: int) -> List[int]:
        """A copy of frame ``index`` (mutating it does not touch the array)."""
        self._check(index)
        offset = index * FRAME_BYTES
        return list(_FRAME_STRUCT.unpack_from(self._slab, offset))

    def write_frame(self, index: int, words: Sequence[int]) -> None:
        self._check(index)
        if len(words) != FRAME_WORDS:
            raise ValueError(
                f"frame write needs {FRAME_WORDS} words, got {len(words)}"
            )
        try:
            packed = _FRAME_STRUCT.pack(*words)
        except struct.error:
            packed = _FRAME_STRUCT.pack(*(w & 0xFFFFFFFF for w in words))
        self._write_packed(index, packed)

    def write_frame_packed(self, index: int, packed) -> None:
        """Write one frame from ``FRAME_BYTES`` of little-endian words."""
        self._check(index)
        if len(packed) != FRAME_BYTES:
            raise ValueError(
                f"frame write needs {FRAME_BYTES} bytes, got {len(packed)}"
            )
        self._write_packed(index, packed)

    def _write_packed(self, index: int, packed) -> None:
        offset = index * FRAME_BYTES
        self._slab[offset : offset + FRAME_BYTES] = packed
        self._generation[index] += 1
        self.total_frame_writes += 1

    def read_frames_packed(self, index: int, count: int) -> bytes:
        """``count`` consecutive frames as packed little-endian bytes."""
        self._check(index)
        if count < 1 or index + count > self.total_frames:
            raise ValueError(
                f"frame range [{index}, {index + count}) out of range"
            )
        offset = index * FRAME_BYTES
        return bytes(self._slab[offset : offset + count * FRAME_BYTES])

    def read_frame_at(self, far: FrameAddress) -> List[int]:
        return self.read_frame(self.layout.frame_index(far))

    def write_frame_at(self, far: FrameAddress, words: Sequence[int]) -> None:
        self.write_frame(self.layout.frame_index(far), words)

    def generation(self, index: int) -> int:
        """How many times frame ``index`` has been written."""
        self._check(index)
        return self._generation[index]

    def generation_span(self, first: int, count: int) -> List[int]:
        """Generation counters of ``count`` consecutive frames.

        One list slice instead of ``count`` bounds-checked calls — every
        region constructed walks its full frame span through this.
        """
        self._check(first)
        if count < 0 or first + count > self.total_frames:
            raise ValueError(
                f"frame range [{first}, {first + count}) out of range"
            )
        return self._generation[first : first + count]

    # -- region views --------------------------------------------------------
    def region_frames(self, name: str) -> List[List[int]]:
        """Copies of all frames of a named region, in address order."""
        first, count = self.layout.region_span(name)
        return [self.read_frame(first + i) for i in range(count)]

    def region_words(self, name: str) -> List[int]:
        """Flat word list of a region (read-back order)."""
        first, count = self.layout.region_span(name)
        offset = first * FRAME_BYTES
        return list(
            struct.unpack_from(
                f"<{count * FRAME_WORDS}I", self._slab, offset
            )
        )

    def iter_region_words(self, name: str):
        """Iterate a region's words without building frame lists (read-back
        hot path: the CRC scrubber digests >130 k words per pass)."""
        first, count = self.layout.region_span(name)
        offset = first * FRAME_BYTES
        return iter(
            struct.unpack_from(f"<{count * FRAME_WORDS}I", self._slab, offset)
        )

    def region_equals(self, name: str, frames: Sequence[Sequence[int]]) -> bool:
        """True if the region's frames match ``frames`` exactly.

        Comparison without building word lists — the invariant monitor
        calls this after every successful reconfiguration against the
        golden ASP encoding (1304 frames x 101 words per Z-7020 region).
        """
        first, count = self.layout.region_span(name)
        if len(frames) != count:
            return False
        slab = self._slab
        for i, expected in enumerate(frames):
            offset = (first + i) * FRAME_BYTES
            try:
                packed = _FRAME_STRUCT.pack(*expected)
            except struct.error:
                # Out-of-32-bit-range words can never equal stored frames.
                return False
            if slab[offset : offset + FRAME_BYTES] != packed:
                return False
        return True

    def write_region(self, name: str, frames: Sequence[Sequence[int]]) -> None:
        """Directly write a whole region (test/PCAP path, not the ICAP)."""
        first, count = self.layout.region_span(name)
        if len(frames) != count:
            raise ValueError(
                f"region {name} has {count} frames, got {len(frames)}"
            )
        for i, frame in enumerate(frames):
            self.write_frame(first + i, frame)

    def clear_region(self, name: str) -> None:
        first, count = self.layout.region_span(name)
        blank = bytes(FRAME_BYTES)
        for i in range(count):
            self._write_packed(first + i, blank)

    # -- fault injection -------------------------------------------------------
    def corrupt_word(
        self, frame_index: int, word_index: int, flip_mask: int = 0x1
    ) -> None:
        """XOR-flip one word in place (models an SEU / bad config write)."""
        self._check(frame_index)
        if not 0 <= word_index < FRAME_WORDS:
            raise ValueError(f"word index {word_index} out of range")
        offset = frame_index * FRAME_BYTES + word_index * 4
        (word,) = struct.unpack_from("<I", self._slab, offset)
        struct.pack_into("<I", self._slab, offset, (word ^ flip_mask) & 0xFFFFFFFF)
        # Deliberately does NOT bump the generation counter: corruption is
        # invisible to the configuration logic, which is exactly why the
        # paper needs a CRC read-back scrubber.

    def corrupt_region_word(
        self, name: str, offset_words: int, flip_mask: int = 0x1
    ) -> None:
        """Corrupt the ``offset_words``-th word of a region's frame data."""
        first, count = self.layout.region_span(name)
        frame_offset, word_index = divmod(offset_words, FRAME_WORDS)
        if frame_offset >= count:
            raise ValueError(f"offset {offset_words} beyond region {name}")
        self.corrupt_word(first + frame_offset, word_index, flip_mask)

    # -- internals ----------------------------------------------------------
    def _check(self, index: int) -> None:
        if not 0 <= index < self.total_frames:
            raise ValueError(
                f"frame index {index} out of range (device has "
                f"{self.total_frames} frames)"
            )
