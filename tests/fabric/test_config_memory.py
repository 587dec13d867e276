"""Tests for the configuration memory."""

import struct

import pytest

from repro.bitstream import FRAME_BYTES, FRAME_WORDS, FrameAddress, make_z7020_layout
from repro.fabric import ConfigMemory


@pytest.fixture()
def memory():
    return ConfigMemory(make_z7020_layout())


def test_starts_blank(memory):
    assert memory.read_frame(0) == [0] * FRAME_WORDS
    assert memory.total_frame_writes == 0


def test_write_read_roundtrip(memory):
    frame = list(range(FRAME_WORDS))
    memory.write_frame(10, frame)
    assert memory.read_frame(10) == frame
    assert memory.generation(10) == 1


def test_read_returns_copy(memory):
    memory.write_frame(3, [1] * FRAME_WORDS)
    frame = memory.read_frame(3)
    frame[0] = 999
    assert memory.read_frame(3)[0] == 1


def test_words_masked_to_32_bits(memory):
    memory.write_frame(0, [1 << 40] + [0] * (FRAME_WORDS - 1))
    assert memory.read_frame(0)[0] == 0  # (1<<40) & 0xFFFFFFFF


def test_wrong_frame_size_rejected(memory):
    with pytest.raises(ValueError, match="words"):
        memory.write_frame(0, [0] * 10)


def test_packed_write_takes_whole_frames(memory):
    """One packed write of k frames is k frame writes: each frame's
    generation goes up by one and the write count by k."""
    frames = [[k] * FRAME_WORDS for k in range(1, 4)]
    packed = b"".join(struct.pack(f"<{FRAME_WORDS}I", *f) for f in frames)
    memory.write_frame(8, frames[0])
    memory.write_frame_packed(7, packed)
    assert [memory.read_frame(i) for i in (7, 8, 9)] == frames
    assert memory.generation_span(6, 5) == [0, 1, 2, 1, 0]
    assert memory.total_frame_writes == 4
    last = memory.total_frames - 1
    for index, data in ((0, packed[:-4]), (0, b""), (last, packed[: 2 * FRAME_BYTES])):
        with pytest.raises(ValueError):
            memory.write_frame_packed(index, data)
    assert memory.total_frame_writes == 4


def test_out_of_range_rejected(memory):
    with pytest.raises(ValueError):
        memory.read_frame(memory.layout.total_frames)
    with pytest.raises(ValueError):
        memory.write_frame(-1, [0] * FRAME_WORDS)


def test_far_addressed_access(memory):
    far = FrameAddress(top=0, row=0, column=2, minor=5)
    frame = [0xA5] * FRAME_WORDS
    memory.write_frame_at(far, frame)
    assert memory.read_frame_at(far) == frame


def test_region_write_and_readback(memory):
    count = memory.layout.region_frame_count("RP1")
    frames = [[i] * FRAME_WORDS for i in range(count)]
    memory.write_region("RP1", frames)
    assert memory.region_frames("RP1") == frames
    words = memory.region_words("RP1")
    assert len(words) == count * FRAME_WORDS


def test_region_write_wrong_count_rejected(memory):
    with pytest.raises(ValueError):
        memory.write_region("RP1", [[0] * FRAME_WORDS])


def test_clear_region(memory):
    count = memory.layout.region_frame_count("RP2")
    memory.write_region("RP2", [[1] * FRAME_WORDS] * count)
    memory.clear_region("RP2")
    assert all(w == 0 for w in memory.region_words("RP2"))


def test_regions_do_not_alias(memory):
    count = memory.layout.region_frame_count("RP1")
    memory.write_region("RP1", [[7] * FRAME_WORDS] * count)
    assert all(w == 0 for w in memory.region_words("RP2"))
    assert all(w == 0 for w in memory.region_words("RP3"))


def test_corruption_does_not_bump_generation(memory):
    memory.write_frame(5, [1] * FRAME_WORDS)
    generation = memory.generation(5)
    memory.corrupt_word(5, 10, flip_mask=0x4)
    assert memory.generation(5) == generation
    assert memory.read_frame(5)[10] == 1 ^ 0x4


def test_corrupt_region_word(memory):
    count = memory.layout.region_frame_count("RP3")
    memory.write_region("RP3", [[0] * FRAME_WORDS] * count)
    memory.corrupt_region_word("RP3", FRAME_WORDS + 2, flip_mask=0xFF)
    frames = memory.region_frames("RP3")
    assert frames[1][2] == 0xFF


def test_corrupt_region_word_out_of_range(memory):
    with pytest.raises(ValueError):
        memory.corrupt_region_word("RP3", 10**9)

