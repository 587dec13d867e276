"""Tests for the configuration-port state machine."""

import hashlib
import struct

import pytest

from repro.bitstream import (
    BUS_WIDTH_DETECT_WORD,
    BUS_WIDTH_SYNC_WORD,
    DUMMY_WORD,
    FRAME_WORDS,
    NOOP_WORD,
    BitstreamBuilder,
    Command,
    ConfigRegister,
    OP_WRITE,
    SYNC_WORD,
    make_z7020_layout,
    type1,
    type2,
)
from repro.experiments.table1 import WORKLOAD_ASP
from repro.fabric import ConfigMemory, FirFilterAsp, encode_asp_frames
from repro.icap import ConfigPort
from repro.icap.primitive import _swap_words
from repro.timing import make_word_corruptor


@pytest.fixture()
def setup():
    layout = make_z7020_layout()
    memory = ConfigMemory(layout)
    return layout, memory, ConfigPort(memory), BitstreamBuilder(layout)


def _build(layout, builder, region, asp=None):
    frames = encode_asp_frames(
        layout.region_frame_count(region), asp or FirFilterAsp([1, 2])
    )
    return builder.build_partial(region, frames), frames


def test_ignores_words_before_sync(setup):
    _layout, _memory, port, _builder = setup
    port.feed_words([0xFFFFFFFF, 0x12345678, 0xDEADBEEF])
    assert not port.synced
    assert port.words_consumed == 3


def test_full_bitstream_loads_region(setup):
    layout, memory, port, builder = setup
    bitstream, frames = _build(layout, builder, "RP1")
    port.feed_words(bitstream.words)
    assert port.desynced
    assert not port.has_error
    assert port.frames_committed == layout.region_frame_count("RP1")
    assert memory.region_frames("RP1") == frames


def test_pad_frame_not_committed(setup):
    """The flush pad frame must not spill into the next column."""
    layout, memory, port, builder = setup
    bitstream, _frames = _build(layout, builder, "RP1")
    port.feed_words(bitstream.words)
    # The frame just after the region must remain untouched.
    last = layout.region_frames("RP1")[-1]
    next_index = layout.frame_index(last) + 1
    assert memory.read_frame(next_index) == [0] * FRAME_WORDS


def test_crc_error_on_corrupted_payload(setup):
    layout, memory, port, builder = setup
    bitstream, _ = _build(layout, builder, "RP2")
    corrupted = bitstream.corrupted(len(bitstream.words) // 2, flip_mask=0x8)
    port.feed_words(corrupted.words)
    assert port.crc_error
    assert port.has_error


def test_idcode_mismatch_blocks_frame_writes(setup):
    layout, memory, port, builder = setup
    bitstream, _ = _build(layout, builder, "RP3")
    idcode_index = bitstream.words.index(layout.idcode)
    corrupted = bitstream.corrupted(idcode_index, flip_mask=0xF)
    port.feed_words(corrupted.words)
    assert port.idcode_error
    assert port.frames_committed == 0
    assert all(w == 0 for w in memory.region_words("RP3"))


def test_reset_clears_state(setup):
    layout, _memory, port, builder = setup
    bitstream, _ = _build(layout, builder, "RP1")
    port.feed_words(bitstream.words)
    port.reset()
    assert not port.synced
    assert not port.desynced
    assert port.frames_committed == 0
    assert port.words_consumed == 0


def _corrupted(words, freq, fmax, temp, region):
    """``words`` through the over-clock corruptor in 256-word DMA bursts."""
    corrupt = make_word_corruptor(freq, fmax, temp, region=region)
    out = []
    for start in range(0, len(words), 256):
        burst = words[start : start + 256]
        data, _flipped = corrupt(struct.pack(f">{len(burst)}I", *burst))
        out.extend(struct.unpack(f">{len(burst)}I", data))
    return out


def _write(register, count):
    return type1(OP_WRITE, int(register), count)


def _hand_built(layout):
    """Multi-word type-1 and type-2 payload runs to every kind of register."""
    first, _count = layout.region_span("RP2")
    mapped = [layout.frame_address(first + k).encode() for k in range(3)]
    beyond = 0x00FFFFFF  # row, column and minor past the layout
    bram_block = (1 << 23) | mapped[0]  # block type 1 is not mapped
    high_bits = mapped[1] | (0x3F << 26)  # bits 26-31 are not FAR fields
    idcode = layout.idcode
    frames = list(range(1, 2 * FRAME_WORDS + 6))
    frames[3] |= 1 << 33  # out of range: the port masks it to 32 bits
    head = [
        # The sync word's bytes across a word boundary: not a sync.
        SYNC_WORD >> 16, (SYNC_WORD & 0xFFFF) << 16,
        DUMMY_WORD, BUS_WIDTH_SYNC_WORD, BUS_WIDTH_DETECT_WORD, DUMMY_WORD,
        SYNC_WORD | (1 << 32),  # masks to the sync word
        NOOP_WORD,
        _write(ConfigRegister.CMD, 1), int(Command.RCRC),
        _write(ConfigRegister.IDCODE, 2), idcode, idcode,
        _write(ConfigRegister.FAR, 3),
        mapped[0], high_bits, mapped[2] | (1 << 32),
        _write(ConfigRegister.CMD, 1), int(Command.WCFG),
        _write(ConfigRegister.FDRI, 0), type2(OP_WRITE, len(frames)), *frames,
        _write(ConfigRegister.FAR, 0), type2(OP_WRITE, 5),
        mapped[2], beyond, mapped[1], bram_block, high_bits,
        _write(ConfigRegister.CMD, 3),
        int(Command.NULL), int(Command.RCRC), int(Command.WCFG),
        type1(OP_WRITE, 0x13, 3), 0xDEADBEEF, 0, 0xFFFFFFFF,  # unassigned
    ]
    reference = ConfigPort(ConfigMemory(layout))
    for word in head:
        reference.feed_word(word)
    tail = [
        _write(ConfigRegister.CRC, 2), reference.crc.value, 0x0BAD0BAD,
        _write(ConfigRegister.IDCODE, 0), type2(OP_WRITE, 2), idcode ^ 1, idcode,
        _write(ConfigRegister.FDRI, 0), type2(OP_WRITE, FRAME_WORDS),
        *frames[:FRAME_WORDS],
        # DESYNC mid-run: the rest of the CMD payload waits for a re-sync.
        _write(ConfigRegister.CMD, 3),
        int(Command.DESYNC), int(Command.NULL), int(Command.WCFG),
        NOOP_WORD, 0x12345678, 1 << 40,
        SYNC_WORD, int(Command.NULL), int(Command.RCRC),
        _write(ConfigRegister.CMD, 1), int(Command.DESYNC),
        NOOP_WORD, NOOP_WORD,
    ]
    return head + tail


def _progress(port):
    """The port fields that can be read mid-stream without side effects."""
    return {
        "flags": (
            port.synced,
            port.desynced,
            port.wcfg_active,
            port.crc_error,
            port.idcode_error,
        ),
        "packet": (
            port._last_register,
            port._payload_register,
            port._payload_remaining,
        ),
        "frame_index": port._far_index,
        "pipeline": (bytes(port._frame_buffer), port._held_frame),
        "counts": (port.frames_committed, port.words_consumed),
    }


def _port_state(port):
    """Every observable port field, and the whole configuration memory.

    Reading ``crc.value`` folds the CRC's deferred run buffer, so the
    CRC is only compared once a stream has been fed to the end.
    """
    memory = port.memory
    return {
        **_progress(port),
        "crc": (port.crc.value, port.crc.error, port.crc.words_folded),
        "memory": (
            hashlib.sha256(memory._slab).hexdigest(),
            tuple(memory._generation),
            memory.total_frame_writes,
        ),
    }


#: Feed sizes in words: a DMA burst, a size that splits every packet
#: and frame, the ICAP's 64 KiB decode batch, and the whole stream in
#: one call (None).
_FEED_SIZES = (256, 7, 16384, None)


def test_bulk_and_scalar_paths_equivalent(setup):
    """feed_words' bulk runs must match word-at-a-time feeding exactly.

    Over the clean Table-I bitstream, over that bitstream corrupted at a
    sparse (320/315 MHz) and a dense (360/315 MHz) rate — which derails
    the packet decoder into long runs to IDCODE, CMD, unassigned and
    never-synced states — over the 320 MHz @ 80 °C grid point's long
    FAR run, over hand-built runs to every kind of register and over a
    frame run past the device's last frame; in DMA bursts, 7-word
    pieces, 64 KiB batches and one call.
    """
    layout, _memory, _port, builder = setup
    table1, _ = _build(layout, builder, "RP1", WORKLOAD_ASP)
    fir = {
        region: _build(layout, builder, region)[0].words
        for region in ("RP1", "RP2", "RP3")
    }
    streams = {"clean": table1.words, "hand-built": _hand_built(layout)}
    # From the second-last frame: of the 4 frames that commit (the 5th
    # is held), 2 land and 2 run off the end.
    streams["past the device end"] = [
        SYNC_WORD,
        _write(ConfigRegister.FAR, 1),
        layout.frame_address(layout.total_frames - 2).encode(),
        _write(ConfigRegister.CMD, 1), int(Command.WCFG),
        _write(ConfigRegister.FDRI, 0), type2(OP_WRITE, 5 * FRAME_WORDS),
        *range(1, 5 * FRAME_WORDS + 1),
    ]
    for freq, temp, region in (
        (320.0, 40.0, "RP2"),
        (320.0, 65.0, "RP3"),  # long IDCODE run, mismatched
        (320.0, 80.0, "RP1"),
        (360.0, 40.0, "RP1"),  # long run to an unassigned register
        (360.0, 40.0, "RP2"),  # the sync word is lost: never syncs
        (360.0, 75.0, "RP2"),  # long CMD run, word by word
        (360.0, 100.0, "RP3"),  # IDCODE mismatch and CRC writes
    ):
        streams[f"{freq:g}/315 MHz @ {temp:g} C {region}"] = _corrupted(
            fir[region], freq, 315.0, temp, region
        )
    # The fmax the timing model gives at 80 C: a FAR run of 131 806 words.
    streams["grid 320 MHz @ 80 C"] = _corrupted(
        table1.words, 320.0, 311.22, 80.0, "RP1"
    )

    states = {}
    for name, words in streams.items():
        bursts = [size or len(words) for size in _FEED_SIZES]
        scalar = ConfigPort(ConfigMemory(layout))
        checkpoints = {}
        for offset, word in enumerate(words, 1):
            scalar.feed_word(word)
            if any(offset % burst == 0 for burst in bursts):
                checkpoints[offset] = _progress(scalar)
        states[name] = _port_state(scalar)
        for burst in bursts:
            bulk = ConfigPort(ConfigMemory(layout))
            for start in range(burst, len(words) + burst, burst):
                bulk.feed_words(words[start - burst : start])
                if start in checkpoints:  # a partial last burst is checked below
                    assert _progress(bulk) == checkpoints[start], (
                        f"{name}: after word {start} of {burst}-word bursts"
                    )
            assert _port_state(bulk) == states[name], f"{name}, {burst}-word bursts"

    assert states["clean"]["flags"] == (False, True, False, False, False)
    # The hand-built stream lands where its comments say: one frame
    # committed, the last mapped FAR word wins, the IDCODE error stays
    # latched and the CMD payload resumed after re-sync ran its RCRC.
    hand = states["hand-built"]
    assert hand["flags"] == (False, True, False, False, True)
    assert hand["counts"][0] == 1
    assert hand["frame_index"] == layout.region_span("RP2")[0] + 1
    grid = states["grid 320 MHz @ 80 C"]
    assert grid["flags"][3] and grid["counts"][0] == 0
    end = states["past the device end"]
    assert end["flags"][3] and end["counts"][0] == 2


def test_fdri_without_wcfg_is_ignored(setup):
    layout, memory, port, _builder = setup
    words = [
        SYNC_WORD,
        type1(OP_WRITE, int(ConfigRegister.FAR), 1),
        layout.region_frames("RP1")[0].encode(),
        type1(OP_WRITE, int(ConfigRegister.FDRI), 4),
        1, 2, 3, 4,
    ]
    port.feed_words(words)
    assert port.frames_committed == 0


def test_unknown_packet_type_latches_error(setup):
    _layout, _memory, port, _builder = setup
    port.feed_words([SYNC_WORD, 0x60000001])  # type-3 header
    assert port.crc_error


def test_far_beyond_device_flags_error(setup):
    layout, _memory, port, _builder = setup
    words = [
        SYNC_WORD,
        type1(OP_WRITE, int(ConfigRegister.CMD), 1),
        int(Command.WCFG),
        type1(OP_WRITE, int(ConfigRegister.FAR), 1),
        0x00FFFFFF,  # far outside the layout
        type1(OP_WRITE, int(ConfigRegister.FDRI), 0),
    ]
    port.feed_words(words)
    assert port.crc_error


@pytest.mark.parametrize("pattern", ["mmuu", "umu", "uuu", "mmm"])
def test_far_run_takes_its_last_mapped_word(setup, pattern):
    """In a FAR run, any unmapped word latches ``crc_error`` and the last
    mapped word sets the frame index, wherever the two sit in the run:
    word by word, through the bulk path and through the byte path."""
    layout, _memory, _port, _builder = setup
    first, _count = layout.region_span("RP2")
    run = [
        layout.frame_address(first + k).encode() if kind == "m" else 0x00FFFFFF
        for k, kind in enumerate(pattern)
    ]
    words = [SYNC_WORD, _write(ConfigRegister.FAR, 0), type2(OP_WRITE, len(run)), *run]
    scalar, bulk, packed = (ConfigPort(ConfigMemory(layout)) for _ in range(3))
    for word in words:
        scalar.feed_word(word)
    bulk.feed_words(words)
    packed.feed_bytes(struct.pack(f">{len(words)}I", *words))
    mapped = [first + k for k, kind in enumerate(pattern) if kind == "m"]
    for port in (scalar, bulk, packed):
        assert port._far_index == (mapped[-1] if mapped else None)
        assert port.crc_error == ("u" in pattern)
        assert port.crc.value == scalar.crc.value


def test_rcrc_clears_crc_error(setup):
    _layout, _memory, port, _builder = setup
    port.feed_words([SYNC_WORD, 0x60000001])  # latch an error
    assert port.crc_error
    port.feed_words([type1(OP_WRITE, int(ConfigRegister.CMD), 1), int(Command.RCRC)])
    assert not port.crc_error


def test_byte_path_matches_feed_words(setup):
    """feed_bytes on big-endian burst bytes (the DMA's stream payload)
    matches feed_words on the same bursts, burst by burst: whole-burst
    FDRI runs through the byteswapped copy, headers and other registers
    word by word, runs shorter than the CRC's cached block, the ICAP's
    64 KiB batches and the whole stream in one call."""
    layout, _memory, _port, builder = setup
    table1, _ = _build(layout, builder, "RP1", WORKLOAD_ASP)
    fir = _build(layout, builder, "RP2")[0].words
    streams = {
        "clean": table1.words,
        # Bytes carry 32 bits: the port masks wider words the same way.
        "hand-built": [word & 0xFFFFFFFF for word in _hand_built(layout)],
        "corrupted": [
            word & 0xFFFFFFFF
            for word in _corrupted(fir, 360.0, 315.0, 100.0, "RP3")
        ],
    }
    for name, words in streams.items():
        for burst in (size or len(words) for size in _FEED_SIZES):
            by_words = ConfigPort(ConfigMemory(layout))
            by_bytes = ConfigPort(ConfigMemory(layout))
            for start in range(0, len(words), burst):
                chunk = words[start : start + burst]
                by_words.feed_words(chunk)
                by_bytes.feed_bytes(struct.pack(f">{len(chunk)}I", *chunk))
                assert _progress(by_bytes) == _progress(by_words), (
                    f"{name}: burst at word {start} of {burst}-word bursts"
                )
            assert _port_state(by_bytes) == _port_state(by_words), name


def test_byte_path_rejects_a_partial_word(setup):
    """A ragged tail is refused before anything is decoded, even inside
    a payload run."""
    layout, _memory, port, _builder = setup
    port.feed_words([SYNC_WORD, _write(ConfigRegister.FDRI, 4)])
    state = _port_state(port)
    with pytest.raises(ValueError, match="6 bytes"):
        port.feed_bytes(bytes(6))
    assert _port_state(port) == state


def test_swap_words_is_host_independent():
    """The FDRI byteswap turns big-endian packed words into little-endian
    ones whatever the host's byte order: it is checked against explicit
    byte orders, not the native one."""
    words = [0x01020304, 0xFFFFFFFF, 0, 0xAA995566, 0x80000001]
    big = struct.pack(f">{len(words)}I", *words)
    little = struct.pack(f"<{len(words)}I", *words)
    assert _swap_words(big) == little
    assert _swap_words(little) == big
    assert _swap_words(b"") == b""
