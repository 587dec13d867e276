"""Tests for the configuration CRC."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitstream import ConfigCrc, crc32c_bytes, crc32c_words


def test_crc32c_known_vector():
    # Standard CRC-32C check value for "123456789".
    assert crc32c_bytes(b"123456789") == 0xE3069283


def test_crc32c_empty():
    assert crc32c_bytes(b"") == 0


def test_crc32c_words_matches_bytes_little_endian():
    words = [0x11223344, 0xAABBCCDD]
    data = b"\x44\x33\x22\x11\xdd\xcc\xbb\xaa"
    assert crc32c_words(words) == crc32c_bytes(data)


def test_config_crc_starts_clean():
    crc = ConfigCrc()
    assert crc.value == 0
    assert not crc.error


def test_config_crc_update_changes_value():
    crc = ConfigCrc()
    crc.update(2, 0xDEADBEEF)
    assert crc.value != 0
    assert crc.words_folded == 1


def test_config_crc_check_match_resets():
    crc = ConfigCrc()
    crc.update(1, 0x12345678)
    expected = crc.value
    assert crc.check(expected) is True
    assert crc.value == 0
    assert not crc.error


def test_config_crc_check_mismatch_latches_error():
    crc = ConfigCrc()
    crc.update(1, 0x12345678)
    assert crc.check(0xBAD) is False
    assert crc.error
    crc.reset()
    assert not crc.error


def test_config_crc_order_sensitivity():
    a = ConfigCrc()
    a.update(1, 0x1)
    a.update(2, 0x2)
    b = ConfigCrc()
    b.update(2, 0x2)
    b.update(1, 0x1)
    assert a.value != b.value


def test_config_crc_address_sensitivity():
    a = ConfigCrc()
    a.update(1, 0x1234)
    b = ConfigCrc()
    b.update(2, 0x1234)
    assert a.value != b.value


def test_config_crc_rejects_bad_inputs():
    crc = ConfigCrc()
    with pytest.raises(ValueError):
        crc.update(32, 0)
    with pytest.raises(ValueError):
        crc.update(0, 1 << 32)


@settings(max_examples=100, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=31),
            st.integers(min_value=0, max_value=0xFFFFFFFF),
        ),
        min_size=1,
        max_size=64,
    )
)
def test_property_deterministic(pairs):
    assert _reference_crc(pairs) == _reference_crc(pairs)


@settings(max_examples=100, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=31),
            st.integers(min_value=0, max_value=0xFFFFFFFF),
        ),
        min_size=1,
        max_size=32,
    ),
    flip_index=st.integers(min_value=0, max_value=1 << 30),
    flip_bit=st.integers(min_value=0, max_value=31),
)
def test_property_single_word_corruption_detected(pairs, flip_index, flip_bit):
    """Any single-bit flip in any data word changes the CRC."""
    index = flip_index % len(pairs)
    corrupted = list(pairs)
    addr, word = corrupted[index]
    corrupted[index] = (addr, word ^ (1 << flip_bit))
    assert _reference_crc(pairs) != _reference_crc(corrupted)


# -- packed fast paths -------------------------------------------------------

def _reference_crc(pairs):
    """Word-at-a-time reference (the original slow path)."""
    crc = ConfigCrc()
    for addr, word in pairs:
        crc.update(addr, word)
    return crc.value


def test_update_run_buffered_fold_matches_word_at_a_time():
    """The deferred run buffer (block folds + flush) is bit-exact."""
    import struct

    rng = __import__("random").Random(99)
    crc = ConfigCrc()
    pairs = []
    # Several runs of varying lengths: below the fast-path threshold,
    # exactly one block, multiple blocks, and a straggling tail.
    for addr, count in ((2, 5), (2, 256), (2, 777), (13, 300), (2, 16)):
        words = [rng.getrandbits(32) for _ in range(count)]
        packed = struct.pack(f"<{count}I", *words)
        crc.update_run(addr, words, packed=packed)
        pairs += [(addr, w) for w in words]
        if count == 777:
            # Interleave a single-word update mid-buffer: forces a flush
            # of the partial run and exercises the buffer boundary.
            crc.update(7, 0xDEAD)
            pairs.append((7, 0xDEAD))
    assert crc.value == _reference_crc(pairs)


def test_numpy_run_constants_match_scalar():
    """Vectorised run-block constants == scalar slicing-by-20 folds."""
    import struct

    from repro.bitstream import crc as crc_mod

    if crc_mod._np is None:
        pytest.skip("numpy unavailable")
    rng = __import__("random").Random(7)
    # Full run blocks, then blocks of an odd word count (a segment tail).
    for block_bytes in (crc_mod._RUN_BLOCK_BYTES, 4 * 333):
        blocks = [
            bytes(rng.getrandbits(8) for _ in range(block_bytes))
            for _ in range(10)
        ]
        addr = 2
        expected = [
            crc_mod._fold_raw(
                0, struct.unpack(f"<{len(block) // 4}I", block), addr
            )
            for block in blocks
        ]
        assert crc_mod._constants_numpy(blocks, addr) == expected


def test_numpy_chunk_constants_match_scalar():
    """Vectorised chunk constants == scalar folds (odd counts + tails)."""
    import struct

    from repro.bitstream import crc as crc_mod

    if crc_mod._np is None:
        pytest.skip("numpy unavailable")
    rng = __import__("random").Random(11)
    for word_count in (101, 64, 3232):  # odd + tail, power of two, frame chunk
        chunks = [
            bytes(rng.getrandbits(8) for _ in range(word_count * 4))
            for _ in range(9)
        ]
        expected = [
            crc_mod._fold_raw(
                0, struct.unpack(f"<{word_count}I", chunk)
            )
            for chunk in chunks
        ]
        assert crc_mod._constants_numpy(chunks, None) == expected


def test_crc32c_packed_identical_with_and_without_numpy(monkeypatch):
    """The batch miss path is a pure accelerator for crc32c_packed."""
    from repro.bitstream import crc as crc_mod

    rng = __import__("random").Random(23)
    chunks = [
        bytes(rng.getrandbits(8) for _ in range(404))
        for _ in range(12)
    ]
    joined = crc32c_bytes(b"".join(chunks))

    crc_mod._CONSTANTS.clear()
    with_numpy = crc_mod.crc32c_packed(iter(chunks))

    crc_mod._CONSTANTS.clear()
    monkeypatch.setattr(crc_mod, "_np", None)
    without_numpy = crc_mod.crc32c_packed(iter(chunks))
    crc_mod._CONSTANTS.clear()

    assert with_numpy == without_numpy == joined
