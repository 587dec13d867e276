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


@pytest.mark.parametrize("numpy", [True, False])
@pytest.mark.parametrize("seed", range(6))
def test_deferred_fold_run_matches_word_at_a_time(monkeypatch, seed, numpy):
    """Uncached runs wait in the pending buffer and fold in bulk; the
    value, the check verdicts and the error flag are those of per-word
    :meth:`ConfigCrc.update`, whatever comes between the runs."""
    import random
    import struct

    from repro.bitstream import crc as crc_mod

    if not numpy:
        monkeypatch.setattr(crc_mod, "_np", None)
    elif crc_mod._np is None:
        pytest.skip("numpy unavailable")
    rng = random.Random(seed)
    crc, reference = ConfigCrc(), ConfigCrc()
    # Lengths around a run block, and past the bulk and flush bounds.
    lengths = [1, 5, 15, 16, 255, 256, 257, 2100, 17000]
    for _ in range(40):
        op = rng.choice(
            ["fold", "fold", "fold", "cached", "update", "value", "check", "reset"]
        )
        if op in ("fold", "cached"):
            addr = rng.choice([2, 2, 1, 13, 30])
            words = [rng.getrandbits(32) for _ in range(rng.choice(lengths))]
            packed = struct.pack(f"<{len(words)}I", *words)
            if op == "fold":
                crc.fold_run(addr, packed)
            else:
                crc.update_run(addr, words)
            for word in words:
                reference.update(addr, word)
        elif op == "update":
            addr, word = rng.randrange(32), rng.getrandbits(32)
            crc.update(addr, word)
            reference.update(addr, word)
        elif op == "value":
            assert crc.value == reference.value
        elif op == "check":
            expected = reference.value if rng.random() < 0.5 else rng.getrandbits(32)
            assert crc.check(expected) == reference.check(expected)
            assert crc.error == reference.error
        else:
            crc.reset()
            reference.reset()
        assert crc.words_folded == reference.words_folded
    assert crc.value == reference.value
    assert crc.error == reference.error


def test_fold_run_pending_is_bounded_and_never_cached(monkeypatch):
    """Burst-sized uncached pieces fold at the pending bound, and none of
    their content enters the content cache, even after a cached run to
    the same register."""
    import random
    import struct
    from collections import OrderedDict

    from repro.bitstream import crc as crc_mod

    monkeypatch.setattr(crc_mod, "_CONSTANTS", OrderedDict())
    rng = random.Random(3)
    crc, reference = ConfigCrc(), ConfigCrc()
    cached = [rng.getrandbits(32) for _ in range(300)]
    crc.update_run(13, cached)
    for word in cached:
        reference.update(13, word)
    for _ in range(300):
        words = [rng.getrandbits(32) for _ in range(256)]
        crc.fold_run(13, struct.pack("<256I", *words))
        assert len(crc._run_buf) < crc_mod._UNCACHED_FLUSH_BYTES
        for word in words:
            reference.update(13, word)
    assert crc.value == reference.value
    packed = struct.pack("<300I", *cached)
    assert set(crc_mod._CONSTANTS) == {(13, packed[:1024]), (13, packed[1024:])}
