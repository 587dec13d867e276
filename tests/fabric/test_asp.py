"""Tests for ASP functional models and their frame encoding."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitstream import FRAME_WORDS, crc32c_words
from repro.fabric import (
    Aes128Asp,
    AspDecodeError,
    AspKind,
    Crc32Asp,
    FirFilterAsp,
    MatMulAsp,
    PassthroughAsp,
    decode_asp,
    encode_asp_frames,
    instantiate_asp,
)


# ------------------------------------------------------------- functional ----
def test_passthrough_identity():
    asp = PassthroughAsp()
    assert asp.process([1, 2, 3]) == [1, 2, 3]
    assert asp.name == "passthrough"


def test_fir_impulse_response_is_coefficients():
    coeffs = [3, -2, 5]
    asp = FirFilterAsp(coeffs)
    impulse = [1, 0, 0, 0, 0]
    out = asp.process(impulse)
    assert out[:3] == [3, (-2) & 0xFFFFFFFF, 5]
    assert out[3:] == [0, 0]


def test_fir_linearity():
    asp = FirFilterAsp([1, 1])
    assert asp.process([1, 2, 3]) == [1, 3, 5]


def test_fir_requires_coefficients():
    with pytest.raises(ValueError):
        FirFilterAsp([])


def test_aes_fips197_vector():
    key = [0x00010203, 0x04050607, 0x08090A0B, 0x0C0D0E0F]
    plaintext = [0x00112233, 0x44556677, 0x8899AABB, 0xCCDDEEFF]
    expected = [0x69C4E0D8, 0x6A7B0430, 0xD8CDB780, 0x70B4C55A]
    assert Aes128Asp(key).process(plaintext) == expected


def test_aes_multiple_blocks():
    key = [0, 0, 0, 0]
    out = Aes128Asp(key).process([0] * 8)
    assert len(out) == 8
    assert out[:4] == out[4:]  # ECB: identical blocks encrypt identically


def test_aes_key_changes_output():
    plaintext = [1, 2, 3, 4]
    a = Aes128Asp([0, 0, 0, 0]).process(plaintext)
    b = Aes128Asp([0, 0, 0, 1]).process(plaintext)
    assert a != b


def test_aes_input_validation():
    with pytest.raises(ValueError):
        Aes128Asp([1, 2, 3])
    with pytest.raises(ValueError):
        Aes128Asp([0, 0, 0, 0]).process([1, 2, 3])


def test_matmul_identity():
    asp = MatMulAsp(2)
    identity = [1, 0, 0, 1]
    b = [5, 6, 7, 8]
    assert asp.process(identity + b) == b


def test_matmul_known_product():
    asp = MatMulAsp(2)
    a = [1, 2, 3, 4]
    b = [5, 6, 7, 8]
    assert asp.process(a + b) == [19, 22, 43, 50]


def test_matmul_validation():
    with pytest.raises(ValueError):
        MatMulAsp(0)
    with pytest.raises(ValueError):
        MatMulAsp(2).process([1, 2, 3])


def test_crc32_asp_matches_reference():
    words = [0xDEADBEEF, 0x12345678]
    assert Crc32Asp().process(words) == [crc32c_words(words)]


# ----------------------------------------------------------- frame coding ----
@pytest.mark.parametrize(
    "asp",
    [
        PassthroughAsp(),
        FirFilterAsp([1, -5, 9, 2]),
        Aes128Asp([0xA, 0xB, 0xC, 0xD]),
        MatMulAsp(4),
        Crc32Asp(),
    ],
    ids=lambda a: a.name,
)
def test_encode_decode_roundtrip(asp):
    frames = encode_asp_frames(50, asp)
    assert len(frames) == 50
    assert all(len(frame) == FRAME_WORDS for frame in frames)
    kind, params = decode_asp(frames)
    assert kind == asp.kind
    assert params == asp.params()
    rebuilt = instantiate_asp(kind, params)
    assert rebuilt.name == asp.name
    # Behaviour survives the round trip.
    probe = [1, 2, 3, 4] * 8 if kind == AspKind.MATMUL else [9, 8, 7, 6]
    assert rebuilt.process(probe) == asp.process(probe)


def test_encoded_frames_differ_between_asps():
    a = encode_asp_frames(10, FirFilterAsp([1, 2, 3]))
    b = encode_asp_frames(10, Aes128Asp([1, 2, 3, 4]))
    assert a != b


def test_encoding_is_deterministic():
    asp = FirFilterAsp([4, 5])
    assert encode_asp_frames(20, asp) == encode_asp_frames(20, asp)


def test_blank_region_decodes_to_none():
    frames = [[0] * FRAME_WORDS for _ in range(5)]
    assert decode_asp(frames) is None


def test_garbage_region_raises():
    frames = [[0xBADC0FFE] * FRAME_WORDS for _ in range(5)]
    with pytest.raises(AspDecodeError):
        decode_asp(frames)


def test_unknown_kind_rejected():
    frames = encode_asp_frames(5, PassthroughAsp())
    frames[0][1] = 99  # nonexistent kind
    with pytest.raises(AspDecodeError):
        decode_asp(frames)
    with pytest.raises(AspDecodeError):
        instantiate_asp(99, [])


def test_bad_parameter_blocks_rejected():
    with pytest.raises(AspDecodeError):
        instantiate_asp(AspKind.FIR_FILTER, [5, 1, 2])  # count mismatch
    with pytest.raises(AspDecodeError):
        instantiate_asp(AspKind.AES128, [1, 2])
    with pytest.raises(AspDecodeError):
        instantiate_asp(AspKind.MATMUL, [])


def test_fill_density_is_sparse_but_nonzero():
    frames = encode_asp_frames(100, Aes128Asp([1, 2, 3, 4]))
    words = [w for frame in frames for w in frame]
    nonzero = sum(1 for w in words if w)
    assert 0.05 < nonzero / len(words) < 0.5


@settings(max_examples=30, deadline=None)
@given(
    coeffs=st.lists(
        st.integers(min_value=-(2**15), max_value=2**15), min_size=1, max_size=16
    ),
    frame_count=st.integers(min_value=2, max_value=30),
)
def test_property_fir_roundtrip(coeffs, frame_count):
    asp = FirFilterAsp(coeffs)
    kind, params = decode_asp(encode_asp_frames(frame_count, asp))
    rebuilt = instantiate_asp(kind, params)
    samples = [1, -1, 2, -2, 3]
    assert rebuilt.process(samples) == asp.process(samples)


def test_sha256_matches_hashlib():
    import hashlib

    from repro.fabric import Sha256Asp

    words = [0x61626364, 0x65666768]  # "abcdefgh"
    out = Sha256Asp().process(words)
    expected = hashlib.sha256(b"abcdefgh").digest()
    assert b"".join(w.to_bytes(4, "big") for w in out) == expected
    assert len(out) == 8


def test_sha256_roundtrip_through_frames():
    from repro.fabric import Sha256Asp

    asp = Sha256Asp()
    kind, params = decode_asp(encode_asp_frames(10, asp))
    rebuilt = instantiate_asp(kind, params)
    assert rebuilt.process([1, 2, 3]) == asp.process([1, 2, 3])


def test_vector_scale_behaviour_and_roundtrip():
    from repro.fabric import VectorScaleAsp

    asp = VectorScaleAsp(scale=7, offset=100)
    assert asp.process([0, 1, 2]) == [100, 107, 114]
    # Arithmetic wraps modulo 2^32 (fixed-point hardware datapath).
    assert asp.process([0xFFFFFFFF]) == [(0xFFFFFFFF * 7 + 100) & 0xFFFFFFFF]
    kind, params = decode_asp(encode_asp_frames(5, asp))
    rebuilt = instantiate_asp(kind, params)
    assert rebuilt.process([3]) == asp.process([3])


def test_vector_scale_bad_params_rejected():
    with pytest.raises(AspDecodeError):
        instantiate_asp(AspKind.VECTOR_SCALE, [1])


def test_numpy_fill_matches_scalar_loop(monkeypatch):
    """The vectorised fill is bit-identical to the scalar xorshift loop.

    Every region's frame count (RP1–RP4), plus the smallest region the
    vectorised fill takes (41 frames is the first above 4,096 words).
    """
    from repro.bitstream import make_z7020_layout
    from repro.fabric import VectorScaleAsp
    from repro.fabric import asp as asp_mod

    if asp_mod._np is None:
        pytest.skip("numpy unavailable")
    layout = make_z7020_layout()
    counts = {layout.region_frame_count(name) for name in layout.regions} | {41}
    asps = [FirFilterAsp([3, -1, 4]), Aes128Asp([5, 6, 7, 8]), VectorScaleAsp(3, 11)]

    def encode_all():
        monkeypatch.setattr(asp_mod, "_ENCODE_PACKED_CACHE", OrderedDict())
        return [
            asp_mod.encode_asp_packed(count, asp)
            for count in sorted(counts)
            for asp in asps
        ]

    vectorised = encode_all()
    monkeypatch.setattr(asp_mod, "_np", None)
    assert encode_all() == vectorised


def test_encode_memo_is_a_bounded_lru(monkeypatch):
    """The encode memo never holds more than its bound: the least
    recently used region goes first, and a hit refreshes its entry."""
    from repro.fabric import asp as asp_mod

    monkeypatch.setattr(asp_mod, "_ENCODE_PACKED_CACHE", OrderedDict())
    memo, bound = asp_mod._ENCODE_PACKED_CACHE, asp_mod._ENCODE_PACKED_MAX
    asps = [FirFilterAsp([k]) for k in range(2 * bound)]
    keys = [(4, asp.kind, tuple(asp.params())) for asp in asps]
    encoded = asp_mod.encode_asp_packed(4, asps[0])
    for asp in asps[1:]:
        asp_mod.encode_asp_packed(4, asp)
        assert asp_mod.encode_asp_packed(4, asps[0]) is encoded  # kept warm
        assert len(memo) <= bound
    assert list(memo) == keys[bound + 1 :] + keys[:1]
