"""Application-Specific Processors (ASPs) and their frame encoding.

The paper's motivation is swapping ASPs — crypto engines, filters, etc. —
into reconfigurable partitions on demand.  In this reproduction the ASPs
are *functional*: the frames written into a partition encode which ASP it
implements and its parameters, and :func:`decode_asp` +
:func:`instantiate_asp` turn the partition's configuration memory back
into an executable model.  Reconfiguring a region really changes what it
computes, which the integration tests verify end to end.

Frame encoding (region frame 0):

====  ===========================================
word  meaning
====  ===========================================
0     ``ASP_MAGIC`` (0x41535031, "ASP1")
1     ASP kind id (:class:`AspKind`)
2     parameter word count ``P``
3..   ``P`` parameter words (may spill into subsequent frames)
====  ===========================================

Remaining frame words carry deterministic pseudo-random "routing/LUT"
content derived from the parameters, so different ASPs produce genuinely
different (and realistically compressible) bitstreams.
"""

from __future__ import annotations

import functools
import struct
from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

from ..bitstream.crc import crc32c_words, op_power
from ..bitstream.device import FRAME_WORDS

__all__ = [
    "ASP_MAGIC",
    "AspKind",
    "Asp",
    "PassthroughAsp",
    "FirFilterAsp",
    "Aes128Asp",
    "MatMulAsp",
    "Crc32Asp",
    "encode_asp_frames",
    "encode_asp_packed",
    "decode_asp",
    "instantiate_asp",
    "AspDecodeError",
]

ASP_MAGIC = 0x41535031  # "ASP1"

_MASK32 = 0xFFFFFFFF


class AspDecodeError(ValueError):
    """The region's frames do not contain a well-formed ASP header."""


class AspKind:
    """ASP kind identifiers carried in the configuration frames."""

    PASSTHROUGH = 0
    FIR_FILTER = 1
    AES128 = 2
    MATMUL = 3
    CRC32 = 4
    SHA256 = 5
    VECTOR_SCALE = 6

    NAMES = {
        PASSTHROUGH: "passthrough",
        FIR_FILTER: "fir-filter",
        AES128: "aes-128",
        MATMUL: "matmul",
        CRC32: "crc32",
        SHA256: "sha-256",
        VECTOR_SCALE: "vector-scale",
    }


class Asp:
    """Base class: a functional model with a word-stream interface."""

    kind: int = -1

    def process(self, words: Sequence[int]) -> List[int]:
        raise NotImplementedError

    @property
    def name(self) -> str:
        return AspKind.NAMES.get(self.kind, f"kind{self.kind}")

    def params(self) -> List[int]:
        """Parameter words as encoded into the configuration frames."""
        raise NotImplementedError


class PassthroughAsp(Asp):
    """Identity datapath (useful as a 'blank but valid' configuration)."""

    kind = AspKind.PASSTHROUGH

    def process(self, words: Sequence[int]) -> List[int]:
        return [w & _MASK32 for w in words]

    def params(self) -> List[int]:
        return []


class FirFilterAsp(Asp):
    """Integer FIR filter: y[n] = sum_k c[k] * x[n-k].

    Coefficients and samples are 32-bit two's-complement words; outputs are
    truncated back to 32 bits (as a fixed-point hardware datapath would).
    """

    kind = AspKind.FIR_FILTER

    def __init__(self, coefficients: Sequence[int]):
        if not coefficients:
            raise ValueError("FIR filter needs at least one coefficient")
        self.coefficients = [int(c) for c in coefficients]

    @staticmethod
    def _signed(word: int) -> int:
        word &= _MASK32
        return word - (1 << 32) if word & 0x80000000 else word

    def process(self, words: Sequence[int]) -> List[int]:
        samples = [self._signed(w) for w in words]
        out = []
        for n in range(len(samples)):
            acc = 0
            for k, coeff in enumerate(self.coefficients):
                if n - k < 0:
                    break
                acc += self._signed(coeff) * samples[n - k]
            out.append(acc & _MASK32)
        return out

    def params(self) -> List[int]:
        return [len(self.coefficients)] + [c & _MASK32 for c in self.coefficients]


class Aes128Asp(Asp):
    """AES-128 ECB encryption engine (the paper's 'crypto engine' ASP).

    The key is the four parameter words; :meth:`process` consumes multiples
    of four words (16-byte blocks) and returns the encrypted blocks.
    """

    kind = AspKind.AES128

    def __init__(self, key_words: Sequence[int]):
        if len(key_words) != 4:
            raise ValueError("AES-128 key must be exactly 4 words")
        self.key_words = [k & _MASK32 for k in key_words]
        key = b"".join(k.to_bytes(4, "big") for k in self.key_words)
        self._round_keys = _aes_key_schedule(key)

    def process(self, words: Sequence[int]) -> List[int]:
        if len(words) % 4:
            raise ValueError("AES input must be a multiple of 4 words")
        out: List[int] = []
        for i in range(0, len(words), 4):
            block = b"".join((w & _MASK32).to_bytes(4, "big") for w in words[i : i + 4])
            cipher = _aes_encrypt_block(block, self._round_keys)
            out.extend(
                int.from_bytes(cipher[j : j + 4], "big") for j in range(0, 16, 4)
            )
        return out

    def params(self) -> List[int]:
        return list(self.key_words)


class MatMulAsp(Asp):
    """n×n integer matrix multiply: input is A then B row-major, output A·B."""

    kind = AspKind.MATMUL

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("matrix dimension must be >= 1")
        self.n = int(n)

    def process(self, words: Sequence[int]) -> List[int]:
        n = self.n
        if len(words) != 2 * n * n:
            raise ValueError(f"matmul({n}) needs {2 * n * n} input words")
        a = [words[i * n : (i + 1) * n] for i in range(n)]
        b = [words[n * n + i * n : n * n + (i + 1) * n] for i in range(n)]
        out = []
        for i in range(n):
            for j in range(n):
                out.append(sum(a[i][k] * b[k][j] for k in range(n)) & _MASK32)
        return out

    def params(self) -> List[int]:
        return [self.n]


class Crc32Asp(Asp):
    """CRC-32C offload engine: digests the whole input into one word."""

    kind = AspKind.CRC32

    def process(self, words: Sequence[int]) -> List[int]:
        return [crc32c_words([w & _MASK32 for w in words])]

    def params(self) -> List[int]:
        return []


class Sha256Asp(Asp):
    """SHA-256 hash engine: digests the word stream into eight words.

    Words are hashed in big-endian byte order (the natural AXI-Stream
    framing for a hardware hash core).
    """

    kind = AspKind.SHA256

    def process(self, words: Sequence[int]) -> List[int]:
        import hashlib

        data = b"".join((w & _MASK32).to_bytes(4, "big") for w in words)
        digest = hashlib.sha256(data).digest()
        return [int.from_bytes(digest[i : i + 4], "big") for i in range(0, 32, 4)]

    def params(self) -> List[int]:
        return []


class VectorScaleAsp(Asp):
    """Fixed-point vector scale-and-offset: y = (a * x + b) mod 2^32.

    The simplest useful streaming datapath (gain + bias), configured by
    two parameter words.
    """

    kind = AspKind.VECTOR_SCALE

    def __init__(self, scale: int, offset: int = 0):
        self.scale = int(scale) & _MASK32
        self.offset = int(offset) & _MASK32

    def process(self, words: Sequence[int]) -> List[int]:
        return [((w & _MASK32) * self.scale + self.offset) & _MASK32 for w in words]

    def params(self) -> List[int]:
        return [self.scale, self.offset]


# --------------------------------------------------------------------------
# Frame encode / decode
# --------------------------------------------------------------------------
def _xorshift32(state: int) -> int:
    state &= _MASK32
    state ^= (state << 13) & _MASK32
    state ^= state >> 17
    state ^= (state << 5) & _MASK32
    return state & _MASK32


try:  # optional: vectorised walk when numpy is present (bit-identical)
    import numpy as _np
except ImportError:  # pragma: no cover - depends on environment
    _np = None


#: Squarings of the xorshift32 step, grown by :func:`op_power`: the step
#: is linear over GF(2), so ``k`` steps compose into one 32x32 bit matrix.
_XS_SQUARINGS = [[_xorshift32(1 << b) for b in range(32)]]

#: Below this many words the scalar walk beats the vectorised one.
_WALK_NUMPY_MIN_WORDS = 4096
#: The vectorised walk advances this many streams (a power of two) in
#: lock-step.
_WALK_STREAMS = 2048


@functools.lru_cache(maxsize=64)
def _xs_jump(steps: int):
    """numpy lookup tables advancing xorshift32 states by ``steps`` steps."""
    return tuple(
        _np.array(table, dtype=_np.uint32)
        for table in op_power(_XS_SQUARINGS, steps)
    )


def xorshift_walk(state: int, count: int, keep: int, below: int):
    """Masks for ``count`` words from the xorshift32 walk at ``state``.

    Each word takes one xorshift32 step; if the new state passes the test
    ``state & keep < below``, the word takes a second step and its mask
    is that state (never 0: xorshift32 maps no nonzero state to 0),
    otherwise its mask is 0.  The ASP fill (``keep=3, below=1``: a
    state divisible by 4) and the over-clock corruptor (``keep`` all
    ones, ``below`` its threshold) both walk this way.

    Returns ``(masks, state)``: a numpy ``uint32`` array when the
    vectorised walk ran, else a list, and the state after the last word,
    from which a later call continues the walk.
    """
    if _np is not None and count >= _WALK_NUMPY_MIN_WORDS:
        return _walk_numpy(state, count, keep, below)
    masks = [0] * count
    mask32 = _MASK32  # localise: three global loads per step add ~20 %
    # The xorshift steps are inlined: a call per step doubles the cost.
    for i in range(count):
        state ^= (state << 13) & mask32
        state ^= state >> 17
        state = (state ^ (state << 5)) & mask32
        if state & keep < below:
            state ^= (state << 13) & mask32
            state ^= state >> 17
            state = (state ^ (state << 5)) & mask32
            masks[i] = state
    return masks, state


def _walk_numpy(state: int, count: int, keep: int, below: int):
    """Vectorised :func:`xorshift_walk`.

    The orbit is generated as parallel streams — seeded via a jump
    operator, advanced in lock-step — and the data-dependent
    consume-1-or-2 pattern is resolved without a scalar loop.  A word
    whose state passes the test takes the next state as its mask, so
    that state is never tested: within a run of consecutive passing
    states the first, third, ... are tested (*triggers*), and a trigger
    at walk position ``p`` is word ``p`` minus the triggers before it.
    """
    m = 2 * count + 1  # the start, and at most two states per word
    streams = _WALK_STREAMS
    length = -(-m // streams)
    # Stream j starts j * length steps in: double the seeded streams by
    # jumping the ones so far ahead by their combined length.
    starts = _np.array([state], dtype=_np.uint32)
    span = length
    while starts.size < streams:
        j0, j1, j2, j3 = _xs_jump(span)
        ahead = j0[starts & 0xFF] ^ j1[(starts >> 8) & 0xFF]
        ahead ^= j2[(starts >> 16) & 0xFF] ^ j3[starts >> 24]
        starts = _np.concatenate((starts, ahead))
        span *= 2
    orbit = _np.empty((length, streams), dtype=_np.uint32)
    orbit[0] = starts
    for t in range(1, length):
        x = orbit[t - 1]
        y = x ^ (x << 13)
        y ^= y >> 17
        y ^= y << 5
        orbit[t] = y
    walk = orbit.T.reshape(-1)[1:m]  # the first word tests f(start)

    passing = (walk & keep) < below
    # Runs of consecutive passing states, by their first and last state.
    rise = passing.copy()
    rise[1:] &= ~passing[:-1]
    fall = passing.copy()
    fall[:-1] &= ~passing[1:]
    first = _np.flatnonzero(rise)
    per_run = (_np.flatnonzero(fall) - first + 2) >> 1  # triggers per run
    # Trigger t of a run holding triggers b.. sits at first + 2 (t - b).
    offset = _np.repeat(first - 2 * (_np.cumsum(per_run) - per_run), per_run)
    triggers = offset + 2 * _np.arange(offset.size)
    trigger_words = triggers - _np.arange(triggers.size)
    hits = int(_np.searchsorted(trigger_words, count))
    masks = _np.zeros(count, dtype=_np.uint32)
    masks[trigger_words[:hits]] = walk[triggers[:hits] + 1]
    # The last word tests the state at count - 1 plus the triggers before
    # it, and ends on the state after that when it is a trigger itself.
    before = int(_np.searchsorted(trigger_words, count - 1))
    last = count - 1 + before + (before < hits)
    return masks, int(walk[last])


#: Encoded regions by ``(frame count, kind, parameters)``, a bounded
#: LRU: each Z-7020 region encodes to 0.53 MB.  The bound covers the
#: fleet's 15 ASPs (5 kinds x 3 parameter choices); content that is new
#: on every load (perfbench ``fresh_content``) only cycles through it.
_ENCODE_PACKED_CACHE: "OrderedDict[tuple, bytes]" = OrderedDict()
_ENCODE_PACKED_MAX = 16


def encode_asp_packed(frame_count: int, asp: Asp) -> bytes:
    """Frames for a region of ``frame_count`` frames implementing ``asp``,
    as one packed little-endian byte string.

    Frame 0 carries the header and parameters; the rest is deterministic
    pseudo-random fill (~25 % non-zero) seeded by the parameters, standing
    in for LUT/routing configuration.  This is the byte form the
    configuration-memory slab stores; results are memoised.
    """
    params = asp.params()
    cache_key = (frame_count, asp.kind, tuple(params))
    cached = _ENCODE_PACKED_CACHE.get(cache_key)
    if cached is not None:
        _ENCODE_PACKED_CACHE.move_to_end(cache_key)
        return cached
    header = [ASP_MAGIC, asp.kind, len(params)] + [p & _MASK32 for p in params]
    if len(header) > frame_count * FRAME_WORDS:
        raise ValueError("parameters do not fit in the region")

    words_total = frame_count * FRAME_WORDS
    # Deterministic sparse fill after the header region.
    seed = crc32c_words([asp.kind] + params) or 0xDEADBEEF
    fill, _state = xorshift_walk(seed, words_total - len(header), 3, 1)
    if isinstance(fill, list):
        fill = struct.pack(f"<{len(fill)}I", *fill)
    else:
        fill = fill.astype("<u4").tobytes()
    packed = struct.pack(f"<{len(header)}I", *header) + fill
    _ENCODE_PACKED_CACHE[cache_key] = packed
    if len(_ENCODE_PACKED_CACHE) > _ENCODE_PACKED_MAX:
        _ENCODE_PACKED_CACHE.popitem(last=False)
    return packed


def encode_asp_frames(frame_count: int, asp: Asp) -> List[List[int]]:
    """:func:`encode_asp_packed` as a list of ``frame_count`` word lists."""
    words = struct.unpack(
        f"<{frame_count * FRAME_WORDS}I", encode_asp_packed(frame_count, asp)
    )
    return [
        list(words[i : i + FRAME_WORDS]) for i in range(0, len(words), FRAME_WORDS)
    ]


def decode_asp(frames: Sequence[Sequence[int]]) -> Optional[Tuple[int, List[int]]]:
    """Extract ``(kind, params)`` from region frames.

    Returns ``None`` for an all-blank (never configured) region and raises
    :class:`AspDecodeError` for frames that are non-blank but malformed —
    which is what a functional 'hang' after a corrupted reconfiguration
    looks like.
    """
    if not frames:
        return None
    flat: List[int] = []
    for frame in frames[:2]:  # header + possible parameter spill
        flat.extend(frame)
    if all(w == 0 for w in flat) and all(
        w == 0 for frame in frames for w in frame
    ):
        return None
    if flat[0] != ASP_MAGIC:
        raise AspDecodeError(
            f"region is configured but has no ASP header "
            f"(word0={flat[0]:#010x})"
        )
    kind = flat[1]
    count = flat[2]
    if kind not in AspKind.NAMES:
        raise AspDecodeError(f"unknown ASP kind {kind}")
    if count > len(flat) - 3:
        raise AspDecodeError(f"parameter count {count} overruns header frames")
    return kind, flat[3 : 3 + count]


def instantiate_asp(kind: int, params: Sequence[int]) -> Asp:
    """Build the functional model for a decoded ``(kind, params)`` pair."""
    if kind == AspKind.PASSTHROUGH:
        return PassthroughAsp()
    if kind == AspKind.FIR_FILTER:
        if not params or params[0] != len(params) - 1:
            raise AspDecodeError(f"bad FIR parameter block {params!r}")
        return FirFilterAsp(params[1:])
    if kind == AspKind.AES128:
        if len(params) != 4:
            raise AspDecodeError(f"AES key must be 4 words, got {len(params)}")
        return Aes128Asp(params)
    if kind == AspKind.MATMUL:
        if len(params) != 1:
            raise AspDecodeError(f"matmul takes 1 parameter, got {len(params)}")
        return MatMulAsp(params[0])
    if kind == AspKind.CRC32:
        return Crc32Asp()
    if kind == AspKind.SHA256:
        return Sha256Asp()
    if kind == AspKind.VECTOR_SCALE:
        if len(params) != 2:
            raise AspDecodeError(f"vector-scale takes 2 parameters, got {len(params)}")
        return VectorScaleAsp(params[0], params[1])
    raise AspDecodeError(f"unknown ASP kind {kind}")


# --------------------------------------------------------------------------
# AES-128 primitives (encryption only; tables derived, not hard-coded)
# --------------------------------------------------------------------------
def _gf_mul(a: int, b: int) -> int:
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        high = a & 0x80
        a = (a << 1) & 0xFF
        if high:
            a ^= 0x1B
        b >>= 1
    return result


def _build_sbox() -> List[int]:
    # Multiplicative inverse in GF(2^8) followed by the AES affine transform.
    inverse = [0] * 256
    for x in range(1, 256):
        for y in range(1, 256):
            if _gf_mul(x, y) == 1:
                inverse[x] = y
                break
    sbox = []
    for x in range(256):
        b = inverse[x]
        value = 0x63
        for i in range(8):
            bit = (
                (b >> i)
                ^ (b >> ((i + 4) % 8))
                ^ (b >> ((i + 5) % 8))
                ^ (b >> ((i + 6) % 8))
                ^ (b >> ((i + 7) % 8))
            ) & 1
            value ^= bit << i
        sbox.append(value)
    # The affine constant 0x63 is already folded in via initialisation.
    return sbox


_SBOX = _build_sbox()
_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def _aes_key_schedule(key: bytes) -> List[bytes]:
    words = [key[i : i + 4] for i in range(0, 16, 4)]
    for i in range(4, 44):
        temp = words[i - 1]
        if i % 4 == 0:
            temp = bytes(
                _SBOX[temp[(j + 1) % 4]] ^ (_RCON[i // 4 - 1] if j == 0 else 0)
                for j in range(4)
            )
        words.append(bytes(a ^ b for a, b in zip(words[i - 4], temp)))
    return [b"".join(words[r * 4 : r * 4 + 4]) for r in range(11)]


def _aes_encrypt_block(block: bytes, round_keys: List[bytes]) -> bytes:
    # Row-major state: state[r*4 + c] = input byte r + 4c (FIPS-197 layout).
    state = [block[r + 4 * c] for r in range(4) for c in range(4)]
    state = _add_round_key(state, round_keys[0])
    for round_index in range(1, 10):
        state = _sub_bytes(state)
        state = _shift_rows(state)
        state = _mix_columns(state)
        state = _add_round_key(state, round_keys[round_index])
    state = _sub_bytes(state)
    state = _shift_rows(state)
    state = _add_round_key(state, round_keys[10])
    return bytes(state[r * 4 + c] for c in range(4) for r in range(4))


def _sub_bytes(state: List[int]) -> List[int]:
    return [_SBOX[b] for b in state]


def _shift_rows(state: List[int]) -> List[int]:
    out = list(state)
    for row in range(1, 4):
        cols = [state[row * 4 + ((c + row) % 4)] for c in range(4)]
        for c in range(4):
            out[row * 4 + c] = cols[c]
    return out


def _mix_columns(state: List[int]) -> List[int]:
    out = [0] * 16
    for c in range(4):
        col = [state[r * 4 + c] for r in range(4)]
        out[0 * 4 + c] = _gf_mul(col[0], 2) ^ _gf_mul(col[1], 3) ^ col[2] ^ col[3]
        out[1 * 4 + c] = col[0] ^ _gf_mul(col[1], 2) ^ _gf_mul(col[2], 3) ^ col[3]
        out[2 * 4 + c] = col[0] ^ col[1] ^ _gf_mul(col[2], 2) ^ _gf_mul(col[3], 3)
        out[3 * 4 + c] = _gf_mul(col[0], 3) ^ col[1] ^ col[2] ^ _gf_mul(col[3], 2)
    return out


def _add_round_key(state: List[int], round_key: bytes) -> List[int]:
    # round_key is 16 bytes in column order (word i = column i).
    return [state[r * 4 + c] ^ round_key[c * 4 + r] for r in range(4) for c in range(4)]
