"""Configuration CRC.

Xilinx 7-series devices protect the configuration stream with a CRC-32C
(Castagnoli polynomial) computed over every ``(register address, data word)``
pair written through the configuration interface.  We implement the same
scheme: each 32-bit data word together with its 5-bit register address is
folded into a running CRC-32C.  The CRC register write at the end of a
bitstream must match the internally computed value, and the read-back
scrubber recomputes the same CRC over frame data to detect corruption.

The plain byte-stream CRC-32C is also exposed (:func:`crc32c_bytes`) for
the §VI decompressor integrity checks.
"""

from __future__ import annotations

import functools
import struct
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

try:  # vectorised cold-path folds; every result is bit-identical to the
    import numpy as _np  # scalar tables, so the fallback is purely a speed loss
except ImportError:  # pragma: no cover - numpy is present in CI
    _np = None

__all__ = ["ConfigCrc", "crc32c_bytes", "crc32c_words", "crc32c_packed"]

# CRC-32C (Castagnoli), reflected representation.
_POLY = 0x82F63B78


def _build_tables(count: int) -> List[List[int]]:
    """Slicing-by-``count`` lookup tables.

    ``tables[0]`` is the classic byte-at-a-time table; ``tables[k]``
    advances a byte ``k`` further through the register, so a 32-bit chunk
    folds with four lookups instead of four dependent shift-xor steps:
    ``T3[x&FF] ^ T2[x>>8&FF] ^ T1[x>>16&FF] ^ T0[x>>24]``.
    """
    tables = [[0] * 256 for _ in range(count)]
    first = tables[0]
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ _POLY if crc & 1 else crc >> 1
        first[byte] = crc
    for k in range(1, count):
        prev = tables[k - 1]
        for byte in range(256):
            value = prev[byte]
            tables[k][byte] = first[value & 0xFF] ^ (value >> 8)
    return tables


# Twenty tables cover four configuration writes (4 x 5 bytes), so the
# scalar fold advances four writes per iteration; plain words use the
# first sixteen.
_TABLES = _build_tables(20)
_TABLE = _TABLES[0]

#: Per stride, the sixteen tables one four-write iteration reads for its
#: word bytes in stream order: all of them for stride 4, all but the
#: address bytes' (0, 5, 10, 15) for stride 5.
_QUAD_TABLES = {
    4: _TABLES[15::-1],
    5: [table for k, table in enumerate(_TABLES) if k % 5][::-1],
}


def _fold_raw(raw: int, words: Sequence[int], addr: Optional[int] = None) -> int:
    """Advance a raw (pre-inverted) CRC state over 32-bit words.

    With ``addr``, every word is a configuration write to that register:
    its four little-endian bytes are followed by the address byte, the
    order :meth:`ConfigCrc.update` folds them in.  Four writes fold per
    iteration, with the fixed address bytes precombined.
    """
    stride = 4 if addr is None else 5
    count = len(words)
    quads = count & ~3
    if quads:
        (
            a0, a1, a2, a3, b0, b1, b2, b3,
            c0, c1, c2, c3, d0, d1, d2, d3,
        ) = _QUAD_TABLES[stride]
        addr_quad = 0 if addr is None else (
            _TABLES[15][addr] ^ _TABLES[10][addr] ^ _TABLES[5][addr] ^ _TABLE[addr]
        )
        it = iter(words)  # zip stops at the last full quad; the tail follows
        for w0, w1, w2, w3 in zip(it, it, it, it):
            x = raw ^ w0
            raw = (
                a0[x & 0xFF]
                ^ a1[(x >> 8) & 0xFF]
                ^ a2[(x >> 16) & 0xFF]
                ^ a3[x >> 24]
                ^ b0[w1 & 0xFF]
                ^ b1[(w1 >> 8) & 0xFF]
                ^ b2[(w1 >> 16) & 0xFF]
                ^ b3[w1 >> 24]
                ^ c0[w2 & 0xFF]
                ^ c1[(w2 >> 8) & 0xFF]
                ^ c2[(w2 >> 16) & 0xFF]
                ^ c3[w2 >> 24]
                ^ d0[w3 & 0xFF]
                ^ d1[(w3 >> 8) & 0xFF]
                ^ d2[(w3 >> 16) & 0xFF]
                ^ d3[w3 >> 24]
                ^ addr_quad
            )
    if quads < count:
        # One write: the last four tables of the four-write set.
        u0, u1, u2, u3 = _QUAD_TABLES[stride][12:]
        addr_one = 0 if addr is None else _TABLE[addr]
        for word in words[quads:]:
            x = raw ^ word
            raw = (
                u0[x & 0xFF]
                ^ u1[(x >> 8) & 0xFF]
                ^ u2[(x >> 16) & 0xFF]
                ^ u3[x >> 24]
                ^ addr_one
            )
    return raw


# --------------------------------------------------------------------------
# GF(2) linear operators on 32-bit words
#
# The byte step ``raw' = T[(raw ^ b) & 0xFF] ^ (raw >> 8)`` is GF(2)-linear
# in ``raw`` and ``b`` (CRC tables satisfy T[a ^ b] = T[a] ^ T[b]), so
# processing a fixed message M of L bytes factors into
#
#     raw_out = Z_L(raw_in) ^ C(M)
#
# where ``Z_L`` advances the register through L zero bytes (a 32x32 GF(2)
# matrix, applied here as four 256-entry lookup tables) and ``C(M)`` is a
# per-content constant.  Campaigns feed the same bitstream content through
# the ICAP and the scrubber over and over; caching ``C(M)`` per content
# block turns every repeat into four table lookups regardless of length.
# --------------------------------------------------------------------------
def op_tables(imgs: Sequence[int]) -> Tuple[List[int], ...]:
    """Compile an operator, given as its 32 basis images, into four
    byte-lookup tables."""
    tables = []
    for part in range(4):
        base = imgs[8 * part : 8 * part + 8]
        tab = [0] * 256
        for b in range(1, 256):
            lsb = b & -b
            tab[b] = tab[b ^ lsb] ^ base[lsb.bit_length() - 1]
        tables.append(tab)
    return tuple(tables)


def op_apply(tables: Sequence[List[int]], x: int) -> int:
    """Apply a compiled operator to the 32-bit word ``x``."""
    t0, t1, t2, t3 = tables
    return t0[x & 0xFF] ^ t1[(x >> 8) & 0xFF] ^ t2[(x >> 16) & 0xFF] ^ t3[x >> 24]


def op_power(squarings: List[List[int]], exponent: int) -> Tuple[List[int], ...]:
    """Tables of the operator ``A`` raised to ``exponent``.

    ``squarings[k]`` holds the basis images of ``A`` to the power
    ``2**k``; the caller seeds it with ``A``'s own images and owns the
    list, which grows here as higher squarings are needed.
    """
    imgs = [1 << i for i in range(32)]  # identity
    k = 0
    while exponent:
        if k == len(squarings):
            last = op_tables(squarings[-1])
            squarings.append([op_apply(last, x) for x in squarings[-1]])
        if exponent & 1:
            power = op_tables(squarings[k])
            imgs = [op_apply(power, x) for x in imgs]
        exponent >>= 1
        k += 1
    return op_tables(imgs)


#: Squarings of the one-zero-byte step, grown by :func:`op_power`.
_ZERO_SQUARINGS = [[_TABLE[(1 << i) & 0xFF] ^ ((1 << i) >> 8) for i in range(32)]]


@functools.lru_cache(maxsize=None)
def _zero_operator(length: int) -> Tuple[List[int], ...]:
    """Lookup tables advancing a raw CRC state through ``length`` zero bytes."""
    return op_power(_ZERO_SQUARINGS, length)


@functools.lru_cache(maxsize=64)
def _zero_operator_np(length: int) -> Tuple["_np.ndarray", ...]:
    """:func:`_zero_operator` as numpy lookup tables."""
    return tuple(
        _np.array(table, dtype=_np.uint32) for table in _zero_operator(length)
    )


def _constants_numpy(blocks: List[bytes], addr: Optional[int]) -> List[int]:
    """Content constants of many equal-length packed blocks at once.

    Bit-identical to :func:`_fold_raw` from a zero state per block.  Each
    block splits into ``lanes`` contiguous segments so that all blocks
    together fill about 2,048 vector lanes; each lane folds its segment
    from zero, and the per-segment partials then combine pairwise with
    the zero-advance operators for the segments' byte lengths.
    """
    stride = 4 if addr is None else 5
    count, n = len(blocks), len(blocks[0]) // 4
    lanes = 1
    while count * lanes * 2 <= 2048 and lanes * 2 <= n:
        lanes *= 2
    seg = n // lanes
    words = _np.frombuffer(b"".join(blocks), dtype="<u4").reshape(count, n)
    cols = _np.ascontiguousarray(
        words[:, : lanes * seg].reshape(count * lanes, seg).T
    )
    u0, u1, u2, u3 = [
        _np.array(table, dtype=_np.uint32) for table in _QUAD_TABLES[stride][12:]
    ]
    addr_one = _np.uint32(0 if addr is None else _TABLE[addr])
    state = _np.zeros(count * lanes, dtype=_np.uint32)
    for col in cols:
        x = state ^ col
        state = (
            u0[x & 0xFF]
            ^ u1[(x >> 8) & 0xFF]
            ^ u2[(x >> 16) & 0xFF]
            ^ u3[x >> 24]
            ^ addr_one
        )
    # Combine neighbouring partials in a tree: the left one advances
    # through its right neighbour's bytes, doubling the span per level.
    partials = state.reshape(count, lanes)
    span = stride * seg
    while partials.shape[1] > 1:
        z0, z1, z2, z3 = _zero_operator_np(span)
        left = partials[:, 0::2]
        partials = (
            z0[left & 0xFF]
            ^ z1[(left >> 8) & 0xFF]
            ^ z2[(left >> 16) & 0xFF]
            ^ z3[left >> 24]
            ^ partials[:, 1::2]
        )
        span *= 2
    constants = partials[:, 0].tolist()
    if lanes * seg < n:
        constants = [
            _fold_raw(raw, words[row, lanes * seg :].tolist(), addr)
            for row, raw in enumerate(constants)
        ]
    return constants


#: Batch the vectorised fold only when enough uncached content shows up —
#: below this the per-call numpy overhead loses to the scalar tables.
_NUMPY_MIN_MISSES = 8

#: Content constants ``(register address or None, packed block) -> C(M)``:
#: configuration-run blocks under their register, the scrubber's
#: read-back chunks under ``None``.  Bounded LRU; a miss just recomputes.
#: The bound is ~1.5x the fleet campaigns' working set (5,150 one-KiB
#: run blocks plus 410 read-back chunks); at 4096 run entries their warm
#: reruns refolded a fifth of every block the ICAP looked up.
_CONSTANTS: "OrderedDict[Tuple[Optional[int], bytes], int]" = OrderedDict()
_CONSTANTS_MAX = 8192
#: Run content is folded in fixed blocks **aligned to the run start**, so
#: the cache keys depend only on (register, content) — the builder folding
#: a whole FDRI payload in one call and the ICAP re-folding the same
#: payload in DMA-burst-sized pieces populate and hit the same entries.
_RUN_BLOCK_BYTES = 1024
#: Shorter runs fold uncached: keying them would cost more than it saves.
_RUN_FAST_MIN_WORDS = 16
#: An uncached pending run folds once this many bytes are pending.
_UNCACHED_FLUSH_BYTES = 64 * 1024


def _fold_blocks(
    raw: int, blocks: List[bytes], addr: Optional[int], cached: bool = True
) -> int:
    """Advance a raw CRC state over packed blocks via their constants.

    ``addr`` is as for :func:`_fold_raw`.  Misses are batched through the
    numpy kernel when enough blocks of one length miss, and otherwise
    folded one block at a time.  The constants are read from and kept in
    the content cache, unless ``cached`` is False (content that never
    repeats).
    """
    cache = _CONSTANTS if cached else OrderedDict()
    fresh: Dict[bytes, int] = {}
    if _np is not None:
        missing = list(dict.fromkeys(b for b in blocks if (addr, b) not in cache))
        if len(missing) >= _NUMPY_MIN_MISSES:
            by_length: Dict[int, List[bytes]] = {}
            for block in missing:
                by_length.setdefault(len(block), []).append(block)
            for group in by_length.values():
                if len(group) >= _NUMPY_MIN_MISSES:
                    fresh.update(zip(group, _constants_numpy(group, addr)))
    stride = 4 if addr is None else 5
    for block in blocks:
        key = (addr, block)
        constant = cache.get(key)
        if constant is None:
            constant = fresh.get(block)
            if constant is None:
                constant = _fold_raw(
                    0, struct.unpack(f"<{len(block) // 4}I", block), addr
                )
            cache[key] = constant
            if len(cache) > _CONSTANTS_MAX:
                cache.popitem(last=False)
        else:
            cache.move_to_end(key)
        z0, z1, z2, z3 = _zero_operator(stride * (len(block) // 4))
        raw = (
            z0[raw & 0xFF]
            ^ z1[(raw >> 8) & 0xFF]
            ^ z2[(raw >> 16) & 0xFF]
            ^ z3[raw >> 24]
        ) ^ constant
    return raw


def crc32c_packed(chunks: Iterable[bytes], crc: int = 0) -> int:
    """CRC-32C over 32-bit little-endian words carried as packed chunks.

    Exactly :func:`crc32c_words` over the concatenated word stream, but
    chunk constants are content-cached: re-checking unchanged data (the
    scrubber's steady state) costs four table lookups per chunk.  Chunk
    byte lengths must be word-aligned.
    """
    blocks = [chunk for chunk in chunks if chunk]
    return _fold_blocks(crc ^ 0xFFFFFFFF, blocks, None) ^ 0xFFFFFFFF


def crc32c_bytes(data: bytes, crc: int = 0) -> int:
    """CRC-32C over a byte string (standard reflected, final xor)."""
    crc = crc ^ 0xFFFFFFFF
    for byte in data:
        crc = _TABLE[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


def crc32c_words(words: Iterable[int], crc: int = 0) -> int:
    """CRC-32C over 32-bit words, little-endian byte order per word."""
    return _fold_raw(crc ^ 0xFFFFFFFF, tuple(words)) ^ 0xFFFFFFFF


class ConfigCrc:
    """Running configuration CRC over (register, word) pairs.

    Mirrors the device-internal CRC logic: every configuration write feeds
    the 5-bit register address and the 32-bit data word into the CRC.
    Writing the expected value to the CRC register resets the accumulator
    when it matches (and flags an error when it does not); the RCRC command
    resets it unconditionally.
    """

    def __init__(self) -> None:
        self._crc = 0
        self.error = False
        #: (address, word) pairs folded since the last reset (for debugging).
        self.words_folded = 0
        # Pending run content: packed little-endian words written to
        # ``_run_addr`` but not yet folded.  Deferring the fold lets
        # consecutive :meth:`update_run` calls (the ICAP's burst-sized
        # pieces of one FDRI payload) realign on run-relative block
        # boundaries, so their content-cache keys match the builder's,
        # and lets :meth:`fold_run`'s pieces (``_run_cached`` False)
        # fold in bulk.
        self._run_addr: Optional[int] = None
        self._run_cached = True
        self._run_buf = bytearray()

    @property
    def value(self) -> int:
        self._flush_run()
        return self._crc

    def reset(self) -> None:
        # A reset discards the accumulator, so pending run content would
        # fold into a value nobody can observe — drop it.
        self._run_addr = None
        self._run_buf.clear()
        self._crc = 0
        self.error = False
        self.words_folded = 0

    def update(self, register_addr: int, word: int) -> None:
        """Fold one configuration write into the running CRC."""
        self._flush_run()
        if not 0 <= register_addr < 32:
            raise ValueError(f"register address {register_addr} out of range")
        if not 0 <= word <= 0xFFFFFFFF:
            raise ValueError(f"data word {word:#x} out of range")
        raw = _fold_raw(self._crc ^ 0xFFFFFFFF, (word,), register_addr)
        self._crc = raw ^ 0xFFFFFFFF
        self.words_folded += 1

    def update_run(self, register_addr: int, words, packed: bytes = None) -> None:
        """Fold many words written to the *same* register (bulk FDRI path).

        Semantically identical to calling :meth:`update` per word, but
        with the per-word overhead hoisted out of the loop — FDRI carries
        >130 k words per partial bitstream.  Callers that hold the run
        little-endian packed pass ``packed`` (``words`` may then be
        None).  Runs of at least 16 words take the linear-operator path:
        the run constant is content-cached, so re-feeding an
        already-seen bitstream chunk is O(1) in its length.
        """
        if not 0 <= register_addr < 32:
            raise ValueError(f"register address {register_addr} out of range")
        if packed is None:
            packed = struct.pack(f"<{len(words)}I", *words)
        if not packed:
            return
        if len(packed) < _RUN_FAST_MIN_WORDS * 4:
            self.fold_run(register_addr, packed)
            return
        self._pend(register_addr, packed, cached=True)
        pending = len(self._run_buf)
        if pending >= _RUN_BLOCK_BYTES:
            self._fold_pending(pending - pending % _RUN_BLOCK_BYTES)

    def fold_run(self, register_addr: int, packed: bytes) -> None:
        """Fold a run of words written to one register, packed
        little-endian, uncached.

        :meth:`update_run` without the content cache, for runs too short
        to key or whose content never repeats (a corrupted stream's
        payloads): caching those would only grow the cache.  The words
        join the pending run, which folds in bulk once 64 KiB are
        pending, or wherever a cached run flushes.
        """
        self._pend(register_addr, packed, cached=False)
        if len(self._run_buf) >= _UNCACHED_FLUSH_BYTES:
            self._flush_run()

    def _pend(self, register_addr: int, packed: bytes, cached: bool) -> None:
        """Append run content to the pending run, folding first a
        pending run to another register or of the other kind."""
        if self._run_addr != register_addr or self._run_cached != cached:
            self._flush_run()
            self._run_addr = register_addr
            self._run_cached = cached
        self._run_buf += packed
        self.words_folded += len(packed) >> 2

    def _flush_run(self) -> None:
        """Fold all pending run content."""
        if self._run_addr is not None:
            self._fold_pending(len(self._run_buf))
            self._run_addr = None

    def _fold_pending(self, end: int) -> None:
        """Fold the first ``end`` pending run bytes in run-aligned blocks."""
        buf = self._run_buf
        blocks = [
            bytes(buf[offset : offset + _RUN_BLOCK_BYTES])
            for offset in range(0, end, _RUN_BLOCK_BYTES)
        ]
        del buf[:end]
        raw = _fold_blocks(
            self._crc ^ 0xFFFFFFFF, blocks, self._run_addr, self._run_cached
        )
        self._crc = raw ^ 0xFFFFFFFF

    def check(self, expected: int) -> bool:
        """Compare against ``expected`` (a CRC-register write).

        On match the accumulator resets (as in hardware); on mismatch the
        ``error`` flag latches until :meth:`reset`.
        """
        self._flush_run()
        if expected == self._crc:
            self.reset()
            return True
        self.error = True
        return False
