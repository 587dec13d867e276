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

import struct
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Tuple

try:  # vectorised cold-path folds; every result is bit-identical to the
    import numpy as _np  # scalar tables, so the fallback is purely a speed loss
except ImportError:  # pragma: no cover - numpy is present in CI
    _np = None

__all__ = ["ConfigCrc", "crc32c_bytes", "crc32c_words", "crc32c_packed"]

# CRC-32C (Castagnoli), reflected representation.
_POLY = 0x82F63B78


def _build_tables(count: int = 4) -> List[List[int]]:
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


_TABLES = _build_tables()
_TABLE = _TABLES[0]

# Ten tables cover one 10-byte block of the FDRI run layout — two data
# words with their interleaved register-address bytes — so the bulk fold
# advances two (word, addr) writes per loop iteration.  Twenty tables
# double that to four writes per iteration for the main run loop.
_TABLES10 = _build_tables(10)
_TABLES20 = _build_tables(20)

#: _TABLES10 as uint32 ndarrays (built lazily, only if numpy is present).
_NP_TABLES10: Optional[list] = None


def _np_tables10():
    global _NP_TABLES10
    if _NP_TABLES10 is None:
        _NP_TABLES10 = [_np.array(t, dtype=_np.uint32) for t in _TABLES10]
    return _NP_TABLES10


# --------------------------------------------------------------------------
# Linear-operator fast path
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
# chunk turns every repeat into four table lookups regardless of length.
# --------------------------------------------------------------------------
def _op_tables(imgs: List[int]) -> Tuple[List[int], ...]:
    """Compile a 32-basis-image operator into 4 byte-lookup tables."""
    tables = []
    for part in range(4):
        base = imgs[8 * part : 8 * part + 8]
        tab = [0] * 256
        for b in range(1, 256):
            lsb = b & -b
            tab[b] = tab[b ^ lsb] ^ base[lsb.bit_length() - 1]
        tables.append(tab)
    return tuple(tables)


def _op_compose(a_imgs: List[int], b_imgs: List[int]) -> List[int]:
    """Basis images of ``a`` applied after ``b``."""
    t0, t1, t2, t3 = _op_tables(a_imgs)
    return [
        t0[x & 0xFF] ^ t1[(x >> 8) & 0xFF] ^ t2[(x >> 16) & 0xFF] ^ t3[x >> 24]
        for x in b_imgs
    ]


#: Basis images of the 2^k-zero-byte advance operators (built on demand).
_ZERO_POWERS: List[List[int]] = []
#: Compiled zero-advance tables per byte length.
_ZERO_OPS: Dict[int, Tuple[List[int], ...]] = {}


def _zero_operator(length: int) -> Tuple[List[int], ...]:
    """Lookup tables advancing a raw CRC state through ``length`` zero bytes."""
    tables = _ZERO_OPS.get(length)
    if tables is not None:
        return tables
    if not _ZERO_POWERS:
        table = _TABLE
        _ZERO_POWERS.append(
            [table[(1 << i) & 0xFF] ^ ((1 << i) >> 8) for i in range(32)]
        )
    while (1 << len(_ZERO_POWERS)) <= length:
        last = _ZERO_POWERS[-1]
        _ZERO_POWERS.append(_op_compose(last, last))
    imgs = [1 << i for i in range(32)]  # identity
    remaining, k = length, 0
    while remaining:
        if remaining & 1:
            imgs = _op_compose(_ZERO_POWERS[k], imgs)
        remaining >>= 1
        k += 1
    tables = _op_tables(imgs)
    _ZERO_OPS[length] = tables
    return tables


def _fold_words_raw(raw: int, words) -> int:
    """Advance a raw (pre-inverted) CRC state over little-endian words.

    Slicing-by-8: two words per iteration, halving the loop overhead on
    the content-constant cold path (warm passes hit the caches instead).
    """
    s0, s1, s2, s3, s4, s5, s6, s7, _s8, _s9 = _TABLES10
    it = iter(words)
    for w0, w1 in zip(it, it):
        x = raw ^ w0
        raw = (
            s7[x & 0xFF]
            ^ s6[(x >> 8) & 0xFF]
            ^ s5[(x >> 16) & 0xFF]
            ^ s4[x >> 24]
            ^ s3[w1 & 0xFF]
            ^ s2[(w1 >> 8) & 0xFF]
            ^ s1[(w1 >> 16) & 0xFF]
            ^ s0[w1 >> 24]
        )
    if len(words) & 1:
        x = raw ^ words[-1]
        raw = s3[x & 0xFF] ^ s2[(x >> 8) & 0xFF] ^ s1[(x >> 16) & 0xFF] ^ s0[x >> 24]
    return raw


def _fold_run_raw(raw: int, register_addr: int, words) -> int:
    """Advance a raw CRC state over a run of ``(word, register_addr)``
    writes — byte-for-byte the order :meth:`ConfigCrc.update` folds them,
    four writes per iteration with the fixed address bytes precombined."""
    count = len(words)
    quads = count & ~3
    if quads:
        (
            u0, u1, u2, u3, u4, u5, u6, u7, u8, u9,
            u10, u11, u12, u13, u14, u15, u16, u17, u18, u19,
        ) = _TABLES20
        addr_k4 = (
            u15[register_addr]
            ^ u10[register_addr]
            ^ u5[register_addr]
            ^ u0[register_addr]
        )
        for i in range(0, quads, 4):
            w1 = words[i + 1]
            w2 = words[i + 2]
            w3 = words[i + 3]
            x = raw ^ words[i]
            raw = (
                u19[x & 0xFF]
                ^ u18[(x >> 8) & 0xFF]
                ^ u17[(x >> 16) & 0xFF]
                ^ u16[x >> 24]
                ^ u14[w1 & 0xFF]
                ^ u13[(w1 >> 8) & 0xFF]
                ^ u12[(w1 >> 16) & 0xFF]
                ^ u11[w1 >> 24]
                ^ u9[w2 & 0xFF]
                ^ u8[(w2 >> 8) & 0xFF]
                ^ u7[(w2 >> 16) & 0xFF]
                ^ u6[w2 >> 24]
                ^ u4[w3 & 0xFF]
                ^ u3[(w3 >> 8) & 0xFF]
                ^ u2[(w3 >> 16) & 0xFF]
                ^ u1[w3 >> 24]
                ^ addr_k4
            )
    t0, t1, t2, t3, t4, t5, t6, t7, t8, t9 = _TABLES10
    if count - quads >= 2:
        w0 = words[quads]
        w1 = words[quads + 1]
        x = raw ^ w0
        raw = (
            t9[x & 0xFF]
            ^ t8[(x >> 8) & 0xFF]
            ^ t7[(x >> 16) & 0xFF]
            ^ t6[x >> 24]
            ^ t4[w1 & 0xFF]
            ^ t3[(w1 >> 8) & 0xFF]
            ^ t2[(w1 >> 16) & 0xFF]
            ^ t1[w1 >> 24]
            ^ t5[register_addr]
            ^ t0[register_addr]
        )
    if count & 1:
        x = raw ^ words[-1]
        raw = (
            t4[x & 0xFF]
            ^ t3[(x >> 8) & 0xFF]
            ^ t2[(x >> 16) & 0xFF]
            ^ t1[x >> 24]
            ^ t0[register_addr]
        )
    return raw


def _run_constants_numpy(register_addr: int, blocks: List[bytes]) -> List[int]:
    """Content constants for many equal-sized packed run blocks at once.

    Every block folds independently from a zero state, so the folds
    vectorise across blocks: one lane per block, advancing two
    ``(word, addr)`` writes per iteration with the same tables the scalar
    :func:`_fold_run_raw` uses.  Results are bit-identical.
    """
    t = _np_tables10()
    words_per = len(blocks[0]) // 4  # callers pass equal, even-sized blocks
    arr = _np.frombuffer(b"".join(blocks), dtype="<u4").reshape(
        len(blocks), words_per
    )
    cols = _np.ascontiguousarray(arr.T)
    addr_k = _np.uint32(
        _TABLES10[5][register_addr] ^ _TABLES10[0][register_addr]
    )
    state = _np.zeros(len(blocks), dtype=_np.uint32)
    for j in range(0, words_per, 2):
        x = state ^ cols[j]
        w1 = cols[j + 1]
        state = (
            t[9][x & 0xFF]
            ^ t[8][(x >> 8) & 0xFF]
            ^ t[7][(x >> 16) & 0xFF]
            ^ t[6][x >> 24]
            ^ t[4][w1 & 0xFF]
            ^ t[3][(w1 >> 8) & 0xFF]
            ^ t[2][(w1 >> 16) & 0xFF]
            ^ t[1][w1 >> 24]
            ^ addr_k
        )
    return state.tolist()


def _chunk_constants_numpy(chunks: List[bytes]) -> List[int]:
    """Content constants for many equal-length packed word chunks at once.

    Each chunk splits into ``s`` contiguous segments folded in parallel
    (one lane per segment across all chunks); the per-segment partials
    then combine with the zero-advance operator for the segment length.
    Bit-identical to :func:`_fold_words_raw` from a zero state per chunk.
    """
    t = _np_tables10()
    k = len(chunks)
    n = len(chunks[0]) // 4
    s = 1
    while k * s * 2 <= 2048 and s * 2 <= n:
        s *= 2
    seg = n // s
    arr = _np.frombuffer(b"".join(chunks), dtype="<u4").reshape(k, n)
    cols = _np.ascontiguousarray(arr[:, : s * seg].reshape(k * s, seg).T)
    state = _np.zeros(k * s, dtype=_np.uint32)
    j = 0
    while j + 1 < seg:
        x = state ^ cols[j]
        w1 = cols[j + 1]
        state = (
            t[7][x & 0xFF]
            ^ t[6][(x >> 8) & 0xFF]
            ^ t[5][(x >> 16) & 0xFF]
            ^ t[4][x >> 24]
            ^ t[3][w1 & 0xFF]
            ^ t[2][(w1 >> 8) & 0xFF]
            ^ t[1][(w1 >> 16) & 0xFF]
            ^ t[0][w1 >> 24]
        )
        j += 2
    if j < seg:
        x = state ^ cols[j]
        state = (
            t[3][x & 0xFF]
            ^ t[2][(x >> 8) & 0xFF]
            ^ t[1][(x >> 16) & 0xFF]
            ^ t[0][x >> 24]
        )
    partials = state.reshape(k, s).tolist()
    z0, z1, z2, z3 = _zero_operator(4 * seg)
    constants = []
    for row_index, row in enumerate(partials):
        raw = 0
        for partial in row:
            raw = (
                z0[raw & 0xFF]
                ^ z1[(raw >> 8) & 0xFF]
                ^ z2[(raw >> 16) & 0xFF]
                ^ z3[raw >> 24]
            ) ^ partial
        if seg * s < n:
            raw = _fold_words_raw(raw, tuple(arr[row_index, s * seg :].tolist()))
        constants.append(raw)
    return constants


#: Batch the vectorised fold only when enough uncached content shows up —
#: below this the per-call numpy overhead loses to the scalar tables.
_NUMPY_MIN_MISSES = 8

#: Content-keyed constants for FDRI-style register runs: ``(addr, packed
#: little-endian words) -> C(M)``.  Bounded LRU; a miss just recomputes.
#: The bound is ~1.6x the fleet's working set (5,153 one-KiB blocks on
#: the fleet campaigns); at 4096 their warm reruns refolded a fifth of
#: every block the ICAP looked up.
_RUN_CACHE: "OrderedDict[Tuple[int, bytes], int]" = OrderedDict()
_RUN_CACHE_MAX = 8192
#: Run content is folded in fixed blocks **aligned to the run start**, so
#: the cache keys depend only on (register, content) — the builder folding
#: a whole FDRI payload in one call and the ICAP re-folding the same
#: payload in DMA-burst-sized pieces populate and hit the same entries.
_RUN_BLOCK_BYTES = 1024
#: Below this the plain per-word loop wins over packing + hashing.
_RUN_FAST_MIN_WORDS = 16

#: Content-keyed constants for plain word streams carried as packed bytes
#: (the scrubber's read-back chunks): ``packed -> C(M)``.
_CHUNK_CACHE: "OrderedDict[bytes, int]" = OrderedDict()
_CHUNK_CACHE_MAX = 4096


def crc32c_packed(chunks: Iterable[bytes], crc: int = 0) -> int:
    """CRC-32C over 32-bit little-endian words carried as packed chunks.

    Exactly :func:`crc32c_words` over the concatenated word stream, but
    chunk constants are content-cached: re-checking unchanged data (the
    scrubber's steady state) costs four table lookups per chunk.  Chunk
    byte lengths must be word-aligned.
    """
    raw = crc ^ 0xFFFFFFFF
    cache = _CHUNK_CACHE
    chunks = [chunk for chunk in chunks if chunk]
    if _np is not None:
        missing = list(dict.fromkeys(c for c in chunks if c not in cache))
        if len(missing) >= _NUMPY_MIN_MISSES:
            by_length: Dict[int, List[bytes]] = {}
            for chunk in missing:
                by_length.setdefault(len(chunk), []).append(chunk)
            for group in by_length.values():
                if len(group) < _NUMPY_MIN_MISSES:
                    continue
                for chunk, constant in zip(group, _chunk_constants_numpy(group)):
                    cache[chunk] = constant
                    if len(cache) > _CHUNK_CACHE_MAX:
                        cache.popitem(last=False)
    for chunk in chunks:
        constant = cache.get(chunk)
        if constant is None:
            constant = _fold_words_raw(
                0, struct.unpack(f"<{len(chunk) // 4}I", chunk)
            )
            cache[chunk] = constant
            if len(cache) > _CHUNK_CACHE_MAX:
                cache.popitem(last=False)
        else:
            cache.move_to_end(chunk)
        z0, z1, z2, z3 = _zero_operator(len(chunk))
        raw = (
            z0[raw & 0xFF]
            ^ z1[(raw >> 8) & 0xFF]
            ^ z2[(raw >> 16) & 0xFF]
            ^ z3[raw >> 24]
        ) ^ constant
    return raw ^ 0xFFFFFFFF


def crc32c_bytes(data: bytes, crc: int = 0) -> int:
    """CRC-32C over a byte string (standard reflected, final xor)."""
    crc = crc ^ 0xFFFFFFFF
    for byte in data:
        crc = _TABLE[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


def crc32c_words(words: Iterable[int], crc: int = 0) -> int:
    """CRC-32C over 32-bit words, little-endian byte order per word."""
    t0, t1, t2, t3 = _TABLES
    crc = crc ^ 0xFFFFFFFF
    for word in words:
        x = crc ^ word
        crc = t3[x & 0xFF] ^ t2[(x >> 8) & 0xFF] ^ t1[(x >> 16) & 0xFF] ^ t0[x >> 24]
    return crc ^ 0xFFFFFFFF


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
        # boundaries, so their content-cache keys match the builder's.
        self._run_addr: Optional[int] = None
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
        # Fold the 37-bit (addr, word) tuple byte-wise: 4 data bytes then
        # the address byte, matching the order used by the builder.
        t0, t1, t2, t3 = _TABLES
        crc = self._crc ^ 0xFFFFFFFF
        x = crc ^ word
        crc = t3[x & 0xFF] ^ t2[(x >> 8) & 0xFF] ^ t1[(x >> 16) & 0xFF] ^ t0[x >> 24]
        crc = t0[(crc ^ register_addr) & 0xFF] ^ (crc >> 8)
        self._crc = crc ^ 0xFFFFFFFF
        self.words_folded += 1

    def update_run(self, register_addr: int, words, packed: bytes = None) -> None:
        """Fold many words written to the *same* register (bulk FDRI path).

        Semantically identical to calling :meth:`update` per word, but
        with the per-word overhead hoisted out of the loop — FDRI carries
        >130 k words per partial bitstream.  Runs the caller already holds
        little-endian packed (``packed``) — or that pack cleanly — take
        the linear-operator path: the run constant is content-cached, so
        re-feeding an already-seen bitstream chunk is O(1) in its length.
        """
        if not 0 <= register_addr < 32:
            raise ValueError(f"register address {register_addr} out of range")
        count = len(words)
        if count == 0:
            return
        if count >= _RUN_FAST_MIN_WORDS:
            if packed is None:
                try:
                    packed = struct.pack(f"<{count}I", *words)
                except struct.error:
                    packed = None  # an out-of-range word does not pack
            if packed is not None:
                if self._run_addr is not None and self._run_addr != register_addr:
                    self._flush_run()
                self._run_addr = register_addr
                buf = self._run_buf
                buf += packed
                if len(buf) >= _RUN_BLOCK_BYTES:
                    self._fold_full_blocks(register_addr)
                self.words_folded += count
                return
        self.fold_run(register_addr, words)

    def fold_run(self, register_addr: int, words) -> None:
        """Fold a run of 32-bit words written to one register, uncached.

        :meth:`update_run` without the content cache, for runs too short
        to key or whose content never repeats (a corrupted stream's
        payloads): caching those would only grow the cache.
        """
        self._flush_run()
        raw = _fold_run_raw(self._crc ^ 0xFFFFFFFF, register_addr, words)
        self._crc = raw ^ 0xFFFFFFFF
        self.words_folded += len(words)

    def _apply_run_block(self, raw: int, register_addr: int, block: bytes) -> int:
        """Fold one packed run block via its content-cached constant."""
        key = (register_addr, block)
        constant = _RUN_CACHE.get(key)
        if constant is None:
            constant = _fold_run_raw(
                0, register_addr, struct.unpack(f"<{len(block) // 4}I", block)
            )
            _RUN_CACHE[key] = constant
            if len(_RUN_CACHE) > _RUN_CACHE_MAX:
                _RUN_CACHE.popitem(last=False)
        else:
            _RUN_CACHE.move_to_end(key)
        z0, z1, z2, z3 = _zero_operator(5 * (len(block) // 4))
        return (
            z0[raw & 0xFF]
            ^ z1[(raw >> 8) & 0xFF]
            ^ z2[(raw >> 16) & 0xFF]
            ^ z3[raw >> 24]
        ) ^ constant

    def _fold_full_blocks(self, register_addr: int) -> None:
        buf = self._run_buf
        end = (len(buf) // _RUN_BLOCK_BYTES) * _RUN_BLOCK_BYTES
        blocks = [
            bytes(buf[offset : offset + _RUN_BLOCK_BYTES])
            for offset in range(0, end, _RUN_BLOCK_BYTES)
        ]
        del buf[:end]
        if _np is not None:
            missing = list(
                dict.fromkeys(
                    b for b in blocks if (register_addr, b) not in _RUN_CACHE
                )
            )
            if len(missing) >= _NUMPY_MIN_MISSES:
                for block, constant in zip(
                    missing, _run_constants_numpy(register_addr, missing)
                ):
                    _RUN_CACHE[(register_addr, block)] = constant
                    if len(_RUN_CACHE) > _RUN_CACHE_MAX:
                        _RUN_CACHE.popitem(last=False)
        raw = self._crc ^ 0xFFFFFFFF
        for block in blocks:
            raw = self._apply_run_block(raw, register_addr, block)
        self._crc = raw ^ 0xFFFFFFFF

    def _flush_run(self) -> None:
        """Fold any pending run tail (shorter than one block)."""
        if self._run_addr is None:
            return
        addr = self._run_addr
        buf = self._run_buf
        self._run_addr = None
        if buf:
            raw = self._apply_run_block(self._crc ^ 0xFFFFFFFF, addr, bytes(buf))
            buf.clear()
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

    def updated_many(self, pairs: Iterable[Tuple[int, int]]) -> "ConfigCrc":
        for register_addr, word in pairs:
            self.update(register_addr, word)
        return self
