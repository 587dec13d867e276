"""Deterministic fault injectors for timing violations.

When the timing model declares a data path violated, the PDR system
installs a word corruptor on the ICAP controller.  Corruption is
deterministic (seeded from the operating point) so experiments reproduce
exactly, and its density grows with the size of the violation — a path
missing timing by 2 % flips far fewer bits than one missing by 20 %,
matching the empirically graceful-then-catastrophic behaviour of
over-clocked silicon.
"""

from __future__ import annotations

import struct
from typing import Callable, List, Tuple

from ..bitstream.crc import crc32c_words
from ..fabric.asp import xorshift_walk

try:  # the walk hands out numpy masks when numpy is present
    import numpy as _np
except ImportError:  # pragma: no cover - depends on environment
    _np = None

__all__ = ["make_word_corruptor", "corruption_rate"]

#: Masks the corruptor draws from its vectorised walk at a time.  The
#: walk's state carries from chunk to chunk, so the size moves no mask;
#: it bounds the memory one load's draw holds.
_CHUNK_WORDS = 16384


def corruption_rate(freq_mhz: float, fmax_mhz: float) -> float:
    """Fraction of words corrupted for a violated data path.

    Zero within fmax; above it ``(6 v)²`` for the relative violation
    ``v = freq / fmax - 1``, saturating at every word from ``v = 1/6``.
    On the Table-I grid (fmax 315 MHz at 40 °C) the ICAP saw 1,195 of a
    load's 132,190 words corrupted at 320 MHz @ 40 °C, and 97,207 at
    360 MHz @ 40 °C.
    """
    if freq_mhz <= fmax_mhz:
        return 0.0
    violation = freq_mhz / fmax_mhz - 1.0
    rate = (violation * 6.0) ** 2
    return min(rate, 1.0)


def _salt_words(region: str) -> List[int]:
    """Pack a region name into 32-bit words for seed folding."""
    data = region.encode("utf-8")
    return [
        int.from_bytes(data[i : i + 4].ljust(4, b"\0"), "big")
        for i in range(0, len(data), 4)
    ]


def make_word_corruptor(
    freq_mhz: float,
    fmax_mhz: float,
    temp_c: float,
    region: str = "",
    attempt: int = 0,
) -> Callable[[bytes], Tuple[bytes, int]]:
    """A deterministic fault injector over big-endian packed words.

    The injector maps a burst's bytes to ``(bytes, flipped_words)``: it
    XORs each word with the next mask of an xorshift32 walk
    (:func:`~repro.fabric.asp.xorshift_walk`), whose state carries from
    burst to burst.  A word's mask depends only on the seed, the rate
    and the word's place in the stream, never on the word.  Within fmax
    the injector returns its input unchanged and 0.

    The RNG seed combines the operating point with the target region and
    the retry attempt index, so the *same* (point, region, attempt) run
    always corrupts the same words, while a retry of the same transfer
    draws a fresh corruption pattern — without it, a deterministic retry
    at the same operating point replays bit-identical corruption and can
    never succeed, even when the expected corrupted-word count is < 1.
    """
    if attempt < 0:
        raise ValueError("attempt index cannot be negative")
    rate = corruption_rate(freq_mhz, fmax_mhz)
    if rate <= 0.0:
        return lambda data: (data, 0)
    threshold = int(rate * 0xFFFFFFFF)
    state = crc32c_words(
        [
            int(freq_mhz * 1000) & 0xFFFFFFFF,
            int(temp_c * 1000) & 0xFFFFFFFF,
            attempt & 0xFFFFFFFF,
            *_salt_words(region),
        ]
    ) or 0x1234ABCD
    masks = []  # the drawn chunk; ``used`` of it went to earlier bursts
    used = 0

    def corrupt(data: bytes) -> Tuple[bytes, int]:
        nonlocal masks, used, state
        count = len(data) >> 2
        if used == len(masks):
            # The scalar walk costs the same per word however it is cut,
            # so without numpy it draws only what the burst needs.
            chunk = _CHUNK_WORDS if _np is not None else count
            masks, state = xorshift_walk(state, chunk, 0xFFFFFFFF, threshold)
            used = 0
        window = masks[used : used + count]
        used += len(window)
        if len(window) == count:
            return _xor_masks(data, window)
        # The burst runs past the drawn chunk: the rest comes from the next.
        split = len(window) << 2
        head, flips = _xor_masks(data[:split], window)
        tail, more = corrupt(data[split:])
        return head + tail, flips + more

    return corrupt


def _xor_masks(data: bytes, masks) -> Tuple[bytes, int]:
    """XOR ``masks`` (a walk's numpy array or list) into big-endian
    packed ``data``; returns the bytes and how many words changed.

    Words with a zero mask are left as they are, and a window without a
    nonzero mask returns ``data`` itself.
    """
    if isinstance(masks, list):
        flips = len(masks) - masks.count(0)
        if flips:
            mask = struct.pack(f">{len(masks)}I", *masks)
            data = (
                int.from_bytes(data, "big") ^ int.from_bytes(mask, "big")
            ).to_bytes(len(data), "big")
        return data, flips
    flips = int(_np.count_nonzero(masks))
    if flips:
        data = (_np.frombuffer(data, ">u4") ^ masks).astype(">u4").tobytes()
    return data, flips
