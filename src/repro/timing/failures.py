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

from typing import Callable, List

from ..bitstream.crc import crc32c_words

__all__ = ["make_word_corruptor", "corruption_rate"]


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
) -> Callable[[List[int]], List[int]]:
    """A deterministic ``words -> words`` fault injector.

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
        return lambda words: words
    threshold = int(rate * 0xFFFFFFFF)
    seed = crc32c_words(
        [
            int(freq_mhz * 1000) & 0xFFFFFFFF,
            int(temp_c * 1000) & 0xFFFFFFFF,
            attempt & 0xFFFFFFFF,
            *_salt_words(region),
        ]
    ) or 0x1234ABCD
    state_box = [seed]

    def corrupt(words: List[int]) -> List[int]:
        # The xorshift32 steps are inlined, as in encode_asp_packed: the
        # walk takes one step per word of every over-clocked transfer.
        state = state_box[0]
        mask = 0xFFFFFFFF
        out = list(words)
        for i in range(len(out)):
            state ^= (state << 13) & mask
            state ^= state >> 17
            state = (state ^ (state << 5)) & mask
            if state < threshold:
                state ^= (state << 13) & mask
                state ^= state >> 17
                state = (state ^ (state << 5)) & mask
                out[i] ^= state or 0x1
        state_box[0] = state
        return out

    return corrupt
