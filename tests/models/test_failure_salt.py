"""Regression tests for the fault-injector seed salt.

The corruptor used to seed only from (frequency, temperature), so a
retry of a failed transfer replayed bit-identical corruption and could
never succeed at the same operating point.  The seed now folds in the
target region and the attempt index — reproducible per (point, region,
attempt), fresh across retries.
"""

import hashlib
import struct

import pytest

from repro.timing import make_word_corruptor

FREQ, FMAX, TEMP = 330.0, 300.0, 40.0
WORDS = list(range(4096))


def _through(corruptor, words):
    """``words`` through ``corruptor`` as one big-endian packed burst."""
    data, _flipped = corruptor(struct.pack(f">{len(words)}I", *words))
    return list(struct.unpack(f">{len(words)}I", data))


def _corrupt(**kwargs):
    corruptor = make_word_corruptor(FREQ, FMAX, TEMP, **kwargs)
    return _through(corruptor, WORDS)


def test_same_point_region_attempt_is_reproducible():
    first = _corrupt(region="RP2", attempt=0)
    second = _corrupt(region="RP2", attempt=0)
    assert first == second
    assert first != WORDS  # the violation really corrupts something


def test_attempt_index_redraws_the_corruption():
    assert _corrupt(region="RP2", attempt=0) != _corrupt(region="RP2", attempt=1)
    assert _corrupt(region="RP2", attempt=1) != _corrupt(region="RP2", attempt=2)


def test_region_salts_the_seed():
    assert _corrupt(region="RP1", attempt=0) != _corrupt(region="RP2", attempt=0)


def test_long_region_names_fold_fully():
    # Names longer than one 32-bit word must still differentiate.
    a = _corrupt(region="region_alpha", attempt=0)
    b = _corrupt(region="region_alphb", attempt=0)
    assert a != b


def test_defaults_are_backward_compatible():
    # Omitting the salt arguments is the legacy (freq, temp) seed.
    assert _corrupt() == _corrupt(region="", attempt=0)


def test_negative_attempt_rejected():
    with pytest.raises(ValueError):
        make_word_corruptor(FREQ, FMAX, TEMP, region="RP2", attempt=-1)


def test_within_fmax_is_identity_regardless_of_salt():
    corruptor = make_word_corruptor(100.0, 300.0, TEMP, region="RP2", attempt=7)
    assert _through(corruptor, WORDS) == WORDS


@pytest.mark.parametrize(
    "freq, fmax, region, attempt, sha256, flips",
    [
        (
            FREQ, FMAX, "RP2", 1,
            "a1a8f9eb37291d2af0fa2063c1fc4b8c5ffec9f8bb0ff3a2c29f25d2769f410f",
            1485,
        ),
        (
            320.0, 315.0, "RP1", 0,
            "fbed0d93091341ed892dc2cc0670ab614a69585f7ba1ef7cd9d569ce8175ef30",
            35,
        ),
    ],
)
def test_corruption_pattern_is_pinned(freq, fmax, region, attempt, sha256, flips):
    # Fed in 256-word bursts, as the ICAP sees DMA bursts: the xorshift
    # state carries across calls.  Any change to the pattern changes
    # which loads fail and how, so the exact output is pinned here.
    corruptor = make_word_corruptor(freq, fmax, TEMP, region=region, attempt=attempt)
    out = []
    for start in range(0, len(WORDS), 256):
        out.extend(_through(corruptor, WORDS[start : start + 256]))
    assert sum(a != b for a, b in zip(WORDS, out)) == flips
    assert hashlib.sha256(struct.pack(f"<{len(out)}I", *out)).hexdigest() == sha256
