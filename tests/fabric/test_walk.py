"""The xorshift32 walk shared by the ASP fill and the over-clock corruptor.

The vectorised walk must hand out exactly the masks and the carried
state of the scalar loop, whatever share of states passes the test:
the corruptor draws its masks chunk by chunk and continues each chunk
from the state the last one ended on.
"""

import struct

import pytest

from repro.fabric import asp as asp_mod
from repro.timing import failures

ALL_ONES = 0xFFFFFFFF
#: Walk thresholds: none, one state, ~1 %, half, the dense 360 MHz rate
#: and every state but one.
THRESHOLDS = [0, 1, ALL_ONES // 100, ALL_ONES // 2, int(0.735 * ALL_ONES), ALL_ONES]


def _needs_numpy():
    if asp_mod._np is None:
        pytest.skip("numpy unavailable")


@pytest.mark.parametrize("below", THRESHOLDS)
@pytest.mark.parametrize("count", [4096, 4097, failures._CHUNK_WORDS])
def test_numpy_walk_matches_scalar_loop(monkeypatch, below, count):
    _needs_numpy()
    seed = 0x1234ABCD
    masks, state = asp_mod.xorshift_walk(seed, count, ALL_ONES, below)
    assert isinstance(masks, asp_mod._np.ndarray)
    # The next chunk continues from the carried state.
    more, end = asp_mod.xorshift_walk(state, count, ALL_ONES, below)
    monkeypatch.setattr(asp_mod, "_np", None)
    assert asp_mod.xorshift_walk(seed, count, ALL_ONES, below) == (
        masks.tolist(),
        state,
    )
    assert asp_mod.xorshift_walk(state, count, ALL_ONES, below) == (more.tolist(), end)


def _bursts(size):
    """Big-endian bursts running a few bursts past the first mask chunk:
    a lead-in, then ``size``-word bursts across the chunk boundary."""
    lead = failures._CHUNK_WORDS - 2 * size - 3
    words = [(i * 0x9E3779B1) & ALL_ONES for i in range(lead + 6 * size)]
    cuts = [0, lead] + list(range(lead + size, len(words) + 1, size))
    return [
        struct.pack(f">{stop - start}I", *words[start:stop])
        for start, stop in zip(cuts, cuts[1:])
    ]


@pytest.mark.parametrize("below", THRESHOLDS)
@pytest.mark.parametrize("size", [1, 255, 256, 257])
def test_numpy_corruptor_matches_scalar_loop(monkeypatch, below, size):
    _needs_numpy()
    # The rate whose threshold is ``below`` (0 corrupts nothing but still
    # walks: a rate of 0 would skip the walk).
    rate = max(below + 0.5, 0.25) / ALL_ONES
    assert int(rate * ALL_ONES) == below
    monkeypatch.setattr(failures, "corruption_rate", lambda freq, fmax: rate)
    bursts = _bursts(size)

    def corrupt_all():
        corrupt = failures.make_word_corruptor(330.0, 300.0, 40.0, region="RP1")
        return [corrupt(data) for data in bursts]

    vectorised = corrupt_all()
    monkeypatch.setattr(asp_mod, "_np", None)
    assert corrupt_all() == vectorised
    monkeypatch.setattr(failures, "_np", None)  # draws burst by burst
    assert corrupt_all() == vectorised
    if below == 0:
        assert vectorised == [(data, 0) for data in bursts]
