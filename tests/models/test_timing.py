"""Tests for the over-clocking timing model and fault injectors."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.timing import (
    CriticalPath,
    FailureMode,
    PDR_CONTROL_PATH,
    PDR_DATA_PATH,
    TimingModel,
    corruption_rate,
    default_timing_model,
    make_word_corruptor,
)


def _through(corruptor, words):
    """``words`` through ``corruptor`` as one big-endian packed burst."""
    data, _flipped = corruptor(struct.pack(f">{len(words)}I", *words))
    return list(struct.unpack(f">{len(words)}I", data))


@pytest.fixture()
def model():
    return default_timing_model()


def test_paper_frontier_at_40c(model):
    """Table I regimes at bench temperature."""
    for freq in (100, 140, 180, 200, 240, 280):
        assert model.ok(PDR_CONTROL_PATH, freq, 40.0)
        assert model.ok(PDR_DATA_PATH, freq, 40.0)
    # 310: control fails (no interrupt), data holds (CRC valid).
    assert not model.ok(PDR_CONTROL_PATH, 310, 40.0)
    assert model.ok(PDR_DATA_PATH, 310, 40.0)
    # 320+: data also fails (CRC not valid).
    assert not model.ok(PDR_DATA_PATH, 320, 40.0)
    assert not model.ok(PDR_DATA_PATH, 360, 40.0)


def test_paper_stress_frontier(model):
    """§IV-A: data path at 310 MHz passes up to 90 °C, fails at 100 °C."""
    for temp in (40, 50, 60, 70, 80, 90):
        assert model.ok(PDR_DATA_PATH, 310, temp)
    assert not model.ok(PDR_DATA_PATH, 310, 100)
    # Every Table I frequency <=280 passes at every stress temperature.
    for temp in range(40, 101, 10):
        for freq in (100, 140, 180, 200, 240, 280):
            assert model.ok(PDR_DATA_PATH, freq, temp)
            assert model.ok(PDR_CONTROL_PATH, freq, temp)


def test_fmax_decreases_with_temperature():
    path = CriticalPath("p", 300.0, FailureMode.DATA_CORRUPT)
    assert path.fmax_mhz(100.0) < path.fmax_mhz(40.0)
    assert path.fmax_mhz(40.0) == 300.0


def test_slack_sign(model):
    path = model.path(PDR_DATA_PATH)
    assert path.slack_ns(200.0, 40.0) > 0
    assert path.slack_ns(360.0, 40.0) < 0
    with pytest.raises(ValueError):
        path.slack_ns(0.0, 40.0)


def test_failures_sorted_worst_first(model):
    violated = model.failures(360.0, 40.0)
    assert [p.name for p in violated] == [PDR_CONTROL_PATH, PDR_DATA_PATH]


def test_max_safe_frequency(model):
    assert model.max_safe_frequency(40.0) == pytest.approx(305.0)
    with pytest.raises(ValueError):
        TimingModel().max_safe_frequency(40.0)


def test_duplicate_path_rejected(model):
    with pytest.raises(ValueError):
        model.add_path(CriticalPath(PDR_DATA_PATH, 100, FailureMode.DATA_CORRUPT))


def test_unknown_path_rejected(model):
    with pytest.raises(KeyError):
        model.ok("nonexistent", 100, 40)


# --------------------------------------------------------------- injectors --
def test_corruption_rate_zero_within_fmax():
    assert corruption_rate(300.0, 315.0) == 0.0
    assert corruption_rate(315.0, 315.0) == 0.0


def test_corruption_rate_grows_with_violation():
    small = corruption_rate(320.0, 315.0)
    large = corruption_rate(360.0, 315.0)
    assert 0 < small < large <= 1.0


def test_corruptor_identity_when_safe():
    corruptor = make_word_corruptor(280.0, 315.0, 40.0)
    data = struct.pack(">3I", 1, 2, 3)
    assert corruptor(data)[0] is data


def test_corruptor_deterministic():
    a = make_word_corruptor(360.0, 315.0, 40.0)
    b = make_word_corruptor(360.0, 315.0, 40.0)
    words = list(range(10_000))
    assert _through(a, words) == _through(b, words)


def test_corruptor_differs_across_operating_points():
    words = list(range(10_000))
    a = _through(make_word_corruptor(360.0, 315.0, 40.0), words)
    b = _through(make_word_corruptor(340.0, 315.0, 40.0), words)
    assert a != b


def test_corruptor_density_tracks_rate():
    words = [0] * 100_000
    corrupted = _through(make_word_corruptor(360.0, 315.0, 40.0), words)
    flipped = sum(1 for w in corrupted if w)
    expected = corruption_rate(360.0, 315.0) * len(words)
    assert flipped == pytest.approx(expected, rel=0.2)


@settings(max_examples=50, deadline=None)
@given(
    freq=st.floats(min_value=50.0, max_value=600.0),
    temp=st.floats(min_value=0.0, max_value=125.0),
)
def test_property_pass_fail_frontier_monotone(freq, temp):
    """If a path passes at (f, T), it passes at any lower f and T."""
    model = default_timing_model()
    for name in model.path_names():
        if model.ok(name, freq, temp):
            assert model.ok(name, freq * 0.9, temp)
            assert model.ok(name, freq, max(temp - 10, 0.0))
