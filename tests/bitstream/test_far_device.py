"""Tests for frame addressing and the device layout."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitstream import (
    FRAME_BYTES,
    ColumnType,
    DeviceLayout,
    FrameAddress,
    RegionSpec,
    make_z7020_layout,
)


def test_far_encode_decode_roundtrip_simple():
    far = FrameAddress(block_type=1, top=1, row=3, column=17, minor=9)
    assert FrameAddress.decode(far.encode()) == far


@settings(max_examples=100, deadline=None)
@given(
    block_type=st.integers(min_value=0, max_value=7),
    top=st.integers(min_value=0, max_value=1),
    row=st.integers(min_value=0, max_value=31),
    column=st.integers(min_value=0, max_value=1023),
    minor=st.integers(min_value=0, max_value=127),
)
def test_property_far_roundtrip(block_type, top, row, column, minor):
    far = FrameAddress(block_type, top, row, column, minor)
    assert FrameAddress.decode(far.encode()) == far


def test_far_field_validation():
    with pytest.raises(ValueError):
        FrameAddress(minor=128)
    with pytest.raises(ValueError):
        FrameAddress(row=32)


def test_far_ordering_matches_index_order():
    layout = make_z7020_layout()
    previous = -1
    for index in range(0, layout.total_frames, 997):
        far = layout.frame_address(index)
        assert layout.frame_index(far) == index
        assert index > previous
        previous = index


def test_layout_validation():
    with pytest.raises(ValueError):
        DeviceLayout(rows=0, columns=[ColumnType.CLB], regions={})
    with pytest.raises(ValueError):
        DeviceLayout(rows=1, columns=[], regions={})
    with pytest.raises(ValueError):
        DeviceLayout(rows=1, columns=["nonsense"], regions={})


def test_region_out_of_range_rejected():
    with pytest.raises(ValueError):
        DeviceLayout(
            rows=1,
            columns=[ColumnType.CLB] * 4,
            regions={"R": RegionSpec("R", row=5, col_start=0, col_end=1)},
        )
    with pytest.raises(ValueError):
        DeviceLayout(
            rows=1,
            columns=[ColumnType.CLB] * 4,
            regions={"R": RegionSpec("R", row=0, col_start=0, col_end=9)},
        )


def test_region_spec_validation():
    with pytest.raises(ValueError):
        RegionSpec("X", row=0, col_start=3, col_end=1)


def test_z7020_reference_floorplan():
    layout = make_z7020_layout()
    assert set(layout.regions) == {"RP1", "RP2", "RP3", "RP4"}
    # All four partitions are the same size (the paper reconfigures any of
    # RP1-4 with ~0.5 MB partials).
    counts = {name: layout.region_frame_count(name) for name in layout.regions}
    assert len(set(counts.values())) == 1
    assert counts["RP1"] == 1304
    assert layout.region_bytes("RP1") == 1304 * FRAME_BYTES


def test_region_frames_are_contiguous():
    layout = make_z7020_layout()
    for name in layout.regions:
        frames = layout.region_frames(name)
        indices = [layout.frame_index(far) for far in frames]
        assert indices == list(range(indices[0], indices[0] + len(indices)))


def test_next_address_walks_whole_device():
    layout = make_z7020_layout()
    far = layout.frame_address(0)
    for expected_index in range(1, 200):
        far = layout.next_address(far)
        assert layout.frame_index(far) == expected_index


def test_frame_index_bounds():
    layout = make_z7020_layout()
    with pytest.raises(ValueError):
        layout.frame_address(layout.total_frames)
    with pytest.raises(ValueError):
        layout.frame_address(-1)
    with pytest.raises(ValueError):
        layout.frame_index(FrameAddress(column=999))


def test_far_word_index_matches_the_frame_address_walk():
    """The arithmetic FAR-word mapping agrees with an independent oracle:
    the encoding of every frame the layout enumerates, bits 26-31 masked."""
    import random

    layout = make_z7020_layout()
    oracle = {
        layout.frame_address(index).encode(): index
        for index in range(layout.total_frames)
    }
    last_column = len(layout.columns) - 1
    edges = [
        FrameAddress(row=layout.rows - 1, column=last_column),
        FrameAddress(row=layout.rows),  # one row past the half
        FrameAddress(top=1, row=layout.rows - 1, column=last_column),
        FrameAddress(column=last_column + 1),
        FrameAddress(column=5, minor=layout.minors_of_column(5) - 1),
        FrameAddress(column=5, minor=layout.minors_of_column(5)),
        FrameAddress(block_type=1),
        FrameAddress(block_type=7, top=1, row=1, column=3, minor=2),
    ]
    rng = random.Random(5)
    words = list(oracle) + [far.encode() for far in edges]
    words += [word | (0x3F << 26) for word in words[::97]]
    words += [rng.getrandbits(32) for _ in range(5000)]
    for word in words:
        assert layout.far_word_index(word) == oracle.get(word & 0x03FFFFFF), hex(word)


def test_unknown_region_rejected():
    layout = make_z7020_layout()
    with pytest.raises(KeyError):
        layout.region("RP9")


def test_minor_out_of_range_for_column_type():
    layout = make_z7020_layout()
    # Column 5 is BRAM (28 minors); minor 35 is valid only for CLB columns.
    with pytest.raises(ValueError):
        layout.frame_index(FrameAddress(column=5, minor=35))
