"""Property tests for scatter-gather descriptor chains."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram import DramDevice
from repro.dma.descriptors import DESC_BYTES, SgDescriptor, write_descriptor_chain


@settings(max_examples=40, deadline=None)
@given(
    # Lengths are whole 32-bit words: the MM2S engine moves nothing else.
    lengths=st.lists(
        st.integers(min_value=1, max_value=1 << 18).map(lambda words: 4 * words),
        min_size=1,
        max_size=12,
    ),
    base_index=st.integers(min_value=0, max_value=1000),
)
def test_property_chain_roundtrip(lengths, base_index):
    """Whatever the chain, the laid-out descriptors link correctly and
    carry their lengths; SOF/EOF land on head/tail exactly."""
    dram = DramDevice()
    base = 0x100000 + base_index * DESC_BYTES
    descriptors = [
        SgDescriptor(buffer_addr=0x20000 + i * 0x1000, length=length)
        for i, length in enumerate(lengths)
    ]
    head = write_descriptor_chain(dram, base, descriptors)
    assert head == base

    addr = head
    seen = []
    for index in range(len(lengths)):
        raw = dram.load(addr, DESC_BYTES)
        fields = struct.unpack(">8I", raw)
        next_addr, buffer_addr, control = fields[0], fields[2], fields[6]
        seen.append((buffer_addr, control & 0x03FFFFFF))
        sof = bool(control & (1 << 27))
        eof = bool(control & (1 << 26))
        assert sof == (index == 0)
        assert eof == (index == len(lengths) - 1)
        addr = next_addr

    assert seen == [
        (0x20000 + i * 0x1000, length) for i, length in enumerate(lengths)
    ]


@settings(max_examples=30, deadline=None)
@given(length=st.integers(min_value=-5, max_value=1 << 27))
def test_property_descriptor_length_bounds(length):
    if 0 < length <= 0x03FFFFFF and length % 4 == 0:
        SgDescriptor(buffer_addr=0, length=length)
    else:
        with pytest.raises(ValueError):
            SgDescriptor(buffer_addr=0, length=length)
