"""Tests for scatter-gather descriptors and batch reconfiguration."""

import pytest

from repro.core import PdrSystem
from repro.dma import SgDescriptor, write_descriptor_chain
from repro.fabric import Aes128Asp, FirFilterAsp, MatMulAsp


def test_descriptor_validation():
    with pytest.raises(ValueError):
        SgDescriptor(buffer_addr=0, length=0)
    with pytest.raises(ValueError):
        SgDescriptor(buffer_addr=0, length=1 << 27)
    # The MM2S engine moves whole 32-bit words.
    with pytest.raises(ValueError, match="2302"):
        SgDescriptor(buffer_addr=0, length=2302)


def test_chain_layout_in_dram():
    from repro.dram import DramDevice

    dram = DramDevice()
    descriptors = [
        SgDescriptor(buffer_addr=0x1000, length=256),
        SgDescriptor(buffer_addr=0x2000, length=512),
    ]
    head = write_descriptor_chain(dram, 0x8000, descriptors)
    assert head == 0x8000
    first = dram.load(0x8000, 32)
    # NXTDESC points at the second descriptor.
    assert int.from_bytes(first[0:4], "big") == 0x8020
    assert int.from_bytes(first[8:12], "big") == 0x1000
    control = int.from_bytes(first[24:28], "big")
    assert control & (1 << 27)  # SOF on the head
    second = dram.load(0x8020, 32)
    assert int.from_bytes(second[24:28], "big") & (1 << 26)  # EOF on the tail


def test_chain_validation():
    from repro.dram import DramDevice

    dram = DramDevice()
    with pytest.raises(ValueError):
        write_descriptor_chain(dram, 0x8000, [])
    with pytest.raises(ValueError):
        write_descriptor_chain(
            dram, 0x8001, [SgDescriptor(buffer_addr=0, length=4)]
        )


@pytest.fixture(scope="module")
def system():
    return PdrSystem()


def test_batch_reconfigures_every_region(system):
    jobs = [
        ("RP1", FirFilterAsp([1, 2])),
        ("RP2", Aes128Asp([1, 2, 3, 4])),
        ("RP3", MatMulAsp(2)),
    ]
    batch = system.reconfigure_batch(jobs, 200.0)
    assert batch.all_valid
    assert batch.regions == ["RP1", "RP2", "RP3"]
    assert batch.total_bytes == 3 * 528_760
    # All three regions are functional afterwards.
    assert system.run_asp("RP1", [1, 0]) == [1, 2]
    assert len(system.run_asp("RP2", [0, 0, 0, 0])) == 4
    assert system.run_asp("RP3", [1, 0, 0, 1, 5, 6, 7, 8]) == [5, 6, 7, 8]


def test_batch_throughput_matches_single(system):
    """Back-to-back chain sustains the single-transfer rate."""
    single = system.reconfigure("RP4", FirFilterAsp([9]), 200.0)
    batch = system.reconfigure_batch(
        [("RP1", FirFilterAsp([5])), ("RP2", FirFilterAsp([6]))], 200.0
    )
    assert batch.throughput_mb_s == pytest.approx(
        single.throughput_mb_s, rel=0.01
    )


def test_batch_writes_back_completion_status(system):
    system.reconfigure_batch([("RP1", FirFilterAsp([3]))], 180.0)
    # The head descriptor's STATUS word carries the completed bit.
    status = int.from_bytes(system.dram.load(0x0F00_0000 + 28, 4), "big")
    assert status & (1 << 31)


def test_batch_validation(system):
    with pytest.raises(ValueError):
        system.reconfigure_batch([], 200.0)
    with pytest.raises(KeyError):
        system.reconfigure_batch([("RP9", FirFilterAsp([1]))], 200.0)


def test_batch_corruption_detected_per_region(system):
    """Over-clocked past the data path, every region in the chain fails
    its read-back independently."""
    batch = system.reconfigure_batch(
        [("RP1", FirFilterAsp([7])), ("RP2", FirFilterAsp([8]))], 360.0
    )
    assert not batch.all_valid
    assert set(batch.region_valid.values()) == {False}


def test_batch_clock_request_is_gated_by_a_brownout():
    """A browned-out rail clamps a batch's clock as it clamps a single
    load's, counts the clamp and says so in the trace."""
    system = PdrSystem()
    system.supply.brownout(100.0, 50e6)
    batch = system.reconfigure_batch(
        [("RP1", FirFilterAsp([5])), ("RP2", FirFilterAsp([6]))], 200.0
    )
    assert batch.freq_mhz == 100.0
    assert batch.latency_us == pytest.approx(2650.818, abs=1e-3)
    assert batch.all_valid
    assert system.power_counts.brownout_clamps == 1
    assert any(
        "brownout: 200 MHz request clamped to 100 MHz" in record.message
        for record in system.trace.records
    )
