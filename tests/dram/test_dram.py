"""Tests for the DDR device and controller models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram import BankDramController, BankTiming, DramDevice
from repro.sim import Simulator


# ------------------------------------------------------------------- device --
def test_device_size_validation():
    with pytest.raises(ValueError):
        DramDevice(size_bytes=0)


def test_store_load_roundtrip():
    device = DramDevice()
    device.store(0x1234, b"some payload bytes")
    assert device.load(0x1234, 18) == b"some payload bytes"


def test_unwritten_memory_reads_zero():
    device = DramDevice()
    assert device.load(0x9999, 8) == bytes(8)


def test_store_across_page_boundary():
    device = DramDevice()
    data = bytes(range(256)) * 40  # 10240 bytes, crosses 4 KiB pages
    device.store(4096 - 100, data)
    assert device.load(4096 - 100, len(data)) == data


def test_out_of_bounds_rejected():
    device = DramDevice(size_bytes=1024)
    with pytest.raises(ValueError):
        device.load(1000, 100)
    with pytest.raises(ValueError):
        device.store(-1, b"x")


def test_row_hit_vs_miss_latency():
    device = DramDevice()
    timing = device.timing
    first = device.bank_access(0, 64)[0]       # cold: row miss
    second = device.bank_access(64, 64)[0]     # same row: hit
    other = device.bank_access(10 * timing.row_bytes * timing.banks, 64)[0]
    assert first == "miss"
    assert second == "hit"
    assert other == "conflict"  # same bank, different row
    # Default calibration: hit 202 ns, miss and conflict 302 ns.
    latency = BankTiming().access_ns
    assert [latency(first), latency(second), latency(other)] == [
        302.0, 202.0, 302.0
    ]


def test_banks_keep_independent_open_rows():
    device = DramDevice()
    timing = device.timing
    # Rows in different banks stay open simultaneously.
    addr_bank0 = 0
    addr_bank1 = timing.row_bytes
    device.bank_access(addr_bank0, 64)
    device.bank_access(addr_bank1, 64)
    assert device.bank_access(addr_bank0, 64)[0] == "hit"
    assert device.bank_access(addr_bank1, 64)[0] == "hit"


def test_transfer_time_scales_with_size():
    device = DramDevice()
    assert device.transfer_ns(2048) == pytest.approx(2 * device.transfer_ns(1024))


@settings(max_examples=50, deadline=None)
@given(
    addr=st.integers(min_value=0, max_value=2**20),
    data=st.binary(min_size=1, max_size=512),
)
def test_property_store_load(addr, data):
    device = DramDevice()
    device.store(addr, data)
    assert device.load(addr, len(data)) == data


# --------------------------------------------------------------- controller --
def test_controller_read_write():
    sim = Simulator()
    controller = BankDramController(sim)
    got = {}

    def driver(sim):
        yield controller.write(0x40, b"abcd")
        got["data"] = yield controller.read(0x40, 4)

    sim.process(driver(sim))
    sim.run()
    assert got["data"] == b"abcd"
    assert controller.counts.requests_served == 2
    assert controller.counts.bytes_written == 4
    assert controller.counts.bytes_read == 4


def test_controller_serves_fifo():
    sim = Simulator()
    controller = BankDramController(sim)
    order = []

    def reader(sim, tag):
        yield controller.read(0, 1024)
        order.append(tag)

    for tag in ("first", "second", "third"):
        sim.process(reader(sim, tag))
    sim.run()
    assert order == ["first", "second", "third"]


def test_idle_gap_does_not_accumulate_refresh_debt():
    """Regression: refreshes during idle must not stall the next burst.

    An early version charged one stall per elapsed tREFI, so a 1 ms idle
    gap added ~20 us to the next transfer's first burst.
    """
    sim = Simulator()
    controller = BankDramController(sim)
    durations = {}

    def driver(sim):
        start = sim.now
        yield controller.read(0, 1024)
        durations["first"] = sim.now - start
        yield sim.timeout(5e6)  # 5 ms idle
        start = sim.now
        yield controller.read(0, 1024)
        durations["after_idle"] = sim.now - start

    sim.process(driver(sim))
    sim.run()
    stall = controller.timing.trfc_ns
    assert durations["after_idle"] <= durations["first"] + stall + 1.0


def test_sustained_refresh_overhead_about_two_percent():
    """During continuous traffic, refresh costs ~tRFC/tREFI of bandwidth."""
    sim = Simulator()
    controller = BankDramController(sim, DramDevice())
    timing = controller.timing
    state = {}

    def driver(sim):
        start = sim.now
        for i in range(200):
            yield controller.read(i * 1024 % (1 << 20), 1024)
        state["elapsed"] = sim.now - start

    sim.process(driver(sim))
    sim.run()
    duty = timing.trfc_ns / timing.trefi_ns
    # Elapsed must exceed the no-refresh time by roughly the refresh duty.
    no_refresh = state["elapsed"] / (1 + duty)
    overhead = state["elapsed"] - no_refresh
    assert overhead > 0
    assert overhead / state["elapsed"] == pytest.approx(duty, rel=0.5)
