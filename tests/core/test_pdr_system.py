"""Integration tests for the Fig. 2 PDR system."""

import pytest

from repro.core import PdrSystem, PdrSystemConfig, TABLE1_BITSTREAM_BYTES
from repro.fabric import Aes128Asp, FirFilterAsp, MatMulAsp
from repro.timing import FailureMode


@pytest.fixture(scope="module")
def system(shared_system):
    """One shared system: transfers are independent, as on the bench."""
    return shared_system


def test_bitstream_padded_to_reference_size(system):
    bitstream = system.make_bitstream("RP1", FirFilterAsp([1]))
    assert bitstream.size_bytes == TABLE1_BITSTREAM_BYTES


def test_bitstream_cache_returns_same_object(system):
    a = system.make_bitstream("RP1", FirFilterAsp([1]))
    b = system.make_bitstream("RP1", FirFilterAsp([1]))
    c = system.make_bitstream("RP1", FirFilterAsp([2]))
    assert a is b
    assert c is not a


def test_a_built_bitstream_is_staged_once():
    """On one system, making a built bitstream again returns the same
    object, and staging it again returns the same address."""
    system = PdrSystem()
    bitstream = system.make_bitstream("RP1", FirFilterAsp([1]))
    addr = system.stage_bitstream(bitstream)
    again = system.make_bitstream("RP1", FirFilterAsp([1]))
    assert again is bitstream
    assert system.stage_bitstream(again) == addr
    assert system.dram.load(addr, 16) == bitstream.to_bytes()[:16]


def test_nominal_reconfiguration(system):
    system.set_die_temperature(40.0)
    result = system.reconfigure("RP1", FirFilterAsp([2, 1]), 100.0)
    assert result.succeeded
    assert result.latency_us == pytest.approx(1325.6, rel=0.005)
    assert result.throughput_mb_s == pytest.approx(399.06, rel=0.005)
    assert result.failure_modes == []
    # The region now computes the FIR.
    assert system.run_asp("RP1", [1, 0, 0]) == [2, 1, 0]


def test_overclocked_reconfiguration_knee(system):
    r200 = system.reconfigure("RP1", FirFilterAsp([2, 1]), 200.0)
    r280 = system.reconfigure("RP1", FirFilterAsp([2, 1]), 280.0)
    assert r200.succeeded and r280.succeeded
    # Above the knee the gain is marginal (paper: saturation).
    assert r280.throughput_mb_s / r200.throughput_mb_s < 1.02
    assert r280.throughput_mb_s == pytest.approx(790.14, rel=0.005)


def test_310_no_interrupt_but_crc_valid(system):
    result = system.reconfigure("RP2", Aes128Asp([1, 2, 3, 4]), 310.0)
    assert not result.interrupt_seen
    assert result.latency_us is None
    assert result.throughput_mb_s is None
    assert result.crc_valid
    assert FailureMode.CONTROL_HANG in result.failure_modes
    # The configuration actually landed: the ASP works.
    out = system.run_asp("RP2", [0, 0, 0, 0])
    assert len(out) == 4


def test_320_corrupts_bitstream(system):
    result = system.reconfigure("RP3", MatMulAsp(2), 320.0)
    assert not result.crc_valid
    assert FailureMode.DATA_CORRUPT in result.failure_modes
    assert not result.succeeded


def test_swapping_asps_changes_function(system):
    system.reconfigure("RP4", FirFilterAsp([1, 1]), 200.0)
    assert system.run_asp("RP4", [1, 2, 3]) == [1, 3, 5]
    system.reconfigure("RP4", MatMulAsp(2), 200.0)
    identity_times_b = system.run_asp("RP4", [1, 0, 0, 1, 4, 3, 2, 1])
    assert identity_times_b == [4, 3, 2, 1]


def test_temperature_dependence_of_310(system):
    system.set_die_temperature(90.0)
    ok_at_90 = system.reconfigure("RP1", FirFilterAsp([5]), 310.0)
    system.set_die_temperature(100.0)
    fail_at_100 = system.reconfigure("RP1", FirFilterAsp([5]), 310.0)
    system.set_die_temperature(40.0)
    assert ok_at_90.crc_valid
    assert not fail_at_100.crc_valid


def test_power_sample_matches_model(system):
    result = system.reconfigure("RP1", FirFilterAsp([9]), 200.0)
    expected = system.power_model.pdr_power_w(200.0, 40.0)
    assert result.pdr_power_w == pytest.approx(expected, abs=0.01)
    assert result.board_power_w == pytest.approx(expected + 2.2, abs=0.01)
    assert result.energy_mj == pytest.approx(
        result.pdr_power_w * result.latency_us / 1e3, rel=1e-6
    )


def test_oled_reflects_last_run(system):
    result = system.reconfigure("RP1", FirFilterAsp([9]), 140.0)
    assert "140" in system.oled.line(0)
    assert f"{result.latency_us:8.1f}" in system.oled.line(2)
    assert "valid" in system.oled.line(3)


def test_unknown_region_rejected(system):
    with pytest.raises(KeyError):
        system.reconfigure("RP9", FirFilterAsp([1]), 100.0)


def test_results_log_accumulates():
    system = PdrSystem()
    assert system.results == []
    system.reconfigure("RP1", FirFilterAsp([1]), 100.0)
    system.reconfigure("RP1", FirFilterAsp([1]), 200.0)
    assert len(system.results) == 2
    assert system.results[0].freq_mhz == pytest.approx(100.0)


def test_config_customisation():
    config = PdrSystemConfig(pad_bitstreams_to=None, die_temp_c=55.0)
    system = PdrSystem(config=config)
    bitstream = system.make_bitstream("RP1", FirFilterAsp([1]))
    assert bitstream.size_bytes < TABLE1_BITSTREAM_BYTES  # unpadded
    assert system.die_temp_c == pytest.approx(55.0)


def test_summary_format(system):
    result = system.reconfigure("RP1", FirFilterAsp([1]), 180.0)
    text = result.summary()
    assert "RP1" in text
    assert "180" in text
    assert "CRC valid" in text


def test_firmware_trace_records_milestones():
    system = PdrSystem()
    system.reconfigure("RP1", FirFilterAsp([1]), 200.0)
    messages = [r.message for r in system.trace.records]
    assert any("clock locked at 200" in m for m in messages)
    assert any("completion interrupt received" in m for m in messages)
    assert any("CRC for RP1: valid" in m for m in messages)

    system.reconfigure("RP1", FirFilterAsp([1]), 320.0)
    messages = [r.message for r in system.trace.records]
    assert any("TIMEOUT" in m for m in messages)
    assert any("NOT VALID" in m for m in messages)


def test_a_finished_load_leaves_nothing_behind():
    """Neither the interrupt nor its 20 ms deadline outlives a load: the
    one that fires first withdraws the other, whether the interrupt comes
    (200 MHz) or not (310 MHz)."""
    system = PdrSystem()
    system.set_die_temperature(40.0)
    sim = system.sim
    for freq_mhz in (200.0, 200.0, 310.0, 200.0, 200.0):
        result = system.reconfigure("RP1", FirFilterAsp([2, 1]), freq_mhz)
        assert result.interrupt_seen == (freq_mhz < 310.0)
        assert [when for when, _seq, _entry in sim._heap if when > sim.now] == []
        assert system.dma.ioc_irq._waiters == []


def test_a_dropped_burst_count_breaks_conservation():
    """Each load ends by checking the datapath's conservation laws: a
    stream that loses count of one burst it handed the ICAP raises."""
    system = PdrSystem()
    system.set_die_temperature(40.0)
    settle, dropped = system.stream.settle, []

    def drop_one(**batch):
        if not dropped and batch["taken_bursts"]:
            dropped.append(batch["taken_bursts"])
            batch["taken_bursts"] -= 1
        settle(**batch)

    system.stream.settle = drop_one
    with pytest.raises(RuntimeError, match="bursts pushed 517 / taken 516"):
        system.reconfigure("RP1", FirFilterAsp([1, 2, 3, 4]), 200.0)
    assert dropped


def test_conservation_reads_an_unmade_ledger_as_zero():
    """An SLVERR on the first burst ends it at the crossbar: the DDR
    controller never makes a ledger for the port, which reads as the 0
    bytes the port and the crossbar carried."""
    from repro.axi import AxiSlaveError

    system = PdrSystem(PdrSystemConfig(irq_timeout_us=1000.0))
    system.set_die_temperature(40.0)
    system.interconnect.fault_error = lambda *_request: AxiSlaveError("SLVERR")
    result = system.reconfigure("RP1", FirFilterAsp([1, 2, 3, 4]), 200.0)
    assert result.latency_us is None
    assert "hp0" not in system.dram_controller.masters
    assert system.interconnect.masters["hp0"].bytes == system.hp0.bytes_transferred == 0
