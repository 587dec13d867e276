"""Cross-module integration tests on the full system."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitstream import BitstreamFormatError, BitstreamParser
from repro.core import PdrSystem
from repro.fabric import Aes128Asp, FirFilterAsp
from repro.icap import ConfigPort


# ----------------------------------------------------- fault injection E2E --
def test_corrupted_staged_bitstream_detected_end_to_end():
    """A bitstream corrupted at rest in DRAM: the ICAP's streaming CRC
    flags it, the region content mismatches, the scrub says not-valid."""
    system = PdrSystem()
    good = system.make_bitstream("RP1", FirFilterAsp([6, 6, 6]))
    bad = good.corrupted(len(good.words) // 3, flip_mask=0x40)
    bad.meta["region_crc"] = good.meta["region_crc"]
    result = system.reconfigure("RP1", FirFilterAsp([6, 6, 6]), 200.0, bitstream=bad)
    assert result.interrupt_seen          # the DMA finished fine...
    assert not result.crc_valid           # ...but the content is wrong
    assert system.icap.port.crc_error     # and the ICAP noticed in-stream


def test_seu_between_transfers_detected_by_background_scrub():
    system = PdrSystem()
    result = system.reconfigure("RP2", Aes128Asp([3, 1, 4, 1]), 200.0)
    assert result.crc_valid
    system.scrubber.start()
    system.memory.corrupt_region_word("RP2", 42_000, flip_mask=0x8000)
    system.sim.run_until(system.scrubber.error_irq.wait_assert())
    assert system.scrubber.counts.mismatches >= 1
    assert system.gic.counts["crc_error"] >= 1
    system.scrubber.stop()


# ------------------------------------------------------------ PCAP vs ICAP --
def test_pcap_loads_but_much_slower_than_overclocked_icap():
    system = PdrSystem()
    bitstream = system.make_bitstream("RP3", FirFilterAsp([8, 8]))

    def pcap_load(sim):
        start = sim.now
        port = yield system.pcap.load(bitstream)
        return (sim.now - start) / 1e3, port

    pcap_us, port = system.sim.run_until(
        system.sim.process(pcap_load(system.sim))
    )
    assert port.desynced and not port.has_error
    assert system.run_asp("RP3", [1, 0]) == [8, 8]

    icap_result = system.reconfigure("RP4", FirFilterAsp([8, 8]), 200.0)
    # The paper's motivation: the over-clocked ICAP path is ~5x faster
    # than the stock PCAP driver path.
    assert pcap_us / icap_result.latency_us > 4.5


# -------------------------------------------------------------- determinism --
def test_simulation_is_deterministic():
    def run():
        system = PdrSystem()
        out = []
        for freq in (100.0, 240.0, 310.0):
            result = system.reconfigure("RP1", FirFilterAsp([1, 2]), freq)
            out.append((result.latency_us, result.crc_valid, result.pdr_power_w))
        return out

    assert run() == run()


# -------------------------------------------------------------- SD boot flow --
def test_boot_from_sd_and_reconfigure():
    system = PdrSystem()
    bitstream = system.make_bitstream("RP1", FirFilterAsp([7]))
    system.sdcard.store_file("partial.bin", bitstream.to_bytes())

    def boot(sim):
        data = yield system.sdcard.read_file("partial.bin")
        return data

    data = system.sim.run_until(system.sim.process(boot(system.sim)))
    assert data == bitstream.to_bytes()
    # Stage the SD payload and reconfigure with it.
    from repro.bitstream import Bitstream

    restored = Bitstream.from_bytes(data, region_name="RP1")
    restored.meta["region_crc"] = bitstream.meta["region_crc"]
    result = system.reconfigure("RP1", None, 180.0, bitstream=restored)
    assert result.succeeded
    assert system.run_asp("RP1", [1]) == [7]


# ---------------------------------------------------------------- fuzzing --
@settings(max_examples=60, deadline=None)
@given(
    words=st.lists(
        st.integers(min_value=0, max_value=0xFFFFFFFF), min_size=1, max_size=200
    )
)
def test_property_parser_never_crashes(words):
    """Arbitrary word soup either parses or raises BitstreamFormatError."""
    parser = BitstreamParser()
    try:
        parser.parse_words(words)
    except BitstreamFormatError:
        pass


@settings(max_examples=60, deadline=None)
@given(
    words=st.lists(
        st.integers(min_value=0, max_value=0xFFFFFFFF), min_size=1, max_size=500
    )
)
def test_property_config_port_never_crashes(words):
    """The device state machine must absorb any stream without raising —
    hardware does not throw exceptions; it latches error flags."""
    from repro.bitstream import make_z7020_layout
    from repro.fabric import ConfigMemory

    port = ConfigPort(ConfigMemory(make_z7020_layout()))
    port.feed_words(words)
    assert port.words_consumed == len(words)
