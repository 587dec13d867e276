"""End-to-end observability: one real reconfiguration, full telemetry."""

import pytest

from repro.core import TIMED_PHASES, PdrSystem
from repro.experiments.points import asp_descriptor, make_point_system
from repro.experiments.table1 import PAPER_TABLE1, WORKLOAD_ASP
from repro.fabric import FirFilterAsp

ASP = FirFilterAsp([3, -1, 4, 1, -5, 9, 2, 6])


@pytest.fixture(scope="module")
def reconfigured_system():
    system = PdrSystem()
    system.set_die_temperature(40.0)
    result = system.reconfigure("RP1", ASP, 200.0)
    return system, result


def test_reconfigure_populates_component_counters(reconfigured_system):
    system, result = reconfigured_system
    metrics = system.metrics
    assert result.latency_us is not None
    # DMA moved the whole bitstream in bursts.
    assert metrics.get("dma.bytes_moved").value > 0
    assert metrics.get("dma.bursts_issued").value > 0
    # ICAP consumed words (4 bytes each) and saw real stall cycles.
    assert metrics.get("icap.words_consumed").value == (
        metrics.get("dma.bytes_moved").value // 4
    )
    assert metrics.get("icap.stall_cycles").value > 0
    # Scrubber ran and (at a safe frequency) found nothing.
    assert metrics.get("crc_scrub.scrubs_run").value == 1
    assert metrics.get("crc_scrub.mismatches").value == 0
    assert metrics.get("icap.corrupted_words").value == 0
    # The stream FIFO saw traffic and its depth histogram has samples.
    assert metrics.get("dma2icap.fifo_depth_words").count > 0
    assert metrics.get("fw.reconfigures").value == 1


def test_reconfigure_phase_breakdown_sums_to_latency(reconfigured_system):
    _, result = reconfigured_system
    # Every firmware phase was recorded with a positive duration.
    for name in ("clock_lock", "driver_setup", "dma_transfer", "icap_drain", "scrub"):
        assert result.phase_us.get(name, 0.0) > 0.0, name
    # The timed phases reproduce the C-timer latency within 1 us.
    assert result.timed_phase_sum_us == pytest.approx(result.latency_us, abs=1.0)
    assert set(TIMED_PHASES) <= set(result.phase_us)


@pytest.mark.parametrize("temp_c", [40.0, 100.0])
@pytest.mark.parametrize("freq_mhz", sorted(PAPER_TABLE1))
def test_telemetry_off_leaves_latency_and_phases_identical(freq_mhz, temp_c):
    """Telemetry only observes: compiling the probes out changes neither
    the latency, any firmware phase, the device attribution nor the
    critical path (FIFO back-pressure is model accounting, not a probe),
    nor the simulated end time or the kernel's event count.  The grid
    covers all three Table-I regimes and the 310 MHz @ 100 C failure."""
    workload = asp_descriptor(WORKLOAD_ASP)
    runs = []
    for config in (None, {"telemetry": False}):
        system = make_point_system("RP1", workload, config)
        system.set_die_temperature(temp_c)
        result = system.reconfigure("RP1", WORKLOAD_ASP, freq_mhz)
        runs.append((result, system.sim.now, system.sim.events_processed))
    (on, on_now, on_events), (off, off_now, off_events) = runs
    assert off.latency_us == on.latency_us
    assert off.phase_us == on.phase_us
    assert off.device_us == on.device_us
    assert off.critical_path == on.critical_path
    assert off == on  # every other ReconfigResult field too
    assert (off_now, off_events) == (on_now, on_events)


def test_reconfigure_emits_span_trace_records(reconfigured_system):
    system, _ = reconfigured_system
    spans = system.trace.filter(source="fw", kind="span")
    paths = {record.fields["span"] for record in spans}
    assert "reconfigure" in paths
    assert "reconfigure/dma_transfer" in paths
    # Each span record carries machine-readable begin/end/duration.
    for record in spans:
        assert record.fields["end_ns"] >= record.fields["begin_ns"]
        assert record.fields["duration_us"] == pytest.approx(
            (record.fields["end_ns"] - record.fields["begin_ns"]) / 1e3
        )


def test_overclocked_run_counts_corruption():
    system = PdrSystem()
    system.set_die_temperature(40.0)
    result = system.reconfigure("RP1", ASP, 320.0)
    assert not result.crc_valid
    assert system.metrics.get("icap.corrupted_words").value > 0
    assert system.metrics.get("crc_scrub.mismatches").value > 0


def test_simulator_probes_exported():
    system = PdrSystem()
    system.reconfigure("RP1", ASP, 200.0)
    data = system.metrics.to_dict()
    assert data["sim.events_processed"]["value"] > 0
    assert data["sim.heap_high_water"]["value"] > 0
    assert data["sim.processes_spawned"]["value"] > 0
    assert data["bench.temp_c"]["samples"]  # thermal series sampled
