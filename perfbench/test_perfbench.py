"""Self-tests of the benchmark: attribution, tracing neutrality, schema.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import pytest  # noqa: E402

import run as bench  # noqa: E402
import workloads  # noqa: E402
from layertrace import HARNESS, LABELS, LayerTracer, SpanLog, label_of_module  # noqa: E402
from refclock import SENSITIVITY, SLICE_REF_S, RefClock  # noqa: E402
from repro.crccheck.scrubber import CrcScrubber  # noqa: E402

DELAY_S = 0.15


def busy_wait(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


@pytest.fixture()
def recorder():
    rec = workloads.DispatchRecorder()
    rec.install()
    yield rec
    rec.uninstall()


def self_ms_by_label(log: SpanLog):
    out = {label: 0.0 for label in LABELS}
    for label, _name, _calls, seconds in log.fold():
        out[label] = out.get(label, 0.0) + seconds * 1e3
    return out


def traced_point(workload, key):
    log = SpanLog()
    with LayerTracer(log):
        with log.span(HARNESS, "test.unit"):
            unit = workload.run_unit(key)
    return unit, log


def test_label_of_module():
    assert label_of_module("repro.sim.kernel") == "sim"
    assert label_of_module("repro.crccheck.scrubber") == "crccheck"
    assert label_of_module("repro.fleet.scheduler") == "fleet.plan"
    assert label_of_module("repro.fleet.service") == "fleet.replay"
    assert label_of_module("repro.thermal.model") == "other"


def test_fold_subtracts_child_spans():
    log = SpanLog()
    with log.span("harness", "outer"):
        busy_wait(0.02)
        with log.span("sim", "inner"):
            busy_wait(0.04)
    selfs = self_ms_by_label(log)
    assert selfs["harness"] == pytest.approx(20, abs=8)
    assert selfs["sim"] == pytest.approx(40, abs=8)


def test_known_delay_is_charged_to_its_layer(recorder, monkeypatch):
    """A delay added to a crccheck entry point lands in crccheck alone.

    ``CrcScrubber.set_expected_crc`` is called by the firmware (core) and
    calls nothing else, so neither its parent nor any child may absorb
    the delay.
    """
    workload = workloads.make_workload("point_grid", 1, recorder)
    key = (200.0, 40.0)
    workload.run_unit(key)  # warm the template
    _unit, base = traced_point(workload, key)

    original = CrcScrubber.set_expected_crc

    def delayed(self, *args, **kwargs):
        busy_wait(DELAY_S)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(CrcScrubber, "set_expected_crc", delayed)
    _unit, slow = traced_point(workload, key)

    before, after = self_ms_by_label(base), self_ms_by_label(slow)
    delay_ms = DELAY_S * 1e3
    assert after["crccheck"] - before["crccheck"] == pytest.approx(delay_ms, rel=0.15)
    for label in ("core", "sim", "obs", "harness"):
        assert abs(after[label] - before[label]) < 0.2 * delay_ms, label


def test_self_times_sum_to_traced_wall(recorder):
    workload = workloads.make_workload("point_grid", 1, recorder)
    workload.run_unit((200.0, 40.0))
    log = SpanLog()
    with LayerTracer(log):
        start = time.perf_counter()
        for key in [(200.0, 40.0), (320.0, 60.0)]:
            with log.span(HARNESS, "test.unit"):
                workload.run_unit(key)
        wall_ms = (time.perf_counter() - start) * 1e3
    total = sum(self_ms_by_label(log).values())
    assert total == pytest.approx(wall_ms, rel=bench.ATTRIBUTION_TOLERANCE)


@pytest.mark.parametrize(
    "name, keys",
    [
        ("point_grid", [(200.0, 40.0), (310.0, 100.0), (360.0, 40.0)]),
        ("fresh_content", [0, 1]),
        ("fleet_chaos", ["campaign"]),
    ],
)
def test_tracing_leaves_sim_outputs_unchanged(recorder, name, keys):
    workload = workloads.make_workload(name, 1, recorder)
    for key in keys:
        plain = workload.run_unit(key)
        traced, log = traced_point(workload, key)
        assert len(log) > 0
        assert traced.record == plain.record
        assert traced.problems == plain.problems == []


def test_ref_clock_excludes_its_slices():
    clock = RefClock()
    start = clock.now()
    busy_wait(0.05)
    elapsed = clock.now() - start
    assert clock.wall_s == pytest.approx(0.05, abs=0.02)
    assert len(clock.slices) == 2
    scale = (SLICE_REF_S / clock.slices[-1]) ** SENSITIVITY
    assert elapsed == pytest.approx(0.05 * scale, rel=0.4)


def test_tracer_restores_every_patch():
    from repro.core import PdrSystem
    from repro.sim import Simulator

    before = (Simulator.process, PdrSystem.reconfigure)
    with LayerTracer(SpanLog()):
        assert Simulator.process is not before[0]
    assert (Simulator.process, PdrSystem.reconfigure) == before


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (unit, _clock) in bench.END_TO_END.items()
    }
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
