"""Tests for the campaign aggregator behind ``repro-pdr report``."""

import json

import pytest

from repro.obs.campaign import (
    Rollup,
    aggregate_campaign,
    flatten_metrics,
    render_json,
    render_markdown,
    rollup_values,
)


def _record(index, latency, phase_scale=1.0, device="dma"):
    return {
        "label": f"p{index}",
        "latency_us": latency,
        "availability": 1.0,
        "phase_us": {
            "dma_transfer": 600.0 * phase_scale,
            "scrub": 300.0 * phase_scale,
        },
        "critical_path": device,
        "metrics": {
            "fw.latency_us": {
                "type": "histogram",
                "count": 1,
                "sum": latency,
                "mean": latency,
                "p50": latency,
                "p99": latency,
                "max": latency,
            },
            "dma.bytes": {"type": "counter", "value": 1000.0 * index},
        },
    }


# -- rollup math ---------------------------------------------------------------


def test_rollup_values_nearest_rank_percentiles():
    rolled = rollup_values(range(1, 101))
    assert rolled.count == 100
    assert rolled.min == 1.0 and rolled.max == 100.0
    assert rolled.mean == pytest.approx(50.5)
    # Nearest-rank (no interpolation): an actual observed sample, at the
    # ceil rank — p99 of 100 samples is rank ceil(99.0) = 99, not 100.
    assert rolled.p50 == 50.0
    assert rolled.p99 == 99.0


def test_rollup_values_rejects_non_numeric_and_empty():
    assert rollup_values([]) is None
    assert rollup_values([None, "x", True]) is None
    rolled = rollup_values([None, 2.0, 4.0])
    assert rolled.count == 2 and rolled.mean == 3.0


def test_flatten_metrics_selects_type_specific_fields():
    flat = flatten_metrics(_record(1, 100.0)["metrics"])
    assert flat["fw.latency_us.p99"] == 100.0
    assert flat["dma.bytes.value"] == 1000.0
    assert "fw.latency_us.type" not in flat


# -- aggregation ---------------------------------------------------------------


def test_aggregate_campaign_folds_results_phases_and_critical_paths():
    records = [
        _record(1, 100.0, device="dma"),
        _record(2, 200.0, device="dma"),
        _record(3, 300.0, phase_scale=2.0, device="scrubber"),
    ]
    report = aggregate_campaign("camp", records)
    assert report.points == 3
    assert report.results["latency_us"].p50 == 200.0
    assert report.phases["dma_transfer"].max == 1200.0
    assert report.critical_paths == {"dma": 2, "scrubber": 1}
    assert report.metrics["dma.bytes.value"].mean == pytest.approx(2000.0)
    assert [row["label"] for row in report.rows] == ["p1", "p2", "p3"]
    assert report.rows[2]["critical_path"] == "scrubber"


def test_aggregate_campaign_tolerates_sparse_records():
    report = aggregate_campaign(
        "sparse", [{"latency_us": 5.0}, {"availability": 0.5}, {}]
    )
    assert report.points == 3
    assert report.results["latency_us"].count == 1
    assert report.results["availability"].count == 1
    assert report.phases == {} and report.critical_paths == {}
    assert report.skipped == {}


def test_all_none_field_degrades_to_skipped_rollup_with_reason():
    """An all-hang grid (every latency None) must not raise or vanish."""
    records = [
        {
            "label": f"p{i}",
            "latency_us": None,
            "latency_unavailable_reason": "no completion interrupt",
            "availability": 0.0,
        }
        for i in range(3)
    ]
    report = aggregate_campaign("all-hang", records)
    assert "latency_us" not in report.results
    assert report.skipped["latency_us"] == (
        "no numeric values in 3/3 point(s): no completion interrupt"
    )
    assert report.results["availability"].count == 3
    # Both serialisations carry the skip.
    doc = json.loads(render_json(report))
    assert doc["skipped"]["latency_us"].startswith("no numeric values")
    text = render_markdown(report)
    assert "skipped: latency_us (no numeric values in 3/3 point(s)" in text


def test_partially_numeric_field_rolls_up_without_skip():
    records = [
        {"latency_us": None, "latency_unavailable_reason": "no completion interrupt"},
        {"latency_us": 120.0},
    ]
    report = aggregate_campaign("mixed", records)
    assert report.results["latency_us"].count == 1
    assert report.skipped == {}


# -- serialisation determinism -------------------------------------------------


def test_render_json_is_canonical_and_order_independent():
    records = [_record(i, 100.0 * i) for i in range(1, 4)]
    report = aggregate_campaign("camp", records)
    text = render_json(report)
    assert text == render_json(aggregate_campaign("camp", records))
    doc = json.loads(text)
    assert doc["schema"] == "repro.obs.campaign/v1"
    assert doc["points"] == 3
    # Canonical form: sorted keys, trailing newline.
    assert text.endswith("\n")
    assert list(doc["results"]) == sorted(doc["results"])


def test_render_markdown_tables():
    records = [_record(i, 100.0 * i) for i in range(1, 4)]
    text = render_markdown(aggregate_campaign("camp", records))
    assert "# Campaign report — camp" in text
    assert "| latency_us |" in text
    assert "| dma_transfer |" in text
    assert "**dma** bottlenecked 3/3" in text


def test_soak_records_aggregate_through_same_fold():
    """Chaos soak case records fold without adaptation (shared shape)."""
    from repro.chaos.soak import SoakCase, soak_case

    record = soak_case(**SoakCase(index=0, fault_seed=7, ops=2,
                                  horizon_us=24_000.0).to_mapping())
    report = aggregate_campaign("chaos", [record])
    assert report.points == 1
    assert "availability" in report.results
    assert report.metrics  # the registry snapshot flattened into rollups
    if record["critical_path"] is not None:
        assert sum(report.critical_paths.values()) == 1
