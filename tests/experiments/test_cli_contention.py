"""Tests for the ``repro-pdr contention`` subcommand (E15)."""

import contextlib
import io
import json

import pytest

from repro.experiments.cli import main
from repro.experiments.contention import PAGE_POLICIES, TENANT_RATES_MB_S


def run_cli(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def test_contention_prints_markdown_report():
    code, out = run_cli(["contention"])
    assert code == 0
    assert "Memory contention campaign (E15)" in out
    assert "| policy | tenant MB/s |" in out
    assert "open" in out and "closed" in out
    assert "slowdown" in out


def test_contention_json_out_covers_the_grid(tmp_path):
    out_path = tmp_path / "contention.json"
    code, _ = run_cli(["contention", "--out", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["campaign"] == "contention"
    records = doc["records"]
    assert len(records) == len(PAGE_POLICIES) * len(TENANT_RATES_MB_S)
    for record in records:
        assert record["succeeded"] is True
        assert record["page_policy"] in PAGE_POLICIES
        assert record["tenant_rate_mb_s"] in TENANT_RATES_MB_S
        assert record["throughput_mb_s"] > 0
        assert set(record["per_master"]) >= {"hp0"}


def test_contention_throughput_degrades_monotonically_with_tenant_load(tmp_path):
    """The acceptance property: more tenant load never helps PDR
    throughput, and open-page beats closed-page on the sequential
    bitstream fetch at every load point."""
    out_path = tmp_path / "contention.json"
    run_cli(["contention", "--out", str(out_path)])
    records = json.loads(out_path.read_text())["records"]
    by_policy = {}
    for record in records:
        by_policy.setdefault(record["page_policy"], []).append(record)
    for policy, rows in by_policy.items():
        rows.sort(key=lambda r: r["tenant_rate_mb_s"])
        throughputs = [r["throughput_mb_s"] for r in rows]
        assert throughputs == sorted(throughputs, reverse=True), policy
    for open_row, closed_row in zip(
        sorted(by_policy["open"], key=lambda r: r["tenant_rate_mb_s"]),
        sorted(by_policy["closed"], key=lambda r: r["tenant_rate_mb_s"]),
    ):
        assert open_row["throughput_mb_s"] > closed_row["throughput_mb_s"]
        assert open_row["row_hit_rate"] > closed_row["row_hit_rate"]


def test_contention_cannot_combine_with_other_experiments():
    with pytest.raises(SystemExit):
        main(["contention", "table1"])
