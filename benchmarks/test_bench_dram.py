"""Golden output E15: the bank-aware memory system under contention.

Runs a reduced contention campaign (tenant at 0 and 1000 MB/s, both
page policies, engine refresh) through the full bank-aware DDR path,
asserts the memory model's core shape (open-page keeps row locality
under contention and beats closed-page; contention costs throughput but
bounded), and writes the summary figures and every point's record to
``BENCH_dram.json`` at the repo root.  Every recorded value is
simulated, so a rerun reproduces the file byte for byte and
``git diff --exit-code -- 'BENCH_*.json'`` gates it.
"""

import json
import os

from repro.exec import SweepRunner
from repro.experiments.contention import run_contention

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_REPORT_PATH = os.path.join(_REPO_ROOT, "BENCH_dram.json")

_CAMPAIGN = {
    "rates_mb_s": [0.0, 1000.0],
    "policies": ["open", "closed"],
    "region": "RP1",
    "freq_mhz": 200.0,
    "temp_c": 40.0,
}


def test_bench_dram_contention():
    records = run_contention(
        runner=SweepRunner(jobs=1),
        rates=_CAMPAIGN["rates_mb_s"],
        policies=_CAMPAIGN["policies"],
        region=_CAMPAIGN["region"],
        freq_mhz=_CAMPAIGN["freq_mhz"],
        temp_c=_CAMPAIGN["temp_c"],
    )

    by_key = {(r["page_policy"], r["tenant_rate_mb_s"]): r for r in records}
    open_base = by_key[("open", 0.0)]
    open_worst = by_key[("open", 1000.0)]
    closed_worst = by_key[("closed", 1000.0)]

    # The memory model's core shape, even at benchmark scale.
    assert all(r["succeeded"] for r in records)
    assert open_base["throughput_mb_s"] > open_worst["throughput_mb_s"]
    assert open_worst["throughput_mb_s"] > closed_worst["throughput_mb_s"]
    assert open_worst["row_hit_rate"] > 0.5  # sequential fetch keeps locality
    assert closed_worst["row_hit_rate"] == 0.0
    assert open_worst["refreshes_completed"] > 0
    assert open_worst["queue_wait_ns"] > open_base["queue_wait_ns"]

    summary = {
        "open_uncontended_mb_s": open_base["throughput_mb_s"],
        "open_contended_mb_s": open_worst["throughput_mb_s"],
        "closed_contended_mb_s": closed_worst["throughput_mb_s"],
        "open_row_hit_rate": open_worst["row_hit_rate"],
        "contention_slowdown": (
            open_base["throughput_mb_s"] / open_worst["throughput_mb_s"]
        ),
        "open_vs_closed_ratio": (
            open_worst["throughput_mb_s"] / closed_worst["throughput_mb_s"]
        ),
        "kernel_events": sum(r["events"] for r in records),
    }
    payload = {
        "generated_by": "benchmarks/test_bench_dram.py",
        "campaign": _CAMPAIGN,
        "summary": summary,
        "points": records,
    }
    with open(_REPORT_PATH, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
