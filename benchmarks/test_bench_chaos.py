"""Golden output E11: the chaos soak engine.

Runs a small seeded soak campaign (3 episodes), asserts the chaos
layer's core guarantees (every planned fault injected, SLOs met, zero
invariant violations), and writes the fault/recovery mass, availability,
MTTR percentiles and kernel event count to ``BENCH_chaos.json`` at the
repo root.  Every recorded value is simulated, so a rerun reproduces the
file byte for byte and ``git diff --exit-code -- 'BENCH_*.json'`` gates
it.
"""

import json
import os

from repro.chaos import SoakSlos, run_soak

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_REPORT_PATH = os.path.join(_REPO_ROOT, "BENCH_chaos.json")

_SEED = 1
_CASES = 3


def test_bench_chaos_soak():
    report = run_soak(seed=_SEED, cases=_CASES)

    # The chaos layer's core guarantees, even at benchmark scale.
    assert report.faults_injected == report.faults_planned
    assert report.recovery_rate >= SoakSlos().min_recovery_rate
    assert report.findings == [] and report.unhandled == []
    assert not report.breaches
    assert report.mttr_samples > 0

    payload = {
        "generated_by": "benchmarks/test_bench_chaos.py",
        "campaign": {"seed": _SEED, "cases": _CASES},
        "faults": {
            "injected": report.faults_injected,
            "recovered": report.faults_recovered,
            "by_kind": report.by_kind,
            "seu_injected": report.seu_injected,
            "seu_repaired": report.seu_repaired,
        },
        "availability": {
            "mean": report.availability_mean,
            "min": report.availability_min,
        },
        "recovery_rate": report.recovery_rate,
        "mttr_us": {
            "p50": report.mttr_p50_us,
            "p99": report.mttr_p99_us,
            "samples": report.mttr_samples,
        },
        "invariant_checks": report.checks,
        "kernel_events": report.events_processed,
    }
    with open(_REPORT_PATH, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
