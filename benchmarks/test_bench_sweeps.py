"""Golden output E9: per-point kernel events and latency of one sweep.

Runs a three-point reconfiguration sweep serially through the sweep
engine, asserts the physics stayed put (the robust point passes CRC, the
over-clocked one fails it and never raises its completion interrupt),
and writes every point's kernel event count and simulated latency to
``BENCH_sweeps.json`` at the repo root.  Every recorded value is a
product of the deterministic kernel, so a rerun reproduces the file byte
for byte and ``git diff --exit-code -- 'BENCH_*.json'`` gates it.
"""

import json
import os

from repro.exec import SweepRunner, SweepSpec
from repro.experiments.points import asp_descriptor, reconfigure_point
from repro.experiments.table1 import WORKLOAD_ASP

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_REPORT_PATH = os.path.join(_REPO_ROOT, "BENCH_sweeps.json")

_FREQS = [100.0, 200.0, 320.0]


def _sweep_spec():
    workload = asp_descriptor(WORKLOAD_ASP)
    return SweepSpec.map(
        "bench",
        reconfigure_point,
        [
            dict(region="RP1", freq_mhz=freq, temp_c=40.0, workload=workload)
            for freq in _FREQS
        ],
        labels=[f"bench@{freq:g}MHz" for freq in _FREQS],
    )


def test_bench_sweep_engine():
    serial = SweepRunner(jobs=1).run(_sweep_spec())

    # The physics stayed put: the paper's robust region reconfigures
    # successfully, the over-clocked point fails CRC and never sees its
    # completion interrupt.
    by_freq = dict(zip(_FREQS, serial.values))
    assert by_freq[200.0].crc_valid and by_freq[200.0].latency_us is not None
    assert not by_freq[320.0].crc_valid
    assert by_freq[320.0].latency_us is None
    assert by_freq[320.0].latency_unavailable_reason == "no completion interrupt"

    # A point with no latency records an explicit null plus the
    # firmware's reason, so a reader can tell "measurement skipped" from
    # "key dropped".
    points = [
        {
            "label": stat.label,
            "fn": stat.fn,
            "events": stat.events,
            "latency_us": result.latency_us,
            **(
                {"latency_unavailable_reason": result.latency_unavailable_reason}
                if result.latency_us is None
                else {}
            ),
        }
        for stat, result in zip(serial.stats, serial.values)
    ]
    payload = {
        "generated_by": "benchmarks/test_bench_sweeps.py",
        "sweep": {
            "experiment": "reconfigure_point",
            "frequencies_mhz": _FREQS,
            "points": len(_FREQS),
        },
        "runs": {"serial": {"points": points}},
    }
    with open(_REPORT_PATH, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
