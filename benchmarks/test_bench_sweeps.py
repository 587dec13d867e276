"""Benchmark E9: the sweep execution engine itself.

Runs one small reconfiguration sweep three ways — serial cold, parallel
(``jobs=2``), and a cached re-run — asserts the engine's core guarantee
(parallel and cached results identical to serial), and records suite
wall-clock plus per-point events/s to ``BENCH_sweeps.json`` at the repo
root so future PRs can see the perf curve.
"""

import json
import os
import time

from repro.exec import ResultCache, SweepRunner, SweepSpec
from repro.experiments.points import asp_descriptor, reconfigure_point
from repro.experiments.table1 import WORKLOAD_ASP
from repro.snapshot import reset_templates

from conftest import run_once

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


def _run_all_modes(tmp_dir):
    spec = _sweep_spec()
    report = {}
    reset_templates()  # measure the cold path honestly

    def _points(run):
        # Per-point latency rides along so `bench --check` can gate the
        # simulated physics, not just the kernel event counts.  A point
        # with no latency (the 320 MHz over-clock never raises its
        # completion interrupt) records an explicit null plus the
        # firmware's reason, so downstream checks can tell "measurement
        # skipped" from "key dropped".
        return [
            {
                **stat.to_dict(),
                "latency_us": result.latency_us,
                **(
                    {"latency_unavailable_reason": result.latency_unavailable_reason}
                    if result.latency_us is None
                    else {}
                ),
            }
            for stat, result in zip(run.stats, run.values)
        ]

    t0 = time.perf_counter()
    serial = SweepRunner(jobs=1).run(spec)
    report["serial"] = {
        "wall_s": round(time.perf_counter() - t0, 3),
        "points": _points(serial),
    }

    # Warm pass: same spec, same process — snapshot templates and the
    # shared build/CRC caches are hot, so this measures the steady-state
    # per-point cost a long campaign actually pays.
    t0 = time.perf_counter()
    warm = SweepRunner(jobs=1).run(spec)
    report["serial_warm"] = {
        "wall_s": round(time.perf_counter() - t0, 3),
        "points": _points(warm),
    }

    t0 = time.perf_counter()
    parallel = SweepRunner(jobs=2).run(spec)
    report["parallel_jobs2"] = {"wall_s": round(time.perf_counter() - t0, 3)}

    cache = ResultCache(os.path.join(tmp_dir, "sweep-cache"))
    cached_runner = SweepRunner(jobs=1, cache=cache)
    cached_runner.run(spec)  # populate
    t0 = time.perf_counter()
    cached = cached_runner.run(spec)
    report["cached_rerun"] = {
        "wall_s": round(time.perf_counter() - t0, 3),
        "cache_hits": cached.cache_hits,
    }
    return serial, warm, parallel, cached, report


def test_bench_sweep_engine(benchmark, tmp_path):
    serial, warm, parallel, cached, report = run_once(
        benchmark, _run_all_modes, str(tmp_path)
    )

    # The engine's core guarantee: execution mode never changes results.
    assert parallel.values == serial.values
    assert cached.values == serial.values
    assert warm.values == serial.values  # template forks are transparent
    assert cached.cache_hits == len(_FREQS) and cached.simulated == 0

    # The physics stayed put: the paper's robust region reconfigures
    # successfully, the over-clocked point fails CRC.
    by_freq = dict(zip(_FREQS, serial.values))
    assert by_freq[200.0].crc_valid
    assert not by_freq[320.0].crc_valid

    # The over-clocked point never sees its completion interrupt, so its
    # record carries an explicit null latency plus the firmware's reason
    # (never a silently missing key).
    by_label = {
        point["label"]: point for point in report["serial"]["points"]
    }
    hot = by_label["bench@320MHz"]
    assert hot["latency_us"] is None
    assert hot["latency_unavailable_reason"] == "no completion interrupt"
    assert by_label["bench@200MHz"]["latency_us"] is not None
    assert "latency_unavailable_reason" not in by_label["bench@200MHz"]

    # Deterministic kernel: every point reports the same event count on
    # every run, so events/s is a clean single-run throughput measure.
    for stat in serial.stats:
        assert stat.events > 0 and stat.events_per_s > 0

    payload = {
        "generated_by": "benchmarks/test_bench_sweeps.py",
        "host_cpus": os.cpu_count(),
        "sweep": {
            "experiment": "reconfigure_point",
            "frequencies_mhz": _FREQS,
            "points": len(_FREQS),
        },
        "runs": report,
    }
    with open(_REPORT_PATH, "w") as handle:
        json.dump({**payload, "milestones": _MILESTONES}, handle, indent=2)
        handle.write("\n")


#: Measured once per tentpole change (see EXPERIMENTS.md for method);
#: kept here so the perf history survives report regeneration.
_MILESTONES = [
    {
        "date": "2026-08-05",
        "change": "parallel sweep engine + DES kernel fast path",
        "host_cpus": 1,
        "cli_all_serial_s": {"before": 94.3, "after": 67.3},
        "cli_all_jobs2_s": 55.6,
        "cold_single_point_s": {"before": 0.403, "after": 0.322},
        "warm_single_point_s": 0.180,
        "cached_table2_cli_s": {"cold": 1.7, "cached": 0.21},
        "events_per_reconfigure_point": 7296,
        "note": (
            "1-core container: jobs=2 gain comes from overlapping "
            "process setup, not true parallelism; byte-identity of the "
            "parallel and cached reports verified against serial."
        ),
    },
    {
        "date": "2026-08-08",
        "change": (
            "copy-on-write snapshots + kernel fast-path round 2 "
            "(batched same-timestamp dispatch, slicing-by-20 run folds, "
            "vectorised CRC miss paths, template forking)"
        ),
        "host_cpus": 1,
        "cold_single_point_s": {"before": 0.322, "after": 0.109},
        "warm_single_point_s": {"before": 0.180, "after": 0.052},
        "warm_events_per_s": {"before": 40539.0, "after": 141108.0},
        "soak10_wall_s": 9.8,
        "events_per_reconfigure_point": 7296,
        "events_rebaselined": (
            "7297 -> 7296 per point (7300 -> 7299 at 320 MHz): the "
            "bank-aware DRAM controller dropped one kernel event per "
            "point, latency unchanged"
        ),
        #: Absolute floors enforced by `repro-pdr bench --check`
        #: (see repro.experiments.benchcheck._compare_milestone).
        "gate": {
            "cold_single_point_s_max": 0.12,
            "warm_events_per_s_min": 123949.0,
        },
        "note": (
            "warm floor is 3x the pre-PR 200 MHz events/s (41316); "
            "latencies and event counts stayed byte-identical "
            "(677.0250006770251 us @200 MHz, 7297 events). 10-case "
            "chaos campaign 9.8 s vs 81 s before the PR-6/7 work."
        ),
    },
]
