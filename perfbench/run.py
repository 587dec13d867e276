#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload point_grid --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics: host cost of the closed
loop (ops per second, dispatch time, peak memory, cold set-up time, all
times read on the reference clock of ``refclock.py``) next to the
simulated results (latency, throughput, MB/J, request
percentiles, goodput, availability).  ``--trace 1`` runs the workload
untraced and traced in alternation and prints the per-layer metrics:
host self time per simulator layer, counts per layer, and the tracing
and telemetry overhead against their untraced baselines.

Every run checks the program's outputs (Table-I regimes and latency
error, fleet request conservation, bit-identical sim results for every
repeated input).  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every check passed; 2 means the benchmark
could not run at all (for example, no ``src/repro`` next to it).
A fuller record, with the environment block, goes to
``perfbench/out/<workload>.trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

from refclock import SLICE_REF_S, RefClock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Cold starts measured per ``--trace 0`` run; their median is ``setup_s``.
SETUP_SAMPLES = 7
#: Exponent of the host's speed in a cold start's scaling: fitted over
#: 81 cold starts on a shared 2-vCPU VM (log-log slope 0.42, corr 0.68),
#: where 0.5 halved the quartile spread of single samples (0.28 -> 0.15).
SETUP_SENSITIVITY = 0.5
#: The Table-I latency at 200 MHz / 40 °C every cold start must reproduce.
TABLE1_LATENCY_US = 677.0250006770251

#: End-to-end metrics: name -> (unit, clock).  Units of simulated
#: time carry a ``sim_`` prefix: they are deterministic by design.
#: Host times are read on the reference clock (``ref``), which scales
#: wall time by the host's measured speed.
END_TO_END = {
    "setup_s": ("s", "ref"),
    "ops_per_s": ("1/s", "ref"),
    "dispatch_gmean_ms": ("ms", "ref"),
    "peak_rss_mb": ("MB", "host"),
    "reconfig_latency_us": ("sim_us", "sim"),
    "throughput_mb_s": ("MB/sim_s", "sim"),
    "efficiency_mb_per_j": ("MB/J", "sim"),
    "paper_latency_err_pct": ("%", "sim"),
    "request_p50_us": ("sim_us", "sim"),
    "request_p99_us": ("sim_us", "sim"),
    "goodput_per_ms": ("1/sim_ms", "sim"),
    "availability": ("ratio", "sim"),
    "ok_share": ("ratio", "check"),
}

#: Layers whose host self time is reported as ``<layer>.self_ms``.
SELF_TIME_LAYERS = (
    "sim", "dram", "axi", "dma", "icap", "core", "bitstream", "fabric",
    "crccheck", "snapshot", "exec", "obs", "resilience", "chaos", "fleet",
    "other", "harness",
)

#: Per-layer metrics: name -> unit.
PER_LAYER = {
    **{f"{layer}.self_ms": "ms" for layer in SELF_TIME_LAYERS},
    "sim.events_per_op": "count",
    "sim.events_per_s": "1/s",
    "sim.heap_high_water": "count",
    "sim.processes_per_op": "count",
    "dram.accesses_per_op": "count",
    "dram.row_hit_ratio": "ratio",
    "dram.queue_wait_us": "sim_us",
    "dram.refresh_stall_us": "sim_us",
    "axi.bytes_per_op": "bytes",
    "axi.wait_us": "sim_us",
    "dma.bytes_per_op": "bytes",
    "dma.bursts_per_op": "count",
    "icap.words_per_op": "count",
    "icap.stall_us": "sim_us",
    "phase.clock_lock_us": "sim_us",
    "phase.driver_setup_us": "sim_us",
    "phase.dma_transfer_us": "sim_us",
    "phase.icap_drain_us": "sim_us",
    "phase.scrub_us": "sim_us",
    "critical_path.dma_share": "ratio",
    "critical_path.scrubber_share": "ratio",
    "bitstream.builds_per_op": "count",
    "bitstream.cache_hit_ratio": "ratio",
    "bitstream.crc_bytes_per_op": "bytes",
    "fabric.frames_written_per_op": "count",
    "crccheck.scrub_passes_per_op": "count",
    "crccheck.mismatches": "count",
    "snapshot.forks_per_op": "count",
    "snapshot.template_builds": "count",
    "obs.overhead_ratio": "ratio",
    "fleet.plan_ms": "ms",
    "fleet.replay_ms": "ms",
    "fleet.coalesced_share": "ratio",
    "fleet.sg_groups": "count",
    "fleet.mean_wait_us": "sim_us",
    "fleet.p99_wait_us": "sim_us",
    "fleet.rejected_share": "ratio",
    "fleet.board_utilisation_mean": "ratio",
    "fleet.failovers": "count",
    "fleet.rounds": "count",
    "fleet.failover_penalty_us": "sim_us",
    "resilience.attempts_per_op": "count",
    "resilience.recovered_ratio": "ratio",
    "resilience.freq_backoffs": "count",
    "chaos.faults_injected": "count",
    "trace.overhead_ratio": "ratio",
    "trace.wall_ms": "ms",
    "trace.attributed_share": "ratio",
}

#: Per-layer self times must add up to the traced wall time within this.
ATTRIBUTION_TOLERANCE = 0.05

WORKLOAD_NAMES = ("point_grid", "fresh_content", "fleet_knee", "fleet_chaos")


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# environment and cold start
# ---------------------------------------------------------------------------

def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> Dict[str, Any]:
    """What moves host time: CPUs, interpreter, numpy, telemetry, commit."""
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    from repro.core import PdrSystemConfig

    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "telemetry_default": PdrSystemConfig().telemetry,
        "env": {
            key: os.environ.get(key)
            for key in ("REPRO_SNAPSHOTS", "REPRO_DRAM", "REPRO_DRAM_REFRESH")
        },
        "commit": _commit(),
    }


class ColdStarts:
    """Cold starts of a fresh interpreter, spread over the run.

    The host's speed drifts over tens of seconds, so the samples are
    taken between timed passes rather than in one burst; ``setup_s`` is
    their median.  Each sample is the child's wall time, its own
    calibration slices left out, scaled by the speed those slices
    measured to the power ``SETUP_SENSITIVITY``: a cold start is mostly
    imports, file reads and page faults, which a loaded host slows less
    than it slows the simulator.
    """

    def __init__(self) -> None:
        self.refs: List[float] = []
        self.walls: List[float] = []
        self.problems: List[str] = []

    def sample(self) -> None:
        if len(self.refs) >= SETUP_SAMPLES:
            return
        start = perf_counter()
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py")],
            cwd=ROOT,
            env=dict(os.environ, REPRO_SNAPSHOTS="0"),
            capture_output=True,
            text=True,
            timeout=120,
        )
        wall = perf_counter() - start
        try:
            latency, slice_s, slices_s = (float(word) for word in done.stdout.split())
        except ValueError:
            latency, slice_s, slices_s = None, SLICE_REF_S, 0.0
        wall -= slices_s
        self.walls.append(wall)
        self.refs.append(wall * (SLICE_REF_S / slice_s) ** SETUP_SENSITIVITY)
        if done.returncode != 0:
            self.problems.append(f"cold start failed: {done.stderr.strip()[-300:]}")
        elif latency != TABLE1_LATENCY_US:
            self.problems.append(f"cold start printed {done.stdout.strip()!r}")

    def finish(self) -> Dict[str, Any]:
        while len(self.refs) < SETUP_SAMPLES:
            self.sample()
        return {
            "median_s": statistics.median(self.refs),
            "refs_s": self.refs,
            "walls_s": self.walls,
            "problems": self.problems,
        }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

class Run:
    """State shared by both measurement modes of one workload run."""

    def __init__(self, workload, seconds: float):
        self.workload = workload
        self.seconds = seconds
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.reference: Dict[Any, Any] = {}

    def note(self, unit, view=None) -> None:
        """Count a unit's ops and failures.

        A unit whose key ran in the reference pass must reproduce that
        record; ``view`` picks the part of the record that must match.
        """
        self.attempted += unit.ops
        failed = unit.failed
        self.problems.extend(unit.problems)
        expected = self.reference.get(unit.key)
        if expected is not None:
            view = view or (lambda record: record)
            if view(unit.record) != view(expected):
                failed = unit.ops
                self.problems.append(
                    f"{self.workload.name} {unit.key!r}: sim outputs differ "
                    f"from the first run of the same input"
                )
        self.failed += failed

    def run_reference(self):
        from workloads import system_counts

        units = []
        for key in self.workload.reference_keys():
            unit = self.workload.run_unit(key)
            unit.counts = system_counts(unit.systems)
            unit.systems = []
            self.note(unit)
            self.reference[key] = unit.record
            units.append(unit)
        return units


def telemetry_free(record: Dict[str, Any]) -> Dict[str, Any]:
    """The result fields that ``telemetry=False`` leaves unchanged.

    The device attribution reads FIFO back-pressure through a metrics
    counter, which telemetry-off compiles out, so ``device_us`` and
    ``critical_path`` legitimately differ there.
    """
    return {
        key: value
        for key, value in record["result"].items()
        if key not in ("device_us", "critical_path")
    }


def measure_end_to_end(run: Run, clock: RefClock, cold_starts: ColdStarts) -> Dict[str, Any]:
    """Closed loop for ``seconds`` of timed work, ending on a pass boundary.

    Every unit is timed on the reference clock.  Units of the same
    *class* (the same grid point, the same fresh-content combination and
    ASP kind, the same campaign) do the same work in every pass, so each
    class's median unit time shrugs off a burst of host noise;
    ``ops_per_s`` is the ops of one pass over the sum of those medians.
    Dispatches are classed the same way, by their unit's class and their
    place in the unit, and ``dispatch_gmean_ms`` is the geometric mean
    of the class medians: every dispatch of a pass weighs the same, and
    a change that speeds every dispatch by 10 % moves it by 10 %.  (A
    median over the dispatches of a fleet campaign falls between single
    loads near 65 ms and SG groups above 100 ms, and flips between
    them.)  The run lasts ``seconds`` of wall time of timed work
    (calibration slices excluded).  One cold start runs between passes,
    outside the timed units.

    ``peak_rss_mb`` is read after the first timed pass.  The program's
    caches grow with every new input (by megabytes per
    ``fresh_content`` op), so a peak taken after a time-bounded number
    of passes would measure how many passes fitted, not the program.
    """
    from workloads import nearest_rank

    workload = run.workload
    dispatch_s: List[float] = []
    #: class -> (ops, reference seconds) of each of its units.
    by_class: Dict[Any, List[Any]] = {}
    #: (unit class, place in unit) -> reference seconds of each dispatch.
    by_dispatch: Dict[Any, List[float]] = {}
    ops = 0
    timed = 0.0
    timed_ref = 0.0
    pass_index = 0
    peak_rss_mb = None
    while True:
        for block in workload.timed_blocks(pass_index):
            for key in block:
                start, wall_start = clock.now(), clock.wall_s
                unit = workload.run_unit(key)
                unit_s = clock.now() - start
                timed += clock.wall_s - wall_start
                timed_ref += unit_s
                unit.systems = []
                run.note(unit)
                unit_class = workload.unit_class(key)
                by_class.setdefault(unit_class, []).append((unit.ops, unit_s))
                for place, seconds in enumerate(unit.dispatch_s):
                    by_dispatch.setdefault((unit_class, place), []).append(seconds)
                ops += unit.ops
                dispatch_s.extend(unit.dispatch_s)
        pass_index += 1
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        cold_starts.sample()
        if timed >= run.seconds and len(dispatch_s) >= workload.min_dispatch_samples:
            break
    class_ops = sum(statistics.median(o for o, _s in units) for units in by_class.values())
    class_s = sum(statistics.median(s for _o, s in units) for units in by_class.values())
    return {
        "peak_rss_mb": peak_rss_mb,
        "ops": ops,
        "wall_s": timed,
        "ref_s": timed_ref,
        "passes": pass_index,
        "unit_classes": len(by_class),
        "ops_per_s": class_ops / class_s,
        "ops_per_wall_s": ops / timed,
        "dispatch_gmean_ms": statistics.geometric_mean(
            statistics.median(samples) for samples in by_dispatch.values()
        ) * 1e3,
        "dispatch_p50_ms": statistics.median(dispatch_s) * 1e3,
        "dispatch_classes": len(by_dispatch),
        "dispatch_tail_ms": nearest_rank(dispatch_s, workload.tail_pct) * 1e3,
        "dispatch_samples": len(dispatch_s),
        "tail_pct": workload.tail_pct,
        # Host speed seen by the clock: the slices' wall seconds.
        "slices": len(clock.slices),
        "slice_p50_s": statistics.median(clock.slices),
        "slice_min_s": min(clock.slices),
        "slice_max_s": max(clock.slices),
    }


def _probes(counts: Dict[str, float], outcomes: List[Any]):
    """Decorators the tracer applies to count bytes and keep outcomes."""

    def crc_packed(fn):
        def counted(chunks, *args, **kwargs):
            chunks = list(chunks)
            counts["crc_bytes"] += sum(len(chunk) for chunk in chunks)
            return fn(chunks, *args, **kwargs)

        return counted

    def update_run(fn):
        def counted(self, register_addr, words, packed=None):
            counts["crc_bytes"] += len(packed) if packed is not None else 4 * len(words)
            return fn(self, register_addr, words, packed)

        return counted

    def keep_outcome(fn):
        def kept(*args, **kwargs):
            outcome = fn(*args, **kwargs)
            outcomes.append(outcome)
            return outcome

        return kept

    resilient = "repro.resilience.reconfigurator.ResilientReconfigurator"
    return {
        "repro.bitstream.crc.crc32c_packed": crc_packed,
        "repro.bitstream.crc.ConfigCrc.update_run": update_run,
        f"{resilient}.reconfigure": keep_outcome,
        f"{resilient}.reconfigure_batch": keep_outcome,
    }


def _resilience_metrics(outcomes: List[Any], ops: int, units: int) -> Dict[str, float]:
    """Retry attempts per op, recovered share, and backoffs per unit."""
    from repro.resilience.reconfigurator import RecoveryOutcome

    singles = []
    backoffs = 0
    for outcome in outcomes:
        if isinstance(outcome, RecoveryOutcome):
            singles.append(outcome)
        else:
            singles.extend(outcome.recoveries.values())
            backoffs += outcome.freq_mhz < outcome.requested_freq_mhz
    for outcome in singles:
        backoffs += sum(
            1 for attempt in outcome.attempts
            if attempt.requested_mhz < outcome.requested_freq_mhz
        )
    failed_first = [o for o in singles if o.injected_failure]
    return {
        "resilience.attempts_per_op": sum(o.attempts_used for o in outcomes) / ops,
        "resilience.recovered_ratio": (
            sum(1 for o in failed_first if o.recovered) / len(failed_first)
            if failed_first else 0.0
        ),
        "resilience.freq_backoffs": backoffs / units,
    }


def measure_layers(run: Run, reference_units) -> Dict[str, Any]:
    """Untraced and traced passes in alternation, plus the telemetry baseline."""
    from layertrace import HARNESS, LayerTracer, SpanLog
    from repro.snapshot.templates import template_count
    from workloads import system_counts

    workload = run.workload
    probe_counts = {"crc_bytes": 0.0}
    outcomes: List[Any] = []
    log = SpanLog()
    tracer = LayerTracer(log, _probes(probe_counts, outcomes))
    modes = ["plain", "traced"] + (["telemetry_off"] if workload.name == "point_grid" else [])
    wall = {mode: 0.0 for mode in modes}
    ops = {mode: 0 for mode in modes}
    events = {mode: 0.0 for mode in modes}
    units = {mode: 0 for mode in modes}

    def run_keys(mode: str, keys) -> None:
        telemetry = mode != "telemetry_off"
        traced = mode == "traced"
        if traced:
            tracer.install()
        start = perf_counter()
        try:
            for key in keys:
                if traced:
                    with log.span(HARNESS, "perfbench.unit"):
                        unit = workload.run_unit(key, telemetry)
                else:
                    unit = workload.run_unit(key, telemetry)
                if telemetry:
                    unit.counts = system_counts(unit.systems)
                    events[mode] += unit.counts["sim.events"]
                unit.systems = []
                run.note(unit, None if telemetry else telemetry_free)
                ops[mode] += unit.ops
                units[mode] += 1
        finally:
            wall[mode] += perf_counter() - start
            if traced:
                tracer.uninstall()

    # The modes take turns on the same key (or, for inputs that must not
    # repeat, on equal-mix blocks of their own), so host drift cancels in
    # their ratios.  The order rotates so no mode always runs first.
    started = perf_counter()
    pass_index = 0
    turn = 0
    while True:
        for block in workload.timed_blocks(pass_index):
            if workload.fresh_inputs:
                rounds = [[block] + [workload.timed_blocks(pass_index)[0] for _ in modes[1:]]]
            else:
                rounds = [[[key]] * len(modes) for key in block]
            for keys_by_mode in rounds:
                order = modes[turn:] + modes[:turn]
                for mode, keys in zip(order, keys_by_mode):
                    run_keys(mode, keys)
                turn = (turn + 1) % len(modes)
        pass_index += 1
        if perf_counter() - started >= run.seconds:
            break

    sites = log.fold()
    traced_ops = ops["traced"]
    self_ms: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for label, name, count, seconds in sites:
        layer = "fleet" if label.startswith("fleet.") else label
        self_ms[layer] = self_ms.get(layer, 0.0) + seconds * 1e3
        calls[name] = calls.get(name, 0) + count
    campaigns = units["traced"] if workload.name.startswith("fleet") else 0
    fleet_ms = {
        label: sum(s for lab, _n, _c, s in sites if lab == label) * 1e3
        for label in ("fleet.plan", "fleet.replay")
    }

    def per_op(value: float, n: int = traced_ops) -> float:
        return value / n if n else 0.0

    ref_ops = sum(unit.ops for unit in reference_units)
    totals: Dict[str, float] = {}
    for unit in reference_units:
        for name, value in unit.counts.items():
            if name == "sim.heap_high_water":
                totals[name] = max(totals.get(name, 0.0), value)
            else:
                totals[name] = totals.get(name, 0.0) + value
    dram_accesses = (
        totals["ddrc.row_hits"] + totals["ddrc.row_misses"] + totals["ddrc.row_conflicts"]
    )
    builds = calls.get("repro.bitstream.builder.BitstreamBuilder.build_partial", 0)
    lookups = calls.get("repro.core.pdr_system.PdrSystem.make_bitstream", 0)
    frames = sum(
        calls.get(f"repro.fabric.config_memory.ConfigMemory.{name}", 0)
        for name in ("write_frame", "write_frame_packed")
    )
    metrics: Dict[str, float] = {
        f"{layer}.self_ms": per_op(self_ms.get(layer, 0.0)) for layer in SELF_TIME_LAYERS
    }
    metrics.update({
        "sim.events_per_op": totals["sim.events"] / ref_ops,
        "sim.events_per_s": events["plain"] / wall["plain"],
        "sim.heap_high_water": totals["sim.heap_high_water"],
        "sim.processes_per_op": totals["sim.processes"] / ref_ops,
        "dram.accesses_per_op": totals["ddrc.requests_served"] / ref_ops,
        "dram.row_hit_ratio": totals["ddrc.row_hits"] / dram_accesses if dram_accesses else 0.0,
        "dram.queue_wait_us": totals["ddrc.queue_wait_ns"] / 1e3 / ref_ops,
        "dram.refresh_stall_us": totals["ddrc.refresh_stall_ns"] / 1e3 / ref_ops,
        "axi.bytes_per_op": totals["axi_ic.bytes"] / ref_ops,
        "axi.wait_us": totals["axi_ic.queue_wait_us"] / ref_ops,
        "dma.bytes_per_op": totals["dma.bytes_moved"] / ref_ops,
        "dma.bursts_per_op": totals["dma.bursts_issued"] / ref_ops,
        "icap.words_per_op": totals["icap.words_consumed"] / ref_ops,
        "icap.stall_us": totals["icap.stall_us"] / ref_ops,
        "bitstream.builds_per_op": per_op(builds),
        "bitstream.cache_hit_ratio": 1.0 - builds / lookups if lookups else 0.0,
        "bitstream.crc_bytes_per_op": per_op(probe_counts["crc_bytes"]),
        "fabric.frames_written_per_op": per_op(frames),
        "crccheck.scrub_passes_per_op": totals["crc_scrub.scrubs_run"] / ref_ops,
        "crccheck.mismatches": totals["crc_scrub.mismatches"],
        "snapshot.forks_per_op": per_op(calls.get("repro.core.pdr_system.PdrSystem.fork", 0)),
        "snapshot.template_builds": float(template_count()),
        "obs.overhead_ratio": (
            (wall["plain"] / ops["plain"]) / (wall["telemetry_off"] / ops["telemetry_off"]) - 1.0
            if "telemetry_off" in wall else 0.0
        ),
        "fleet.plan_ms": fleet_ms["fleet.plan"] / campaigns if campaigns else 0.0,
        "fleet.replay_ms": fleet_ms["fleet.replay"] / campaigns if campaigns else 0.0,
        "chaos.faults_injected": totals["chaos.faults_injected"],
        "trace.overhead_ratio": (
            (wall["traced"] / traced_ops) / (wall["plain"] / ops["plain"]) - 1.0
        ),
        "trace.wall_ms": per_op(wall["traced"] * 1e3),
    })
    metrics["trace.attributed_share"] = (
        sum(self_ms.values()) / (wall["traced"] * 1e3)
    )
    metrics.update(workload.phase_means(reference_units))
    metrics.update(_resilience_metrics(outcomes, traced_ops, units["traced"]))
    fleet = {name: 0.0 for name in PER_LAYER if name.startswith("fleet.") and name not in metrics}
    fleet.update(workload.fleet_facts(reference_units))
    metrics.update(fleet)
    if abs(metrics["trace.attributed_share"] - 1.0) > ATTRIBUTION_TOLERANCE:
        run.problems.append(
            f"layer self times cover {metrics['trace.attributed_share']:.3f} "
            f"of the traced wall time"
        )
    return {
        "metrics": metrics,
        "modes": {mode: {"ops": ops[mode], "wall_s": wall[mode]} for mode in modes},
        "spans": len(log),
        # Every called site, folded: where each layer's self time went.
        "sites": [
            {"label": label, "site": name, "calls": count, "self_ms": seconds * 1e3}
            for label, name, count, seconds in sorted(sites, key=lambda site: -site[3])
            if count
        ],
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))

    clock = RefClock()
    cold_starts = ColdStarts()
    if args.trace == 0:
        cold_starts.sample()

    import workloads

    recorder = workloads.DispatchRecorder(clock.now if args.trace == 0 else perf_counter)
    recorder.install()
    try:
        workload = workloads.make_workload(args.workload, args.seed, recorder)
        run = Run(workload, args.seconds)
        reference_units = run.run_reference()
        if args.trace == 0:
            measured = measure_end_to_end(run, clock, cold_starts)
        else:
            measured = measure_layers(run, reference_units)
        for key in workload.recheck_keys():
            unit = workload.run_unit(key)
            unit.systems = []
            run.note(unit)
    finally:
        recorder.uninstall()

    setup = None
    if args.trace == 0:
        setup = cold_starts.finish()
        run.problems.extend(setup["problems"])
        metrics = {
            "setup_s": setup["median_s"],
            "ops_per_s": measured["ops_per_s"],
            "dispatch_gmean_ms": measured["dispatch_gmean_ms"],
            "peak_rss_mb": measured["peak_rss_mb"],
        }
        metrics.update(workload.sim_metrics(reference_units))
        metrics["ok_share"] = 1.0 - run.failed / run.attempted
        units = {name: END_TO_END[name][0] for name in END_TO_END}
    else:
        metrics = measured["metrics"]
        units = PER_LAYER
    correct = not run.problems and run.failed == 0

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "environment": environment(),
        "metrics": {
            name: {
                "value": metrics[name],
                "unit": units[name],
                "clock": END_TO_END[name][1] if args.trace == 0 else "layer",
            }
            for name in units
        },
        "setup": setup,
        "measured": {k: v for k, v in measured.items() if k != "metrics"},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )

    for name in units:
        clock = END_TO_END[name][1] if args.trace == 0 else "layer"
        print(f"{name:32s} {metrics[name]:>16.6g} {units[name]:6s} [{clock}]")
    if args.trace == 0:
        print(
            f"# dispatch tail p{measured['tail_pct']:g} of "
            f"{measured['dispatch_samples']} = {measured['dispatch_tail_ms']:.4g} ms; "
            f"{measured['ops']} ops in {measured['wall_s']:.2f} wall s = "
            f"{measured['ref_s']:.2f} ref s ({measured['ops_per_wall_s']:.4g} ops per "
            f"wall s); calibration slice p50 {measured['slice_p50_s'] * 1e3:.3f} ms"
        )
    for problem in run.problems[:20]:
        print(f"# CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
