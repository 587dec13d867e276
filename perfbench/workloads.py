"""The benchmark's four workloads, reached through the public API only.

A workload runs *units*.  A unit is one closed-loop operation of the
program (one reconfiguration, or one whole fleet campaign) and counts
``ops`` operations: one per reconfiguration, one per offered request.
Every unit returns a sim-clock ``record``; the benchmark requires the
record of a repeated input to be identical to its first run.

* ``point_grid`` — Table-I points on warm snapshot templates.
* ``fresh_content`` — 200 MHz loads of content never seen before.
* ``fleet_knee`` — the plain fleet at its zero-rejection knee.
* ``fleet_chaos`` — the fleet under a fault storm with one board killed.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import random
import statistics
from time import perf_counter
from typing import Any, Dict, Iterable, List, Tuple

from repro.core import PdrSystem
from repro.core.results import ReconfigResult
from repro.exec import SweepRunner
from repro.experiments.calibration import PAPER_STRESS_FAILURES, PAPER_TABLE1
from repro.experiments.points import asp_descriptor, make_point_system
from repro.experiments.table1 import WORKLOAD_ASP
from repro.fabric import Aes128Asp, FirFilterAsp, VectorScaleAsp, instantiate_asp
from repro.fleet import FleetSpec, run_fleet
from repro.fleet.report import TERMINAL_EXHAUSTED, TERMINAL_SERVED, render_json
from repro.fleet.workload import FLEET_REGIONS, PAD_CLASSES
from repro.snapshot.templates import fork_system

__all__ = ["DispatchRecorder", "Unit", "WORKLOADS", "make_workload"]

#: The robust Table-I operating point every headline metric is taken at.
NOMINAL_MHZ = 200.0
TABLE1_BYTES = 528_760
#: Reproduction tolerance on the published Table-I latencies (%).
PAPER_LATENCY_TOLERANCE_PCT = 1.0


class DispatchRecorder:
    """Times every firmware dispatch and keeps what it returned.

    A dispatch is one ``PdrSystem.reconfigure`` or ``reconfigure_batch``
    call.  The recorder wraps both on the class, so dispatches made deep
    inside the fleet and resilience layers are seen too.  ``clock``
    reads host seconds (``RefClock.now`` for reference seconds).
    """

    NAMES = ("reconfigure", "reconfigure_batch")

    def __init__(self, clock=perf_counter) -> None:
        #: ``(host seconds, system, result)`` per dispatch, in call order.
        self.dispatches: List[Tuple[float, PdrSystem, Any]] = []
        self.clock = clock
        self._originals: Dict[str, Any] = {}

    def _timed(self, fn):
        record = self.dispatches.append
        clock = self.clock

        @functools.wraps(fn)
        def timed(system, *args, **kwargs):
            start = clock()
            result = fn(system, *args, **kwargs)
            record((clock() - start, system, result))
            return result

        return timed

    def install(self) -> None:
        for name in self.NAMES:
            self._originals[name] = PdrSystem.__dict__[name]
            setattr(PdrSystem, name, self._timed(self._originals[name]))

    def uninstall(self) -> None:
        for name, original in self._originals.items():
            setattr(PdrSystem, name, original)
        self._originals.clear()

    def take(self) -> List[Tuple[float, PdrSystem, Any]]:
        taken = list(self.dispatches)
        self.dispatches.clear()
        return taken


@dataclasses.dataclass
class Unit:
    """One executed unit: its input key, op count, checks and sim record."""

    key: Any
    ops: int
    #: Ops whose outputs failed a check (regime, CRC, rejected, ...).
    failed: int
    #: Sim-clock outputs; identical for every run of the same key.
    record: Any
    #: Host seconds of each dispatch in this unit.
    dispatch_s: List[float]
    #: Single-load results, for the latency/throughput metrics.
    results: List[ReconfigResult]
    #: Simulated service time per op, for the request percentiles (µs).
    request_us: List[float]
    #: Ops served (interrupt seen and CRC valid, or request served).
    served: int
    problems: List[str]
    #: The systems that ran this unit (dropped once counted).
    systems: List[PdrSystem] = dataclasses.field(default_factory=list)
    #: Per-layer counters summed over this unit's systems.
    counts: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Extra plain-data facts for per-layer metrics (fleet report fields).
    facts: Dict[str, float] = dataclasses.field(default_factory=dict)


#: ``(metric name, attribute)`` summed per system into ``Unit.counts``.
_REGISTRY_COUNTS = (
    ("ddrc.requests_served", "value"),
    ("ddrc.row_hits", "value"),
    ("ddrc.row_misses", "value"),
    ("ddrc.row_conflicts", "value"),
    ("ddrc.queue_wait_ns", "value"),
    ("ddrc.refresh_stall_ns", "value"),
    ("axi_ic.bytes", "value"),
    ("axi_ic.queue_wait_us", "sum"),
    ("dma.bytes_moved", "value"),
    ("dma.bursts_issued", "value"),
    ("icap.words_consumed", "value"),
    ("crc_scrub.scrubs_run", "value"),
    ("crc_scrub.mismatches", "value"),
    ("chaos.faults_injected", "value"),
)


def system_counts(systems: Iterable[PdrSystem]) -> Dict[str, float]:
    """Kernel and device counters summed over distinct systems."""
    counts: Dict[str, float] = {name: 0.0 for name, _attr in _REGISTRY_COUNTS}
    counts.update(
        {"sim.events": 0.0, "sim.processes": 0.0, "sim.heap_high_water": 0.0,
         "icap.stall_us": 0.0}
    )
    seen = set()
    for system in systems:
        if id(system) in seen:
            continue
        seen.add(id(system))
        sim = system.sim
        counts["sim.events"] += sim.events_processed
        counts["sim.processes"] += sim.processes_spawned
        counts["sim.heap_high_water"] = max(
            counts["sim.heap_high_water"], sim.heap_high_water
        )
        for name, attr in _REGISTRY_COUNTS:
            metric = system.metrics.get(name)
            if metric is not None:
                counts[name] += float(getattr(metric, attr) or 0.0)
        stall = system.metrics.get("icap.stall_cycles")
        if stall is not None:
            # Cycles of the over-clock domain at its final frequency.
            counts["icap.stall_us"] += stall.value / system.overclock.freq_mhz
    return counts


def _sim_record(system: PdrSystem) -> Dict[str, Any]:
    sim = system.sim
    return {
        "events": sim.events_processed,
        "processes": sim.processes_spawned,
        "heap_high_water": sim.heap_high_water,
        "now_ns": sim.now,
    }


class Workload:
    """Base: unit keys in a seeded order, plus the metric definitions."""

    name = ""
    #: Tail percentile of dispatch time (kept in the run's record), and
    #: the dispatch samples a run must collect so that ten lie beyond it.
    tail_pct = 90.0

    def __init__(self, seed: int, recorder: DispatchRecorder):
        self.seed = int(seed)
        self.recorder = recorder

    @property
    def min_dispatch_samples(self) -> int:
        return int(round(10 / (1 - self.tail_pct / 100.0)))

    def reference_keys(self) -> List[Any]:
        """Keys of the reference pass the sim-clock metrics come from."""
        raise NotImplementedError

    def timed_blocks(self, pass_index: int) -> List[List[Any]]:
        """Key blocks of the ``pass_index``-th timed pass (closed loop).

        Every block holds the same mix of work, so a traced run can pair
        an untraced block with a traced one of equal cost.
        """
        raise NotImplementedError

    #: Inputs must never repeat: in a traced run, each measurement mode
    #: draws its own blocks instead of rerunning the same keys.
    fresh_inputs = False

    def run_unit(self, key: Any, telemetry: bool = True) -> Unit:
        raise NotImplementedError

    def recheck_keys(self) -> List[Any]:
        """Keys re-run after timing to prove a repeat is bit-identical."""
        return []

    def unit_class(self, key: Any) -> Any:
        """Units of one class do the same host work in every timed pass."""
        return key

    # -- sim-clock metrics over the reference units ---------------------------
    def nominal_results(self, units: List[Unit]) -> List[ReconfigResult]:
        """Successful single loads requested and run at 200 MHz."""
        nominal = [
            r for unit in units for r in unit.results
            if r.requested_freq_mhz == NOMINAL_MHZ
            and r.freq_mhz == NOMINAL_MHZ
            and r.succeeded
        ]
        if not nominal:
            raise RuntimeError(f"{self.name}: no successful 200 MHz load")
        return nominal

    def sim_metrics(self, units: List[Unit]) -> Dict[str, float]:
        nominal = self.nominal_results(units)
        ops = sum(unit.ops for unit in units)
        served = sum(unit.served for unit in units)
        metrics = {
            "reconfig_latency_us": statistics.median(r.latency_us for r in nominal),
            "throughput_mb_s": statistics.median(r.throughput_mb_s for r in nominal),
            "efficiency_mb_per_j": statistics.median(
                r.power_efficiency_mb_per_j for r in nominal
            ),
            "paper_latency_err_pct": self.paper_latency_err_pct(units, nominal),
            "availability": served / ops,
        }
        metrics.update(self.request_metrics(units))
        return metrics

    def paper_latency_err_pct(self, units, nominal) -> float:
        """Worst error of Table-I-sized 200 MHz loads against Table I."""
        paper = PAPER_TABLE1[NOMINAL_MHZ][0]
        sized = [r for r in nominal if r.bitstream_bytes == TABLE1_BYTES]
        if not sized:
            raise RuntimeError(f"{self.name}: no Table-I-sized 200 MHz load")
        return max(abs(r.latency_us - paper) / paper * 100.0 for r in sized)

    def request_metrics(self, units: List[Unit]) -> Dict[str, float]:
        """Closed loop: each op is a request served for its sim time."""
        requests = [us for unit in units for us in unit.request_us]
        return {
            "request_p50_us": nearest_rank(requests, 50),
            "request_p99_us": nearest_rank(requests, 99),
            # Served ops per simulated millisecond of service.
            "goodput_per_ms": sum(unit.served for unit in units)
            / (sum(requests) / 1e3),
        }

    def phase_means(self, units: List[Unit]) -> Dict[str, float]:
        nominal = self.nominal_results(units)
        phases = ("clock_lock", "driver_setup", "dma_transfer", "icap_drain", "scrub")
        out = {
            f"phase.{phase}_us": statistics.fmean(
                r.phase_us.get(phase, 0.0) for r in nominal
            )
            for phase in phases
        }
        every = [r for unit in units for r in unit.results]
        for device in ("dma", "scrubber"):
            out[f"critical_path.{device}_share"] = sum(
                1 for r in every if r.critical_path == device
            ) / len(every)
        return out

    def fleet_facts(self, units: List[Unit]) -> Dict[str, float]:
        return {}


def nearest_rank(values: List[float], pct: float) -> float:
    """The ``ceil(pct/100 * n)``-th smallest value."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * pct / 100)) - 1]


# ---------------------------------------------------------------------------
# point_grid
# ---------------------------------------------------------------------------

class PointGrid(Workload):
    """Table-I frequencies x four die temperatures on RP1, warm templates."""

    name = "point_grid"
    tail_pct = 85.0
    REGION = "RP1"
    TEMPS_C = (40.0, 60.0, 80.0, 100.0)

    def __init__(self, seed, recorder):
        super().__init__(seed, recorder)
        self.workload = asp_descriptor(WORKLOAD_ASP)
        self.grid = [
            (freq, temp) for freq in sorted(PAPER_TABLE1) for temp in self.TEMPS_C
        ]

    def reference_keys(self):
        return list(self.grid)

    def timed_blocks(self, pass_index):
        """One block per temperature: all nine frequencies, seeded order."""
        rng = random.Random(f"{self.seed}:grid:{pass_index}")
        temps = list(self.TEMPS_C)
        rng.shuffle(temps)
        blocks = []
        for temp in temps:
            freqs = sorted(PAPER_TABLE1)
            rng.shuffle(freqs)
            blocks.append([(freq, temp) for freq in freqs])
        return blocks

    def expected_regime(self, freq: float, temp: float) -> Tuple[bool, bool]:
        """(interrupt seen, CRC valid) as Table I and the stress grid say."""
        latency, _throughput, crc_valid = PAPER_TABLE1[freq]
        if (freq, temp) in PAPER_STRESS_FAILURES:
            crc_valid = False
        return latency is not None, crc_valid

    def run_unit(self, key, telemetry=True):
        freq, temp = key
        config = None if telemetry else {"telemetry": False}
        system = make_point_system(self.REGION, self.workload, config)
        system.set_die_temperature(temp)
        asp = instantiate_asp(self.workload[0], list(self.workload[1]))
        start_ns = system.sim.now
        result = system.reconfigure(self.REGION, asp, freq)
        dispatches = self.recorder.take()
        problems = []
        regime = (result.interrupt_seen, result.crc_valid)
        if regime != self.expected_regime(freq, temp):
            problems.append(
                f"{freq:g} MHz @ {temp:g} C: regime {regime}, "
                f"expected {self.expected_regime(freq, temp)}"
            )
        paper_latency = PAPER_TABLE1[freq][0]
        if temp == 40.0 and paper_latency is not None and result.latency_us:
            err = abs(result.latency_us - paper_latency) / paper_latency * 100
            if err > PAPER_LATENCY_TOLERANCE_PCT:
                problems.append(f"{freq:g} MHz latency error {err:.3f} %")
        record = {"result": dataclasses.asdict(result)}
        if telemetry:
            record["sim"] = _sim_record(system)
        return Unit(
            key=key,
            ops=1,
            failed=1 if problems else 0,
            record=record,
            dispatch_s=[wall for wall, _s, _r in dispatches],
            results=[result],
            request_us=[(system.sim.now - start_ns) / 1e3],
            served=1 if result.succeeded else 0,
            problems=problems,
            systems=[system],
        )

    def paper_latency_err_pct(self, units, nominal):
        errors = []
        for unit in units:
            freq, temp = unit.key
            paper = PAPER_TABLE1[freq][0]
            result = unit.results[0]
            if temp == 40.0 and paper is not None and result.latency_us is not None:
                errors.append(abs(result.latency_us - paper) / paper * 100.0)
        return max(errors)


# ---------------------------------------------------------------------------
# fresh_content
# ---------------------------------------------------------------------------

class FreshContent(Workload):
    """200 MHz loads whose ASP content no earlier op in the process used.

    Op ``i`` targets one of the 12 (region, size class) combinations; each
    block of 12 ops covers every combination once, in a seeded order, so
    the sim-clock metrics do not depend on the seed.  The ASP kind of a
    combination rotates from block to block, so every three blocks load
    each (combination, kind) once and the host cost of the mix does not
    depend on the seed either.  The ASP parameters come from
    ``(seed, i)``; ``i`` only grows, so every op misses the bitstream
    build cache and the CRC content caches.
    """

    name = "fresh_content"
    tail_pct = 75.0
    COMBOS = tuple((region, pad) for region in FLEET_REGIONS for pad in PAD_CLASSES)
    KINDS = ("fir", "aes", "vecscale")
    REFERENCE_OPS = 2 * len(COMBOS)
    RECHECK_OPS = len(COMBOS)

    def __init__(self, seed, recorder):
        super().__init__(seed, recorder)
        self._next = self.REFERENCE_OPS
        #: combo -> sim record of its first reference op.
        self.combo_records: Dict[Tuple[str, int], Any] = {}

    def combo(self, index: int) -> Tuple[str, int]:
        block, slot = divmod(index, len(self.COMBOS))
        order = list(self.COMBOS)
        random.Random(f"{self.seed}:combos:{block}").shuffle(order)
        return order[slot]

    def kind(self, index: int) -> str:
        block = index // len(self.COMBOS)
        return self.KINDS[(block + self.COMBOS.index(self.combo(index))) % len(self.KINDS)]

    def asp(self, index: int):
        rng = random.Random(f"{self.seed}:content:{index}")
        kind = self.kind(index)
        if kind == "fir":
            return FirFilterAsp([rng.randrange(-(2 ** 15), 2 ** 15) for _ in range(8)])
        if kind == "aes":
            return Aes128Asp([rng.getrandbits(32) for _ in range(4)])
        return VectorScaleAsp(rng.randrange(1, 2 ** 16), rng.randrange(0, 2 ** 16))

    def reference_keys(self):
        return list(range(self.REFERENCE_OPS))

    fresh_inputs = True

    def timed_blocks(self, pass_index):
        start = self._next
        self._next += len(self.COMBOS)
        return [list(range(start, self._next))]

    def recheck_keys(self):
        return list(range(self.RECHECK_OPS))

    def unit_class(self, key):
        return self.combo(key), self.kind(key)

    def run_unit(self, key, telemetry=True):
        region, pad = self.combo(key)
        asp = self.asp(key)
        system = fork_system(None if telemetry else {"telemetry": False})
        bitstream = system.make_bitstream(region, asp, pad_to=pad or None)
        start_ns = system.sim.now
        result = system.reconfigure(region, asp, NOMINAL_MHZ, bitstream)
        dispatches = self.recorder.take()
        problems = []
        if not result.succeeded:
            problems.append(f"op {key} ({region}, pad {pad}): load failed")
        record = {"result": dataclasses.asdict(result)}
        if telemetry:
            record["sim"] = _sim_record(system)
        reference = self.combo_records.setdefault((region, pad, telemetry), record)
        if record != reference:
            problems.append(
                f"op {key} ({region}, pad {pad}): sim outputs depend on content"
            )
        return Unit(
            key=key,
            ops=1,
            failed=1 if problems else 0,
            record=record,
            dispatch_s=[wall for wall, _s, _r in dispatches],
            results=[result],
            request_us=[(system.sim.now - start_ns) / 1e3],
            served=1 if result.succeeded else 0,
            problems=problems,
            systems=[system],
        )


# ---------------------------------------------------------------------------
# fleets
# ---------------------------------------------------------------------------

class Fleet(Workload):
    """One fleet campaign per unit; ops are its offered requests.

    The campaign is pinned by the workload (its seed included), so the
    benchmark's ``--seed`` cannot change what the fleet simulates; it
    only names the run.
    """

    tail_pct = 90.0
    SPEC: FleetSpec = FleetSpec()

    def reference_keys(self):
        return ["campaign"]

    def timed_blocks(self, pass_index):
        return [["campaign"]]

    def run_unit(self, key, telemetry=True):
        report = run_fleet(self.SPEC, runner=SweepRunner(jobs=1))
        dispatches = self.recorder.take()
        served = sum(1 for o in report.outcomes if o.terminal == TERMINAL_SERVED)
        exhausted = sum(
            1 for o in report.outcomes if o.terminal == TERMINAL_EXHAUSTED
        )
        problems = []
        if served + report.rejected + exhausted != report.offered:
            problems.append(
                f"conservation: served {served} + rejected {report.rejected} "
                f"+ exhausted {exhausted} != offered {report.offered}"
            )
        if report.unhandled:
            problems.append(f"unhandled process failures: {report.unhandled}")
        problems.extend(self.campaign_problems(report))
        not_ok = sum(
            1 for o in report.outcomes if o.terminal == TERMINAL_SERVED and not o.ok
        )
        singles = [r for _w, _s, r in dispatches if isinstance(r, ReconfigResult)]
        record = {
            "report": render_json(report),
            "dispatches": [dataclasses.asdict(r) for _w, _s, r in dispatches],
        }
        unit = Unit(
            key=key,
            ops=report.offered,
            failed=report.rejected + exhausted + not_ok,
            record=record,
            dispatch_s=[wall for wall, _s, _r in dispatches],
            results=singles,
            request_us=[],
            served=served,
            problems=problems,
            systems=[system for _w, system, _r in dispatches],
        )
        slos = report.slos
        unit.facts = {
            "request_p50_us": slos.p50_latency_us,
            "request_p99_us": slos.p99_latency_us,
            "goodput_per_ms": slos.goodput_per_ms,
            "fleet.coalesced_share": report.coalesced / report.offered,
            "fleet.sg_groups": report.batches,
            "fleet.mean_wait_us": slos.mean_wait_us,
            "fleet.p99_wait_us": slos.p99_wait_us,
            "fleet.rejected_share": slos.rejected_rate,
            "fleet.board_utilisation_mean": statistics.fmean(
                usage.utilisation(report.horizon_us) for usage in report.boards
            ),
            "fleet.failovers": slos.failovers,
            "fleet.rounds": report.rounds,
            "fleet.failover_penalty_us": slos.failover_latency_penalty_us or 0.0,
        }
        return unit

    def campaign_problems(self, report) -> List[str]:
        return []

    def request_metrics(self, units):
        facts = units[0].facts
        return {
            name: facts[name]
            for name in ("request_p50_us", "request_p99_us", "goodput_per_ms")
        }

    def fleet_facts(self, units):
        return {k: v for k, v in units[0].facts.items() if k.startswith("fleet.")}


class FleetKnee(Fleet):
    """E14's zero-rejection knee: 4 boards, Poisson, seed 1, 4 req/ms."""

    name = "fleet_knee"
    tail_pct = 75.0
    SPEC = FleetSpec(boards=4, seed=1, duration_ms=20.0, rate_per_ms=4.0)

    def campaign_problems(self, report):
        problems = []
        if report.batches == 0 or report.coalesced == 0:
            problems.append(
                f"batching idle: {report.batches} SG groups, "
                f"{report.coalesced} coalesced"
            )
        return problems


class FleetChaos(Fleet):
    """E16: seed 17, 4 boards, 14 ms, chaos intensity 6, one board killed."""

    name = "fleet_chaos"
    SPEC = FleetSpec(
        boards=4,
        seed=17,
        duration_ms=14.0,
        chaos=True,
        chaos_intensity=6,
        kill_boards=1,
    )


WORKLOADS = {
    cls.name: cls for cls in (PointGrid, FreshContent, FleetKnee, FleetChaos)
}


def make_workload(name: str, seed: int, recorder: DispatchRecorder) -> Workload:
    return WORKLOADS[name](seed, recorder)
