"""Typed environmental-fault taxonomy + seed-deterministic fault plans.

A :class:`FaultPlan` is a **pure function** of ``(fault_seed, horizon,
count, seu_per_ms)`` — the same contract as the fuzzer's scenario
generator: no wall clock, no global RNG state, plain-data records.  Case
``i`` of a soak campaign therefore schedules bit-identical faults in
every process, forever, which is what makes ``--replay`` and a
``--jobs N`` campaign byte-exact.

The taxonomy covers one fault per architectural layer of the platform
(see DESIGN.md §12 for the full table):

========================  ====================================================
kind                      physical effect modelled
========================  ====================================================
``dram_bitflip``          in-flight bit flip on a DDR read burst (link noise)
``dram_latency``          DDR service-latency spike window (refresh storm)
``axi_stall``             interconnect arbitration stall window
``axi_slverr``            AXI SLVERR response on a memory-mapped transaction
``icap_lockup``           ICAPE2 transient busy lock-up (extra busy cycles)
``clock_loss_of_lock``    MMCM loses lock; output falls back until re-lock
``brownout``              supply droop clamping the usable over-clock
``seu``                   single-event upset flipping a configuration frame
========================  ====================================================

Every fault is *recoverable by design* — the point of the chaos layer is
to prove the detect→isolate→repair machinery brings the service back,
not to model unrecoverable silicon death.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

__all__ = [
    "BOARD_KILL_KIND",
    "ENVIRONMENT_KINDS",
    "FAULT_KINDS",
    "Fault",
    "FaultPlan",
    "build_board_fault_plan",
    "build_fault_plan",
]

#: Regions the SEU generator may target (the Z-7020 floorplan's RPs).
_REGIONS = ("RP1", "RP2", "RP3", "RP4")
#: Words per region available to the SEU offset draw (matches the
#: fuzzer's ``corrupt_offset`` bound: 1304 frames x 101 words).
_REGION_WORDS = 1304 * 101

#: Deterministically scheduled environmental faults (non-SEU).
ENVIRONMENT_KINDS = (
    "dram_bitflip",
    "dram_latency",
    "axi_stall",
    "axi_slverr",
    "icap_lockup",
    "clock_loss_of_lock",
    "brownout",
)
#: The full taxonomy.
FAULT_KINDS = ENVIRONMENT_KINDS + ("seu",)

#: Hard board death — the one deliberately *unrecoverable* kind.  It is
#: never drawn by the environmental rotation (every kind above is
#: recoverable by design); only the fleet layer schedules it, and only
#: the fleet layer handles it: the board stops executing mid-run and its
#: remaining work fails over to the surviving boards
#: (:mod:`repro.fleet.health`).  The :class:`~repro.chaos.ChaosInjector`
#: does not deliver it — executors split it out of the plan before
#: arming the injector.
BOARD_KILL_KIND = "board_kill"


@dataclass(frozen=True)
class Fault:
    """One scheduled fault (plain data, canonically ordered params)."""

    kind: str
    at_us: float
    #: Sorted ``(name, value)`` pairs — hashable and canonical-JSON-stable.
    params: Tuple[Tuple[str, Any], ...] = ()

    def param(self, name: str, default: Any = None) -> Any:
        for key, value in self.params:
            if key == name:
                return value
        return default

    def to_mapping(self) -> Dict[str, Any]:
        return {"kind": self.kind, "at_us": self.at_us, **dict(self.params)}


@dataclass(frozen=True)
class FaultPlan:
    """The full fault schedule of one soak episode, ordered by time."""

    fault_seed: int
    horizon_us: float
    faults: Tuple[Fault, ...] = field(default_factory=tuple)

    def by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for fault in self.faults:
            counts[fault.kind] = counts.get(fault.kind, 0) + 1
        return counts

    @property
    def kinds_covered(self) -> int:
        return len({fault.kind for fault in self.faults})


def _params(**kwargs: Any) -> Tuple[Tuple[str, Any], ...]:
    return tuple(sorted(kwargs.items()))


def _environment_fault(rng: random.Random, kind: str, at_us: float) -> Fault:
    """Draw a recoverable magnitude for one environmental fault."""
    if kind == "dram_bitflip":
        return Fault(kind, at_us, _params(
            count=rng.randint(1, 2),
            flip_mask=1 << rng.randrange(32),
        ))
    if kind == "dram_latency":
        return Fault(kind, at_us, _params(
            window_us=round(rng.uniform(200.0, 800.0), 1),
            extra_ns=round(rng.uniform(500.0, 3000.0), 1),
        ))
    if kind == "axi_stall":
        return Fault(kind, at_us, _params(
            window_us=round(rng.uniform(200.0, 800.0), 1),
            stall_ns=round(rng.uniform(1000.0, 5000.0), 1),
        ))
    if kind == "axi_slverr":
        return Fault(kind, at_us, _params(count=1))
    if kind == "icap_lockup":
        return Fault(kind, at_us, _params(
            bursts=rng.randint(1, 2),
            cycles=rng.randint(5_000, 50_000),
        ))
    if kind == "clock_loss_of_lock":
        return Fault(kind, at_us, _params())
    if kind == "brownout":
        return Fault(kind, at_us, _params(
            ceiling_mhz=round(rng.uniform(100.0, 150.0), 1),
            duration_us=round(rng.uniform(1000.0, 5000.0), 1),
        ))
    raise ValueError(f"unknown environmental fault kind {kind!r}")


def build_fault_plan(
    fault_seed: int,
    horizon_us: float,
    fault_count: int,
    seu_per_ms: float = 0.0,
    regions: Tuple[str, ...] = _REGIONS,
) -> FaultPlan:
    """Build the deterministic fault schedule for one episode.

    Environmental faults rotate through :data:`ENVIRONMENT_KINDS` from a
    seeded starting offset — ``fault_count >= 7`` therefore guarantees
    full taxonomy coverage while smaller counts still draw a diverse
    slice.  SEUs arrive as a Poisson process at ``seu_per_ms`` (drawn
    via ``expovariate``, so the arrival times are pure functions of the
    seed too).
    """
    if horizon_us <= 0:
        raise ValueError("fault horizon must be positive")
    if fault_count < 0:
        raise ValueError("fault count cannot be negative")
    rng = random.Random(int(fault_seed) * 1_000_003 + 17)
    faults: List[Fault] = []
    start = rng.randrange(len(ENVIRONMENT_KINDS))
    for index in range(fault_count):
        kind = ENVIRONMENT_KINDS[(start + index) % len(ENVIRONMENT_KINDS)]
        at_us = round(rng.uniform(0.05, 0.85) * horizon_us, 1)
        faults.append(_environment_fault(rng, kind, at_us))
    if seu_per_ms > 0:
        at_ms = 0.0
        while True:
            at_ms += rng.expovariate(seu_per_ms)
            at_us = round(at_ms * 1e3, 1)
            if at_us > horizon_us * 0.85:
                break
            faults.append(Fault("seu", at_us, _params(
                region=rng.choice(regions),
                offset_words=rng.randrange(_REGION_WORDS),
                flip_mask=1 << rng.randrange(32),
            )))
    faults.sort(key=lambda f: (f.at_us, f.kind, f.params))
    return FaultPlan(
        fault_seed=int(fault_seed),
        horizon_us=float(horizon_us),
        faults=tuple(faults),
    )


def build_board_fault_plan(
    fault_seed: int,
    board: int,
    horizon_us: float,
    fault_count: int,
    seu_per_ms: float = 0.0,
    kill_at_us: float = None,
) -> FaultPlan:
    """Per-board fault schedule for a fleet campaign.

    The campaign seed is salted by the board index (a second large prime
    so board salts never collide with the case salts of
    :func:`build_fault_plan`), which gives every board of a fleet an
    independent — but still seed-deterministic — storm.  ``kill_at_us``
    additionally schedules a hard :data:`BOARD_KILL_KIND` fault: the
    board goes permanently dark at that point of its execution.  Kill
    faults ride in the plan as plain data like everything else, but are
    consumed by the fleet executor, not the injector.
    """
    derived = int(fault_seed) * 1_000_003 + 59 + int(board) * 7_919
    plan = build_fault_plan(derived, horizon_us, fault_count, seu_per_ms)
    faults = plan.faults
    if kill_at_us is not None:
        faults = tuple(
            sorted(
                faults + (Fault(BOARD_KILL_KIND, float(kill_at_us)),),
                key=lambda f: (f.at_us, f.kind, f.params),
            )
        )
    return FaultPlan(
        fault_seed=derived,
        horizon_us=float(horizon_us),
        faults=faults,
    )
