"""Chaos injector: delivers a :class:`~repro.chaos.faults.FaultPlan`
against a live :class:`~repro.core.PdrSystem`.

The injector is the only component that touches the device models' fault
hooks (``fault_*`` attributes, ``None`` by default so the hot path stays
hook-free).  ``arm()`` installs one hook per subsystem plus one daemon
delivery process per *scheduled* fault; ``disarm()`` removes everything:
the hooks, and the deliveries still pending, whose generators it closes
so that their waits left on the simulator's heap hold no reference back
to the injector or the system.

Delivery semantics per kind:

* ``dram_bitflip`` / ``axi_slverr`` / ``icap_lockup`` arm a consumable
  budget at their scheduled time; the next matching transactions absorb
  it (a bounded transient, recovered by the firmware's retry ladder).
* ``dram_latency`` / ``axi_stall`` open a degradation *window*; every
  transaction inside it pays the extra latency (service degrades, no
  data is lost).
* ``clock_loss_of_lock`` / ``brownout`` call the clocking / power models
  directly; both self-recover (MMCM re-lock, droop expiry).
* ``seu`` waits until the target region is loaded **and** the ICAP is
  idle (upsets during an active reconfiguration are indistinguishable
  from transfer corruption and are the firmware's own retry problem),
  then flips one configuration word — detection is the background
  scrubber's job, repair the resilience layer's.

Every delivery appends a plain-data event record to :attr:`events`,
adds to the ``chaos.*`` counts and emits a ``chaos`` trace span, so a
soak report can audit exactly what was injected when, and what recovered.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from ..axi import AxiSlaveError
from ..obs import SpanRecorder

from .faults import FaultPlan

__all__ = ["ChaosInjector"]


class ChaosInjector:
    """Arms a fault plan against one PDR system."""

    #: SEU gating poll period (ns) while the ICAP is busy or the target
    #: region has no golden CRC loaded yet.
    SEU_POLL_NS = 50_000.0

    def __init__(self, system, plan: FaultPlan):
        self.system = system
        self.plan = plan
        self.armed = False
        metrics = system.metrics
        self.counts = metrics.counts(
            "chaos", faults_injected=0, fault_applications=0
        )
        #: One field per fault kind in the plan: deliveries of that kind.
        self.injected = metrics.counts(
            "chaos.injected", **{fault.kind: 0 for fault in plan.faults}
        )
        self._spans = SpanRecorder(
            now_fn=lambda: system.sim.now,
            tracer=system.trace,
            source="chaos",
            metrics=metrics,
            metrics_prefix="chaos.phase.",
        )
        #: One record per planned fault (same order as the plan).
        self.events: List[Dict] = []
        # Armed state the hooks consult (event dicts double as state).
        self._bitflips: List[Dict] = []
        self._latency_windows: List[Dict] = []
        self._stall_windows: List[Dict] = []
        self._slverrs: List[Dict] = []
        self._lockups: List[Dict] = []
        #: The delivery generators, closed by :meth:`disarm`.
        self._deliveries: List[Generator] = []

    # -- lifecycle ----------------------------------------------------------
    def arm(self) -> None:
        """Install hooks and spawn one delivery daemon per fault."""
        if self.armed:
            raise RuntimeError("chaos injector already armed")
        system = self.system
        for name in ("fault_latency_ns", "fault_read_tamper"):
            if getattr(system.dram_controller, name) is not None:
                raise RuntimeError(f"dram {name} hook already installed")
        self.armed = True
        system.dram_controller.fault_latency_ns = self._dram_latency_hook
        system.dram_controller.fault_read_tamper = self._dram_tamper_hook
        system.interconnect.fault_stall_ns = self._axi_stall_hook
        system.interconnect.fault_error = self._axi_error_hook
        system.icap.fault_lockup_cycles = self._icap_lockup_hook
        for index, fault in enumerate(self.plan.faults):
            event = {
                "kind": fault.kind,
                "planned_us": fault.at_us,
                "params": dict(fault.params),
                "injected_ns": None,
                "recovered_ns": None,
                "applications": 0,
            }
            self.events.append(event)
            delivery = self._deliver(fault, event)
            self._deliveries.append(delivery)
            system.sim.process(
                delivery,
                name=f"chaos.{fault.kind}@{fault.at_us}us#{index}",
                daemon=True,
            )

    def disarm(self) -> None:
        """Remove every installed hook and end every pending delivery.

        Delivered state stays recorded.  Call it after the last simulated
        instant: a delivery ended here never fires.
        """
        if not self.armed:
            return
        for delivery in self._deliveries:
            delivery.close()
        self._deliveries.clear()
        system = self.system
        system.dram_controller.fault_latency_ns = None
        system.dram_controller.fault_read_tamper = None
        system.interconnect.fault_stall_ns = None
        system.interconnect.fault_error = None
        system.icap.fault_lockup_cycles = None
        self.armed = False

    # -- summary ------------------------------------------------------------
    @property
    def injected_count(self) -> int:
        return sum(1 for e in self.events if e["injected_ns"] is not None)

    def injected_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            if event["injected_ns"] is not None:
                counts[event["kind"]] = counts.get(event["kind"], 0) + 1
        return counts

    # -- delivery daemons ------------------------------------------------------
    def _mark_injected(self, fault, event) -> None:
        event["injected_ns"] = self.system.sim.now
        self.counts.faults_injected += 1
        vars(self.injected)[fault.kind] += 1
        with self._spans.span("inject", kind=fault.kind, at_us=fault.at_us):
            pass

    def _deliver(self, fault, event):
        sim = self.system.sim
        at_ns = fault.at_us * 1e3
        if at_ns > sim.now:
            yield sim.timeout(at_ns - sim.now)
        kind = fault.kind
        if kind == "dram_bitflip":
            event["remaining"] = fault.param("count", 1)
            event["flip_mask"] = fault.param("flip_mask", 1)
            self._bitflips.append(event)
            self._mark_injected(fault, event)
        elif kind == "dram_latency":
            event["end_ns"] = sim.now + fault.param("window_us", 0.0) * 1e3
            event["extra_ns"] = fault.param("extra_ns", 0.0)
            self._latency_windows.append(event)
            self._mark_injected(fault, event)
            yield sim.timeout(event["end_ns"] - sim.now)
            event["recovered_ns"] = sim.now
        elif kind == "axi_stall":
            event["end_ns"] = sim.now + fault.param("window_us", 0.0) * 1e3
            event["stall_ns"] = fault.param("stall_ns", 0.0)
            self._stall_windows.append(event)
            self._mark_injected(fault, event)
            yield sim.timeout(event["end_ns"] - sim.now)
            event["recovered_ns"] = sim.now
        elif kind == "axi_slverr":
            event["remaining"] = fault.param("count", 1)
            self._slverrs.append(event)
            self._mark_injected(fault, event)
        elif kind == "icap_lockup":
            event["remaining"] = fault.param("bursts", 1)
            event["cycles"] = fault.param("cycles", 0)
            self._lockups.append(event)
            self._mark_injected(fault, event)
        elif kind == "clock_loss_of_lock":
            relock = self.system.clock_wizard.lose_lock()
            self._mark_injected(fault, event)
            if relock is not None:
                yield relock
            event["recovered_ns"] = sim.now
        elif kind == "brownout":
            duration_ns = fault.param("duration_us", 0.0) * 1e3
            self.system.supply.brownout(
                fault.param("ceiling_mhz", 100.0), duration_ns
            )
            self._mark_injected(fault, event)
            yield sim.timeout(duration_ns)
            event["recovered_ns"] = sim.now
        elif kind == "seu":
            yield from self._deliver_seu(fault, event)
        else:  # pragma: no cover - plan builder rejects unknown kinds
            raise ValueError(f"unknown fault kind {kind!r}")

    def _deliver_seu(self, fault, event):
        """Gate, then flip one configuration word of a loaded region."""
        sim = self.system.sim
        region = fault.param("region")
        scrubber = self.system.scrubber
        # Outside active reconfigurations only: wait until no firmware
        # sequence is in flight (the ICAP busy flag flickers low between
        # bursts and the post-transfer scrub runs with idle engines, so
        # neither engine flag alone is enough) and the region holds
        # golden (CRC-tracked) content.
        while (
            self.system.firmware_active
            or self.system.icap.busy.value
            or not self.system.dma.idle
            or region not in scrubber.expected_regions()
        ):
            yield sim.timeout(self.SEU_POLL_NS)
        self.system.memory.corrupt_region_word(
            region,
            fault.param("offset_words", 0),
            flip_mask=fault.param("flip_mask", 1),
        )
        event["region"] = region
        self._mark_injected(fault, event)
        self.system.trace.emit(
            sim.now,
            "chaos",
            f"SEU: flipped word {fault.param('offset_words', 0)} of {region} "
            f"(mask {fault.param('flip_mask', 1):#x})",
        )

    # -- hooks (consulted on device hot paths once armed) ----------------------
    def _dram_latency_hook(self, request) -> float:
        now = self.system.sim.now
        extra = 0.0
        for window in self._latency_windows:
            if now <= window["end_ns"]:
                extra += window["extra_ns"]
                window["applications"] += 1
                self.counts.fault_applications += 1
        return extra

    def _dram_tamper_hook(self, request, data: bytes) -> bytes:
        for flip in self._bitflips:
            if flip["remaining"] > 0 and len(data) >= 4:
                flip["remaining"] -= 1
                flip["applications"] += 1
                self.counts.fault_applications += 1
                word = int.from_bytes(data[:4], "big") ^ flip["flip_mask"]
                data = word.to_bytes(4, "big") + data[4:]
                if flip["remaining"] == 0:
                    flip["recovered_ns"] = self.system.sim.now
        return data

    def _axi_stall_hook(self) -> float:
        now = self.system.sim.now
        stall = 0.0
        for window in self._stall_windows:
            if now <= window["end_ns"]:
                stall += window["stall_ns"]
                window["applications"] += 1
                self.counts.fault_applications += 1
        return stall

    def _axi_error_hook(
        self, kind: str, addr: int, size: int
    ) -> Optional[Exception]:
        for slverr in self._slverrs:
            if slverr["remaining"] > 0:
                slverr["remaining"] -= 1
                slverr["applications"] += 1
                self.counts.fault_applications += 1
                slverr["recovered_ns"] = self.system.sim.now
                return AxiSlaveError(
                    f"injected SLVERR on {kind} @{addr:#x} ({size} B)"
                )
        return None

    def _icap_lockup_hook(self) -> int:
        for lockup in self._lockups:
            if lockup["remaining"] > 0:
                lockup["remaining"] -= 1
                lockup["applications"] += 1
                self.counts.fault_applications += 1
                if lockup["remaining"] == 0:
                    lockup["recovered_ns"] = self.system.sim.now
                return lockup["cycles"]
        return 0
