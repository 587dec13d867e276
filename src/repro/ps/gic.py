"""Generic Interrupt Controller (GIC) model.

PL interrupt lines (DMA completion, CRC error) route to the PS through
the GIC.  The model connects :class:`~repro.sim.signal.InterruptLine`
sources to software handlers and keeps per-source statistics; handlers
run at the interrupt's assertion instant plus a small entry latency.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..sim import InterruptLine, Simulator

__all__ = ["InterruptController"]


class InterruptController:
    """Routes PL interrupt lines to PS handler callbacks."""

    #: Interrupt entry latency: GIC ack + context save (ns).
    ENTRY_LATENCY_NS = 300.0

    def __init__(self, sim: Simulator, name: str = "gic"):
        self.sim = sim
        self.name = name
        self._sources: Dict[str, InterruptLine] = {}
        self._handlers: Dict[str, List[Callable[[], None]]] = {}
        self.counts: Dict[str, int] = {}

    def connect(self, irq_id: str, line: InterruptLine) -> None:
        """Attach a PL interrupt line under a software-visible id.

        The line's watcher holds the id's count and handlers, not the
        controller, so the controller and its lines form no reference
        cycle.
        """
        if irq_id in self._sources:
            raise ValueError(f"irq id {irq_id!r} already connected")
        self._sources[irq_id] = line
        handlers = self._handlers[irq_id] = []
        self.counts[irq_id] = 0
        counts, sim, latency_ns = self.counts, self.sim, self.ENTRY_LATENCY_NS
        name = f"{self.name}.isr:{irq_id}"

        def on_edge(old, new) -> None:
            if old or not new:  # only rising edges
                return
            counts[irq_id] += 1
            if handlers:
                sim.process(_dispatch(sim, latency_ns, list(handlers)), name=name)

        line.watch(on_edge)

    def register_handler(self, irq_id: str, handler: Callable[[], None]) -> None:
        self._check(irq_id)
        self._handlers[irq_id].append(handler)

    def line(self, irq_id: str) -> InterruptLine:
        self._check(irq_id)
        return self._sources[irq_id]

    def wait_for(self, irq_id: str):
        """Event for the next assertion of ``irq_id`` (for polling loops)."""
        self._check(irq_id)
        return self._sources[irq_id].wait_assert()

    # -- internals ----------------------------------------------------------
    def _check(self, irq_id: str) -> None:
        if irq_id not in self._sources:
            raise KeyError(
                f"no irq {irq_id!r} connected; have {sorted(self._sources)}"
            )


def _dispatch(sim: Simulator, latency_ns: float, handlers: List[Callable[[], None]]):
    """Run ``handlers`` after the interrupt entry latency (process body)."""
    yield sim.timeout(latency_ns)
    for handler in handlers:
        handler()
