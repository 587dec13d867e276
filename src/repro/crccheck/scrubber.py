"""CRC Bitstream Read-Back block (paper Fig. 2).

"The CRC Bitstream Read-Back block reads back continuously in the
background the whole bitstream to check the CRC of the configuration
memory content.  If a CRC error is detected an interrupt is asserted."

The scrubber owns a read-back port into the configuration memory and a
table of expected CRCs per region (loaded by the firmware after each
successful reconfiguration).  Each scrub pass reads a region frame by
frame at one word per clock cycle — the same over-clocked domain as the
ICAP — folds a CRC-32C and compares.  Mismatch asserts the error
interrupt that the paper wires to the PS.

Scrubbing pauses automatically while the ICAP is writing (the
configuration logic cannot read and write simultaneously).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..bitstream.crc import crc32c_packed
from ..bitstream.device import FRAME_BYTES, FRAME_WORDS
from ..fabric.config_memory import ConfigMemory
from ..icap.primitive import ConfigPort
from ..obs import MetricsRegistry
from ..sim import ClockDomain, InterruptLine, Signal, Simulator

__all__ = ["CrcScrubber", "ScrubResult"]


class ScrubResult:
    """Outcome of one full pass over one region."""

    def __init__(self, region: str, computed: int, expected: int, at_ns: float):
        self.region = region
        self.computed = computed
        self.expected = expected
        self.at_ns = at_ns

    @property
    def ok(self) -> bool:
        return self.computed == self.expected

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "ok" if self.ok else "MISMATCH"
        return f"<ScrubResult {self.region} {status} @{self.at_ns / 1e3:.1f}us>"


class CrcScrubber:
    """Continuous background read-back CRC checker."""

    #: Extra cycles per frame: FAR setup + FDRO pipeline flush.
    FRAME_OVERHEAD_CYCLES = 12

    def __init__(
        self,
        sim: Simulator,
        clock: ClockDomain,
        memory: ConfigMemory,
        busy_gate: Optional[Signal] = None,
        name: str = "crc_scrub",
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.sim = sim
        self.clock = clock
        self.memory = memory
        self.name = name
        self.metrics = metrics if metrics is not None else MetricsRegistry(now_fn=lambda: sim.now)
        self.counts = self.metrics.counts(
            name, scrubs_run=0, mismatches=0, words_read=0
        )
        self._m_pass_us = self.metrics.histogram(f"{name}.pass_us")
        #: The block's own read-back port into the configuration logic
        #: (Fig. 2: the CRC block reads the bitstream back itself).
        self.readback = ConfigPort(memory)
        #: When this external signal is True (ICAP busy), scrubbing waits.
        self.busy_gate = busy_gate
        self.error_irq = InterruptLine(sim, name=f"{name}.err")
        #: Pulses True at the end of every pass (pass result as last_result).
        self.pass_done = Signal(sim, initial=False, name=f"{name}.pass")
        #: Optional repair hook: called with the failing
        #: :class:`ScrubResult` whenever a pass detects a mismatch — the
        #: resilience layer registers here to queue a golden-bitstream
        #: re-write of the corrupted region.
        self.on_mismatch: Optional[Callable[["ScrubResult"], None]] = None
        self._expected: Dict[str, int] = {}
        self.enabled = False
        self.last_result: Optional[ScrubResult] = None
        self._process = None

    # -- firmware-facing API -----------------------------------------------
    def set_expected_crc(self, region: str, crc: int) -> None:
        """Load the golden CRC for a region (after a successful load)."""
        self.memory.layout.region(region)  # validate
        self._expected[region] = crc & 0xFFFFFFFF

    def expected_regions(self):
        return sorted(self._expected)

    def start(self) -> None:
        if self.enabled:
            return
        self.enabled = True
        self._process = self.sim.process(
            self._scrub_loop(), name=f"{self.name}.loop", daemon=True
        )

    def stop(self) -> None:
        self.enabled = False

    def scrub_region_once(self, region: str):
        """One synchronous pass over a region (process generator).

        Yields simulation time for the read-back and returns the
        :class:`ScrubResult`.  Used by the firmware for the post-transfer
        validity check of Table I.
        """
        if region not in self._expected:
            raise KeyError(f"no expected CRC loaded for region {region!r}")
        return self._scrub_one(region)

    def pass_time_ns(self, region: str) -> float:
        """Predicted duration of one pass at the current clock."""
        frames = self.memory.layout.region_frame_count(region)
        cycles = frames * (FRAME_WORDS + self.FRAME_OVERHEAD_CYCLES)
        return self.clock.cycles_to_ns(cycles)

    # -- internals ----------------------------------------------------------
    def _scrub_one(self, region: str):
        # The read-back goes through the configuration logic's FDRO path
        # (one pad frame per read command, then real frames), gated on the
        # ICAP being idle.  Frames are read in batches to bound the DES
        # event count; each batch costs read-back cycles at this clock.
        layout = self.memory.layout
        first_index, frame_count = layout.region_span(region)
        pass_started_ns = self.sim.now
        batch = 32
        read = 0
        words_read = 0
        chunks = []
        while read < frame_count:
            if self.busy_gate is not None and self.busy_gate.value:
                yield self.busy_gate.wait_for(False)
            chunk = min(batch, frame_count - read)
            yield self.clock.wait_cycles(
                chunk * (FRAME_WORDS + self.FRAME_OVERHEAD_CYCLES)
            )
            raw = self.readback.read_frames_packed(first_index + read, chunk)
            chunks.append(raw[FRAME_BYTES:])  # strip the FDRO pad frame
            words_read += chunk * FRAME_WORDS
            read += chunk
        computed = crc32c_packed(chunks)
        result = ScrubResult(
            region=region,
            computed=computed,
            expected=self._expected[region],
            at_ns=self.sim.now,
        )
        self.last_result = result
        counts = self.counts
        counts.scrubs_run += 1
        counts.words_read += words_read
        self._m_pass_us.observe((self.sim.now - pass_started_ns) / 1e3)
        if not result.ok:
            counts.mismatches += 1
            self.error_irq.assert_()
            if self.on_mismatch is not None:
                self.on_mismatch(result)
        self.pass_done.set(True)
        self.pass_done.set(False)
        return result

    def _scrub_loop(self):
        while self.enabled:
            regions = self.expected_regions()
            if not regions:
                yield self.clock.wait_cycles(1000)
                continue
            for region in regions:
                if not self.enabled:
                    return
                yield from self._scrub_one(region)
