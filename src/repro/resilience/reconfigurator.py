"""The detect→recover loop around :class:`~repro.core.PdrSystem`.

The firmware detects over-clocking failures (missing completion
interrupt, read-back CRC mismatch) but, on its own, leaves the damage in
place: a timed-out transfer is abandoned and a corrupted region stays
corrupted.  :class:`ResilientReconfigurator` closes the loop:

* **IRQ timeout** (control-path hang): the firmware sequence has already
  reset the DMA engine and aborted the in-flight ICAP transfer (see
  :meth:`~repro.core.PdrSystem.abort_transfer`); the reconfigurator
  retries the whole transfer at a frequency from the policy's backoff
  ladder.
* **CRC mismatch** (data-path corruption): the golden bitstream is
  re-written — a marginal violation gets one same-frequency retry (the
  salted fault injector re-draws the corruption), then the ladder backs
  the clock off until the words land intact.
* Every outcome feeds the :class:`~repro.resilience.FrequencyGovernor`,
  which quarantines operating points after repeated failures and clamps
  later requests below them.

All recovery activity is observable: the ``resilience`` count record
and histograms live in the system's metrics registry, and each logical
reconfiguration is wrapped in a ``recover`` span (mirrored into the
system trace) so time-to-repair shows up next to the firmware phases.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..core import PdrSystem, ReconfigResult
from ..fabric import Asp
from ..obs import SpanRecorder
from ..timing import FailureMode

from .governor import FrequencyGovernor
from .policy import RecoveryPolicy

__all__ = [
    "AttemptRecord",
    "BatchRecoveryOutcome",
    "RecoveryOutcome",
    "ResilientReconfigurator",
]

#: "No padding override requested" — distinct from ``pad_to=None``,
#: which explicitly asks for a content-sized bitstream.
_UNSET = object()


@dataclass(frozen=True)
class AttemptRecord:
    """One attempt of a recovered reconfiguration (plain data)."""

    attempt: int
    requested_mhz: float
    achieved_mhz: float
    interrupt_seen: bool
    crc_valid: bool
    detected_modes: tuple
    latency_us: Optional[float]

    @property
    def succeeded(self) -> bool:
        return self.interrupt_seen and self.crc_valid


@dataclass
class RecoveryOutcome:
    """Outcome of one logical reconfiguration under recovery."""

    region: str
    requested_freq_mhz: float
    temp_c: float
    attempts: List[AttemptRecord] = field(default_factory=list)
    #: True when the final attempt fully succeeded.
    recovered: bool = False
    #: Frequency of the successful attempt (None if the budget ran out).
    final_freq_mhz: Optional[float] = None
    #: Sim-time from the first detected failure to the final success
    #: (None when the first try succeeded or nothing ever succeeded).
    recovery_latency_us: Optional[float] = None
    #: Operating points the governor newly quarantined during this loop.
    newly_quarantined: int = 0
    #: Requests clamped by the governor before the first attempt.
    governor_clamped: bool = False

    @property
    def injected_failure(self) -> bool:
        """Did the first attempt fail (i.e. was there anything to recover)?"""
        return bool(self.attempts) and not self.attempts[0].succeeded

    @property
    def attempts_used(self) -> int:
        return len(self.attempts)

    @property
    def first_failure_modes(self) -> tuple:
        if not self.injected_failure:
            return ()
        return self.attempts[0].detected_modes

    def summary(self) -> str:
        if not self.injected_failure:
            return "ok"
        if self.recovered:
            return f"rec:{self.attempts_used}@{self.final_freq_mhz:.0f}"
        return "FAIL"


@dataclass
class BatchRecoveryOutcome:
    """Outcome of one SG dispatch group executed under recovery.

    The descriptor chain runs once at the (governor-authorised) batch
    frequency; any region whose read-back CRC failed — or every region,
    when the chain's control path hung — is then re-driven through the
    normal per-region retry loop, so one corrupted transfer never
    poisons the whole group.
    """

    requested_freq_mhz: float
    #: Frequency the chain actually ran at (after governor clamping).
    freq_mhz: float
    #: Sim-time from chain start to the last recovery settling (µs).
    latency_us: float
    #: region -> final verdict after any individual recovery.
    region_ok: Dict[str, bool] = field(default_factory=dict)
    #: Per-region retry loops run for regions the batch left invalid.
    recoveries: Dict[str, "RecoveryOutcome"] = field(default_factory=dict)
    governor_clamped: bool = False
    newly_quarantined: int = 0

    @property
    def recovered(self) -> bool:
        """Did every region of the group end up valid?"""
        return bool(self.region_ok) and all(self.region_ok.values())

    @property
    def attempts_used(self) -> int:
        return len(self.region_ok) + sum(
            outcome.attempts_used for outcome in self.recoveries.values()
        )


def detect_modes(result: ReconfigResult) -> tuple:
    """Failure modes as the firmware *observes* them (no oracle).

    A missing completion interrupt reads as a control-path hang; a CRC
    mismatch as data-path corruption.  ``result.failure_modes`` (the
    timing model's ground truth) is deliberately not consulted.
    """
    modes = []
    if not result.interrupt_seen:
        modes.append(FailureMode.CONTROL_HANG)
    if not result.crc_valid:
        modes.append(FailureMode.DATA_CORRUPT)
    return tuple(modes)


class ResilientReconfigurator:
    """Retry/repair driver between the experiments and the PDR system."""

    def __init__(
        self,
        system: PdrSystem,
        policy: Optional[RecoveryPolicy] = None,
        governor: Optional[FrequencyGovernor] = None,
    ):
        self.system = system
        self.policy = policy or RecoveryPolicy()
        self.governor = governor or FrequencyGovernor(
            quarantine_after=self.policy.quarantine_after,
            metrics=system.metrics,
        )
        metrics = system.metrics
        #: ``repairs`` counts completed (re-verified) SEU repair cycles,
        #: the chaos layer's headline repair count; ``scrub_repairs``
        #: counts repair *starts* and predates it.
        self.counts = metrics.counts(
            "resilience",
            attempts=0,
            retries=0,
            backoffs=0,
            failures_detected=0,
            recoveries=0,
            giveups=0,
            scrub_repairs=0,
            repairs=0,
            seu_detected=0,
            repair_verify_failures=0,
        )
        self._m_repair_us = metrics.histogram("resilience.time_to_repair_us")
        self._m_mttr_us = metrics.histogram("resilience.mttr_us")
        sim = system.sim
        self._spans = SpanRecorder(
            now_fn=lambda: sim.now,
            tracer=system.trace,
            source="resilience",
            metrics=metrics,
            metrics_prefix="resilience.phase.",
        )
        #: region -> last ASP successfully loaded (the golden content the
        #: scrub-triggered repair path re-writes).
        self._golden: Dict[str, Asp] = {}
        #: Regions the background scrubber flagged as corrupted.
        self.pending_repairs: List[str] = []
        #: First-detection sim time of each pending region (for MTTR).
        self._detected_ns: Dict[str, float] = {}
        #: Regions taken out of service by an in-progress repair cycle.
        self.isolated_regions: Set[str] = set()
        #: Completed repair cycles, oldest first (plain-data records).
        self.repair_log: List[dict] = []
        #: Region currently being reconfigured by :meth:`reconfigure` —
        #: its own post-transfer scrub failures belong to the retry loop,
        #: not the background-repair queue.
        self._active_region: Optional[str] = None

    # -- main entry ----------------------------------------------------------
    def reconfigure(
        self, region: str, asp: Asp, freq_mhz: float, pad_to=_UNSET
    ) -> RecoveryOutcome:
        """One logical reconfiguration, retried within the policy budget.

        ``pad_to`` overrides the bitstream padding for every attempt
        (``None`` = content-sized), mirroring
        :meth:`~repro.core.PdrSystem.make_bitstream` — request-level
        workloads mix bitstream sizes on one system this way.  Left
        unset, the system's configured padding applies.
        """
        system = self.system
        policy = self.policy
        temp_c = system.die_temp_c
        authorised = self.governor.authorise(region, freq_mhz, temp_c)
        outcome = RecoveryOutcome(
            region=region,
            requested_freq_mhz=freq_mhz,
            temp_c=temp_c,
            governor_clamped=authorised < freq_mhz,
        )
        freq = authorised
        first_failure_ns: Optional[float] = None
        bitstream = (
            None if pad_to is _UNSET
            else system.make_bitstream(region, asp, pad_to=pad_to)
        )
        previous_active = self._active_region
        self._active_region = region
        try:
            return self._reconfigure_attempts(
                region, asp, freq, outcome, first_failure_ns, bitstream
            )
        finally:
            self._active_region = previous_active

    def _reconfigure_attempts(
        self, region, asp, freq, outcome, first_failure_ns, bitstream=None
    ) -> RecoveryOutcome:
        system = self.system
        policy = self.policy
        freq_mhz = outcome.requested_freq_mhz
        with self._spans.span("recover", region=region, freq_mhz=freq_mhz):
            for attempt in range(policy.max_attempts):
                self.counts.attempts += 1
                if attempt > 0:
                    self.counts.retries += 1
                result = system.reconfigure(
                    region, asp, freq, bitstream=bitstream, attempt=attempt
                )
                modes = detect_modes(result)
                outcome.attempts.append(
                    AttemptRecord(
                        attempt=attempt,
                        requested_mhz=freq,
                        achieved_mhz=result.freq_mhz,
                        interrupt_seen=result.interrupt_seen,
                        crc_valid=result.crc_valid,
                        detected_modes=modes,
                        latency_us=result.latency_us,
                    )
                )
                if result.succeeded:
                    self.governor.record_success(
                        region, result.freq_mhz, result.temp_c
                    )
                    self._golden[region] = asp
                    outcome.recovered = True
                    outcome.final_freq_mhz = result.freq_mhz
                    if first_failure_ns is not None:
                        repair_us = (system.sim.now - first_failure_ns) / 1e3
                        outcome.recovery_latency_us = repair_us
                        self.counts.recoveries += 1
                        self._m_repair_us.observe(repair_us)
                    break
                # -- failure detected -------------------------------------
                self.counts.failures_detected += 1
                if first_failure_ns is None:
                    first_failure_ns = system.sim.now
                if self.governor.record_failure(
                    region, result.freq_mhz, result.temp_c, modes
                ):
                    outcome.newly_quarantined += 1
                system.trace.emit(
                    system.sim.now,
                    "resilience",
                    f"attempt {attempt} at {result.freq_mhz:g} MHz failed "
                    f"({', '.join(modes) or 'unknown'})",
                )
                next_freq = policy.next_frequency(freq, attempt, modes)
                if next_freq < freq:
                    self.counts.backoffs += 1
                freq = next_freq
            else:
                self.counts.giveups += 1
        return outcome

    # -- batch (SG dispatch group) entry ----------------------------------------
    def reconfigure_batch(self, jobs, freq_mhz: float) -> BatchRecoveryOutcome:
        """One SG dispatch group under recovery.

        ``jobs`` is the same ``(region, asp[, pad_to])`` list
        :meth:`~repro.core.PdrSystem.reconfigure_batch` accepts (regions
        must be distinct).  The chain runs once at the lowest frequency
        the governor authorises across the group's regions; every
        region's verdict then feeds the governor exactly as an
        individual reconfiguration would, and any invalid region falls
        back to the per-region retry loop of :meth:`reconfigure`.
        """
        jobs = list(jobs)
        if not jobs:
            raise ValueError("batch needs at least one (region, asp) job")
        system = self.system
        temp_c = system.die_temp_c
        authorised = min(
            self.governor.authorise(job[0], freq_mhz, temp_c) for job in jobs
        )
        start_ns = system.sim.now
        outcome = BatchRecoveryOutcome(
            requested_freq_mhz=freq_mhz,
            freq_mhz=authorised,
            latency_us=0.0,
            governor_clamped=authorised < freq_mhz,
        )
        with self._spans.span(
            "recover_batch", jobs=len(jobs), freq_mhz=freq_mhz
        ):
            batch = system.reconfigure_batch(jobs, authorised)
            outcome.freq_mhz = batch.freq_mhz
            for job in jobs:
                region, asp = job[0], job[1]
                pad_to = job[2] if len(job) > 2 else _UNSET
                self.counts.attempts += 1
                ok = batch.control_path_ok and batch.region_valid.get(
                    region, False
                )
                if ok:
                    self.governor.record_success(
                        region, batch.freq_mhz, temp_c
                    )
                    self._golden[region] = asp
                    outcome.region_ok[region] = True
                    continue
                self.counts.failures_detected += 1
                modes = []
                if not batch.control_path_ok:
                    modes.append(FailureMode.CONTROL_HANG)
                if not batch.region_valid.get(region, False):
                    modes.append(FailureMode.DATA_CORRUPT)
                if self.governor.record_failure(
                    region, batch.freq_mhz, temp_c, tuple(modes)
                ):
                    outcome.newly_quarantined += 1
                recovery = self.reconfigure(region, asp, freq_mhz, pad_to=pad_to)
                outcome.recoveries[region] = recovery
                outcome.region_ok[region] = recovery.recovered
                outcome.newly_quarantined += recovery.newly_quarantined
        outcome.latency_us = (system.sim.now - start_ns) / 1e3
        return outcome

    # -- scrub-triggered repair -------------------------------------------------
    def attach_scrubber(self) -> None:
        """Register on the system scrubber's mismatch hook.

        Once attached, any scrub pass (including the background loop)
        that detects a corrupted region queues it here; call
        :meth:`repair_pending` to re-write the golden content.  The hook
        holds this reconfigurator weakly: it holds the system, and a
        strong link back would be a reference cycle.
        """
        owner = weakref.ref(self)

        def on_mismatch(scrub) -> None:
            reconfigurator = owner()
            if reconfigurator is not None:
                reconfigurator._on_scrub_mismatch(scrub)

        self.system.scrubber.on_mismatch = on_mismatch

    def _on_scrub_mismatch(self, scrub) -> None:
        if scrub.region == self._active_region:
            # The firmware's own post-transfer scrub of the region being
            # reconfigured right now: the retry loop already owns that
            # failure — queueing a background repair would double-treat.
            return
        if scrub.region not in self.pending_repairs:
            self.pending_repairs.append(scrub.region)
            self._detected_ns.setdefault(scrub.region, scrub.at_ns)
            self.counts.seu_detected += 1

    def repair_pending(self) -> List[RecoveryOutcome]:
        """Run the full SEU repair cycle for every scrub-flagged region.

        For each region: **isolate** it (out of service for the duration),
        **re-write** the golden bitstream, then **re-verify** with an
        explicit scrub pass before returning it to service.  Repairs run
        at the region's learned safe frequency (falling back to the
        policy floor when nothing is known yet) so the repair itself
        cannot re-trigger the failure that corrupted the region.  Each
        completed cycle appends a plain-data record (with MTTR measured
        from first detection) to :attr:`repair_log`; a failed re-verify
        leaves the region queued for the next call.
        """
        system = self.system
        queue, self.pending_repairs = self.pending_repairs, []
        outcomes = []
        for region in queue:
            asp = self._golden.get(region)
            if asp is None:
                raise KeyError(
                    f"scrubber flagged {region!r} but no golden content "
                    f"was ever loaded through this reconfigurator"
                )
            detected_ns = self._detected_ns.get(region, system.sim.now)
            freq = self.governor.safe_fmax_mhz(region) or self.policy.freq_floor_mhz
            self.counts.scrub_repairs += 1
            with self._spans.span("seu_repair", region=region):
                self.isolated_regions.add(region)
                try:
                    outcome = self.reconfigure(region, asp, freq)
                    verified = False
                    if outcome.recovered:
                        scrub = system.sim.run_until(
                            system.sim.process(
                                system.scrubber.scrub_region_once(region),
                                name=f"resilience.verify:{region}",
                            )
                        )
                        verified = scrub.ok
                finally:
                    self.isolated_regions.discard(region)
            repaired_ns = system.sim.now
            mttr_us = (repaired_ns - detected_ns) / 1e3
            self.repair_log.append(
                {
                    "region": region,
                    "detected_ns": detected_ns,
                    "repaired_ns": repaired_ns,
                    "mttr_us": mttr_us,
                    "verified": verified,
                    "attempts": outcome.attempts_used,
                }
            )
            if verified:
                self._detected_ns.pop(region, None)
                self.counts.repairs += 1
                self._m_mttr_us.observe(mttr_us)
                system.trace.emit(
                    repaired_ns,
                    "resilience",
                    f"SEU repair of {region} verified clean "
                    f"(MTTR {mttr_us:.1f} us)",
                )
            else:
                self.counts.repair_verify_failures += 1
                if region not in self.pending_repairs:
                    self.pending_repairs.append(region)
                system.trace.emit(
                    repaired_ns,
                    "resilience",
                    f"SEU repair of {region} FAILED re-verify; re-queued",
                )
            outcomes.append(outcome)
        return outcomes
