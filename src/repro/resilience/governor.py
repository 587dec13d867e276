"""Frequency governor: learned quarantine of unsafe operating points.

Unlike the :class:`~repro.core.governor.ActiveFeedbackGovernor`, which
consults the timing *model* (an oracle the real firmware does not have),
this governor learns purely from observed outcomes — the honest version
of the paper's robustness story.  Every reconfiguration reports back:

* a success raises the region's learned safe-fmax estimate;
* repeated failures at one (region, frequency, temperature) operating
  point quarantine it, and future requests at or above a quarantined
  frequency are clamped below it.

Operating points are bucketed (default 5 MHz / 10 °C) so the MMCM's
quantised output frequencies and nearby temperatures share failure
history.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..obs import Counts, MetricsRegistry

__all__ = ["FrequencyGovernor"]


class FrequencyGovernor:
    """Tracks failure history and publishes per-region safe frequencies."""

    def __init__(
        self,
        quarantine_after: int = 2,
        freq_bucket_mhz: float = 5.0,
        temp_bucket_c: float = 10.0,
        clamp_step_mhz: float = 10.0,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if quarantine_after < 1:
            raise ValueError("quarantine threshold must be >= 1")
        if freq_bucket_mhz <= 0 or temp_bucket_c <= 0:
            raise ValueError("bucket sizes must be positive")
        if clamp_step_mhz <= 0:
            raise ValueError("clamp step must be positive")
        self.quarantine_after = quarantine_after
        self.freq_bucket_mhz = freq_bucket_mhz
        self.temp_bucket_c = temp_bucket_c
        self.clamp_step_mhz = clamp_step_mhz
        self.metrics = metrics
        # NB: the registry is falsy while empty (it defines __len__), so
        # these guards must test identity, not truthiness.
        fields = dict(quarantines=0, governor_clamps=0)
        self.counts = (
            metrics.counts("resilience", **fields)
            if metrics is not None
            else Counts(**fields)
        )
        #: (region, fbucket, tbucket) -> consecutive failure count.
        self._fail_streak: Dict[Tuple[str, int, int], int] = {}
        #: Quarantined operating-point buckets.
        self._quarantined: Dict[Tuple[str, int, int], List[str]] = {}
        #: region -> highest frequency ever observed to succeed.
        self._best_success: Dict[str, float] = {}
        #: (region, tbucket) -> lowest quarantined frequency.
        self._lowest_quarantined: Dict[Tuple[str, int], float] = {}
        #: Optional :class:`~repro.verify.InvariantMonitor` checking that
        #: authorise() only clamps downward and the quarantine floor is
        #: monotonically non-increasing.
        self.monitor = None

    # -- bucketing ---------------------------------------------------------------
    def _key(self, region: str, freq_mhz: float, temp_c: float) -> Tuple[str, int, int]:
        return (
            region,
            int(freq_mhz // self.freq_bucket_mhz),
            int(temp_c // self.temp_bucket_c),
        )

    # -- feedback ---------------------------------------------------------------
    def record_success(self, region: str, freq_mhz: float, temp_c: float) -> None:
        """A reconfiguration at this operating point fully succeeded."""
        self._fail_streak.pop(self._key(region, freq_mhz, temp_c), None)
        if freq_mhz > self._best_success.get(region, 0.0):
            self._best_success[region] = freq_mhz
            if self.metrics is not None:
                self.metrics.gauge(f"resilience.safe_fmax_mhz.{region}").set(freq_mhz)

    def record_failure(
        self, region: str, freq_mhz: float, temp_c: float, modes: Iterable[str] = ()
    ) -> bool:
        """A reconfiguration failed; returns True if the point was newly
        quarantined by this failure."""
        key = self._key(region, freq_mhz, temp_c)
        streak = self._fail_streak.get(key, 0) + 1
        self._fail_streak[key] = streak
        if streak < self.quarantine_after or key in self._quarantined:
            return False
        self._quarantined[key] = sorted(set(modes))
        self.counts.quarantines += 1
        low_key = (region, key[2])
        lowest = self._lowest_quarantined.get(low_key)
        if lowest is None or freq_mhz < lowest:
            self._lowest_quarantined[low_key] = freq_mhz
        if self.monitor is not None:
            self.monitor.on_governor_quarantine(
                self, region, key[2], self._lowest_quarantined[low_key]
            )
        return True

    # -- queries -----------------------------------------------------------------
    def is_quarantined(self, region: str, freq_mhz: float, temp_c: float) -> bool:
        return self._key(region, freq_mhz, temp_c) in self._quarantined

    def quarantined_points(self) -> List[Tuple[str, int, int]]:
        return sorted(self._quarantined)

    def safe_fmax_mhz(self, region: str) -> Optional[float]:
        """Published estimate: the highest frequency seen to succeed."""
        return self._best_success.get(region)

    def authorise(self, region: str, freq_mhz: float, temp_c: float) -> float:
        """Clamp a request below quarantined territory.

        Requests at or above the lowest quarantined frequency for this
        (region, temperature) come back clamped: to the region's learned
        safe fmax when one is known, otherwise one clamp step below the
        quarantine line.  Everything else passes through untouched.
        """
        if freq_mhz <= 0:
            raise ValueError("requested frequency must be positive")
        low_key = (region, int(temp_c // self.temp_bucket_c))
        lowest = self._lowest_quarantined.get(low_key)
        if lowest is None or freq_mhz < lowest:
            if self.monitor is not None:
                self.monitor.on_governor_authorise(
                    self, region, freq_mhz, temp_c, freq_mhz
                )
            return freq_mhz
        best = self._best_success.get(region)
        if best is not None and best < lowest:
            clamped = best
        else:
            clamped = lowest - self.clamp_step_mhz
        clamped = max(clamped, self.clamp_step_mhz)
        if clamped < freq_mhz:
            self.counts.governor_clamps += 1
        granted = min(freq_mhz, clamped)
        if self.monitor is not None:
            self.monitor.on_governor_authorise(self, region, freq_mhz, temp_c, granted)
        return granted
