"""Reconfigurable partitions as functional units.

:class:`RpRegion` is the runtime view of one reconfigurable partition
(RP 1–4 of the paper's Fig. 1): it reads the configuration memory and
exposes whatever ASP is currently configured as an executable object.
"""

from __future__ import annotations

from typing import List, Optional

from ..bitstream.device import DeviceLayout
from .asp import Asp, AspDecodeError, decode_asp, instantiate_asp
from .config_memory import ConfigMemory

__all__ = ["RpRegion", "RegionNotConfigured"]


class RegionNotConfigured(RuntimeError):
    """The region is blank (no ASP has ever been loaded)."""


class RpRegion:
    """One reconfigurable partition bound to the configuration memory."""

    def __init__(self, memory: ConfigMemory, name: str):
        self.memory = memory
        self.name = name
        self.layout: DeviceLayout = memory.layout
        self.layout.region(name)  # validate the name early
        # Region frames are contiguous in flat frame-index space
        # (region_span asserts it), so a range covers them without the
        # per-frame address translation.
        first, count = self.layout.region_span(name)
        self._frame_indices = range(first, first + count)
        self._cached_asp: Optional[Asp] = None
        self._cached_generation: Optional[List[int]] = None
        self._base_generation = memory.generation(first)

    # -- configuration state ----------------------------------------------
    @property
    def frame_count(self) -> int:
        return len(self._frame_indices)

    @property
    def reconfiguration_count(self) -> int:
        """How many configurations this region has held since it was built.

        Every load rewrites the region's first frame once, so this is
        that frame's generation counter (which snapshots restore) less
        its value when the region was built.
        """
        first = self._frame_indices.start
        return self.memory.generation(first) - self._base_generation

    @property
    def size_bytes(self) -> int:
        return self.layout.region_bytes(self.name)

    def is_blank(self) -> bool:
        return all(
            all(w == 0 for w in self.memory.read_frame(i))
            for i in self._frame_indices
        )

    def current_asp(self) -> Asp:
        """Decode the configured ASP (cached until the frames change).

        Raises :class:`RegionNotConfigured` for a blank region and
        :class:`~repro.fabric.asp.AspDecodeError` for corrupted content.
        """
        generations = self._generations()
        if self._cached_asp is not None and generations == self._cached_generation:
            return self._cached_asp
        frames = [self.memory.read_frame(i) for i in self._frame_indices]
        decoded = decode_asp(frames)
        if decoded is None:
            raise RegionNotConfigured(f"region {self.name} is blank")
        kind, params = decoded
        asp = instantiate_asp(kind, params)
        self._cached_asp = asp
        self._cached_generation = generations
        return asp

    def try_current_asp(self) -> Optional[Asp]:
        """Like :meth:`current_asp` but returns ``None`` instead of raising."""
        try:
            return self.current_asp()
        except (RegionNotConfigured, AspDecodeError):
            return None

    def compute(self, words: List[int]) -> List[int]:
        """Run the configured ASP on a word stream."""
        return self.current_asp().process(words)

    # -- internals ----------------------------------------------------------
    def _generations(self) -> List[int]:
        return self.memory.generation_span(
            self._frame_indices.start, len(self._frame_indices)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        asp = self.try_current_asp()
        state = asp.name if asp else "blank/invalid"
        return f"<RpRegion {self.name}: {state}>"
