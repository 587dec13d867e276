"""Device configuration layout (an XC7Z020-class programmable logic part).

The layout defines how many frames the device has, how frame addresses
increment, and which frame ranges belong to each reconfigurable-partition
(RP) rectangle.  Numbers are modelled on the Zynq Z-7020's Artix-7 fabric:
101-word frames, multiple clock rows, and per-column minor counts that
depend on the column resource type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from .far import (
    _BT_MASK,
    _BT_SHIFT,
    _COL_MASK,
    _COL_SHIFT,
    _MINOR_MASK,
    _ROW_MASK,
    _ROW_SHIFT,
    _TOP_MASK,
    _TOP_SHIFT,
    BLOCK_TYPE_MAIN,
    FrameAddress,
)

__all__ = [
    "FRAME_WORDS",
    "FRAME_BYTES",
    "ColumnType",
    "DeviceLayout",
    "RegionSpec",
    "Z7020_IDCODE",
    "make_z7020_layout",
]

#: Words per configuration frame (7-series constant).
FRAME_WORDS = 101
FRAME_BYTES = FRAME_WORDS * 4

#: JTAG/config IDCODE of the XC7Z020 (CLG484 speed-agnostic).
Z7020_IDCODE = 0x03727093


class ColumnType:
    """Resource type of a major column, which sets its minor-frame count."""

    CLB = "clb"
    BRAM = "bram"
    DSP = "dsp"
    IOB = "iob"
    CLOCK = "clock"

    #: Minor frames per column by type (7-series-representative values).
    MINORS = {CLB: 36, BRAM: 28, DSP: 28, IOB: 42, CLOCK: 30}


@dataclass(frozen=True)
class RegionSpec:
    """A reconfigurable-partition rectangle: one clock row, a column span."""

    name: str
    row: int
    col_start: int
    col_end: int  # inclusive

    def __post_init__(self) -> None:
        if self.col_end < self.col_start:
            raise ValueError(f"region {self.name}: col_end < col_start")


class DeviceLayout:
    """Frame-address geometry of a device plus its RP floorplan.

    Parameters
    ----------
    rows:
        Clock rows per half (the device has a top and a bottom half).
    columns:
        Ordered list of column types shared by every row.
    regions:
        RP rectangles (name -> :class:`RegionSpec`).
    idcode:
        Device IDCODE checked by the configuration logic.
    """

    def __init__(
        self,
        rows: int,
        columns: List[str],
        regions: Dict[str, RegionSpec],
        idcode: int = Z7020_IDCODE,
    ):
        if rows < 1:
            raise ValueError("device needs at least one row")
        if not columns:
            raise ValueError("device needs at least one column")
        unknown = [c for c in columns if c not in ColumnType.MINORS]
        if unknown:
            raise ValueError(f"unknown column types: {unknown}")
        self.rows = rows
        self.columns = list(columns)
        self.idcode = idcode
        self.regions = dict(regions)
        for region in self.regions.values():
            if region.row >= rows * 2:
                raise ValueError(f"region {region.name}: row {region.row} out of range")
            if region.col_end >= len(columns):
                raise ValueError(f"region {region.name}: column span out of range")
        # Precompute the global frame index of every (top,row,col,minor=0).
        self._column_minors = [ColumnType.MINORS[c] for c in self.columns]
        self._frames_per_row = sum(self._column_minors)
        self._col_base: List[int] = []
        base = 0
        for minors in self._column_minors:
            self._col_base.append(base)
            base += minors
        self._region_frames_cache: Dict[str, List[FrameAddress]] = {}
        self._region_span_cache: Dict[str, Tuple[int, int]] = {}

    # -- geometry ----------------------------------------------------------
    @property
    def frames_per_row(self) -> int:
        return self._frames_per_row

    @property
    def total_frames(self) -> int:
        return self.frames_per_row * self.rows * 2

    def minors_of_column(self, column: int) -> int:
        return self._column_minors[column]

    # -- address <-> index -------------------------------------------------
    def far_word_index(self, word: int) -> Optional[int]:
        """Flat frame index of a 32-bit FAR word, or ``None`` if unmapped.

        Pure integer arithmetic on the packed fields (bits 26–31 are
        ignored, as :meth:`FrameAddress.decode` ignores them): the
        configuration port maps every FAR write through here, and a
        corrupted stream can carry >100 k of them per load.
        """
        if (word >> _BT_SHIFT) & _BT_MASK != BLOCK_TYPE_MAIN:
            return None
        row = (word >> _ROW_SHIFT) & _ROW_MASK
        column = (word >> _COL_SHIFT) & _COL_MASK
        minor = word & _MINOR_MASK
        if (
            row >= self.rows
            or column >= len(self._column_minors)
            or minor >= self._column_minors[column]
        ):
            return None
        return (
            ((word >> _TOP_SHIFT) & _TOP_MASK) * self.rows * self._frames_per_row
            + row * self._frames_per_row
            + self._col_base[column]
            + minor
        )

    def frame_index(self, far: FrameAddress) -> int:
        """Flat frame index of ``far`` (0 .. total_frames-1)."""
        index = self.far_word_index(far.encode())
        if index is None:
            raise ValueError(f"{far} is not a mapped frame of this device")
        return index

    def frame_address(self, index: int) -> FrameAddress:
        """Inverse of :meth:`frame_index`."""
        if not 0 <= index < self.total_frames:
            raise ValueError(f"frame index {index} out of range")
        top, rest = divmod(index, self.rows * self.frames_per_row)
        row, offset = divmod(rest, self.frames_per_row)
        for column, base in enumerate(self._col_base):
            minors = self._column_minors[column]
            if base <= offset < base + minors:
                return FrameAddress(
                    block_type=BLOCK_TYPE_MAIN,
                    top=top,
                    row=row,
                    column=column,
                    minor=offset - base,
                )
        raise AssertionError("unreachable: offset not in any column")

    def next_address(self, far: FrameAddress) -> FrameAddress:
        """Auto-increment order used by FDRI writes (raises at the end)."""
        return self.frame_address(self.frame_index(far) + 1)

    # -- regions ------------------------------------------------------------
    def region(self, name: str) -> RegionSpec:
        if name not in self.regions:
            raise KeyError(f"unknown region {name!r}; have {sorted(self.regions)}")
        return self.regions[name]

    def region_frames(self, name: str) -> List[FrameAddress]:
        """All frame addresses of a region, in FDRI auto-increment order.

        Memoised (the layout is immutable after construction and every
        system construction walks each region); treat the result as
        read-only.
        """
        frames = self._region_frames_cache.get(name)
        if frames is not None:
            return frames
        spec = self.region(name)
        top, row = divmod(spec.row, self.rows)
        frames = []
        for column in range(spec.col_start, spec.col_end + 1):
            for minor in range(self._column_minors[column]):
                frames.append(
                    FrameAddress(top=top, row=row, column=column, minor=minor)
                )
        self._region_frames_cache[name] = frames
        return frames

    def region_span(self, name: str) -> Tuple[int, int]:
        """``(first_frame_index, frame_count)`` of a region.

        Region frames are contiguous in flat index order (one clock row,
        a contiguous column span), which the byte-slab configuration
        memory paths exploit.
        """
        span = self._region_span_cache.get(name)
        if span is None:
            # Computed straight from the geometry — contiguity holds by
            # construction (one clock row, contiguous columns, cumulative
            # column bases), so no FrameAddress list needs building.
            spec = self.region(name)
            top, row = divmod(spec.row, self.rows)
            first = (
                top * self.rows * self.frames_per_row
                + row * self.frames_per_row
                + self._col_base[spec.col_start]
            )
            count = sum(
                self._column_minors[c]
                for c in range(spec.col_start, spec.col_end + 1)
            )
            span = (first, count)
            self._region_span_cache[name] = span
        return span

    def region_frame_count(self, name: str) -> int:
        spec = self.region(name)
        return sum(
            self._column_minors[c] for c in range(spec.col_start, spec.col_end + 1)
        )

    def region_bytes(self, name: str) -> int:
        return self.region_frame_count(name) * FRAME_BYTES

    def iter_regions(self) -> Iterator[Tuple[str, RegionSpec]]:
        return iter(sorted(self.regions.items()))


_Z7020_LAYOUT: DeviceLayout = None


def make_z7020_layout() -> DeviceLayout:
    """The reference floorplan used throughout the reproduction.

    Four reconfigurable partitions (RP1–RP4, paper Fig. 1), each one clock
    row tall and 36 mostly-CLB columns wide, giving 1 296+ frames
    (~0.5 MB of frame data) per partition — matching the partial-bitstream
    size implied by Table I of the paper (see DESIGN.md §2).

    Returns a shared immutable singleton: the layout is pure geometry and
    every system construction needs one, so building it per system would
    dominate cold-start time.
    """
    global _Z7020_LAYOUT
    if _Z7020_LAYOUT is not None:
        return _Z7020_LAYOUT
    # A representative column mix: mostly CLB with sprinkled BRAM/DSP, IOB
    # flanks, and a central clock column.
    columns: List[str] = []
    for i in range(80):
        if i in (0, 79):
            columns.append(ColumnType.IOB)
        elif i == 40:
            columns.append(ColumnType.CLOCK)
        elif i % 10 == 5:
            columns.append(ColumnType.BRAM)
        elif i % 10 == 8:
            columns.append(ColumnType.DSP)
        else:
            columns.append(ColumnType.CLB)

    # Each RP spans 38 contiguous columns (30 CLB + 4 BRAM + 4 DSP) in one
    # clock row: 1 304 frames = 526.8 kB of frame data, so a generated
    # partial bitstream (frames + packet overhead + NOOP padding) matches
    # the 528 760-byte workload implied by Table I.
    regions = {
        "RP1": RegionSpec("RP1", row=0, col_start=2, col_end=39),
        "RP2": RegionSpec("RP2", row=1, col_start=2, col_end=39),
        "RP3": RegionSpec("RP3", row=2, col_start=41, col_end=78),
        "RP4": RegionSpec("RP4", row=3, col_start=41, col_end=78),
    }
    _Z7020_LAYOUT = DeviceLayout(rows=2, columns=columns, regions=regions)
    return _Z7020_LAYOUT
