"""DDR3 SDRAM device model.

Models the Zynq PS DDR3 (32-bit DDR3-1066): a peak data rate of
~4 264 MB/s, the bank/row geometry, per-bank open-row state, and a
sparse backing byte store.  Command latencies live in the controller's
:class:`~repro.dram.bank.BankTiming`; the device classifies each burst
(hit / miss / conflict) and moves the data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = ["DdrTiming", "DramDevice"]


@dataclass(frozen=True)
class DdrTiming:
    """DDR data rate and bank/row geometry."""

    #: Peak data rate in bytes/ns (32-bit DDR3-1066 = 4.264 GB/s).
    peak_bytes_per_ns: float = 4.264
    #: Bytes per DRAM row (page size x device width).
    row_bytes: int = 8192
    #: Number of banks (rows stay open per bank).
    banks: int = 8


class DramDevice:
    """Bank/row state + a backing byte store.

    The device is passive: :class:`~repro.dram.bank.BankDramController`
    drives :meth:`bank_access` for row state and the load/store methods
    for data.  Storage is sparse (dict of 4 KiB pages) because the Zynq's
    512 MB DRAM is mostly untouched in any one experiment.
    """

    _PAGE = 4096

    def __init__(self, size_bytes: int = 512 * 1024 * 1024, timing: DdrTiming = DdrTiming()):
        if size_bytes <= 0:
            raise ValueError("DRAM size must be positive")
        self.size_bytes = size_bytes
        self.timing = timing
        self._open_rows: Dict[int, int] = {}  # bank -> open row index
        self._pages: Dict[int, bytearray] = {}

    # -- bank machine -------------------------------------------------------
    def bank_access(
        self, addr: int, size: int, policy: str = "open"
    ) -> Tuple[str, int, int, Optional[int]]:
        """Classify one burst against per-bank row state (mutating it).

        Returns ``(outcome, bank, row, open_row_before)`` where outcome is
        ``"hit"`` (row already open), ``"miss"`` (bank idle — ACTIVATE
        only) or ``"conflict"`` (a different row was open — PRECHARGE then
        ACTIVATE).  Under the closed-page policy every access auto-
        precharges, so no row is ever left open and every access is a
        miss.  The bank-aware controller derives latency from the outcome
        and counts it; this method owns the bank/row state.
        """
        self._bounds(addr, size)
        row = addr // self.timing.row_bytes
        bank = row % self.timing.banks
        open_before = self._open_rows.get(bank)
        if policy == "closed":
            self._open_rows.pop(bank, None)
            return "miss", bank, row, open_before
        if open_before == row:
            return "hit", bank, row, open_before
        self._open_rows[bank] = row
        if open_before is None:
            return "miss", bank, row, open_before
        return "conflict", bank, row, open_before

    def open_row(self, bank: int) -> Optional[int]:
        """Currently open row in ``bank`` (None when precharged)."""
        return self._open_rows.get(bank)

    def transfer_ns(self, size: int) -> float:
        """Pure data time for ``size`` bytes at peak rate."""
        return size / self.timing.peak_bytes_per_ns

    # -- data -----------------------------------------------------------------
    def store(self, addr: int, data: bytes) -> None:
        self._bounds(addr, len(data))
        offset = 0
        while offset < len(data):
            page_index, page_offset = divmod(addr + offset, self._PAGE)
            chunk = min(self._PAGE - page_offset, len(data) - offset)
            page = self._pages.get(page_index)
            if page is None:
                page = self._pages[page_index] = bytearray(self._PAGE)
            page[page_offset : page_offset + chunk] = data[offset : offset + chunk]
            offset += chunk

    def load(self, addr: int, size: int) -> bytes:
        self._bounds(addr, size)
        page_index, page_offset = divmod(addr, self._PAGE)
        if page_offset + size <= self._PAGE:
            # The common case: a burst inside one page.
            page = self._pages.get(page_index)
            if page is None:
                return bytes(size)
            return bytes(page[page_offset : page_offset + size])
        out = bytearray(size)
        offset = 0
        while offset < size:
            page_index, page_offset = divmod(addr + offset, self._PAGE)
            chunk = min(self._PAGE - page_offset, size - offset)
            page = self._pages.get(page_index)
            if page is not None:
                out[offset : offset + chunk] = page[page_offset : page_offset + chunk]
            offset += chunk
        return bytes(out)

    def holds(self, addr: int, size: int) -> bool:
        """True when ``[addr, addr + size)`` lies inside the device."""
        return addr >= 0 and size >= 0 and addr + size <= self.size_bytes

    # -- internals ----------------------------------------------------------
    def _bounds(self, addr: int, size: int) -> None:
        if addr < 0 or size < 0 or addr + size > self.size_bytes:
            raise ValueError(
                f"DRAM access [{addr:#x}, +{size}) outside device "
                f"({self.size_bytes:#x} bytes)"
            )
