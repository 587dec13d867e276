"""DDR3 DRAM device + controller models (the PS memory system).

:class:`DramDevice` holds the backing store and per-bank open-row state;
:class:`BankDramController` drives it — bank machines with an
open-/closed-page policy, a deterministic refresh engine, and a
round-robin command multiplexer over per-master queues.
"""

from .bank import (
    PAGE_POLICIES,
    REFRESH_MODES,
    BankDramController,
    BankTiming,
    MemoryRequest,
)
from .device import DdrTiming, DramDevice

__all__ = [
    "BankDramController",
    "BankTiming",
    "DdrTiming",
    "DramDevice",
    "MemoryRequest",
    "PAGE_POLICIES",
    "REFRESH_MODES",
]
