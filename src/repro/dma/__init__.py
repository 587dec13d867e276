"""AXI DMA engine (MM2S path in direct register and scatter-gather modes)."""

from .descriptors import SgDescriptor, write_descriptor_chain
from .engine import AxiDmaEngine, S2mmDmaEngine
from .lite_frontend import DmaLiteFrontend
from .registers import (
    DMACR_IOC_IRQ_EN,
    S2MM_DA,
    S2MM_DMACR,
    S2MM_DMASR,
    S2MM_LENGTH,
    DMACR_RESET,
    DMACR_RS,
    DMASR_DMA_INT_ERR,
    DMASR_HALTED,
    DMASR_IDLE,
    DMASR_IOC_IRQ,
    MM2S_DMACR,
    MM2S_DMASR,
    MM2S_LENGTH,
    MM2S_SA,
)

__all__ = [
    "AxiDmaEngine",
    "S2mmDmaEngine",
    "SgDescriptor",
    "write_descriptor_chain",
    "S2MM_DA",
    "S2MM_DMACR",
    "S2MM_DMASR",
    "S2MM_LENGTH",
    "DmaLiteFrontend",
    "DMACR_IOC_IRQ_EN",
    "DMACR_RESET",
    "DMACR_RS",
    "DMASR_DMA_INT_ERR",
    "DMASR_HALTED",
    "DMASR_IDLE",
    "DMASR_IOC_IRQ",
    "MM2S_DMACR",
    "MM2S_DMASR",
    "MM2S_LENGTH",
    "MM2S_SA",
]
