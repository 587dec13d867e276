"""Zynq PS↔PL ports.

The PL reaches PS memory through four High-Performance (HP) ports (64-bit,
150 MHz — 1 200 MB/s raw each), the ACP port (64-bit, coherent with the
CPU caches, limited working set) and two General-Purpose (GP) ports
(32-bit, control plane).  Port width/clock bound the streaming rate; the
interconnect + DDR controller behind them add the access latency.  The
combination reproduces the paper's measured memory-path bandwidth of
~816 MB/s for 1 KiB read bursts (DESIGN.md §5).
"""

from __future__ import annotations

from ..dram import MemoryRequest
from ..sim import Event, Simulator

from .interconnect import AxiInterconnect

__all__ = ["AxiHpPort", "AxiAcpPort"]


class AxiHpPort:
    """One AXI HP slave port (PL master -> PS memory)."""

    def __init__(
        self,
        sim: Simulator,
        interconnect: AxiInterconnect,
        width_bits: int = 64,
        clock_mhz: float = 150.0,
        name: str = "hp0",
    ):
        if width_bits % 8:
            raise ValueError("port width must be a whole number of bytes")
        self.sim = sim
        self.interconnect = interconnect
        self.width_bits = width_bits
        self.clock_mhz = clock_mhz
        self.name = name
        self.bytes_transferred = 0

    @property
    def raw_bandwidth_bytes_per_ns(self) -> float:
        """Width x clock: 64 bit @ 150 MHz = 1.2 bytes/ns (1 200 MB/s)."""
        return (self.width_bits / 8) * self.clock_mhz * 1e-3

    def stream_ns(self, size: int) -> float:
        return size / self.raw_bandwidth_bytes_per_ns

    def tail_ns(self, size: int) -> float:
        """Port streaming time left once the DDR has transferred ``size``
        bytes (not positive when the DDR transfer covers it all)."""
        ddr_transfer = self.interconnect.controller.device.transfer_ns(size)
        return self.stream_ns(size) - ddr_transfer

    def read(self, addr: int, size: int, done=None):
        """Read a burst through the port; ``done`` receives the data bytes.

        The port streams data to the PL while the DDR supplies it; since
        DDR peak (~4.3 GB/s) exceeds the port rate (1.2 GB/s), the data
        phase is port-limited: total = interconnect+access latency +
        max(DDR transfer, port transfer).

        ``done`` is completed like an :class:`Event`: ``succeed(data)``
        when the burst has left the port, ``fail(exc)`` on an error
        response.  A fresh event is made (and returned) if none is
        given; a master that passes its own target is called directly.
        The burst goes onto this port's crossbar lane at once, and the
        streaming left after the DDR transfer is one kernel entry.
        """
        if done is None:
            done = self.sim.event(name=f"{self.name}.read")
        request = MemoryRequest(addr=addr, size=size, master=self.name, done=done)
        self.interconnect.submit(request, self.deliver)
        return done

    def deliver(self, request: MemoryRequest) -> None:
        """A read has been served: stream what the DDR transfer did not
        cover, then :meth:`streamed` completes it."""
        extra = self.tail_ns(request.size)
        if extra > 0:
            self.sim.call_later(extra, self.streamed, request)
        else:
            self.streamed(request)

    def write(self, addr: int, data: bytes, done=None):
        """Write a burst through the port; ``done`` succeeds once the DDR
        has committed it (or fails on an error response).

        ``done`` is completed as in :meth:`read`; a fresh event is made
        (and returned) if none is given.  The data streams into the port
        first; the part of that the DDR transfer does not cover is one
        kernel entry before the burst goes onto the crossbar lane.
        """
        if done is None:
            done = self.sim.event(name=f"{self.name}.write")
        request = MemoryRequest(
            addr=addr,
            size=len(data),
            is_write=True,
            data=data,
            master=self.name,
            done=done,
        )
        extra = self.tail_ns(request.size)
        if extra > 0:
            self.sim.call_later(
                extra, self.interconnect.submit, request, self.streamed
            )
        else:
            self.interconnect.submit(request, self.streamed)
        return done

    def streamed(self, request: MemoryRequest) -> None:
        """A burst has crossed the port: count it and complete its issuer."""
        self.carried(request)
        request.complete()

    def carried(self, request: MemoryRequest) -> None:
        """Count ``request``'s bytes, which have crossed the port now."""
        self.bytes_transferred += request.size

    def carry(self, nbytes: int) -> None:
        """Count ``nbytes`` of several requests that have crossed the
        port: :meth:`carried` in bulk."""
        self.bytes_transferred += nbytes


class AxiAcpPort:
    """The Accelerator Coherency Port: cache-backed, low latency.

    The paper notes the ACP cannot move large data sets because it works
    against the 512 KB L2 cache; transfers larger than the cache are
    rejected, and hit latency is far lower than the DDR path.
    """

    CACHE_BYTES = 512 * 1024
    HIT_LATENCY_NS = 60.0

    def __init__(
        self,
        sim: Simulator,
        interconnect: AxiInterconnect,
        width_bits: int = 64,
        clock_mhz: float = 150.0,
        name: str = "acp",
    ):
        self.sim = sim
        self.interconnect = interconnect
        self.width_bits = width_bits
        self.clock_mhz = clock_mhz
        self.name = name
        self.bytes_transferred = 0

    @property
    def raw_bandwidth_bytes_per_ns(self) -> float:
        return (self.width_bits / 8) * self.clock_mhz * 1e-3

    def read(self, addr: int, size: int) -> Event:
        if size > self.CACHE_BYTES:
            raise ValueError(
                f"ACP transfer of {size} bytes exceeds the {self.CACHE_BYTES}-byte "
                f"cache working set (use an HP port for bulk data)"
            )
        done = self.sim.event(name=f"{self.name}.read")

        def transaction():
            # Cache-hit path: fixed latency + port-rate streaming; data
            # content still comes from the unified backing store.
            yield self.sim.timeout(
                self.HIT_LATENCY_NS + size / self.raw_bandwidth_bytes_per_ns
            )
            data = self.interconnect.controller.device.load(addr, size)
            self.bytes_transferred += size
            done.succeed(data)

        self.sim.process(transaction(), name=f"{self.name}.read@{addr:#x}")
        return done
