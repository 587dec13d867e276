"""Copy-on-write system snapshots.

A :class:`SystemSnapshot` freezes the *provisioning* state of a
:class:`~repro.core.PdrSystem` — everything that exists before simulated
time starts moving: the configuration identity, the fabric's frame
content, the DRAM pages holding staged bitstreams, the staging cursor,
the instance bitstream cache and the scrubber's golden CRCs.  All of it
is plain data (bytes, ints, tuples), so a snapshot is immutable and
shareable.

``PdrSystem.fork(snapshot)`` rebuilds a live system from a snapshot:
the constructor still wires the device graph (processes, signals and
metrics are live objects and cannot be frozen), but the fork inherits
every built artifact — no ASP re-encode, no bitstream re-build, no DRAM
re-staging.  Because capture is restricted to untimed state (simulated
time zero, no events processed), a forked system replays a workload
**byte-identically** to a fresh-built one: the timed sequence starts
from the exact same inputs either way.  Campaign runners exploit this
via :mod:`repro.snapshot.templates`: one template system per content
identity, forked per point.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields
from typing import Any, Dict, Optional, Tuple

__all__ = ["SnapshotError", "SystemSnapshot"]


class SnapshotError(RuntimeError):
    """Capture or restore violated the snapshot contract."""


def _config_items(config) -> Tuple[Tuple[str, Any], ...]:
    """A ``PdrSystemConfig`` as sorted plain ``(field, value)`` pairs."""
    return tuple(
        (f.name, getattr(config, f.name))
        for f in sorted(dataclass_fields(config), key=lambda f: f.name)
    )


@dataclass(frozen=True)
class SystemSnapshot:
    """Immutable provisioning state of one system.

    Build with :meth:`capture`; consume with
    :meth:`repro.core.PdrSystem.fork` (which calls :meth:`restore_into`
    on the freshly constructed system).
    """

    #: Sorted ``(field, value)`` pairs of the ``PdrSystemConfig``.
    config: Tuple[Tuple[str, Any], ...]
    #: ``ConfigMemory.capture_state()`` result, or ``None`` for a blank
    #: fabric (the common template case — restoring a no-op is skipped).
    memory_state: Optional[tuple]
    #: ``DramDevice.capture_state()`` result, or ``None`` when empty.
    dram_state: Optional[tuple]
    #: Next free staging address.
    staging_cursor: int
    #: Instance bitstream cache: ``(cache_key, Bitstream)`` pairs.  The
    #: Bitstream objects are read-only by contract (mutations go through
    #: ``Bitstream.corrupted``, which copies), so sharing them across
    #: forks is safe.
    bitstreams: Tuple[Tuple[tuple, Any], ...]
    #: Staged DRAM addresses, keyed by position in :attr:`bitstreams`.
    staged: Tuple[Tuple[int, int], ...]
    #: Scrubber golden CRCs: ``(region, crc)`` pairs.  Region
    #: reconfiguration counts need no field: they derive from the frame
    #: generations in :attr:`memory_state`.
    expected_crcs: Tuple[Tuple[str, int], ...]

    @classmethod
    def capture(cls, system) -> "SystemSnapshot":
        """Freeze ``system``'s provisioning state.

        Only an *untimed* system can be captured: building and staging
        bitstreams are bench provisioning (no simulation events), and
        restricting capture to that phase is what makes a fork's timed
        run byte-identical to a fresh system's.
        """
        if system.sim.now != 0 or system.sim.events_processed != 0:
            raise SnapshotError(
                "snapshots capture untimed provisioning state only; this "
                f"system already ran (now={system.sim.now}, "
                f"events={system.sim.events_processed})"
            )
        memory_state = system.memory.capture_state()
        slab, generations, writes = memory_state
        if writes == 0 and not any(generations) and slab.count(0) == len(slab):
            memory_state = None
        dram_state = system.dram.capture_state()
        if not dram_state[0] and not dram_state[1]:
            dram_state = None
        bitstreams = tuple(system._bitstream_cache.items())
        staged = tuple(
            (position, system._staged_addrs[id(bitstream)])
            for position, (_key, bitstream) in enumerate(bitstreams)
            if id(bitstream) in system._staged_addrs
        )
        return cls(
            config=_config_items(system.config),
            memory_state=memory_state,
            dram_state=dram_state,
            staging_cursor=system._staging_cursor,
            bitstreams=bitstreams,
            staged=staged,
            expected_crcs=tuple(
                sorted(system.scrubber._expected.items())
            ),
        )

    def config_mapping(self) -> Dict[str, Any]:
        """The captured config as a keyword mapping."""
        return dict(self.config)

    def restore_into(self, system) -> None:
        """Load this snapshot's state into a freshly constructed system.

        ``system`` must have been built from :meth:`config_mapping` (the
        fork path does this) and not yet run.
        """
        if _config_items(system.config) != self.config:
            raise SnapshotError(
                "fork target was constructed with a different config "
                "than the snapshot captured"
            )
        if system.sim.now != 0 or system.sim.events_processed != 0:
            raise SnapshotError("fork target already ran")
        if self.memory_state is not None:
            system.memory.restore_state(self.memory_state)
        if self.dram_state is not None:
            system.dram.restore_state(self.dram_state)
        system._staging_cursor = self.staging_cursor
        system._bitstream_cache = dict(self.bitstreams)
        staged_addrs = {}
        for position, addr in self.staged:
            _key, bitstream = self.bitstreams[position]
            staged_addrs[id(bitstream)] = addr
        system._staged_addrs = staged_addrs
        for region, crc in self.expected_crcs:
            system.scrubber.set_expected_crc(region, crc)
