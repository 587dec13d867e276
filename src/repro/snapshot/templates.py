"""Worker-local template registry: one system build per content identity.

Campaign runners (sweeps, fuzz, soak) construct thousands of systems
whose configurations repeat — a 48-point sweep over frequency and
temperature uses a handful of distinct ``PdrSystemConfig`` values.  This
module keeps one pristine :class:`~repro.snapshot.state.SystemSnapshot`
per configuration identity and hands out forks, so layout construction
and (for point templates) bitstream building and DRAM staging happen
once per identity instead of once per point.

Identity is the same content address the executor already uses for
result caching: :func:`repro.exec.spec.canonical_json` of the plain
config mapping (plus region and workload descriptor for point
templates).  The registry is plain module state, so each worker process
in a parallel campaign grows its own — no cross-process sharing, no
locks, and deterministic behaviour per worker.

The whole layer is a pure accelerator: forked and fresh-built systems
replay workloads byte-identically (enforced by tests and CI), and the
``REPRO_SNAPSHOTS`` environment variable turns it off globally for
differential runs.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Mapping, Optional, Tuple

from ..exec.spec import canonical_json
from ..obs import TELEMETRY_BOOK
from .state import SystemSnapshot

__all__ = [
    "snapshots_enabled",
    "template_key",
    "template_snapshot",
    "fork_system",
    "point_template_snapshot",
    "fork_point_system",
    "reset_templates",
    "template_count",
]

_ENV_SWITCH = "REPRO_SNAPSHOTS"

#: Worker-local registries.  Keys are canonical-JSON identity strings.
_TEMPLATES: Dict[str, SystemSnapshot] = {}


def snapshots_enabled() -> bool:
    """Template forking is on unless ``REPRO_SNAPSHOTS`` disables it."""
    value = os.environ.get(_ENV_SWITCH, "1").strip().lower()
    return value not in ("0", "off", "no", "false")


def _config_mapping(config) -> Dict[str, Any]:
    """Normalise ``None`` / mapping / ``PdrSystemConfig`` to a dict."""
    if config is None:
        return {}
    if isinstance(config, Mapping):
        return dict(config)
    from ..core.pdr_system import PdrSystemConfig

    if isinstance(config, PdrSystemConfig):
        from dataclasses import asdict

        return asdict(config)
    raise TypeError(f"unsupported config type: {type(config).__name__}")


def _build_system(mapping: Dict[str, Any]):
    from ..core.pdr_system import PdrSystem, PdrSystemConfig

    return PdrSystem(config=PdrSystemConfig(**mapping))


def _build_template(mapping: Dict[str, Any]):
    """A system to capture a template from, kept out of the telemetry
    capture: only the systems forked from it are exported."""
    with TELEMETRY_BOOK.paused():
        return _build_system(mapping)


def template_key(config, extra: Optional[Dict[str, Any]] = None) -> str:
    """Content-address identity of a template (canonical JSON)."""
    payload: Dict[str, Any] = {"config": _config_mapping(config)}
    if extra:
        payload.update(extra)
    return canonical_json(payload)


def template_snapshot(config=None) -> SystemSnapshot:
    """The pristine template snapshot for ``config`` (built on first use)."""
    key = template_key(config)
    snapshot = _TEMPLATES.get(key)
    if snapshot is None:
        snapshot = SystemSnapshot.capture(_build_template(_config_mapping(config)))
        _TEMPLATES[key] = snapshot
    return snapshot


def fork_system(config=None):
    """A live system for ``config``: template fork when enabled, else fresh.

    Only default timing/power systems go through templates — callers
    that pass custom models must build directly.
    """
    from ..core.pdr_system import PdrSystem

    if not snapshots_enabled():
        return _build_system(_config_mapping(config))
    return PdrSystem.fork(template_snapshot(config))


def point_template_snapshot(
    region: str, workload: Tuple[str, tuple], config=None
) -> SystemSnapshot:
    """Template with ``workload``'s bitstream already built and staged.

    ``workload`` is an ASP descriptor ``(kind, params)`` as produced by
    :func:`repro.experiments.points.asp_descriptor`.  Building and
    staging are untimed provisioning, so the capture stays fork-safe —
    the forked point skips straight to the timed reconfiguration.
    """
    kind, params = workload
    key = template_key(
        config, {"region": region, "workload": [kind, list(params)]}
    )
    snapshot = _TEMPLATES.get(key)
    if snapshot is None:
        from ..fabric.asp import instantiate_asp

        system = _build_template(_config_mapping(config))
        asp = instantiate_asp(kind, list(params))
        bitstream = system.make_bitstream(region, asp)
        system.stage_bitstream(bitstream)
        snapshot = SystemSnapshot.capture(system)
        _TEMPLATES[key] = snapshot
    return snapshot


def fork_point_system(region: str, workload: Tuple[str, tuple], config=None):
    """A live system with ``workload`` pre-staged for ``region``."""
    from ..core.pdr_system import PdrSystem

    if not snapshots_enabled():
        return _build_system(_config_mapping(config))
    return PdrSystem.fork(point_template_snapshot(region, workload, config))


def reset_templates() -> None:
    """Drop all cached templates (tests and differential harnesses)."""
    _TEMPLATES.clear()


def template_count() -> int:
    """How many templates this worker has built (telemetry/tests)."""
    return len(_TEMPLATES)
