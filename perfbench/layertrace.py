"""Host-time attribution per simulator layer, measured from outside.

The tracer wraps the public functions and methods of every loaded
``repro`` module, and every generator a kernel process runs, in spans.
It changes no code under ``src/``: wrappers are installed by rebinding
module and class attributes, and removed again by restoring them.

* A span's label is the layer that owns the code it times.  Layers are
  named after the packages under ``src/repro`` (``sim``, ``dram``,
  ``axi``, ...).  ``clocking``, ``thermal``, ``power``, ``timing``,
  ``ps`` and the remaining small packages share ``other``.  The fleet
  package is split into ``fleet.plan`` (workload + scheduler),
  ``fleet.exec`` (the per-board executors) and ``fleet.replay`` (the
  drivers, replay and report).  ``harness`` is the benchmark's own
  per-op code.
* Device models do their work inside kernel processes.  The wrapped
  ``Simulator.process`` hands the kernel a proxy generator that times
  every resume and charges it to the layer that defined the generator.
* A call into the layer that is already running records no span (it
  would not move time between layers); it is only counted.  This keeps
  per-word and per-frame helpers from inflating the layer they sit in.
* Spans are kept in compact arrays and folded when the run ends; the
  benchmark writes the folded sites to its output record.  A layer's
  self time is its span time minus the time its child spans cover.
"""

from __future__ import annotations

import enum
import functools
import inspect
import sys
import types
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["HARNESS", "LABELS", "LayerTracer", "SpanLog", "label_of_module"]

HARNESS = "harness"

#: Packages under ``src/repro`` that are layers of their own.
_OWN_LAYER = (
    "sim",
    "dram",
    "axi",
    "dma",
    "icap",
    "core",
    "bitstream",
    "fabric",
    "crccheck",
    "snapshot",
    "exec",
    "obs",
    "resilience",
    "chaos",
)
_FLEET_MODULES = {
    "repro.fleet.workload": "fleet.plan",
    "repro.fleet.scheduler": "fleet.plan",
}
#: Functions charged to a label other than their module's.
_FUNCTION_LABELS = {
    ("repro.fleet.service", "board_point"): "fleet.exec",
    ("repro.fleet.health", "chaos_board_point"): "fleet.exec",
}

LABELS: Tuple[str, ...] = _OWN_LAYER + (
    "fleet.plan",
    "fleet.exec",
    "fleet.replay",
    "other",
    HARNESS,
)


def label_of_module(module: str) -> str:
    """The layer label of a ``repro`` module name."""
    if module in _FLEET_MODULES:
        return _FLEET_MODULES[module]
    parts = module.split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return "other"
    if parts[1] == "fleet":
        return "fleet.replay"
    return parts[1] if parts[1] in _OWN_LAYER else "other"


def _label_of_file(path: str) -> str:
    marker = "/repro/"
    at = path.replace("\\", "/").rfind(marker)
    if at < 0:
        return "other"
    parts = path[at + len(marker):].replace("\\", "/").split("/")
    parts[-1] = parts[-1].rsplit(".", 1)[0]
    return label_of_module(".".join(["repro"] + parts))


class SpanLog:
    """Spans as parallel arrays: site id, parent index, start, end.

    A *site* is one wrapped function, or the code of one process
    generator; ``sites[i]`` is ``(label, name)`` and ``calls[i]`` counts
    its calls, spanned or not.
    """

    def __init__(self) -> None:
        self.sites: List[Tuple[str, str]] = []
        self.site_label: List[int] = []
        self.calls: List[int] = []
        self._site_ids: Dict[Tuple[str, str], int] = {}
        self._label_ids: Dict[str, int] = {label: i for i, label in enumerate(LABELS)}
        self.site = array("I")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        #: Open span indices, and the label id of each (``-1`` = none).
        self.stack: List[int] = [-1]
        self.labels: List[int] = [-1]
        self.timed = self._make_timed()

    def clear(self) -> None:
        """Drop every span and count, in place (wrappers hold the arrays)."""
        del self.site[:], self.parent[:], self.start[:], self.end[:]
        self.stack[:] = [-1]
        self.labels[:] = [-1]
        self.calls[:] = [0] * len(self.calls)

    def site_id(self, label: str, name: str) -> int:
        key = (label, name)
        sid = self._site_ids.get(key)
        if sid is None:
            sid = self._site_ids[key] = len(self.sites)
            self.sites.append(key)
            self.site_label.append(self._label_ids.setdefault(label, len(self._label_ids)))
            self.calls.append(0)
        return sid

    def __len__(self) -> int:
        return len(self.start)

    def _make_timed(self):
        """``timed(site, fn, args, kwargs)``: call ``fn`` inside a span."""
        site_label, calls = self.site_label, self.calls
        stack, labels = self.stack, self.labels
        site_append, parent_append = self.site.append, self.parent.append
        start_append, end_append = self.start.append, self.end.append
        starts, ends = self.start, self.end

        def timed(site, fn, args, kwargs):
            calls[site] += 1
            label = site_label[site]
            if labels[-1] == label:
                return fn(*args, **kwargs)
            index = len(starts)
            site_append(site)
            parent_append(stack[-1])
            end_append(0.0)
            stack.append(index)
            labels.append(label)
            start_append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
                labels.pop()

        return timed

    @contextmanager
    def span(self, label: str, name: str):
        """Record one span around the ``with`` body (harness code)."""
        site = self.site_id(label, name)
        self.calls[site] += 1
        index = len(self.start)
        self.site.append(site)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(index)
        self.labels.append(self.site_label[site])
        self.start.append(perf_counter())
        try:
            yield
        finally:
            self.end[index] = perf_counter()
            self.stack.pop()
            self.labels.pop()

    def fold(self) -> List[Tuple[str, str, int, float]]:
        """``(label, name, calls, self seconds)`` per site."""
        self_s = [0.0] * len(self.sites)
        site, parent, start, end = self.site, self.parent, self.start, self.end
        for index in range(len(start)):
            duration = end[index] - start[index]
            self_s[site[index]] += duration
            up = parent[index]
            if up >= 0:
                self_s[site[up]] -= duration
        return [
            (label, name, self.calls[sid], self_s[sid])
            for sid, (label, name) in enumerate(self.sites)
        ]


#: Decorator applied to a function before its span wrapper.
Probe = Callable[[Callable], Callable]


class LayerTracer:
    """Installs span wrappers over the loaded ``repro`` modules.

    ``probes`` maps a qualified site name (``"module.Class.method"`` or
    ``"module.function"``) to a decorator for that function.  It is
    applied inside the span, so its cost is charged to the layer it
    observes.  Probes count what call counts cannot (bytes, outcomes).
    Use the tracer as a context manager around the traced work; it can
    be installed and removed repeatedly.
    """

    def __init__(self, log: SpanLog, probes: Optional[Dict[str, Probe]] = None):
        self.log = log
        self.probes = dict(probes or {})
        self._patches: Optional[List[Tuple[object, str, object, object]]] = None
        self._installed = False
        self._file_labels: Dict[str, str] = {}
        self._proxy = self._proxy_class()

    # -- wrappers ------------------------------------------------------------
    def _span_wrapper(self, fn, site: int):
        timed = self.log.timed

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return timed(site, fn, args, kwargs)

        return wrapper

    def _proxy_class(self):
        timed = self.log.timed
        no_kwargs: Dict[str, object] = {}

        class TimedGenerator:
            """Generator proxy timing every resume as one span."""

            __slots__ = ("_gen", "_site", "__name__")

            def __init__(self, gen, site):
                self._gen = gen
                self._site = site
                self.__name__ = gen.__name__

            def __iter__(self):
                return self

            def __next__(self):
                return timed(self._site, self._gen.send, (None,), no_kwargs)

            def send(self, value):
                return timed(self._site, self._gen.send, (value,), no_kwargs)

            def throw(self, *exc):
                return timed(self._site, self._gen.throw, exc, no_kwargs)

            def close(self):
                return self._gen.close()

        return TimedGenerator

    def _generator_site(self, gen) -> int:
        code = gen.gi_code
        label = self._file_labels.get(code.co_filename)
        if label is None:
            label = self._file_labels[code.co_filename] = _label_of_file(
                code.co_filename
            )
        return self.log.site_id(label, f"process:{code.co_qualname}")

    def _generator_wrapper(self, fn):
        """A generator function whose generators time their resumes."""
        proxy, site_of = self._proxy, self._generator_site

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            return proxy(gen, site_of(gen))

        return wrapper

    def _process_wrapper(self, fn, site: int):
        """``Simulator.process``: proxy the generator, keep its name."""
        proxy, site_of = self._proxy, self._generator_site
        generator_type = types.GeneratorType

        def process(sim, generator, name="", daemon=False):
            if type(generator) is generator_type:
                name = name or generator.__name__
                generator = proxy(generator, site_of(generator))
            return fn(sim, generator, name, daemon)

        return self._span_wrapper(process, site)

    # -- installation ------------------------------------------------------------
    def _wrap(self, module: str, qualname: str, fn, label: str):
        name = f"{module}.{qualname}"
        site = self.log.site_id(label, name)
        if qualname == "Simulator.process":
            return self._process_wrapper(fn, site)
        if fn.__code__.co_flags & inspect.CO_GENERATOR:
            return self._generator_wrapper(fn)
        probe = self.probes.get(name)
        return self._span_wrapper(probe(fn) if probe else fn, site)

    def _class_patches(self, module: str, cls, label: str):
        if (
            issubclass(cls, (BaseException, enum.Enum))
            or getattr(cls, "_is_protocol", False)
        ):
            return
        for method, raw in list(vars(cls).items()):
            if method.startswith("_") and method != "__init__":
                continue
            if method == "__init__" and module == "repro.sim.kernel":
                # Event construction is already inside the
                # Simulator.event/timeout/process spans.
                continue
            qualname = f"{cls.__name__}.{method}"
            if isinstance(raw, (staticmethod, classmethod)):
                if inspect.isfunction(raw.__func__):
                    wrapped = type(raw)(self._wrap(module, qualname, raw.__func__, label))
                    yield cls, method, raw, wrapped
            elif inspect.isfunction(raw):
                yield cls, method, raw, self._wrap(module, qualname, raw, label)

    def _build_patches(self):
        modules = [
            (name, module)
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))
        ]
        # Every module attribute bound to a function, so a rebinding
        # reaches each ``from x import f`` copy too.
        bindings: Dict[int, List[Tuple[object, str]]] = {}
        for _name, module in modules:
            for attr, value in vars(module).items():
                if inspect.isfunction(value):
                    bindings.setdefault(id(value), []).append((module, attr))
        patches: List[Tuple[object, str, object, object]] = []
        for name, module in modules:
            label = label_of_module(name)
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value):
                    if value.__module__ != name or attr.startswith("_"):
                        continue
                    fn_label = _FUNCTION_LABELS.get((name, attr), label)
                    wrapped = self._wrap(name, attr, value, fn_label)
                    for owner, owner_attr in bindings[id(value)]:
                        patches.append((owner, owner_attr, value, wrapped))
                elif inspect.isclass(value) and value.__module__ == name:
                    patches.extend(self._class_patches(name, value, label))
        return patches

    def install(self) -> None:
        if self._installed:
            return
        if self._patches is None:
            self._patches = self._build_patches()
        for owner, attr, _original, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            return
        for owner, attr, original, _wrapped in reversed(self._patches):
            setattr(owner, attr, original)
        self._installed = False

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
