"""Repository-wide API quality gates.

* every public module, class and function carries a docstring
  (deliverable (e): doc comments on every public item);
* every name in a package's ``__all__`` actually resolves;
* subpackages expose an ``__all__`` so the public surface is explicit.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro

SUBPACKAGES = [
    "repro.sim",
    "repro.axi",
    "repro.dram",
    "repro.bitstream",
    "repro.fabric",
    "repro.icap",
    "repro.dma",
    "repro.crccheck",
    "repro.timing",
    "repro.power",
    "repro.thermal",
    "repro.clocking",
    "repro.board",
    "repro.ps",
    "repro.core",
    "repro.sram_pr",
    "repro.baselines",
    "repro.experiments",
    "repro.analysis",
    "repro.exec",
    "repro.snapshot",
    "repro.obs",
    "repro.resilience",
    "repro.verify",
    "repro.chaos",
    "repro.fleet",
]


def _iter_modules():
    for package_name in SUBPACKAGES:
        package = importlib.import_module(package_name)
        yield package
        for info in pkgutil.iter_modules(package.__path__):
            yield importlib.import_module(f"{package_name}.{info.name}")


@pytest.mark.parametrize("package_name", SUBPACKAGES)
def test_package_imports_and_declares_all(package_name):
    package = importlib.import_module(package_name)
    assert package.__doc__, f"{package_name} lacks a module docstring"
    assert hasattr(package, "__all__"), f"{package_name} lacks __all__"
    for name in package.__all__:
        assert hasattr(package, name), f"{package_name}.__all__ lists missing {name}"


def test_every_module_has_a_docstring():
    missing = [m.__name__ for m in _iter_modules() if not m.__doc__]
    assert not missing, f"modules without docstrings: {missing}"


def test_every_public_class_and_function_documented():
    undocumented = []
    for module in _iter_modules():
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # re-export: documented at its home
            if not inspect.getdoc(obj):
                undocumented.append(f"{module.__name__}.{name}")
    assert not undocumented, f"undocumented public items: {undocumented}"


def test_public_methods_documented_on_core_classes():
    """The classes a downstream user touches first must be fully doc'd."""
    from repro.core import HllFramework, PdrSystem
    from repro.sim import Simulator
    from repro.sram_pr import SramPrSystem

    for cls in (PdrSystem, HllFramework, SramPrSystem, Simulator):
        for name, member in inspect.getmembers(cls, inspect.isfunction):
            if name.startswith("_"):
                continue
            assert inspect.getdoc(member), f"{cls.__name__}.{name} undocumented"


def test_version_string():
    assert repro.__version__ == "1.0.0"
