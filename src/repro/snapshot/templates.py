"""The two names perfbench still imports from the deleted snapshot layer.

perfbench imports :func:`fork_system` at load and :func:`template_count`
in a traced run, and its files change only with the benchmark, so the
next change to perfbench retires this module.  Nothing under ``src/``
imports it: every system is built directly.
"""

from ..core.pdr_system import PdrSystem, PdrSystemConfig

__all__ = ["fork_system", "template_count"]


def fork_system(config=None):
    """A fresh system with ``config``'s ``PdrSystemConfig`` overrides."""
    return PdrSystem(PdrSystemConfig(**(config or {})))


def template_count() -> int:
    """Templates built in this process: none, since there are none."""
    return 0
