"""What is left of the deleted snapshot layer: see :mod:`.templates`."""

__all__ = []
