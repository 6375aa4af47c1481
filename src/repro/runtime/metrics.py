"""Lightweight counters for the runtime.

A :class:`MetricsRegistry` holds named monotonic counters.  Counts are
per process: a pool worker's increments stay in the worker, and nothing
merges them back, so the parent's registry counts what the parent itself
did (dispatch choices, pool lifecycle, cache and store traffic, job
outcomes).

The module-level :data:`METRICS` registry is the process default.  The
daemon's ``/v1/stats`` reads its counters and benchmark harnesses take
its :meth:`~MetricsRegistry.snapshot`.
"""

from __future__ import annotations


class MetricsRegistry:
    """Named monotonic counters."""

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}

    def inc(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def count(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self._counters.get(name, 0)

    def snapshot(self) -> dict:
        """Plain-dict copy, safe to pickle across process boundaries."""
        return {"counters": dict(self._counters)}


#: Process-wide default registry.
METRICS = MetricsRegistry()
