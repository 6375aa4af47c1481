"""Lightweight counters and timers for the runtime.

A :class:`MetricsRegistry` holds named monotonic counters and named
timers (total seconds + observation count).  Counts are per process: a
pool worker's increments stay in the worker, and nothing merges them
back, so the parent's registry counts what the parent itself did
(dispatch choices, pool lifecycle, cache and store traffic, and
``job.wall_s``, the scheduler's per-job wall time).

The module-level :data:`METRICS` registry is the process default.  The
daemon's ``/v1/stats`` reads its counters and benchmark harnesses take
its :meth:`~MetricsRegistry.snapshot`; nothing renders the registry as
a table.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class MetricsRegistry:
    """Named counters and timers, mergeable across processes."""

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._timers: dict[str, list[float]] = {}  # name -> [total_s, n]

    # -- counters ---------------------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def count(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self._counters.get(name, 0)

    # -- timers -----------------------------------------------------------
    def observe(self, name: str, seconds: float) -> None:
        """Record one timed observation under ``name``."""
        entry = self._timers.setdefault(name, [0.0, 0])
        entry[0] += float(seconds)
        entry[1] += 1

    @contextmanager
    def time(self, name: str):
        """Context manager timing its body into timer ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - start)

    def total_seconds(self, name: str) -> float:
        return self._timers.get(name, [0.0, 0])[0]

    def observations(self, name: str) -> int:
        return int(self._timers.get(name, [0.0, 0])[1])

    # -- aggregation ------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-dict copy, safe to pickle across process boundaries."""
        return {
            "counters": dict(self._counters),
            "timers": {k: list(v) for k, v in self._timers.items()},
        }

    def merge(self, other: "MetricsRegistry | dict") -> None:
        """Fold another registry (or its snapshot) into this one."""
        data = other.snapshot() if isinstance(other, MetricsRegistry) \
            else other
        for name, value in data.get("counters", {}).items():
            self.inc(name, value)
        for name, (total, n) in data.get("timers", {}).items():
            entry = self._timers.setdefault(name, [0.0, 0])
            entry[0] += total
            entry[1] += n

    def reset(self) -> None:
        self._counters.clear()
        self._timers.clear()

    def render(self, title: str = "runtime metrics") -> str:
        """Summary table of all counters and timers."""
        from repro.analysis.report import format_table
        rows = []
        for name in sorted(self._counters):
            rows.append([name, self._counters[name], "", ""])
        for name in sorted(self._timers):
            total, n = self._timers[name]
            mean = total / n if n else 0.0
            rows.append([name, n, round(total, 3), round(mean, 4)])
        return format_table(["metric", "count", "total s", "mean s"],
                            rows, title=title)


#: Process-wide default registry.
METRICS = MetricsRegistry()
