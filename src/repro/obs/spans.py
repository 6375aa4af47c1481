"""Hierarchical tracing spans for the analysis pipeline.

A span measures one pipeline stage: wall time, named counters, string
attributes, and child spans for the stages it contains.  Code under
measurement only ever calls :func:`span`::

    with span("cv.fold", fold=str(i)) as sp:
        ...
        sp.inc("points", len(held_out))

Tracing is **off by default** and zero-overhead when off: :func:`span`
then returns a shared no-op singleton — no allocation, no timestamps, no
bookkeeping — so instrumented code costs one module-global check per
stage entry.  :func:`enable_tracing` (or the :func:`capture` context
manager) installs a :class:`Tracer` that records real spans.

Span trees serialize to plain JSON-safe dicts (:meth:`Span.snapshot`)
so a pool worker can ship its tracer's forest back beside each job's
result (:func:`repro.runtime.scheduler._worker_execute`); the parent's
tracer :meth:`Tracer.graft`\\ s them in, which is how a ``--jobs N`` run
ends up with the same merged span structure as a serial one.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class NullSpan:
    """The do-nothing span returned while tracing is disabled."""

    __slots__ = ()
    enabled = False

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def inc(self, name: str, amount: int = 1) -> "NullSpan":
        return self

    def set(self, **attrs) -> "NullSpan":
        return self

    def snapshot(self) -> None:
        return None


#: The shared no-op instance; identity-comparable in tests.
NULL_SPAN = NullSpan()


class Span:
    """One recorded stage: name, wall time, counters, attrs, children."""

    __slots__ = ("name", "attrs", "counters", "children", "wall_s",
                 "_tracer", "_start")
    enabled = True

    def __init__(self, name: str, tracer: "Tracer",
                 attrs: dict | None = None) -> None:
        self.name = name
        self.attrs = dict(attrs) if attrs else {}
        self.counters: dict[str, float] = {}
        self.children: list[Span] = []
        self.wall_s = 0.0
        self._tracer = tracer
        self._start = 0.0

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.wall_s += time.perf_counter() - self._start
        self._tracer._pop(self)
        return False

    def inc(self, name: str, amount: int = 1) -> "Span":
        """Add ``amount`` to this span's counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + amount
        return self

    def set(self, **attrs) -> "Span":
        """Attach (JSON-safe) attributes to this span."""
        self.attrs.update(attrs)
        return self

    # -- serialization ----------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-safe copy of this span's subtree."""
        data = {"name": self.name, "wall_s": self.wall_s}
        if self.attrs:
            data["attrs"] = dict(self.attrs)
        if self.counters:
            data["counters"] = dict(self.counters)
        if self.children:
            data["children"] = [child.snapshot() for child in self.children]
        return data

    @classmethod
    def from_snapshot(cls, data: dict, tracer: "Tracer") -> "Span":
        span = cls(data["name"], tracer, data.get("attrs"))
        span.wall_s = float(data.get("wall_s", 0.0))
        span.counters = dict(data.get("counters", {}))
        span.children = [cls.from_snapshot(child, tracer)
                         for child in data.get("children", ())]
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, wall_s={self.wall_s:.6f}, "
                f"children={len(self.children)})")


class Tracer:
    """Collects a forest of spans for one run."""

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    def span(self, name: str, **attrs) -> Span:
        return Span(name, self, attrs or None)

    def _push(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        # Exits happen strictly LIFO under the context-manager protocol;
        # tolerate a foreign pop rather than corrupt the stack.
        if self._stack and self._stack[-1] is span:
            self._stack.pop()

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def graft(self, snapshots) -> None:
        """Attach serialized span trees (e.g. from a worker process)
        under the current span, or as roots when none is open."""
        for data in snapshots:
            if data is None:
                continue
            span = Span.from_snapshot(dict(data), self)
            if self._stack:
                self._stack[-1].children.append(span)
            else:
                self.roots.append(span)

    def snapshot(self) -> list[dict]:
        """JSON-safe copy of every root span tree, in record order."""
        return [root.snapshot() for root in self.roots]


#: Module tracing state: ``None`` means disabled (the common case).
_TRACER: Tracer | None = None


def span(name: str, **attrs):
    """A context manager timing one pipeline stage.

    Returns :data:`NULL_SPAN` while tracing is disabled, so instrumented
    code pays a single global check when nobody is watching.
    """
    if _TRACER is None:
        return NULL_SPAN
    return _TRACER.span(name, **attrs)


def tracing_enabled() -> bool:
    return _TRACER is not None


def current_tracer() -> Tracer | None:
    return _TRACER


def enable_tracing() -> Tracer:
    """Install (and return) a fresh process-wide tracer."""
    global _TRACER
    _TRACER = Tracer()
    return _TRACER


def disable_tracing() -> None:
    global _TRACER
    _TRACER = None


def graft(snapshots) -> None:
    """Graft serialized span trees into the active tracer (no-op when
    tracing is disabled)."""
    if _TRACER is not None:
        _TRACER.graft(snapshots)


def snapshot_roots() -> list[dict]:
    """The active tracer's serialized forest ([] when disabled)."""
    return _TRACER.snapshot() if _TRACER is not None else []


@contextmanager
def capture():
    """Trace the body into a fresh tracer, then restore the prior state.

    Yields the :class:`Tracer`; used by :func:`repro.api.profile` so a
    profiling call never leaks tracing into the caller's process state.
    """
    global _TRACER
    previous = _TRACER
    tracer = Tracer()
    _TRACER = tracer
    try:
        yield tracer
    finally:
        _TRACER = previous
