"""Pipeline observability: tracing spans, profiles, JSONL traces.

The pipeline is instrumented with hierarchical :func:`span`\\ s (simulate
-> sample -> EIPVs -> CART fit -> cross-validation); tracing is off by
default and zero-overhead when off.  Enable it to get a per-stage
breakdown (``repro profile``) and a JSONL event log (``--trace-out``);
a pool worker's span forest travels back beside its job's result and is
grafted into the parent's tracer, so one forest covers the whole run.
"""

from repro.obs.jsonl import (
    TRACE_SCHEMA_VERSION,
    read_trace,
    trace_events,
    write_trace,
)
from repro.obs.profile import (
    StageStats,
    aggregate_spans,
    render_profile,
    slowest_spans,
)
from repro.obs.spans import (
    NULL_SPAN,
    NullSpan,
    Span,
    Tracer,
    capture,
    current_tracer,
    disable_tracing,
    enable_tracing,
    graft,
    snapshot_roots,
    span,
    tracing_enabled,
)

__all__ = [
    "NULL_SPAN",
    "NullSpan",
    "Span",
    "StageStats",
    "TRACE_SCHEMA_VERSION",
    "Tracer",
    "aggregate_spans",
    "capture",
    "current_tracer",
    "disable_tracing",
    "enable_tracing",
    "graft",
    "read_trace",
    "render_profile",
    "slowest_spans",
    "snapshot_roots",
    "span",
    "trace_events",
    "tracing_enabled",
    "write_trace",
]
