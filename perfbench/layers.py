"""Per-layer numbers from the launcher's spans.

A layer is a package module of ``repro``; each span name the launcher
records belongs to one.  A span's self time is its duration minus its
direct children's, so a layer's self time is the time spent in that
layer's own code and in code no span covers beneath it (for
``trace.collect`` that includes the ``uarch`` simulation).
"""

from __future__ import annotations

import json
from pathlib import Path

from harness import quantile

#: span name -> layer
LAYER_OF = {
    "workloads.build": "workloads",
    "trace.collect": "trace.collect",
    "trace.eipv": "trace.eipv",
    "core.cv": "core",
    "core.fit": "core",
    "runtime.stages.write": "runtime.stages",
    "runtime.stages.read": "runtime.stages",
    "runtime.cache.get": "runtime.cache",
    "runtime.cache.put": "runtime.cache",
    "runtime.scheduler.run": "runtime.scheduler",
    "render": "render",
    "sweep.partials": "sweep.partials",
    "serve.http": "serve.http",
    "serve.handle": "serve.handle",
    "serve.admission": "serve.admission",
}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request_id",
                 "value", "children_s")

    def __init__(self, record):
        (self.id, self.name, self.start, self.end, self.parent,
         self.request_id, self.value) = record
        self.children_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def load(path: Path) -> tuple[list[Span], dict]:
    """Spans and the runtime's counters from one launcher output file."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return [Span(record) for record in data["spans"]], \
        data["metrics"].get("counters", {})


def summarize(spans: list[Span], window: tuple[float, float] | None = None,
              client_latency_s: dict | None = None) -> dict:
    """Per-layer metrics over the spans that lie inside ``window``.

    ``client_latency_s`` maps request id -> latency the client measured
    from send; the part the daemon's ``handle`` did not account for is
    the transport time.
    """
    by_id = {s.id: s for s in spans}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None:
            parent.children_s += s.duration
    if window is not None:
        lo, hi = window
        spans = [s for s in spans if s.start >= lo and s.end <= hi]

    def named(*names):
        return [s for s in spans if s.name in names]

    def outermost(*names):
        """Spans not nested in a span of the same layer (no double count)."""
        layer = LAYER_OF[names[0]]
        out = []
        for s in named(*names):
            parent = by_id.get(s.parent)
            if parent is None or LAYER_OF[parent.name] != layer:
                out.append(s)
        return out

    def total(items) -> float:
        return sum(s.duration for s in items)

    def under_handle(s: Span) -> bool:
        parent = by_id.get(s.parent)
        while parent is not None:
            if parent.name == "serve.handle":
                return True
            parent = by_id.get(parent.parent)
        return False

    builds = outermost("workloads.build")
    collects = outermost("trace.collect")
    eipvs = outermost("trace.eipv")
    cvs = named("core.cv")
    writes = named("runtime.stages.write")
    reads = named("runtime.stages.read")
    gets = named("runtime.cache.get")
    puts = named("runtime.cache.put")
    runs = outermost("runtime.scheduler.run")
    handles = named("serve.handle")
    renders = [s for s in named("render") if under_handle(s)]
    transport = []
    for s in handles:
        latency = (client_latency_s or {}).get(s.request_id)
        if latency is not None:
            transport.append(latency - s.duration)

    self_s: dict[str, float] = {}
    for s in spans:
        layer = LAYER_OF[s.name]
        self_s[layer] = self_s.get(layer, 0.0) + s.duration - s.children_s

    return {
        "workloads.build_s": total(builds),
        "workloads.build_calls": len(builds),
        "trace.collect_s": total(collects),
        "trace.collect_calls": len(collects),
        "trace.samples": sum(s.value or 0 for s in collects),
        "trace.eipv_s": total(eipvs),
        "trace.eipv_calls": len(eipvs),
        "core.cv_s": total(cvs),
        "core.cv_calls": len(cvs),
        "core.tree_fits": len(named("core.fit")),
        "runtime.stages.artifact_write_s": total(writes),
        "runtime.stages.artifact_write_bytes":
            sum(s.value or 0 for s in writes),
        "runtime.stages.artifact_read_s": total(reads),
        "runtime.cache.get_s": total(gets),
        "runtime.cache.get_calls": len(gets),
        "runtime.cache.hit_ratio":
            sum(s.value or 0 for s in gets) / len(gets) if gets else 0.0,
        "runtime.cache.put_s": total(puts),
        "runtime.cache.put_calls": len(puts),
        "runtime.scheduler.run_s": total(runs),
        "runtime.scheduler.jobs": sum(s.value or 0 for s in runs),
        "serve.requests_traced": len(handles),
        "serve.handle_ms_p50": 1e3 * quantile(
            [s.duration for s in handles], 0.5),
        "serve.handle_ms_p99": 1e3 * quantile(
            [s.duration for s in handles], 0.99),
        "serve.transport_ms_p50": 1e3 * quantile(transport, 0.5),
        "serve.admission_wait_ms_p90": 1e3 * quantile(
            [s.duration for s in named("serve.admission")], 0.9),
        "serve.admission_calls": len(named("serve.admission")),
        "serve.render_ms_p50": 1e3 * quantile(
            [s.duration for s in renders], 0.5),
        "serve.render_calls": len(renders),
        "sweep.partials_s": total(named("sweep.partials")),
        "sweep.partials_calls": len(named("sweep.partials")),
        "serve_spans": len([s for s in spans
                            if s.name.startswith("serve.")]),
        "self_s": dict(sorted(self_s.items())),
    }


def largest_self_layer(summary: dict) -> str:
    """The layer with the most self time."""
    self_s = summary["self_s"]
    return max(self_s, key=self_s.get) if self_s else ""
