"""Per-stage aggregation and rendering of span trees.

:func:`aggregate_spans` folds a forest of span snapshots into one
:class:`StageStats` per stage *path* ("job/analyze/cv/cv.fold"), keeping
first-visit order — so the breakdown table lists the same stages in the
same order for a serial run and a ``--jobs N`` run of the same work, no
matter how wall times wobble.  :func:`render_profile` is the text report
behind ``repro profile``: the per-stage table (calls, total/self time,
share of the run) plus the top-k slowest individual spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class StageStats:
    """Accumulated cost of every span sharing one tree path."""

    path: str
    depth: int
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counters: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.path.rsplit("/", 1)[-1]


def aggregate_spans(roots) -> list[StageStats]:
    """Fold span snapshots into per-path stats, first-visit order.

    A span's self time is its wall time minus its direct children's,
    floored at zero: children grafted from pool workers (the ``cv.fold``
    spans of a ``--jobs N`` run) ran concurrently, so their summed wall
    time can exceed the parent's.
    """
    stats: dict[str, StageStats] = {}

    def visit(node: dict, prefix: str, depth: int) -> None:
        path = f"{prefix}/{node['name']}" if prefix else node["name"]
        entry = stats.get(path)
        if entry is None:
            entry = stats[path] = StageStats(path=path, depth=depth)
        wall = float(node.get("wall_s", 0.0))
        children = node.get("children", ())
        entry.calls += 1
        entry.total_s += wall
        entry.self_s += max(0.0, wall - sum(float(c.get("wall_s", 0.0))
                                            for c in children))
        for name, amount in node.get("counters", {}).items():
            entry.counters[name] = entry.counters.get(name, 0) + amount
        for child in children:
            visit(child, path, depth + 1)

    for root in roots:
        if root:
            visit(root, "", 0)
    return list(stats.values())


def slowest_spans(roots, top: int = 5) -> list[tuple]:
    """The ``top`` individual spans by wall time, as (path, wall_s, attrs).

    Ties break on path then discovery order, keeping the listing stable
    for equal-duration spans (e.g. synthetic trees in tests).
    """
    found: list[tuple] = []

    def visit(node: dict, prefix: str, index: int) -> None:
        path = f"{prefix}/{node['name']}" if prefix else node["name"]
        found.append((float(node.get("wall_s", 0.0)), path,
                      node.get("attrs", {})))
        for i, child in enumerate(node.get("children", ())):
            visit(child, path, i)

    for i, root in enumerate(roots):
        if root:
            visit(root, "", i)
    order = sorted(range(len(found)),
                   key=lambda i: (-found[i][0], found[i][1], i))
    return [(found[i][1], found[i][0], found[i][2]) for i in order[:top]]


def _format_attrs(attrs: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))


def render_profile(roots, top: int = 5,
                   title: str = "per-stage breakdown") -> str:
    """The ``repro profile`` report for a forest of span snapshots."""
    from repro.analysis.report import format_table

    stages = aggregate_spans(roots)
    if not stages:
        return "no spans recorded (tracing was disabled or nothing ran)"
    run_total = sum(s.total_s for s in stages if s.depth == 0)
    rows = []
    for stage in stages:
        share = stage.total_s / run_total if run_total > 0 else 0.0
        rows.append(["  " * stage.depth + stage.name,
                     stage.calls,
                     f"{stage.total_s:.4f}",
                     f"{stage.self_s:.4f}",
                     f"{share:6.1%}"])
    table = format_table(["stage", "calls", "total s", "self s", "% run"],
                         rows, title=title)
    slow_rows = [[i + 1, path, f"{wall:.4f}", _format_attrs(attrs)]
                 for i, (path, wall, attrs)
                 in enumerate(slowest_spans(roots, top=top))]
    slow = format_table(["#", "span", "wall s", "attrs"], slow_rows,
                        title=f"top {len(slow_rows)} slowest spans")
    return f"{table}\n\n{slow}"
