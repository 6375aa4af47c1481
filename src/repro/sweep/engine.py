"""The sweep engine: shard, dispatch, persist, merge, render.

:func:`run_sweep` is the one entry point.  It expands a
:class:`~repro.sweep.space.SweepSpace` into content-hashed job specs,
lays them out in contiguous shards, and submits every incomplete shard's
points as one :class:`~repro.runtime.graph.JobGraph` wave.  Work-
stealing needs no machinery here: the scheduler's pool workers pull jobs
from a shared queue, so a worker that drains a cheap shard immediately
starts stealing the expensive one's points.

Resumability is layered, cheapest first:

* **shard partials** — a completed shard's rows live in one JSON file;
  on restart those shards are skipped without touching the scheduler.
* **the store** — an incomplete shard resubmits all its points, but
  every point that finished before the kill comes back as a cache hit
  (the scheduler stores outcomes incrementally, per job, not per wave).
* **the merge is a replay** — the merged table and report are always
  rebuilt from the partials on disk, so a resumed sweep's outputs are
  byte-identical to an uninterrupted single-process run.

Nothing in this module reads the wall clock and the report contains no
timing, so the rendered report is a pure function of (space, code
version).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.runtime import stages
from repro.runtime.cache import store_scope
from repro.runtime.graph import submit_graph
from repro.runtime.metrics import METRICS
from repro.sweep.manifest import (
    MANIFEST_NAME,
    SweepManifest,
    SweepStateError,
    load_manifest,
    read_partial,
    shard_bounds,
    write_partial,
)
from repro.sweep.space import SweepSpace
from repro.sweep.table import QUADRANT_ORDER, SweepTable, quadrant_code

#: Rows appended to the merged table per chunk (bounds merge-time RSS).
MERGE_CHUNK = 512

#: Default shard count when the caller does not choose one.
DEFAULT_SHARDS = 8

TABLE_DIR = "table"
REPORT_NAME = "report.txt"
RUNTIME_STATS_NAME = "runtime_stats.json"


class SweepError(RuntimeError):
    """A sweep that cannot produce a complete merged report."""


class SweepInterrupted(RuntimeError):
    """Raised when ``stop_after`` aborts a sweep mid-run (crash drill).

    Everything consumed before the abort is already persisted — shard
    partials for completed shards, store entries for completed points —
    so a rerun of the same sweep resumes instead of recomputing.
    """

    def __init__(self, executed: int, stop_after: int):
        super().__init__(
            f"sweep stopped after {executed} computed points "
            f"(--stop-after {stop_after}); rerun to resume")
        self.executed = executed


@dataclass(frozen=True)
class SweepOutcome:
    """What one :func:`run_sweep` call did and produced."""

    space_key: str
    n_points: int
    n_shards: int
    n_shards_resumed: int
    n_cached: int
    n_executed: int
    report: str
    sweep_dir: str
    table_path: str
    report_path: str
    manifest_path: str
    notes: tuple = ()
    #: Stage-graph counters for *this* run (see
    #: :class:`repro.runtime.stages.StageCounters`) — all zero when the
    #: sweep fully resumed.
    stage_stats: dict = field(default_factory=dict)


def run_sweep(space: SweepSpace, sweep_dir, jobs: int = 1,
              shards: int = DEFAULT_SHARDS, store=None,
              timeout: float | None = None,
              stop_after: int | None = None,
              metrics=METRICS) -> SweepOutcome:
    """Run (or resume) one sweep; returns the merged outcome.

    ``sweep_dir`` is the sweep's durable state: manifest, shard
    partials, merged table, rendered report.  A directory belongs to
    exactly one space — resuming against a different space raises
    :class:`~repro.sweep.manifest.SweepStateError`.  ``stop_after``
    aborts after that many *computed* (non-cached) points by raising
    :class:`SweepInterrupted`; it exists so tests and CI can kill a
    sweep mid-run deterministically.  ``store`` is the run's
    :class:`~repro.runtime.cache.ResultCache` (a temporary one when
    omitted).
    """
    sweep_dir = Path(sweep_dir)
    sweep_dir.mkdir(parents=True, exist_ok=True)
    specs = space.specs()
    total = len(specs)
    notes = []

    manifest = load_manifest(sweep_dir)
    if manifest is None:
        manifest = SweepManifest(space=space.canonical(),
                                 space_key=space.key, n_points=total,
                                 bounds=shard_bounds(total, shards))
        manifest.save(sweep_dir)
    else:
        if manifest.space_key != space.key:
            raise SweepStateError(
                f"sweep dir {sweep_dir} belongs to space "
                f"{manifest.space_key[:12]}…, not {space.key[:12]}…; "
                "use a fresh directory per space")
        if manifest.n_shards != max(1, min(int(shards), total or 1)):
            notes.append(
                f"resuming with the manifest's {manifest.n_shards} "
                f"shards (requested {shards}); completed partials are "
                "only valid against the layout they were written under")

    # Which shards are already done?  A valid partial settles a shard
    # without touching the scheduler at all.
    pending: list[int] = []
    for shard, (lo, hi) in enumerate(manifest.bounds):
        name = manifest.completed.get(shard, manifest.partial_name(shard))
        rows = read_partial(sweep_dir, name, shard, lo, hi)
        if rows is None:
            pending.append(shard)
        else:
            if shard not in manifest.completed:
                manifest.completed[shard] = name
            metrics.inc("sweep.shard_resumed")
    resumed = manifest.n_shards - len(pending)
    if resumed:
        manifest.save(sweep_dir)

    counters = {"cached": 0, "executed": 0, "failed": 0}
    stage_counters = stages.StageCounters()
    with store_scope(store) as scoped:
        try:
            if pending:
                _run_pending(specs, manifest, pending, sweep_dir,
                             jobs=jobs, store=scoped, timeout=timeout,
                             stop_after=stop_after, metrics=metrics,
                             counters=counters,
                             stage_counters=stage_counters)
        finally:
            # Persisted even for an interrupted run, so crash drills and
            # CI can assert on what this run reused vs. recomputed.
            # Counters only — no wall times — so the file is
            # deterministic.  A store this run made itself is not
            # described: its root is random and it is gone when the run
            # ends.
            _write_runtime_stats(sweep_dir, space, counters,
                                 stage_counters,
                                 scoped if scoped is store else None)
    if counters["failed"]:
        raise SweepError(
            f"{counters['failed']} of {total} sweep points failed; "
            "completed shards are persisted — fix the failure and rerun "
            "to resume")

    table_path, report = _merge(space, specs, manifest, sweep_dir)
    report_path = sweep_dir / REPORT_NAME
    report_path.write_text(report, encoding="utf-8")
    return SweepOutcome(
        space_key=space.key,
        n_points=total,
        n_shards=manifest.n_shards,
        n_shards_resumed=resumed,
        n_cached=counters["cached"],
        n_executed=counters["executed"],
        report=report,
        sweep_dir=str(sweep_dir),
        table_path=str(table_path),
        report_path=str(report_path),
        manifest_path=str(sweep_dir / MANIFEST_NAME),
        notes=tuple(notes),
        stage_stats=stage_counters.to_dict(),
    )


def _write_runtime_stats(sweep_dir: Path, space: SweepSpace, counters,
                         stage_counters, store) -> None:
    """Atomically record this run's reuse/recompute counters."""
    store_stats = store.stats() if store is not None else None
    stats = {
        "schema": 1,
        "space_key": space.key,
        "points": dict(counters),
        **stage_counters.to_dict(),
        "store": (None if store_stats is None else {
            "root": store_stats.root,
            "entries": store_stats.entries,
            "total_bytes": store_stats.total_bytes,
            "by_kind": store_stats.by_kind,
            "quarantined": store_stats.quarantined,
        }),
    }
    path = sweep_dir / RUNTIME_STATS_NAME
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(stats, sort_keys=True, indent=1),
                   encoding="utf-8")
    tmp.replace(path)


def _result_row(point_index: int, result) -> list:
    """One table row (``ROW_FIELDS`` order) from a job result."""
    return [
        int(point_index),
        float(result.cpi_variance),
        float(result.cpi_mean),
        float(result.re_kopt),
        float(result.re_inf),
        int(result.k_opt),
        int(result.n_intervals),
        int(result.n_eips),
        quadrant_code(result.cpi_variance, result.re_kopt),
    ]


def _run_pending(specs, manifest: SweepManifest, pending, sweep_dir,
                 *, jobs, store, timeout, stop_after, metrics, counters,
                 stage_counters) -> None:
    """Submit every incomplete shard's points as one graph.

    Points are dispatched in global point-index order across shards —
    sharding controls persistence granularity, not execution order — so
    the pool's shared queue load-balances (steals) across shards for
    free.  Each shard's partial is written the moment its last point
    succeeds, and the manifest is re-saved atomically after each one.

    The graph is *staged*: uncached points grow collect/EIPV dependency
    nodes, deduplicated across the point space, so the DAG collapses
    from one independent job per point into a shared-prefix forest
    (every interval-size variant of a cell rides one simulated trace in
    ``store``).  Stage outcomes feed ``stage_counters`` and are
    invisible to the per-point accounting — ``cached``/``executed``/
    ``failed`` and ``stop_after`` count analysis points only.
    """
    # Pending shards ascend and bounds are contiguous, so adding
    # shard-by-shard inserts nodes in global point-index order — the
    # dispatch order the determinism contract needs.
    shard_of = {}
    ordered = []
    for shard in pending:
        lo, hi = manifest.bounds[shard]
        for index in range(lo, hi):
            shard_of[specs[index].key] = (shard, index)
            ordered.append(specs[index])
    graph = stages.analysis_graph(ordered, store=store)

    rows_by_shard: dict[int, dict[int, list]] = {s: {} for s in pending}
    failed_shards: set[int] = set()

    def consume(outcome) -> None:
        if stage_counters.observe(outcome):
            return
        shard, index = shard_of[outcome.key]
        if outcome.cache_hit:
            counters["cached"] += 1
            metrics.inc("sweep.point_cached")
        elif outcome.ok:
            counters["executed"] += 1
            metrics.inc("sweep.point_executed")
        if not outcome.ok:
            counters["failed"] += 1
            failed_shards.add(shard)
            metrics.inc("sweep.point_failed")
        else:
            rows_by_shard[shard][index] = _result_row(index, outcome.result)
            lo, hi = manifest.bounds[shard]
            done = rows_by_shard[shard]
            if len(done) == hi - lo and shard not in failed_shards:
                rows = [done[i] for i in range(lo, hi)]
                manifest.completed[shard] = write_partial(
                    sweep_dir, shard, lo, hi, rows)
                manifest.save(sweep_dir)
                rows_by_shard[shard] = {}
                metrics.inc("sweep.shard_completed")
        if stop_after is not None and counters["executed"] >= stop_after:
            raise SweepInterrupted(counters["executed"], stop_after)

    submit_graph(graph, jobs=jobs, store=store, timeout=timeout,
                 metrics=metrics, on_outcome=consume)


def _merge(space: SweepSpace, specs, manifest: SweepManifest,
           sweep_dir: Path):
    """Replay the partials into the merged table; render the report.

    Always rebuilt from disk — never from in-memory results — so a
    resumed, sharded, or parallel sweep merges the exact same bytes a
    serial uninterrupted one does.  One shard's rows are in memory at a
    time; the table streams to disk in :data:`MERGE_CHUNK` chunks and
    the report aggregates over the table's memmapped columns.
    """
    table_root = sweep_dir / TABLE_DIR
    header = table_root / "header.json"
    if header.is_file():
        # Rebuilding: drop the stale header first so a kill mid-merge
        # can never leave a directory that *looks* finalized.
        header.unlink()
    table = SweepTable.create(table_root)
    chunk: list[list] = []

    def flush() -> None:
        if not chunk:
            return
        arr = np.asarray(chunk, dtype=np.float64)
        table.append({
            name: arr[:, i].astype(SweepTable.DTYPES[name])
            for i, name in enumerate(SweepTable.COLUMNS)
        })
        chunk.clear()

    for shard, (lo, hi) in enumerate(manifest.bounds):
        name = manifest.completed.get(shard)
        rows = read_partial(sweep_dir, name, shard, lo, hi) if name else None
        if rows is None:
            table.close()
            raise SweepError(
                f"shard {shard} has no valid partial; the sweep is "
                "incomplete — rerun to resume")
        for row in rows:
            chunk.append(row)
            if len(chunk) >= MERGE_CHUNK:
                flush()
    flush()
    table.finalize(space_key=space.key, n_points=len(specs))
    return table_root, render_sweep_report(space, specs,
                                           SweepTable.open(table_root))


def render_sweep_report(space: SweepSpace, specs,
                        table: SweepTable) -> str:
    """Deterministic text report over one merged sweep table.

    Quadrant shares overall and broken out per machine and per interval
    size, plus scalar aggregates.  No wall times, hostnames or dates:
    the bytes depend only on the space and the results.
    """
    quadrant = np.asarray(table.column("quadrant"))
    re_kopt = np.asarray(table.column("re_kopt"))
    cpi_var = np.asarray(table.column("cpi_variance"))
    k_opt = np.asarray(table.column("k_opt"))
    n = len(quadrant)

    machines = list(space.machines)
    intervals = list(space.interval_instructions)
    machine_idx = np.asarray([machines.index(s.machine) for s in specs])
    interval_idx = np.asarray(
        [intervals.index(s.interval_instructions) for s in specs])

    def quadrant_counts(mask) -> list:
        return [int(np.sum(quadrant[mask] == q))
                for q in range(len(QUADRANT_ORDER))]

    lines = [
        "sweep report",
        "============",
        f"space key     : {space.key}",
        f"points        : {n}",
        (f"axes          : {len(space.workloads)} workloads x "
         f"{len(machines)} machines x {len(intervals)} interval sizes x "
         f"{len(space.seeds)} seeds"
         + (f" (limit {space.limit})" if space.limit is not None else "")),
        f"scale         : {space.scale}  "
        f"(n_intervals={space.n_intervals}, k_max={space.k_max}, "
        f"folds={space.folds})",
        "",
        "quadrant shares",
        "---------------",
    ]
    everything = np.ones(n, dtype=bool)
    for q, count in enumerate(quadrant_counts(everything)):
        share = count / n if n else 0.0
        lines.append(f"{QUADRANT_ORDER[q].value:<6} {count:>6}  "
                     f"({share:6.1%})")
    lines += ["", "per machine", "-----------"]
    for m, machine in enumerate(machines):
        counts = quadrant_counts(machine_idx == m)
        cells = "  ".join(f"{QUADRANT_ORDER[q].value}={c}"
                          for q, c in enumerate(counts))
        lines.append(f"{machine:<10} {cells}")
    lines += ["", "per interval size", "-----------------"]
    for i, interval in enumerate(intervals):
        counts = quadrant_counts(interval_idx == i)
        cells = "  ".join(f"{QUADRANT_ORDER[q].value}={c}"
                          for q, c in enumerate(counts))
        lines.append(f"{interval:>12,} {cells}")
    lines += [
        "",
        "aggregates",
        "----------",
        f"mean RE(k_opt)     : {float(np.mean(re_kopt)):.6f}",
        f"median RE(k_opt)   : {float(np.median(re_kopt)):.6f}",
        f"mean k_opt         : {float(np.mean(k_opt)):.3f}",
        f"high-variance share: "
        f"{float(np.mean(cpi_var > 0.01)):6.1%}",
        "",
    ]
    return "\n".join(lines)
