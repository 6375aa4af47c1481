"""The analysis pipeline as a content-hashed stage graph.

One analysis has three stages with very different sharing behavior::

    collect(workload, machine, seed, total_instructions)
        -> eipv(trace, interval_instructions)
            -> fit/cv(dataset, k_max, folds)        # the "analysis" kind

A sweep over interval sizes re-simulates the *same* execution for every
variant, and a daemon asked about several ``k`` values re-collects the
same trace each time.  This module splits the pipeline at its natural
joints: :class:`CollectSpec` and :class:`EipvSpec` are frozen,
content-hashed stage specs derived from a final :class:`JobSpec`
(:func:`collect_spec_for` / :func:`eipv_spec_for`), executed through the
ordinary scheduler as job kinds ``"collect"`` and ``"eipv"``, with their
bulky products persisted as entries of the run's
:class:`~repro.runtime.cache.ResultCache` — a trace entry *is* a
:class:`~repro.trace.storage.TraceStore` directory, an EIPV entry holds
the dataset's raw arrays — and reloaded zero-copy via
``np.load(mmap_mode="r")``.

Every run holds one store (:func:`~repro.runtime.cache.store_scope`):
the disk cache, or a temporary store removed when the scope exits.  The
store is an argument of every job (``execute(spec, jobs=...,
store=...)``); pool workers receive its root with each job and keep
nothing after it.

Two design rules keep every path byte-identical:

* **Stages are self-describing, not chained by reference.**  An
  :class:`EipvSpec` embeds every parameter needed to rebuild its input
  from scratch, so a missing or quarantined upstream artifact is healed
  by an in-stage recompute — correctness never depends on the store's
  contents, only speed does.
* **The final node is the unchanged ``"analysis"`` kind.**  Its key and
  result schema are independent of the stages;
  :func:`repro.runtime.jobs.execute_job` reads its dataset through
  :func:`eipv_dataset`, which falls back to the eipv stage's own build.
  ``EIPVDataset.from_store`` is bit-identical to the in-memory
  ``build_eipvs`` (the out-of-core tier's invariant), and raw ``.npy``
  persistence preserves every float bit, so every path feeds
  ``analyze_predictability`` the same bytes.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path
from typing import ClassVar

import numpy as np

from repro.obs import span
from repro.runtime.cache import RESULT, ResultCache
from repro.runtime.jobs import (
    CODE_VERSION,
    JobSpec,
    register_job_kind,
    spec_key,
)
from repro.sparse import CSRMatrix, is_sparse
from repro.trace.eipv import EIPVDataset, build_eipvs
from repro.trace.events import SampleTrace
from repro.trace.storage import TraceStore

# -- stage specs ------------------------------------------------------------

@dataclass(frozen=True)
class CollectSpec:
    """Frozen identity of one simulated, sampled execution.

    Deliberately interval-blind: the trace depends only on *how many*
    instructions run, so every interval-size variant of a sweep point
    shares one collect stage (and one trace artifact).
    """

    kind: ClassVar[str] = "collect"

    workload: str
    machine: str
    seed: int
    scale: str
    total_instructions: int
    code_version: str = CODE_VERSION

    def canonical(self) -> dict:
        data = asdict(self)
        data["kind"] = self.kind
        return data

    @cached_property
    def key(self) -> str:
        return spec_key(self.canonical())

    @classmethod
    def from_dict(cls, data: dict) -> "CollectSpec":
        data = dict(data)
        data.pop("kind", None)
        return cls(**data)


@dataclass(frozen=True)
class EipvSpec:
    """Frozen identity of one EIPV dataset build.

    A flattened superset of its upstream :class:`CollectSpec` rather
    than a reference to it: the stage can rebuild the trace itself when
    the artifact is gone, which is what makes artifact loss invisible.
    """

    kind: ClassVar[str] = "eipv"

    workload: str
    machine: str
    seed: int
    scale: str
    total_instructions: int
    interval_instructions: int
    sparse: bool = False
    code_version: str = CODE_VERSION

    def collect_spec(self) -> CollectSpec:
        return CollectSpec(workload=self.workload, machine=self.machine,
                           seed=self.seed, scale=self.scale,
                           total_instructions=self.total_instructions,
                           code_version=self.code_version)

    def canonical(self) -> dict:
        data = asdict(self)
        data["kind"] = self.kind
        return data

    @cached_property
    def key(self) -> str:
        return spec_key(self.canonical())

    @classmethod
    def from_dict(cls, data: dict) -> "EipvSpec":
        data = dict(data)
        data.pop("kind", None)
        return cls(**data)


def collect_spec_for(spec: JobSpec) -> CollectSpec:
    """The collect stage a final analysis spec depends on."""
    return CollectSpec(
        workload=spec.workload, machine=spec.machine, seed=spec.seed,
        scale=spec.scale,
        total_instructions=spec.n_intervals * spec.interval_instructions,
        code_version=spec.code_version)


def eipv_spec_for(spec: JobSpec) -> EipvSpec:
    """The EIPV stage a final analysis spec depends on."""
    return EipvSpec(
        workload=spec.workload, machine=spec.machine, seed=spec.seed,
        scale=spec.scale,
        total_instructions=spec.n_intervals * spec.interval_instructions,
        interval_instructions=spec.interval_instructions,
        code_version=spec.code_version)


# -- stage results ----------------------------------------------------------

@dataclass(frozen=True)
class StageResult:
    """Small JSON summary of one stage execution.

    The bulky product is the stage's array entry; this summary is its
    result entry, so a warm run serves stage nodes as ordinary cache
    hits without touching the arrays at all.  ``source`` records
    how the product was obtained — ``"computed"`` (simulated/built this
    time) or ``"artifact"`` (already stored, nothing recomputed) — which
    is how schedulers count stage reuse across worker processes.
    """

    key: str
    source: str
    n_samples: int = 0
    n_intervals: int = 0
    n_eips: int = 0
    timings: dict = field(default_factory=dict)
    spans: tuple = ()

    def to_dict(self) -> dict:
        data = asdict(self)
        data["spans"] = [dict(s) for s in self.spans]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "StageResult":
        data = dict(data)
        data["spans"] = tuple(data.get("spans", ()))
        return cls(**data)


# -- execution --------------------------------------------------------------

def _simulate(spec: CollectSpec):
    """Simulate and sample one execution (lazy imports keep workers
    that never collect from loading the simulator)."""
    from repro.trace.sampler import collect_trace
    from repro.uarch.machine import get_machine
    from repro.workloads.registry import get_workload
    from repro.workloads.scale import get_scale
    from repro.workloads.system import SimulatedSystem

    machine = get_machine(spec.machine)
    workload = get_workload(spec.workload, get_scale(spec.scale))
    system = SimulatedSystem(machine, workload, seed=spec.seed)
    return collect_trace(system, spec.total_instructions)


def put_trace(store: ResultCache, key: str, trace) -> None:
    """Publish a trace artifact (a :class:`TraceStore` directory)."""
    with store.publish("trace", key,
                       {"n_samples": len(trace)}) as staging:
        TraceStore.from_trace(trace, staging)


def open_trace(store: ResultCache, key: str) -> TraceStore | None:
    """The trace artifact as an open store, or ``None`` (quarantining)."""
    meta = store.open_meta("trace", key)
    if meta is None:
        return None
    try:
        return TraceStore.open(store.entry_dir("trace", key))
    except (OSError, ValueError, KeyError):
        store.quarantine("trace", key)
        return None


def _publish(publisher, store, key, payload) -> None:
    """Best-effort artifact publication: a store that turns unusable
    mid-run (full disk, revoked permissions) costs the future reuse,
    never the in-flight result."""
    try:
        publisher(store, key, payload)
    except OSError:
        pass


def _fresh_trace(store: ResultCache, spec: CollectSpec) -> SampleTrace:
    """Simulate ``spec`` and publish its trace artifact."""
    trace = _simulate(spec)
    _publish(put_trace, store, spec.key, trace)
    return trace


def stored_trace(store: ResultCache, spec: CollectSpec) -> SampleTrace:
    """``spec``'s trace, materialized from its artifact; a missing or
    torn artifact is simulated and published, as the collect stage
    does."""
    trace_store = open_trace(store, spec.key)
    if trace_store is not None:
        try:
            return trace_store.as_trace()
        except (OSError, ValueError, EOFError):
            store.quarantine("trace", spec.key)
    with span("stage.collect", workload=spec.workload, seed=spec.seed):
        return _fresh_trace(store, spec)


def execute_collect(spec: CollectSpec, jobs: int = 1, *,
                    store: ResultCache) -> StageResult:
    """Simulate and persist one trace (idempotent on a warm store);
    ``jobs`` is unused."""
    start = time.perf_counter()
    with span("stage.collect", workload=spec.workload,
              seed=spec.seed) as stage_span:
        meta = (store.open_meta("trace", spec.key)
                if store.has("trace", spec.key) else None)
        if meta is not None:
            source, n_samples = "artifact", int(meta.get("n_samples", 0))
        else:
            source, n_samples = "computed", len(_fresh_trace(store, spec))
        stage_span.inc("samples", n_samples)
    snapshot = stage_span.snapshot()
    return StageResult(
        key=spec.key, source=source, n_samples=n_samples,
        timings={"collect_s": time.perf_counter() - start},
        spans=(snapshot,) if snapshot is not None else (),
    )


def save_matrix(staging: Path, matrix) -> None:
    """Write a dense or CSR matrix into an artifact's staging directory.

    The one place the matrix layout lives: ``matrix.npy``, or the
    ``matrix_indptr``/``matrix_indices``/``matrix_data`` triplet.  The
    artifact's meta must carry ``sparse`` and ``shape`` for
    :func:`load_matrix`.
    """
    if is_sparse(matrix):
        np.save(staging / "matrix_indptr.npy", matrix.indptr)
        np.save(staging / "matrix_indices.npy", matrix.indices)
        np.save(staging / "matrix_data.npy", matrix.data)
    else:
        np.save(staging / "matrix.npy", matrix)


def _load_arrays(store: ResultCache, kind: str, key: str, names):
    """Read-only memmap views of the named arrays, with the
    ``np.memmap`` subclass dropped, or ``None`` when one cannot be read
    (the store quarantines the artifact)."""
    views = []
    for name in names:
        view = store.load_array(kind, key, name)
        if view is None:
            return None
        views.append(np.asarray(view))
    return views


def load_matrix(store: ResultCache, kind: str, key: str, meta: dict):
    """The matrix :func:`save_matrix` wrote, as read-only views, or
    ``None`` when an array cannot be read."""
    sparse = meta.get("sparse")
    views = _load_arrays(store, kind, key,
                         ("matrix_indptr", "matrix_indices", "matrix_data")
                         if sparse else ("matrix",))
    if views is None:
        return None
    if sparse:
        return CSRMatrix(indptr=views[0], indices=views[1], data=views[2],
                         shape=tuple(meta["shape"]))
    return views[0]


def put_eipv(store: ResultCache, key: str, dataset: EIPVDataset) -> None:
    """Publish an EIPV artifact (raw arrays, dense or CSR-native)."""
    meta = {
        "interval_instructions": int(dataset.interval_instructions),
        "workload_name": dataset.workload_name,
        "sparse": bool(dataset.is_sparse),
        "shape": [int(dim) for dim in dataset.matrix.shape],
        "n_intervals": int(dataset.n_intervals),
        "n_eips": int(dataset.n_eips),
    }
    with store.publish("eipv", key, meta) as staging:
        np.save(staging / "cpis.npy", dataset.cpis)
        np.save(staging / "eip_index.npy", dataset.eip_index)
        np.save(staging / "thread_ids.npy", dataset.thread_ids)
        save_matrix(staging, dataset.matrix)


def load_eipv_dataset(store: ResultCache, key: str) -> EIPVDataset | None:
    """Reconstruct an EIPV dataset zero-copy from its artifact.

    Every array is a read-only memmap view over the stored ``.npy``
    bytes — identical bits to the arrays that were saved, which is why
    an analysis over a loaded dataset equals one over a fresh build.
    """
    meta = store.open_meta("eipv", key)
    if meta is None:
        return None
    try:
        base = _load_arrays(store, "eipv", key,
                            ("cpis", "eip_index", "thread_ids"))
        matrix = load_matrix(store, "eipv", key, meta) if base else None
        if matrix is None:
            return None
        cpis, eip_index, thread_ids = base
        dataset = EIPVDataset(
            matrix=matrix, cpis=cpis, eip_index=eip_index,
            interval_instructions=int(meta["interval_instructions"]),
            workload_name=str(meta.get("workload_name", "")),
            thread_ids=thread_ids)
    except (ValueError, KeyError, TypeError):
        store.quarantine("eipv", key)
        return None
    return dataset


def _build_dataset(store: ResultCache, spec: EipvSpec) -> EIPVDataset:
    """The eipv stage's build: stream the dataset from the trace
    artifact, healing a missing or torn one by simulating it again, then
    publish both."""
    collect = spec.collect_spec()
    dataset = None
    trace_store = open_trace(store, collect.key)
    if trace_store is not None:
        try:
            dataset = EIPVDataset.from_store(
                trace_store, interval_instructions=spec.interval_instructions,
                sparse=spec.sparse)
        except (OSError, ValueError, EOFError):
            # Torn column file: quarantine the trace artifact and heal
            # by recomputing it below.
            store.quarantine("trace", collect.key)
    if dataset is None:
        dataset = build_eipvs(_fresh_trace(store, collect),
                              spec.interval_instructions, sparse=spec.sparse)
    dataset.workload_name = spec.workload
    _publish(put_eipv, store, spec.key, dataset)
    return dataset


def eipv_dataset(store: ResultCache, spec: EipvSpec) -> EIPVDataset:
    """``spec``'s dataset: its artifact, or — on a miss or after a
    quarantine — the eipv stage's own build, published for next time."""
    dataset = load_eipv_dataset(store, spec.key)
    if dataset is None:
        with span("stage.eipv", workload=spec.workload,
                  interval=spec.interval_instructions):
            dataset = _build_dataset(store, spec)
    return dataset


def execute_eipv(spec: EipvSpec, jobs: int = 1, *,
                 store: ResultCache) -> StageResult:
    """Build and persist one EIPV dataset, healing a lost trace;
    ``jobs`` is unused."""
    start = time.perf_counter()
    with span("stage.eipv", workload=spec.workload,
              interval=spec.interval_instructions) as stage_span:
        summary = (store.open_meta("eipv", spec.key)
                   if store.has("eipv", spec.key) else None)
        if summary is not None:
            source = "artifact"
            n_intervals = int(summary.get("n_intervals", 0))
            n_eips = int(summary.get("n_eips", 0))
        else:
            source = "computed"
            dataset = _build_dataset(store, spec)
            n_intervals, n_eips = dataset.n_intervals, dataset.n_eips
        stage_span.inc("intervals", n_intervals)
    snapshot = stage_span.snapshot()
    return StageResult(
        key=spec.key, source=source,
        n_intervals=int(n_intervals), n_eips=int(n_eips),
        timings={"eipv_s": time.perf_counter() - start},
        spans=(snapshot,) if snapshot is not None else (),
    )


# -- graph assembly ---------------------------------------------------------

def analysis_graph(specs, store: ResultCache | None = None):
    """A :class:`~repro.runtime.graph.JobGraph` for the given analyses.

    Every *uncached* final spec gets its collect and EIPV stage nodes as
    dependencies; specs sharing a trace or dataset share the stage node
    (``JobGraph.add`` dedups by key), so a sweep's DAG collapses into a
    shared-prefix forest.  Final specs whose result is already in
    ``store`` are added dep-less — the scheduler's probe serves them,
    and a stale entry merely heals through the eipv stage's build
    inside the job.
    """
    from repro.runtime.graph import JobGraph

    graph = JobGraph()
    for spec in specs:
        if store is not None and store.has(RESULT, spec.key):
            graph.add(spec)
            continue
        collect = collect_spec_for(spec)
        eipv = eipv_spec_for(spec)
        graph.add(collect)
        graph.add(eipv, deps=(collect.key,))
        graph.add(spec, deps=(eipv.key,))
    return graph


@dataclass
class StageCounters:
    """Parent-side tally of stage outcomes (cross-process safe).

    Stage reuse happens inside worker processes, so it is counted from
    the outcomes that travel back — ``cache_hit`` for stage results the
    store served, ``StageResult.source`` for artifact reuse —
    never from process-local metrics.
    """

    stage_hits: int = 0
    stage_failed: int = 0
    collect_computed: int = 0
    collect_artifact: int = 0
    eipv_computed: int = 0
    eipv_artifact: int = 0

    def observe(self, outcome) -> bool:
        """Tally a stage outcome; ``False`` if it was not a stage node."""
        kind = type(outcome.spec).kind
        if kind not in ("collect", "eipv"):
            return False
        if not outcome.ok:
            self.stage_failed += 1
        elif outcome.cache_hit:
            self.stage_hits += 1
        elif outcome.result.source == "artifact":
            if kind == "collect":
                self.collect_artifact += 1
            else:
                self.eipv_artifact += 1
        elif kind == "collect":
            self.collect_computed += 1
        else:
            self.eipv_computed += 1
        return True

    def to_dict(self) -> dict:
        return {
            "stage_cache": {"hits": self.stage_hits,
                            "failed": self.stage_failed},
            "stages": {
                "collect_computed": self.collect_computed,
                "collect_artifact_hits": self.collect_artifact,
                "eipv_computed": self.eipv_computed,
                "eipv_artifact_hits": self.eipv_artifact,
            },
        }


register_job_kind("collect", execute=execute_collect,
                  spec_from_dict=CollectSpec.from_dict,
                  result_from_dict=StageResult.from_dict)
register_job_kind("eipv", execute=execute_eipv,
                  spec_from_dict=EipvSpec.from_dict,
                  result_from_dict=StageResult.from_dict)
