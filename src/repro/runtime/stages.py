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
ordinary scheduler as job kinds ``"collect"`` and ``"eipv"`` (each spec
runs as ``spec.execute``), with their bulky products persisted as
one-file entries of the run's :class:`~repro.runtime.cache.ResultCache`
— a trace entry holds the nine trace columns (:func:`put_trace`), an
EIPV entry the dataset's ``cpis``, ``eip_index`` and its matrix as the
CSR triplet (:data:`MATRIX_COLUMNS`) — and reloaded zero-copy as
read-only views of the mapped file.  That entry is a stage's only
record: the scheduler's probe (``spec.stored``) reads the stage's
summary from its header.

Every run holds one store (:func:`~repro.runtime.cache.store_scope`):
the disk cache, or a temporary store removed when the scope exits.  The
store is an argument of every job (``spec.execute(jobs=...,
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
  :meth:`repro.runtime.jobs.JobSpec.execute` reads its dataset through
  :func:`eipv_dataset`, which falls back to the eipv stage's own build.
  ``build_eipvs`` is ``EIPVDataset.from_store`` over an in-memory
  trace, so a dataset streamed from the trace artifact equals one built
  from a fresh simulation, and an entry stores every column's raw bytes,
  preserving every float bit, so every path feeds
  ``analyze_predictability`` the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import ClassVar

import numpy as np

from repro.obs import span
from repro.runtime.cache import RESULT, ResultCache
from repro.runtime.jobs import CODE_VERSION, JobSpec, field_dict, spec_key
from repro.sparse import CSRMatrix
from repro.trace.eipv import EIPVDataset, build_eipvs
from repro.trace.events import TRACE_COLUMNS, TRACE_DTYPES, SampleTrace

# -- stage results ----------------------------------------------------------

@dataclass(frozen=True)
class StageResult:
    """Small summary of one stage node, never stored itself.

    The product is the stage's array entry, and this summary is read
    from that entry's header, so a warm run serves stage nodes without
    touching the arrays.  ``source`` records how the product was
    obtained — ``"computed"`` (simulated/built this time) or
    ``"artifact"`` (already stored, nothing recomputed) — which is how
    schedulers count stage reuse across worker processes.
    """

    key: str
    source: str
    n_samples: int = 0
    n_intervals: int = 0
    n_eips: int = 0


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
        data = field_dict(self)
        data["kind"] = self.kind
        return data

    @cached_property
    def key(self) -> str:
        return spec_key(self.canonical())

    def stored(self, store: ResultCache) -> StageResult | None:
        """The trace entry's summary, or ``None`` when there is none."""
        meta = (store.open_meta("trace", self.key)
                if store.has("trace", self.key) else None)
        if meta is None:
            return None
        return StageResult(key=self.key, source="artifact",
                           n_samples=int(meta.get("n_samples", 0)))

    def execute(self, jobs: int = 1, *, store: ResultCache) -> StageResult:
        """Simulate and persist the trace unless the store holds it;
        ``jobs`` is unused."""
        with span("stage.collect", workload=self.workload,
                  seed=self.seed) as stage_span:
            result = self.stored(store)
            if result is None:
                result = StageResult(key=self.key, source="computed",
                                     n_samples=len(_fresh_trace(store, self)))
            stage_span.inc("samples", result.n_samples)
        return result


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
    code_version: str = CODE_VERSION

    def collect_spec(self) -> CollectSpec:
        return CollectSpec(workload=self.workload, machine=self.machine,
                           seed=self.seed, scale=self.scale,
                           total_instructions=self.total_instructions,
                           code_version=self.code_version)

    def canonical(self) -> dict:
        data = field_dict(self)
        data["kind"] = self.kind
        return data

    @cached_property
    def key(self) -> str:
        return spec_key(self.canonical())

    def stored(self, store: ResultCache) -> StageResult | None:
        """The EIPV entry's summary, or ``None`` when there is none."""
        meta = (store.open_meta("eipv", self.key)
                if store.has("eipv", self.key) else None)
        if meta is None:
            return None
        return StageResult(key=self.key, source="artifact",
                           n_intervals=int(meta.get("n_intervals", 0)),
                           n_eips=int(meta.get("n_eips", 0)))

    def execute(self, jobs: int = 1, *, store: ResultCache) -> StageResult:
        """Build and persist the EIPV dataset unless the store holds it,
        healing a lost trace; ``jobs`` is unused."""
        with span("stage.eipv", workload=self.workload,
                  interval=self.interval_instructions) as stage_span:
            result = self.stored(store)
            if result is None:
                dataset = _build_dataset(store, self)
                result = StageResult(key=self.key, source="computed",
                                     n_intervals=int(dataset.n_intervals),
                                     n_eips=int(dataset.n_eips))
            stage_span.inc("intervals", result.n_intervals)
        return result


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
    """Publish a trace artifact: the nine trace columns, its header
    fields in ``meta``."""
    meta = {"n_samples": len(trace), "processes": list(trace.processes),
            "sample_period": trace.sample_period,
            "frequency_mhz": trace.frequency_mhz,
            "workload_name": trace.workload_name,
            "metadata": trace.metadata}
    store.publish("trace", key, meta, arrays={
        name: np.asarray(trace.column(name), dtype=TRACE_DTYPES[name])
        for name in TRACE_COLUMNS})


def open_trace(store: ResultCache, key: str) -> SampleTrace | None:
    """The trace artifact over read-only views, or ``None``
    (quarantining a damaged one)."""
    loaded = store.load_arrays("trace", key)
    if loaded is None:
        return None
    meta, views = loaded
    try:
        return SampleTrace(
            **{name: views[name] for name in TRACE_COLUMNS},
            processes=tuple(meta["processes"]),
            sample_period=int(meta["sample_period"]),
            frequency_mhz=int(meta["frequency_mhz"]),
            workload_name=str(meta["workload_name"]),
            metadata=dict(meta["metadata"]))
    except (KeyError, TypeError, ValueError):
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
    """``spec``'s trace in writable memory, copied from its artifact; a
    missing or damaged artifact is simulated and published, as the
    collect stage does."""
    trace = open_trace(store, spec.key)
    if trace is not None:
        return replace(trace, **{name: np.array(trace.column(name))
                                 for name in TRACE_COLUMNS})
    with span("stage.collect", workload=spec.workload, seed=spec.seed):
        return _fresh_trace(store, spec)


#: Column names of a stored CSR matrix (an EIPV or fold entry), whose
#: ``meta`` carries its ``shape``.
MATRIX_COLUMNS = ("matrix_indptr", "matrix_indices", "matrix_data")


def save_matrix(matrix: CSRMatrix) -> dict:
    """The columns an entry stores ``matrix`` as."""
    return dict(zip(MATRIX_COLUMNS,
                    (matrix.indptr, matrix.indices, matrix.data)))


def load_matrix(views: dict, meta: dict) -> CSRMatrix:
    """The matrix :func:`save_matrix` stored, over its entry's views
    (validated like any caller's arrays)."""
    return CSRMatrix(*(views[name] for name in MATRIX_COLUMNS),
                     shape=tuple(meta["shape"]))


def put_eipv(store: ResultCache, key: str, dataset: EIPVDataset) -> None:
    """Publish an EIPV artifact: ``cpis``, ``eip_index`` and the CSR
    matrix.

    An entry holds a merged (all-thread) dataset, the only kind the
    eipv stage builds, so it stores no ``thread_ids``: every interval's
    is -1, which :class:`EIPVDataset` fills in on load.
    """
    meta = {
        "interval_instructions": int(dataset.interval_instructions),
        "workload_name": dataset.workload_name,
        "shape": [int(dim) for dim in dataset.matrix.shape],
        "n_intervals": int(dataset.n_intervals),
        "n_eips": int(dataset.n_eips),
    }
    store.publish("eipv", key, meta, arrays={
        "cpis": dataset.cpis, "eip_index": dataset.eip_index,
        **save_matrix(dataset.matrix)})


def load_eipv_dataset(store: ResultCache, key: str) -> EIPVDataset | None:
    """Reconstruct an EIPV dataset zero-copy from its artifact.

    Every array is a read-only view of the mapped entry file —
    identical bits to the arrays that were saved, which is why an
    analysis over a loaded dataset equals one over a fresh build.
    """
    loaded = store.load_arrays("eipv", key)
    if loaded is None:
        return None
    meta, views = loaded
    try:
        return EIPVDataset(
            matrix=load_matrix(views, meta), cpis=views["cpis"],
            eip_index=views["eip_index"],
            interval_instructions=int(meta["interval_instructions"]),
            workload_name=str(meta.get("workload_name", "")))
    except (ValueError, KeyError, TypeError):
        store.quarantine("eipv", key)
        return None


def _build_dataset(store: ResultCache, spec: EipvSpec) -> EIPVDataset:
    """The eipv stage's build: stream the dataset from the trace
    artifact, healing a missing or torn one by simulating it again, then
    publish both."""
    collect = spec.collect_spec()
    dataset = None
    trace = open_trace(store, collect.key)
    if trace is not None:
        try:
            dataset = EIPVDataset.from_store(
                trace, interval_instructions=spec.interval_instructions)
        except ValueError:
            # A stored trace the build refuses: quarantine it and heal
            # by recomputing it below.
            store.quarantine("trace", collect.key)
    if dataset is None:
        dataset = build_eipvs(_fresh_trace(store, collect),
                              spec.interval_instructions)
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


# -- graph assembly ---------------------------------------------------------

def analysis_graph(specs, store: ResultCache | None = None):
    """A :class:`~repro.runtime.graph.JobGraph` for the given analyses.

    Every *uncached* final spec gets its collect and EIPV stage nodes as
    dependencies; specs sharing a trace or dataset share the stage node
    (``JobGraph.add`` dedups by key), so a sweep's DAG collapses into a
    shared-prefix forest.  Final specs whose result is already in
    ``store`` are added dep-less — the scheduler's probe serves them,
    and a stale entry merely heals through the eipv stage's build
    inside the job.  A stage node whose entry ``store`` holds is served
    by the same probe.
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
    the outcomes that travel back — ``StageResult.source``, which reads
    ``"artifact"`` whether the scheduler's probe or the stage itself
    found the entry — never from process-local metrics.
    """

    collect_computed: int = 0
    collect_artifact_hits: int = 0
    eipv_computed: int = 0
    eipv_artifact_hits: int = 0
    failed: int = 0

    def observe(self, outcome) -> bool:
        """Tally a stage outcome; ``False`` if it was not a stage node."""
        kind = type(outcome.spec).kind
        if kind not in ("collect", "eipv"):
            return False
        if not outcome.ok:
            self.failed += 1
        elif outcome.result.source == "artifact":
            if kind == "collect":
                self.collect_artifact_hits += 1
            else:
                self.eipv_artifact_hits += 1
        elif kind == "collect":
            self.collect_computed += 1
        else:
            self.eipv_computed += 1
        return True

    def add(self, stats: dict) -> None:
        """Add another tally's :meth:`to_dict` to this one."""
        for name, value in stats["stages"].items():
            setattr(self, name, getattr(self, name) + value)

    def to_dict(self) -> dict:
        return {"stages": field_dict(self)}
