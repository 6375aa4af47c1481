"""The analysis pipeline as a content-hashed stage graph.

One monolithic analysis job hides three stages with very different
sharing behavior::

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
bulky products persisted in the cache's
:class:`~repro.runtime.cache.ArtifactStore` tier — a trace artifact *is*
a :class:`~repro.trace.storage.TraceStore` directory, an EIPV artifact
is the dataset's raw arrays — and reloaded zero-copy via
``np.load(mmap_mode="r")``.

Two design rules keep the split byte-identical to the monolith:

* **Stages are self-describing, not chained by reference.**  An
  :class:`EipvSpec` embeds every parameter needed to rebuild its input
  from scratch, so a missing or quarantined upstream artifact is healed
  by an in-stage recompute — correctness never depends on the artifact
  store's contents, only speed does.
* **The final node is the unchanged ``"analysis"`` kind.**  Its key,
  result schema and cache identity are exactly the monolith's;
  :func:`repro.runtime.jobs.execute_job` merely *prefers* a staged
  dataset when one is available.  ``EIPVDataset.from_store`` is
  bit-identical to the in-memory ``build_eipvs`` (PR 4's invariant), and
  raw ``.npy`` persistence preserves every float bit, so both paths feed
  ``analyze_predictability`` the same bytes.

The artifact store travels to workers as process state: the scheduling
process installs it (:func:`artifact_context`) before forking, and
:func:`stage_setup` ships a :class:`~repro.runtime.pool.WorkerSetup` so
pre-existing warm-pool workers install it too.  A process without a
store simply computes monolithically.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path
from typing import ClassVar

import numpy as np

from repro.obs import span
from repro.runtime.cache import ArtifactStore
from repro.runtime.jobs import (
    CODE_VERSION,
    JobSpec,
    register_job_kind,
    spec_key,
)
from repro.trace.eipv import EIPVDataset, build_eipvs
from repro.trace.storage import TraceStore

#: The artifact store visible to stage executions in this process.
_ARTIFACT_STORE: ArtifactStore | None = None


def install_artifact_store(store: ArtifactStore | None) -> None:
    """Make ``store`` the process's artifact tier (``None`` disables)."""
    global _ARTIFACT_STORE
    _ARTIFACT_STORE = store


def current_artifact_store() -> ArtifactStore | None:
    """The installed artifact store, or ``None``."""
    return _ARTIFACT_STORE


def _worker_install(root: str) -> None:
    """Pool-worker setup hook: install the store by path."""
    install_artifact_store(ArtifactStore(Path(root)))


def stage_setup(store: ArtifactStore):
    """A :class:`~repro.runtime.pool.WorkerSetup` installing ``store``.

    Keyed by the store root, so warm workers that already installed this
    store skip the (already cheap) re-install.
    """
    from repro.runtime.pool import WorkerSetup

    return WorkerSetup(key=f"artifacts:{store.root}", fn=_worker_install,
                       args=(str(store.root),))


@contextlib.contextmanager
def artifact_context(store: ArtifactStore | None):
    """Install ``store`` for the duration (parent-side serial paths)."""
    previous = current_artifact_store()
    install_artifact_store(store)
    try:
        yield
    finally:
        install_artifact_store(previous)


def artifact_store_for(cache) -> ArtifactStore | None:
    """The cache's artifact tier, or ``None`` when unavailable.

    A disk-less cache (``NullCache`` or ``None``) has nowhere to put
    artifacts.  An unusable root (the cache dir is a regular file,
    permissions, a full disk) degrades to ``None`` — the store is a
    performance tier, never a correctness dependency, so the pipeline
    falls back to the monolithic path.
    """
    if cache is None or getattr(cache, "root", None) is None:
        return None
    store = cache.artifacts
    try:
        store.root.mkdir(parents=True, exist_ok=True)
    except OSError:
        return None
    return store


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

    The bulky product lives in the artifact store; this is what rides
    the result cache, so a warm run serves stage nodes as ordinary
    cache hits without touching the arrays at all.  ``source`` records
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
    """The monolith's simulate+sample calls, verbatim (byte-identity)."""
    from repro.trace.sampler import collect_trace
    from repro.uarch.machine import get_machine
    from repro.workloads.registry import get_workload
    from repro.workloads.scale import get_scale
    from repro.workloads.system import SimulatedSystem

    machine = get_machine(spec.machine)
    workload = get_workload(spec.workload, get_scale(spec.scale))
    system = SimulatedSystem(machine, workload, seed=spec.seed)
    return collect_trace(system, spec.total_instructions)


def put_trace(store: ArtifactStore, key: str, trace) -> None:
    """Publish a trace artifact (a :class:`TraceStore` directory)."""
    with store.put("trace", key, {"n_samples": len(trace)}) as staging:
        TraceStore.from_trace(trace, staging)


def open_trace(store: ArtifactStore | None, key: str) -> TraceStore | None:
    """The trace artifact as an open store, or ``None`` (quarantining)."""
    if store is None:
        return None
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


def execute_collect(spec: CollectSpec, jobs: int = 1) -> StageResult:
    """Simulate and persist one trace (idempotent on a warm store);
    ``jobs`` is unused."""
    store = current_artifact_store()
    start = time.perf_counter()
    with span("stage.collect", workload=spec.workload,
              seed=spec.seed) as stage_span:
        source, n_samples = "computed", 0
        meta = (store.open_meta("trace", spec.key)
                if store is not None and store.has("trace", spec.key)
                else None)
        if meta is not None:
            source, n_samples = "artifact", int(meta.get("n_samples", 0))
        else:
            trace = _simulate(spec)
            n_samples = len(trace)
            if store is not None:
                _publish(put_trace, store, spec.key, trace)
        stage_span.inc("samples", n_samples)
    snapshot = stage_span.snapshot()
    return StageResult(
        key=spec.key, source=source, n_samples=n_samples,
        timings={"collect_s": time.perf_counter() - start},
        spans=(snapshot,) if snapshot is not None else (),
    )


def put_eipv(store: ArtifactStore, key: str, dataset: EIPVDataset) -> None:
    """Publish an EIPV artifact (raw arrays, dense or CSR-native)."""
    meta = {
        "interval_instructions": int(dataset.interval_instructions),
        "workload_name": dataset.workload_name,
        "sparse": bool(dataset.is_sparse),
        "shape": [int(dim) for dim in dataset.matrix.shape],
        "n_intervals": int(dataset.n_intervals),
        "n_eips": int(dataset.n_eips),
    }
    with store.put("eipv", key, meta) as staging:
        np.save(staging / "cpis.npy", dataset.cpis)
        np.save(staging / "eip_index.npy", dataset.eip_index)
        np.save(staging / "thread_ids.npy", dataset.thread_ids)
        if dataset.is_sparse:
            np.save(staging / "matrix_indptr.npy", dataset.matrix.indptr)
            np.save(staging / "matrix_indices.npy", dataset.matrix.indices)
            np.save(staging / "matrix_data.npy", dataset.matrix.data)
        else:
            np.save(staging / "matrix.npy", dataset.matrix)


def load_eipv_dataset(store: ArtifactStore | None,
                      key: str) -> EIPVDataset | None:
    """Reconstruct an EIPV dataset zero-copy from its artifact.

    Every array is a read-only memmap view over the stored ``.npy``
    bytes — identical bits to the arrays that were saved, which is why
    an analysis over a loaded dataset equals one over a fresh build.
    The dataset's content token is pre-registered with the fold runner,
    so a parallel CV can publish it into a ``SharedArena`` straight from
    the mapped buffer without re-hashing it first (effective for CSR
    matrices; dense ndarrays don't support the weakref registration and
    fall back to hashing, producing the same token bits).
    """
    from repro.runtime.folds import register_dataset_token
    from repro.sparse import CSRMatrix

    if store is None:
        return None
    meta = store.open_meta("eipv", key)
    if meta is None:
        return None

    def arrays(*names):
        views = []
        for name in names:
            view = store.load_array("eipv", key, name)
            if view is None:
                return None
            views.append(np.asarray(view))
        return views

    try:
        base = arrays("cpis", "eip_index", "thread_ids")
        if base is None:
            return None
        cpis, eip_index, thread_ids = base
        if meta.get("sparse"):
            parts = arrays("matrix_indptr", "matrix_indices", "matrix_data")
            if parts is None:
                return None
            matrix = CSRMatrix(indptr=parts[0], indices=parts[1],
                               data=parts[2],
                               shape=tuple(meta["shape"]))
        else:
            dense = arrays("matrix")
            if dense is None:
                return None
            matrix = dense[0]
        dataset = EIPVDataset(
            matrix=matrix, cpis=cpis, eip_index=eip_index,
            interval_instructions=int(meta["interval_instructions"]),
            workload_name=str(meta.get("workload_name", "")),
            thread_ids=thread_ids)
    except (ValueError, KeyError, TypeError):
        store.quarantine("eipv", key)
        return None
    register_dataset_token(dataset.matrix, dataset.cpis, key[:16])
    return dataset


def execute_eipv(spec: EipvSpec, jobs: int = 1) -> StageResult:
    """Build and persist one EIPV dataset, healing a lost trace;
    ``jobs`` is unused."""
    store = current_artifact_store()
    start = time.perf_counter()
    with span("stage.eipv", workload=spec.workload,
              interval=spec.interval_instructions) as stage_span:
        source = "computed"
        summary = (store.open_meta("eipv", spec.key)
                   if store is not None and store.has("eipv", spec.key)
                   else None)
        if summary is not None:
            source = "artifact"
            n_intervals = int(summary.get("n_intervals", 0))
            n_eips = int(summary.get("n_eips", 0))
        else:
            collect = spec.collect_spec()
            dataset = None
            trace_store = open_trace(store, collect.key)
            if trace_store is not None:
                try:
                    dataset = EIPVDataset.from_store(
                        trace_store,
                        interval_instructions=spec.interval_instructions,
                        sparse=spec.sparse)
                except (OSError, ValueError, EOFError):
                    # Torn column file: quarantine the trace artifact and
                    # heal by recomputing it below.
                    store.quarantine("trace", collect.key)
                    dataset = None
            if dataset is None:
                trace = _simulate(collect)
                if store is not None:
                    _publish(put_trace, store, collect.key, trace)
                dataset = build_eipvs(trace, spec.interval_instructions,
                                      sparse=spec.sparse)
            dataset.workload_name = spec.workload
            if store is not None:
                _publish(put_eipv, store, spec.key, dataset)
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

def analysis_graph(specs, cache=None, artifacts: ArtifactStore | None = None):
    """A :class:`~repro.runtime.graph.JobGraph` for the given analyses.

    With a usable artifact store, every *uncached* final spec gets its
    collect and EIPV stage nodes as dependencies; specs sharing a trace
    or dataset share the stage node (``JobGraph.add`` dedups by key), so
    a sweep's DAG collapses into a shared-prefix forest.  Final specs
    already present in ``cache`` are added dep-less — the scheduler's
    probe serves them, and a stale entry merely recomputes
    monolithically.  Without an artifact store the graph degenerates to
    the classic one node per analysis.
    """
    from repro.runtime.graph import JobGraph

    graph = JobGraph()
    probe = getattr(cache, "contains", None)
    for spec in specs:
        if artifacts is None or (probe is not None and probe(spec.key)):
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
    result cache served, ``StageResult.source`` for artifact reuse —
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
