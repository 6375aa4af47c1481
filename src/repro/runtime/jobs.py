"""Job specifications and their serializable results.

A :class:`JobSpec` freezes every knob that can change the outcome of one
predictability analysis — workload, run length, seed, machine, scale,
tree parameters, and the pipeline code version.  Its :attr:`JobSpec.key`
property is a content hash over the canonical JSON form, so equal inputs
always address the same cache entry and any change (including a pipeline
code bump) addresses a fresh one.  The same key is the in-flight dedup
identity everywhere a spec travels: the result cache, the run manifest,
and the daemon's request coalescer all use ``spec.key`` rather than
recomputing ad-hoc tokens.

:func:`execute_job` is the pure worker function: spec in, JSON-ready
:class:`JobResult` out.  A result round-trips through
``to_dict``/``from_dict`` without loss (JSON preserves finite floats
exactly), which is what makes warm-cache output byte-identical to a
fresh computation.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import time
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Callable, ClassVar

import numpy as np

from repro.core.config import AnalysisConfig
from repro.core.cross_validation import RECurve
from repro.core.predictability import (
    PredictabilityResult,
    analyze_predictability,
)
from repro.core.quadrant import classify_result
from repro.experiments.common import INTERVAL, RunConfig, collect_cached
from repro.obs import span
from repro.workloads.scale import get_scale

#: Bump when pipeline semantics change; part of every job's identity, so
#: stale cache entries from older code can never be served.
#: 1.1.0: the pipeline split into content-hashed stages (collect/eipv/
#: analysis) and the sweep space's interval axis now reuses one
#: execution per (workload, machine, seed) — old keys must not alias.
CODE_VERSION = "1.1.0"


@dataclass(frozen=True)
class JobKind:
    """How the scheduler runs and round-trips one kind of job.

    The scheduler is kind-agnostic: given a spec with a ``kind`` class
    attribute it looks up the execute function and the dict round-trip
    codecs here, both in this process and inside pool workers.
    ``execute(spec, jobs=...)`` receives the parallelism its own fan-out
    may use (always 1 in a pool worker).
    """

    name: str
    execute: Callable
    spec_from_dict: Callable
    result_from_dict: Callable


JOB_KINDS: dict[str, JobKind] = {}

#: Kinds whose defining module may not be imported yet (pool workers
#: receive only the kind name, so resolution must be able to import).
_LAZY_KINDS = {"cv_fold": "repro.runtime.folds",
               "collect": "repro.runtime.stages",
               "eipv": "repro.runtime.stages"}


def register_job_kind(name: str, *, execute: Callable,
                      spec_from_dict: Callable,
                      result_from_dict: Callable) -> None:
    """Register a job kind (typically at module import time)."""
    JOB_KINDS[name] = JobKind(name=name, execute=execute,
                              spec_from_dict=spec_from_dict,
                              result_from_dict=result_from_dict)


def resolve_kind(name: str) -> JobKind:
    """The registered :class:`JobKind`, importing its module if needed."""
    if name not in JOB_KINDS and name in _LAZY_KINDS:
        importlib.import_module(_LAZY_KINDS[name])
    try:
        return JOB_KINDS[name]
    except KeyError:
        raise KeyError(f"unknown job kind {name!r}") from None


@dataclass(frozen=True)
class JobSpec:
    """Frozen, content-addressable description of one analysis run."""

    kind: ClassVar[str] = "analysis"

    workload: str
    n_intervals: int = 60
    seed: int = 11
    machine: str = "itanium2"
    scale: str = "default"
    k_max: int = 50
    folds: int = 10
    min_leaf: int = 1
    interval_instructions: int = INTERVAL
    code_version: str = CODE_VERSION

    @classmethod
    def from_run_config(cls, config: RunConfig, k_max: int = 50,
                        folds: int = 10, min_leaf: int = 1) -> "JobSpec":
        return cls(workload=config.workload,
                   n_intervals=config.n_intervals,
                   seed=config.seed,
                   machine=config.machine,
                   scale=config.scale.name,
                   k_max=k_max, folds=folds, min_leaf=min_leaf,
                   interval_instructions=config.interval_instructions)

    @classmethod
    def from_configs(cls, run: RunConfig,
                     analysis: AnalysisConfig) -> "JobSpec":
        """Build a spec from the two public config objects.

        A job has one seed driving both the simulation and the fold
        partition; ``run.seed`` is canonical (matching the paper, where
        one measured run feeds one analysis).
        """
        return cls(workload=run.workload,
                   n_intervals=run.n_intervals,
                   seed=run.seed,
                   machine=run.machine,
                   scale=run.scale.name,
                   k_max=analysis.k_max, folds=analysis.folds,
                   min_leaf=analysis.min_leaf,
                   interval_instructions=run.interval_instructions)

    def to_run_config(self) -> RunConfig:
        return RunConfig(workload=self.workload,
                         n_intervals=self.n_intervals,
                         seed=self.seed,
                         machine=self.machine,
                         scale=get_scale(self.scale),
                         interval_instructions=self.interval_instructions)

    def analysis_config(self) -> AnalysisConfig:
        """The spec's analysis knobs as an :class:`AnalysisConfig`."""
        return AnalysisConfig(k_max=self.k_max, folds=self.folds,
                              seed=self.seed, min_leaf=self.min_leaf)

    def canonical(self) -> dict:
        """JSON-safe dict with a stable field set — the hashed identity."""
        return asdict(self)

    @cached_property
    def key(self) -> str:
        """Deterministic content hash (sha256 hex) of the spec.

        The one dedup identity for a spec: cache entries, run-manifest
        records and in-flight request coalescing all key on this.  Equal
        specs (dataclass equality) always share a key, and the hash is
        computed at most once per instance (``cached_property`` stores
        the digest in ``__dict__``, which frozen dataclasses permit).
        """
        return spec_key(self.canonical())

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        return cls(**data)


def spec_key(canonical: dict) -> str:
    """Content hash (sha256 hex) of one spec's canonical dict.

    Shared by every spec kind so all dedup identities are computed the
    same way: canonical JSON with sorted keys, UTF-8, SHA-256.
    """
    payload = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class JobResult:
    """The JSON-serializable outcome of one executed :class:`JobSpec`."""

    key: str
    workload: str
    re: tuple
    k_opt: int
    re_kopt: float
    re_inf: float
    total_variance: float
    n_points: int
    cpi_variance: float
    cpi_mean: float
    n_intervals: int
    n_eips: int
    timings: dict = field(default_factory=dict)
    #: Serialized span trees from the executing process (empty unless
    #: tracing was enabled there); stripped before cache storage so a
    #: cache entry's bytes never depend on observability settings.
    spans: tuple = ()

    def to_dict(self) -> dict:
        data = asdict(self)
        data["re"] = list(self.re)
        data["spans"] = [dict(s) for s in self.spans]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "JobResult":
        data = dict(data)
        data["re"] = tuple(float(v) for v in data["re"])
        data["spans"] = tuple(data.get("spans", ()))
        return cls(**data)

    def to_result(self) -> PredictabilityResult:
        """Reconstruct the rich analysis object renderers consume."""
        curve = RECurve(
            re=np.asarray(self.re, dtype=np.float64),
            k_opt=self.k_opt,
            re_kopt=self.re_kopt,
            re_inf=self.re_inf,
            total_variance=self.total_variance,
            n_points=self.n_points,
        )
        return PredictabilityResult(
            workload=self.workload,
            curve=curve,
            cpi_variance=self.cpi_variance,
            cpi_mean=self.cpi_mean,
            n_intervals=self.n_intervals,
            n_eips=self.n_eips,
            quadrant_result=classify_result(
                workload=self.workload,
                cpi_variance=self.cpi_variance,
                relative_error=self.re_kopt,
                k_opt=self.k_opt,
            ),
        )


def _staged_dataset(spec: JobSpec):
    """The spec's EIPV dataset from the artifact store, or ``None``.

    The staged fast path: when the upstream ``eipv`` stage already
    published this spec's dataset, load it zero-copy (read-only memmap
    views) instead of re-simulating.  Identical bytes either way — the
    artifact holds exactly the arrays ``collect_cached`` would build —
    so this is purely a performance decision.
    """
    from repro.runtime import stages

    store = stages.current_artifact_store()
    if store is None:
        return None
    dataset = stages.load_eipv_dataset(store,
                                       stages.eipv_spec_for(spec).key)
    if dataset is not None:
        dataset.workload_name = spec.workload
    return dataset


def execute_job(spec: JobSpec, jobs: int = 1) -> JobResult:
    """Run the full pipeline for one spec (pure; safe in any worker).

    ``jobs`` fans the cross-validation folds out (bit-identical merge);
    the scheduler passes 1 inside pool workers.

    Prefers a staged dataset (see :func:`_staged_dataset`); a process
    without an artifact store — or a store without this spec's artifact
    — runs the monolithic collect, so correctness never depends on the
    store's contents.

    When tracing is enabled the job's span subtree is snapshotted into
    ``JobResult.spans``, which is how worker-process spans travel back to
    the scheduling process.
    """
    start = time.perf_counter()
    with span("job", workload=spec.workload, seed=spec.seed) as job_span:
        dataset = _staged_dataset(spec)
        if dataset is None:
            _, dataset = collect_cached(spec.to_run_config())
        collected = time.perf_counter()
        analysis = analyze_predictability(dataset,
                                          config=spec.analysis_config(),
                                          jobs=jobs)
        done = time.perf_counter()
    snapshot = job_span.snapshot()
    return JobResult(
        key=spec.key,
        workload=analysis.workload,
        re=tuple(float(v) for v in analysis.curve.re),
        k_opt=int(analysis.curve.k_opt),
        re_kopt=float(analysis.curve.re_kopt),
        re_inf=float(analysis.curve.re_inf),
        total_variance=float(analysis.curve.total_variance),
        n_points=int(analysis.curve.n_points),
        cpi_variance=float(analysis.cpi_variance),
        cpi_mean=float(analysis.cpi_mean),
        n_intervals=int(analysis.n_intervals),
        n_eips=int(analysis.n_eips),
        timings={"collect_s": collected - start,
                 "analyze_s": done - collected},
        spans=(snapshot,) if snapshot is not None else (),
    )


register_job_kind("analysis", execute=execute_job,
                  spec_from_dict=JobSpec.from_dict,
                  result_from_dict=JobResult.from_dict)
