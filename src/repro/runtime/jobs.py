"""Job specifications and their serializable results.

A :class:`JobSpec` freezes every knob that can change the outcome of one
predictability analysis — workload, run length, seed, machine, scale,
tree parameters, and the pipeline code version — and refuses values the
analysis cannot use, so a bad request fails before anything is
simulated.  Its :attr:`JobSpec.key` property is a content hash over the
canonical JSON form, so equal inputs always address the same cache entry
and any change (including a pipeline code bump) addresses a fresh one.
The same key is the in-flight dedup identity everywhere a spec travels:
the result cache, the run manifest, and the daemon's request coalescer
all use ``spec.key`` rather than recomputing ad-hoc tokens.

Every job kind (this one, the stages of :mod:`repro.runtime.stages`,
the folds of :mod:`repro.runtime.folds`) is a spec class with a
``kind``, a ``key``, an ``execute(jobs, store)`` method and, when it
runs against a store, a ``stored(store)`` probe.  The scheduler probes,
then runs ``spec.execute`` here or pickles the spec to a pool worker.
:meth:`JobSpec.execute` reads its dataset through the eipv stage (one
path from an execution to its dataset) and stores its
:class:`JobResult`, the entry :meth:`JobSpec.stored` reads back.  A
result round-trips through ``to_dict``/``from_dict`` without loss (JSON
preserves finite floats exactly), which is what makes warm-cache output
byte-identical to a fresh computation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import ClassVar

import numpy as np

from repro.core.config import AnalysisConfig
from repro.core.cross_validation import RECurve, summarize_curve
from repro.core.predictability import (
    PredictabilityResult,
    analyze_predictability,
)
from repro.core.quadrant import classify_result
from repro.experiments.common import INTERVAL, RunConfig
from repro.obs import span
from repro.runtime.cache import RESULT, store_scope
from repro.workloads.scale import get_scale

#: Bump when pipeline semantics change; part of every job's identity, so
#: stale cache entries from older code can never be served.
#: 1.1.0: the pipeline split into content-hashed stages (collect/eipv/
#: analysis) and the sweep space's interval axis now reuses one
#: execution per (workload, machine, seed) — old keys must not alias.
CODE_VERSION = "1.1.0"


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

    def to_dict(self) -> dict:
        data = field_dict(self)
        data["re"] = list(self.re)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "JobResult":
        data = dict(data)
        data["re"] = tuple(float(v) for v in data["re"])
        return cls(**data)

    def truncated(self, spec: JobSpec) -> "JobResult":
        """This result cut down to ``spec`` (same ``curve_key``, smaller
        ``k_max``): the RE prefix, with k_opt, RE_kopt and RE_inf
        recomputed by the rules a fresh ``k_max`` computation applies.

        Bit-identical to executing ``spec`` for ``k_max >= 2``.  At
        ``k_max=1`` every held-out error vector is one column, which
        numpy sums pairwise instead of row by row, so RE_1 may differ in
        its last bit.
        """
        curve = summarize_curve(
            np.asarray(self.re[:spec.k_max], dtype=np.float64),
            self.total_variance, self.n_points)
        return replace(self, key=spec.key, re=self.re[:spec.k_max],
                       k_opt=curve.k_opt, re_kopt=curve.re_kopt,
                       re_inf=curve.re_inf)

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

    def __post_init__(self) -> None:
        # AnalysisConfig checks k_max, folds and min_leaf.
        folds = self.analysis_config().folds
        if self.n_intervals < folds:
            raise ValueError(
                f"n_intervals ({self.n_intervals}) cannot be fewer than "
                f"folds ({folds}): every fold needs an interval")

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
        return field_dict(self)

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

    @cached_property
    def curve_key(self) -> str:
        """Content hash of the spec without ``k_max``: the execution and
        its fold partition.

        Specs sharing it have RE curves that are prefixes of one
        another: trees grow best-first, so T_1..T_k do not depend on
        ``k_max``, and the folds depend only on the seed.
        """
        canonical = self.canonical()
        del canonical["k_max"]
        return spec_key(canonical)

    def stored(self, store) -> JobResult | None:
        """The result ``store`` holds for this spec, or ``None``."""
        return stored_result(store, self.key)

    def execute(self, jobs: int = 1, store=None) -> JobResult:
        """Run the analysis and store its result (safe in any worker).

        ``jobs`` fans the cross-validation folds out (bit-identical
        merge); the scheduler passes 1 inside pool workers.

        The dataset comes from ``store`` through
        :func:`repro.runtime.stages.eipv_dataset`: the EIPV artifact, or
        on a miss the eipv stage's own build (which also heals a lost
        trace), published for the next job, as the result is.  Without a
        store — direct library calls only; every entry point passes one —
        the call gets a temporary store of its own.
        """
        from repro.runtime import stages

        if store is None:
            with store_scope(None) as scoped:
                return self.execute(jobs=jobs, store=scoped)
        with span("job", workload=self.workload, seed=self.seed):
            dataset = stages.eipv_dataset(store, stages.eipv_spec_for(self))
            analysis = analyze_predictability(
                dataset, config=self.analysis_config(), jobs=jobs)
        result = JobResult(
            key=self.key,
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
        )
        put_result(store, self, result)
        return result


def stored_result(store, key: str) -> JobResult | None:
    """The :class:`JobResult` stored under ``key``, or ``None``.

    A valid entry whose payload this code cannot use (it fails
    ``JobResult.from_dict``, or decodes to another key) is quarantined,
    so the recompute can publish in its place: a publish never replaces
    an entry.
    """
    payload = store.get(key)
    if payload is None:
        return None
    try:
        result = JobResult.from_dict(payload)
        if result.key == key:
            return result
    except (TypeError, ValueError, KeyError):
        pass
    store.metrics.inc("cache.payload_rejected")
    store.quarantine(RESULT, key)
    return None


def put_result(store, spec: JobSpec, result: JobResult) -> None:
    """Store ``result`` as ``spec``'s ``result`` entry, best effort: a
    store that can't be written must never sink the computation it was
    meant to save."""
    try:
        store.put(spec.key, result.to_dict(), spec=spec.canonical())
    except OSError:
        store.metrics.inc("cache.store_failed")


def field_dict(obj) -> dict:
    """A dataclass's fields as a dict: :func:`dataclasses.asdict` without
    its deep copy of every value, which the scalar fields of specs and
    results do not need."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def spec_key(canonical: dict) -> str:
    """Content hash (sha256 hex) of one spec's canonical dict.

    Shared by every spec kind so all dedup identities are computed the
    same way: canonical JSON with sorted keys, UTF-8, SHA-256.
    """
    payload = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
