"""The stable, supported entry points — ``import repro.api as repro``.

Everything here is a thin, typed facade over the pipeline: one call per
use case, configured through :class:`AnalysisConfig` instead of loose
keyword arguments, returning the same result objects the experiments
use.  The deeper modules (``repro.core``, ``repro.trace``,
``repro.runtime``…) remain importable, but this module is the surface we
keep stable:

* :func:`collect` — simulate + sample one workload into an EIPV dataset;
* :func:`analyze_dataset` — the Section-4 analysis on an existing dataset;
* :func:`analyze` — collect + analyze one workload by name;
* :func:`census` — the Table 2 / Figure 13 quadrant census;
* :func:`sweep` — a generated, sharded, resumable census over a
  :class:`~repro.sweep.space.SweepSpace` of thousands of points;
* :func:`profile` — run workloads with tracing on and return the
  per-stage timing breakdown;
* :func:`collect_to_store` / :func:`analyze_store` — the out-of-core
  tier: stream a collection to an on-disk
  :class:`~repro.trace.storage.TraceStore` and analyze it in bounded
  memory (the same sampling and EIPV engines as the in-memory path, so
  the same results).

The report helpers (:func:`format_table`, :func:`format_curve`,
:func:`sparkline`) are re-exported so example scripts need only this
module.

Caching: every surface reaches its dataset through the pipeline's
content-hashed stages (:mod:`repro.runtime.stages`).  The scheduled
surfaces (:func:`census`, :func:`sweep`) run as a stage graph against
one store: pass a :class:`~repro.runtime.cache.ResultCache` and results,
simulated traces and EIPV datasets persist in it, so later calls reuse
them zero-copy instead of re-simulating.  Without one, a call keeps its
entries in a temporary store removed when it returns.  This is
invisible in the results: every path yields the same bytes.

Every knob is an argument: ``jobs``, ``store`` and ``timeout`` default
to serial, uncached and unbounded, and no call reads process-wide
settings.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.analysis.report import format_curve, format_table, sparkline
from repro.core.config import AnalysisConfig
from repro.core.predictability import (
    PredictabilityResult,
    analyze_predictability,
)
from repro.experiments import common
from repro.experiments.common import INTERVAL, RunConfig, default_intervals
from repro.obs.profile import StageStats, aggregate_spans, render_profile
from repro.runtime.cache import store_scope
from repro.runtime.graph import JobGraph, submit_graph
from repro.runtime.jobs import JobSpec
from repro.runtime.stages import CollectSpec
from repro.sampling.selector import SamplingRecommendation, recommend_for
from repro.sweep import SweepOutcome, SweepSpace
from repro.trace.eipv import EIPVDataset
from repro.trace.sampler import CHUNK_SAMPLES
from repro.workloads.scale import get_scale

__all__ = [
    "AnalysisConfig",
    "PredictabilityResult",
    "ProfileResult",
    "RunConfig",
    "SamplingRecommendation",
    "StageStats",
    "SweepOutcome",
    "SweepSpace",
    "analyze",
    "analyze_dataset",
    "analyze_store",
    "census",
    "collect",
    "collect_to_store",
    "format_curve",
    "format_table",
    "profile",
    "recommend_for",
    "sparkline",
    "sweep",
]


def _run_config(workload: str, n_intervals: int | None, seed: int,
                machine: str, scale: str) -> RunConfig:
    return RunConfig(workload=workload,
                     n_intervals=n_intervals or default_intervals(workload),
                     seed=seed, machine=machine, scale=get_scale(scale))


def collect(workload, *, n_intervals: int | None = None,
            seed: int = 11, machine: str = "itanium2",
            scale: str = "default"):
    """Simulate + sample one workload; returns ``(trace, dataset)``.

    ``workload`` is a registry name (``"odbc"``, ``"spec.mcf"``…) or a
    :class:`~repro.workloads.system.Workload` you built yourself.
    ``n_intervals`` defaults to the experiment-appropriate run length for
    the workload's class (DSS queries get longer runs).  A registry name
    goes through the pipeline's collect and eipv stages, in a temporary
    store.
    """
    if isinstance(workload, str):
        return common.collect(_run_config(workload, n_intervals, seed,
                                          machine, scale))
    # A user-built Workload object: run the same pipeline directly (the
    # object carries no stable identity for a stage to key on).
    from repro.trace.eipv import build_eipvs
    from repro.trace.sampler import collect_trace
    from repro.uarch.machine import get_machine
    from repro.workloads.system import SimulatedSystem
    system = SimulatedSystem(get_machine(machine), workload, seed=seed)
    trace = collect_trace(system, (n_intervals or 60) * INTERVAL)
    dataset = build_eipvs(trace)
    dataset.workload_name = workload.name
    return trace, dataset


def collect_to_store(workload: str, store_path, *,
                     n_intervals: int | None = None, seed: int = 11,
                     machine: str = "itanium2", scale: str = "default",
                     chunk_samples: int = CHUNK_SAMPLES):
    """Stream one workload's sampled trace into an on-disk store.

    :func:`collect`'s sampling with the trace on disk: the simulation
    is consumed incrementally and samples leave for disk in chunks, so
    peak memory is bounded by ``chunk_samples`` regardless of run
    length.  Returns the finalized, opened
    :class:`~repro.trace.storage.TraceStore`; the stored columns are the
    ones an in-memory collection of the same (workload, seed, machine,
    scale) holds, at any chunk size.  The store's header records the
    collection's identity (its :class:`~repro.runtime.stages.CollectSpec`
    canonical dict) as ``TraceStore.identity``, so a later run can tell
    whether the store holds the collection it asks for.
    """
    from repro.trace.sampler import SamplingDriver
    from repro.trace.storage import TraceStore
    from repro.uarch.machine import get_machine
    from repro.workloads.registry import get_workload
    from repro.workloads.system import SimulatedSystem

    config = _run_config(workload, n_intervals, seed, machine, scale)
    identity = CollectSpec(
        workload=config.workload, machine=config.machine, seed=config.seed,
        scale=config.scale.name,
        total_instructions=config.total_instructions()).canonical()
    system = SimulatedSystem(get_machine(config.machine),
                             get_workload(config.workload, config.scale),
                             seed=config.seed)
    with obs.span("trace.sample",
                  workload=system.workload.name) as sample_span:
        driver = SamplingDriver(system)
        driver.collect_to_store(TraceStore.create(store_path, identity),
                                config.total_instructions(),
                                chunk_samples=chunk_samples)
        store = TraceStore.open(store_path)
        sample_span.inc("samples", len(store))
    return store


def analyze_store(store, *, workload: str | None = None,
                  config: AnalysisConfig | None = None,
                  interval_instructions: int = INTERVAL,
                  sparse: bool = False,
                  jobs: int = 1) -> PredictabilityResult:
    """The Section-4 analysis over an on-disk trace store.

    ``store`` is a :class:`~repro.trace.storage.TraceStore` or a path to
    one.  EIPVs are accumulated chunk-by-chunk from the memmapped
    columns, so the trace is never resident; the result is bit-identical
    to :func:`analyze` of the same collection.  ``workload`` overrides
    the dataset's workload name (the registry name, when the store was
    collected from one).
    """
    from repro.trace.storage import TraceStore
    if not hasattr(store, "column"):
        store = TraceStore.open(store)
    dataset = EIPVDataset.from_store(
        store, interval_instructions=interval_instructions, sparse=sparse)
    if workload is not None:
        dataset.workload_name = workload
    return analyze_dataset(dataset, config=config or AnalysisConfig(seed=11),
                           jobs=jobs)


def analyze_dataset(dataset: EIPVDataset, *,
                    config: AnalysisConfig | None = None,
                    jobs: int = 1) -> PredictabilityResult:
    """The full Section-4 analysis on an EIPV dataset you already have.

    ``jobs > 1`` fans the cross-validation folds across worker processes;
    the merge is deterministic, so results are identical at any value.
    """
    return analyze_predictability(dataset, config=config or AnalysisConfig(),
                                  jobs=jobs)


def analyze(workload: str, *, config: AnalysisConfig | None = None,
            n_intervals: int | None = None, machine: str = "itanium2",
            scale: str = "default",
            jobs: int = 1) -> PredictabilityResult:
    """Collect one workload and analyze its EIP-CPI predictability.

    The analysis seed (``config.seed``) also seeds the simulation, so one
    config fully determines the result.  ``jobs`` parallelizes the
    cross-validation folds (bit-identical results).
    """
    config = config or AnalysisConfig(seed=11)
    _, dataset = collect(workload, n_intervals=n_intervals,
                         seed=config.seed, machine=machine, scale=scale)
    return analyze_dataset(dataset, config=config, jobs=jobs)


def census(workloads=None, *, config: AnalysisConfig | None = None,
           n_intervals: int | None = None, jobs: int = 1,
           store=None, timeout: float | None = None):
    """The Table 2 / Figure 13 quadrant census; returns a
    :class:`~repro.experiments.table2_quadrants.Table2Result`.

    ``workloads`` defaults to the paper's full 50.
    """
    from repro.experiments import table2_quadrants
    config = config or AnalysisConfig(seed=11)
    return table2_quadrants.run(workloads=workloads, seed=config.seed,
                                k_max=config.k_max,
                                n_intervals=n_intervals, jobs=jobs,
                                store=store, timeout=timeout)


@dataclass(frozen=True)
class ProfileResult:
    """One profiling run: the span forest and its aggregate views."""

    workloads: tuple
    jobs: int
    #: Serialized root span trees, in submission order.
    spans: tuple
    #: Per-stage aggregate (first-visit order — deterministic).
    stages: tuple

    @property
    def total_wall_s(self) -> float:
        return sum(stage.total_s for stage in self.stages
                   if stage.depth == 0)

    def stage_names(self) -> tuple:
        """The stage paths in breakdown order (structure, not timings)."""
        return tuple(stage.path for stage in self.stages)

    def report(self, top: int = 5) -> str:
        """The rendered per-stage breakdown table."""
        return render_profile(list(self.spans), top=top)


def profile(workloads, *, config: AnalysisConfig | None = None,
            n_intervals: int | None = None, machine: str = "itanium2",
            scale: str = "default", jobs: int = 1,
            timeout: float | None = None) -> ProfileResult:
    """Run one or more workloads end to end with tracing enabled.

    ``workloads`` may be one name or a sequence of names (duplicates
    coalesce to one job — they are the same content-hashed spec).  Jobs
    run against one fresh temporary store, so every job executes (a
    profile measures real work) and builds its dataset inside its own
    ``job`` span; serially or fanned
    out across ``jobs`` worker processes, the merged span forest has the
    same stage structure.  Tracing state is restored on exit, so
    profiling never leaks into the caller.
    """
    names = [workloads] if isinstance(workloads, str) else list(workloads)
    config = config or AnalysisConfig(seed=11)
    graph = JobGraph()
    for name in names:
        graph.add(JobSpec.from_configs(
            _run_config(name, n_intervals, config.seed, machine, scale),
            config))
    with store_scope(None) as store, obs.capture() as tracer:
        outcomes = submit_graph(graph, jobs=jobs, store=store,
                                timeout=timeout)
        roots = tracer.snapshot()
    failed = [outcome for outcome in outcomes if not outcome.ok]
    if failed:
        details = "\n\n".join(
            f"{outcome.spec.workload}: {outcome.error}" for outcome in failed)
        raise RuntimeError(
            f"{len(failed)}/{len(outcomes)} profile jobs failed:\n{details}")
    return ProfileResult(
        workloads=tuple(names),
        jobs=max(1, int(jobs or 1)),
        spans=tuple(roots),
        stages=tuple(aggregate_spans(roots)),
    )


def sweep(space: SweepSpace | None = None, sweep_dir=None, *,
          jobs: int = 1, shards: int | None = None,
          store=None, timeout: float | None = None,
          stop_after: int | None = None) -> SweepOutcome:
    """Run (or resume) a generated sweep; returns a
    :class:`~repro.sweep.engine.SweepOutcome`.

    ``space`` defaults to the stock space (every workload × every
    machine × three interval sizes × three seeds at tiny scale);
    ``sweep_dir`` is the sweep's durable state directory and defaults to
    ``sweeps/<space-key-prefix>`` under the working directory.  A killed
    sweep rerun with the same arguments resumes:
    completed shards are skipped outright and completed points of
    incomplete shards come back as cache hits.

    The sweep executes as a staged graph: all interval-size variants of
    one (workload, machine, seed) cell share a single simulated trace
    (through ``store``, or a temporary store without one), and a rerun
    whose artifacts survive recomputes no collect stage at all
    (``SweepOutcome.stage_stats`` reports the reuse).
    """
    from pathlib import Path

    from repro.sweep import DEFAULT_SHARDS, default_space, run_sweep

    space = space or default_space()
    if sweep_dir is None:
        sweep_dir = Path("sweeps") / space.key[:16]
    return run_sweep(space, sweep_dir, jobs=jobs,
                     shards=DEFAULT_SHARDS if shards is None else shards,
                     store=store, timeout=timeout, stop_after=stop_after)
