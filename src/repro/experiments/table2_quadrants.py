"""E8 — Table 2 and Figure 13: the quadrant census of all 50 workloads.

Every workload in the registry (ODB-C, SjAS, 22 ODB-H queries, 26 SPEC
CPU2K benchmarks) is simulated, sampled, analyzed with the regression-tree
cross-validation and placed into the (CPI variance, RE) plane with the
paper's thresholds (0.01, 0.15).  The paper's counts, from its text:
13 SPEC in Q-I (plus ODB-C); 5 workloads in Q-II; gcc, gap, SjAS and 7
ODB-H queries among Q-III; 12 workloads (9 ODB-H + 3 SPEC) in Q-IV.

The census is scheduled through :mod:`repro.runtime`: each workload is a
content-hashed :class:`~repro.runtime.jobs.JobSpec` that can be fanned
out across worker processes (``jobs``) and served from the disk cache
(``cache``).  Rendered output is byte-identical whether jobs ran
serially, in parallel, or entirely from a warm cache; only the attached
manifest (wall times, hit counts, worker ids) differs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.core.predictability import PredictabilityResult
from repro.core.quadrant import Quadrant
from repro.experiments.base import Experiment
from repro.experiments.common import default_intervals
from repro.runtime import stages
from repro.runtime.cache import store_scope
from repro.runtime.graph import submit_graph
from repro.runtime.jobs import JobSpec
from repro.runtime.manifest import RunManifest
from repro.workloads.registry import get_workload, workload_names
from repro.workloads.scale import DEFAULT


@dataclass(frozen=True)
class CensusEntry:
    workload: str
    result: PredictabilityResult
    paper_quadrant: str

    @property
    def matches(self) -> bool:
        return self.result.quadrant.value == self.paper_quadrant


@dataclass(frozen=True)
class Table2Result:
    entries: tuple
    match_count: int
    counts: dict
    manifest: RunManifest | None = None

    @property
    def total(self) -> int:
        return len(self.entries)


def census_specs(workloads=None, seed: int = 11, k_max: int = 50,
                 n_intervals: int | None = None) -> list[JobSpec]:
    """The census as schedulable job specs, one per workload."""
    names = list(workloads) if workloads is not None else workload_names()
    return [JobSpec(workload=name,
                    n_intervals=n_intervals or default_intervals(name),
                    seed=seed, k_max=k_max)
            for name in names]


def run(workloads=None, seed: int = 11, k_max: int = 50,
        n_intervals: int | None = None, jobs: int = 1,
        store=None, timeout: float | None = None) -> Table2Result:
    """Run the census.  ``workloads`` defaults to the full 50.

    Serial, uncached and unbounded by default.  Pass a
    :class:`~repro.runtime.cache.ResultCache` to reuse results and
    stage artifacts across processes.
    """
    specs = census_specs(workloads, seed=seed, k_max=k_max,
                         n_intervals=n_intervals)
    # The census rides the same staged submit_graph surface sweeps use:
    # uncached workloads expand into collect → eipv → analysis nodes so
    # their traces and datasets persist in the store for later runs (a
    # temporary store when there is no disk cache).  The graph dedups
    # identical specs, so a duplicated workload name is computed once
    # and rendered per requested spec below.
    with store_scope(store) as scoped:
        graph = stages.analysis_graph(specs, store=scoped)
        graph_outcomes = submit_graph(graph, jobs=jobs, store=scoped,
                                      timeout=timeout)
    # Stage outcomes stay internal: the census result and its manifest
    # describe analyses, exactly as before the pipeline split.
    by_key = {outcome.key: outcome for outcome in graph_outcomes}
    outcomes = [by_key[spec.key] for spec in specs]
    manifest = RunManifest.from_outcomes(
        outcomes, command="census", jobs=jobs,
        cache_root=getattr(store, "root", None))

    failed = [outcome for outcome in outcomes if not outcome.ok]
    if failed:
        details = "\n\n".join(
            f"{outcome.spec.workload}: {outcome.error}" for outcome in failed)
        raise RuntimeError(
            f"{len(failed)}/{len(outcomes)} census jobs failed:\n{details}")

    entries = []
    for outcome in outcomes:
        paper = get_workload(outcome.spec.workload,
                             DEFAULT).metadata["paper_quadrant"]
        entries.append(CensusEntry(workload=outcome.spec.workload,
                                   result=outcome.result.to_result(),
                                   paper_quadrant=paper))
    counts = {q.value: 0 for q in Quadrant}
    for entry in entries:
        counts[entry.result.quadrant.value] += 1
    return Table2Result(
        entries=tuple(entries),
        match_count=sum(entry.matches for entry in entries),
        counts=counts,
        manifest=manifest,
    )


def render(result: Table2Result | None = None) -> str:
    result = result or run()
    rows = [
        [entry.workload,
         round(entry.result.cpi_variance, 4),
         round(entry.result.re_kopt, 3),
         entry.result.k_opt,
         entry.result.quadrant.value,
         entry.paper_quadrant,
         "ok" if entry.matches else "MISMATCH"]
        for entry in result.entries
    ]
    table = format_table(
        ["workload", "CPI var", "RE_kopt", "k_opt", "measured", "paper",
         ""], rows, title="Table 2: quadrant classification")
    count_rows = [[q, n] for q, n in sorted(result.counts.items())]
    counts = format_table(["quadrant", "count"], count_rows,
                          title="Figure 13 census")
    verdict = (f"{result.match_count}/{result.total} workloads match the "
               f"paper's (reconstructed) placement")
    return "\n\n".join([table, counts, verdict])


EXPERIMENT = Experiment(
    id="e8",
    title="Table 2 / Figure 13: quadrant census",
    runner=run,
    renderer=render,
)
