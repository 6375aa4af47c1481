"""E5/E12 — Figures 6 & 7 plus Section 5.2's threading statistics.

The thread-separation experiment: rebuild EIPVs per thread (using the
sampler's thread tags), rerun the regression-tree cross-validation, and
compare against the merged analysis.  The paper finds separation helps —
ODB-C dips just below 1 — but only minimally: code-size and L3 misses, not
thread interleaving, are what destroy predictability.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_curve, format_table
from repro.core.config import AnalysisConfig
from repro.core.cross_validation import RECurve, relative_error_curve
from repro.experiments.base import Experiment
from repro.experiments.common import RunConfig, collect
from repro.trace.eipv import build_per_thread_eipvs
from repro.trace.threads import ThreadingStats, slice_level_stats
from repro.uarch.machine import get_machine
from repro.workloads.registry import get_workload
from repro.workloads.scale import DEFAULT
from repro.workloads.system import SimulatedSystem


@dataclass(frozen=True)
class ThreadSeparationResult:
    workload: str
    nothread: RECurve
    thread: RECurve
    separation_helps: bool
    still_unpredictable: bool


@dataclass(frozen=True)
class Fig67Result:
    odbc: ThreadSeparationResult
    sjas: ThreadSeparationResult
    threading_stats: dict


def _separate(workload: str, n_intervals: int, seed: int,
              k_max: int, store) -> ThreadSeparationResult:
    trace, dataset = collect(RunConfig(workload, n_intervals=n_intervals,
                                       seed=seed), store=store)
    config = AnalysisConfig(k_max=k_max, seed=seed)
    merged = relative_error_curve(dataset.matrix, dataset.cpis,
                                  config=config)
    per_thread = build_per_thread_eipvs(trace,
                                        dataset.interval_instructions)
    threaded = relative_error_curve(per_thread.matrix, per_thread.cpis,
                                    config=config)
    return ThreadSeparationResult(
        workload=workload,
        nothread=merged,
        thread=threaded,
        separation_helps=bool(threaded.re_kopt <= merged.re_kopt + 1e-9),
        still_unpredictable=bool(threaded.re_kopt > 0.5),
    )


def measure_stats(workloads=("odbc", "sjas", "odbh.q13", "spec.gzip"),
                  n_intervals: int = 15, seed: int = 3) -> dict:
    """Exact threading statistics per workload (Section 5.2's numbers)."""
    machine = get_machine("itanium2")
    stats: dict[str, ThreadingStats] = {}
    for name in workloads:
        workload = get_workload(name, DEFAULT)
        system = SimulatedSystem(machine, workload, seed=seed)
        slices = system.run(n_intervals * 100_000_000)
        stats[name] = slice_level_stats(slices, machine.frequency_mhz)
    return stats


def run(n_intervals: int = 60, seed: int = 11,
        k_max: int = 50, store=None) -> Fig67Result:
    return Fig67Result(
        odbc=_separate("odbc", n_intervals, seed, k_max, store),
        sjas=_separate("sjas", n_intervals, seed, k_max, store),
        threading_stats=measure_stats(),
    )


def render(result: Fig67Result | None = None) -> str:
    result = result or run()
    parts = []
    for sep in (result.odbc, result.sjas):
        fig = "Figure 6" if sep.workload == "odbc" else "Figure 7"
        parts.append(format_curve(
            sep.nothread.k_values, sep.nothread.re,
            f"{fig} ({sep.workload}) nothread", mark_k=sep.nothread.k_opt))
        parts.append(format_curve(
            sep.thread.k_values, sep.thread.re,
            f"{fig} ({sep.workload}) thread-separated",
            mark_k=sep.thread.k_opt))
        parts.append(
            f"{sep.workload}: separation helps={sep.separation_helps}, "
            f"still unpredictable={sep.still_unpredictable} "
            f"(paper: helps minimally, stays high)")
    rows = []
    paper = {"odbc": (2600, "15%"), "sjas": (5000, "-"),
             "odbh.q13": ("-", "-"), "spec.gzip": (25, "<1%")}
    for name, stats in result.threading_stats.items():
        paper_rate, paper_os = paper.get(name, ("-", "-"))
        rows.append([name, round(stats.context_switches_per_second),
                     paper_rate, f"{stats.os_time_share:.1%}", paper_os,
                     stats.n_threads])
    parts.append(format_table(
        ["workload", "ctx/s", "paper ctx/s", "OS time", "paper OS",
         "threads"], rows, title="Section 5.2 threading statistics"))
    return "\n\n".join(parts)


EXPERIMENT = Experiment(
    id="e5",
    title="Figures 6-7 + Sec 5.2: thread separation",
    runner=run,
    renderer=render,
)
