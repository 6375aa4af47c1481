"""E6 — Figures 8 & 9: ODB-H Q13, the strong-phase archetype.

Q13 scans, joins and sorts two large tables: a small code segment executed
repeatedly and predictably over a large data set.  The paper finds the
relative error drops rapidly to ~0.15 by k_opt = 9 — EIPVs explain 85% of
CPI variance — with only 4,129 unique EIPs over its 538 s run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_curve, sparkline
from repro.analysis.spread import SpreadSeries, spread_series
from repro.core.config import AnalysisConfig
from repro.core.cross_validation import RECurve
from repro.core.predictability import analyze_predictability
from repro.experiments.base import Experiment
from repro.experiments.common import RunConfig, collect, default_intervals
from repro.workloads.dss import PAPER_Q13_UNIQUE_EIPS


@dataclass(frozen=True)
class Q13Result:
    curve: RECurve
    spread: SpreadSeries
    unique_eips: int
    cpi_variance: float
    strong_phase: bool
    small_k_opt: bool


def run(n_intervals: int | None = None, seed: int = 11,
        k_max: int = 50, store=None) -> Q13Result:
    n_intervals = n_intervals or default_intervals("odbh.q13")
    trace, dataset = collect(RunConfig("odbh.q13", n_intervals=n_intervals,
                                       seed=seed), store=store)
    analysis = analyze_predictability(
        dataset, config=AnalysisConfig(k_max=k_max, seed=seed))
    spread = spread_series(trace)
    return Q13Result(
        curve=analysis.curve,
        spread=spread,
        unique_eips=spread.unique_eips,
        cpi_variance=analysis.cpi_variance,
        strong_phase=bool(analysis.curve.re_kopt <= 0.2),
        small_k_opt=bool(analysis.curve.k_opt <= 20),
    )


def render(result: Q13Result | None = None) -> str:
    result = result or run()
    _, cpis = result.spread.cpi_timeline(bins=80)
    touched = result.spread.eips_touched_per_bin(bins=80)
    return "\n".join([
        format_curve(result.curve.k_values, result.curve.re,
                     "Figure 8 (Q13): relative error vs k",
                     mark_k=result.curve.k_opt),
        "",
        "Figure 9 (Q13): EIP spread (top) and CPI (bottom)",
        f"  EIPs/bin |{sparkline(touched, lo=0)}|",
        f"  CPI      |{sparkline(cpis)}|",
        "",
        f"unique EIPs: {result.unique_eips} "
        f"(paper {PAPER_Q13_UNIQUE_EIPS}, scaled)",
        f"RE_kopt={result.curve.re_kopt:.3f} at k_opt={result.curve.k_opt} "
        f"(paper: 0.15 at k=9)",
        f"strong phase behaviour: {result.strong_phase}; "
        f"small k_opt: {result.small_k_opt} (paper: yes, yes)",
    ])


EXPERIMENT = Experiment(
    id="e6",
    title="Figures 8-9: ODB-H Q13",
    runner=run,
    renderer=render,
)
