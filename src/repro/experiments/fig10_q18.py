"""E7 — Figures 10, 11 & 12: ODB-H Q18, the weak-phase archetype.

Q18 is functionally Q13's sibling (same tables, scan/join/sort), but the
optimizer reaches rows through a B-tree index scan whose traversal
randomness makes the *same small code* arbitrarily cheap or expensive.
The paper: relative error stays flat around 1.1 (EIPVs explain nothing);
the CPI curve shows apparent phases that do not correlate with EIPs; and
no single microarchitectural bottleneck dominates — EXE and FE trade
places over time (Figure 12).
"""

from __future__ import annotations

from dataclasses import dataclass


from repro.analysis.breakdown import BreakdownSeries, breakdown_series
from repro.analysis.report import format_breakdown, format_curve, sparkline
from repro.analysis.spread import SpreadSeries, spread_series
from repro.core.config import AnalysisConfig
from repro.core.cross_validation import RECurve
from repro.core.predictability import analyze_predictability
from repro.experiments.base import Experiment
from repro.experiments.common import RunConfig, collect, default_intervals


@dataclass(frozen=True)
class Q18Result:
    curve: RECurve
    spread: SpreadSeries
    breakdown: BreakdownSeries
    cpi_variance: float
    weak_phase: bool
    bottleneck_shifts: bool


def run(n_intervals: int | None = None, seed: int = 11,
        k_max: int = 50, store=None) -> Q18Result:
    n_intervals = n_intervals or default_intervals("odbh.q18")
    trace, dataset = collect(RunConfig("odbh.q18", n_intervals=n_intervals,
                                       seed=seed), store=store)
    analysis = analyze_predictability(
        dataset, config=AnalysisConfig(k_max=k_max, seed=seed))
    breakdown = breakdown_series(trace, bins=80)
    exe_share = breakdown.share_timeline("exe")
    positive = exe_share[exe_share > 0]
    shifts = bool(len(positive)
                  and positive.max() / max(positive.min(), 1e-9) > 1.5)
    return Q18Result(
        curve=analysis.curve,
        spread=spread_series(trace),
        breakdown=breakdown,
        cpi_variance=analysis.cpi_variance,
        weak_phase=bool(analysis.curve.re_kopt > 0.15),
        bottleneck_shifts=shifts,
    )


def render(result: Q18Result | None = None) -> str:
    result = result or run()
    _, cpis = result.spread.cpi_timeline(bins=80)
    touched = result.spread.eips_touched_per_bin(bins=80)
    return "\n".join([
        format_curve(result.curve.k_values, result.curve.re,
                     "Figure 10 (Q18): relative error vs k",
                     mark_k=result.curve.k_opt),
        "",
        "Figure 11 (Q18): EIP spread (top) and CPI (bottom)",
        f"  EIPs/bin |{sparkline(touched, lo=0)}|",
        f"  CPI      |{sparkline(cpis)}|",
        "  (same EIPs over time, CPI varies -> poor prediction)",
        "",
        format_breakdown(result.breakdown, "Q18 (Figure 12)"),
        "",
        f"CPI variance {result.cpi_variance:.3f}; "
        f"RE_kopt={result.curve.re_kopt:.3f} "
        f"(paper: ~1.1, stays above 1)",
        f"weak phase: {result.weak_phase}; bottleneck shifts over time: "
        f"{result.bottleneck_shifts} (paper: yes, yes)",
    ])


EXPERIMENT = Experiment(
    id="e7",
    title="Figures 10-12: ODB-H Q18",
    runner=run,
    renderer=render,
)
