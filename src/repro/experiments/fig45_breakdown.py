"""E4 — Figures 4 & 5: CPI breakdown over time for ODB-C and SjAS.

Section 5.1's explanation of server-workload unpredictability: L3-miss
stalls (the EXE component) dominate CPI — >50% for ODB-C throughout the
run, 30-40% for SjAS — and they occur uniformly, so every other
microarchitectural effect is drowned out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.breakdown import BreakdownSeries, breakdown_series
from repro.analysis.report import format_breakdown
from repro.experiments.base import Experiment
from repro.experiments.common import RunConfig, collect


@dataclass(frozen=True)
class BreakdownResult:
    workload: str
    series: BreakdownSeries
    exe_share: float
    exe_share_by_bin_min: float
    exe_dominant_throughout: bool


@dataclass(frozen=True)
class Fig45Result:
    odbc: BreakdownResult
    sjas: BreakdownResult
    odbc_exe_over_half: bool
    sjas_exe_share_in_band: bool


def _analyze(workload: str, n_intervals: int, seed: int,
             store) -> BreakdownResult:
    trace, _ = collect(RunConfig(workload, n_intervals=n_intervals,
                                 seed=seed), store=store)
    series = breakdown_series(trace, bins=100)
    exe_timeline = series.share_timeline("exe")
    return BreakdownResult(
        workload=workload,
        series=series,
        exe_share=series.component_share("exe"),
        exe_share_by_bin_min=float(np.min(exe_timeline)),
        exe_dominant_throughout=bool(
            np.mean(exe_timeline
                    >= np.stack([series.share_timeline(c) for c in
                                 ("work", "fe", "other")]).max(axis=0))
            > 0.9),
    )


def run(n_intervals: int = 60, seed: int = 11, store=None) -> Fig45Result:
    odbc = _analyze("odbc", n_intervals, seed, store)
    sjas = _analyze("sjas", n_intervals, seed, store)
    return Fig45Result(
        odbc=odbc,
        sjas=sjas,
        odbc_exe_over_half=bool(odbc.exe_share > 0.5),
        sjas_exe_share_in_band=bool(0.25 <= sjas.exe_share <= 0.60),
    )


def render(result: Fig45Result | None = None) -> str:
    result = result or run()
    parts = [
        "Figure 4 (ODB-C) and Figure 5 (SjAS): CPI component breakdown",
        format_breakdown(result.odbc.series, "ODB-C"),
        f"  EXE share {result.odbc.exe_share:.1%} "
        f"(paper: >50% throughout) -> {result.odbc_exe_over_half}",
        format_breakdown(result.sjas.series, "SjAS"),
        f"  EXE share {result.sjas.exe_share:.1%} "
        f"(paper: 30-40%) -> {result.sjas_exe_share_in_band}",
    ]
    return "\n\n".join(parts)


EXPERIMENT = Experiment(
    id="e4",
    title="Figures 4-5: CPI breakdown",
    runner=run,
    renderer=render,
)
