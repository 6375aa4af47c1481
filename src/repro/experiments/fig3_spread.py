"""E3 — Figure 3: EIP spread and CPI spread for ODB-C and SjAS.

The paper contrasts the servers' huge, uniformly-spread code footprints
(23,891 / 31,478 unique EIPs in 60 s) with SPEC's tiny loops (mcf: 646
unique EIPs in 200 s), alongside their flat CPI curves.  This experiment
reproduces the series and the unique-EIP census (scaled by the workload
scale factor).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import sparkline
from repro.analysis.spread import SpreadSeries, spread_series
from repro.analysis.variance import interval_cpi_summary
from repro.experiments.base import Experiment
from repro.experiments.common import RunConfig, collect
from repro.workloads.appserver import PAPER_UNIQUE_EIPS as SJAS_PAPER_EIPS
from repro.workloads.oltp import PAPER_UNIQUE_EIPS as ODBC_PAPER_EIPS
from repro.workloads.scale import DEFAULT
from repro.workloads.spec import PAPER_MCF_UNIQUE_EIPS


@dataclass(frozen=True)
class SpreadResult:
    """One workload's Figure-3 panel."""

    workload: str
    series: SpreadSeries
    unique_eips: int
    paper_unique_eips: int
    cpi_variance: float


@dataclass(frozen=True)
class Fig3Result:
    odbc: SpreadResult
    sjas: SpreadResult
    mcf: SpreadResult
    ordering_matches_paper: bool


def _panel(workload: str, paper_eips: int, n_intervals: int,
           seed: int, window_seconds: float | None,
           store) -> SpreadResult:
    trace, dataset = collect(RunConfig(workload, n_intervals=n_intervals,
                                       seed=seed), store=store)
    series = spread_series(trace, window_seconds=window_seconds)
    return SpreadResult(
        workload=workload,
        series=series,
        unique_eips=series.unique_eips,
        paper_unique_eips=paper_eips,
        cpi_variance=interval_cpi_summary(dataset).variance,
    )


def run(n_intervals: int = 60, seed: int = 11, store=None) -> Fig3Result:
    """Build all three Figure-3 panels."""
    odbc = _panel("odbc", ODBC_PAPER_EIPS, n_intervals, seed,
                  window_seconds=None, store=store)
    sjas = _panel("sjas", SJAS_PAPER_EIPS, n_intervals, seed,
                  window_seconds=None, store=store)
    mcf = _panel("spec.mcf", PAPER_MCF_UNIQUE_EIPS, n_intervals, seed,
                 window_seconds=None, store=store)
    ordering = mcf.unique_eips < odbc.unique_eips < sjas.unique_eips
    return Fig3Result(odbc=odbc, sjas=sjas, mcf=mcf,
                      ordering_matches_paper=bool(ordering))


def render(result: Fig3Result | None = None) -> str:
    """Figure 3 as text: per-panel EIP/CPI sparklines and the census."""
    result = result or run()
    lines = ["Figure 3: EIP spread (unique EIPs) and CPI spread"]
    for panel in (result.odbc, result.sjas, result.mcf):
        times, cpis = panel.series.cpi_timeline(bins=60)
        touched = panel.series.eips_touched_per_bin(bins=60)
        scaled_paper = int(panel.paper_unique_eips * DEFAULT.eip_scale)
        lines.extend([
            f"\n{panel.workload}: {panel.unique_eips} unique EIPs "
            f"(paper {panel.paper_unique_eips}; "
            f"scaled target ~{scaled_paper}), "
            f"CPI variance {panel.cpi_variance:.4f}",
            f"  EIPs/bin |{sparkline(touched, lo=0)}|",
            f"  CPI      |{sparkline(cpis)}|",
        ])
    lines.append(f"\nunique-EIP ordering mcf < ODB-C < SjAS: "
                 f"{result.ordering_matches_paper} (paper: yes)")
    return "\n".join(lines)


EXPERIMENT = Experiment(
    id="e3",
    title="Figure 3: EIP and CPI spread",
    runner=run,
    renderer=render,
)
