"""E14/E15 — the paper's two explicitly-flagged future-work studies.

* **E14 — sampling-rate sweep** (Section 7: "An interesting future
  research topic is to see if a much higher sampling rate of EIPs can
  capture the CPI variance [of Q-III benchmarks]").  We re-sample a Q-III
  workload at 1M, 250K and 100K instructions and rerun the analysis.  In
  our substrate the answer is *no*: Q-III variance is data-dependent, so
  denser EIP observation cannot explain it — sharper EIPVs only reduce
  histogram noise, not the underlying fuzziness.

* **E15 — EIPVs vs BBVs** (Section 8: "It would be an interesting future
  research topic to compare regression tree analysis using EIPVs and
  BBVs").  We rebuild the same runs' vectors at basic-block granularity
  and compare RE curves.  Blocks densify the per-feature counts, which
  helps slightly where signal exists and changes nothing where it
  doesn't — supporting the paper's assumption that its EIP sampling
  "adequately sampled code execution."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.core.config import AnalysisConfig
from repro.core.predictability import analyze_predictability
from repro.experiments.base import Experiment
from repro.experiments.common import RunConfig, collect, default_intervals
from repro.trace.bbv import build_bbvs
from repro.trace.eipv import build_eipvs
from repro.trace.sampler import collect_trace
from repro.uarch.machine import get_machine
from repro.workloads.registry import get_workload
from repro.workloads.scale import DEFAULT
from repro.workloads.system import SimulatedSystem

#: The sampling periods of the rate sweep (paper default is 1M; SjAS was
#: already sampled at 100K).
SAMPLE_PERIODS = (1_000_000, 250_000, 100_000)


@dataclass(frozen=True)
class RateRow:
    sample_period: int
    cpi_variance: float
    re_kopt: float


@dataclass(frozen=True)
class SamplingRateResult:
    workload: str
    rows: tuple
    higher_rate_does_not_rescue: bool


def sampling_rate_sweep(workload: str = "odbh.q17", n_intervals: int = 60,
                        seed: int = 11, k_max: int = 30) -> SamplingRateResult:
    """Re-sample one Q-III workload at increasing rates and re-analyze."""
    machine = get_machine("itanium2")
    rows = []
    for period in SAMPLE_PERIODS:
        system = SimulatedSystem(machine, get_workload(workload, DEFAULT),
                                 seed=seed)
        trace = collect_trace(system, n_intervals * 100_000_000,
                              period=period)
        dataset = build_eipvs(trace, 100_000_000)
        dataset.workload_name = workload
        analysis = analyze_predictability(
            dataset, config=AnalysisConfig(k_max=k_max, seed=seed))
        rows.append(RateRow(sample_period=period,
                            cpi_variance=analysis.cpi_variance,
                            re_kopt=analysis.re_kopt))
    # "Rescued" would mean RE dropping below the strong-phase threshold.
    rescued = any(row.re_kopt <= 0.15 for row in rows[1:])
    return SamplingRateResult(workload=workload, rows=tuple(rows),
                              higher_rate_does_not_rescue=not rescued)


@dataclass(frozen=True)
class BBVRow:
    workload: str
    eipv_features: int
    eipv_re: float
    bbv_features: int
    bbv_re: float


@dataclass(frozen=True)
class BBVComparisonResult:
    rows: tuple
    conclusions_agree: bool


def bbv_comparison(workloads=("odbh.q13", "odbh.q18", "spec.art", "odbc"),
                   seed: int = 11, k_max: int = 30,
                   block_bytes: int = 128,
                   store=None) -> BBVComparisonResult:
    """RE with EIP vectors vs basic-block vectors, same traces."""
    rows = []
    agree = True
    for name in workloads:
        trace, eipv_dataset = collect(RunConfig(
            name, n_intervals=default_intervals(name), seed=seed),
            store=store)
        bbv_dataset = build_bbvs(trace, eipv_dataset.interval_instructions,
                                 block_bytes=block_bytes)
        config = AnalysisConfig(k_max=k_max, seed=seed)
        eipv = analyze_predictability(eipv_dataset, config=config)
        bbv = analyze_predictability(bbv_dataset, config=config)
        rows.append(BBVRow(
            workload=name,
            eipv_features=eipv_dataset.n_eips,
            eipv_re=eipv.re_kopt,
            bbv_features=bbv_dataset.n_eips,
            bbv_re=bbv.re_kopt,
        ))
        agree &= ((eipv.re_kopt <= 0.15) == (bbv.re_kopt <= 0.15))
    return BBVComparisonResult(rows=tuple(rows),
                               conclusions_agree=bool(agree))


@dataclass(frozen=True)
class FutureWorkResult:
    """Both future-work studies, bundled for the experiment protocol."""

    rate: SamplingRateResult
    bbv: BBVComparisonResult


def run(seed: int = 11, k_max: int = 30, store=None) -> FutureWorkResult:
    """Run both future-work studies."""
    return FutureWorkResult(
        rate=sampling_rate_sweep(seed=seed, k_max=k_max),
        bbv=bbv_comparison(seed=seed, k_max=k_max, store=store))


def render(result: FutureWorkResult | None = None) -> str:
    result = result or run()
    rate_result, bbv_result = result.rate, result.bbv
    rate_rows = [
        [f"1/{row.sample_period // 1000}K", round(row.cpi_variance, 4),
         round(row.re_kopt, 3)]
        for row in rate_result.rows
    ]
    rate_table = format_table(
        ["sampling rate", "CPI var", "RE_kopt"], rate_rows,
        title=f"E14: sampling-rate sweep on {rate_result.workload} "
              f"(Q-III)")
    bbv_rows = [
        [row.workload, row.eipv_features, round(row.eipv_re, 3),
         row.bbv_features, round(row.bbv_re, 3)]
        for row in bbv_result.rows
    ]
    bbv_table = format_table(
        ["workload", "EIPs", "EIPV RE", "blocks", "BBV RE"], bbv_rows,
        title="E15: EIPV vs BBV regression-tree analysis")
    verdicts = [
        f"higher sampling rate rescues Q-III predictability: "
        f"{not rate_result.higher_rate_does_not_rescue} "
        f"(our substrate: no — the variance is data-dependent)",
        f"EIPV and BBV analyses reach the same phase/no-phase conclusion: "
        f"{bbv_result.conclusions_agree}",
    ]
    return "\n\n".join([rate_table, bbv_table, "\n".join(verdicts)])


EXPERIMENT = Experiment(
    id="e14",
    title="Future work: higher EIP sampling rates on Q-III",
    runner=run,
    renderer=render,
)
