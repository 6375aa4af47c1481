"""E10/E11 — Section 7.1: classification robustness.

Two sweeps:

* **EIPV size** — rebuild EIPVs at 100M, 50M and 10M instructions from the
  same trace (VTune sampling frequency unchanged, exactly as the paper
  does) and watch CPI variance and RE rise as intervals shrink (paper:
  variance +7%/+29%, RE +13%/+14%).
* **Machine** — rerun a SPEC subset on the Pentium 4 (no big L3) and Xeon
  models; the paper finds higher CPI variance on both (highest on P4 for
  cache-hungry codes like mcf), with quadrant membership mostly stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.report import format_table
from repro.core.config import AnalysisConfig
from repro.core.predictability import analyze_predictability
from repro.experiments.base import Experiment
from repro.experiments.common import RunConfig, collect, default_intervals
from repro.trace.eipv import build_eipvs

#: The interval sizes of Section 7.1, in instructions.
EIPV_SIZES = (100_000_000, 50_000_000, 10_000_000)

#: SPEC subset used for the machine sweep (mix of memory-bound and not).
MACHINE_SWEEP_WORKLOADS = ("spec.mcf", "spec.art", "spec.gzip",
                           "spec.equake", "spec.gcc")


@dataclass(frozen=True)
class EIPVSizeRow:
    interval_instructions: int
    cpi_variance: float
    re_kopt: float


@dataclass(frozen=True)
class EIPVSizeResult:
    workload: str
    rows: tuple
    variance_increases: bool
    re_does_not_improve: bool


def eipv_size_sweep(workload: str = "odbh.q4", seed: int = 11,
                    k_max: int = 30, store=None) -> EIPVSizeResult:
    """Rebuild EIPVs from one trace at each Section-7.1 interval size."""
    trace, _ = collect(RunConfig(
        workload, n_intervals=default_intervals(workload), seed=seed),
        store=store)
    rows = []
    for size in EIPV_SIZES:
        dataset = build_eipvs(trace, size)
        dataset.workload_name = workload
        analysis = analyze_predictability(
            dataset, config=AnalysisConfig(k_max=k_max, seed=seed))
        rows.append(EIPVSizeRow(
            interval_instructions=size,
            cpi_variance=analysis.cpi_variance,
            re_kopt=analysis.re_kopt,
        ))
    variances = [r.cpi_variance for r in rows]
    res = [r.re_kopt for r in rows]
    return EIPVSizeResult(
        workload=workload,
        rows=tuple(rows),
        variance_increases=bool(variances[0] < variances[-1]),
        re_does_not_improve=bool(res[-1] >= res[0] * 0.95),
    )


@dataclass(frozen=True)
class MachineRow:
    workload: str
    machine: str
    cpi_variance: float
    re_kopt: float
    quadrant: str


@dataclass(frozen=True)
class MachineSweepResult:
    rows: tuple
    p4_variance_higher: bool
    quadrants_mostly_stable: bool


def machine_sweep(workloads=MACHINE_SWEEP_WORKLOADS, seed: int = 11,
                  k_max: int = 30, store=None) -> MachineSweepResult:
    """Re-run a SPEC subset on all three machine models."""
    rows: list[MachineRow] = []
    for name in workloads:
        for machine in ("itanium2", "pentium4", "xeon"):
            _, dataset = collect(RunConfig(
                name, n_intervals=default_intervals(name), seed=seed,
                machine=machine), store=store)
            analysis = analyze_predictability(
                dataset, config=AnalysisConfig(k_max=k_max, seed=seed))
            rows.append(MachineRow(
                workload=name,
                machine=machine,
                cpi_variance=analysis.cpi_variance,
                re_kopt=analysis.re_kopt,
                quadrant=analysis.quadrant.value,
            ))
    by_key = {(r.workload, r.machine): r for r in rows}
    p4_higher = np.mean([
        by_key[(w, "pentium4")].cpi_variance
        > by_key[(w, "itanium2")].cpi_variance
        for w in workloads]) >= 0.6
    stable = np.mean([
        by_key[(w, "xeon")].quadrant == by_key[(w, "itanium2")].quadrant
        for w in workloads]) >= 0.6
    return MachineSweepResult(
        rows=tuple(rows),
        p4_variance_higher=bool(p4_higher),
        quadrants_mostly_stable=bool(stable),
    )


@dataclass(frozen=True)
class RobustnessResult:
    """Both Section-7.1 sweeps, bundled for the experiment protocol."""

    size: EIPVSizeResult
    machine: MachineSweepResult


def run(seed: int = 11, k_max: int = 30, store=None) -> RobustnessResult:
    """Run both robustness sweeps."""
    return RobustnessResult(
        size=eipv_size_sweep(seed=seed, k_max=k_max, store=store),
        machine=machine_sweep(seed=seed, k_max=k_max, store=store))


def render(result: RobustnessResult | None = None) -> str:
    result = result or run()
    size_result, machine_result = result.size, result.machine
    base = size_result.rows[0]
    size_rows = [
        [f"{row.interval_instructions // 1_000_000}M",
         round(row.cpi_variance, 4),
         f"{row.cpi_variance / base.cpi_variance - 1:+.0%}",
         round(row.re_kopt, 3),
         f"{row.re_kopt / max(base.re_kopt, 1e-9) - 1:+.0%}"]
        for row in size_result.rows
    ]
    size_table = format_table(
        ["EIPV size", "CPI var", "vs 100M", "RE_kopt", "vs 100M"],
        size_rows,
        title=f"Section 7.1: EIPV size sweep ({size_result.workload}) "
              f"(paper: var +7%/+29%, RE +13%/+14%)")
    machine_rows = [
        [row.workload, row.machine, round(row.cpi_variance, 4),
         round(row.re_kopt, 3), row.quadrant]
        for row in machine_result.rows
    ]
    machine_table = format_table(
        ["workload", "machine", "CPI var", "RE_kopt", "quadrant"],
        machine_rows, title="Section 7.1: machine sweep")
    verdicts = [
        f"variance rises as EIPVs shrink: {size_result.variance_increases} "
        f"(paper: yes)",
        f"RE does not improve with smaller EIPVs: "
        f"{size_result.re_does_not_improve} (paper: yes)",
        f"P4 variance higher than Itanium 2: "
        f"{machine_result.p4_variance_higher} (paper: yes)",
        f"quadrants mostly stable across machines: "
        f"{machine_result.quadrants_mostly_stable} (paper: yes)",
    ]
    return "\n\n".join([size_table, machine_table, "\n".join(verdicts)])


EXPERIMENT = Experiment(
    id="e10",
    title="Section 7.1: robustness sweeps",
    runner=run,
    renderer=render,
)
