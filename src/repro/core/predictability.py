"""The paper's end-to-end predictability analysis, as one call.

:func:`analyze_predictability` takes an EIPV dataset and produces
everything Sections 4-7 derive from one workload: the RE_k curve, k_opt,
the predictability bound, the CPI variance, and the quadrant placement.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import UNSET, AnalysisConfig, resolve_config
from repro.core.cross_validation import RECurve, relative_error_curve
from repro.core.quadrant import Quadrant, QuadrantResult, classify_result
from repro.obs import span
from repro.trace.eipv import EIPVDataset


@dataclass(frozen=True)
class PredictabilityResult:
    """Everything the paper reports about one workload's EIP-CPI link."""

    workload: str
    curve: RECurve
    cpi_variance: float
    cpi_mean: float
    n_intervals: int
    n_eips: int
    quadrant_result: QuadrantResult

    @property
    def re_kopt(self) -> float:
        return self.curve.re_kopt

    @property
    def k_opt(self) -> int:
        return self.curve.k_opt

    @property
    def quadrant(self) -> Quadrant:
        return self.quadrant_result.quadrant

    @property
    def explained_fraction(self) -> float:
        """Fraction of CPI variance EIPVs can explain (1 - RE, clipped)."""
        return self.curve.explained_fraction

    def summary(self) -> str:
        """One-line report, Table 2 style."""
        return (f"{self.workload:>12}  var={self.cpi_variance:0.4f}  "
                f"RE_kopt={self.re_kopt:0.3f}  k_opt={self.k_opt:>2}  "
                f"{self.quadrant.value}")


def analyze_predictability(dataset: EIPVDataset,
                           k_max=UNSET, folds=UNSET, seed=UNSET,
                           min_leaf=UNSET, *,
                           config: AnalysisConfig | None = None,
                           jobs: int = 1) -> PredictabilityResult:
    """Run the full Section-4 analysis on one EIPV dataset.

    Pass ``config=AnalysisConfig(...)``; the loose ``k_max``/``folds``/
    ``seed``/``min_leaf`` kwargs still work but are deprecated.  ``jobs``
    parallelizes the cross-validation folds (bit-identical results).
    """
    config = resolve_config(config, k_max, folds, seed, min_leaf,
                            caller="analyze_predictability")
    with span("analyze", workload=dataset.workload_name or "unnamed"):
        curve = relative_error_curve(dataset.matrix, dataset.cpis,
                                     config=config, jobs=jobs)
        variance = dataset.cpi_variance
        quadrant_result = classify_result(
            workload=dataset.workload_name or "unnamed",
            cpi_variance=variance,
            relative_error=curve.re_kopt,
            k_opt=curve.k_opt,
        )
    return PredictabilityResult(
        workload=dataset.workload_name or "unnamed",
        curve=curve,
        cpi_variance=variance,
        cpi_mean=dataset.cpi_mean,
        n_intervals=dataset.n_intervals,
        n_eips=dataset.n_eips,
        quadrant_result=quadrant_result,
    )
