"""E13 — Section 7's payoff: per-quadrant sampling-technique evaluation.

For one representative workload per quadrant, every technique estimates
the full-run CPI from a small budget of simulated intervals.  The paper's
claims to verify:

* Q-I / Q-II: uniform (or random) sampling with a few samples already
  matches CPI — phase analysis buys nothing;
* Q-III: phase-based sampling is *not* reliable (clusters hide CPI
  variance); statistical/stratified sampling is the right tool;
* Q-IV: phase-based sampling captures CPI with just a few representatives,
  where uniform sampling would need many more.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.core.config import AnalysisConfig
from repro.experiments.base import Experiment
from repro.experiments.common import RunConfig, collect, default_intervals
from repro.sampling.evaluation import compare_techniques
from repro.sampling.selector import select_technique

#: Quadrant -> representative workload.
REPRESENTATIVES = {
    "Q-I": "odbc",
    "Q-II": "spec.equake",
    "Q-III": "odbh.q18",
    "Q-IV": "spec.art",
}


@dataclass(frozen=True)
class QuadrantEvaluation:
    quadrant: str
    workload: str
    recommended: str
    results: tuple
    recommended_is_competitive: bool


@dataclass(frozen=True)
class SamplingEvalResult:
    evaluations: tuple
    phase_based_wins_q4: bool
    uniform_sufficient_q1: bool


def run(budget: int = 6, trials: int = 15, seed: int = 11,
        store=None) -> SamplingEvalResult:
    evaluations = []
    for quadrant, workload in REPRESENTATIVES.items():
        _, dataset = collect(RunConfig(
            workload, n_intervals=default_intervals(workload), seed=seed),
            store=store)
        recommendation = select_technique(dataset,
                                          config=AnalysisConfig(seed=seed))
        results = tuple(compare_techniques(dataset, budget, trials=trials,
                                           seed=seed))
        by_name = {r.technique: r for r in results}
        best = min(r.mean_abs_error for r in results)
        recommended = by_name[recommendation.technique]
        competitive = recommended.mean_abs_error <= max(2.0 * best,
                                                        best + 1e-6)
        evaluations.append(QuadrantEvaluation(
            quadrant=quadrant,
            workload=workload,
            recommended=recommendation.technique,
            results=results,
            recommended_is_competitive=bool(competitive),
        ))
    by_quadrant = {e.quadrant: e for e in evaluations}
    q4 = {r.technique: r for r in by_quadrant["Q-IV"].results}
    q1 = {r.technique: r for r in by_quadrant["Q-I"].results}
    return SamplingEvalResult(
        evaluations=tuple(evaluations),
        phase_based_wins_q4=bool(
            q4["phase_based"].mean_abs_error
            < 0.5 * q4["uniform"].mean_abs_error),
        uniform_sufficient_q1=bool(q1["uniform"].mean_rel_error < 0.02),
    )


def render(result: SamplingEvalResult | None = None) -> str:
    result = result or run()
    rows = []
    for evaluation in result.evaluations:
        for technique in evaluation.results:
            marker = ("<- recommended"
                      if technique.technique == evaluation.recommended
                      else "")
            rows.append([
                evaluation.quadrant, evaluation.workload,
                technique.technique,
                f"{technique.mean_rel_error:.3%}",
                f"{technique.max_abs_error:.4f}", marker])
    table = format_table(
        ["quadrant", "workload", "technique", "mean rel err",
         "max abs err", ""],
        rows, title="Section 7: sampling-technique error by quadrant")
    verdicts = [
        f"phase-based clearly wins in Q-IV: {result.phase_based_wins_q4} "
        f"(paper: yes)",
        f"uniform sampling suffices in Q-I: {result.uniform_sufficient_q1} "
        f"(paper: yes)",
    ]
    return "\n\n".join([table, "\n".join(verdicts)])


EXPERIMENT = Experiment(
    id="e13",
    title="Section 7: sampling techniques by quadrant",
    runner=run,
    renderer=render,
)
