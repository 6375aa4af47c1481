"""E9 — Section 4.6: regression trees vs. k-means clustering.

Both methods are run under the identical 10-fold protocol at each method's
best k <= 50; the paper reports the tree improves CPI predictability by
~80% on average, because CPI drives the tree's chambers while k-means
clusters blind.

Comparisons run at the PAPER EIP scale: the scaled-down default makes
EIPVs unrealistically dense (100 samples spread over a few hundred EIPs
instead of tens of thousands), which hands k-means more information than
VTune's sparse reality gave it.

The averaged improvement is computed over *fuzzy* workloads — those where
either method's best cross-validated RE is at least 0.05.  When both
methods sit at near-zero error (textbook-clean phases) the relative ratio
is numerically meaningless; the paper's ~80% average likewise reflects
the workloads where prediction quality actually differs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.report import format_table
from repro.core.comparison import MethodComparison, compare_methods
from repro.experiments.base import Experiment
from repro.experiments.common import RunConfig, collect, default_intervals
from repro.workloads.scale import PAPER

#: The default panel follows the paper's focus: the commercial workloads
#: plus one SPEC representative per phase class (kept small: k-means CV
#: is costly).
DEFAULT_WORKLOADS = (
    "odbh.q13", "odbh.q6", "odbh.q1", "odbh.q4",   # strong/gentle phases
    "odbh.q2", "odbh.q17", "odbh.q18",             # index-scan (fuzzy)
    "sjas", "odbc",                                # servers
    "spec.art",                                    # SPEC Q-IV
)


#: A workload is "fuzzy" when either method's best RE reaches this level;
#: only fuzzy workloads enter the improvement average (see module doc).
FUZZY_RE_FLOOR = 0.05


@dataclass(frozen=True)
class KMeansComparisonResult:
    comparisons: tuple
    average_improvement: float   # over fuzzy workloads
    fuzzy_count: int


def run(workloads=DEFAULT_WORKLOADS, seed: int = 11,
        k_max: int = 50, store=None) -> KMeansComparisonResult:
    comparisons: list[MethodComparison] = []
    for name in workloads:
        _, dataset = collect(RunConfig(
            name, n_intervals=default_intervals(name), seed=seed,
            scale=PAPER), store=store)
        comparisons.append(compare_methods(dataset, k_max=k_max, seed=seed))
    fuzzy = [c for c in comparisons
             if max(c.tree_re, c.kmeans_re) >= FUZZY_RE_FLOOR]
    improvements = [c.improvement for c in fuzzy]
    return KMeansComparisonResult(
        comparisons=tuple(comparisons),
        average_improvement=float(np.mean(improvements))
        if improvements else 0.0,
        fuzzy_count=len(fuzzy),
    )


def render(result: KMeansComparisonResult | None = None) -> str:
    result = result or run()
    rows = [
        [c.workload, round(c.tree_re, 3), c.tree_k,
         round(c.kmeans_re, 3), c.kmeans_k,
         f"{c.improvement:.0%}"]
        for c in result.comparisons
    ]
    table = format_table(
        ["workload", "tree RE", "k", "k-means RE", "k", "improvement"],
        rows, title="Section 4.6: regression tree vs k-means")
    return (f"{table}\n\naverage improvement over fuzzy workloads "
            f"({result.fuzzy_count} of {len(result.comparisons)}): "
            f"{result.average_improvement:.0%} (paper: ~80%)")


EXPERIMENT = Experiment(
    id="e9",
    title="Section 4.6: tree vs k-means",
    runner=run,
    renderer=render,
)
