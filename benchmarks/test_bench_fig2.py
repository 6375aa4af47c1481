"""E2 — Figure 2: relative-error trends for ODB-C and SjAS.

Paper shapes verified: ODB-C's cross-validated relative error rises above
1 as chambers are added; SjAS stays flat near 1 with a shallow minimum at
small k (EIPVs explain only ~20% of its CPI variance).
"""

from repro.core.cross_validation import relative_error_curve
from repro.experiments import fig2_odbc_sjas
from repro.experiments.common import RunConfig, collect


def test_bench_fig2(benchmark, record, store):
    result = fig2_odbc_sjas.run(n_intervals=60, seed=11, k_max=50,
                                store=store)

    record("e2_fig2", fig2_odbc_sjas.render(result))

    # Paper shape checks.
    assert result.odbc_rises_above_one, (
        "ODB-C RE should exceed 1 at large k (paper Fig. 2)")
    assert result.sjas_shallow_minimum, (
        "SjAS should have a shallow RE minimum at small k (paper Fig. 2)")
    assert result.odbc.re_kopt > 0.15   # weak phase behaviour
    assert result.sjas.re_kopt > 0.15

    # Time the core analysis step (tree CV on the ODB-C dataset).
    _, dataset = collect(RunConfig("odbc", n_intervals=60, seed=11),
                         store=store)
    benchmark.pedantic(
        lambda: relative_error_curve(dataset.matrix, dataset.cpis,
                                     k_max=20, seed=11),
        rounds=3, iterations=1)
