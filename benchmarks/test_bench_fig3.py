"""E3 — Figure 3: EIP spread and CPI spread (ODB-C, SjAS, mcf).

Paper shapes verified: the servers' unique-EIP footprints dwarf mcf's
(scaled: 23,891 and 31,478 vs 646), their EIP spread is flat/uniform, and
ODB-C's CPI variance is tiny.
"""

from repro.analysis.spread import spread_series
from repro.experiments import fig3_spread
from repro.experiments.common import RunConfig, collect


def test_bench_fig3(benchmark, record, store):
    result = fig3_spread.run(n_intervals=60, seed=11, store=store)

    record("e3_fig3", fig3_spread.render(result))

    assert result.ordering_matches_paper, (
        "unique-EIP ordering must be mcf < ODB-C < SjAS")
    # Scaled unique-EIP counts within 2x of the scaled paper numbers.
    for panel, low, high in ((result.odbc, 1400, 5800),
                             (result.sjas, 1900, 7600),
                             (result.mcf, 38, 160)):
        assert low <= panel.unique_eips <= high, (
            panel.workload, panel.unique_eips)
    # ODB-C CPI variance is tiny (paper: 0.01).
    assert result.odbc.cpi_variance <= 0.02

    trace, _ = collect(RunConfig("odbc", n_intervals=60, seed=11),
                       store=store)
    benchmark.pedantic(lambda: spread_series(trace), rounds=3,
                       iterations=1)
