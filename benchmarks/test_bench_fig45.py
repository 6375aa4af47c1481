"""E4 — Figures 4 & 5: CPI component breakdown for ODB-C and SjAS.

Paper shapes verified: EXE (L3-miss) stalls exceed 50% of ODB-C's CPI and
sit in the 30-40% band for SjAS, uniformly through the run.
"""

from repro.analysis.breakdown import breakdown_series
from repro.experiments import fig45_breakdown
from repro.experiments.common import RunConfig, collect


def test_bench_fig45(benchmark, record, store):
    result = fig45_breakdown.run(n_intervals=60, seed=11, store=store)

    record("e4_fig45", fig45_breakdown.render(result))

    assert result.odbc_exe_over_half, (
        f"ODB-C EXE share {result.odbc.exe_share:.1%}: paper says >50%")
    assert result.odbc.exe_dominant_throughout, (
        "ODB-C L3 stalls should dominate throughout the run")
    assert result.sjas_exe_share_in_band, (
        f"SjAS EXE share {result.sjas.exe_share:.1%}: paper says 30-40%")
    # ODB-C is more memory-bound than SjAS.
    assert result.odbc.exe_share > result.sjas.exe_share

    trace, _ = collect(RunConfig("odbc", n_intervals=60, seed=11),
                       store=store)
    benchmark.pedantic(lambda: breakdown_series(trace, bins=100),
                       rounds=3, iterations=1)
