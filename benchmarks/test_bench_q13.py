"""E6 — Figures 8 & 9: ODB-H Q13, the strong-phase archetype.

Paper shapes verified: the relative error falls rapidly to ~0.15 with a
small k_opt (paper: 0.15 at k = 9), so EIPVs explain ~85% of Q13's CPI
variance; its unique-EIP footprint is small compared to ODB-C's.
"""

from repro.core.predictability import analyze_predictability
from repro.experiments import fig8_q13
from repro.experiments.common import RunConfig, collect


def test_bench_q13(benchmark, record, store):
    result = fig8_q13.run(n_intervals=90, seed=11, k_max=50, store=store)

    record("e6_q13", fig8_q13.render(result))

    assert result.strong_phase, (
        f"Q13 RE_kopt {result.curve.re_kopt:.3f}: paper reaches 0.15")
    assert result.small_k_opt, (
        f"Q13 k_opt {result.curve.k_opt}: paper reaches it by k=9")
    assert result.cpi_variance > 0.01      # high-variance side
    # RE at k=1 starts near 1 and drops steeply by k=5.
    assert result.curve.re[0] > 0.8
    assert result.curve.re[4] < 0.5

    _, dataset = collect(RunConfig("odbh.q13", n_intervals=90, seed=11),
                         store=store)
    benchmark.pedantic(
        lambda: analyze_predictability(dataset, k_max=20, seed=11),
        rounds=3, iterations=1)
