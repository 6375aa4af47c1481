"""E7 — Figures 10-12: ODB-H Q18, the weak-phase archetype.

Paper shapes verified: despite executing the same small code segment
repeatedly (like Q13), Q18's B-tree index scan makes CPI vary with the
data — the relative error stays high (paper: flat ~1.1), and no single
microarchitectural bottleneck dominates (Figure 12: the EXE share shifts
over time).
"""

from repro.core.predictability import analyze_predictability
from repro.experiments import fig10_q18
from repro.experiments.common import RunConfig, collect


def test_bench_q18(benchmark, record, store):
    result = fig10_q18.run(n_intervals=90, seed=11, k_max=50, store=store)

    record("e7_q18", fig10_q18.render(result))

    assert result.weak_phase, (
        f"Q18 RE_kopt {result.curve.re_kopt:.3f}: paper stays ~1.1")
    assert result.curve.re_kopt > 0.4
    # At large k the error is near or above 1 (overfitting, like Fig 10).
    assert result.curve.re[-1] > 0.8
    assert result.cpi_variance > 0.01
    assert result.bottleneck_shifts, (
        "Q18's dominant stall source should shift over time (Fig. 12)")

    _, dataset = collect(RunConfig("odbh.q18", n_intervals=90, seed=11),
                         store=store)
    benchmark.pedantic(
        lambda: analyze_predictability(dataset, k_max=20, seed=11),
        rounds=3, iterations=1)
