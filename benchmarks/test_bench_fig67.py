"""E5/E12 — Figures 6 & 7 plus Section 5.2 threading statistics.

Paper shapes verified: per-thread EIPV separation lowers the relative
error for both server workloads but only minimally (both stay
unpredictable); context-switch rates and OS-time shares match the paper's
Section 5.2 numbers.
"""

from repro.experiments import fig67_threads
from repro.experiments.common import RunConfig, collect
from repro.trace.eipv import build_per_thread_eipvs


def test_bench_fig67(benchmark, record, store):
    result = fig67_threads.run(n_intervals=60, seed=11, k_max=50,
                               store=store)

    record("e5_fig67", fig67_threads.render(result))

    for sep in (result.odbc, result.sjas):
        assert sep.separation_helps, (
            f"{sep.workload}: thread separation should not hurt "
            f"(nothread {sep.nothread.re_kopt:.3f} vs "
            f"thread {sep.thread.re_kopt:.3f})")
        assert sep.still_unpredictable, (
            f"{sep.workload}: RE must stay high after separation")

    stats = result.threading_stats
    assert 1500 <= stats["odbc"].context_switches_per_second <= 4000
    assert 3000 <= stats["sjas"].context_switches_per_second <= 7500
    assert stats["spec.gzip"].context_switches_per_second <= 80
    assert 0.08 <= stats["odbc"].os_time_share <= 0.25
    assert stats["spec.gzip"].os_time_share < 0.02

    trace, dataset = collect(RunConfig("odbc", n_intervals=60, seed=11),
                             store=store)
    benchmark.pedantic(
        lambda: build_per_thread_eipvs(trace,
                                       dataset.interval_instructions),
        rounds=3, iterations=1)
