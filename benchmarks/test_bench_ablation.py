"""Ablation benches for the design choices DESIGN.md calls out.

* **L3 capacity** — the paper attributes ODB-C's flat, unpredictable CPI
  to uniform L3 misses.  Shrinking the modelled L3 from 3MB to 512KB
  raises the CPI level; the workload stays EIP-unpredictable either way.
* **Feature pruning** — the tree search keeps all unique EIPs (like the
  paper).  Pruning to the hottest EIPs is a cost knob: it must not change
  the conclusion for either a predictable or an unpredictable workload.
"""

import dataclasses

from repro.core.cross_validation import relative_error_curve
from repro.core.predictability import analyze_predictability
from repro.experiments.common import RunConfig, collect
from repro.uarch.machine import CacheConfig, itanium2

KB = 1024


def shrunken_l3_machine():
    """Itanium 2 with its 3MB L3 replaced by 512KB."""
    base = itanium2()
    return dataclasses.replace(
        base, name="itanium2-small-l3",
        l3=CacheConfig(512 * KB, 128, 8))


def test_bench_l3_capacity_ablation(benchmark, record):
    from repro.trace.sampler import collect_trace
    from repro.trace.eipv import build_eipvs
    from repro.workloads.registry import get_workload
    from repro.workloads.scale import DEFAULT
    from repro.workloads.system import SimulatedSystem

    def run(machine):
        system = SimulatedSystem(machine, get_workload("odbc", DEFAULT),
                                 seed=11)
        trace = collect_trace(system, 40 * 100_000_000)
        dataset = build_eipvs(trace)
        dataset.workload_name = "odbc"
        return analyze_predictability(dataset, k_max=20, seed=11)

    big = benchmark.pedantic(lambda: run(itanium2()), rounds=1,
                             iterations=1)
    small = run(shrunken_l3_machine())

    # A smaller L3 makes the workload slower...
    assert small.cpi_mean > big.cpi_mean
    # ...but does not make it predictable: EIPVs still explain nothing.
    assert small.re_kopt > 0.5
    assert big.re_kopt > 0.5

    record("ablation_l3",
           f"L3 ablation (ODB-C): 3MB CPI={big.cpi_mean:.2f} "
           f"RE={big.re_kopt:.3f} | 512KB CPI={small.cpi_mean:.2f} "
           f"RE={small.re_kopt:.3f}")


def test_bench_feature_pruning_ablation(benchmark, record, store):
    _, predictable = collect(RunConfig("spec.art", n_intervals=60,
                                       seed=11), store=store)
    _, unpredictable = collect(RunConfig("odbc", n_intervals=60, seed=11),
                               store=store)

    lines = ["feature-pruning ablation (RE_kopt)"]
    for name, dataset in (("spec.art", predictable),
                          ("odbc", unpredictable)):
        full = relative_error_curve(dataset.matrix, dataset.cpis,
                                    k_max=20, seed=11)
        pruned_dataset = dataset.prune_features(64)
        pruned = relative_error_curve(pruned_dataset.matrix,
                                      pruned_dataset.cpis, k_max=20,
                                      seed=11)
        lines.append(f"  {name:>10}: all {dataset.n_eips} EIPs "
                     f"RE={full.re_kopt:.3f} | top-64 EIPs "
                     f"RE={pruned.re_kopt:.3f}")
        # Pruning must preserve the phase/no-phase conclusion.
        assert (full.re_kopt <= 0.15) == (pruned.re_kopt <= 0.15), name

    benchmark.pedantic(
        lambda: relative_error_curve(
            predictable.prune_features(64).matrix, predictable.cpis,
            k_max=20, seed=11),
        rounds=3, iterations=1)
    record("ablation_pruning", "\n".join(lines))
