"""SjAS: the SPECjAppServer application-server workload model.

The paper runs SPECjAppServer2002 on BEA WebLogic/JRockit (J2EE middle
tier), sampling at 100 K instructions to catch JIT code churn.  Signature
behaviours (Sections 5 and 7):

* the largest code footprint of all workloads — 31,478 unique sampled EIPs
  in 60 s, flat spread;
* L3 miss stalls at 30-40% of CPI; CPI variance ~0.044;
* ~5000 context switches/s from network I/O;
* EIPVs explain only ~20% of CPI variance (RE_kopt ≈ 0.8 at k ≈ 3 → Q-III):
  a little structure exists — we model it as garbage-collection episodes
  whose distinct GC code runs at distinctly worse CPI;
* JIT compilation makes new code appear over time (drifting mixture).
"""

from __future__ import annotations

from repro.uarch.cpu import ExecutionProfile
from repro.workloads.os_model import SchedulerConfig, make_kernel_thread
from repro.workloads.program import (
    DriftMixSchedule,
    EpisodeState,
    EpisodicSchedule,
    Program,
)
from repro.workloads.regions import CodeRegion, layout_regions
from repro.workloads.scale import DEFAULT, WorkloadScale
from repro.workloads.system import ContentionModel, Workload
from repro.workloads.thread_model import WorkloadThread

#: Paper-reported unique EIP samples for SjAS in a 60 s window.
PAPER_UNIQUE_EIPS = 31_478

#: SjAS's quadrant in the paper's census (Table 2).
PAPER_QUADRANT = "Q-III"

#: Application-code region groups: (name, mix weight, start->end drift).
#: Interpreter/JIT regions shrink as compiled code takes over.
APP_REGIONS = (
    ("servlet", 0.22, 1.3),
    ("ejb_session", 0.20, 1.3),
    ("ejb_entity", 0.16, 1.3),
    ("jdbc_driver", 0.12, 1.0),
    ("serialization", 0.10, 1.0),
    ("jit_compiler", 0.08, 0.25),
    ("interpreter", 0.07, 0.15),
    ("net_nio", 0.05, 1.0),
)


def _app_profile(heavy: float = 1.0) -> ExecutionProfile:
    """Java middle-tier code: big footprint, moderate L3 pressure."""
    return ExecutionProfile(
        base_cpi=1.0,
        code_footprint=8 * 1024 * 1024,
        data_footprint=int(1.5 * 1024 ** 3),  # JVM heap working set
        code_locality=0.9935,
        data_locality=1.0 - 0.0095 * heavy,
        memory_fraction=0.38,
        branch_fraction=0.22,
        mispredict_rate=0.085,
        dependency_stall_cpi=0.38,
        memory_level_parallelism=1.6,
    )


def _gc_region(base: int, n_eips: int) -> CodeRegion:
    """Parallel garbage collector: pointer-chasing heap traversal."""
    profile = ExecutionProfile(
        base_cpi=0.85,
        code_footprint=256 * 1024,
        data_footprint=int(1.5 * 1024 ** 3),
        code_locality=0.999,
        data_locality=0.968,  # live-object graph walk: poor locality
        memory_fraction=0.45,
        branch_fraction=0.15,
        mispredict_rate=0.05,
        dependency_stall_cpi=0.15,
        memory_level_parallelism=1.3,
    )
    return CodeRegion(name="jvm.gc", eip_base=base, n_eips=n_eips,
                      profile=profile, jitter=0.10, eip_concentration=2.0)


def sjas_workload(scale: WorkloadScale = DEFAULT,
                  sample_period: int = 100_000,
                  jit_horizon: int = 2_000_000_000) -> Workload:
    """Build the SjAS workload at the given scale.

    ``sample_period`` defaults to the paper's 100 K instructions for SjAS
    (10x finer than the other workloads, to catch JIT churn).
    """
    total_eips = scale.eips(PAPER_UNIQUE_EIPS, minimum=80)
    weight_sum = sum(weight for _, weight, _ in APP_REGIONS)
    specs = []
    for name, weight, _ in APP_REGIONS:
        n_eips = max(6, int(total_eips * 0.94 * weight / weight_sum))
        heavy = 1.0 if name in ("ejb_entity", "serialization") else 0.85
        profile = _app_profile(heavy)
        specs.append(lambda base, name=name, n=n_eips, p=profile: CodeRegion(
            name=f"jvm.{name}", eip_base=base, n_eips=n, profile=p,
            jitter=0.22, eip_concentration=0.12))
    gc_eips = max(8, int(total_eips * 0.06))
    specs.append(lambda base, n=gc_eips: _gc_region(base, n))
    regions = layout_regions(specs, start=0x08000000)
    app_regions, gc = regions[:-1], regions[-1]

    start_weights = [weight for _, weight, _ in APP_REGIONS]
    end_weights = [weight * drift for _, weight, drift in APP_REGIONS]

    # One shared episode state: the collector stops every worker at once.
    gc_state = EpisodeState(rate=0.00008, mean_length=1600)
    threads = []
    for i in range(scale.server_threads):
        base = DriftMixSchedule(app_regions, start_weights, end_weights,
                                horizon=jit_horizon,
                                dirichlet_concentration=150.0)
        schedule = EpisodicSchedule(base, gc, rate=0.0, mean_length=1,
                                    episode_weight=0.22, state=gc_state)
        threads.append(WorkloadThread(
            thread_id=i, process="java",
            program=Program(f"jvm.worker.{i}", schedule)))
    kernel = make_kernel_thread(
        thread_id=len(threads), n_eips=scale.eips(2000, minimum=12))
    return Workload(
        name="sjas",
        threads=threads,
        scheduler=SchedulerConfig(mean_quantum=60_000, os_share=0.10,
                                   kernel_quantum_divisor=1),
        kernel=kernel,
        sample_period=sample_period,
        contention=ContentionModel(sigma=0.42, rho=0.996),
        metadata={
            "class": "appserver",
            "paper_unique_eips": PAPER_UNIQUE_EIPS,
            "paper_context_switches_per_s": 5000,
            "paper_cpi_variance": 0.044,
            "paper_re_kopt": 0.8,
            "paper_quadrant": PAPER_QUADRANT,
        },
    )
