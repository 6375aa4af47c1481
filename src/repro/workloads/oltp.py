"""ODB-C: the OLTP (order-entry) workload model.

The paper's ODB-C is an Oracle 10g order-entry benchmark: 800 warehouses,
56 clients, 14 GB SGA, ~95% CPU utilization.  Its signature behaviours
(Sections 5 and 7):

* a very large, *flat* code footprint — 23,891 unique sampled EIPs in 60 s,
  "rather uniformly distributed";
* CPI dominated by L3 misses (>50% of cycles), occurring "frequently and
  uniformly throughout the execution";
* tiny CPI variance (~0.01) that EIPVs cannot explain (RE ≥ 1 → Q-I);
* ~15% of time in the OS and ~2600 context switches/s;
* per-thread separation helps predictability only minimally.

The model: every server process executes a broad mixture of transaction
regions (new-order, payment, ...) against the ODB-C schema, whose working
set dwarfs the caches.  CPI variation comes from shared memory-subsystem
contention (AR(1), EIP-invisible) — not from which code runs.  Thread
classes get mildly different transaction mixes so per-thread EIPVs carry a
little signal, reproducing the paper's "minimal improvement" result.
"""

from __future__ import annotations

import numpy as np

from repro.uarch.cpu import ExecutionProfile
from repro.workloads.database import Database, odbc_database
from repro.workloads.os_model import SchedulerConfig, make_kernel_thread
from repro.workloads.program import FlatMixSchedule, Program
from repro.workloads.regions import CodeRegion, layout_regions
from repro.workloads.scale import DEFAULT, WorkloadScale
from repro.workloads.system import ContentionModel, Workload
from repro.workloads.thread_model import WorkloadThread

#: Paper-reported unique EIP samples for ODB-C in a 60 s window.
PAPER_UNIQUE_EIPS = 23_891

#: ODB-C's quadrant in the paper's census (Table 2).
PAPER_QUADRANT = "Q-I"

#: Transaction mix of an order-entry workload (name, mix weight, CPI tilt).
#: The tilt scales the region's data intensity: new-order and delivery are
#: heavier than stock-level lookups.
TRANSACTIONS = (
    ("new_order", 0.45, 1.10),
    ("payment", 0.43, 0.92),
    ("order_status", 0.04, 0.85),
    ("delivery", 0.04, 1.15),
    ("stock_level", 0.04, 0.95),
)

#: Server-infrastructure code executed by every transaction.
INFRASTRUCTURE = (
    ("sql_parse", 0.18, 0.88),
    ("buffer_mgr", 0.22, 1.05),
    ("lock_mgr", 0.10, 0.95),
    ("redo_log", 0.12, 0.90),
    ("net_ipc", 0.08, 0.85),
)


def _transaction_profile(database: Database, tilt: float) -> ExecutionProfile:
    """Microarchitectural profile of one transaction/infrastructure region.

    The data footprint is the schema working set (far beyond L3); locality
    is high — most accesses hit hot rows/metadata — but the cold tail
    produces the uniform stream of L3 misses the paper measures.
    """
    footprint = min(database.total_bytes(), 1 * 1024 ** 3)
    base_locality = 0.9665
    # Heavier transactions touch colder data: lower locality.
    locality = 1.0 - (1.0 - base_locality) * tilt
    return ExecutionProfile(
        base_cpi=0.9,
        code_footprint=5 * 1024 * 1024,
        data_footprint=footprint,
        code_locality=0.9925,
        data_locality=locality,
        memory_fraction=0.4,
        branch_fraction=0.18,
        mispredict_rate=0.055,
        dependency_stall_cpi=0.2,
        memory_level_parallelism=1.5,
    )


def build_odbc_regions(scale: WorkloadScale,
                       database: Database) -> list[CodeRegion]:
    """Lay out the ODB-C code: transaction + infrastructure regions."""
    total_eips = scale.eips(PAPER_UNIQUE_EIPS, minimum=60)
    entries = TRANSACTIONS + INFRASTRUCTURE
    weight_sum = sum(weight for _, weight, _ in entries)
    specs = []
    for name, weight, tilt in entries:
        n_eips = max(4, int(total_eips * weight / weight_sum))
        profile = _transaction_profile(database, tilt)
        specs.append(
            lambda base, name=name, n=n_eips, p=profile: CodeRegion(
                name=f"oracle.{name}", eip_base=base, n_eips=n, profile=p,
                jitter=0.18, eip_concentration=0.15))
    return layout_regions(specs, start=0x40000000)


def _mix_weights(thread_index: int, n_regions: int) -> np.ndarray:
    """Per-thread mixture weights: two mild thread classes.

    Even-indexed threads lean toward the heavy transactions, odd-indexed
    toward the light ones — enough for per-thread EIPVs to carry a whisper
    of CPI signal, as the paper observed, but not more.
    """
    entries = TRANSACTIONS + INFRASTRUCTURE
    weights = np.array([weight for _, weight, _ in entries])[:n_regions]
    tilts = np.array([tilt for _, tilt, _ in entries])[:n_regions]
    if thread_index % 2 == 0:
        weights = weights * (1.0 + 0.35 * (tilts - 1.0))
    else:
        weights = weights * (1.0 - 0.35 * (tilts - 1.0))
    return np.maximum(weights, 1e-3)


def odbc_workload(scale: WorkloadScale = DEFAULT,
                  sample_period: int = 1_000_000) -> Workload:
    """Build the ODB-C workload at the given scale."""
    database = odbc_database()
    regions = build_odbc_regions(scale, database)
    threads = []
    for i in range(scale.server_threads):
        schedule = FlatMixSchedule(
            regions, weights=_mix_weights(i, len(regions)),
            dirichlet_concentration=150.0)
        threads.append(WorkloadThread(
            thread_id=i, process="oracle",
            program=Program(f"oracle.server.{i}", schedule)))
    kernel = make_kernel_thread(
        thread_id=len(threads),
        n_eips=scale.eips(2400, minimum=12))
    return Workload(
        name="odbc",
        threads=threads,
        scheduler=SchedulerConfig(mean_quantum=100_000, os_share=0.15,
                                   kernel_quantum_divisor=1),
        kernel=kernel,
        sample_period=sample_period,
        contention=ContentionModel(sigma=0.068, rho=0.995),
        metadata={
            "class": "oltp",
            "paper_unique_eips": PAPER_UNIQUE_EIPS,
            "paper_context_switches_per_s": 2600,
            "paper_os_share": 0.15,
            "paper_cpi_variance": 0.01,
            "paper_quadrant": PAPER_QUADRANT,
        },
    )
