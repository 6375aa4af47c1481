"""Out-of-core collection: bounded RSS while streaming to disk.

One claim is measured and recorded in ``BENCH_shm.json``: streaming a
billion-instruction collection through ``collect_to_store`` keeps peak
RSS roughly flat while the in-memory ``collect`` grows linearly with
the run length.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


# One subprocess per (mode, run length): peak RSS is a whole-process
# property, so each measurement needs a fresh interpreter.  The child
# builds its workload from public APIs only (no test imports).  It
# reports its own high-water mark (VmHWM): ru_maxrss would include the
# resident set it inherited at fork from a grown pytest parent, which
# exec does not reset.
_CHILD = """
import sys
from repro.trace.sampler import SamplingDriver
from repro.uarch.cpu import ExecutionProfile
from repro.uarch.machine import itanium2
from repro.workloads.os_model import SchedulerConfig
from repro.workloads.program import FlatMixSchedule, Program
from repro.workloads.regions import CodeRegion
from repro.workloads.system import SimulatedSystem, Workload
from repro.workloads.thread_model import WorkloadThread

mode, total, path = sys.argv[1], int(sys.argv[2]), sys.argv[3]
threads = []
for i in range(2):
    region = CodeRegion(name=f"r{i}", eip_base=0x10000 * (i + 1),
                        n_eips=16, profile=ExecutionProfile())
    threads.append(WorkloadThread(
        thread_id=i, process="app",
        program=Program(f"p{i}", FlatMixSchedule([region]))))
workload = Workload(name="bench", threads=threads,
                    scheduler=SchedulerConfig(mean_quantum=20_000),
                    sample_period=1_000)
driver = SamplingDriver(SimulatedSystem(itanium2(), workload, seed=0))
if mode == "memory":
    n = len(driver.collect(total))
else:
    from repro.trace.storage import TraceStore
    driver.collect_to_store(TraceStore.create(path), total)
    n = TraceStore.open(path).n_samples
with open("/proc/self/status", encoding="ascii") as status:
    hwm_kb = next(line.split()[1] for line in status
                  if line.startswith("VmHWM:"))
print(n, hwm_kb)
"""


def _child_rss_mb(mode: str, total: int, store_path) -> tuple[int, float]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, mode, str(total), str(store_path)],
        check=True, capture_output=True, text=True, env=env)
    n_samples, rss_kb = proc.stdout.split()
    return int(n_samples), int(rss_kb) / 1024.0


@pytest.mark.skipif(sys.platform != "linux",
                    reason="VmHWM comes from Linux's /proc/self/status")
def test_bench_streaming_rss(benchmark, bench_shm_json, tmp_path):
    quarter, full = 250_000_000, 1_000_000_000
    stats = {}

    def measure():
        for mode in ("memory", "store"):
            for label, total in (("quarter", quarter), ("full", full)):
                start = time.perf_counter()
                n, rss = _child_rss_mb(mode, total,
                                       tmp_path / f"{mode}-{label}")
                stats[mode, label] = {"samples": n, "rss_mb": rss,
                                      "wall_s": time.perf_counter() - start}

    benchmark.pedantic(measure, rounds=1, iterations=1)
    mem_growth = (stats["memory", "full"]["rss_mb"]
                  - stats["memory", "quarter"]["rss_mb"])
    store_growth = (stats["store", "full"]["rss_mb"]
                    - stats["store", "quarter"]["rss_mb"])
    bench_shm_json(
        "streaming_collect_rss", stats["store", "full"]["wall_s"],
        instructions=full, samples=stats["store", "full"]["samples"],
        memory_rss_mb=round(stats["memory", "full"]["rss_mb"], 1),
        store_rss_mb=round(stats["store", "full"]["rss_mb"], 1),
        memory_growth_mb=round(mem_growth, 1),
        store_growth_mb=round(store_growth, 1),
        memory_wall_s=round(stats["memory", "full"]["wall_s"], 2))
    # 4x the instructions must cost the in-memory path real resident
    # growth while the streaming path stays (close to) flat.
    assert stats["store", "full"]["samples"] == full // 1_000
    assert mem_growth > 50.0
    assert stats["store", "full"]["rss_mb"] < stats["memory",
                                                    "full"]["rss_mb"]
    assert store_growth < 0.5 * mem_growth
