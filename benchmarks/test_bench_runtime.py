"""Runtime subsystem: census wall-time serial vs parallel vs warm cache.

Benchmarks the same census subset three ways through
:mod:`repro.runtime` — strictly serial, fanned out with ``jobs=4``, and
from a warm content-addressed cache — so the ``BENCH_*.json`` trajectory
can track the scheduler/cache speedup across PRs.  Output equality is
asserted every time: the timings may differ wildly, the bytes may not.
"""

import json
import time

import pytest

from repro.experiments import table2_quadrants
from repro.runtime.cache import ResultCache

#: A census subset spanning all four quadrants, big enough to amortize
#: pool startup but small enough to keep the benchmark suite snappy.
WORKLOADS = ["odbc", "sjas", "odbh.q13", "odbh.q18", "spec.gzip",
             "spec.art", "spec.mcf", "spec.gcc"]
CENSUS_KWARGS = dict(workloads=WORKLOADS, seed=11, k_max=20, n_intervals=30)

_timings: dict[str, float] = {}
_renders: dict[str, str] = {}


def _census(mode: str, jobs: int, cache) -> None:
    start = time.perf_counter()
    result = table2_quadrants.run(jobs=jobs, cache=cache, **CENSUS_KWARGS)
    _timings[mode] = time.perf_counter() - start
    _renders[mode] = table2_quadrants.render(result)


@pytest.fixture(scope="module")
def shared_cache(tmp_path_factory):
    return ResultCache(tmp_path_factory.mktemp("runtime-bench-cache"))


def test_bench_census_serial(benchmark):
    benchmark.pedantic(_census, args=("serial", 1, None),
                       rounds=1, iterations=1)


def test_bench_census_jobs4(benchmark, shared_cache):
    benchmark.pedantic(_census, args=("jobs4", 4, shared_cache),
                       rounds=1, iterations=1)
    if "serial" in _renders:  # byte-identical to the serial run
        assert _renders["jobs4"] == _renders["serial"]


def test_bench_census_warm_cache(benchmark, shared_cache, record):
    benchmark.pedantic(_census, args=("warm", 4, shared_cache),
                       rounds=1, iterations=1)
    if "serial" not in _renders or "jobs4" not in _renders:
        pytest.skip("needs the serial and jobs4 benchmarks in the same run")
    assert _renders["warm"] == _renders["serial"]

    serial, jobs4, warm = (_timings[m] for m in ("serial", "jobs4", "warm"))
    summary = {
        "workloads": len(WORKLOADS),
        "serial_s": round(serial, 3),
        "jobs4_s": round(jobs4, 3),
        "warm_cache_s": round(warm, 3),
        "jobs4_speedup": round(serial / jobs4, 2) if jobs4 else None,
        "warm_speedup": round(serial / warm, 2) if warm else None,
    }
    record("runtime_scheduler", json.dumps(summary, indent=1))
    # A warm cache must beat recomputing the pipeline by a wide margin.
    assert warm < serial
