"""Scheduler determinism, fallback, manifests, and metrics."""

import multiprocessing
import os
import shutil
import threading
from concurrent.futures import Future

import pytest

from repro.experiments import table2_quadrants
from repro.runtime import pool as pool_mod
from repro.runtime import scheduler
from repro.runtime.cache import RESULT, ResultCache
from repro.runtime.jobs import JobSpec
from repro.runtime.manifest import RunManifest
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.scheduler import run_jobs

SPECS = [
    JobSpec(workload="spec.gzip", n_intervals=12, seed=7, scale="tiny",
            k_max=5),
    JobSpec(workload="spec.art", n_intervals=12, seed=7, scale="tiny",
            k_max=5),
]


class TestDeterminism:
    def test_same_spec_twice_identical_curve_and_key(self):
        first, = run_jobs([SPECS[0]])
        second, = run_jobs([SPECS[0]])
        assert first.key == second.key
        assert first.result.re == second.result.re
        assert first.result.to_result().summary() == \
            second.result.to_result().summary()

    def test_two_workers_match_serial(self):
        serial = run_jobs(SPECS, jobs=1)
        parallel = run_jobs(SPECS, jobs=2)
        assert [o.spec for o in parallel] == SPECS  # submission order kept
        for s, p in zip(serial, parallel):
            assert s.key == p.key
            assert s.result.re == p.result.re
            assert _without_timings(s) == _without_timings(p)

    def test_census_render_identical_serial_parallel_cached(self, tmp_path):
        names = ["spec.gzip", "spec.art"]
        kwargs = dict(workloads=names, seed=7, k_max=5, n_intervals=12)
        serial = table2_quadrants.render(table2_quadrants.run(**kwargs))
        cache = ResultCache(tmp_path)
        parallel = table2_quadrants.render(
            table2_quadrants.run(jobs=2, store=cache, **kwargs))
        warm_run = table2_quadrants.run(jobs=2, store=cache, **kwargs)
        warm = table2_quadrants.render(warm_run)
        assert serial == parallel == warm
        assert warm_run.manifest.hit_rate == 1.0


def _without_timings(outcome):
    data = outcome.result.to_dict()
    data.pop("timings")
    return data


class TestCacheIntegration:
    def test_second_run_is_all_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = run_jobs(SPECS, store=cache)
        warm = run_jobs(SPECS, store=cache)
        assert not any(o.cache_hit for o in cold)
        assert all(o.cache_hit for o in warm)
        for c, w in zip(cold, warm):
            assert c.result.re == w.result.re

    def test_corrupted_entry_recomputed_transparently(self, tmp_path):
        cache = ResultCache(tmp_path)
        primed, = run_jobs([SPECS[0]], store=cache)
        (cache.entry_dir(RESULT, primed.key) / "meta.json").write_text(
            "garbage", encoding="utf-8")
        recomputed, = run_jobs([SPECS[0]], store=cache)
        assert recomputed.ok and not recomputed.cache_hit
        assert recomputed.result.re == primed.result.re
        assert cache.stats().quarantined == 1
        rehit, = run_jobs([SPECS[0]], store=cache)
        assert rehit.cache_hit

    def test_wrong_shape_payload_recomputed(self, tmp_path):
        # A valid entry whose payload the scheduler rejects is
        # quarantined, so the recompute can publish (a publish never
        # replaces an entry) and the next run hits.
        cache = ResultCache(tmp_path)
        primed, = run_jobs([SPECS[0]], store=cache)
        shutil.rmtree(cache.entry_dir(RESULT, primed.key))
        cache.put(primed.key, {"nonsense": True})
        recomputed, = run_jobs([SPECS[0]], store=cache)
        assert recomputed.ok and not recomputed.cache_hit
        assert recomputed.result.re == primed.result.re
        assert cache.stats().quarantined == 1
        rehit, = run_jobs([SPECS[0]], store=cache)
        assert rehit.cache_hit and rehit.result.re == primed.result.re

    def test_without_a_store_nothing_is_looked_up_or_stored(self):
        # Fold jobs run this way: store=None never hits and never stores.
        metrics = MetricsRegistry()
        for _ in range(2):
            outcome, = run_jobs([SPECS[0]], store=None, metrics=metrics)
            assert outcome.ok and not outcome.cache_hit
        counters = metrics.snapshot()["counters"]
        assert counters["jobs.executed"] == 2
        assert not any(name.startswith("cache.") for name in counters)


class TestFailureHandling:
    @pytest.fixture(autouse=True)
    def _cold_pool(self, monkeypatch):
        """Monkeypatched pool constructors only bite when no warm
        executor survives from an earlier test (acquire would reuse it
        and never call ``pool.ProcessPoolExecutor``), and when the
        dispatch rule sends the batch to a pool (two CPUs assumed)."""
        monkeypatch.setattr(pool_mod, "usable_cpus", lambda: 2)
        pool_mod.shutdown_default()
        yield
        pool_mod.shutdown_default()

    def test_unknown_workload_yields_error_outcome(self):
        bad = JobSpec(workload="no.such.workload", n_intervals=12,
                      scale="tiny", k_max=5)
        outcome, = run_jobs([bad])
        assert not outcome.ok
        assert outcome.error is not None
        assert "no.such.workload" in outcome.error

    def test_census_raises_on_failed_job(self):
        with pytest.raises(RuntimeError, match="census jobs failed"):
            table2_quadrants.run(workloads=["no.such.workload"],
                                 n_intervals=12, k_max=5)

    def test_pool_unavailable_falls_back_to_serial(self, monkeypatch):
        def broken_pool(*args, **kwargs):
            raise OSError("no semaphores here")
        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", broken_pool)
        outcomes = run_jobs(SPECS, jobs=4)
        assert all(o.ok for o in outcomes)
        assert all(o.worker.startswith("pid-") for o in outcomes)

    def test_per_job_timeout_records_timeout_outcome(self, monkeypatch):
        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor",
                            _fake_pool(scheduler.FuturesTimeout))
        outcomes = run_jobs(SPECS, jobs=2, timeout=0.5)
        assert all(o.timed_out and not o.ok for o in outcomes)
        assert all("timeout" in o.error for o in outcomes)

    def test_broken_pool_mid_flight_finishes_serially(self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool
        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor",
                            _fake_pool(BrokenProcessPool))
        outcomes = run_jobs(SPECS, jobs=2)
        assert all(o.ok for o in outcomes)
        assert all(o.worker.startswith("pid-") for o in outcomes)

    def test_fallback_failure_chains_pool_construction_error(
            self, monkeypatch):
        # Pool can't be built AND the job itself is broken: the outcome
        # must carry both tracebacks — the serial one and the pool
        # failure that forced the fallback (regression: the pool error
        # used to be silently discarded).
        def broken_pool(*args, **kwargs):
            raise OSError("sandbox forbids semaphores")
        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", broken_pool)
        bad = [JobSpec(workload="no.such.workload", n_intervals=12,
                       scale="tiny", k_max=5, seed=s) for s in (1, 2)]
        outcomes = run_jobs(bad, jobs=2)
        for outcome in outcomes:
            assert not outcome.ok
            assert "no.such.workload" in outcome.error
            assert "fallback" in outcome.error
            assert "sandbox forbids semaphores" in outcome.error

    def test_fallback_failure_chains_broken_pool_error(self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool
        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor",
                            _fake_pool(BrokenProcessPool))
        bad = [JobSpec(workload="no.such.workload", n_intervals=12,
                       scale="tiny", k_max=5, seed=s) for s in (1, 2)]
        outcomes = run_jobs(bad, jobs=2)
        for outcome in outcomes:
            assert not outcome.ok
            # Serial retry traceback first, then the original pool death.
            assert "no.such.workload" in outcome.error
            assert "BrokenProcessPool" in outcome.error
            assert "simulated" in outcome.error

    def test_fallback_success_has_no_pool_noise(self, monkeypatch):
        # When the serial retry succeeds, the pool failure must not leak
        # into the outcome: the run recovered, the error slot stays None.
        def broken_pool(*args, **kwargs):
            raise OSError("no semaphores here")
        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", broken_pool)
        outcomes = run_jobs(SPECS, jobs=2)
        assert all(o.ok and o.error is None for o in outcomes)

    def test_orphaned_pool_recomputes_in_process(self, monkeypatch):
        # Futures that never resolve on a pool whose workers are gone —
        # what a forked child holds of its parent's executor — must end
        # in the in-process fallback within a bound, never a hang.
        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", _OrphanedPool)
        bad = JobSpec(workload="no.such.workload", n_intervals=12,
                      scale="tiny", k_max=5)
        done = {}
        waiter = threading.Thread(
            target=lambda: done.update(outcomes=run_jobs([SPECS[0], bad],
                                                         jobs=2)),
            daemon=True)
        waiter.start()
        waiter.join(timeout=30.0)
        assert not waiter.is_alive(), "run_jobs blocked on a dead pool"
        good, failed = done["outcomes"]
        assert good.ok and good.worker == f"pid-{os.getpid()}"
        assert not failed.ok
        assert "BrokenProcessPool" in failed.error
        assert "worker processes are gone" in failed.error


def _fake_pool(exc_type):
    """A pool whose every future fails with ``exc_type`` on result()."""

    class FakePool:
        def __init__(self, max_workers=None):
            pass

        def submit(self, fn, *args):
            future = Future()
            future.set_exception(exc_type("simulated"))
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    return FakePool


class _OrphanedPool:
    """A pool whose futures never resolve and whose one worker has
    exited."""

    def __init__(self, max_workers=None):
        worker = multiprocessing.get_context("fork").Process(target=int)
        worker.start()
        worker.join(10.0)
        self._processes = {worker.pid: worker}

    def submit(self, fn, *args):
        return Future()

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestManifest:
    def test_aggregates_and_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_jobs(SPECS, store=cache)
        outcomes = run_jobs(SPECS, store=cache)
        manifest = RunManifest.from_outcomes(outcomes, command="census",
                                             jobs=2, cache_root=tmp_path)
        assert manifest.n_jobs == 2
        assert manifest.n_cache_hits == 2
        assert manifest.hit_rate == 1.0
        assert "100%" in manifest.summary()
        path = manifest.save(cache.manifest_dir)
        loaded = RunManifest.load(path)
        assert loaded == manifest

    def test_failure_recorded_with_traceback(self):
        bad = JobSpec(workload="no.such.workload", n_intervals=12,
                      scale="tiny", k_max=5)
        outcome, = run_jobs([bad])
        manifest = RunManifest.from_outcomes([outcome])
        record, = manifest.records
        assert record.status == "failed"
        assert "Traceback" in record.error
        assert manifest.n_failed == 1


class TestMetrics:
    def test_metrics_counters_timers_merge_render(self):
        a = MetricsRegistry()
        a.inc("cache.hit", 2)
        with a.time("job.wall_s"):
            pass
        b = MetricsRegistry()
        b.inc("cache.hit")
        b.observe("job.wall_s", 0.5)
        a.merge(b.snapshot())
        assert a.count("cache.hit") == 3
        assert a.observations("job.wall_s") == 2
        assert a.total_seconds("job.wall_s") >= 0.5
        text = a.render()
        assert "cache.hit" in text and "job.wall_s" in text

    def test_scheduler_populates_metrics(self, tmp_path):
        metrics = MetricsRegistry()
        cache = ResultCache(tmp_path, metrics=metrics)
        run_jobs([SPECS[0]], store=cache, metrics=metrics)
        run_jobs([SPECS[0]], store=cache, metrics=metrics)
        assert metrics.count("jobs.executed") == 1
        assert metrics.count("cache.hit") == 1
        assert metrics.count("cache.store") == 1
        assert metrics.observations("job.wall_s") == 2
