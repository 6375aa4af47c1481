"""The persistent worker pool: warmth, self-healing, and clean exits.

Everything the warm pool promises is covered here: workers forked once
are reused across batches, a worker death mid-batch respawns the pool
and finishes the batch, task-count recycling retires long-lived workers,
the idle reaper and ``shutdown_default`` leave zero worker processes
behind, a forked child inherits no pool, and the serial-vs-parallel rule
uses the pool only where it can pay off.
"""

import os
import select
import signal
import threading
import time
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np
import pytest

from repro.core.config import AnalysisConfig
from repro.core.cross_validation import cross_validated_sse
from repro.runtime import folds as folds_mod
from repro.runtime import pool as pool_mod
from repro.runtime.jobs import spec_key
from repro.runtime.metrics import METRICS, MetricsRegistry
from repro.runtime.scheduler import run_jobs
from tests.runtime.test_folds import small_dataset


@pytest.fixture(autouse=True)
def _fresh_pool(monkeypatch):
    """Each test forks its own workers (so they can unpickle this
    module's job kind) and leaves nothing warm behind.  Two usable CPUs are
    assumed, so the dispatch rule sends ``jobs=2`` batches to the pool
    on any box."""
    monkeypatch.setattr(pool_mod, "usable_cpus", lambda: 2)
    pool_mod.shutdown_default()
    yield
    pool_mod.shutdown_default()


# -- a minimal job kind whose workers can be told to die --------------------

@dataclass(frozen=True)
class ProbeResult:
    key: str
    pid: int


@dataclass(frozen=True)
class ProbeSpec:
    """Reports the executing pid; ``mode="die"`` kills any pool worker
    it lands on (the parent, where ``parent_pid`` matches, survives)."""

    kind: ClassVar[str] = "pool_probe"
    result_type: ClassVar[type] = ProbeResult

    tag: int
    parent_pid: int
    mode: str = "ok"

    def canonical(self) -> dict:
        return asdict(self)

    @cached_property
    def key(self) -> str:
        return spec_key(self.canonical())

    def execute(self, jobs: int = 1, store=None) -> ProbeResult:
        if self.mode == "die" and os.getpid() != self.parent_pid:
            os._exit(1)
        if self.mode == "sleep" and os.getpid() != self.parent_pid:
            time.sleep(0.5)
        return ProbeResult(key=self.key, pid=os.getpid())


def probes(n, start=0, mode="ok"):
    return [ProbeSpec(tag=start + i, parent_pid=os.getpid(), mode=mode)
            for i in range(n)]


def _counts(*names):
    return {name: METRICS.count(name) for name in names}


class TestWarmReuse:
    def test_second_batch_reuses_forked_workers(self):
        before = _counts("pool.spawns", "pool.warm_hits")
        first = run_jobs(probes(4), jobs=2)
        forked = set(pool_mod.default_pool().worker_pids())
        second = run_jobs(probes(4, start=10), jobs=2)
        pids = {o.result.pid for batch in (first, second) for o in batch}
        workers = {p for p in pids if p != os.getpid()}
        assert workers, "jobs never reached a pool worker"
        assert METRICS.count("pool.spawns") - before["pool.spawns"] == 1
        assert METRICS.count("pool.warm_hits") - before["pool.warm_hits"] == 1
        # Warm reuse means the second batch ran on the workers forked
        # for the first (one fast worker may have served all of it).
        second_pids = {o.result.pid for o in second} - {os.getpid()}
        assert second_pids <= forked


class TestSelfHealing:
    def test_worker_death_mid_batch_respawns_and_finishes(self):
        specs = probes(2) + probes(1, start=50, mode="die") + \
            probes(2, start=60)
        before = _counts("pool.respawns")
        outcomes = run_jobs(specs, jobs=2)
        assert all(o.ok for o in outcomes)
        # The kamikaze job was recomputed in the parent...
        by_tag = {o.spec.tag: o for o in outcomes}
        assert by_tag[50].result.pid == os.getpid()
        assert METRICS.count("pool.respawns") - before["pool.respawns"] >= 1
        # ...and the healed pool serves the next batch warm.
        after = run_jobs(probes(3, start=70), jobs=2)
        assert all(o.ok for o in after)

    def test_recycle_after_max_tasks_replaces_workers(self):
        metrics = MetricsRegistry()
        pool = pool_mod.WorkerPool(max_workers=2, max_tasks_per_child=1,
                                   metrics=metrics)
        try:
            first = run_jobs(probes(2), jobs=2, worker_pool=pool)
            second = run_jobs(probes(2, start=10), jobs=2, worker_pool=pool)
            first_pids = {o.result.pid for o in first} - {os.getpid()}
            second_pids = {o.result.pid for o in second} - {os.getpid()}
            assert first_pids and second_pids
            assert first_pids.isdisjoint(second_pids)
            assert metrics.count("pool.recycled") >= 1
            assert metrics.count("pool.spawns") == 2
        finally:
            pool.shutdown()
        assert pool.leaked_workers() == []

    def test_broken_pool_on_last_job_is_discarded_not_reused(self):
        # A break with no respawn after it (here: on the batch's last
        # job) must drop the executor; a warm-cached corpse would make
        # every later batch silently degrade to in-process.
        specs = probes(1) + probes(1, start=50, mode="die")
        outcomes = run_jobs(specs, jobs=2)
        assert all(o.ok for o in outcomes)
        assert not pool_mod.default_pool().is_warm
        after = run_jobs(probes(3, start=70), jobs=2)
        assert all(o.ok for o in after)
        worker_pids = {o.result.pid for o in after} - {os.getpid()}
        assert worker_pids, "next batch never reached a pool worker"

    def test_acquire_defers_grow_and_recycle_while_batches_inflight(self):
        # Growing or recycling tears the executor down, cancelling any
        # in-flight batch's futures — so acquire must serve the current
        # executor as-is until the pool is idle.
        metrics = MetricsRegistry()
        pool = pool_mod.WorkerPool(max_workers=4, max_tasks_per_child=1,
                                   metrics=metrics)
        try:
            first, fresh = pool.acquire(1)
            assert fresh
            pool.note_tasks(5)  # over the recycle budget
            second, fresh = pool.acquire(4)  # bigger, but not while busy
            assert second is first and not fresh
            assert metrics.count("pool.recycled") == 0
            pool.release()
            pool.release()
            third, fresh = pool.acquire(4)  # idle now: grow + recycle
            assert fresh and third is not first
            assert metrics.count("pool.recycled") == 1
            pool.release()
        finally:
            pool.shutdown()
        assert pool.leaked_workers() == []

    def test_cancelled_futures_recompute_in_process(self):
        # Another thread discarding the shared executor mid-batch
        # cancels our pending futures; CancelledError (a BaseException)
        # must recompute the job like a broken pool, not abort the batch.
        pool = pool_mod.WorkerPool(max_workers=1,
                                   metrics=MetricsRegistry())
        canceller = threading.Timer(0.15,
                                    lambda: pool.discard(wait=False))
        canceller.start()
        try:
            outcomes = run_jobs(probes(1, mode="sleep") + probes(1, start=10),
                                jobs=2, worker_pool=pool)
        finally:
            canceller.cancel()
            pool.shutdown()
        assert all(o.ok for o in outcomes)
        # The discarded worker exits as soon as it drains its last task.
        deadline = time.monotonic() + 5.0
        while pool.leaked_workers() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert pool.leaked_workers() == []

    def test_idle_reaper_retires_an_unused_pool(self):
        metrics = MetricsRegistry()
        pool = pool_mod.WorkerPool(max_workers=2, idle_ttl_s=0.05,
                                   metrics=metrics)
        try:
            run_jobs(probes(2), jobs=2, worker_pool=pool)
            deadline = time.monotonic() + 5.0
            while pool.is_warm and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not pool.is_warm
            assert metrics.count("pool.idle_reaped") == 1
        finally:
            pool.shutdown()
        assert pool.leaked_workers() == []

    def test_shutdown_waits_for_a_reap_in_progress(self):
        # The reaper detaches the executor (is_warm turns False) and
        # joins its workers outside the lock; a shutdown() in between
        # used to return while those workers were still alive.
        pool = pool_mod.WorkerPool(max_workers=2, idle_ttl_s=0.05,
                                   metrics=MetricsRegistry())
        run_jobs(probes(2), jobs=2, worker_pool=pool)
        executor = pool._executor
        join = executor.shutdown

        def slow_join(*args, **kwargs):
            time.sleep(0.5)
            join(*args, **kwargs)

        executor.shutdown = slow_join
        deadline = time.monotonic() + 5.0
        while pool.is_warm and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not pool.is_warm
        pool.shutdown()
        assert pool.leaked_workers() == []


class TestShutdown:
    def test_shutdown_default_leaves_no_workers_or_segments(self):
        run_jobs(probes(3), jobs=2)
        pool = pool_mod.default_pool()
        pids = pool.worker_pids()
        assert pids
        pool_mod.shutdown_default()
        assert pool.worker_pids() == ()
        assert pool.leaked_workers() == []
        for pid in pids:
            with pytest.raises(OSError):
                os.kill(pid, 0)


class TestForkedChild:
    def test_forked_child_inherits_no_pool(self):
        run_jobs(probes(2), jobs=2)
        assert pool_mod.default_pool().is_warm
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(read_fd)
                inherited = pool_mod._DEFAULT_POOL is not None
                # Takes the singleton lock: must not deadlock either.
                warm = pool_mod.default_pool().is_warm
                os.write(write_fd, b"inherited" if inherited or warm
                         else b"clean")
            finally:
                os._exit(0)
        os.close(write_fd)
        ready = []
        try:
            ready, _, _ = select.select([read_fd], [], [], 30.0)
            report = os.read(read_fd, 64) if ready else b"no answer"
        finally:
            os.close(read_fd)
            if not ready:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert report == b"clean"
        assert pool_mod.default_pool().is_warm  # the parent's is intact


class TestDispatchRule:
    def test_pool_needs_two_jobs_two_specs_two_cpus(self, monkeypatch):
        assert pool_mod.use_pool(jobs=2, pending=2)
        assert not pool_mod.use_pool(jobs=1, pending=8)
        assert not pool_mod.use_pool(jobs=4, pending=1)
        monkeypatch.setattr(pool_mod, "usable_cpus", lambda: 1)
        assert not pool_mod.use_pool(jobs=4, pending=8)

    def test_each_choice_counted_once(self, monkeypatch):
        metrics = MetricsRegistry()
        run_jobs(probes(2), jobs=2, metrics=metrics)
        run_jobs(probes(2, start=10), jobs=1, metrics=metrics)
        monkeypatch.setattr(pool_mod, "usable_cpus", lambda: 1)
        serial = run_jobs(probes(2, start=20), jobs=2, metrics=metrics)
        assert {o.result.pid for o in serial} == {os.getpid()}
        assert metrics.count("dispatch.parallel_chosen") == 1
        assert metrics.count("dispatch.serial_chosen") == 1

    def test_cv_checks_the_rule_before_publishing(self, monkeypatch):
        monkeypatch.setattr(pool_mod, "usable_cpus", lambda: 1)
        written = []
        monkeypatch.setattr(folds_mod, "_put_dataset",
                            lambda *args: written.append(args))
        matrix, y = small_dataset()
        config = AnalysisConfig(k_max=5, folds=4, seed=3)
        before = METRICS.count("dispatch.serial_chosen")
        fanned = cross_validated_sse(matrix, y, config=config, jobs=4)
        np.testing.assert_array_equal(
            fanned, cross_validated_sse(matrix, y, config=config))
        assert METRICS.count("dispatch.serial_chosen") == before + 1
        assert written == []
        assert not pool_mod.default_pool().is_warm
