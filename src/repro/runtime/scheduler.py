"""Job scheduling: store probe, process-pool fan-out, serial fallback.

:func:`run_jobs` is the one entry point.  It probes each spec
(``spec.stored(store)``) and executes only the misses — on the
**persistent warm pool** (:mod:`repro.runtime.pool`) when
:func:`repro.runtime.pool.use_pool` allows it, otherwise serially here.
Every job runs as ``spec.execute(jobs, store)`` and publishes its own
product, so the scheduler writes nothing.  A pool worker receives the
spec itself (pickled) with the root of the run's store, and returns the
result with the span forest it recorded, grafted here.  Workers
forked once survive across batches and keep nothing between jobs.  Pool
construction or submission failing (restricted environments, missing
semaphores, broken workers) degrades gracefully to the in-process path,
so ``--jobs`` is a performance knob, never a correctness one.  Outcomes
come back in submission order regardless of completion order, which
keeps downstream rendering byte-identical across serial, pooled and
warm-cache runs.  No wait on a pool is unbounded: a pool whose manager
thread or workers are gone is treated like a broken one.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import (CancelledError, TimeoutError as FuturesTimeout,
                                wait as futures_wait)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro import obs
from repro.runtime import pool as pool_mod
from repro.runtime.cache import ResultCache
from repro.runtime.jobs import JobResult, JobSpec
from repro.runtime.metrics import METRICS

#: Seconds between liveness checks while waiting on a pool future.
POOL_POLL_S = 0.1


@dataclass(frozen=True)
class JobOutcome:
    """One scheduled job's fate: a result, a cache hit, or a failure."""

    spec: JobSpec
    key: str
    result: JobResult | None
    cache_hit: bool
    wall_time: float
    worker: str
    error: str | None = None
    timed_out: bool = False

    @property
    def ok(self) -> bool:
        return self.result is not None


def _worker_execute(spec, store_root: str | None = None,
                    tracing: bool = False) -> tuple:
    """Module-level worker body: ``(result, spans, pid, wall_s)``.

    The one place a pool worker's spans travel: with ``tracing`` the job
    runs under a fresh tracer whose forest comes back beside the result,
    without it under none (``[]``) — never under a tracer the worker
    inherited when it was forked — so a reused worker never accumulates
    state.
    Pool workers are leaves: the job runs with ``jobs=1``, so nothing it
    calls can reach ``run_jobs`` with parallelism or touch a pool.  The
    store arrives as a root path with each job and is built for that job
    only, so no store outlives the job in a warm worker.
    """
    store = ResultCache(store_root) if store_root is not None else None
    obs.disable_tracing()
    tracer = obs.enable_tracing() if tracing else None
    start = time.perf_counter()
    try:
        result = spec.execute(jobs=1, store=store)
    finally:
        obs.disable_tracing()
    spans = tracer.snapshot() if tracer is not None else []
    return result, spans, os.getpid(), time.perf_counter() - start


def _run_serial(spec: JobSpec, key: str, jobs: int = 1, store=None,
                pool_error: str | None = None) -> JobOutcome:
    """Execute one spec in-process, handing it ``jobs`` for its own
    fan-out (an analysis spreads its CV folds) and the run's ``store``.

    ``pool_error`` carries the traceback of the pool failure that forced
    this fallback (a broken pool, a pool that could not be built).  If
    the in-process execution *also* fails, both tracebacks travel in the
    outcome — the original worker failure is usually the real diagnosis
    and must never be swallowed by the retry.
    """
    start = time.perf_counter()
    try:
        result = spec.execute(jobs=jobs, store=store)
        error = None
    except Exception:
        result = None
        error = traceback.format_exc()
        if pool_error:
            error = (f"{error}\n"
                     f"The in-process run above was a fallback; the job "
                     f"failed in the worker pool first:\n{pool_error}")
    return JobOutcome(spec=spec, key=key, result=result, cache_hit=False,
                      wall_time=time.perf_counter() - start,
                      worker=f"pid-{os.getpid()}", error=error)


def _pool_alive(executor) -> bool:
    """False once the executor's manager thread or all its workers are
    gone — an executor inherited across fork has neither, and its
    futures would never resolve."""
    thread = getattr(executor, "_executor_manager_thread", None)
    if thread is not None and not thread.is_alive():
        return False
    procs = (getattr(executor, "_processes", None) or {}).values()
    return not procs or any(proc.exitcode is None for proc in procs)


def _await_result(future, timeout: float | None, executor):
    """``future.result(timeout)`` as a bounded poll.

    Raises ``BrokenProcessPool`` when the executor can no longer resolve
    the future, so callers recompute in-process instead of hanging.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        step = POOL_POLL_S
        if deadline is not None:
            step = min(step, max(0.0, deadline - time.monotonic()))
        if futures_wait([future], timeout=step).done:
            return future.result()
        if deadline is not None and time.monotonic() >= deadline:
            raise FuturesTimeout()
        if not _pool_alive(executor) and not future.done():
            raise BrokenProcessPool(
                "the pool's manager thread or worker processes are gone")


def _execute_on_pool(specs: list[JobSpec], keys: list[str], jobs: int,
                     timeout: float | None, store, on_ready,
                     worker_pool) -> tuple[list[JobOutcome] | None, str]:
    """Fan one batch out over the persistent warm pool.

    Returns ``(outcomes, "")`` on success, or ``(None, why)`` if the
    pool cannot be used at all — ``why`` is the construction traceback,
    which the caller chains into any serial-fallback failure so the
    original error is never lost.  ``on_ready`` fires per outcome as it
    is consumed (submission order), which is how the caller streams
    results instead of waiting for the whole wave.  The
    executor is acquired from (and released back to) ``worker_pool``, a
    broken pool is respawned mid-batch and the remaining jobs
    resubmitted; a job that raises in a worker comes back as a failed
    outcome and leaves the pool warm.  Every job carries the root of
    ``store`` (or ``None``).
    """
    tracing = obs.tracing_enabled()
    root = str(store.root) if store is not None else None
    try:
        executor, _ = worker_pool.acquire(min(jobs, len(specs)))
    except pool_mod.POOL_BUILD_ERRORS:
        return None, traceback.format_exc()
    try:
        try:
            futures: list = [
                executor.submit(_worker_execute, spec, root, tracing)
                for spec in specs]
        except pool_mod.POOL_BUILD_ERRORS:
            worker_pool.discard(wait=False)
            return None, traceback.format_exc()
        worker_pool.note_tasks(len(specs))
        outcomes: list[JobOutcome] = []
        timed_out = False
        respawns_left = 2
        dead_pool_error = ""
        try:
            for i, (spec, key) in enumerate(zip(specs, keys)):
                future = futures[i]
                start = time.perf_counter()
                if future is None:
                    # The pool died and could not be respawned; finish
                    # the batch in-process.
                    outcome = _run_serial(spec, key, store=store,
                                          pool_error=dead_pool_error or None)
                    outcomes.append(outcome)
                    on_ready(outcome)
                    continue
                try:
                    result, spans, pid, elapsed = _await_result(
                        future, timeout, executor)
                    obs.graft(spans)
                    outcome = JobOutcome(
                        spec=spec, key=key, result=result,
                        cache_hit=False, wall_time=elapsed,
                        worker=f"pid-{pid}")
                except FuturesTimeout:
                    future.cancel()
                    timed_out = True
                    outcome = JobOutcome(
                        spec=spec, key=key, result=None, cache_hit=False,
                        wall_time=time.perf_counter() - start,
                        worker="pool", timed_out=True,
                        error=f"job exceeded the {timeout}s timeout")
                except (BrokenProcessPool, CancelledError) as exc:
                    # BrokenProcessPool: the workers died under this
                    # batch, or the executor can no longer resolve its
                    # futures (see _await_result).  CancelledError:
                    # another thread discarded the shared executor
                    # (timeout, poisoned batch) and our pending futures
                    # were cancelled — it is a BaseException since 3.8,
                    # so without this clause it would skip the per-job
                    # handler below and abort the whole batch.  Either
                    # way the job recomputes in-process and the rest
                    # resubmits on a fresh pool.
                    pool_error = "".join(traceback.format_exception(exc))
                    outcome = _run_serial(spec, key, store=store,
                                          pool_error=pool_error)
                    rest = specs[i + 1:]
                    respawned = False
                    if rest and futures[i + 1] is not None:
                        # Self-heal: respawn the workers and resubmit the
                        # rest of the batch (bounded, so a reliably
                        # crashing workload degrades to in-process).
                        if respawns_left > 0:
                            respawns_left -= 1
                            try:
                                executor = worker_pool.respawn_now(
                                    min(jobs, len(rest)))
                                futures[i + 1:] = [
                                    executor.submit(_worker_execute, s,
                                                    root, tracing)
                                    for s in rest]
                                worker_pool.note_tasks(len(rest))
                                respawned = True
                            except pool_mod.POOL_BUILD_ERRORS:
                                dead_pool_error = traceback.format_exc()
                                futures[i + 1:] = [None] * len(rest)
                        else:
                            dead_pool_error = pool_error
                            futures[i + 1:] = [None] * len(rest)
                    if not respawned and isinstance(exc, BrokenProcessPool):
                        # No fresh executor replaced the broken one (last
                        # job of the batch, or the respawn budget ran
                        # out): drop it, or the next batch warm-hits a
                        # corpse and silently degrades to in-process.  A
                        # cancelled future doesn't implicate the executor,
                        # which the discarding thread already handled.
                        worker_pool.discard(wait=False)
                except Exception as exc:
                    outcome = JobOutcome(
                        spec=spec, key=key, result=None, cache_hit=False,
                        wall_time=time.perf_counter() - start,
                        worker="pool",
                        error="".join(traceback.format_exception(exc)))
                outcomes.append(outcome)
                on_ready(outcome)
        except BaseException:
            # on_ready raised (e.g. a crash-simulation abort): don't let
            # possibly-poisoned workers outlive the exception.
            worker_pool.discard(wait=False)
            raise
        if timed_out:
            # A timed-out job may still occupy its worker; hand the
            # executor back to the OS rather than to the next batch.
            worker_pool.discard(wait=False)
        return outcomes, ""
    finally:
        worker_pool.release()


def run_jobs(specs, jobs: int = 1, store: ResultCache | None = None,
             timeout: float | None = None, metrics=METRICS,
             worker_pool=None, on_outcome=None) -> list[JobOutcome]:
    """Schedule every spec; return outcomes in submission order.

    Specs whose product ``store`` holds (``spec.stored(store)``) are
    served from it; the misses go to a process pool only when
    :func:`repro.runtime.pool.use_pool` allows it (``jobs >= 2``, two
    pending specs, two usable CPUs); each such choice with ``jobs >= 2``
    is counted in ``dispatch.parallel_chosen`` or
    ``dispatch.serial_chosen``.  The in-process path hands every job the
    caller's ``jobs`` for its own fan-out; pool workers run jobs with
    ``jobs=1``.  Every job receives ``store`` (pool workers get its root
    and open it per job); without one nothing is probed, and an
    analysis opens a temporary store of its own.

    Parallel batches run on the persistent warm pool
    (:func:`repro.runtime.pool.default_pool`, or ``worker_pool`` when
    given).

    Each job stores its own product as it finishes, so a run killed
    mid-batch leaves every finished job stored — large sweeps resume at
    job granularity, not batch granularity.  ``on_outcome`` fires once
    per job as its outcome is consumed (hits first, during the probe
    pass, then executed jobs in submission order).
    """
    specs = list(specs)
    jobs = max(1, int(jobs or 1))
    outcomes: list[JobOutcome | None] = [None] * len(specs)
    notify = on_outcome or (lambda outcome: None)

    pending: list[int] = []
    keys = [spec.key for spec in specs]
    for i, (spec, key) in enumerate(zip(specs, keys)):
        start = time.perf_counter()
        result = spec.stored(store) if store is not None else None
        if result is not None:
            outcomes[i] = JobOutcome(
                spec=spec, key=key, result=result, cache_hit=True,
                wall_time=time.perf_counter() - start, worker="cache")
            notify(outcomes[i])
        else:
            pending.append(i)

    if pending:
        todo = [specs[i] for i in pending]
        todo_keys = [keys[i] for i in pending]
        executed, pool_error = None, ""
        parallel = pool_mod.use_pool(jobs, len(todo))
        if jobs > 1:
            metrics.inc("dispatch.parallel_chosen" if parallel
                        else "dispatch.serial_chosen")
        if parallel:
            executed, pool_error = _execute_on_pool(
                todo, todo_keys, jobs, timeout, store,
                on_ready=notify,
                worker_pool=worker_pool or pool_mod.default_pool())
        if executed is None:
            executed = []
            for spec, key in zip(todo, todo_keys):
                outcome = _run_serial(spec, key, jobs, store=store,
                                      pool_error=pool_error or None)
                executed.append(outcome)
                notify(outcome)
        for i, outcome in zip(pending, executed):
            outcomes[i] = outcome

    for outcome in outcomes:
        if outcome.timed_out:
            metrics.inc("jobs.timeout")
        elif outcome.error is not None:
            metrics.inc("jobs.failed")
        elif not outcome.cache_hit:
            metrics.inc("jobs.executed")
    return outcomes
