"""Persistent worker pool, shared-arena cache, and the dispatch rule.

Before this module every ``run_jobs`` call built a fresh
:class:`~concurrent.futures.ProcessPoolExecutor`, forked workers, ran its
batch, and tore everything down — and every parallel cross-validation
re-published its dataset into a fresh shared-memory arena.  For the
paper-scale fold fits that overhead *dominated*: ``BENCH_pipeline``
recorded the 4-way parallel CV at 0.79× serial.  Two pieces close the
gap:

* :class:`WorkerPool` — one process pool that outlives individual
  ``run_jobs``/``submit_graph`` calls.  Workers are forked once and
  reused across batches (``pool.warm_hits``); the pool self-heals
  (broken-pool respawn mid-batch, task-count recycling in lieu of
  ``max_tasks_per_child`` — which needs 3.11+ and a non-fork start
  method — an idle reaper, and an ``atexit`` shutdown that leaves zero
  worker processes behind).

* :class:`ArenaCache` — parent-side cache of published
  :class:`~repro.runtime.shm.SharedArena` segments keyed by the
  content-hashed ``dataset_token``, so a k-sweep's repeated analyses of
  one dataset publish it **once** (``pool.arena_published`` vs
  ``pool.arena_reused``).  Workers attach through a per-batch
  :class:`WorkerSetup` hook that is cached worker-side by key, so a warm
  worker re-attaches nothing either.

:func:`use_pool` is the one serial-vs-parallel rule.  Pool workers are
leaves: they run jobs with ``jobs=1`` and never reach a pool, and a
forked child forgets the parent's singletons (:func:`_forget_inherited`).

Everything here is a performance tier, never a correctness one: results
are byte-identical across serial, cold-pool and warm-pool paths (the
scheduler's outcome ordering and the folds' deterministic merge are
unchanged), and a pool that cannot be built or breaks degrades to the
scheduler's in-process fallback exactly as before.

Lint: this file and ``scheduler.py`` are the only sanctioned pool
construction sites (RL005); constructing executors anywhere else fails
``repro.lint``.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
import traceback
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from repro.runtime.metrics import METRICS
from repro.runtime.shm import SharedArena

#: Tasks a pool serves before its workers are recycled (``max_tasks ×
#: workers`` pool-wide, a stand-in for ``max_tasks_per_child`` that
#: works under fork and on 3.10).  Bounds any slow leak in worker-side
#: caches (attached segments, published datasets, imported modules).
DEFAULT_MAX_TASKS_PER_CHILD = 256

#: Seconds of pool idleness before the reaper shuts the workers down.
DEFAULT_IDLE_TTL_S = 120.0

#: Published datasets kept warm (LRU); each entry is one shm segment.
ARENA_CACHE_BOUND = 8

#: Exceptions a pool build/submit can raise in restricted environments —
#: the scheduler degrades to its in-process path on any of these.
POOL_BUILD_ERRORS = (OSError, PermissionError, ImportError,
                     NotImplementedError, ValueError, RuntimeError)


class WorkerSetupError(RuntimeError):
    """A worker's per-batch setup hook failed.

    Raised *inside* the worker and pickled back; the scheduler treats it
    like a broken pool for the affected job — recompute in the parent,
    where the dataset is still published in-process — without actually
    poisoning the (healthy) pool.
    """


@dataclass(frozen=True)
class WorkerSetup:
    """Idempotent per-batch worker initialization, cached by key.

    The persistent pool cannot use executor initializers (those run only
    at worker spawn, and a warm worker never re-spawns), so batches ship
    this descriptor with every job instead: the first job of a batch to
    reach a given worker runs ``fn(*args)``, and the key is remembered
    so every later job — and every later *batch* with the same key —
    skips it.  Keys must identify content (e.g. ``arena:<dataset
    token>``), making re-runs no-ops by construction.
    """

    key: str
    fn: Callable
    args: tuple = ()


#: Worker-side: setup keys already executed in this process.  Bounded by
#: worker lifetime — task-count recycling replaces the workers long
#: before this grows meaningfully.
_SETUP_DONE: set[str] = set()


def _run_setup(setup: WorkerSetup | None) -> None:
    """Run one setup hook in this (worker) process, once per key."""
    if setup is None or setup.key in _SETUP_DONE:
        return
    try:
        setup.fn(*setup.args)
    except BaseException:
        raise WorkerSetupError(
            f"worker setup {setup.key!r} failed in pid {os.getpid()}:\n"
            f"{traceback.format_exc()}") from None
    _SETUP_DONE.add(setup.key)


def _pool_worker_execute(kind_name: str, spec_dict: dict, tracing: bool,
                         setup: WorkerSetup | None) -> tuple[dict, int, float]:
    """Worker body for the persistent pool: cached setup, then the job."""
    _run_setup(setup)
    from repro.runtime import scheduler
    return scheduler._worker_execute(kind_name, spec_dict, tracing)


class WorkerPool:
    """A process pool that survives between scheduler batches.

    ``acquire``/``release`` bracket one batch; the executor inside is
    built lazily, reused while healthy (``pool.warm_hits``), rebuilt
    after breakage (``pool.respawns``), recycled after serving
    ``max_tasks_per_child × size`` tasks (``pool.recycled``), reaped
    after ``idle_ttl_s`` of disuse (``pool.idle_reaped``), and shut down
    at interpreter exit.  All entry points are thread-safe — the serve
    daemon's request threads share one pool, so growing/recycling waits
    for the pool to go idle (a teardown would cancel a sibling batch's
    pending futures) and blocking worker joins run outside the pool
    lock.
    """

    def __init__(self, max_workers: int | None = None,
                 max_tasks_per_child: int = DEFAULT_MAX_TASKS_PER_CHILD,
                 idle_ttl_s: float = DEFAULT_IDLE_TTL_S,
                 metrics=METRICS) -> None:
        self._lock = threading.RLock()
        self._max_workers = max_workers
        self._max_tasks_per_child = max(1, int(max_tasks_per_child))
        self._idle_ttl_s = float(idle_ttl_s)
        self._metrics = metrics
        self._executor = None
        self._size = 0
        self._tasks_since_spawn = 0
        self._inflight = 0
        self._last_used = time.monotonic()
        self._reaper: threading.Timer | None = None
        #: PIDs of workers retired by a non-blocking discard; probed (and
        #: pruned) by :meth:`leaked_workers`.
        self._retired_pids: set[int] = set()

    # -- executor lifecycle ----------------------------------------------

    def _build(self, workers: int):
        # Resolved through the scheduler module so tests (and tools) that
        # monkeypatch ``scheduler.ProcessPoolExecutor`` reach the warm
        # pool's construction too.
        from repro.runtime import scheduler
        return scheduler.ProcessPoolExecutor(max_workers=workers)

    def acquire(self, jobs: int):
        """A ready executor sized for ``jobs``; returns ``(executor,
        fresh)`` where ``fresh`` says the workers were just forked.

        Raises one of :data:`POOL_BUILD_ERRORS` when a pool cannot be
        built here; callers fall back to in-process execution.  Pair
        every successful acquire with :meth:`release` in a ``finally``.
        """
        want = max(1, int(jobs))
        if self._max_workers is not None:
            want = min(want, self._max_workers)
        stale = None
        try:
            with self._lock:
                self._cancel_reaper()
                if (self._executor is not None and self._inflight == 0
                        and (self._size < want
                             or self._tasks_since_spawn
                             >= self._max_tasks_per_child * self._size)):
                    # Grow (a bigger batch deserves the workers it asked
                    # for) or recycle (task budget spent) — but only while
                    # idle: with another batch in flight, tearing the
                    # executor down would cancel its pending futures
                    # mid-batch.  An undersized or over-budget executor
                    # keeps serving until the next idle acquire.
                    stale = self._detach_locked()
                    self._metrics.inc("pool.recycled")
                fresh = self._executor is None
                if fresh:
                    self._executor = self._build(want)
                    self._size = want
                    self._tasks_since_spawn = 0
                    self._metrics.inc("pool.spawns")
                else:
                    self._metrics.inc("pool.warm_hits")
                self._inflight += 1
                self._last_used = time.monotonic()
                executor = self._executor
        finally:
            self._shutdown_detached(stale, wait=True)
        return executor, fresh

    def release(self) -> None:
        """End one batch; arms the idle reaper when nothing is running."""
        with self._lock:
            self._inflight = max(0, self._inflight - 1)
            self._last_used = time.monotonic()
            if self._inflight == 0 and self._executor is not None:
                self._arm_reaper()

    def respawn_now(self, jobs: int):
        """Replace a broken executor mid-batch; returns the new one.

        The dead workers are discarded without waiting (they are gone or
        wedged) and a fresh pool comes up for the batch's remaining
        jobs.  Raises like :meth:`acquire` when the rebuild fails.
        """
        want = max(1, int(jobs))
        if self._max_workers is not None:
            want = min(want, self._max_workers)
        stale = None
        try:
            with self._lock:
                stale = self._detach_locked()
                self._executor = self._build(want)
                self._size = want
                self._tasks_since_spawn = 0
                self._metrics.inc("pool.respawns")
                executor = self._executor
        finally:
            self._shutdown_detached(stale, wait=False)
        return executor

    def note_tasks(self, n: int) -> None:
        """Account ``n`` submitted tasks toward the recycle threshold."""
        with self._lock:
            self._tasks_since_spawn += max(0, int(n))

    def discard(self, wait: bool = False) -> None:
        """Drop the current executor (broken/timeout/poisoned-batch path)."""
        with self._lock:
            stale = self._detach_locked()
        self._shutdown_detached(stale, wait=wait)

    def shutdown(self) -> None:
        """Shut the pool down, waiting for workers to exit."""
        self.discard(wait=True)

    def _detach_locked(self):
        """Swap the executor out under the lock; returns it (or ``None``).

        Pair with :meth:`_shutdown_detached` *after* releasing the lock:
        a waited ``executor.shutdown`` joins worker processes, and a
        slow-to-exit worker must not block concurrent ``acquire`` /
        ``release`` callers on the pool lock for the duration.
        """
        executor, self._executor = self._executor, None
        self._size = 0
        self._tasks_since_spawn = 0
        self._cancel_reaper()
        if executor is not None:
            procs = getattr(executor, "_processes", None) or {}
            self._retired_pids.update(procs.keys())
        return executor

    def _shutdown_detached(self, executor, wait: bool) -> None:
        """Shut a detached executor down (call without the pool lock)."""
        if executor is None:
            return
        procs = getattr(executor, "_processes", None) or {}
        pids = set(procs.keys())
        try:
            executor.shutdown(wait=wait, cancel_futures=True)
        except Exception:
            pass
        if wait:
            # A waited shutdown joined these workers; they can't linger.
            with self._lock:
                self._retired_pids -= pids

    # -- idle reaper ------------------------------------------------------

    def _arm_reaper(self) -> None:
        self._cancel_reaper()
        timer = threading.Timer(self._idle_ttl_s, self._reap_if_idle)
        timer.daemon = True
        self._reaper = timer
        timer.start()

    def _cancel_reaper(self) -> None:
        if self._reaper is not None:
            self._reaper.cancel()
            self._reaper = None

    def _reap_if_idle(self) -> None:
        with self._lock:
            idle_for = time.monotonic() - self._last_used
            if not (self._inflight == 0 and self._executor is not None
                    and idle_for >= self._idle_ttl_s * 0.5):
                return
            stale = self._detach_locked()
            self._metrics.inc("pool.idle_reaped")
        self._shutdown_detached(stale, wait=True)

    # -- introspection ----------------------------------------------------

    @property
    def is_warm(self) -> bool:
        with self._lock:
            return self._executor is not None

    def worker_pids(self) -> tuple:
        """PIDs of the current executor's workers (sorted)."""
        with self._lock:
            if self._executor is None:
                return ()
            procs = getattr(self._executor, "_processes", None) or {}
            return tuple(sorted(procs.keys()))

    def leaked_workers(self) -> list[int]:
        """Previously-retired worker PIDs that are still alive.

        Empty after any waited shutdown; a non-blocking discard may show
        workers here briefly while they notice the broken pipe and exit.
        Dead PIDs are pruned on every call so a recycled OS pid can never
        be misreported later.
        """
        with self._lock:
            alive = []
            for pid in sorted(self._retired_pids):
                try:
                    os.kill(pid, 0)
                except OSError:
                    self._retired_pids.discard(pid)
                else:
                    alive.append(pid)
            return alive


class ArenaCache:
    """Published shared-memory datasets kept warm across analyses.

    Keyed by the content-hashed ``dataset_token`` — the same bytes hash
    to the same token, so replaying a cached handle to a worker is
    correct by construction.  LRU-bounded; evicted (and all) segments
    are destroyed through their owning arena, and the whole cache is
    torn down with the default pool at exit, so ``/dev/shm`` ends every
    process empty.
    """

    def __init__(self, bound: int = ARENA_CACHE_BOUND,
                 metrics=METRICS) -> None:
        self._lock = threading.Lock()
        self._bound = max(1, int(bound))
        self._metrics = metrics
        self._entries: OrderedDict[str, tuple] = OrderedDict()

    def handle_for(self, token: str, matrix, y):
        """The (possibly cached) handle of a published dataset.

        Publishes at most once per token; returns ``None`` when shared
        memory is unavailable (callers fall back to pickling).
        """
        with self._lock:
            entry = self._entries.get(token)
            if entry is not None:
                self._entries.move_to_end(token)
                self._metrics.inc("pool.arena_reused")
                return entry[1]
        arena = SharedArena()
        handle = arena.publish(token, matrix, y)
        if handle is None:
            return None
        with self._lock:
            raced = self._entries.get(token)
            if raced is not None:
                # Another thread published the same bytes first; keep
                # theirs, drop ours.
                self._entries.move_to_end(token)
                self._metrics.inc("pool.arena_reused")
            else:
                self._entries[token] = (arena, handle)
                self._metrics.inc("pool.arena_published")
                while len(self._entries) > self._bound:
                    _, (old_arena, _) = self._entries.popitem(last=False)
                    old_arena.destroy()
                    self._metrics.inc("pool.arena_evicted")
                return handle
        arena.destroy()
        return raced[1]

    def evict(self, token: str) -> None:
        """Destroy one dataset's segments (crash-path hygiene)."""
        with self._lock:
            entry = self._entries.pop(token, None)
        if entry is not None:
            entry[0].destroy()

    def destroy_all(self) -> None:
        with self._lock:
            entries, self._entries = self._entries, OrderedDict()
        for arena, _ in entries.values():
            arena.destroy()

    def tokens(self) -> tuple:
        with self._lock:
            return tuple(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def use_pool(jobs: int, pending: int) -> bool:
    """The serial-vs-parallel rule: a process pool only for ``jobs >= 2``,
    at least two pending specs and at least two usable CPUs.  Anything
    less can only add fork and transport overhead."""
    return jobs >= 2 and pending >= 2 and usable_cpus() >= 2


# -- module singletons -----------------------------------------------------

_DEFAULT_POOL: WorkerPool | None = None
_DEFAULT_ARENAS: ArenaCache | None = None
_SINGLETON_LOCK = threading.Lock()


def default_pool() -> WorkerPool:
    """The process-wide warm pool (created on first use)."""
    global _DEFAULT_POOL
    with _SINGLETON_LOCK:
        if _DEFAULT_POOL is None:
            _DEFAULT_POOL = WorkerPool()
        return _DEFAULT_POOL


def arena_cache() -> ArenaCache:
    """The process-wide published-dataset cache (created on first use)."""
    global _DEFAULT_ARENAS
    with _SINGLETON_LOCK:
        if _DEFAULT_ARENAS is None:
            _DEFAULT_ARENAS = ArenaCache()
        return _DEFAULT_ARENAS


def shutdown_default() -> None:
    """Shut down the warm pool and destroy cached arenas (atexit hook).

    Safe to call repeatedly; the singletons rebuild lazily on next use.
    """
    global _DEFAULT_POOL, _DEFAULT_ARENAS
    with _SINGLETON_LOCK:
        pool, _DEFAULT_POOL = _DEFAULT_POOL, None
        arenas, _DEFAULT_ARENAS = _DEFAULT_ARENAS, None
    if pool is not None:
        pool.shutdown()
    if arenas is not None:
        arenas.destroy_all()


def _forget_inherited() -> None:
    """Fork child: drop the parent's pool, arenas and singleton lock.

    A forked child holds copies of objects whose threads and processes
    belong to the parent: the pool's executor has no manager thread
    here, the arenas are the parent's to unlink, and the lock may have
    been held by a parent thread at fork time.  Forgetting them (never
    shutting them down) leaves the parent's pool untouched.
    """
    global _DEFAULT_POOL, _DEFAULT_ARENAS, _SINGLETON_LOCK
    _DEFAULT_POOL = None
    _DEFAULT_ARENAS = None
    _SINGLETON_LOCK = threading.Lock()


atexit.register(shutdown_default)
os.register_at_fork(after_in_child=_forget_inherited)
