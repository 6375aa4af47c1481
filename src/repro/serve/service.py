"""The daemon's application layer: request → spec → coalesce → schedule.

:class:`AnalysisService` is the HTTP-free heart of ``repro serve`` (the
server in :mod:`repro.serve.server` is a thin transport over it, and the
tests drive it directly with threads).  One request flows through five
stages, each reusing an existing runtime piece rather than inventing a
parallel one:

1. **Normalize** — the body parses into a frozen request whose identity
   is a content hash (:mod:`repro.serve.protocol`); for ``analyze`` that
   identity *is* ``JobSpec.key``.
2. **Warm probe** — the daemon's :class:`~repro.runtime.cache.ResultCache`
   is consulted directly; a valid entry is rendered and returned without
   touching admission or the scheduler at all.
3. **Coalesce** — cold requests join the
   :class:`~repro.runtime.coalesce.JobCoalescer`; concurrent identical
   requests elect one leader, everyone else waits for its flight.
4. **Derive** — an analyze leader whose execution (``JobSpec.curve_key``)
   already has a stored result at a larger ``k_max`` cuts that result's
   RE curve to its own k (:meth:`JobResult.truncated`) and stores it,
   with no admission slot and no CV.
5. **Admit + schedule** — otherwise the leader takes an admission slot
   (bounded in-flight + bounded queue, shed beyond that) and runs the
   job's stage graph through the normal
   :func:`~repro.runtime.graph.submit_graph` path, so stored entries and
   metrics look exactly like a CLI run's.

Determinism contract: every response carries a ``body`` whose fields
are pure functions of the request parameters (the ``report`` field is
rendered by the *same* functions the CLI prints through), plus a
``served`` section (cache_hit / coalesced) that may differ between
otherwise-identical requests.  Profile responses are the one documented
exception: their stage *structure* is deterministic, the measured wall
times under ``measured`` are not — a profile that always returned the
same numbers would not be measuring anything.

Deadlines are monotonic-clock arithmetic only and bound the *waiting*
(admission queue, coalesced flight, pool timeout); an already-executing
in-process job is never preempted, same as the CLI.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from repro.runtime.cache import ResultCache, default_cache_dir, store_scope
from repro.runtime.coalesce import (CoalescedFailure, CoalesceTimeout,
                                    JobCoalescer)
from repro.runtime import pool as pool_mod
from repro.runtime import stages
from repro.runtime.graph import submit_graph
from repro.runtime.jobs import JobResult, JobSpec
from repro.runtime.metrics import METRICS
from repro.runtime.scheduler import stored_result
from repro.serve.admission import (AdmissionController, DeadlineExceeded,
                                   ShedLoad)
from repro.serve.protocol import (PROTOCOL_VERSION, AnalyzeRequest,
                                  CensusRequest, ProfileRequest,
                                  ProtocolError, SweepRequest,
                                  parse_request)


@dataclass(frozen=True)
class ServeConfig:
    """Everything ``repro serve`` can tune, resolved once at startup."""

    host: str = "127.0.0.1"
    port: int = 8100
    #: Concurrent computations (admission slots).
    max_inflight: int = 2
    #: Requests allowed to wait for a slot before shedding starts.
    max_queue: int = 16
    #: Default per-request deadline in seconds (None = wait forever).
    default_deadline_s: float | None = 60.0
    #: Per-job timeout handed to the scheduler (pool path only).
    job_timeout_s: float | None = None
    #: Cache location (None = $REPRO_CACHE_DIR or ~/.cache/repro).
    cache_dir: Path | None = None
    #: Keep the daemon's store in a temporary directory removed at
    #: close instead of the disk cache (repeats still answer warm).
    no_cache: bool = False
    #: Bound on store entries of all kinds together; pruned after each
    #: store (0 = unbounded).
    cache_max_entries: int = 4096
    #: Worker processes for census fan-out (1 = in-process).
    census_jobs: int = 1
    #: Worker processes for sweep fan-out (1 = in-process).
    sweep_jobs: int = 1
    #: Root for sweep state (manifest/partials/table per space); None =
    #: ``sweeps/`` under the daemon's store root: the cache directory,
    #: or under ``no_cache`` the temporary store removed at close.
    sweep_dir: Path | None = None

    def build_store(self, metrics=METRICS) -> ResultCache | None:
        """The disk store, or ``None`` under ``no_cache`` (the service
        then holds a temporary one)."""
        if self.no_cache:
            return None
        return ResultCache(self.cache_dir or default_cache_dir(),
                           metrics=metrics)


class AnalysisService:
    """One long-lived analysis daemon (transport-agnostic)."""

    def __init__(self, config: ServeConfig | None = None,
                 metrics=METRICS) -> None:
        self.config = config or ServeConfig()
        self.metrics = metrics
        self.coalescer = JobCoalescer(metrics=metrics)
        self.admission = AdmissionController(
            max_inflight=self.config.max_inflight,
            max_queue=self.config.max_queue, metrics=metrics)
        # One store for the daemon's lifetime (closed by :meth:`close`):
        # every request publishes and reuses results, traces and
        # datasets across requests.  Without a usable disk cache it is
        # a temporary store, bounded like the disk one.
        self._scope = contextlib.ExitStack()
        self.store = self._scope.enter_context(
            store_scope(self.config.build_store(metrics), metrics=metrics))
        self.stage_counters = stages.StageCounters()
        self._started_monotonic = time.monotonic()
        self._stage_lock = threading.Lock()
        # curve_key -> (k_max, key) of the longest analysis returned for
        # that execution; keys only, LRU-bounded like the store.
        self._curves: OrderedDict[str, tuple[int, str]] = OrderedDict()
        self._curves_lock = threading.Lock()

    # -- GET endpoints ----------------------------------------------------
    def healthz(self) -> dict:
        """Cheap liveness probe (no locks beyond counters)."""
        return {"protocol": PROTOCOL_VERSION, "schema": PROTOCOL_VERSION,
                "status": "ok", "uptime_s": round(self.uptime_s(), 3)}

    def stats(self) -> dict:
        """The daemon's runtime contract, observable.

        Everything the burn-in harness asserts lives here: coalesce
        counts prove the dedup, ``cache.entries`` (every entry of the
        store, the number ``max_entries`` bounds) proves bounded growth.
        """
        snap = self.metrics.snapshot()["counters"]
        store_stats = self.store.stats()
        hits = snap.get("cache.hit", 0)
        misses = snap.get("cache.miss", 0)
        return {
            "protocol": PROTOCOL_VERSION,
            "schema": PROTOCOL_VERSION,
            "uptime_s": round(self.uptime_s(), 3),
            "requests": {
                "total": snap.get("serve.requests", 0),
                "analyze": snap.get("serve.request.analyze", 0),
                "census": snap.get("serve.request.census", 0),
                "profile": snap.get("serve.request.profile", 0),
                "sweep": snap.get("serve.request.sweep", 0),
                "errors": snap.get("serve.errors", 0),
                "shed": snap.get("admission.shed", 0),
                "deadline_expired":
                    snap.get("admission.deadline_expired", 0)
                    + snap.get("coalesce.wait_timeout", 0),
            },
            "cache": {
                "hit": hits,
                "miss": misses,
                "hit_rate": round(hits / (hits + misses), 4)
                    if hits + misses else 0.0,
                "stores": snap.get("cache.store", 0),
                "pruned": snap.get("cache.pruned", 0),
                "warm_responses": snap.get("serve.warm_hit", 0),
                "derived": snap.get("serve.curve_derived", 0),
                "entries": store_stats.entries,
                "by_kind": store_stats.by_kind,
                "total_bytes": store_stats.total_bytes,
                "max_entries": self.config.cache_max_entries,
            },
            "artifacts": self._artifact_section(snap),
            "coalesce": {
                "leaders": snap.get("coalesce.leader", 0),
                "followers": snap.get("coalesce.follower", 0),
                "in_flight": self.coalescer.in_flight(),
                "waiters": self.coalescer.waiters(),
            },
            "admission": self.admission.depth() | {
                "admitted": snap.get("admission.admitted", 0),
                "shed": snap.get("admission.shed", 0),
            },
            "jobs": {
                "executed": snap.get("jobs.executed", 0),
                "failed": snap.get("jobs.failed", 0),
                "timeout": snap.get("jobs.timeout", 0),
            },
            "pool": {
                "warm_hits": snap.get("pool.warm_hits", 0),
                "spawns": snap.get("pool.spawns", 0),
                "respawns": snap.get("pool.respawns", 0),
                "recycled": snap.get("pool.recycled", 0),
                "idle_reaped": snap.get("pool.idle_reaped", 0),
                "workers": list(pool_mod.default_pool().worker_pids()),
            },
            "dispatch": {
                "serial_chosen": snap.get("dispatch.serial_chosen", 0),
                "parallel_chosen": snap.get("dispatch.parallel_chosen", 0),
            },
        }

    def _artifact_section(self, snap: dict) -> dict:
        """The array-entry slice of :meth:`stats` (traces, datasets).

        Counter semantics: ``hits``/``misses`` are store probes in *this*
        process (stage reuse inside pool workers doesn't travel through
        metrics), so cross-process reuse is what ``stage_cache`` and
        ``stages`` — tallied from returned outcomes — record.
        """
        section = {
            "hits": snap.get("artifact.hit", 0),
            "misses": snap.get("artifact.miss", 0),
            "stores": snap.get("artifact.store", 0),
            "pruned": snap.get("artifact.pruned", 0),
            "quarantined": snap.get("artifact.quarantined", 0),
        }
        with self._stage_lock:
            section.update(self.stage_counters.to_dict())
        return section

    def uptime_s(self) -> float:
        return time.monotonic() - self._started_monotonic

    def close(self) -> None:
        """Release the daemon's store (a temporary one is removed);
        idempotent."""
        self._scope.close()

    # -- POST endpoints ---------------------------------------------------
    def handle(self, path: str, body: dict) -> tuple[int, dict]:
        """Route one POST request; returns ``(http_status, body)``."""
        self.metrics.inc("serve.requests")
        try:
            request = parse_request(path, body)
        except ProtocolError as exc:
            self.metrics.inc("serve.errors")
            return exc.status, self._error_body(path.lstrip("/"), str(exc))
        self.metrics.inc(f"serve.request.{request.endpoint}")
        deadline = self._deadline_for(request)
        try:
            if isinstance(request, AnalyzeRequest):
                return self._handle_analyze(request, deadline)
            if isinstance(request, CensusRequest):
                return self._handle_census(request, deadline)
            if isinstance(request, SweepRequest):
                return self._handle_sweep(request, deadline)
            return self._handle_profile(request, deadline)
        except ShedLoad as exc:
            return 429, self._error_body(
                request.endpoint, f"overloaded, retry later: {exc}")
        except (DeadlineExceeded, CoalesceTimeout) as exc:
            self.metrics.inc("serve.errors")
            return 504, self._error_body(
                request.endpoint, f"deadline exceeded: {exc}")
        except CoalescedFailure as exc:
            self.metrics.inc("serve.errors")
            return 500, self._error_body(request.endpoint, str(exc))

    # -- analyze ----------------------------------------------------------
    def _handle_analyze(self, req: AnalyzeRequest,
                        deadline: float | None) -> tuple[int, dict]:
        spec = req.to_spec()
        key = spec.key
        warm = self._cached_result(key)
        if warm is not None:
            self.metrics.inc("serve.warm_hit")
            self._note_curve(spec)
            return 200, self._respond(req, self._analyze_body(req, key, warm),
                                      cache_hit=True, coalesced=False)

        def compute() -> tuple[int, dict]:
            derived = self._derive_analysis(spec)
            if derived is not None:
                return 200, self._analyze_body(req, key, derived)
            with self.admission.admit(deadline):
                outcome = self._run_analysis(spec, deadline)
            if not outcome.ok:
                status = 504 if outcome.timed_out else 500
                return status, self._error_body(
                    "analyze", "analysis failed", key=key,
                    traceback=outcome.error)
            self._note_curve(spec)
            self._after_store()
            return 200, self._analyze_body(req, key, outcome.result)

        (status, body), leader = self.coalescer.run(
            key, compute, wait_timeout=self._remaining(deadline))
        if status != 200:
            self.metrics.inc("serve.errors")
            return status, body
        return status, self._respond(req, body, cache_hit=False,
                                     coalesced=not leader)

    def _run_analysis(self, spec, deadline: float | None):
        """One analysis through the staged graph; its final outcome.

        The request runs as collect → eipv → analysis stage nodes
        against the daemon's store, so a later request over the same
        measured execution (a different ``k_max``, a different interval
        size) reuses the stored trace instead of re-simulating.
        """
        graph = stages.analysis_graph([spec], store=self.store)
        outcomes = submit_graph(graph, jobs=1, store=self.store,
                                timeout=self._remaining(deadline),
                                metrics=self.metrics)
        final = None
        with self._stage_lock:
            for outcome in outcomes:
                if not self.stage_counters.observe(outcome):
                    final = outcome
        return final

    def _cached_result(self, key: str) -> JobResult | None:
        """The stored :class:`JobResult` under ``key``, or None — the
        scheduler's own validation, so an entry it would reject is
        quarantined here too and the request computes."""
        return stored_result(self.store, JobResult, key, self.metrics)

    def _note_curve(self, spec: JobSpec) -> None:
        """Record ``spec`` as its execution's longest analysis if it is.

        Called once ``spec``'s result is in the store (computed, or read
        warm).
        """
        with self._curves_lock:
            longest = self._curves.get(spec.curve_key)
            if longest is None or spec.k_max > longest[0]:
                self._curves[spec.curve_key] = (spec.k_max, spec.key)
            self._curves.move_to_end(spec.curve_key)
            bound = self.config.cache_max_entries
            while bound and len(self._curves) > bound:
                self._curves.popitem(last=False)

    def _derive_analysis(self, spec: JobSpec) -> JobResult | None:
        """``spec``'s result cut from a longer cached curve, or None.

        The RE curve at ``k_max=k`` is the first k entries of the curve
        at any larger ``k_max`` over the same execution (see
        :meth:`JobResult.truncated`, which also says why k = 1 is
        excluded).  The derived result is stored under ``spec.key`` like
        a computed one; a longer entry that has been pruned from the
        store drops out of the index and the request computes.
        """
        with self._curves_lock:
            longest = self._curves.get(spec.curve_key)
        if longest is None or not 2 <= spec.k_max <= longest[0]:
            return None
        source = self._cached_result(longest[1])
        if source is None:
            with self._curves_lock:
                if self._curves.get(spec.curve_key) == longest:
                    del self._curves[spec.curve_key]
            return None
        result = source.truncated(spec)
        try:
            self.store.put(spec.key, result.to_dict(), spec=spec.canonical())
        except OSError:
            self.metrics.inc("cache.store_failed")
        self.metrics.inc("serve.curve_derived")
        self._after_store()
        return result

    def _analyze_body(self, req: AnalyzeRequest, key: str,
                      result: JobResult) -> dict:
        """The deterministic analyze body (identical for every client)."""
        from repro.cli import analysis_report_text
        return {
            "protocol": PROTOCOL_VERSION,
            "schema": PROTOCOL_VERSION,
            "endpoint": "analyze",
            "key": key,
            "result": result.to_dict(),
            "report": analysis_report_text(
                result.to_result(), workload=req.workload,
                n_intervals=req.n_intervals, scale=req.scale,
                seed=req.seed),
        }

    # -- census -----------------------------------------------------------
    def _handle_census(self, req: CensusRequest,
                       deadline: float | None) -> tuple[int, dict]:
        from repro.experiments import table2_quadrants

        def compute() -> tuple[int, dict]:
            with self.admission.admit(deadline):
                try:
                    result = table2_quadrants.run(
                        workloads=list(req.workloads) or None,
                        seed=req.seed, k_max=req.k_max,
                        jobs=self.config.census_jobs, store=self.store,
                        timeout=self._remaining(deadline))
                except RuntimeError as exc:
                    return 500, self._error_body(
                        "census", f"census failed: {exc}", key=req.key)
            self._after_store()
            return 200, {
                "protocol": PROTOCOL_VERSION,
                "schema": PROTOCOL_VERSION,
                "endpoint": "census",
                "key": req.key,
                "workloads": [e.workload for e in result.entries],
                "counts": result.counts,
                "match_count": result.match_count,
                "total": result.total,
                "report": table2_quadrants.render(result),
            }

        (status, body), leader = self.coalescer.run(
            req.key, compute, wait_timeout=self._remaining(deadline))
        if status != 200:
            self.metrics.inc("serve.errors")
            return status, body
        return status, self._respond(req, body, cache_hit=False,
                                     coalesced=not leader)

    # -- sweep ------------------------------------------------------------
    def _handle_sweep(self, req: SweepRequest,
                      deadline: float | None) -> tuple[int, dict]:
        """Run (or resume) a sweep; the daemon owns the sweep directory.

        The directory is keyed by the space, so a repeated or previously
        killed request resumes: completed shards are skipped and
        completed points of incomplete shards come back as cache hits —
        the same resumability contract ``repro sweep`` has.
        """
        from repro.sweep import (DEFAULT_SHARDS, SweepError, SweepStateError,
                                 run_sweep)
        space = req.to_space()

        def compute() -> tuple[int, dict]:
            with self.admission.admit(deadline):
                root = (Path(self.config.sweep_dir)
                        if self.config.sweep_dir is not None
                        else self.store.root / "sweeps")
                sweep_dir = root / space.key[:16]
                try:
                    outcome = run_sweep(
                        space, sweep_dir,
                        jobs=self.config.sweep_jobs,
                        shards=req.shards or DEFAULT_SHARDS,
                        store=self.store,
                        timeout=self._remaining(deadline))
                except (SweepError, SweepStateError) as exc:
                    return 500, self._error_body(
                        "sweep", f"sweep failed: {exc}", key=req.key)
            self._after_store()
            return 200, {
                "protocol": PROTOCOL_VERSION,
                "schema": PROTOCOL_VERSION,
                "endpoint": "sweep",
                "key": req.key,
                "space_key": outcome.space_key,
                "n_points": outcome.n_points,
                "n_shards": outcome.n_shards,
                "report": outcome.report,
            }

        (status, body), leader = self.coalescer.run(
            req.key, compute, wait_timeout=self._remaining(deadline))
        if status != 200:
            self.metrics.inc("serve.errors")
            return status, body
        return status, self._respond(req, body, cache_hit=False,
                                     coalesced=not leader)

    # -- profile ----------------------------------------------------------
    def _handle_profile(self, req: ProfileRequest,
                        deadline: float | None) -> tuple[int, dict]:
        from repro import api

        def compute() -> tuple[int, dict]:
            with self.admission.admit(deadline):
                try:
                    result = api.profile(
                        list(req.workloads),
                        config=api.AnalysisConfig(k_max=req.k_max,
                                                  seed=req.seed),
                        n_intervals=req.n_intervals, machine=req.machine,
                        scale=req.scale, jobs=1,
                        timeout=self._remaining(deadline))
                except ValueError as exc:
                    # A job spec refused the request's values; nothing
                    # ran.
                    return 400, self._error_body("profile", str(exc),
                                                 key=req.key)
                except RuntimeError as exc:
                    return 500, self._error_body(
                        "profile", f"profile failed: {exc}", key=req.key)
            return 200, {
                "protocol": PROTOCOL_VERSION,
                "schema": PROTOCOL_VERSION,
                "endpoint": "profile",
                "key": req.key,
                # Deterministic: the stage structure of the pipeline.
                "stages": list(result.stage_names()),
                # Measured: real wall time, different every run — the
                # one documented exception to byte-identity.
                "measured": {
                    "total_wall_s": round(result.total_wall_s, 6),
                    "report": result.report(top=req.top),
                },
            }

        (status, body), leader = self.coalescer.run(
            req.key, compute, wait_timeout=self._remaining(deadline))
        if status != 200:
            self.metrics.inc("serve.errors")
            return status, body
        return status, self._respond(req, body, cache_hit=False,
                                     coalesced=not leader)

    # -- shared plumbing --------------------------------------------------
    def _respond(self, req, body: dict, *, cache_hit: bool,
                 coalesced: bool) -> dict:
        """Attach the per-request ``served`` section (copy, don't mutate:
        the body object is shared by every coalesced waiter)."""
        out = dict(body)
        if getattr(req, "render", True) is False:
            out.pop("report", None)
        out["served"] = {"cache_hit": cache_hit, "coalesced": coalesced}
        return out

    def _error_body(self, endpoint: str, message: str, key: str = "",
                    traceback: str | None = None) -> dict:
        body = {"protocol": PROTOCOL_VERSION, "schema": PROTOCOL_VERSION,
                "endpoint": endpoint, "error": message}
        if key:
            body["key"] = key
        if traceback:
            body["traceback"] = traceback
        return body

    def _deadline_for(self, request) -> float | None:
        seconds = request.deadline_s
        if seconds is None:
            seconds = self.config.default_deadline_s
        if seconds is None:
            return None
        return time.monotonic() + seconds

    def _remaining(self, deadline: float | None) -> float | None:
        """Seconds left before ``deadline``, floored at ~0, capped by the
        configured per-job timeout (the scheduler applies it on the pool
        path; in-process execution is not preempted)."""
        remaining = None
        if deadline is not None:
            remaining = max(0.001, deadline - time.monotonic())
        timeout = self.config.job_timeout_s
        if timeout is None:
            return remaining
        if remaining is None:
            return timeout
        return min(timeout, remaining)

    def _after_store(self) -> None:
        """Post-store housekeeping: bound the store, disk or temporary."""
        bound = self.config.cache_max_entries
        if bound:
            self.store.prune(bound)
