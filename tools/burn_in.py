#!/usr/bin/env python3
"""Burn-in load harness for the ``repro serve`` daemon.

Boots an in-process daemon on an ephemeral port, hammers it from
concurrent client threads with a mixed request stream (hot repeats of
one spec to provoke coalescing, a rotating tail of distinct specs to
provoke cache churn), then asserts the daemon's long-run invariants:

* **No leaked temporary stores** — the in-process ``analyze --jobs 2``
  writes its fold dataset into a temporary ``repro-folds-*`` directory
  and, run with ``--no-cache``, its stage artifacts into a temporary
  ``repro-stages-*`` one; no such directory that was not there before
  the run survives it, or the pool shutdown.
* **No leaked worker processes** — the daemon's warm worker pool
  (census requests fan out across it) shuts down with every forked
  worker joined and dead; ``leaked_workers()`` reports nothing.
* **Bounded cache growth** — the daemon's store holds at most the
  configured ``cache_max_entries`` entries, of all kinds together.
* **Stats under load** — one client polls ``/v1/stats`` throughout the
  churn; every poll answers 200 with a parseable body, although request
  threads prune the store the stats walk is sizing.
* **Flat RSS** — resident memory after the run is within a tolerance of
  the post-warm-up baseline.  The process keeps no dataset between
  requests: jobs read memmapped artifacts from the daemon's store,
  which pruning bounds, and drop them when they return — so a diverse
  request stream must not grow the process.
* **Byte-identical responses** — for every request kind, the daemon's
  rendered report equals the stdout of a one-shot CLI run of the same
  parameters, byte for byte (profile asserts its deterministic stage
  structure instead; its measured timings are real and therefore vary).
* **Commands share one process safely** — an in-process
  ``repro.cli.main(["analyze", ..., "--jobs", "2"])`` forks warm workers
  in the daemon's own process before the census identity check runs
  its ``census_jobs=2`` fan-out on them.
* **Coalescing works** — with concurrent identical requests in flight,
  ``coalesce.follower`` is non-zero while every response stays
  identical.
* **Smaller k_max is derived** — after one execution is analysed at a
  larger ``k_max``, a smaller one is cut from that curve
  (``cache.derived`` rises, ``jobs.executed`` does not) and still equals
  the one-shot CLI stdout.

Exit status 0 = all invariants held.  ``--json PATH`` writes the
collected metrics for CI artifacts.  ``--quick`` shrinks the run to
~30 s for the CI smoke job; the default run is several minutes.

This is a *tool*, not a test: it exercises the real HTTP stack with
real sockets and a real subprocess CLI comparison, which would be too
slow for the tier-1 suite.
"""

from __future__ import annotations

import argparse
import contextlib
import http.client
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro import cli  # noqa: E402
from repro.runtime import pool as pool_mod  # noqa: E402
from repro.runtime.cache import STAGES_DIR_PREFIX  # noqa: E402
from repro.runtime.folds import FOLDS_DIR_PREFIX  # noqa: E402
from repro.runtime.metrics import MetricsRegistry  # noqa: E402
from repro.serve import ServeConfig, create_server  # noqa: E402

#: The hot spec: every thread repeats it, so identical requests overlap.
HOT = {"workload": "spec.gzip", "intervals": 12, "seed": 7,
       "scale": "tiny", "k_max": 5}
#: The hot spec as uncached ``repro analyze`` arguments.
HOT_ARGS = ["analyze", HOT["workload"], "--intervals", str(HOT["intervals"]),
            "--seed", str(HOT["seed"]), "--scale", HOT["scale"],
            "--k-max", str(HOT["k_max"]), "--no-cache"]
#: Distinct-spec tail for cache churn (seed rotates per request).
CHURN_WORKLOADS = ("spec.art", "spec.mcf", "spec.gcc", "odbc", "sjas")


def temporary_dirs() -> set:
    """``repro-folds-*`` and ``repro-stages-*`` directories in the temp
    dir right now."""
    root = Path(tempfile.gettempdir())
    return {p.name for prefix in (FOLDS_DIR_PREFIX, STAGES_DIR_PREFIX)
            for p in root.glob(f"{prefix}*")}


def rss_kib() -> int:
    """Resident set size of this process, in KiB (Linux)."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise RuntimeError("no VmRSS in /proc/self/status")


def post(base: str, path: str, body: dict, timeout: float = 120.0):
    """``(status, payload, headers)`` for one POST (headers lower-cased)."""
    request = urllib.request.Request(
        base + path, data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            headers = {k.lower(): v for k, v in resp.headers.items()}
            return resp.status, json.loads(resp.read()), headers
    except urllib.error.HTTPError as exc:
        headers = {k.lower(): v for k, v in exc.headers.items()}
        return exc.code, json.loads(exc.read()), headers


def get(base: str, path: str):
    with urllib.request.urlopen(base + path, timeout=30) as resp:
        return resp.status, json.loads(resp.read())


def cli_stdout(args: list) -> str:
    """Stdout of one fresh ``repro`` CLI process (the identity oracle)."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args], capture_output=True,
        text=True, cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin",
             "HOME": tempfile.gettempdir()})
    if proc.returncode != 0:
        raise RuntimeError(f"CLI failed: {args}\n{proc.stderr}")
    return proc.stdout


class BurnIn:
    def __init__(self, seconds: float, threads: int,
                 cache_max_entries: int) -> None:
        self.seconds = seconds
        self.threads = threads
        self.cache_dir = Path(tempfile.mkdtemp(prefix="repro-burnin-"))
        self.metrics = MetricsRegistry()
        self.server = create_server(
            ServeConfig(host="127.0.0.1", port=0, cache_dir=self.cache_dir,
                        max_inflight=2, max_queue=64,
                        default_deadline_s=120.0,
                        cache_max_entries=cache_max_entries,
                        census_jobs=2),  # exercise the warm worker pool
            metrics=self.metrics)
        self.cache_max_entries = cache_max_entries
        self.base = self.server.address
        self.failures: list = []
        self.responses = 0
        self.shed = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._hot_reports: set = set()
        self.stats_polls = 0
        self.stats_failures: list = []
        #: Temporary directories other processes own; never blamed on us.
        self._temporary_dirs_before = temporary_dirs()

    # -- load -------------------------------------------------------------
    def client(self, client_id: int) -> None:
        rounds = 0
        while not self._stop.is_set():
            rounds += 1
            if rounds % 3 == 0:
                # Churn: a distinct spec (rotating seed) to grow the cache
                # past its bound and prove pruning holds the line.
                body = dict(HOT, workload=CHURN_WORKLOADS[
                    rounds % len(CHURN_WORKLOADS)],
                    seed=100 + (client_id * 1000 + rounds) % 200)
            else:
                body = dict(HOT)
            # Alternate the versioned and legacy spellings of the same
            # endpoint: both must serve (and coalesce) identically.
            path = "/v1/analyze" if rounds % 2 else "/analyze"
            try:
                status, payload, _ = post(self.base, path, body)
            except (OSError, ValueError) as exc:
                self._record_failure(f"transport error: {exc}")
                continue
            with self._lock:
                self.responses += 1
                if status == 429:
                    self.shed += 1
                elif status != 200:
                    self._record_failure(
                        f"unexpected status {status}: {payload}",
                        locked=True)
                elif body == HOT:
                    self._hot_reports.add(payload["report"])

    def stats_poller(self) -> None:
        """GET ``/v1/stats`` throughout the churn; a poll must answer 200
        with a parseable body while request threads prune the store."""
        while not self._stop.is_set():
            try:
                status, body = get(self.base, "/v1/stats")
            except (OSError, ValueError, http.client.HTTPException) as exc:
                failure = f"transport error: {exc!r}"
            else:
                failure = (None if status == 200 and isinstance(body, dict)
                           and "cache" in body else f"status {status}")
            with self._lock:
                self.stats_polls += 1
                if failure is not None:
                    self.stats_failures.append(failure)
            self._stop.wait(0.02)

    def _record_failure(self, message: str, locked: bool = False) -> None:
        if locked:
            self.failures.append(message)
            return
        with self._lock:
            self.failures.append(message)

    def start(self) -> None:
        self._server_thread = threading.Thread(
            target=self.server.serve_forever, daemon=True)
        self._server_thread.start()

    def stop(self) -> dict:
        """Final /stats snapshot, then a clean shutdown."""
        _, stats = get(self.base, "/stats")
        self.server.shutdown()
        self.server.server_close()
        self._server_thread.join(10)
        return stats

    def run_load(self) -> dict:

        # Warm-up: one of each request kind, then measure the RSS floor.
        post(self.base, "/v1/analyze", dict(HOT))
        post(self.base, "/v1/census",
             {"workloads": ["spec.gzip", "spec.art"], "k_max": 5})
        post(self.base, "/v1/profile",
             {"workloads": ["spec.gzip"], "intervals": 12, "seed": 7,
              "scale": "tiny", "k_max": 5})
        rss_baseline = rss_kib()

        clients = [threading.Thread(target=self.client, args=(i,))
                   for i in range(self.threads)]
        clients.append(threading.Thread(target=self.stats_poller))
        started = time.monotonic()
        for thread in clients:
            thread.start()
        time.sleep(self.seconds)
        self._stop.set()
        for thread in clients:
            thread.join(60)
        elapsed = time.monotonic() - started

        rss_final = rss_kib()
        return {"elapsed_s": round(elapsed, 1),
                "responses": self.responses, "shed": self.shed,
                "stats_polls": self.stats_polls,
                "rss_baseline_kib": rss_baseline,
                "rss_final_kib": rss_final}

    # -- invariants -------------------------------------------------------
    def check_invariants(self, report: dict) -> None:
        stats = report["stats"]

        # Worker-process leak: shut the warm pool down and prove every
        # forked worker is gone (the daemon shares this process's pool).
        pool = pool_mod.default_pool()
        worker_pids = list(pool.worker_pids())
        pool_mod.shutdown_default()
        self.check_fold_files("after pool shutdown")
        still_alive = []
        for pid in worker_pids:
            try:
                os.kill(pid, 0)
            except OSError:
                pass
            else:
                still_alive.append(pid)
        self._check(not still_alive and not pool.leaked_workers(),
                    "workers",
                    f"worker processes survived pool shutdown: "
                    f"{still_alive or pool.leaked_workers()}")
        report["pool_workers_seen"] = len(worker_pids)

        entries = stats["cache"]["entries"]
        self._check(entries <= self.cache_max_entries, "cache-bound",
                    f"{entries} entries > bound {self.cache_max_entries}")
        self._check(stats["cache"]["pruned"] > 0, "cache-pruned",
                    "churn never triggered a prune — bound untested")
        self._check(self.stats_polls > 0 and not self.stats_failures,
                    "stats-under-load",
                    f"{len(self.stats_failures)} of {self.stats_polls} "
                    f"/v1/stats polls failed; first: "
                    f"{self.stats_failures[:1]}")

        # Flat RSS: allow head-room for allocator slack and thread stacks,
        # but catch anything resembling linear growth under load.
        baseline = report["rss_baseline_kib"]
        final = report["rss_final_kib"]
        budget = max(96 * 1024, int(baseline * 0.35))
        self._check(final - baseline <= budget, "rss",
                    f"RSS grew {final - baseline} KiB "
                    f"(baseline {baseline}, budget {budget})")

        self._check(stats["coalesce"]["followers"] > 0, "coalesce",
                    "no request ever coalesced — herd never overlapped")
        self._check(len(self._hot_reports) == 1, "identity",
                    f"hot spec produced {len(self._hot_reports)} distinct "
                    f"reports (must be exactly 1)")
        self._check(stats["coalesce"]["in_flight"] == 0
                    and stats["admission"]["running"] == 0,
                    "drained", "work still in flight after shutdown")
        self._check(not self.failures, "requests",
                    f"{len(self.failures)} failed requests; first: "
                    f"{self.failures[:1]}")

    def check_fold_files(self, when: str) -> None:
        """No ``repro-folds-*`` or ``repro-stages-*`` directory outlives
        its run."""
        leaked = sorted(temporary_dirs() - self._temporary_dirs_before)
        self._check(not leaked, "fold-files",
                    f"temporary directories left {when}: {leaked}")

    def check_versioning(self) -> None:
        """Both endpoint spellings answer; only the legacy one deprecates.

        The versioned path is the stable surface: its bodies carry
        ``schema`` and it never sends a ``Deprecation`` header.  The bare
        path keeps working (same bytes in the body) but advertises its
        successor via ``Deprecation`` + ``Link``.
        """
        sv, versioned, vh = post(self.base, "/v1/analyze", dict(HOT))
        sl, legacy, lh = post(self.base, "/analyze", dict(HOT))
        self._check(sv == 200 and sl == 200, "versioned-paths",
                    f"statuses {sv}/{sl}")
        # ``served`` (cache_hit/coalesced) is the documented per-request
        # section; everything else must match across spellings.
        self._check({k: v for k, v in versioned.items() if k != "served"}
                    == {k: v for k, v in legacy.items() if k != "served"},
                    "versioned-paths",
                    "versioned and legacy bodies differ")
        self._check(versioned.get("schema") == 1, "schema-field",
                    f"schema {versioned.get('schema')!r} != 1")
        self._check("deprecation" not in vh, "deprecation-header",
                    "versioned path sent a Deprecation header")
        self._check(lh.get("deprecation") == "true"
                    and "/v1/analyze" in lh.get("link", ""),
                    "deprecation-header",
                    f"legacy path headers missing Deprecation/Link: {lh}")

        status, body, _ = post(
            self.base, "/v1/sweep",
            {"workloads": ["spec.gzip", "spec.art"], "seeds": [7],
             "interval_sizes": [10_000_000], "machines": ["itanium2"]})
        self._check(status == 200 and body.get("schema") == 1
                    and body.get("n_points") == 2, "sweep-endpoint",
                    f"status {status}, body keys {sorted(body)}")

    def check_in_process_cli(self) -> None:
        """``analyze --jobs 2`` run through ``repro.cli.main`` in this
        process: its fold fan-out forks the pool the daemon shares, so
        the census identity check after it runs on those workers."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(HOT_ARGS + ["--jobs", "2"])
        self.check_fold_files("after analyze --jobs 2")
        status, body, _ = post(self.base, "/analyze", dict(HOT))
        self._check(code == 0 and status == 200
                    and out.getvalue() == body["report"] + "\n",
                    "in-process-cli",
                    f"exit {code}, status {status}: in-process "
                    "analyze --jobs 2 != daemon report")

    def check_curve_derived(self) -> None:
        """Descending k on one execution: the second answer is derived.

        Runs before the load, while the store is below its bound: the
        sorted prune could otherwise evict the longer entry right after
        it is stored, and the smaller request would compute.
        """
        body = dict(HOT, seed=3)
        post(self.base, "/v1/analyze", dict(body, k_max=9))
        _, before = get(self.base, "/v1/stats")
        status, derived, _ = post(self.base, "/v1/analyze",
                                  dict(body, k_max=6))
        _, after = get(self.base, "/v1/stats")
        derived_delta = after["cache"]["derived"] - before["cache"]["derived"]
        executed_delta = (after["jobs"]["executed"]
                          - before["jobs"]["executed"])
        self._check(status == 200 and derived_delta == 1
                    and executed_delta == 0, "curve-derived",
                    f"status {status}, cache.derived +{derived_delta}, "
                    f"jobs.executed +{executed_delta}")
        expected = cli_stdout(
            ["analyze", body["workload"], "--intervals",
             str(body["intervals"]), "--seed", str(body["seed"]),
             "--scale", body["scale"], "--k-max", "6", "--no-cache"])
        self._check(expected == derived.get("report", "") + "\n",
                    "curve-derived", "derived report != CLI stdout")

    def check_cli_identity(self) -> None:
        """Every request kind answers byte-identically to a one-shot CLI."""
        status, body, _ = post(self.base, "/analyze", dict(HOT))
        self._check(status == 200, "identity-analyze", f"status {status}")
        expected = cli_stdout(HOT_ARGS)
        self._check(expected == body["report"] + "\n", "identity-analyze",
                    "daemon analyze report != CLI stdout")

        status, body, _ = post(self.base, "/census",
                               {"workloads": ["spec.gzip", "spec.art"],
                                "k_max": 5})
        self._check(status == 200, "identity-census", f"status {status}")
        expected = cli_stdout(["census", "spec.gzip", "spec.art",
                               "--k-max", "5", "--cache-dir",
                               str(self.cache_dir / "cli")])
        self._check(expected == body["report"] + "\n", "identity-census",
                    "daemon census report != CLI stdout")

        request = {"workloads": ["spec.gzip"], "intervals": 12, "seed": 7,
                   "scale": "tiny", "k_max": 5}
        status1, first, _ = post(self.base, "/profile", dict(request))
        status2, second, _ = post(self.base, "/profile", dict(request))
        self._check(status1 == 200 and status2 == 200, "identity-profile",
                    f"statuses {status1}/{status2}")
        self._check(first["stages"] == second["stages"] and first["stages"],
                    "identity-profile",
                    "profile stage structure not deterministic")

    def _check(self, ok: bool, name: str, detail: str) -> None:
        if ok:
            print(f"  ok   {name}")
        else:
            print(f"  FAIL {name}: {detail}")
            self.failed_checks.append(f"{name}: {detail}")

    failed_checks: list

    def main(self, json_path: str | None) -> int:
        self.failed_checks = []
        self.start()
        print(f"burn-in: {self.threads} clients for {self.seconds:.0f}s "
              f"against {self.base}")
        self.check_curve_derived()
        report = self.run_load()
        print(f"load done: {report['responses']} responses "
              f"({report['shed']} shed) in {report['elapsed_s']}s")
        print("invariants:")
        self.check_versioning()
        self.check_in_process_cli()
        self.check_cli_identity()
        report["stats"] = self.stop()
        self.check_invariants(report)
        report["checks_failed"] = list(self.failed_checks)
        if json_path:
            Path(json_path).write_text(
                json.dumps(report, indent=2, sort_keys=True) + "\n",
                encoding="utf-8")
            print(f"metrics written to {json_path}")
        if self.failed_checks:
            print(f"burn-in FAILED ({len(self.failed_checks)} invariant(s))")
            return 1
        print("burn-in passed")
        return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=180.0,
                        help="load duration (default: 180)")
    parser.add_argument("--threads", type=int, default=8,
                        help="client threads (default: 8)")
    parser.add_argument("--cache-max-entries", type=int, default=32,
                        help="daemon store bound under churn, entries of "
                             "all kinds (default: 32)")
    parser.add_argument("--quick", action="store_true",
                        help="~30s smoke run (CI)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the metrics report to PATH")
    args = parser.parse_args(argv)
    seconds = 30.0 if args.quick else args.seconds
    threads = min(args.threads, 6) if args.quick else args.threads
    burn = BurnIn(seconds=seconds, threads=threads,
                  cache_max_entries=args.cache_max_entries)
    return burn.main(args.json)


if __name__ == "__main__":
    raise SystemExit(main())
