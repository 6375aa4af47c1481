"""The repro benchmark: cold sweep, artifact-warm refits, warm serving.

    python3 perfbench/run.py --workload sweep_cold --seed 7 --seconds 15 \
        --trace 0

Runs one workload against the real entry points (``python -m repro
sweep`` and ``python -m repro serve --port 0``, each in its own process),
checks the program's outputs, prints every metric by name with its unit
and, as the last line of stdout, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
workload once untraced and once through ``launch.py`` and reports the
per-layer metrics, the tracing overhead and the layer-coverage
self-check.  See ``README.md`` beside this file for the workloads, the
metrics and which layer moves which end-to-end number.

Exit status: 0 when every output check passed, 1 when one failed, 2
when the benchmark cannot run here (no ``src/repro`` beside it).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import threading
import time
from pathlib import Path

import harness
import layers
from harness import Client, Daemon, quantile, repro, run_measured

# -- workload parameters ---------------------------------------------------

#: sweep_cold: every workload on one machine at the three stock interval
#: sizes — 150 points over 50 shared collects, the stock space's shape
#: at a third of its size so a cold run and its serial reference fit in
#: one benchmark run.
SWEEP_SPACE = ("--machines", "itanium2")
SWEEP_POINTS = 150
SWEEP_COLLECTS = 50

#: serve_refit: default-scale executions whose artifacts setup stores.
#: odbc (12 s to collect) is left out so set-up can be repeated, and k
#: stops at 38 so the timed phase fits a run with >= 100 samples for p90.
REFIT_EXECUTIONS = ("odbh.q13", "spec.gzip", "spec.mcf")
REFIT_INTERVALS = 60              # q13 defaults to 132; 60 halves its setup
REFIT_SETUP_K = 4                 # outside the timed k range: no overlap
REFIT_K = range(5, 39)
REFIT_CLIENTS = 2

#: serve_hot: open loop over a warm hot set of tiny-scale analyses (two
#: k values per sampled workload, so setup collects each trace once), a
#: 3-workload census and a small complete sweep.
HOT_RATE = 20.0                   # requests per second
HOT_CONNECTIONS = 2
HOT_WORKLOADS = 8
HOT_K_PER_WORKLOAD = 2
HOT_POOL = ("spec.gzip", "spec.mcf", "spec.art", "spec.gcc", "spec.vpr",
            "spec.parser", "spec.eon", "spec.crafty", "spec.bzip2",
            "spec.twolf", "spec.swim", "spec.mgrid", "spec.applu",
            "spec.equake", "spec.ammp", "spec.lucas", "odbh.q1", "odbh.q6",
            "odbh.q13")
HOT_CENSUS = ("spec.equake", "spec.mgrid", "spec.crafty")
HOT_SWEEP = {"workloads": ["spec.gzip", "spec.vpr", "spec.eon"],
             "machines": ["itanium2", "xeon"],
             "interval_sizes": [2_000_000, 5_000_000], "shards": 4}
#: Exact request shares, shuffled per seed.  Fixed shares keep every
#: reported percentile inside one request class (p50 analyze, p90
#: census) instead of on a boundary that moves with the draw.
HOT_SHARES = (0.85, 0.10, 0.05)   # analyze, census, sweep
#: A generator whose p99 send lag exceeds one inter-arrival gap did not
#: offer the load it claims; such a run is invalid.
HOT_LAG_LIMIT_MS = 1e3 / HOT_RATE

#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = {"sweep_cold": 5, "serve_refit": 2, "serve_hot": 2}


def result_units(trace: bool) -> dict[str, str]:
    """The metrics of the result line, with units, from BENCHMARK.json:
    its ``end_to_end`` list untraced, its ``per_layer`` list traced."""
    spec = json.loads((harness.ROOT / "BENCHMARK.json")
                      .read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"]
            for metric in spec["per_layer" if trace else "end_to_end"]}


class Run:
    """What one workload run measured and which checks it failed."""

    def __init__(self, workload: str, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, float] = {}
        self.report: dict = {}

    def check(self, ok: bool, message: str, ops: int = 1) -> bool:
        """Record an output check; a failed one counts ``ops`` failures."""
        if not ok:
            self.problems.append(message)
            self.failed += ops
        return ok

    def subdir(self, name: str) -> Path:
        path = self.workdir / name
        path.mkdir(parents=True, exist_ok=True)
        return path


def median(values) -> float:
    return quantile(values, 0.5)


# -- sweep_cold --------------------------------------------------------------

def _sweep(run: Run, seed: int, jobs: int, tag: str, launcher: str = ""):
    """One cold sweep into fresh directories; (measured, stats, out)."""
    work = run.subdir(tag)
    args = ("sweep", "--seeds", seed, "--jobs", jobs, *SWEEP_SPACE,
            "--sweep-dir", work / "sweep", "--cache-dir", work / "cache")
    out = work / "launch.json"
    if launcher:
        argv = harness.launched(out, *args, spans=launcher == "spans")
    else:
        argv = repro(*args)
    measured = run_measured(argv, run.workdir)
    try:
        stats = json.loads((work / "sweep" / "runtime_stats.json")
                           .read_text(encoding="utf-8"))
    except (OSError, ValueError):
        stats = {}
    return measured, stats, out


def _check_cold_sweep(run: Run, measured, stats, reference: str,
                      label: str) -> int:
    """Output checks for one cold sweep; returns the points it did."""
    points = stats.get("points", {})
    done = points.get("executed", 0)
    run.attempted += SWEEP_POINTS
    if not run.check(measured.returncode == 0,
                     f"{label}: exit {measured.returncode}\n"
                     + harness.tail(measured.stderr_path), SWEEP_POINTS):
        return 0
    run.check(measured.digest == reference,
              f"{label}: report digest differs from the --jobs 1 run",
              SWEEP_POINTS)
    run.check(done == SWEEP_POINTS and points.get("failed", 0) == 0
              and points.get("cached", 0) == 0,
              f"{label}: points {points}, expected {SWEEP_POINTS} "
              "executed cold", SWEEP_POINTS - done or 1)
    stages = stats.get("stages", {})
    run.check(stages.get("collect_computed") == SWEEP_COLLECTS
              and stages.get("collect_artifact_hits") == 0,
              f"{label}: stages {stages}, expected {SWEEP_COLLECTS} "
              "cold collects")
    return done


def sweep_cold(run: Run, seed: int, seconds: float, trace: bool) -> None:
    ref, _, _ = _sweep(run, seed, 1, "reference")
    if ref.returncode != 0:
        raise RuntimeError("reference --jobs 1 sweep failed:\n"
                           + harness.tail(ref.stderr_path))
    reference = ref.digest
    run.report["reference_jobs1_s"] = ref.wall_s

    if trace:
        _sweep_cold_traced(run, seed, ref)
        return

    # Set-up of a batch user: interpreter start, package import, parser.
    startups = [run_measured(repro("sweep", "--help"), run.workdir).wall_s
                for _ in range(SETUP_REPEATS["sweep_cold"])]
    walls, cpus, rss, points = [], [], [], []
    start = time.monotonic()
    while (time.monotonic() - start < seconds or len(walls) < 2) \
            and len(walls) < 30:
        tag = f"cold-{len(walls)}"
        measured, stats, _ = _sweep(run, seed, 2, tag)
        points.append(_check_cold_sweep(run, measured, stats, reference,
                                        tag))
        walls.append(measured.wall_s)
        cpus.append(measured.cpu_s)
        rss.append(measured.peak_rss_mb)
        harness.remove_tree(run.workdir / tag)
    run.report["latency_p90_ms"] = 1e3 * quantile(walls, 0.9)
    run.report["iterations"] = len(walls)
    run.report["sweep_wall_s"] = walls
    run.metrics = {
        "setup_s": median(startups),
        "ops_per_s": median([p / w for p, w in zip(points, walls)]),
        "latency_p50_ms": 1e3 * median(walls),
        "cpu_ms_per_op": 1e3 * sum(cpus) / max(1, sum(points)),
        "peak_rss_mb": max(rss),
        "error_rate": run.failed / max(1, run.attempted),
    }


def _sweep_cold_traced(run: Run, seed: int, ref) -> None:
    traced, stats, spans_path = _sweep(run, seed, 1, "traced", "spans")
    _check_cold_sweep(run, traced, stats, ref.digest, "traced --jobs 1")
    pooled, pooled_stats, counters_path = _sweep(run, seed, 2, "pooled",
                                                 "counters")
    _check_cold_sweep(run, pooled, pooled_stats, ref.digest,
                      "counted --jobs 2")
    spans, _ = layers.load(spans_path)
    _, counters = layers.load(counters_path)
    summary = layers.summarize(spans)
    stages = stats.get("stages", {})
    summary.update({
        f"runtime.stages.{name}": stages.get(name, 0)
        for name in ("collect_computed", "collect_artifact_hits",
                     "eipv_computed", "eipv_artifact_hits")})
    summary.update(_pool_counters(counters))
    # No daemon and no load generator take part in a batch sweep.
    summary.update({name: 0 for name in (
        "serve.warm_hits", "serve.coalesce_followers", "serve.shed",
        "loadgen.lag_p99_ms", "loadgen.sent", "loadgen.completed")})
    summary["tracing.overhead"] = traced.wall_s / ref.wall_s - 1.0
    run.metrics = summary

    usable = len(os.sched_getaffinity(0))
    cover(run, summary, {
        "workloads.build_calls": ">0", "trace.collect_calls": ">0",
        "trace.eipv_calls": ">0", "core.cv_calls": ">0",
        "runtime.stages.artifact_write_bytes": ">0",
        "runtime.cache.get_calls": ">0", "runtime.cache.put_calls": ">0",
        "runtime.scheduler.jobs": ">0", "sweep.partials_calls": ">0",
        "serve_spans": "==0",
        **({"runtime.pool.spawns": ">0",
            "runtime.dispatch.parallel_chosen": ">0"} if usable > 1
           else {"runtime.dispatch.serial_chosen": ">0"}),
    }, largest="trace.collect")


def _pool_counters(counters: dict) -> dict:
    return {
        "runtime.pool.spawns": counters.get("pool.spawns", 0),
        "runtime.pool.warm_hits": counters.get("pool.warm_hits", 0),
        "runtime.dispatch.parallel_chosen":
            counters.get("dispatch.parallel_chosen", 0),
        "runtime.dispatch.serial_chosen":
            counters.get("dispatch.serial_chosen", 0),
    }


# -- shared daemon plumbing ------------------------------------------------

def _boot(run: Run, tag: str, warm, spans_out: Path | None = None):
    """Boot a daemon on a fresh cache and run ``warm(client)`` on it;
    returns (daemon, seconds from spawn to warm)."""
    start = time.monotonic()
    daemon = Daemon(run.subdir(tag), spans_out)
    try:
        client = Client(daemon.port)
        try:
            warm(client)
        finally:
            client.close()
    except BaseException:
        daemon.stop()
        raise
    return daemon, time.monotonic() - start


def _boot_repeated(run: Run, repeats: int, warm, spans_out=None):
    """Set up ``repeats`` times (all but the last daemon are stopped)."""
    setups, daemon = [], None
    prefix = "traced-daemon" if spans_out else "daemon"
    for i in range(repeats):
        if daemon is not None:
            daemon.stop()
        last = i == repeats - 1
        daemon, seconds = _boot(run, f"{prefix}-{i}", warm,
                                spans_out if last else None)
        setups.append(seconds)
    return daemon, setups


def _stats(daemon: Daemon) -> dict:
    client = Client(daemon.port)
    try:
        return client.get("/v1/stats")
    finally:
        client.close()


def _stats_delta(before: dict, after: dict) -> dict:
    def at(stats, path):
        value = stats
        for part in path.split("."):
            value = value.get(part, {}) if isinstance(value, dict) else {}
        return value if isinstance(value, (int, float)) else 0
    paths = ("cache.hit", "cache.miss", "cache.warm_responses",
             "jobs.executed", "requests.errors", "requests.shed",
             "coalesce.followers", "artifacts.stores",
             "artifacts.stages.collect_computed",
             "artifacts.stages.collect_artifact_hits",
             "artifacts.stages.eipv_computed",
             "artifacts.stages.eipv_artifact_hits",
             "pool.spawns", "pool.warm_hits",
             "dispatch.parallel_chosen", "dispatch.serial_chosen")
    return {path: at(after, path) - at(before, path) for path in paths}


def _serve_layer_counters(delta: dict) -> dict:
    return {
        "runtime.stages.collect_computed":
            delta["artifacts.stages.collect_computed"],
        "runtime.stages.collect_artifact_hits":
            delta["artifacts.stages.collect_artifact_hits"],
        "runtime.stages.eipv_computed":
            delta["artifacts.stages.eipv_computed"],
        "runtime.stages.eipv_artifact_hits":
            delta["artifacts.stages.eipv_artifact_hits"],
        "runtime.pool.spawns": delta["pool.spawns"],
        "runtime.pool.warm_hits": delta["pool.warm_hits"],
        "runtime.dispatch.parallel_chosen": delta["dispatch.parallel_chosen"],
        "runtime.dispatch.serial_chosen": delta["dispatch.serial_chosen"],
        "serve.warm_hits": delta["cache.warm_responses"],
        "serve.coalesce_followers": delta["coalesce.followers"],
        "serve.shed": delta["requests.shed"],
    }


def _serve_phase(run: Run, daemon: Daemon, drive) -> dict:
    """Run ``drive()`` as the timed phase; daemon-side numbers around it."""
    before = _stats(daemon)
    cpu0 = daemon.cpu_s()
    result = drive()
    cpu = daemon.cpu_s() - cpu0
    after = _stats(daemon)
    result.update(daemon_cpu_s=cpu, peak_rss_mb=daemon.peak_rss_mb(),
                  delta=_stats_delta(before, after))
    return result


def _stop(run: Run, daemon: Daemon) -> None:
    code = daemon.stop()
    run.check(code == 0, f"daemon exited {code}:\n"
              + harness.tail(daemon.err_path))


def _serve_metrics(run: Run, result: dict, setups: list) -> None:
    """End-to-end metrics of one untraced serve run."""
    latencies = result["latencies"]
    run.metrics = {
        "setup_s": median(setups),
        "ops_per_s": result["completed"] / result["elapsed_s"],
        "latency_p50_ms": 1e3 * median(latencies),
        "cpu_ms_per_op": 1e3 * result["daemon_cpu_s"]
        / max(1, result["completed"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "error_rate": run.failed / max(1, run.attempted),
    }
    run.report["latency_p90_ms"] = 1e3 * quantile(latencies, 0.9)
    run.report["samples"] = len(latencies)
    run.report["setup_s_each"] = setups


def _traced_serve(run: Run, warm, phase_on, untraced: dict, per_op):
    """The traced half of a ``--trace 1`` serve run: boot the daemon
    through the launcher, replay the timed phase, cut spans to it."""
    spans_out = run.workdir / "daemon-spans.json"
    daemon, _ = _boot_repeated(run, 1, warm, spans_out)
    try:
        traced = _serve_phase(run, daemon, phase_on(daemon))
    finally:
        _stop(run, daemon)
    spans, _ = layers.load(spans_out)
    summary = layers.summarize(spans, window=traced["window"],
                               client_latency_s=traced["latency_by_id"])
    summary.update(_serve_layer_counters(traced["delta"]))
    summary["tracing.overhead"] = per_op(traced) / per_op(untraced) - 1.0
    return traced, summary


# -- serve_refit -------------------------------------------------------------

def serve_refit(run: Run, seed: int, seconds: float, trace: bool) -> None:
    def warm(client: Client) -> None:
        for workload in REFIT_EXECUTIONS:
            status, body = client.post("/v1/analyze", {
                "workload": workload, "intervals": REFIT_INTERVALS,
                "seed": seed, "k_max": REFIT_SETUP_K, "render": False})
            if status != 200:
                raise RuntimeError(f"setup analyze {workload}: {status} "
                                   f"{body.get('error')}")

    pairs = [(w, k) for w in REFIT_EXECUTIONS for k in REFIT_K]
    random.Random(seed).shuffle(pairs)
    cap_s = max(3.0 * seconds, 60.0)

    def phase_on(daemon: Daemon):
        return lambda: _closed_loop(run, daemon.port, seed, pairs, cap_s)

    def per_op(result: dict) -> float:
        return result["elapsed_s"] / max(1, result["completed"])

    repeats = 1 if trace else SETUP_REPEATS["serve_refit"]
    daemon, setups = _boot_repeated(run, repeats, warm)
    try:
        result = _serve_phase(run, daemon, phase_on(daemon))
    finally:
        _stop(run, daemon)
    _check_refit(run, result, len(pairs))

    if trace:
        traced, summary = _traced_serve(run, warm, phase_on, result, per_op)
        _check_refit(run, traced, len(pairs))
        summary.update(_loadgen(traced))
        cover(run, summary, {
            "trace.collect_calls": "==0", "workloads.build_calls": "==0",
            "runtime.stages.collect_computed": "==0",
            "core.cv_calls": ">0", "core.tree_fits": ">0",
            "runtime.stages.artifact_read_s": ">0",
            "runtime.cache.get_calls": ">0",
            "runtime.cache.put_calls": ">0",
            "serve.requests_traced": f"=={len(pairs)}",
            "serve.admission_calls": ">0",
        }, largest="core")
        run.metrics = summary
        return
    _serve_metrics(run, result, setups)


def _check_refit(run: Run, result: dict, n_pairs: int) -> None:
    run.attempted += n_pairs
    run.check(result["completed"] == n_pairs,
              f"refit: {result['completed']} of {n_pairs} pairs done "
              "before the time cap", n_pairs - result["completed"])
    run.check(result["delta"]["artifacts.stages.collect_computed"] == 0,
              "refit: the daemon re-collected a trace in the timed phase")


def _closed_loop(run: Run, port: int, seed: int, pairs, cap_s: float):
    """REFIT_CLIENTS clients, each sending its next pair on completion."""
    lock = threading.Lock()
    queue = list(reversed(pairs))
    latencies, latency_by_id = [], {}
    failures: list[str] = []
    start = time.monotonic()

    def client_loop() -> None:
        client = Client(port)
        try:
            while True:
                with lock:
                    if not queue or time.monotonic() - start > cap_s:
                        return
                    workload, k = queue.pop()
                rid = f"{workload}/{k}"
                sent = time.monotonic()
                status, body = client.post("/v1/analyze", {
                    "workload": workload, "intervals": REFIT_INTERVALS,
                    "seed": seed, "k_max": k},
                    request_id=rid)
                elapsed = time.monotonic() - sent
                ok = (status == 200 and "report" in body
                      and body.get("served", {}).get("cache_hit") is False)
                with lock:
                    if ok:
                        latencies.append(elapsed)
                        latency_by_id[rid] = elapsed
                    else:
                        detail = body.get("served") or body.get("error")
                        failures.append(f"refit {rid}: {status} {detail}")
        finally:
            client.close()

    threads = [threading.Thread(target=client_loop)
               for _ in range(REFIT_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = time.monotonic()
    for failure in failures:
        run.check(False, failure)
    return {"completed": len(latencies) + len(failures),
            "sent": len(latencies) + len(failures), "lags": [],
            "latencies": latencies, "latency_by_id": latency_by_id,
            "elapsed_s": end - start, "window": (start, end)}


# -- serve_hot ---------------------------------------------------------------

def serve_hot(run: Run, seed: int, seconds: float, trace: bool) -> None:
    rng = random.Random(seed)
    keys = [{"workload": w, "intervals": 12, "seed": seed, "scale": "tiny",
             "k_max": k}
            for w in rng.sample(HOT_POOL, HOT_WORKLOADS)
            for k in rng.sample(range(5, 13), HOT_K_PER_WORKLOAD)]
    census = {"workloads": list(HOT_CENSUS), "seed": seed, "k_max": 5}
    sweep = dict(HOT_SWEEP, seeds=[seed])
    hot = [("/v1/analyze", key) for key in keys] + [
        ("/v1/census", census), ("/v1/sweep", sweep)]
    n_requests = max(20, round(seconds * HOT_RATE))
    n_census = round(n_requests * HOT_SHARES[1])
    n_sweep = round(n_requests * HOT_SHARES[2])
    mix = ([len(keys)] * n_census + [len(keys) + 1] * n_sweep
           + [rng.randrange(len(keys))
              for _ in range(n_requests - n_census - n_sweep)])
    rng.shuffle(mix)
    copies: dict[int, str] = {}

    def warm(client: Client) -> None:
        for i, (path, body) in enumerate(hot):
            status, payload = client.post(path, body)
            if status != 200 or "report" not in payload:
                raise RuntimeError(f"setup {path} {body}: {status} "
                                   f"{payload.get('error')}")
            copies[i] = payload["report"]

    def phase_on(daemon):
        return lambda: _open_loop(run, daemon.port, hot, mix, copies)

    repeats = 1 if trace else SETUP_REPEATS["serve_hot"]
    daemon, setups = _boot_repeated(run, repeats, warm)
    try:
        result = _serve_phase(run, daemon, phase_on(daemon))
    finally:
        _stop(run, daemon)
    _check_hot(run, result, n_requests)

    if trace:
        traced, summary = _traced_serve(
            run, warm, phase_on, result,
            lambda r: median(r["latencies"]))
        _check_hot(run, traced, n_requests)
        summary.update(_loadgen(traced))
        cover(run, summary, {
            "trace.collect_calls": "==0", "core.cv_calls": "==0",
            "runtime.stages.artifact_write_bytes": "==0",
            "runtime.stages.collect_computed": "==0",
            "runtime.cache.get_calls": ">0", "serve.render_calls": ">0",
            "sweep.partials_calls": ">0", "serve.warm_hits": ">0",
            "serve.requests_traced": f"=={n_requests}",
        })
        run.metrics = summary
        return
    _serve_metrics(run, result, setups)
    run.report.update(_loadgen(result))
    run.report["latency_p99_ms"] = 1e3 * quantile(result["latencies"], 0.99)


def _loadgen(result: dict) -> dict:
    return {"loadgen.lag_p99_ms": 1e3 * quantile(result["lags"], 0.99),
            "loadgen.sent": result["sent"],
            "loadgen.completed": result["completed"]}


def _check_hot(run: Run, result: dict, n_requests: int) -> None:
    run.attempted += n_requests
    run.check(result["completed"] == n_requests,
              f"hot: {result['completed']} of {n_requests} completed",
              n_requests - result["completed"])
    delta = result["delta"]
    run.check(delta["cache.miss"] == 0 and delta["jobs.executed"] == 0
              and delta["artifacts.stores"] == 0,
              f"hot: the timed phase computed something: {delta}")
    lag = 1e3 * quantile(result["lags"], 0.99)
    run.check(lag <= HOT_LAG_LIMIT_MS,
              f"hot: invalid run, the generator fell {lag:.1f} ms (p99) "
              f"behind its schedule (limit {HOT_LAG_LIMIT_MS} ms)")


def _open_loop(run: Run, port: int, hot, mix, copies) -> dict:
    """Send ``mix`` at HOT_RATE over HOT_CONNECTIONS keep-alive
    connections; each request is timed from when it was due.

    A request due while both connections were busy counts that wait.
    The generator's own lateness (waking after the due time on a free
    connection) is not the daemon's and is kept apart as the lag, which
    decides whether the run is valid.
    """
    lock = threading.Lock()
    state = {"next": 0}
    latencies, lags, latency_by_id = [], [], {}
    failures: list[str] = []
    sent = [0]
    start = time.monotonic() + 0.05

    def connection_loop() -> None:
        client = Client(port)
        try:
            while True:
                with lock:
                    i = state["next"]
                    if i >= len(mix):
                        return
                    state["next"] = i + 1
                taken = time.monotonic()
                due = start + i / HOT_RATE
                if due > taken:
                    time.sleep(due - taken)
                sent_at = time.monotonic()
                path, body = hot[mix[i]]
                status, payload = client.post(path, body,
                                              request_id=str(i))
                done = time.monotonic()
                ok = (status == 200
                      and payload.get("report") == copies[mix[i]]
                      and (path != "/v1/analyze"
                           or payload["served"]["cache_hit"] is True))
                with lock:
                    sent[0] += 1
                    lags.append(max(0.0, sent_at - max(due, taken)))
                    if ok:
                        latencies.append(done - sent_at
                                         + max(0.0, taken - due))
                        latency_by_id[str(i)] = done - sent_at
                    else:
                        detail = payload.get("error",
                                             "report differs or not warm")
                        failures.append(f"hot #{i} {path}: {status} {detail}")
        finally:
            client.close()

    threads = [threading.Thread(target=connection_loop)
               for _ in range(HOT_CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = time.monotonic()
    for failure in failures:
        run.check(False, failure)
    return {"completed": len(latencies) + len(failures),
            "sent": sent[0], "latencies": latencies, "lags": lags,
            "latency_by_id": latency_by_id,
            "elapsed_s": end - start, "window": (start, end)}


# -- coverage self-check -----------------------------------------------------

def cover(run: Run, summary: dict, expect: dict, largest: str = "") -> None:
    """Fail loudly when a layer a workload should exercise saw nothing,
    or one it bypasses saw something."""
    for name, rule in expect.items():
        value = summary.get(name, 0)
        ok = (value > 0 if rule == ">0"
              else value == float(rule[2:]))
        run.check(ok, f"coverage: {name} = {value}, expected {rule}")
    if largest:
        top = layers.largest_self_layer(summary)
        run.check(top == largest,
                  f"coverage: largest self-time layer is {top!r}, "
                  f"expected {largest!r}")


# -- entry point -------------------------------------------------------------

WORKLOADS = {"sweep_cold": sweep_cold, "serve_refit": serve_refit,
             "serve_hot": serve_hot}


def _unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "_ms" in name:
        return "ms"
    if name in ("error_rate", "runtime.cache.hit_ratio", "tracing.overhead"):
        return "ratio"
    return "count"


def _print_report(run: Run, env: dict, trace: bool, units: dict) -> None:
    print(f"workload {run.workload} ({'traced' if trace else 'untraced'})")
    for key, value in env.items():
        print(f"  env {key:<22} {value}")
    for name, value in run.metrics.items():
        if name == "self_s":
            for layer, seconds in value.items():
                print(f"  self {layer:<32} {seconds:12.6f} s")
            continue
        unit = units.get(name) or _unit_of(name)
        print(f"  {name:<38} {value:14.6f} {unit}")
    for key, value in run.report.items():
        print(f"  ({key}) {value}")
    print(f"  attempted {run.attempted}, failed {run.failed}")
    for problem in run.problems:
        print(f"  CHECK FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (harness.SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {harness.SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    units = result_units(trace)
    env = harness.environment()
    ticks = harness.cpu_ticks()
    workdir = harness.ROOT / ".perfbench_work" / \
        f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run(args.workload, workdir)
    try:
        WORKLOADS[args.workload](run, args.seed, args.seconds, trace)
    finally:
        harness.remove_tree(workdir)
    harness.finish_environment(env, ticks)

    _print_report(run, env, trace, units)
    correct = not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {name: {"value": run.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
