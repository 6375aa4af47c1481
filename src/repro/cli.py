"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``list``
    All 50 workloads with their paper-aligned quadrant targets.
``analyze WORKLOAD``
    Run the full pipeline on one workload and print the RE curve,
    quadrant and sampling recommendation.
``census``
    The Table 2 / Figure 13 quadrant census (optionally a subset).
``experiment ID [ID...]``
    Regenerate one of the paper's tables/figures.
``profile WORKLOAD [WORKLOAD...]``
    Run workloads with tracing on and print the per-stage breakdown.
``sweep``
    Generated census at fleet scale: a seeded workload-space sweep
    (workloads × machines × interval sizes × seeds), sharded for
    resumability, merged into a columnar table + deterministic report
    (see :mod:`repro.sweep`).  A killed sweep rerun with the same
    arguments resumes with zero recomputation of completed shards.
``serve``
    Long-lived HTTP/JSON analysis daemon: ``analyze``/``census``/
    ``profile`` as endpoints, with request coalescing, admission
    control and ``/healthz`` + ``/stats`` (see :mod:`repro.serve`).
``cache``
    Inspect (``stats``) or empty (``clear``) the on-disk store.
``lint``
    Run the repo-specific AST invariant checker (see :mod:`repro.lint`):
    determinism, shared-view write-safety and pool-hygiene rules that
    generic linters cannot express.

``analyze``, ``census``, ``experiment``, ``profile`` and ``sweep`` all
accept the same runtime flag set (one shared parent parser — the
surfaces cannot drift): ``--jobs N`` to
fan work out across worker processes (census/experiment/sweep
parallelize whole workloads; analyze parallelizes the cross-validation
folds of its single run), ``--cache-dir PATH`` to
relocate the content-addressed store (job results plus the persisted
traces and EIPV datasets that later runs reuse instead of
re-simulating), ``--no-cache`` to run against a temporary store removed
when the run ends, ``--timeout S`` to
bound each pooled job, and ``--trace-out PATH`` to record a JSONL span
trace of the run (observability never touches stdout).  Results are
deterministic: the same seed produces the same
bytes on stdout whether computed serially, in parallel, or from a warm
cache (scheduling details go to stderr and the run manifest instead).
The flags are arguments of this one invocation; nothing outlives it.
``analyze --trace-store DIR``
runs the out-of-core pipeline: the trace is collected into (or reused
from) a columnar on-disk store and EIPVs stream from it in bounded
memory, with byte-identical stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

from repro import obs
from repro.analysis.report import format_curve, format_table
from repro.experiments.common import default_intervals
from repro.experiments.runner import experiment_ids, run_all
from repro.runtime import stages
from repro.runtime.cache import ResultCache, default_cache_dir, store_scope
from repro.runtime.graph import submit_graph
from repro.runtime.jobs import JobSpec
from repro.runtime.manifest import RunManifest
from repro.sampling.selector import recommend_for
from repro.workloads.registry import get_workload, workload_names
from repro.workloads.scale import DEFAULT


def _store_for(args) -> ResultCache | None:
    """The disk store ``--cache-dir`` names, or ``None`` under
    ``--no-cache`` (the run then holds a temporary store)."""
    if args.no_cache:
        return None
    return ResultCache(args.cache_dir or default_cache_dir())


@contextmanager
def _maybe_trace(args, command: str):
    """Enable tracing for the body when ``--trace-out`` was given, then
    write the JSONL trace.  Reporting goes to stderr; stdout stays pure."""
    path = getattr(args, "trace_out", None)
    if not path:
        yield
        return
    obs.enable_tracing()
    try:
        yield
    finally:
        roots = obs.snapshot_roots()
        obs.disable_tracing()
        _write_trace(path, roots, command)


def _write_trace(path, roots, command: str) -> None:
    try:
        out = obs.write_trace(path, roots, meta={"command": command})
    except OSError as exc:
        print(f"trace not written: {exc}", file=sys.stderr)
    else:
        n_spans = len(obs.trace_events(roots)) - 1
        print(f"trace: {out} ({n_spans} spans)", file=sys.stderr)


def _report_manifest(manifest: RunManifest | None,
                     store: ResultCache | None) -> None:
    """Persist + summarize a run manifest on stderr (stdout stays pure);
    a run without a disk store saves none."""
    if manifest is None:
        return
    if store is not None:
        try:
            path = manifest.save(store.manifest_dir)
        except OSError as exc:
            print(f"{manifest.summary()}\n  (manifest not saved: {exc})",
                  file=sys.stderr)
        else:
            print(f"{manifest.summary()}\n  manifest: {path}",
                  file=sys.stderr)
    else:
        print(manifest.summary(), file=sys.stderr)


def analyze_preamble(workload: str, n_intervals: int, scale: str,
                     seed: int) -> str:
    """The first stdout line of ``repro analyze`` (shared with the daemon,
    which must produce byte-identical reports)."""
    return (f"analyzing {workload} ({n_intervals} intervals, "
            f"scale={scale}, seed={seed})...")


def render_analysis(result) -> str:
    """The analysis body ``repro analyze`` prints after the preamble:
    RE curve, summary, and sampling recommendation.

    One function renders for both the CLI and ``repro serve`` — the
    daemon's byte-identical-to-CLI contract holds by construction, not
    by keeping two format strings in sync.
    """
    recommendation = recommend_for(result)
    return "\n".join([
        format_curve(result.curve.k_values, result.curve.re,
                     "relative error vs chambers", mark_k=result.k_opt),
        "",
        result.summary(),
        f"recommended sampling: {recommendation.technique}",
        f"  {recommendation.rationale}",
    ])


def analysis_report_text(result, *, workload: str, n_intervals: int,
                         scale: str, seed: int) -> str:
    """Exactly what ``repro analyze`` writes to stdout, sans trailing
    newline — the daemon returns this as the ``report`` field."""
    return "\n".join([analyze_preamble(workload, n_intervals, scale, seed),
                      render_analysis(result)])


def _cmd_list(_args) -> int:
    rows = []
    for name in workload_names():
        workload = get_workload(name, DEFAULT)
        rows.append([name, workload.metadata.get("class", "?"),
                     workload.metadata.get("paper_quadrant", "?")])
    print(format_table(["workload", "class", "paper quadrant"], rows,
                       title="the paper's 50-workload census"))
    return 0


def _check_workloads(args, names) -> None:
    """A usage error (exit 2) naming any unknown workload."""
    known = set(workload_names())
    unknown = [name for name in names if name not in known]
    if unknown:
        args.subparser.error(
            f"unknown workload(s): {', '.join(unknown)} "
            f"(see 'repro list')")


def _analysis_specs(args, names) -> list[JobSpec]:
    """The analysis each workload's flags denote; a usage error, before
    anything runs, for an unknown workload or a value the spec refuses."""
    _check_workloads(args, names)
    try:
        return [JobSpec(workload=name,
                        n_intervals=(default_intervals(name)
                                     if args.intervals is None
                                     else args.intervals),
                        seed=args.seed, machine=args.machine,
                        scale=args.scale, k_max=args.k_max)
                for name in names]
    except ValueError as exc:
        args.subparser.error(str(exc))


def _cmd_analyze(args) -> int:
    spec, = _analysis_specs(args, [args.workload])
    with _maybe_trace(args, "analyze"):
        if args.trace_store:
            return _run_analyze_store(args, spec)
        return _run_analyze(args, spec)


def _run_analyze(args, spec: JobSpec) -> int:
    print(analyze_preamble(spec.workload, spec.n_intervals, spec.scale,
                           spec.seed))
    disk = _store_for(args)
    # One analyze is a (collect → eipv → analysis) chain, or one node
    # when the analysis is cached.  Each wave holds one node, so it runs
    # in this process and --jobs N reaches the analysis job, which
    # parallelizes its cross-validation folds (deterministic merge —
    # same bytes out).
    with store_scope(disk) as store:
        graph = stages.analysis_graph([spec], store=store)
        outcomes = submit_graph(graph, jobs=args.jobs, store=store,
                                timeout=args.timeout)
    # Insertion order puts the analysis node last; stage outcomes stay
    # off stdout and out of the manifest, which records analyses only.
    outcome = outcomes[-1]
    if not outcome.ok:
        print(f"analysis failed:\n{outcome.error}", file=sys.stderr)
        return 1
    print(render_analysis(outcome.result.to_result()))
    _report_manifest(
        RunManifest.from_outcomes([outcome], command="analyze",
                                  jobs=args.jobs,
                                  cache_root=getattr(disk, "root", None)),
        disk)
    return 0


def _run_analyze_store(args, spec: JobSpec) -> int:
    """``analyze --trace-store DIR``: the out-of-core pipeline.

    The trace lives on disk (collected into DIR first if DIR is not
    already a finalized store) and EIPVs stream from the memmapped
    columns, so the run holds neither the trace nor more than a chunk of
    it in memory.  Stdout is byte-identical to the in-memory path; the
    job result cache is bypassed — the store itself is the reusable
    artifact.  DIR is reused only when it records this run's collection
    (the ``CollectSpec`` canonical dict); any other store, or one that
    records none, fails the run with nothing on stdout.
    """
    from repro import api
    from repro.trace.storage import TraceStore

    needed = stages.collect_spec_for(spec).canonical()
    reused = TraceStore.is_store(args.trace_store)
    if reused:
        store = TraceStore.open(args.trace_store)
        if store.identity != needed:
            held = (json.dumps(store.identity, sort_keys=True)
                    if store.identity else "no recorded collection")
            print(f"trace store {args.trace_store} holds {held}; this run "
                  f"needs {json.dumps(needed, sort_keys=True)}",
                  file=sys.stderr)
            return 1
    print(analyze_preamble(spec.workload, spec.n_intervals, spec.scale,
                           spec.seed))
    if not reused:
        store = api.collect_to_store(
            spec.workload, args.trace_store, n_intervals=spec.n_intervals,
            seed=spec.seed, machine=spec.machine, scale=spec.scale)
    print(f"trace store: {args.trace_store} ({len(store)} samples, "
          f"{'reused' if reused else 'collected'})", file=sys.stderr)
    result = api.analyze_store(store, workload=spec.workload,
                               config=spec.analysis_config(),
                               jobs=args.jobs)
    print(render_analysis(result))
    return 0


def _cmd_census(args) -> int:
    from repro.experiments import table2_quadrants
    _check_workloads(args, args.workloads)
    try:
        table2_quadrants.census_specs(args.workloads or None,
                                      seed=args.seed, k_max=args.k_max)
    except ValueError as exc:
        args.subparser.error(str(exc))
    with _maybe_trace(args, "census"):
        return _run_census(args)


def _run_census(args) -> int:
    from repro.experiments import table2_quadrants
    disk = _store_for(args)
    try:
        result = table2_quadrants.run(workloads=args.workloads or None,
                                      seed=args.seed, k_max=args.k_max,
                                      jobs=args.jobs, store=disk,
                                      timeout=args.timeout)
    except RuntimeError as exc:
        print(f"census failed: {exc}", file=sys.stderr)
        return 1
    print(table2_quadrants.render(result))
    _report_manifest(result.manifest, disk)
    return 0


def _cmd_experiment(args) -> int:
    known = experiment_ids()
    unknown = [exp_id for exp_id in args.ids if exp_id not in known]
    if unknown:
        args.subparser.error(
            f"unknown experiment id(s): {', '.join(unknown)} "
            f"(choose from {', '.join(known)})")
    with _maybe_trace(args, "experiment"):
        print(run_all(args.ids, jobs=args.jobs, store=_store_for(args),
                      timeout=args.timeout))
    return 0


def _cmd_profile(args) -> int:
    from repro import api
    _analysis_specs(args, args.workloads)
    config = api.AnalysisConfig(k_max=args.k_max, seed=args.seed)
    try:
        result = api.profile(args.workloads, config=config,
                             n_intervals=args.intervals,
                             machine=args.machine, scale=args.scale,
                             jobs=args.jobs, timeout=args.timeout)
    except RuntimeError as exc:
        print(f"profile failed: {exc}", file=sys.stderr)
        return 1
    print(result.report(top=args.top))
    if args.trace_out:
        _write_trace(args.trace_out, list(result.spans), "profile")
    return 0


def _cmd_sweep(args) -> int:
    from pathlib import Path

    from repro.sweep import (DEFAULT_INTERVALS, DEFAULT_SHARDS, SweepError,
                             SweepInterrupted, SweepSpace, SweepStateError,
                             run_sweep)
    from repro.uarch.machine import MACHINES
    _check_workloads(args, args.workloads)
    try:
        space = SweepSpace(
            workloads=tuple(args.workloads or workload_names()),
            machines=tuple(args.machines or sorted(MACHINES)),
            interval_instructions=tuple(args.interval_sizes
                                        or DEFAULT_INTERVALS),
            seeds=tuple(args.seeds),
            scale=args.scale,
            n_intervals=args.intervals,
            k_max=args.k_max,
            folds=args.folds,
            limit=args.limit,
        )
    except ValueError as exc:
        args.subparser.error(str(exc))
    sweep_dir = Path(args.sweep_dir) if args.sweep_dir \
        else Path("sweeps") / space.key[:16]
    print(f"sweep {space.key[:16]}: {space.size} points -> {sweep_dir}",
          file=sys.stderr)
    with _maybe_trace(args, "sweep"):
        try:
            outcome = run_sweep(
                space, sweep_dir, jobs=args.jobs,
                shards=DEFAULT_SHARDS if args.shards is None
                else args.shards,
                store=_store_for(args), timeout=args.timeout,
                stop_after=args.stop_after)
        except SweepInterrupted as exc:
            print(f"sweep interrupted: {exc}", file=sys.stderr)
            return 3
        except (SweepError, SweepStateError) as exc:
            print(f"sweep failed: {exc}", file=sys.stderr)
            return 1
    for note in outcome.notes:
        print(f"note: {note}", file=sys.stderr)
    sys.stdout.write(outcome.report)
    print(f"sweep {outcome.space_key[:16]}: {outcome.n_points} points, "
          f"{outcome.n_shards} shards ({outcome.n_shards_resumed} resumed), "
          f"{outcome.n_cached} cached, {outcome.n_executed} executed\n"
          f"  manifest: {outcome.manifest_path}\n"
          f"  table:    {outcome.table_path}\n"
          f"  report:   {outcome.report_path}", file=sys.stderr)
    return 0


def _cmd_serve(args) -> int:
    from pathlib import Path

    from repro.serve import ServeConfig, run_server
    config = ServeConfig(
        host=args.host, port=args.port,
        max_inflight=args.max_inflight, max_queue=args.max_queue,
        default_deadline_s=args.deadline,
        job_timeout_s=args.timeout,
        cache_dir=Path(args.cache_dir) if args.cache_dir else None,
        no_cache=args.no_cache,
        cache_max_entries=args.cache_max_entries,
        census_jobs=args.census_jobs,
        sweep_jobs=args.sweep_jobs,
        sweep_dir=Path(args.serve_sweep_dir) if args.serve_sweep_dir
                  else None,
    )
    return run_server(config, verbose=args.verbose)


def _cmd_cache(args) -> int:
    store = ResultCache(args.cache_dir or default_cache_dir())
    if args.action == "stats":
        print(store.stats().render())
    else:  # clear
        print(f"removed {store.clear()} entries from {store.root}")
    return 0


def _cmd_lint(args) -> int:
    from repro.lint import run_cli
    return run_cli(paths=args.paths, format=args.format,
                   baseline=args.baseline,
                   write_baseline_flag=args.write_baseline,
                   root=args.root, verbose=args.verbose,
                   changed=args.changed, graph_out=args.graph_out,
                   timings_out=args.timings_out)


def runtime_parent() -> argparse.ArgumentParser:
    """The shared runtime-flag surface, as an argparse parent.

    Every work-running subcommand (analyze, census, experiment, profile,
    sweep) takes the identical flag set from this one parent, so the
    surfaces cannot drift: one definition, one help text, one default
    per flag.  ``tests/test_cli.py`` asserts the rendered help sections
    match across subcommands.
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("runtime")
    group.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes the scheduler may fan jobs "
                            "across: graph nodes (census/experiment/sweep "
                            "points, profiles) or the CV folds of a "
                            "single analyze (default: 1, in-process)")
    group.add_argument("--cache-dir", default=None, metavar="PATH",
                       help="store directory for results and stage "
                            "artifacts "
                            "(default: $REPRO_CACHE_DIR or ~/.cache/repro)")
    group.add_argument("--no-cache", action="store_true",
                       help="run against a temporary store removed when "
                            "the run ends (nothing is written under "
                            "--cache-dir)")
    group.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="per-job timeout in seconds (default: none)")
    group.add_argument("--trace-out", default=None, metavar="PATH",
                       help="record a JSONL span trace of the run to PATH")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'The Fuzzy Correlation between Code "
                    "and Performance Predictability' (MICRO 2004)")
    sub = parser.add_subparsers(dest="command", required=True)
    runtime = runtime_parent()

    sub.add_parser("list", help="list all workloads") \
        .set_defaults(func=_cmd_list)

    analyze = sub.add_parser("analyze", help="analyze one workload",
                             parents=[runtime])
    analyze.add_argument("workload")
    analyze.add_argument("--intervals", type=int, default=None)
    analyze.add_argument("--seed", type=int, default=11)
    analyze.add_argument("--k-max", type=int, default=50)
    analyze.add_argument("--scale", default="default",
                         choices=["tiny", "default", "paper"])
    analyze.add_argument("--machine", default="itanium2",
                         choices=["itanium2", "pentium4", "xeon"])
    analyze.add_argument("--trace-store", default=None, metavar="DIR",
                         help="out-of-core mode: collect the trace into "
                              "a columnar store at DIR (or reuse the "
                              "store already there) and stream EIPVs "
                              "from it in bounded memory; output is "
                              "byte-identical to the in-memory run")
    analyze.set_defaults(func=_cmd_analyze, subparser=analyze)

    census = sub.add_parser("census", help="Table 2 quadrant census",
                            parents=[runtime])
    census.add_argument("workloads", nargs="*",
                        help="subset of workloads (default: all 50)")
    census.add_argument("--seed", type=int, default=11)
    census.add_argument("--k-max", type=int, default=50)
    census.set_defaults(func=_cmd_census, subparser=census)

    known_ids = experiment_ids()
    experiment = sub.add_parser("experiment",
                                help="regenerate paper tables/figures",
                                parents=[runtime])
    experiment.add_argument("ids", nargs="*", metavar="ID",
                            type=str.lower,
                            help=f"ids: {', '.join(known_ids)} "
                                 f"(default: all)")
    experiment.set_defaults(func=_cmd_experiment, subparser=experiment)

    profile = sub.add_parser(
        "profile", help="per-stage timing breakdown of the pipeline",
        parents=[runtime])
    profile.add_argument("workloads", nargs="+",
                         help="workload(s) to run with tracing enabled")
    profile.add_argument("--intervals", type=int, default=None)
    profile.add_argument("--seed", type=int, default=11)
    profile.add_argument("--k-max", type=int, default=50)
    profile.add_argument("--scale", default="default",
                         choices=["tiny", "default", "paper"])
    profile.add_argument("--machine", default="itanium2",
                         choices=["itanium2", "pentium4", "xeon"])
    profile.add_argument("--top", type=int, default=5, metavar="K",
                         help="slowest individual spans to list "
                              "(default: 5)")
    profile.set_defaults(func=_cmd_profile, subparser=profile)

    sweep = sub.add_parser(
        "sweep", help="generated, sharded, resumable quadrant sweep",
        parents=[runtime])
    sweep.add_argument("workloads", nargs="*",
                       help="subset of workloads (default: all 50)")
    sweep.add_argument("--machines", nargs="+", default=None,
                       choices=["itanium2", "pentium4", "xeon"],
                       help="uarch configs to sweep (default: all)")
    sweep.add_argument("--interval-sizes", nargs="+", type=int,
                       default=None, metavar="INSNS",
                       help="EIPV interval sizes in instructions "
                            "(default: 2M 5M 10M)")
    sweep.add_argument("--seeds", nargs="+", type=int,
                       default=[11, 12, 13],
                       help="simulation seeds (default: 11 12 13)")
    sweep.add_argument("--scale", default="tiny",
                       choices=["tiny", "default", "paper"])
    sweep.add_argument("--intervals", type=int, default=12,
                       help="EIPV intervals per point (default: 12)")
    sweep.add_argument("--k-max", type=int, default=5)
    sweep.add_argument("--folds", type=int, default=4)
    sweep.add_argument("--limit", type=int, default=None, metavar="N",
                       help="deterministic subsample: keep N points of "
                            "the full cross product")
    sweep.add_argument("--shards", type=int, default=None, metavar="N",
                       help="resumability granularity (default: 8); a "
                            "resumed sweep keeps its manifest's layout")
    sweep.add_argument("--sweep-dir", default=None, metavar="DIR",
                       help="durable sweep state: manifest, shard "
                            "partials, merged table, report (default: "
                            "sweeps/<space-key>)")
    sweep.add_argument("--stop-after", type=int, default=None, metavar="N",
                       help="abort after N computed points (crash drill "
                            "for tests/CI; rerun to resume)")
    sweep.set_defaults(func=_cmd_sweep, subparser=sweep)

    serve = sub.add_parser(
        "serve", help="long-lived analysis daemon (HTTP/JSON)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8100,
                       help="listen port (0 = ephemeral; default: 8100)")
    serve.add_argument("--max-inflight", type=int, default=2, metavar="N",
                       help="concurrent computations (default: 2)")
    serve.add_argument("--max-queue", type=int, default=16, metavar="N",
                       help="requests allowed to wait for a slot before "
                            "load shedding begins (default: 16)")
    serve.add_argument("--deadline", type=float, default=60.0, metavar="S",
                       help="default per-request deadline in seconds "
                            "(default: 60)")
    serve.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="per-job timeout handed to the scheduler "
                            "(default: none)")
    serve.add_argument("--cache-dir", default=None, metavar="PATH",
                       help="store directory for results and stage "
                            "artifacts "
                            "(default: $REPRO_CACHE_DIR or ~/.cache/repro)")
    serve.add_argument("--no-cache", action="store_true",
                       help="keep the daemon's store in a temporary "
                            "directory removed at shutdown (repeats "
                            "still answer warm)")
    serve.add_argument("--cache-max-entries", type=int, default=4096,
                       metavar="N",
                       help="prune the store beyond N entries of all "
                            "kinds (0 = unbounded; default: 4096)")
    serve.add_argument("--sweep-jobs", type=int, default=1, metavar="N",
                       help="worker processes per served sweep "
                            "(default: %(default)s, in-process)")
    serve.add_argument("--sweep-dir", dest="serve_sweep_dir", default=None,
                       metavar="PATH",
                       help="root for served sweep state (default: "
                            "sweeps/ under the cache directory; with "
                            "--no-cache, under the temporary store "
                            "removed at exit)")
    serve.add_argument("--census-jobs", type=int, default=1, metavar="N",
                       help="worker processes for census requests "
                            "(default: 1, in-process)")
    serve.add_argument("--verbose", action="store_true",
                       help="log one line per HTTP request to stderr")
    serve.set_defaults(func=_cmd_serve)

    cache = sub.add_parser("cache", help="inspect or clear the store")
    cache.add_argument("action", choices=["stats", "clear"])
    cache.add_argument("--cache-dir", default=None, metavar="PATH",
                       help="cache directory (default: $REPRO_CACHE_DIR "
                            "or ~/.cache/repro)")
    cache.set_defaults(func=_cmd_cache)

    from repro.lint import add_arguments as add_lint_arguments
    lint = sub.add_parser(
        "lint", help="AST invariant lint (determinism, mmap views, pools)")
    add_lint_arguments(lint)
    lint.set_defaults(func=_cmd_lint)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
