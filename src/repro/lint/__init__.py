"""repro.lint — AST-based invariant checker for this repository.

Generic linters check style; this package checks the *invariants the
test suite's byte-identical guarantees rest on*, statically, at the
AST level, so a determinism or shared-view-safety regression is
caught at lint time instead of by an equality test three layers away.

Rules (stable IDs, append-only):

========  ==============================================================
RL001     nondeterministic iteration (unsorted glob/listdir, set loops)
RL002     unseeded randomness (module-level RNG state, argless
          default_rng())
RL003     wall clock inside hashed/cached runtime code paths
RL004     writable ndarray views over shared buffers or memmaps
          escaping their constructor
RL005     pool hygiene (pool construction outside the warm pool,
          closures submitted to pools)
RL006     ambient I/O in hot-path files (print/open/logging outside
          repro.obs)
RL007     blocking call (Future.result, shutdown(wait=True), join,
          sleep, file/socket I/O) reachable while a guarded lock is
          held — project-wide, through the call graph
RL008     lock-order inversion: two locks acquired in opposite orders
          on two call paths (both witness paths reported)
RL009     nondeterminism taint: wall-clock/RNG/env/pid/fs-order values
          reaching hashed-spec or render sinks through any call chain
RL010     writable buffer=/mmap_mode= ndarray view returned by one
          function and stored/yielded by a caller before freezing
RL099     unknown rule ID in a suppression comment (meta)
========  ==============================================================

RL007–RL010 are *project rules*: they run over a shared semantic model
(symbol table, call graph, lock model, taint summaries — see
:mod:`repro.lint.semantic`) built from every configured file, so a
``--changed`` run restricted to two files still resolves calls across
the whole tree.

Usage::

    repro lint [--format json] [--baseline PATH] [--write-baseline]
    python -m repro.lint ...            # stdlib-only, no numpy needed

Findings are silenced either per line (``# repro-lint: disable=RL001``)
or via the committed baseline file (see :mod:`repro.lint.baseline`);
exit status is 0 only when every finding is suppressed or baselined.
Configuration lives in ``pyproject.toml`` under ``[tool.repro-lint]``.

This package deliberately imports nothing from the rest of ``repro``
(and no third-party modules), so it runs in a bare CI container before
dependencies are installed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.lint.baseline import (BaselineError, load_baseline,
                                 write_baseline)
from repro.lint.config import ConfigError, LintConfig, load_config
from repro.lint.engine import run_lint
from repro.lint.findings import Finding, LintResult
from repro.lint.reporters import render_json, render_text, report_dict
from repro.lint.rules import REGISTRY, all_rules

__all__ = ["Finding", "LintResult", "LintConfig", "load_config",
           "run_lint", "render_text", "render_json", "report_dict",
           "all_rules", "REGISTRY", "main", "run_cli"]


def run_cli(paths=(), format: str = "text", baseline: str | None = None,
            write_baseline_flag: bool = False, root: str | None = None,
            verbose: bool = False, stdout=None, changed: bool = False,
            graph_out: str | None = None,
            timings_out: str | None = None) -> int:
    """The lint command body (shared by ``repro lint`` and ``-m``).

    Returns the process exit code: 0 clean, 1 new findings (or stale
    baseline entries — a committed entry pointing at nothing is
    baseline rot and fails the gate), 2 when the configuration or
    baseline itself is unusable.
    """
    out = stdout if stdout is not None else sys.stdout
    try:
        config = load_config(root=root)
    except ConfigError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2
    only = None
    if changed:
        file_list = list(paths)
        if not file_list or file_list == ["-"]:
            file_list = [line.strip() for line in sys.stdin
                         if line.strip()]
        try:
            only = [_root_relative(entry, config.root)
                    for entry in file_list]
        except ValueError as exc:
            print(f"repro-lint: {exc}", file=sys.stderr)
            return 2
    elif paths:
        from dataclasses import replace
        config = replace(config, paths=tuple(paths))
    baseline_path = Path(baseline) if baseline else config.baseline_path

    if write_baseline_flag:
        result = run_lint(config, use_baseline=False)
        try:
            previous = load_baseline(baseline_path)
        except BaselineError:
            previous = []
        count = write_baseline(baseline_path, result.findings, previous)
        print(f"wrote {count} entr(ies) to {baseline_path}",
              file=sys.stderr)
        return 0

    try:
        result = run_lint(config, baseline_path=baseline_path, only=only)
    except BaselineError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2
    if graph_out:
        import json as _json
        Path(graph_out).write_text(
            _json.dumps(result.call_graph or {}, indent=2,
                        sort_keys=True) + "\n", encoding="utf-8")
    if timings_out:
        import json as _json
        payload = {rule: round(seconds, 6) for rule, seconds
                   in sorted(result.rule_timings.items())}
        Path(timings_out).write_text(
            _json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
    if format == "json":
        out.write(render_json(result))
    else:
        print(render_text(result, verbose=verbose), file=out)
    if result.stale_baseline:
        return 1
    return 0 if result.ok else 1


def _root_relative(entry: str, root: Path) -> str:
    """Normalize a ``--changed`` file argument to a root-relative path."""
    candidate = Path(entry)
    if not candidate.is_absolute():
        candidate = root / candidate
    try:
        return candidate.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        raise ValueError(f"--changed file {entry!r} is outside the "
                         f"lint root {root}") from None


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the lint flags on ``parser`` (shared with repro.cli)."""
    parser.add_argument("paths", nargs="*", metavar="PATH",
                        help="files/directories to lint (default: the "
                             "[tool.repro-lint] paths in pyproject.toml)")
    parser.add_argument("--format", choices=["text", "json"],
                        default="text",
                        help="report format (default: text)")
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help="baseline file (default: the configured "
                             "one, lint-baseline.json)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="regenerate the baseline from current "
                             "findings (sorted by path, rule, line; "
                             "keeps existing justifications) and exit 0")
    parser.add_argument("--root", default=None, metavar="DIR",
                        help="lint root (default: nearest ancestor with "
                             "a pyproject.toml)")
    parser.add_argument("--verbose", action="store_true",
                        help="also list baselined and suppressed "
                             "findings in text output")
    parser.add_argument("--changed", action="store_true",
                        help="treat PATH arguments (or stdin, one per "
                             "line, with no PATHs or '-') as the only "
                             "files to report on; the whole project "
                             "still feeds the symbol table, so cross-"
                             "module rules behave as in a full run")
    parser.add_argument("--graph-out", default=None, metavar="PATH",
                        help="write the project call graph (JSON, "
                             "deterministic) to PATH")
    parser.add_argument("--timings-out", default=None, metavar="PATH",
                        help="write per-rule wall-time breakdown "
                             "(JSON) to PATH")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="AST-based invariant lint for the repro codebase")
    add_arguments(parser)
    args = parser.parse_args(argv)
    return run_cli(paths=args.paths, format=args.format,
                   baseline=args.baseline,
                   write_baseline_flag=args.write_baseline,
                   root=args.root, verbose=args.verbose,
                   changed=args.changed, graph_out=args.graph_out,
                   timings_out=args.timings_out)
