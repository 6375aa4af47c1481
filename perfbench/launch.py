"""Traced launcher: run one ``repro`` command with layer spans recorded.

    PYTHONPATH=src python perfbench/launch.py --out SPANS.json [--no-spans] \
        -- sweep --seeds 7 ...

The launcher wraps the public function each benchmark layer is measured
at, then calls :func:`repro.cli.main` with the remaining arguments.  A
function is rebound in every module that imported it by name (for
example ``repro.experiments.common`` imports ``collect_trace`` directly),
so each call site sees the wrapper.  Each call becomes one span: name,
start, end, parent span and request id (the ``X-Request-Id`` header of
the daemon request it serves).  Spans stay in memory and are written to
``--out`` together with the runtime's metrics counters when the command
returns; ``repro serve`` returns when it receives SIGINT.

``--no-spans`` installs no wrapper and only writes the counters, for
runs whose work happens in pool workers the spans cannot see.

Timestamps are ``time.monotonic()``, the same clock the benchmark uses
to mark its timed phase, so spans can be cut to that window.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import itertools
import json
import os
import sys
import threading
import time
from functools import wraps

_ids = itertools.count(1)
_spans: list[tuple] = []
_local = threading.local()


@contextlib.contextmanager
def span(name: str):
    """Record one span around the body; yields a one-slot value box."""
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    span_id = next(_ids)
    parent = stack[-1] if stack else 0
    box = [None]
    stack.append(span_id)
    start = time.monotonic()
    try:
        yield box
    finally:
        end = time.monotonic()
        stack.pop()
        _spans.append((span_id, name, start, end, parent,
                       getattr(_local, "request_id", None), box[0]))


def _entry_bytes(kind: str):
    """Value hook for artifact writes: bytes the published entry holds."""
    def measure(_result, args, _kwargs) -> int:
        store, key = args[0], args[1]
        total = 0
        for folder, _dirs, files in os.walk(store.entry_dir(kind, key)):
            total += sum(os.path.getsize(os.path.join(folder, name))
                         for name in files)
        return total
    return measure


def _traced(name: str, fn, value=None):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        with span(name) as box:
            result = fn(*args, **kwargs)
            if value is not None:
                box[0] = value(result, args, kwargs)
            return result
    return wrapper


def _traced_run_jobs(fn):
    @wraps(fn)
    def wrapper(specs, *args, **kwargs):
        specs = list(specs)
        with span("runtime.scheduler.run") as box:
            box[0] = len(specs)
            return fn(specs, *args, **kwargs)
    return wrapper


def _traced_admit(fn):
    """Time only the entry of ``AdmissionController.admit`` (the wait)."""
    @contextlib.contextmanager
    @wraps(fn)
    def admit(self, deadline=None):
        with contextlib.ExitStack() as stack:
            with span("serve.admission"):
                stack.enter_context(fn(self, deadline))
            yield
    return admit


def _traced_do_post(fn):
    """Tag everything one daemon request does with its request id."""
    @wraps(fn)
    def do_post(self):
        _local.request_id = self.headers.get("X-Request-Id")
        try:
            with span("serve.http"):
                fn(self)
        finally:
            _local.request_id = None
    return do_post


#: (span name, "module:function", modules importing it by name, value hook)
FUNCTIONS = [
    ("workloads.build", "repro.workloads.registry:get_workload",
     ("repro.workloads", "repro.experiments.common",
      "repro.experiments.table2_quadrants", "repro.cli"), None),
    ("trace.collect", "repro.trace.sampler:collect_trace",
     ("repro.trace", "repro.experiments.common"),
     lambda result, _a, _k: len(result)),
    ("trace.eipv", "repro.trace.eipv:build_eipvs",
     ("repro.trace", "repro.runtime.stages", "repro.experiments.common"),
     None),
    ("core.cv", "repro.core.cross_validation:relative_error_curve",
     ("repro.core", "repro.core.predictability"), None),
    ("runtime.stages.write", "repro.runtime.stages:put_trace", (),
     _entry_bytes("trace")),
    ("runtime.stages.write", "repro.runtime.stages:put_eipv", (),
     _entry_bytes("eipv")),
    ("runtime.stages.read", "repro.runtime.stages:open_trace", (), None),
    ("runtime.stages.read", "repro.runtime.stages:load_eipv_dataset", (),
     None),
    ("render", "repro.cli:analysis_report_text", (), None),
    ("render", "repro.experiments.table2_quadrants:render", (), None),
    ("render", "repro.sweep.engine:render_sweep_report",
     ("repro.sweep",), None),
    ("sweep.partials", "repro.sweep.manifest:write_partial",
     ("repro.sweep.engine",), None),
    ("sweep.partials", "repro.sweep.manifest:read_partial",
     ("repro.sweep.engine",), None),
]

#: (span name, "module:Class.method", value hook)
METHODS = [
    ("trace.eipv", "repro.trace.eipv:EIPVDataset.from_store", None),
    ("core.fit", "repro.core.regression_tree:RegressionTreeSequence.fit",
     None),
    ("runtime.cache.get", "repro.runtime.cache:ResultCache.get",
     lambda result, _a, _k: int(result is not None)),
    ("runtime.cache.put", "repro.runtime.cache:ResultCache.put", None),
    ("serve.handle", "repro.serve.service:AnalysisService.handle", None),
]


def _resolve(target: str):
    module_name, _, attr = target.partition(":")
    return importlib.import_module(module_name), attr


def install() -> None:
    """Rebind every measured function to its span-recording wrapper."""
    for name, target, importers, value in FUNCTIONS:
        module, attr = _resolve(target)
        original = getattr(module, attr)
        wrapper = _traced(name, original, value)
        for holder in (module.__name__, *importers):
            holder_module = importlib.import_module(holder)
            if getattr(holder_module, attr, None) is original:
                setattr(holder_module, attr, wrapper)
    for name, target, value in METHODS:
        module, path = _resolve(target)
        class_name, _, method = path.partition(".")
        cls = getattr(module, class_name)
        raw = vars(cls)[method]
        if isinstance(raw, classmethod):
            setattr(cls, method,
                    classmethod(_traced(name, raw.__func__, value)))
        else:
            setattr(cls, method, _traced(name, raw, value))

    scheduler = importlib.import_module("repro.runtime.scheduler")
    original = scheduler.run_jobs
    wrapper = _traced_run_jobs(original)
    for holder in ("repro.runtime.scheduler", "repro.runtime",
                   "repro.serve.service"):
        holder_module = importlib.import_module(holder)
        if getattr(holder_module, "run_jobs", None) is original:
            holder_module.run_jobs = wrapper

    from repro.serve.admission import AdmissionController
    from repro.serve.server import ServeHandler
    AdmissionController.admit = _traced_admit(AdmissionController.admit)
    ServeHandler.do_POST = _traced_do_post(ServeHandler.do_POST)


def write(path: str, counters: dict) -> None:
    data = {"clock": "monotonic", "spans": list(_spans),
            "metrics": counters}
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    os.replace(tmp, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True,
                        help="where to write spans and counters (JSON)")
    parser.add_argument("--no-spans", action="store_true",
                        help="record counters only")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="-- followed by the repro arguments")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] \
        else args.command

    from repro import cli
    from repro.runtime.metrics import METRICS

    if not args.no_spans:
        install()
    try:
        return cli.main(command)
    finally:
        write(args.out, METRICS.snapshot())


if __name__ == "__main__":
    sys.exit(main())
