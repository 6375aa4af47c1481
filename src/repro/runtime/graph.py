"""The general job DAG: one ``submit_graph`` instead of per-kind fan-outs.

Historically every parallel surface hand-rolled its own fan-out: the
census looped workload specs through :func:`~repro.runtime.scheduler.
run_jobs`, cross-validation shipped fold specs through a second copy of
the same dance, and profiling a third.  :class:`JobGraph` replaces all
of them with one model:

* a **node** is any content-hashed spec (``analysis``, ``cv_fold``, …) —
  anything with ``kind``, ``key``, ``canonical()`` and
  ``execute(jobs, store)``, plus ``stored(store)`` when it runs against
  a store;
* an **edge** is a dataset/result dependency: a node runs only after
  every dependency succeeded (its products reachable through the run's
  :class:`~repro.runtime.cache.ResultCache`);
* :func:`submit_graph` repeatedly computes the **ready set** (nodes
  whose dependencies are all done) and dispatches each set as one wave
  to the existing scheduler.  Within a wave the process pool's workers
  pull jobs from a shared queue, so a worker that finishes a cheap job
  immediately steals the next pending one — work-stealing across
  whatever sharding the caller imposed comes for free.

Determinism contract (inherited from the scheduler, preserved here):
outcomes return in node-insertion order regardless of completion order,
and a node's result is identical whether it was computed serially, in a
pool worker, or served from a warm cache.  Dependencies must be added
before their dependents, which makes insertion order a topological
order and cycles impossible by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.runtime import scheduler
from repro.runtime.metrics import METRICS
from repro.runtime.scheduler import JobOutcome


class GraphError(ValueError):
    """A structurally invalid graph operation (unknown dep, respec)."""


@dataclass(frozen=True)
class JobNode:
    """One schedulable node: a spec plus the keys it depends on."""

    spec: object
    deps: tuple = ()
    #: Longest dependency chain below this node; wave index it runs in.
    depth: int = 0


class JobGraph:
    """An insertion-ordered DAG of content-hashed job specs.

    Nodes are identified by ``spec.key``; adding an identical spec twice
    is a no-op (same content hash, same job — the graph computes it
    once), while adding the same key with *different* dependencies is an
    error.  Dependencies must already be in the graph, so a finished
    graph is topologically sorted by construction.
    """

    def __init__(self) -> None:
        self._nodes: dict[str, JobNode] = {}

    def add(self, spec, deps=()) -> str:
        """Add one node; returns its key.

        ``deps`` may contain keys or spec objects (their ``.key`` is
        taken).  Every dependency must already be a node.
        """
        dep_keys = tuple(dep if isinstance(dep, str) else dep.key
                         for dep in deps)
        for dep in dep_keys:
            if dep not in self._nodes:
                raise GraphError(
                    f"dependency {dep[:12]}… is not in the graph (add "
                    "dependencies before their dependents)")
        key = spec.key
        if key in self._nodes:
            if self._nodes[key].deps != dep_keys:
                raise GraphError(
                    f"node {key[:12]}… was already added with different "
                    "dependencies")
            return key
        depth = (1 + max(self._nodes[d].depth for d in dep_keys)
                 if dep_keys else 0)
        self._nodes[key] = JobNode(spec=spec, deps=dep_keys, depth=depth)
        return key

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, key: str) -> bool:
        return key in self._nodes

    def keys(self) -> list[str]:
        """Node keys in insertion (= topological) order."""
        return list(self._nodes)

    def node(self, key: str) -> JobNode:
        return self._nodes[key]

    def waves(self) -> list[list[str]]:
        """Ready sets: wave ``i`` holds every node of dependency depth
        ``i``, in insertion order.  All of wave ``i``'s dependencies lie
        in earlier waves, so each wave can dispatch as one batch."""
        waves: list[list[str]] = []
        for key, node in self._nodes.items():
            while len(waves) <= node.depth:
                waves.append([])
            waves[node.depth].append(key)
        return waves


def submit_graph(graph: JobGraph, jobs: int = 1, store=None,
                 timeout: float | None = None, metrics=METRICS,
                 on_outcome: Callable[[JobOutcome], None] | None = None
                 ) -> list[JobOutcome]:
    """Run every node of ``graph``; outcomes in node-insertion order.

    Each ready set dispatches as one :func:`run_jobs` wave: nodes whose
    product ``store`` holds are served from it, the rest fan out across
    ``jobs`` worker processes (the scheduler applies the
    serial-vs-parallel rule and keeps its serial fallback), every job
    receiving ``store``.  A node whose dependency failed is
    *skipped* — it gets a failure outcome naming the dependency, with
    that dependency's error, and never executes.

    ``on_outcome`` is the streaming hook: it fires once per node as its
    outcome becomes available (cache hits during the wave's probe pass,
    executed jobs as each completes, in submission order within a wave).
    Callers that aggregate thousands of nodes use it to fold results
    away incrementally instead of holding the whole outcome list.
    """
    done: dict[str, JobOutcome] = {}
    for wave in graph.waves():
        runnable: list[str] = []
        for key in wave:
            node = graph.node(key)
            bad = [dep for dep in node.deps if not done[dep].ok]
            if bad:
                outcome = JobOutcome(
                    spec=node.spec, key=key, result=None, cache_hit=False,
                    wall_time=0.0, worker="skipped",
                    error=(f"not run: dependency {bad[0][:12]}… failed "
                           f"({len(bad)}/{len(node.deps)} deps failed); "
                           f"its error:\n{done[bad[0]].error}"))
                done[key] = outcome
                metrics.inc("graph.dep_skipped")
                if on_outcome is not None:
                    on_outcome(outcome)
            else:
                runnable.append(key)
        if runnable:
            def record(outcome: JobOutcome) -> None:
                done[outcome.key] = outcome
                if on_outcome is not None:
                    on_outcome(outcome)
            # Called through the module so tests (and tools) that patch
            # scheduler.run_jobs intercept graph dispatch too.
            scheduler.run_jobs([graph.node(key).spec for key in runnable],
                               jobs=jobs, store=store, timeout=timeout,
                               metrics=metrics, on_outcome=record)
    return [done[key] for key in graph.keys()]
