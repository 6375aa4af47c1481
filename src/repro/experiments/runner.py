"""Experiment registry and run-all driver.

Every experiment module exposes a module-level
:class:`~repro.experiments.base.Experiment`; the registry below is built
from those objects, so the runner, the CLI and the benchmark harness all
consume the same ``render(result=None)`` protocol.  ``python -m
repro.experiments.runner [ids...]`` runs them from the command line.
"""

from __future__ import annotations

import sys

from repro.experiments.base import Experiment
from repro.obs import span
from repro.runtime.metrics import METRICS
from repro.runtime.cache import store_scope
from repro.experiments import (
    example_tree,
    future_work,
    fig2_odbc_sjas,
    fig3_spread,
    fig45_breakdown,
    fig67_threads,
    fig8_q13,
    fig10_q18,
    kmeans_comparison,
    robustness,
    sampling_eval,
    table2_quadrants,
)

_MODULES = (
    example_tree,
    fig2_odbc_sjas,
    fig3_spread,
    fig45_breakdown,
    fig67_threads,
    fig8_q13,
    fig10_q18,
    table2_quadrants,
    kmeans_comparison,
    robustness,
    sampling_eval,
    future_work,
)

#: Experiment id -> :class:`Experiment` (one per module's ``EXPERIMENT``).
EXPERIMENTS: dict[str, Experiment] = {
    module.EXPERIMENT.id: module.EXPERIMENT for module in _MODULES
}


def experiment_ids() -> list[str]:
    """All registered ids in natural (e1, e2, ..., e10) order."""
    return sorted(EXPERIMENTS, key=lambda exp_id: int(exp_id[1:]))


def get_experiment(experiment_id: str) -> Experiment:
    """Look up one experiment by id (e.g. ``"e2"``), case-insensitive."""
    key = experiment_id.lower()
    if key not in EXPERIMENTS:
        known = ", ".join(experiment_ids())
        raise KeyError(f"unknown experiment {experiment_id!r}; "
                       f"known: {known}")
    return EXPERIMENTS[key]


def run_experiment(experiment_id: str, *, jobs: int = 1, store=None,
                   timeout: float | None = None) -> str:
    """Render one experiment by id (e.g. ``"e2"``).

    ``jobs``/``timeout`` reach e8, the only experiment that schedules
    jobs.  Every experiment collects its runs through ``store`` (a
    temporary one per call when omitted); e1's hand-built dataset needs
    none.
    """
    experiment = get_experiment(experiment_id)
    key = experiment.id
    with METRICS.time(f"experiment.{key}_s"):
        with span(f"experiment.{key}", title=experiment.title):
            if experiment is table2_quadrants.EXPERIMENT:
                result = table2_quadrants.run(jobs=jobs, store=store,
                                              timeout=timeout)
            elif experiment is example_tree.EXPERIMENT:
                result = None
            else:
                result = experiment.runner(store=store)
            return experiment.render(result)


def run_all(ids=None, *, jobs: int = 1, store=None,
            timeout: float | None = None) -> str:
    """Render several experiments, separated by banners.

    Every id shares one store — ``store``, or a temporary one — so
    experiments over the same run simulate it once, and a rerun on a
    warm cache simulates nothing.
    """
    ids = list(ids) if ids else sorted(EXPERIMENTS)
    sections = []
    with store_scope(store) as scoped:
        for experiment_id in ids:
            experiment = get_experiment(experiment_id)
            banner = "=" * 72
            text = run_experiment(experiment_id, jobs=jobs, store=scoped,
                                  timeout=timeout)
            sections.append(f"{banner}\n{experiment_id.upper()}: "
                            f"{experiment.title}\n{banner}\n{text}")
    return "\n\n".join(sections)


def main(argv=None) -> int:
    argv = argv if argv is not None else sys.argv[1:]
    print(run_all(argv or None))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
