"""The one shape every experiment conforms to.

Each experiment module exposes a module-level ``EXPERIMENT``: an
:class:`Experiment` with a stable ``id`` (DESIGN.md's E-numbers), a
human ``title``, and a uniform ``render(result=None)`` — compute fresh
when no result is given, otherwise render the precomputed one.  The
runner, the CLI and the benchmark harness all consume this protocol
instead of guessing at per-module signatures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Protocol, runtime_checkable


@runtime_checkable
class ExperimentLike(Protocol):
    """What the runner/CLI/benchmarks require of an experiment."""

    id: str
    title: str

    def render(self, result: Any | None = None) -> str: ...


@dataclass(frozen=True)
class Experiment:
    """Standard implementation binding an id/title to module callables.

    ``runner`` computes the experiment's result object; ``renderer``
    turns an (optional) result into the report text, computing a fresh
    one when passed ``None``.
    """

    id: str
    title: str
    runner: Callable[..., Any]
    renderer: Callable[[Any], str]

    def run(self) -> Any:
        """Compute the experiment's result object."""
        return self.runner()

    def render(self, result: Any | None = None) -> str:
        """Render ``result``, computing it first when not supplied."""
        if result is None:
            result = self.runner()
        return self.renderer(result)
