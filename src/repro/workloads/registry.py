"""Workload catalogue: every benchmark the paper analyzes, by name.

Names:

* ``"odbc"`` — the OLTP workload (Section 5);
* ``"sjas"`` — the application server (Section 5);
* ``"odbh.q1"`` .. ``"odbh.q22"`` — the 22 DSS queries (Section 6);
* ``"spec.gzip"`` etc. — the 26 SPEC CPU2K benchmarks (Section 7).

:func:`get_workload` builds a fresh workload instance;
:func:`paper_quadrant` names its quadrant in the paper's census without
building it; :func:`workload_names` enumerates the full census used for
Table 2.
"""

from __future__ import annotations

from repro.workloads.appserver import PAPER_QUADRANT as SJAS_QUADRANT
from repro.workloads.appserver import sjas_workload
from repro.workloads.dss import QUERY_NAMES, odbh_query_workload, query_spec
from repro.workloads.oltp import PAPER_QUADRANT as ODBC_QUADRANT
from repro.workloads.oltp import odbc_workload
from repro.workloads.scale import DEFAULT, WorkloadScale
from repro.workloads.spec import SPEC_NAMES, spec_spec, spec_workload
from repro.workloads.system import Workload


def workload_names(include_spec: bool = True, include_dss: bool = True,
                   include_server: bool = True) -> list[str]:
    """All workload names, in census order (servers, DSS queries, SPEC)."""
    names: list[str] = []
    if include_server:
        names.extend(["odbc", "sjas"])
    if include_dss:
        names.extend(f"odbh.{q.lower()}" for q in QUERY_NAMES)
    if include_spec:
        names.extend(f"spec.{b}" for b in SPEC_NAMES)
    return names


def get_workload(name: str, scale: WorkloadScale = DEFAULT) -> Workload:
    """Build the named workload at ``scale``.

    Raises ``KeyError`` for unknown names, listing valid choices.
    """
    if name == "odbc":
        return odbc_workload(scale)
    if name == "sjas":
        return sjas_workload(scale)
    if name.startswith("odbh."):
        return odbh_query_workload(name.split(".", 1)[1].upper(), scale)
    if name.startswith("spec."):
        return spec_workload(name.split(".", 1)[1], scale)
    known = ", ".join(workload_names())
    raise KeyError(f"unknown workload {name!r}; known: {known}")


def paper_quadrant(name: str) -> str:
    """The paper's (reconstructed) quadrant label for the named
    workload: the constant or spec-table entry its factory puts in
    ``metadata["paper_quadrant"]``, looked up without building it.

    Raises ``KeyError`` for unknown names, like :func:`get_workload`.
    """
    if name == "odbc":
        return ODBC_QUADRANT
    if name == "sjas":
        return SJAS_QUADRANT
    if name.startswith("odbh."):
        return query_spec(name.split(".", 1)[1].upper()).quadrant
    if name.startswith("spec."):
        return spec_spec(name.split(".", 1)[1]).quadrant
    known = ", ".join(workload_names())
    raise KeyError(f"unknown workload {name!r}; known: {known}")
