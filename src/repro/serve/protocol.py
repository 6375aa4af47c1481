"""Request/response protocol of the analysis daemon.

Every HTTP body the daemon accepts normalizes into a frozen request
dataclass here, and every request normalizes further into the *same*
content-hashed identities the rest of the runtime uses: an ``analyze``
request becomes one :class:`~repro.runtime.jobs.JobSpec` (so its
coalesce key, cache key and manifest key are all ``spec.key``), while
``census`` and ``profile`` requests get a request-level key hashed the
same way (endpoint name + canonical parameters through
:func:`~repro.runtime.jobs.spec_key`).

Two invariants this module enforces:

* **Normalization equals the CLI.**  Defaults (seed 11, k_max 50,
  ``default_intervals`` per workload class) are resolved exactly as
  ``repro analyze``/``repro census`` resolve their flags, so a daemon
  request and a one-shot CLI run of the same parameters address the
  same job — the precondition for the byte-identical-response contract
  the burn-in harness asserts.

* **No clocks, no randomness.**  Parsing and keying are pure; anything
  time-dependent (deadlines, queueing) lives in the service layer.

Malformed input raises :class:`ProtocolError` carrying the HTTP status
the server should answer with; nothing here ever touches the network.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.experiments.common import default_intervals
from repro.runtime.jobs import JobSpec, field_dict, spec_key
from repro.workloads.registry import workload_names

#: Scales/machines the CLI exposes; requests are validated to the same set.
SCALES = ("tiny", "default", "paper")
MACHINES = ("itanium2", "pentium4", "xeon")

#: Protocol schema version, echoed in every response envelope (both as
#: the legacy ``protocol`` field and the versioned ``schema`` field).
PROTOCOL_VERSION = 1

#: The versioned path prefix.  ``/v1/analyze`` is the supported spelling;
#: bare ``/analyze`` keeps working but is answered with a ``Deprecation``
#: header pointing at its successor.
VERSION_PREFIX = "/v1"


def normalize_endpoint(path: str) -> tuple[str, bool]:
    """``(canonical_path, versioned)`` for one request path.

    ``/v1/analyze`` → ``("/analyze", True)``; ``/analyze`` →
    ``("/analyze", False)``.  Unknown paths pass through unchanged so
    404 messages show what the client actually sent.
    """
    if path == VERSION_PREFIX or path.startswith(VERSION_PREFIX + "/"):
        return path[len(VERSION_PREFIX):] or "/", True
    return path, False


class ProtocolError(Exception):
    """A request the daemon must refuse; carries the HTTP status."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


def _int_field(body: dict, name: str, default, minimum: int = 1):
    value = body.get(name, default)
    if value is None:
        return None
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{name!r} must be an integer")
    _require(value >= minimum, f"{name!r} must be >= {minimum}")
    return value


def _deadline_field(body: dict):
    value = body.get("deadline_s")
    if value is None:
        return None
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             "'deadline_s' must be a number of seconds")
    _require(value > 0, "'deadline_s' must be > 0")
    return float(value)


def _workload_field(name, known: set) -> str:
    _require(isinstance(name, str) and bool(name),
             "'workload' must be a workload name (see 'repro list')")
    _require(name in known, f"unknown workload {name!r} (see 'repro list')")
    return name


def _check_keys(body: dict, allowed: set) -> None:
    unknown = sorted(set(body) - allowed)
    _require(not unknown, f"unknown field(s): {', '.join(unknown)}")


@dataclass(frozen=True)
class AnalyzeRequest:
    """One normalized ``POST /analyze`` body."""

    workload: str
    n_intervals: int
    seed: int = 11
    k_max: int = 50
    scale: str = "default"
    machine: str = "itanium2"
    #: Include the rendered CLI-identical report in the response.
    render: bool = True
    #: Per-request deadline in seconds (None = the server default).
    deadline_s: float | None = None

    endpoint = "analyze"

    @classmethod
    def from_body(cls, body: dict) -> "AnalyzeRequest":
        _require(isinstance(body, dict), "request body must be an object")
        _check_keys(body, {"workload", "intervals", "seed", "k_max",
                           "scale", "machine", "render", "deadline_s"})
        workload = _workload_field(body.get("workload"),
                                   set(workload_names()))
        scale = body.get("scale", "default")
        _require(scale in SCALES, f"'scale' must be one of {SCALES}")
        machine = body.get("machine", "itanium2")
        _require(machine in MACHINES,
                 f"'machine' must be one of {MACHINES}")
        render = body.get("render", True)
        _require(isinstance(render, bool), "'render' must be a boolean")
        intervals = _int_field(body, "intervals", None)
        return cls(
            workload=workload,
            # The CLI's normalization, verbatim: an absent/None intervals
            # resolves per workload class before the spec is hashed.
            n_intervals=intervals or default_intervals(workload),
            seed=_int_field(body, "seed", 11, minimum=0),
            k_max=_int_field(body, "k_max", 50),
            scale=scale,
            machine=machine,
            render=render,
            deadline_s=_deadline_field(body),
        )

    @cached_property
    def spec(self) -> JobSpec:
        """The content-hashed job this request denotes (CLI-identical),
        built once per request."""
        return JobSpec(workload=self.workload, n_intervals=self.n_intervals,
                       seed=self.seed, machine=self.machine,
                       scale=self.scale, k_max=self.k_max)

    @property
    def key(self) -> str:
        """Coalesce/dedup identity — the spec's own key, reused."""
        return self.spec.key


@dataclass(frozen=True)
class CensusRequest:
    """One normalized ``POST /census`` body."""

    workloads: tuple  # () = the full 50, preserving request order
    seed: int = 11
    k_max: int = 50
    render: bool = True
    deadline_s: float | None = None

    endpoint = "census"

    @classmethod
    def from_body(cls, body: dict) -> "CensusRequest":
        _require(isinstance(body, dict), "request body must be an object")
        _check_keys(body, {"workloads", "seed", "k_max", "render",
                           "deadline_s"})
        raw = body.get("workloads", [])
        _require(isinstance(raw, list), "'workloads' must be a list")
        known = set(workload_names())
        workloads = tuple(_workload_field(name, known) for name in raw)
        render = body.get("render", True)
        _require(isinstance(render, bool), "'render' must be a boolean")
        return cls(workloads=workloads,
                   seed=_int_field(body, "seed", 11, minimum=0),
                   k_max=_int_field(body, "k_max", 50),
                   render=render,
                   deadline_s=_deadline_field(body))

    @cached_property
    def key(self) -> str:
        """Request-level dedup identity (endpoint + canonical params).

        ``deadline_s`` and ``render`` are excluded: they shape the wait
        and the envelope, not the computed result, so requests differing
        only there still coalesce.
        """
        data = field_dict(self)
        data.pop("deadline_s")
        data.pop("render")
        data["workloads"] = list(self.workloads)
        return spec_key({"endpoint": self.endpoint, **data})


@dataclass(frozen=True)
class ProfileRequest:
    """One normalized ``POST /profile`` body."""

    workloads: tuple
    n_intervals: int | None = None
    seed: int = 11
    k_max: int = 50
    scale: str = "default"
    machine: str = "itanium2"
    top: int = 5
    deadline_s: float | None = None

    endpoint = "profile"

    @classmethod
    def from_body(cls, body: dict) -> "ProfileRequest":
        _require(isinstance(body, dict), "request body must be an object")
        _check_keys(body, {"workloads", "intervals", "seed", "k_max",
                           "scale", "machine", "top", "deadline_s"})
        raw = body.get("workloads")
        _require(isinstance(raw, list) and bool(raw),
                 "'workloads' must be a non-empty list")
        known = set(workload_names())
        workloads = tuple(_workload_field(name, known) for name in raw)
        scale = body.get("scale", "default")
        _require(scale in SCALES, f"'scale' must be one of {SCALES}")
        machine = body.get("machine", "itanium2")
        _require(machine in MACHINES,
                 f"'machine' must be one of {MACHINES}")
        return cls(workloads=workloads,
                   n_intervals=_int_field(body, "intervals", None),
                   seed=_int_field(body, "seed", 11, minimum=0),
                   k_max=_int_field(body, "k_max", 50),
                   scale=scale, machine=machine,
                   top=_int_field(body, "top", 5),
                   deadline_s=_deadline_field(body))

    @cached_property
    def key(self) -> str:
        """Request-level dedup identity.

        A profile measures *real* wall time, so coalescing two identical
        profile requests onto one measurement is semantically fine (they
        asked the same question); only the deterministic structure is
        promised to be stable across runs.
        """
        data = field_dict(self)
        data.pop("deadline_s")
        data["workloads"] = list(self.workloads)
        return spec_key({"endpoint": self.endpoint, **data})


@dataclass(frozen=True)
class SweepRequest:
    """One normalized ``POST /sweep`` body.

    A sweep request describes a :class:`~repro.sweep.space.SweepSpace`;
    the daemon owns the sweep directory (keyed by the space), so
    repeating a request resumes rather than recomputes.  Defaults match
    ``repro sweep``: tiny scale, short runs, every machine, the stock
    interval sizes.
    """

    workloads: tuple = ()  # () = the full 50
    machines: tuple = MACHINES
    interval_sizes: tuple = ()  # () = the stock DEFAULT_INTERVALS
    seeds: tuple = (11, 12, 13)
    scale: str = "tiny"
    n_intervals: int = 12
    k_max: int = 5
    folds: int = 4
    limit: int | None = None
    #: Resumability granularity (perf knob — excluded from the key).
    shards: int | None = None
    render: bool = True
    deadline_s: float | None = None

    endpoint = "sweep"

    @classmethod
    def from_body(cls, body: dict) -> "SweepRequest":
        _require(isinstance(body, dict), "request body must be an object")
        _check_keys(body, {"workloads", "machines", "interval_sizes",
                           "seeds", "scale", "intervals", "k_max", "folds",
                           "limit", "shards", "render", "deadline_s"})
        raw = body.get("workloads", [])
        _require(isinstance(raw, list), "'workloads' must be a list")
        known = set(workload_names())
        workloads = tuple(_workload_field(name, known) for name in raw)
        machines = body.get("machines", list(MACHINES))
        _require(isinstance(machines, list) and bool(machines),
                 "'machines' must be a non-empty list")
        for machine in machines:
            _require(machine in MACHINES,
                     f"'machines' entries must be one of {MACHINES}")
        scale = body.get("scale", "tiny")
        _require(scale in SCALES, f"'scale' must be one of {SCALES}")
        for axis in ("interval_sizes", "seeds"):
            values = body.get(axis, [])
            _require(isinstance(values, list)
                     and all(isinstance(v, int) and not isinstance(v, bool)
                             and v >= (0 if axis == "seeds" else 1)
                             for v in values),
                     f"{axis!r} must be a list of integers")
        render = body.get("render", True)
        _require(isinstance(render, bool), "'render' must be a boolean")
        return cls(workloads=workloads,
                   machines=tuple(machines),
                   interval_sizes=tuple(body.get("interval_sizes", [])),
                   seeds=tuple(body.get("seeds", [11, 12, 13])) or (11,),
                   scale=scale,
                   n_intervals=_int_field(body, "intervals", 12),
                   k_max=_int_field(body, "k_max", 5),
                   folds=_int_field(body, "folds", 4),
                   limit=_int_field(body, "limit", None),
                   shards=_int_field(body, "shards", None),
                   render=render,
                   deadline_s=_deadline_field(body))

    @cached_property
    def space(self):
        """The content-hashed sweep space this request denotes, built
        once per request."""
        from repro.sweep import DEFAULT_INTERVALS, SweepSpace
        return SweepSpace(
            workloads=self.workloads or tuple(workload_names()),
            machines=self.machines,
            interval_instructions=self.interval_sizes or DEFAULT_INTERVALS,
            seeds=self.seeds,
            scale=self.scale,
            n_intervals=self.n_intervals,
            k_max=self.k_max,
            folds=self.folds,
            limit=self.limit,
        )

    @property
    def key(self) -> str:
        """Coalesce/dedup identity — the space's own key, reused.

        ``shards``, ``render`` and ``deadline_s`` shape persistence
        granularity, the envelope and the wait — not the result — so
        requests differing only there still coalesce.
        """
        return self.space.key


#: endpoint path -> request parser, the daemon's POST routing table
#: (canonical, unversioned paths; ``/v1/...`` normalizes onto these).
REQUEST_PARSERS = {
    "/analyze": AnalyzeRequest.from_body,
    "/census": CensusRequest.from_body,
    "/profile": ProfileRequest.from_body,
    "/sweep": SweepRequest.from_body,
}


def parse_request(path: str, body: dict):
    """Parse one POST body for ``path`` (versioned or bare); 404s on
    unknown endpoints.

    A request's key builds its job spec or sweep space, which refuse
    values the analysis cannot use (fewer intervals than folds, one
    fold); that refusal is a 400, before anything runs.
    """
    endpoint, _ = normalize_endpoint(path)
    try:
        parser = REQUEST_PARSERS[endpoint]
    except KeyError:
        raise ProtocolError(f"no such endpoint: {path}",
                            status=404) from None
    request = parser(body)
    try:
        request.key  # builds the spec or space
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None
    return request
