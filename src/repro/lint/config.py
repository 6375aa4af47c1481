"""Configuration for :mod:`repro.lint`, read from ``pyproject.toml``.

The linter is configured in the repo's ``pyproject.toml`` under
``[tool.repro-lint]``::

    [tool.repro-lint]
    paths = ["src/repro", "examples"]
    baseline = "lint-baseline.json"
    rl003-paths = ["src/repro/runtime/*.py"]
    rl005-pool-sites = ["src/repro/runtime/pool.py"]
    rl006-hot-paths = ["src/repro/trace/sampler.py"]
    scoped-allow = ["RL003:src/repro/serve/server.py"]

``scoped-allow`` entries are ``"RULE:glob"`` pairs: findings of RULE in
files matching glob are *scoped-allowed* — reported but never failing —
which exempts one reviewed file from a rule that is right for its
directory, without baselining each occurrence line by line.

All paths are relative to the **lint root**: the directory containing
``pyproject.toml``, found by walking up from the starting directory.
``tomllib`` (Python 3.11+) parses the file when available; on 3.10 a
minimal fallback parser handles the string/array-of-strings subset this
section actually uses, so the linter stays dependency-free everywhere
the test matrix runs.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from fnmatch import fnmatch
from pathlib import Path


class ConfigError(Exception):
    """Raised when pyproject.toml cannot be found or parsed."""


@dataclass(frozen=True)
class LintConfig:
    """Resolved lint configuration (all paths relative to ``root``)."""

    root: Path
    paths: tuple = ("src/repro",)
    baseline: str = "lint-baseline.json"
    #: Files where module-level RNG state is approved (fnmatch globs).
    rl002_allow: tuple = ()
    #: Hashed/cached code paths where wall-clock reads are forbidden.
    rl003_paths: tuple = ("src/repro/runtime/*.py",)
    #: The only files allowed to construct process pools.
    rl005_pool_sites: tuple = ("src/repro/runtime/pool.py",)
    #: Hot-path files where ambient I/O is forbidden.
    rl006_hot_paths: tuple = ("src/repro/trace/sampler.py",
                              "src/repro/core/regression_tree.py",
                              "src/repro/sparse.py")
    #: Files whose threading locks are guarded by RL007: nothing
    #: reachable while one of their locks is held may block.
    rl007_lock_paths: tuple = ("src/repro/runtime/pool.py",
                               "src/repro/runtime/coalesce.py",
                               "src/repro/serve/service.py")
    #: Dotted names (suffix-matched against resolved call targets) of
    #: hashed-spec constructors and render helpers guarded by RL009.
    rl009_sinks: tuple = ()
    #: Per-path rule scoping: ``"RULE:glob"`` entries.  A finding whose
    #: rule and file match an entry is *scoped-allowed* — reported (and
    #: visible with ``--verbose``) but never failing, like a baseline
    #: entry that covers a whole file instead of one line.  Use this when
    #: a rule is right for a directory but one file in it has a reviewed,
    #: structural exemption (e.g. the daemon's HTTP transport reading the
    #: wall clock for operator timestamps under RL003).
    scoped_allow: tuple = ()

    @property
    def baseline_path(self) -> Path:
        return self.root / self.baseline

    def matches(self, relpath: str, globs) -> bool:
        """True when ``relpath`` (POSIX, root-relative) matches a glob."""
        return any(fnmatch(relpath, pattern) for pattern in globs)

    def scoped_rules(self, relpath: str) -> set:
        """Rule IDs scope-allowed for ``relpath`` by ``scoped-allow``."""
        allowed = set()
        for entry in self.scoped_allow:
            rule, _, pattern = entry.partition(":")
            if fnmatch(relpath, pattern):
                allowed.add(rule.strip().upper())
        return allowed


#: pyproject key -> LintConfig field (TOML uses dashes, Python can't).
_KEYS = {
    "paths": "paths",
    "baseline": "baseline",
    "rl002-allow": "rl002_allow",
    "rl003-paths": "rl003_paths",
    "rl005-pool-sites": "rl005_pool_sites",
    "rl006-hot-paths": "rl006_hot_paths",
    "rl007-lock-paths": "rl007_lock_paths",
    "rl009-sinks": "rl009_sinks",
    "scoped-allow": "scoped_allow",
}


def find_root(start: Path | str | None = None) -> Path:
    """The nearest ancestor of ``start`` containing ``pyproject.toml``."""
    here = Path(start) if start is not None else Path.cwd()
    here = here.resolve()
    for candidate in (here, *here.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    raise ConfigError(f"no pyproject.toml found above {here}")


def load_config(start: Path | str | None = None,
                root: Path | str | None = None) -> LintConfig:
    """Load ``[tool.repro-lint]``; missing section means all defaults."""
    base = Path(root).resolve() if root is not None else find_root(start)
    section = _read_section(base / "pyproject.toml")
    config = LintConfig(root=base)
    updates = {}
    for key, value in section.items():
        field_name = _KEYS.get(key)
        if field_name is None:
            raise ConfigError(f"unknown [tool.repro-lint] key: {key!r}")
        if field_name == "baseline":
            if not isinstance(value, str):
                raise ConfigError("baseline must be a string path")
            updates[field_name] = value
        else:
            if isinstance(value, str):
                value = [value]
            if (not isinstance(value, list)
                    or not all(isinstance(v, str) for v in value)):
                raise ConfigError(f"{key} must be a list of strings")
            updates[field_name] = tuple(value)
    for entry in updates.get("scoped_allow", ()):
        rule, sep, pattern = entry.partition(":")
        if not sep or not rule.strip() or not pattern.strip():
            raise ConfigError(
                f"scoped-allow entries must be 'RULE:glob', got {entry!r}")
    return replace(config, **updates)


def _read_section(pyproject: Path) -> dict:
    try:
        text = pyproject.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {pyproject}: {exc}") from exc
    try:
        import tomllib
    except ImportError:  # Python 3.10
        return _parse_minimal(text)
    try:
        data = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(f"invalid TOML in {pyproject}: {exc}") from exc
    return data.get("tool", {}).get("repro-lint", {})


def _parse_minimal(text: str) -> dict:
    """Fallback parser for the ``[tool.repro-lint]`` section on 3.10.

    Supports exactly what the section uses: ``key = "string"`` and
    ``key = ["a", "b", ...]`` (arrays may span lines), plus full-line
    comments.  Values are decoded via JSON after stripping trailing
    commas, which is valid for TOML's double-quoted strings.
    """
    section: dict = {}
    in_section = False
    pending_key = None
    pending_value = ""
    for raw in text.splitlines():
        line = raw.strip()
        if pending_key is None:
            if not line or line.startswith("#"):
                continue
            if line.startswith("["):
                in_section = line == "[tool.repro-lint]"
                continue
            if not in_section or "=" not in line:
                continue
            key, _, value = line.partition("=")
            pending_key, pending_value = key.strip(), value.strip()
        else:
            pending_value += " " + line
        if _value_complete(pending_value):
            section[pending_key] = _decode_value(pending_value)
            pending_key, pending_value = None, ""
    if pending_key is not None:
        raise ConfigError(f"unterminated value for {pending_key!r} "
                          "in [tool.repro-lint]")
    return section


def _value_complete(value: str) -> bool:
    value = value.strip()
    if not value:
        return False
    if value.startswith("["):
        return value.count("[") == value.count("]") and value.endswith("]")
    return True


def _decode_value(value: str):
    value = value.strip()
    # Tolerate TOML's trailing commas inside arrays.
    value = re.sub(r",\s*\]", "]", value)
    try:
        return json.loads(value)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"cannot parse [tool.repro-lint] value: {value!r}") from exc
