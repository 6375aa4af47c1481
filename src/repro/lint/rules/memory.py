"""Memory-safety rules: RL004 (shared-view write-safety), RL005 (pool
hygiene).

RL004: a NumPy array built over a shared buffer (``np.ndarray(...,
buffer=...)``) is a window onto pages other code can see, so it must be
frozen (``flags.writeable = False``) before it escapes the constructing
function — an escaped writable view lets any caller silently corrupt
every other reader's data.  The same applies to memmapped artifact
loads (``np.load(..., mmap_mode=...)``): those pages back an on-disk
artifact shared by every process that opens it, so the view must be
frozen before escape (``ResultCache.load_arrays`` is the model), and
returning/yielding the load call directly — with no chance to freeze —
is flagged outright.

RL005 keeps process-pool construction confined to the warm pool (the
one place with the fallback/timeout/broken-pool machinery behind it)
and keeps big array payloads out of pool submissions: closures and
lambdas pickle their captures into every job, which is exactly the
copy-per-worker cost the one transport avoids — a job's spec names a
store entry, and the worker maps the arrays from it.
"""

from __future__ import annotations

import ast

from repro.lint.rules import (Rule, call_args, names_in, qualified_name,
                              register)

#: Last path segment of pool constructors, resolved through imports.
_POOL_CONSTRUCTORS = {"ProcessPoolExecutor", "Pool", "ThreadPool"}

#: Pool methods that ship work (and its pickled captures) to workers.
_SUBMIT_METHODS = {"submit", "map", "imap", "imap_unordered", "apply",
                   "apply_async", "starmap", "starmap_async"}


def _function_nodes(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def is_view_call(node, aliases) -> bool:
    """A call building an ndarray view over shared bytes.

    Two constructors qualify: ``np.ndarray(..., buffer=...)`` (a window
    onto a ``SharedMemory`` segment) and ``np.load(..., mmap_mode=...)``
    with a non-``None`` mode (a window onto an on-disk artifact's
    pages).  Shared between RL004 (same-function escapes) and RL010
    (cross-function escapes).
    """
    if not isinstance(node, ast.Call):
        return False
    name = qualified_name(node.func, aliases)
    if name == "numpy.ndarray":
        return any(keyword.arg == "buffer" for keyword in node.keywords)
    if name == "numpy.load":
        for keyword in node.keywords:
            if keyword.arg == "mmap_mode":
                return not (isinstance(keyword.value, ast.Constant)
                            and keyword.value.value is None)
    return False


def freeze_line(function, name: str) -> int | None:
    """Line of ``name.flags.writeable = False`` in ``function``."""
    for node in ast.walk(function):
        if not (isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Constant)
                and node.value.value is False):
            continue
        for target in node.targets:
            if (isinstance(target, ast.Attribute)
                    and target.attr == "writeable"
                    and isinstance(target.value, ast.Attribute)
                    and target.value.attr == "flags"
                    and isinstance(target.value.value, ast.Name)
                    and target.value.value.id == name):
                return node.lineno
    return None


def escape_line(function, name: str,
                include_returns: bool = True) -> int | None:
    """First line where the view named ``name`` leaves the function.

    Escapes are: appearing in a return/yield value, or being assigned
    *into* a container or attribute (``views[k] = view``, ``self.view =
    view``).  Writing into the view itself (``view[...] = data`` — the
    publish path) is not an escape.  ``include_returns=False`` restricts
    to store/yield escapes (RL010's caller-side check, where a plain
    return just propagates the view onward).
    """
    lines = []
    for node in ast.walk(function):
        if isinstance(node, ast.Return) and include_returns \
                and node.value is not None \
                and name in set(names_in(node.value)):
            lines.append(node.lineno)
        elif isinstance(node, (ast.Yield, ast.YieldFrom)) \
                and node.value is not None \
                and name in set(names_in(node.value)):
            lines.append(node.lineno)
        elif isinstance(node, ast.Assign) \
                and name in set(names_in(node.value)) \
                and any(isinstance(t, (ast.Subscript, ast.Attribute))
                        for t in node.targets):
            lines.append(node.lineno)
    return min(lines) if lines else None


@register
class ShmWriteSafety(Rule):
    """RL004: buffer-backed ndarray views must be frozen before escape."""

    rule_id = "RL004"
    title = "writable shared-buffer view escapes"
    invariant = ("np.ndarray(..., buffer=...) and np.load(..., "
                 "mmap_mode=...) views set flags.writeable = False "
                 "before being returned or stored (see "
                 "ResultCache.load_arrays)")

    def check(self, ctx, config):
        for function in _function_nodes(ctx.tree):
            yield from self._check_function(ctx, function)

    def _check_function(self, ctx, function):
        views = {}  # local name -> shared-buffer view call node
        for node in ast.walk(function):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name) \
                    and self._is_view_call(node.value, ctx.aliases):
                views[node.targets[0].id] = node.value
            elif isinstance(node, (ast.Return, ast.Yield)) \
                    and node.value is not None \
                    and self._is_view_call(node.value, ctx.aliases):
                # The view escapes inside the same statement that builds
                # it — there is no name to freeze through at all.
                yield self.finding(
                    ctx, node.value,
                    "shared-buffer ndarray view returned/yielded "
                    "directly while writable; bind it first, set "
                    ".flags.writeable = False, then let it escape")
        for name, call in views.items():
            frozen_line = self._freeze_line(function, name)
            escape_line = self._escape_line(function, name)
            if escape_line is None:
                continue  # the view never leaves this function
            if frozen_line is None:
                yield self.finding(
                    ctx, call,
                    f"'{name}' is an ndarray view over a shared buffer "
                    f"and escapes this function while writable; set "
                    f"{name}.flags.writeable = False first")
            elif frozen_line > escape_line:
                yield self.finding(
                    ctx, call,
                    f"'{name}' escapes on line {escape_line} before "
                    f"{name}.flags.writeable = False on line "
                    f"{frozen_line}; freeze the view before it escapes")

    def _is_view_call(self, node, aliases) -> bool:
        return is_view_call(node, aliases)

    def _freeze_line(self, function, name: str) -> int | None:
        return freeze_line(function, name)

    def _escape_line(self, function, name: str) -> int | None:
        return escape_line(function, name)


@register
class PoolHygiene(Rule):
    """RL005: pools are built in one place; submissions stay small."""

    rule_id = "RL005"
    title = "pool constructed or fed outside the warm pool"
    invariant = ("process pools are constructed only in "
                 "runtime/pool.py; submissions never pickle "
                 "closures/lambdas (large payloads travel as store "
                 "entries a job's spec names)")

    def check(self, ctx, config):
        allowed_here = config.matches(ctx.relpath, config.rl005_pool_sites)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = qualified_name(node.func, ctx.aliases)
            if name is not None and not allowed_here \
                    and name.split(".")[-1] in _POOL_CONSTRUCTORS \
                    and self._is_pool_module(name):
                yield self.finding(
                    ctx, node,
                    f"{name} constructed outside runtime/pool.py; "
                    f"go through repro.runtime.run_jobs so fan-out "
                    f"keeps its fallback, timeout and cache behavior")
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _SUBMIT_METHODS:
                yield from self._check_submission(ctx, node)

    def _is_pool_module(self, name: str) -> bool:
        """Restrict to stdlib pool types so e.g. BufferPool stays fine."""
        return name.startswith(("concurrent.futures.", "multiprocessing.")) \
            or name in _POOL_CONSTRUCTORS and "." not in name

    def _check_submission(self, ctx, node: ast.Call):
        nested = self._enclosing_nested_defs(ctx, node)
        for arg in call_args(node):
            if isinstance(arg, ast.Lambda):
                yield self.finding(
                    ctx, arg,
                    "lambda submitted to a pool pickles its captured "
                    "environment into every job; submit a module-level "
                    "function and ship arrays as a store entry its "
                    "spec names")
            elif isinstance(arg, ast.Name) and arg.id in nested:
                yield self.finding(
                    ctx, arg,
                    f"nested function '{arg.id}' submitted to a pool is "
                    f"a closure — its captures (possibly whole arrays) "
                    f"pickle into every job; hoist it to module level "
                    f"and ship data as a store entry the job's spec "
                    f"names")

    def _enclosing_nested_defs(self, ctx, node) -> set:
        """Names of functions defined inside the function containing
        ``node`` (i.e. candidates for closure capture)."""
        enclosing = None
        current = ctx.parents.get(node)
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                enclosing = current
                break
            current = ctx.parents.get(current)
        if enclosing is None:
            return set()
        nested = set()
        for child in ast.walk(enclosing):
            if child is not enclosing \
                    and isinstance(child,
                                   (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested.add(child.name)
        return nested
