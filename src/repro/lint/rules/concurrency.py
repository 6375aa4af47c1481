"""Concurrency rules: RL007 (blocking under lock), RL008 (lock order).

Both are project rules built on the semantic core's lock model and call
graph.  RL007 is the lint-time version of the bug fixed by hand in the
PR 8 review: ``WorkerPool.configure`` called ``executor.shutdown(
wait=True)`` while still holding the pool ``RLock``, so a mid-batch
reconfigure joined worker processes under the very lock every dispatch
needs — teardown now swaps state under the lock and joins outside it,
and RL007 keeps it that way.  RL008 guards against the classic AB/BA
deadlock as the runtime grows more locks (pool, coalescer, service
stage/curves): any two locks acquired in opposite orders on two call
paths get reported with both witness paths.
"""

from __future__ import annotations

import ast

from repro.lint.rules import ProjectRule, qualified_name, register
from repro.lint.semantic.callgraph import own_statements

#: Attribute methods that block the calling thread outright.
_IO_METHODS = {"read_text", "write_text", "read_bytes", "write_bytes",
               "recv", "send", "sendall", "accept", "connect",
               "recvfrom", "sendto"}

#: Resolved-through-imports callables that block.
_BLOCKING_FUNCTIONS = {"time.sleep", "open", "socket.create_connection"}


def blocking_reason(call: ast.Call, function, module, locks,
                    held_lock: str | None) -> str | None:
    """Why ``call`` blocks the calling thread, or ``None``.

    ``held_lock`` enables the one exemption: ``Condition.wait()`` on
    the lock that is itself held *releases* that lock while waiting —
    the canonical condition-variable idiom, not a bug.
    """
    func = call.func
    if isinstance(func, ast.Attribute):
        attr = func.attr
        if attr == "result":
            return "Future.result()"
        if attr == "join":
            return "join()" if _is_thread_join(call) else None
        if attr == "shutdown":
            return "shutdown(wait=True)" if _shutdown_waits(call) else None
        if attr == "wait":
            if held_lock is not None \
                    and locks.resolve_lock(func.value, function) \
                    == held_lock:
                return None
            return "wait()"
        if attr in _IO_METHODS:
            return f".{attr}() I/O"
    name = qualified_name(func, module.ctx.aliases)
    if name in _BLOCKING_FUNCTIONS:
        return f"{name}()"
    if name is not None and name.startswith("subprocess."):
        return f"{name}()"
    return None


def _is_thread_join(call: ast.Call) -> bool:
    """Distinguish ``thread.join(timeout?)`` from ``sep.join(parts)``."""
    if isinstance(call.func.value, ast.Constant):
        return False
    if any(kw.arg != "timeout" for kw in call.keywords):
        return False
    if not call.args:
        return True
    return len(call.args) == 1 \
        and isinstance(call.args[0], ast.Constant) \
        and isinstance(call.args[0].value, (int, float))


def _shutdown_waits(call: ast.Call) -> bool:
    """True when ``shutdown`` provably waits (default, or wait=True).

    A non-constant ``wait=`` stays unflagged: the rule only reports
    what it can prove.
    """
    wait = next((kw.value for kw in call.keywords if kw.arg == "wait"),
                None)
    if wait is None and call.args:
        wait = call.args[0]
    if wait is None:
        return True
    return isinstance(wait, ast.Constant) and wait.value is True


@register
class BlockingUnderLock(ProjectRule):
    """RL007: nothing reachable under a guarded lock may block."""

    rule_id = "RL007"
    title = "blocking call while a guarded lock is held"
    invariant = ("no Future.result()/shutdown(wait=True)/join()/sleep/"
                 "file/socket I/O runs — directly or through any call "
                 "chain — while a lock defined in an rl007-lock-paths "
                 "file is held (teardown swaps under the lock, joins "
                 "outside it)")

    def check_project(self, model, config):
        locks = model.locks
        graph = model.callgraph
        guarded = sorted(
            lock_id for lock_id, info in locks.locks.items()
            if config.matches(info.relpath, config.rl007_lock_paths))
        for qname in sorted(locks.functions):
            facts = locks.functions[qname]
            function = graph.functions[qname]
            module = model.symbols.modules[function.module]
            for lock_id in guarded:
                for call in facts.ops_under.get(lock_id, []):
                    reason = blocking_reason(call, function, module,
                                             locks, lock_id)
                    if reason:
                        yield self.finding_at(
                            function.relpath, call.lineno,
                            call.col_offset + 1,
                            f"{reason} while {lock_id} is held blocks "
                            f"every thread contending for the lock; "
                            f"move the blocking work outside the "
                            f"locked region")
                for callee, line, col in \
                        facts.calls_under.get(lock_id, []):
                    yield from self._transitive(
                        model, function, lock_id, callee, line, col)

    def _transitive(self, model, function, lock_id, callee, line, col):
        graph = model.callgraph
        reach = graph.reachable(callee)
        for target in sorted(reach):
            target_fn = graph.functions[target]
            target_module = model.symbols.modules[target_fn.module]
            for node in own_statements(target_fn):
                if not isinstance(node, ast.Call):
                    continue
                reason = blocking_reason(node, target_fn, target_module,
                                         model.locks, lock_id)
                if reason:
                    path = " -> ".join((function.qname,) + reach[target])
                    yield self.finding_at(
                        function.relpath, line, col,
                        f"call made while {lock_id} is held reaches "
                        f"{reason} at {target_fn.relpath}:{node.lineno} "
                        f"(path: {path}); the blocking work runs with "
                        f"the lock still held")


@register
class LockOrderInversion(ProjectRule):
    """RL008: no two locks acquired in opposite orders anywhere."""

    rule_id = "RL008"
    title = "lock-order inversion across call paths"
    invariant = ("no two threading locks are acquired in opposite "
                 "orders on any two call paths (AB on one path, BA on "
                 "another deadlocks under contention)")

    def check_project(self, model, config):
        locks = model.locks
        graph = model.callgraph
        # (outer, inner) -> sorted witnesses (relpath, line, path text).
        orders: dict = {}

        def record(outer, inner, relpath, line, path):
            orders.setdefault((outer, inner), []).append(
                (relpath, line, " -> ".join(path)))

        for qname in sorted(locks.functions):
            facts = locks.functions[qname]
            function = graph.functions[qname]
            for outer, inner, line in facts.nested_orders:
                record(outer, inner, function.relpath, line,
                       (function.qname,))
            for lock_id in sorted(facts.calls_under):
                for callee, line, _col in facts.calls_under[lock_id]:
                    reach = graph.reachable(callee)
                    for target in sorted(reach):
                        target_facts = locks.functions.get(target)
                        if target_facts is None:
                            continue
                        for inner, _iline in target_facts.acquired:
                            if inner == lock_id:
                                continue
                            record(lock_id, inner, function.relpath,
                                   line,
                                   (function.qname,) + reach[target])
        for outer, inner in sorted(orders):
            if outer >= inner or (inner, outer) not in orders:
                continue
            first = min(orders[(outer, inner)])
            second = min(orders[(inner, outer)])
            yield self.finding_at(
                first[0], first[1], 1,
                f"lock-order inversion between {outer} and {inner}: "
                f"{first[2]} acquires {outer} then {inner} "
                f"({first[0]}:{first[1]}), but {second[2]} acquires "
                f"{inner} then {outer} ({second[0]}:{second[1]}); "
                f"pick one order and keep it everywhere")
