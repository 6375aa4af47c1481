"""Determinism rules: RL001 (iteration order), RL002 (unseeded RNG),
RL003 (wall clock in hashed/cached code paths).

These guard the pipeline's load-bearing promise — byte-identical output
across serial / parallel / warm-cache / trace-store runs — at the
three places it historically leaks: filesystem enumeration order, global
RNG state, and clock reads inside content-addressed code.
"""

from __future__ import annotations

import ast

from repro.lint.rules import (Rule, qualified_name, register,
                              statement_ancestors)

#: Methods whose result order is filesystem-dependent.
_FS_METHODS = {"glob", "rglob", "iterdir"}
#: Module functions whose result order is filesystem-dependent.
_FS_FUNCTIONS = {"os.listdir", "os.scandir"}

#: numpy.random attributes that are *not* module-level mutable state.
_NP_RANDOM_OK = {"default_rng", "Generator", "RandomState", "SeedSequence",
                 "BitGenerator", "MT19937", "PCG64", "PCG64DXSM", "Philox",
                 "SFC64"}

#: stdlib ``random`` module calls that read or mutate the global state.
_STDLIB_RANDOM = {"seed", "random", "randint", "randrange", "getrandbits",
                  "choice", "choices", "shuffle", "sample", "uniform",
                  "triangular", "betavariate", "expovariate", "gauss",
                  "normalvariate", "lognormvariate", "vonmisesvariate",
                  "paretovariate", "weibullvariate", "randbytes"}

#: Wall-clock reads (monotonic/perf counters are fine — they time, they
#: don't stamp).
_WALL_CLOCK = {"time.time", "time.time_ns", "datetime.datetime.now",
               "datetime.datetime.utcnow", "datetime.datetime.today",
               "datetime.date.today"}


@register
class NondeterministicIteration(Rule):
    """RL001: filesystem enumeration and set iteration have no stable
    order; anything that feeds output, hashes, or eviction must sort."""

    rule_id = "RL001"
    title = "nondeterministic iteration"
    invariant = ("directory listings (glob/rglob/iterdir/listdir/scandir) "
                 "are wrapped in sorted(); loops never iterate a set "
                 "directly")

    def check(self, ctx, config):
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                name = self._fs_call_name(node, ctx.aliases)
                if name and not self._is_sorted(node, ctx.parents,
                                                ctx.aliases):
                    yield self.finding(
                        ctx, node,
                        f"{name}() iterates in filesystem order; wrap it "
                        f"in sorted() so downstream output, hashes and "
                        f"eviction order are machine-independent")
            elif isinstance(node, ast.For):
                if self._is_set_expr(node.iter, ctx.aliases):
                    yield self.finding(
                        ctx, node.iter,
                        "iterating a set has hash-seed-dependent order; "
                        "sort it (or iterate a list/dict) before the "
                        "order can reach output or hashes")

    def _fs_call_name(self, node: ast.Call, aliases) -> str | None:
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr in _FS_METHODS:
            return node.func.attr
        name = qualified_name(node.func, aliases)
        if name in _FS_FUNCTIONS:
            return name
        return None

    def _is_sorted(self, node, parents, aliases) -> bool:
        for ancestor in statement_ancestors(node, parents):
            if isinstance(ancestor, ast.Call) \
                    and qualified_name(ancestor.func, aliases) == "sorted":
                return True
        return False

    def _is_set_expr(self, node, aliases) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (isinstance(node, ast.Call)
                and qualified_name(node.func, aliases) == "set")


@register
class UnseededRandomness(Rule):
    """RL002: every random draw flows from an explicit seed through a
    ``numpy.random.Generator``; module-level RNG state is shared across
    call sites (and fork-inherited by workers), so it silently couples
    otherwise-independent runs."""

    rule_id = "RL002"
    title = "unseeded randomness"
    invariant = ("no numpy.random or stdlib random module-level state; "
                 "default_rng() always takes an explicit seed")

    def check(self, ctx, config):
        if config.matches(ctx.relpath, config.rl002_allow):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = qualified_name(node.func, ctx.aliases)
            if name is None:
                continue
            if name.startswith("numpy.random."):
                member = name.split(".", 2)[2].split(".")[0]
                if member == "default_rng" and not node.args \
                        and not node.keywords:
                    yield self.finding(
                        ctx, node,
                        "default_rng() without a seed draws entropy from "
                        "the OS; pass an explicit seed so runs reproduce")
                elif member not in _NP_RANDOM_OK:
                    yield self.finding(
                        ctx, node,
                        f"numpy.random.{member} uses numpy's global RNG "
                        f"state; thread a seeded np.random.Generator "
                        f"through instead")
            elif name.startswith("random."):
                member = name.split(".", 1)[1]
                if member in _STDLIB_RANDOM:
                    yield self.finding(
                        ctx, node,
                        f"random.{member} uses the stdlib's global RNG "
                        f"state; use a seeded np.random.Generator (or "
                        f"random.Random(seed)) instead")


@register
class WallClockInHashedPaths(Rule):
    """RL003: job specs, cache keys and manifests are content-addressed;
    a wall-clock read inside those code paths makes identical inputs
    produce different bytes, which defeats the cache and breaks the
    serial == parallel == warm-cache equality the suite asserts."""

    rule_id = "RL003"
    title = "wall clock in hashed/cached code path"
    invariant = ("no time.time/datetime.now inside runtime job, "
                 "cache-key or manifest code (perf_counter/monotonic "
                 "are fine)")

    def check(self, ctx, config):
        if not config.matches(ctx.relpath, config.rl003_paths):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = qualified_name(node.func, ctx.aliases)
            if name in _WALL_CLOCK:
                yield self.finding(
                    ctx, node,
                    f"{name}() reads the wall clock inside a hashed/"
                    f"cached code path; timestamps here make identical "
                    f"inputs produce different bytes — keep them out of "
                    f"anything content-addressed")
