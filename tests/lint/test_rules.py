"""Fixture-driven tests: one minimal snippet per rule, positive +
negative + suppressed cases.  Every snippet goes through the full
engine (config, walk, parse, suppress), not a rule in isolation."""

from __future__ import annotations


def _lines(result, rule):
    return [f.line for f in result.new if f.rule == rule]


# -- RL001: nondeterministic iteration -----------------------------------

class TestRL001:
    def test_unsorted_glob_flagged(self, lint_project):
        lint_project.write("pkg/mod.py", """\
            from pathlib import Path

            def entries(root: Path):
                return list(root.glob("*.json"))
            """)
        assert lint_project.rules_hit() == ["RL001"]

    def test_sorted_glob_ok(self, lint_project):
        lint_project.write("pkg/mod.py", """\
            from pathlib import Path

            def entries(root: Path):
                return sorted(root.glob("*.json"))
            """)
        assert lint_project.rules_hit() == []

    def test_os_listdir_and_iterdir_flagged(self, lint_project):
        lint_project.write("pkg/mod.py", """\
            import os

            def names(root, p):
                for name in os.listdir(root):
                    yield name
                for child in p.iterdir():
                    yield child
            """)
        result = lint_project.run()
        assert [f.rule for f in result.new] == ["RL001", "RL001"]

    def test_set_iteration_flagged(self, lint_project):
        lint_project.write("pkg/mod.py", """\
            def emit(items):
                for item in set(items):
                    print(item)
                for item in {1, 2, 3}:
                    print(item)
            """)
        assert _lines(lint_project.run(), "RL001") == [2, 4]

    def test_sorted_set_iteration_ok(self, lint_project):
        lint_project.write("pkg/mod.py", """\
            def emit(items):
                for item in sorted(set(items)):
                    print(item)
            """)
        assert lint_project.rules_hit() == []

    def test_suppression_comment(self, lint_project):
        lint_project.write("pkg/mod.py", """\
            from pathlib import Path

            def entries(root: Path):
                # order-insensitive: feeds len() only
                return list(root.glob("*"))  # repro-lint: disable=RL001
            """)
        result = lint_project.run()
        assert result.ok
        assert [f.rule for f in result.suppressed] == ["RL001"]


# -- RL002: unseeded randomness ------------------------------------------

class TestRL002:
    def test_module_level_state_flagged(self, lint_project):
        lint_project.write("pkg/mod.py", """\
            import numpy as np

            def draw(n):
                np.random.seed(0)
                return np.random.rand(n)
            """)
        assert _lines(lint_project.run(), "RL002") == [4, 5]

    def test_argless_default_rng_flagged(self, lint_project):
        lint_project.write("pkg/mod.py", """\
            import numpy as np
            from numpy.random import default_rng

            def draws(n):
                return np.random.default_rng().random(n), \\
                    default_rng().random(n)
            """)
        assert len(_lines(lint_project.run(), "RL002")) == 2

    def test_seeded_generator_ok(self, lint_project):
        lint_project.write("pkg/mod.py", """\
            import numpy as np

            def draw(n, seed):
                rng = np.random.default_rng(seed)
                legacy = np.random.RandomState(seed)
                generator: np.random.Generator = rng
                return generator.random(n) + legacy.rand(n)
            """)
        assert lint_project.rules_hit() == []

    def test_stdlib_random_flagged_but_local_rng_ok(self, lint_project):
        lint_project.write("pkg/mod.py", """\
            import random

            def pick(xs, rng):
                rng.shuffle(xs)        # a Generator method: fine
                return random.choice(xs)
            """)
        assert _lines(lint_project.run(), "RL002") == [5]

    def test_from_import_resolves(self, lint_project):
        lint_project.write("pkg/mod.py", """\
            from random import shuffle

            def mix(xs):
                shuffle(xs)
            """)
        assert lint_project.rules_hit() == ["RL002"]

    def test_allow_list_exempts_file(self, lint_project):
        lint_project.write("pkg/rng_ok.py", """\
            import numpy as np

            def noise(n):
                return np.random.rand(n)
            """)
        assert lint_project.rules_hit() == []


# -- RL003: wall clock in hashed/cached paths ----------------------------

class TestRL003:
    def test_wall_clock_in_runtime_flagged(self, lint_project):
        lint_project.write("pkg/runtime/cachekey.py", """\
            import time
            from datetime import datetime

            def stamp():
                return time.time(), datetime.now()
            """)
        assert _lines(lint_project.run(), "RL003") == [5, 5]

    def test_perf_counter_ok(self, lint_project):
        lint_project.write("pkg/runtime/cachekey.py", """\
            import time

            def elapsed(start):
                return time.perf_counter() - start
            """)
        assert lint_project.rules_hit() == []

    def test_wall_clock_outside_runtime_ok(self, lint_project):
        lint_project.write("pkg/report.py", """\
            import time

            def stamp():
                return time.time()
            """)
        assert lint_project.rules_hit() == []


# -- RL004: shared-view write-safety -------------------------------------

class TestRL004:
    def test_escaping_writable_view_flagged(self, lint_project):
        lint_project.write("pkg/mod.py", """\
            import numpy as np

            def attach(segment, shape):
                view = np.ndarray(shape, dtype="f8", buffer=segment.buf)
                return view
            """)
        assert lint_project.rules_hit() == ["RL004"]

    def test_freeze_after_escape_flagged(self, lint_project):
        lint_project.write("pkg/mod.py", """\
            import numpy as np

            def attach(segment, shape, views):
                view = np.ndarray(shape, dtype="f8", buffer=segment.buf)
                views["x"] = view
                view.flags.writeable = False
            """)
        assert lint_project.rules_hit() == ["RL004"]

    def test_frozen_before_escape_ok(self, lint_project):
        lint_project.write("pkg/mod.py", """\
            import numpy as np

            def attach(segment, shape, views):
                view = np.ndarray(shape, dtype="f8", buffer=segment.buf)
                view.flags.writeable = False
                views["x"] = view
                return view
            """)
        assert lint_project.rules_hit() == []

    def test_publish_pattern_ok(self, lint_project):
        # Writing *into* a local view that never escapes (a publish
        # loop into a shared buffer) is the intended use of a writable
        # view.
        lint_project.write("pkg/mod.py", """\
            import numpy as np

            def publish(segment, shape, arr):
                view = np.ndarray(shape, dtype="f8", buffer=segment.buf)
                view[...] = arr
            """)
        assert lint_project.rules_hit() == []

    def test_plain_ndarray_ok(self, lint_project):
        lint_project.write("pkg/mod.py", """\
            import numpy as np

            def make(shape):
                out = np.ndarray(shape, dtype="f8")
                return out
            """)
        assert lint_project.rules_hit() == []

    def test_escaping_writable_mmap_view_flagged(self, lint_project):
        lint_project.write("pkg/mod.py", """\
            import numpy as np

            def load(path):
                view = np.load(path, mmap_mode="r")
                return view
            """)
        assert lint_project.rules_hit() == ["RL004"]

    def test_mmap_view_returned_directly_flagged(self, lint_project):
        # No binding at all: nothing the freeze discipline could even
        # attach to, so the return itself is the violation.
        lint_project.write("pkg/mod.py", """\
            import numpy as np

            def column(root, name):
                return np.load(root / name, mmap_mode="r")
            """)
        assert lint_project.rules_hit() == ["RL004"]

    def test_mmap_view_frozen_before_return_ok(self, lint_project):
        lint_project.write("pkg/mod.py", """\
            import numpy as np

            def column(root, name):
                view = np.load(root / name, mmap_mode="r")
                view.flags.writeable = False
                return view
            """)
        assert lint_project.rules_hit() == []

    def test_plain_np_load_ok(self, lint_project):
        # An in-memory load owns its buffer; mmap_mode=None is the same.
        lint_project.write("pkg/mod.py", """\
            import numpy as np

            def load(path, other):
                data = np.load(path)
                copy = np.load(other, mmap_mode=None)
                return data, copy
            """)
        assert lint_project.rules_hit() == []


# -- RL005: pool hygiene --------------------------------------------------

class TestRL005:
    def test_pool_outside_scheduler_flagged(self, lint_project):
        lint_project.write("pkg/mod.py", """\
            from concurrent.futures import ProcessPoolExecutor
            from multiprocessing import Pool

            def fan_out(n):
                return ProcessPoolExecutor(max_workers=n), Pool(n)
            """)
        assert _lines(lint_project.run(), "RL005") == [5, 5]

    def test_pool_in_scheduler_ok(self, lint_project):
        lint_project.write("pkg/runtime/sched.py", """\
            from concurrent.futures import ProcessPoolExecutor

            def fan_out(n):
                return ProcessPoolExecutor(max_workers=n)
            """)
        assert lint_project.rules_hit() == []

    def test_pool_in_warm_pool_module_ok(self, lint_project):
        """The persistent warm pool is the second sanctioned site."""
        lint_project.write("pkg/runtime/pool.py", """\
            from concurrent.futures import ProcessPoolExecutor

            def build(workers):
                return ProcessPoolExecutor(max_workers=workers)
            """)
        assert lint_project.rules_hit() == []

    def test_pool_in_other_runtime_module_flagged(self, lint_project):
        """Being under runtime/ is not enough — only the listed sites
        may construct executors."""
        lint_project.write("pkg/runtime/folds.py", """\
            from concurrent.futures import ProcessPoolExecutor

            def sneak(n):
                return ProcessPoolExecutor(max_workers=n)
            """)
        assert _lines(lint_project.run(), "RL005") == [4]

    def test_buffer_pool_not_confused(self, lint_project):
        lint_project.write("pkg/mod.py", """\
            from pkg.buffers import BufferPool

            def make():
                return BufferPool(1024)
            """)
        assert lint_project.rules_hit() == []

    def test_lambda_and_closure_submission_flagged(self, lint_project):
        lint_project.write("pkg/runtime/sched.py", """\
            def run(pool, data):
                def body():
                    return data.sum()
                a = pool.submit(lambda: data.sum())
                b = pool.submit(body)
                return a, b
            """)
        assert _lines(lint_project.run(), "RL005") == [4, 5]

    def test_module_level_submission_ok(self, lint_project):
        lint_project.write("pkg/runtime/sched.py", """\
            def work(token):
                return token

            def run(pool, tokens):
                return [pool.submit(work, token) for token in tokens]
            """)
        assert lint_project.rules_hit() == []


# -- RL006: hot-path I/O --------------------------------------------------

class TestRL006:
    def test_io_in_hot_path_flagged(self, lint_project):
        lint_project.write("pkg/hot.py", """\
            import logging
            import sys

            def kernel(xs, path):
                print("debug", xs)
                sys.stderr.write("debug")
                logging.info("len=%d", len(xs))
                with open(path) as handle:
                    return handle.read()
            """)
        assert _lines(lint_project.run(), "RL006") == [5, 6, 7, 8]

    def test_write_text_in_hot_path_flagged(self, lint_project):
        lint_project.write("pkg/hot.py", """\
            def dump(path, text):
                path.write_text(text)
            """)
        assert lint_project.rules_hit() == ["RL006"]

    def test_io_outside_hot_path_ok(self, lint_project):
        lint_project.write("pkg/cold.py", """\
            def report(xs):
                print(len(xs))
            """)
        assert lint_project.rules_hit() == []

    def test_obs_spans_ok(self, lint_project):
        lint_project.write("pkg/hot.py", """\
            from repro.obs import span

            def kernel(xs):
                with span("kernel", n=len(xs)) as kernel_span:
                    kernel_span.inc("bytes", 8 * len(xs))
                return sum(xs)
            """)
        assert lint_project.rules_hit() == []
