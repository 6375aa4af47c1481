"""Engine mechanics (walking, parsing, suppression, aliasing) and
``[tool.repro-lint]`` configuration loading — including the minimal
TOML fallback parser used on Python 3.10."""

from __future__ import annotations

import ast

import pytest

from repro.lint.config import (ConfigError, LintConfig, _parse_minimal,
                               load_config)
from repro.lint.engine import iter_source_files, parse_suppressions
from repro.lint.rules import all_rules, import_aliases, qualified_name


class TestWalking:
    def test_files_visited_in_sorted_order(self, lint_project):
        for name in ["zz", "aa", "mm"]:
            lint_project.write(f"pkg/{name}.py", "x = 1\n")
        lint_project.write("pkg/sub/deep.py", "y = 2\n")
        files = iter_source_files(lint_project.config())
        rels = [p.relative_to(lint_project.root).as_posix() for p in files]
        assert rels == ["pkg/aa.py", "pkg/mm.py", "pkg/sub/deep.py",
                        "pkg/zz.py"]

    def test_explicit_file_paths_and_dedup(self, lint_project):
        lint_project.write("pkg/mod.py", "x = 1\n")
        config = lint_project.config()
        from dataclasses import replace
        config = replace(config, paths=("pkg", "pkg/mod.py"))
        assert len(iter_source_files(config)) == 1

    def test_missing_path_is_empty_not_error(self, lint_project):
        config = lint_project.config()
        from dataclasses import replace
        config = replace(config, paths=("nope",))
        assert iter_source_files(config) == []


class TestEngine:
    def test_syntax_error_becomes_rl000(self, lint_project):
        lint_project.write("pkg/broken.py", "def f(:\n")
        result = lint_project.run()
        assert [f.rule for f in result.new] == ["RL000"]
        assert result.new[0].path == "pkg/broken.py"

    def test_files_checked_counts_everything(self, lint_project):
        lint_project.write("pkg/a.py", "x = 1\n")
        lint_project.write("pkg/b.py", "y = 2\n")
        assert lint_project.run().files_checked == 2

    def test_findings_are_sorted_and_unique(self, lint_project):
        lint_project.write("pkg/z.py", """\
            import time

            def late():
                return time.time()
            """)
        lint_project.write("pkg/runtime/a.py", """\
            import time

            def stamp():
                return time.time(), time.time()
            """)
        result = lint_project.run()
        keys = [f.sort_key for f in result.findings]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


class TestSuppressions:
    def test_parse_variants(self):
        source = (
            "a = 1  # repro-lint: disable=RL001\n"
            "b = 2  # repro-lint: disable=RL001,RL002\n"
            "c = 3  # repro-lint: disable=all\n"
            "d = 4  # unrelated comment\n")
        assert parse_suppressions(source) == {
            1: {"RL001"}, 2: {"RL001", "RL002"}, 3: {"all"}}

    def test_disable_all_suppresses_any_rule(self, lint_project):
        lint_project.write("pkg/mod.py", """\
            import numpy as np

            def draw(n):
                return np.random.rand(n)  # repro-lint: disable=all
            """)
        result = lint_project.run()
        assert result.ok and len(result.suppressed) == 1

    def test_wrong_rule_id_does_not_suppress(self, lint_project):
        lint_project.write("pkg/mod.py", """\
            import numpy as np

            def draw(n):
                return np.random.rand(n)  # repro-lint: disable=RL001
            """)
        assert lint_project.rules_hit() == ["RL002"]


class TestAliases:
    def _aliases(self, source: str) -> dict:
        return import_aliases(ast.parse(source))

    def test_import_as(self):
        aliases = self._aliases("import numpy as np\n")
        assert aliases["np"] == "numpy"

    def test_from_import(self):
        aliases = self._aliases(
            "from concurrent.futures import ProcessPoolExecutor as P\n")
        assert aliases["P"] == "concurrent.futures.ProcessPoolExecutor"

    def test_dotted_import_binds_root(self):
        aliases = self._aliases("import concurrent.futures\n")
        assert aliases["concurrent"] == "concurrent"

    def test_qualified_name_resolution(self):
        tree = ast.parse("import numpy as np\nx = np.random.rand(3)\n")
        aliases = import_aliases(tree)
        call = tree.body[1].value
        assert qualified_name(call.func, aliases) == "numpy.random.rand"

    def test_qualified_name_none_for_calls(self):
        tree = ast.parse("x = f().attr\n")
        node = tree.body[0].value
        assert qualified_name(node, {}) is None


class TestConfig:
    def test_defaults_without_section(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n"
                                                 .replace("'", '"'))
        config = load_config(root=tmp_path)
        assert config.paths == ("src/repro",)
        assert config.baseline == "lint-baseline.json"

    def test_section_overrides(self, lint_project):
        config = lint_project.config()
        assert config.paths == ("pkg",)
        assert config.rl006_hot_paths == ("pkg/hot.py",)
        assert config.rl002_allow == ("pkg/rng_ok.py",)

    def test_unknown_key_rejected(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            '[tool.repro-lint]\nbogus = "x"\n')
        with pytest.raises(ConfigError, match="bogus"):
            load_config(root=tmp_path)

    def test_root_discovery_walks_up(self, lint_project):
        nested = lint_project.root / "pkg" / "deeper"
        nested.mkdir(parents=True, exist_ok=True)
        config = load_config(start=nested)
        assert config.root == lint_project.root.resolve()

    def test_matches_uses_fnmatch(self):
        config = LintConfig(root=None, rl003_paths=("src/runtime/*.py",))
        assert config.matches("src/runtime/cache.py", config.rl003_paths)
        assert not config.matches("src/other/cache.py", config.rl003_paths)


class TestMinimalTomlParser:
    """The 3.10 fallback must agree with tomllib on our section."""

    SECTION = """\
[project]
name = "repro"

[tool.repro-lint]
# comment line
paths = ["src/repro", "examples"]
baseline = "lint-baseline.json"
rl003-paths = [
    "src/repro/runtime/*.py",
]
rl005-pool-sites = ["src/repro/runtime/scheduler.py"]

[tool.other]
paths = ["should-not-leak"]
"""

    def test_parses_strings_arrays_and_multiline(self):
        section = _parse_minimal(self.SECTION)
        assert section == {
            "paths": ["src/repro", "examples"],
            "baseline": "lint-baseline.json",
            "rl003-paths": ["src/repro/runtime/*.py"],
            "rl005-pool-sites": ["src/repro/runtime/scheduler.py"],
        }

    def test_agrees_with_tomllib_when_available(self):
        tomllib = pytest.importorskip("tomllib")
        expected = tomllib.loads(self.SECTION)["tool"]["repro-lint"]
        assert _parse_minimal(self.SECTION) == expected

    def test_real_pyproject_round_trips(self):
        from pathlib import Path
        root = Path(__file__).resolve().parents[2]
        text = (root / "pyproject.toml").read_text(encoding="utf-8")
        section = _parse_minimal(text)
        assert section["paths"] == ["src/repro", "examples"]
        assert "rl006-hot-paths" in section


class TestScopedAllow:
    """Per-path rule scoping via ``scoped-allow = ["RULE:glob"]``."""

    def test_scoped_rules_matches_rule_and_glob(self):
        config = LintConfig(
            root=None,
            scoped_allow=("RL003:src/serve/*.py", "rl001:src/a.py"))
        assert config.scoped_rules("src/serve/server.py") == {"RL003"}
        # Rule IDs are normalized to upper case.
        assert config.scoped_rules("src/a.py") == {"RL001"}
        assert config.scoped_rules("src/other.py") == set()

    def test_scoped_finding_reported_but_not_failing(self, lint_project):
        from dataclasses import replace
        lint_project.write("pkg/runtime/server.py", """\
            import time

            def started():
                return time.time()
            """)
        config = replace(
            lint_project.config(),
            scoped_allow=("RL003:pkg/runtime/server.py",))
        from repro.lint import run_lint
        result = run_lint(config)
        assert result.ok
        assert result.new == []
        assert [f.rule for f in result.scoped] == ["RL003"]
        assert result.scoped[0].scoped is True

    def test_unscoped_file_still_fails(self, lint_project):
        from dataclasses import replace
        lint_project.write("pkg/runtime/other.py", """\
            import time

            def started():
                return time.time()
            """)
        config = replace(
            lint_project.config(),
            scoped_allow=("RL003:pkg/runtime/server.py",))
        from repro.lint import run_lint
        result = run_lint(config)
        assert [f.rule for f in result.new] == ["RL003"]

    def test_loads_from_pyproject(self, lint_project):
        text = (lint_project.root / "pyproject.toml").read_text()
        (lint_project.root / "pyproject.toml").write_text(
            text + 'scoped-allow = ["RL003:pkg/runtime/server.py"]\n')
        config = load_config(root=lint_project.root)
        assert config.scoped_allow == ("RL003:pkg/runtime/server.py",)

    def test_malformed_entry_rejected(self, lint_project):
        text = (lint_project.root / "pyproject.toml").read_text()
        (lint_project.root / "pyproject.toml").write_text(
            text + 'scoped-allow = ["RL003-no-colon"]\n')
        with pytest.raises(ConfigError, match="RULE:glob"):
            load_config(root=lint_project.root)

    def test_verbose_report_labels_scoped_findings(self, lint_project):
        from dataclasses import replace

        from repro.lint import run_lint
        from repro.lint.reporters import render_text, report_dict
        lint_project.write("pkg/runtime/server.py", """\
            import time
            t = time.time()
            """)
        config = replace(
            lint_project.config(),
            scoped_allow=("RL003:pkg/runtime/server.py",))
        result = run_lint(config)
        text = render_text(result, verbose=True)
        assert "[scoped-allow]" in text
        assert "scoped-allowed" in text
        assert report_dict(result)["counts"]["scoped"] == 1

    def test_write_baseline_skips_scoped_findings(self, lint_project,
                                                  tmp_path):
        from dataclasses import replace

        from repro.lint import run_lint
        from repro.lint.baseline import write_baseline
        lint_project.write("pkg/runtime/server.py", """\
            import time
            t = time.time()
            """)
        config = replace(
            lint_project.config(),
            scoped_allow=("RL003:pkg/runtime/server.py",))
        result = run_lint(config, use_baseline=False)
        out = tmp_path / "baseline.json"
        assert write_baseline(out, result.findings) == 0

    def test_real_repo_scopes_the_daemon_transport(self):
        from pathlib import Path
        root = Path(__file__).resolve().parents[2]
        config = load_config(root=root)
        assert "src/repro/serve/*.py" in config.rl003_paths
        assert config.scoped_rules("src/repro/serve/server.py") \
            == {"RL003"}
        assert config.scoped_rules("src/repro/serve/service.py") == set()

    def test_real_repo_sanctions_exactly_one_pool_site(self):
        from pathlib import Path
        root = Path(__file__).resolve().parents[2]
        config = load_config(root=root)
        assert config.rl005_pool_sites == ("src/repro/runtime/pool.py",)


class TestRegistry:
    def test_all_rules_registered_in_order(self):
        ids = [rule.rule_id for rule in all_rules()]
        assert ids == ["RL001", "RL002", "RL003", "RL004", "RL005",
                       "RL006", "RL007", "RL008", "RL009", "RL010",
                       "RL099"]

    def test_every_rule_documents_its_invariant(self):
        for rule in all_rules():
            assert rule.invariant, rule.rule_id
            assert rule.title, rule.rule_id
