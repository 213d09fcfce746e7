"""Documentation honesty checks.

The README's code snippet must actually run and print what it claims; the
documented file layout must exist.  Docs that execute do not rot.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class TestReadmeSnippet:
    def test_sixty_seconds_snippet_runs(self):
        readme = (ROOT / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
        assert blocks, "README lost its python snippet"
        snippet = blocks[0]
        # The snippet prints two numbers; capture and check them.
        printed: list[str] = []
        namespace = {"print": lambda *a: printed.append(" ".join(map(str, a)))}
        exec(snippet, namespace)  # noqa: S102 - executing our own docs
        assert printed == ["200001", "3"]

    def test_install_command_documented(self):
        readme = (ROOT / "README.md").read_text()
        assert "--no-build-isolation" in readme


class TestLayoutMatchesDocs:
    def test_documented_packages_exist(self):
        for pkg in (
            "algebra",
            "core",
            "engine",
            "optimizer",
            "backends",
            "language",
            "datagen",
            "util",
            "tools",
            "observability",
        ):
            assert (ROOT / "src" / "repro" / pkg / "__init__.py").exists(), pkg

    def test_documented_top_level_files_exist(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "pyproject.toml"):
            assert (ROOT / name).exists(), name
        assert (ROOT / "docs" / "THEORY.md").exists()

    def test_design_lists_every_bench_file(self):
        design = (ROOT / "DESIGN.md").read_text() + (ROOT / "EXPERIMENTS.md").read_text()
        for bench in (ROOT / "benchmarks").glob("bench_*.py"):
            assert bench.name in design or bench.stem in design, bench.name

    def test_every_public_module_has_a_docstring(self):
        import ast

        for path in (ROOT / "src" / "repro").rglob("*.py"):
            tree = ast.parse(path.read_text())
            assert ast.get_docstring(tree), f"{path} lacks a module docstring"


class TestSwitchTableMatchesSource:
    def test_readme_lists_exactly_the_variables_the_source_names(self):
        in_source = set()
        for path in (ROOT / "src").rglob("*.py"):
            in_source.update(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
        readme = (ROOT / "README.md").read_text()
        table = readme.split("### Switches", 1)[1].split("###", 1)[0]
        in_table = set(re.findall(r"^\| `(REPRO_[A-Z_]+)`", table, re.MULTILINE))
        assert in_table == in_source


class TestTierTableMatchesSource:
    def test_conformance_doc_lists_exactly_the_executor_tiers(self):
        from repro.conformance.check import EXECUTOR_TIERS

        doc = (ROOT / "docs" / "CONFORMANCE.md").read_text()
        table = doc.split("| tier | what runs | trusts |", 1)[1].split("\n\n", 1)[0]
        in_table = re.findall(r"^\| `([^`]+)` \|", table, re.MULTILINE)
        assert in_table == list(EXECUTOR_TIERS)


class TestServiceDocNamesOneQueryPath:
    #: Entry points that plan or run a query other than optimize_and_run.
    OTHER_PATHS = re.compile(
        r"\b(optimize_query|execute_plan|Planner)\b|repro\.engine(\.executor)?\.execute\b"
    )

    def test_service_doc_names_only_optimize_and_run(self):
        doc = (ROOT / "docs" / "SERVICE.md").read_text()
        assert "optimize_and_run" in doc
        assert self.OTHER_PATHS.findall(doc) == []
