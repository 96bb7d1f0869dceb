"""Documentation consistency guards.

DESIGN.md and EXPERIMENTS.md promise specific bench targets, modules
and commands; these tests fail if the docs rot relative to the tree.
"""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).parent.parent


def read(name: str) -> str:
    return (ROOT / name).read_text()


class TestTreePromises:
    def test_top_level_files_exist(self):
        for name in (
            "README.md",
            "DESIGN.md",
            "EXPERIMENTS.md",
            "pyproject.toml",
            "docs/MODEL.md",
            "docs/SIMULATOR.md",
        ):
            assert (ROOT / name).is_file(), name

    def test_examples_promised_by_readme_exist(self):
        readme = read("README.md")
        for script in re.findall(r"`([a-z_]+\.py)`", readme):
            assert (ROOT / "examples" / script).is_file(), script

    def test_bench_targets_in_design_exist(self):
        design = read("DESIGN.md")
        for target in set(re.findall(r"benchmarks/(bench_[a-z0-9_]+\.py)", design)):
            assert (ROOT / "benchmarks" / target).is_file(), target

    def test_bench_modules_in_experiments_exist(self):
        exps = read("EXPERIMENTS.md")
        for target in set(re.findall(r"`(bench_[a-z0-9_]+\.py)`", exps)):
            assert (ROOT / "benchmarks" / target).is_file(), target

    def test_every_bench_module_is_indexed_in_experiments_or_design(self):
        docs = read("EXPERIMENTS.md") + read("DESIGN.md")
        for path in (ROOT / "benchmarks").glob("bench_*.py"):
            assert path.name in docs, f"{path.name} not documented"

    def test_every_source_module_has_a_docstring(self):
        for path in (ROOT / "src").rglob("*.py"):
            text = path.read_text().lstrip()
            assert text.startswith('"""') or text.startswith("'''"), (
                f"{path} lacks a module docstring"
            )

    def test_cli_commands_promised_by_docs_exist(self):
        from repro.cli import build_parser

        parser = build_parser()
        sub = next(a for a in parser._actions if hasattr(a, "choices") and a.choices)
        registered = set(sub.choices)
        readme = read("README.md")
        promised = set(re.findall(r"python -m repro (\w+)", readme))
        assert promised <= registered, promised - registered
        assert registered <= promised, f"not in README: {registered - promised}"


class TestPublicApiImports:
    def test_top_level_all_importable(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_alls_importable(self):
        import repro.algorithms
        import repro.analysis
        import repro.core
        import repro.machines
        import repro.sequential
        import repro.simmpi

        for mod in (
            repro.core,
            repro.simmpi,
            repro.algorithms,
            repro.machines,
            repro.analysis,
            repro.sequential,
        ):
            for name in mod.__all__:
                assert hasattr(mod, name), f"{mod.__name__}.{name}"
