"""Documentation-completeness checks: every public module, class and
function in the library carries a docstring (deliverable: doc comments on
every public item), and the repo-level documents reference real files."""

import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import repro

REPO_ROOT = pathlib.Path(repro.__file__).resolve().parent.parent.parent


def walk_public_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if any(part.startswith("_") for part in info.name.split(".")):
            continue
        yield importlib.import_module(info.name)


ALL_MODULES = list(walk_public_modules())


class TestDocstrings:
    def test_every_module_documented(self):
        undocumented = [
            m.__name__ for m in ALL_MODULES if not (m.__doc__ or "").strip()
        ]
        assert undocumented == []

    def test_every_public_class_documented(self):
        missing = []
        for module in ALL_MODULES:
            for name, obj in vars(module).items():
                if name.startswith("_") or not inspect.isclass(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue  # re-export
                if not (obj.__doc__ or "").strip():
                    missing.append(f"{module.__name__}.{name}")
        assert missing == []

    def test_every_public_function_documented(self):
        missing = []
        for module in ALL_MODULES:
            for name, obj in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                if not (obj.__doc__ or "").strip():
                    missing.append(f"{module.__name__}.{name}")
        assert missing == []

    def test_every_public_method_documented(self):
        missing = []
        for module in ALL_MODULES:
            for cls_name, cls in vars(module).items():
                if cls_name.startswith("_") or not inspect.isclass(cls):
                    continue
                if cls.__module__ != module.__name__:
                    continue
                for name, member in vars(cls).items():
                    if name.startswith("_"):
                        continue
                    func = member
                    if isinstance(member, property):
                        func = member.fget
                    if not inspect.isfunction(func):
                        continue
                    if not (func.__doc__ or "").strip():
                        missing.append(f"{module.__name__}.{cls_name}.{name}")
        # Trivial accessors inherit meaning from context; everything else
        # must be documented.  Keep the allowance list explicit and short.
        allowed = set()
        undocumented = [m for m in missing if m not in allowed]
        assert undocumented == [], undocumented


class TestRepoDocuments:
    @pytest.mark.parametrize(
        "filename", ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
    )
    def test_document_exists_and_substantial(self, filename):
        path = REPO_ROOT / filename
        assert path.exists()
        assert len(path.read_text()) > 2000

    @pytest.mark.parametrize(
        "document",
        ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
        + sorted(f"docs/{path.name}" for path in (REPO_ROOT / "docs").glob("*.md")),
    )
    def test_repo_path_references_exist(self, document):
        """Every ``benchmarks/``, ``tests/`` or ``examples/`` path the
        document names (in backticks, tables or code blocks) exists."""
        missing = [
            path
            for path in re.findall(
                r"(?<![\w/.-])((?:benchmarks|tests|examples)/[\w./-]*)",
                (REPO_ROOT / document).read_text(),
            )
            if not (REPO_ROOT / path.rstrip(".")).exists()
        ]
        assert missing == []

    def test_examples_referenced_in_readme(self):
        text = (REPO_ROOT / "README.md").read_text()
        for example in (REPO_ROOT / "examples").glob("*.py"):
            assert example.name in text, f"{example.name} missing from README"
