"""The package's public export list."""

import ast
from pathlib import Path

import toricspec

ROOT = Path(__file__).resolve().parents[1]


def test_all_names_resolve():
    missing = [name for name in toricspec.__all__ if not hasattr(toricspec, name)]
    assert missing == []


def test_every_export_has_a_caller():
    # a caller is a name or attribute in the package's modules, the demos or
    # the benchmark; docstrings, comments and the tests do not count
    files = [p for p in (ROOT / "src" / "toricspec").glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(set(toricspec.__all__) - used) == []
