"""Every name a module of the package imports is used in that module, and
the package namespace re-exports exactly the modules' public names."""

import ast
from pathlib import Path
from types import ModuleType

import pytest

import qfgl

SRC = Path(__file__).resolve().parent.parent / "src" / "qfgl"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

# perfbench's tracer test asserts on this by-name copy of series.bi_compose
KEPT = {("fgl", "bi_compose")}


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "annotations":       # from __future__ import annotations
                    imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= {n.value.id for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)}
    return sorted(name for name in imported
                  if name not in used and (path.stem, name) not in KEPT)


def test_modules_found():
    assert len(MODULES) >= 9


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_scan_sees_an_unused_import(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text("from fractions import Fraction\nimport os\n\nos.sep\n")
    assert unused_imports(mod) == ["Fraction"]


def declared_all(path: Path) -> set:
    """The names in a module's ``__all__``, empty when it has none."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_namespace_is_the_union_of_the_modules_all():
    public = {name for name, value in vars(qfgl).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert public == set().union(*(declared_all(p) for p in MODULES))
