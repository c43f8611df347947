"""Every name a module of the package imports is used in that module, the
package namespace re-exports exactly the modules' public names, and every
public name has a caller outside the tests."""

import ast
from pathlib import Path
from types import ModuleType

import pytest

import qfgl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qfgl"
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


# the public names that only tests call, each the oracle or fixture of the
# test named here
ORACLES = {
    "multiplicative_law": "tests/test_fgl.py::test_multiplicative_law_passes",
}


def references(tree) -> tuple:
    """The ``Name`` ids and ``Attribute`` names of a tree, and the pairs
    ``(owner, attr)`` of each ``owner.attr`` whose owner is a plain name."""
    names, pairs = set(), set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
            if isinstance(n.value, ast.Name):
                pairs.add((n.value.id, n.attr))
    return names, pairs


def public_names(path: Path) -> dict:
    """``__all__`` of a module and its classes' public methods, each mapped
    to how a caller reaches it: a bare name, or a pair (class, method)
    for a static method."""
    out = {name: name for name in declared_all(path)}
    for cls in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(cls, ast.ClassDef):
            for f in cls.body:
                if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in f.decorator_list)
                    out[f"{cls.name}.{f.name}"] = (cls.name, f.name) if static else f.name
    return out


def test_every_public_name_has_a_caller():
    """Each name in a module's ``__all__`` and each public method is
    referenced in ``src/``, ``demos/`` or ``perfbench/`` outside its tests,
    unless ``ORACLES`` names the test that uses it.

    A static method must be reached as ``Class.method``.  Any other method
    counts as called when any attribute of that name is read anywhere, so
    this half is lenient: ``FormalGroupLaw.order`` would have passed on
    ``Series.order``.
    """
    callers = [p for d in ("src", "demos", "perfbench") for p in (ROOT / d).rglob("*.py")
               if "tests" not in p.relative_to(ROOT).parts]
    names, pairs = set(), set()
    for p in callers:
        n, q = references(ast.parse(p.read_text(encoding="utf-8")))
        names |= n
        pairs |= q
    uncalled = {key for path in MODULES for key, ref in public_names(path).items()
                if ref not in (pairs if isinstance(ref, tuple) else names)}
    # an exemption whose name gained a caller fails here as well
    assert uncalled == set(ORACLES)
    for key, node in ORACLES.items():
        file, test = node.split("::")
        tree = ast.parse((ROOT / file).read_text(encoding="utf-8"))
        body = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == test]
        assert body and key.split(".")[-1] in references(body[0])[0], node
