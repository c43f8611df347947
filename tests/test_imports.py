"""Every name a module of the package, a test or a demo imports is used
in that file, the package namespace re-exports exactly the modules'
public names, every public name is read by ``src/`` or ``perfbench/`` or
is the reference of a named test, no public name only forwards to
another call, and importing the CLI loads no module it does not need."""

import ast
import os
import subprocess
import sys
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


# the files whose imports are scanned: the package's modules, the tests
# and the demos
IMPORTERS = (MODULES + sorted((ROOT / "tests").glob("*.py"))
             + sorted((ROOT / "demos").glob("*.py")))


@pytest.mark.parametrize("path", IMPORTERS, ids=lambda p: p.stem)
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


# the public names that only tests read, each the reference, oracle or
# fixture of the test named here
ORACLES = {
    "compose": "tests/test_acceptance.py::test_criterion_02_log_exp_inverse_pair_order_20",
    # additivity of lambda_t; its home is `verify adams`, which waits for a
    # change that re-records the suite digests in perfbench/golden.json
    "witt_add": "tests/test_acceptance.py::test_criterion_09_adams_operations",
    "euler_specialize": "tests/test_acceptance.py::test_criterion_11_diagram_on_125_varieties",
    # the uncut product; its home is the q-binomial theorem in
    # `verify pochhammer-identity`, which waits for a change that
    # re-records the suite digests in perfbench/golden.json
    "poch_finite": "tests/test_qcomb.py::test_infinite_product_rows_past_the_truncation_are_zero",
    "decompose_character": "tests/test_varieties.py::test_character_injective_round_trip",
    "multiplicative_law": "tests/test_fgl.py::test_multiplicative_law_passes",
}


def references(tree) -> tuple:
    """The ``Name`` ids of a tree, the names of its ``Attribute`` nodes,
    and the pairs ``(owner, attr)`` of each ``owner.attr`` whose owner is
    a plain name."""
    names, attrs, pairs = set(), set(), set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            attrs.add(n.attr)
            if isinstance(n.value, ast.Name):
                pairs.add((n.value.id, n.attr))
    return names, attrs, pairs


def public_names(path: Path) -> dict:
    """``__all__`` of a module and its classes' public methods, each mapped
    to how a caller reaches it: ``("name", name)`` for a module-level name,
    bare or as an attribute of the module, ``("attr", method)`` for a
    method, and ``("pair", (class, method))`` for a static method."""
    out = {name: ("name", name) for name in declared_all(path)}
    for cls in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(cls, ast.ClassDef):
            for f in cls.body:
                if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in f.decorator_list)
                    out[f"{cls.name}.{f.name}"] = (
                        ("pair", (cls.name, f.name)) if static else ("attr", f.name))
    return out


def uncalled(modules, callers) -> set:
    """The public names of ``modules`` that no file in ``callers`` reaches."""
    names, attrs, pairs = set(), set(), set()
    for p in callers:
        n, a, q = references(ast.parse(p.read_text(encoding="utf-8")))
        names |= n
        attrs |= a
        pairs |= q
    reach = {"name": names | attrs, "attr": attrs, "pair": pairs}
    return {key for path in modules for key, (kind, ref) in public_names(path).items()
            if ref not in reach[kind]}


def test_every_public_name_has_a_caller():
    """Each name in a module's ``__all__`` and each public method is
    referenced in ``src/`` or ``perfbench/`` outside its tests, unless
    ``ORACLES`` names the test that uses it.  A demo does not count as a
    caller: a name lives only if the program reads it.

    A static method must be reached as ``Class.method``.  Any other method
    counts as called only when an attribute of that name is read, as in
    ``r.dim``, on any receiver; a bare name of the same spelling does not
    count.  The receiver is not checked, so ``FormalGroupLaw.order`` would
    still pass on ``Series.order``.
    """
    callers = [p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*.py")
               if "tests" not in p.relative_to(ROOT).parts]
    # an exemption whose name gained a caller fails here as well
    assert uncalled(MODULES, callers) == set(ORACLES)
    for key, node in ORACLES.items():
        file, test = node.split("::")
        tree = ast.parse((ROOT / file).read_text(encoding="utf-8"))
        body = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == test]
        names, attrs, _ = references(body[0]) if body else (set(), set(), None)
        assert key.split(".")[-1] in names | attrs, node


def test_scan_reaches_a_method_only_through_an_attribute(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text(
        "__all__ = ['f', 'C']\n"
        "\n"
        "def f(dim):\n"
        "    return dim\n"
        "\n"
        "class C:\n"
        "    def dim(self):\n"
        "        return 1\n"
        "\n"
        "    def size(self):\n"
        "        return 2\n"
        "\n"
        "    @staticmethod\n"
        "    def make():\n"
        "        return C()\n")
    use = tmp_path / "use.py"
    use.write_text("from m import f, C\n\nf(C.make().size())\n")
    # the bare name dim in f does not reach the method C.dim
    assert uncalled([mod], [mod, use]) == {"C.dim"}
    use.write_text("from m import f, C\n\nf(C().size())\nmake = 3\n")
    assert uncalled([mod], [mod, use]) == {"C.dim", "C.make"}


def _is_guard(node) -> bool:
    """``if …: raise …`` with no else branch."""
    return (isinstance(node, ast.If) and not node.orelse
            and all(isinstance(s, ast.Raise) for s in node.body))


def _receiver(node):
    """The name a call's receiver reads: ``self`` for an attribute of self."""
    while isinstance(node, ast.Attribute):
        node = node.value
        if isinstance(node, ast.Name) and node.id == "self":
            return "self"
    return node.id if isinstance(node, ast.Name) else None


def only_forwards(f) -> bool:
    """Whether the body of ``f``, after its docstring and any ``if …: raise``
    guards, is one ``return`` of a call whose receiver and positional
    arguments are exactly the parameters of ``f``, in order.  Literal
    arguments are part of the forwarded call, so ``a.g(0)`` on a
    parameter ``a`` is a second name for ``a.g`` at 0."""
    body = f.body
    if ast.get_docstring(f) is not None:
        body = body[1:]
    while body and _is_guard(body[0]):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Return) \
            or not isinstance(body[0].value, ast.Call):
        return False
    call = body[0].value
    operands = [a.id if isinstance(a, ast.Name) else None for a in call.args
                if not isinstance(a, ast.Constant)]
    if isinstance(call.func, ast.Attribute):
        operands.insert(0, _receiver(call.func.value))
    params = [a.arg for a in f.args.posonlyargs + f.args.args]
    return operands == params and not call.keywords


def forwarders(path: Path) -> list:
    """The public functions and methods of a module that only forward."""
    out = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef):
            found = [(node.name, node)]
        elif isinstance(node, ast.ClassDef):
            found = [(f"{node.name}.{f.name}", f) for f in node.body
                     if isinstance(f, ast.FunctionDef)]
        else:
            continue
        out += [f"{path.stem}.{name}" for name, f in found
                if not f.name.startswith("_") and only_forwards(f)]
    return out


def test_no_public_name_only_forwards():
    """One public name per job: no public function or method is a second
    name for a call on its own arguments and literals."""
    assert [name for path in MODULES for name in forwarders(path)] == []


def test_scan_sees_a_forwarding_name(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text(
        "def alias(a, k):\n"
        "    '''Forwards.'''\n"
        "    if k < 1:\n"
        "        raise ValueError(k)\n"
        "    return a.method(k)\n"
        "\n"
        "def plain(a, k):\n"
        "    return other(a, k)\n"
        "\n"
        "def computes(a, k):\n"
        "    return a.method(k + 1)\n"
        "\n"
        "def swapped(a, k):\n"
        "    return other(k, a)\n"
        "\n"
        "def at_zero(a):\n"
        "    return a.method(0)\n"
        "\n"
        "def _private(a):\n"
        "    return other(a)\n"
        "\n"
        "class C:\n"
        "    def coeff(self, i):\n"
        "        return self.series.coeff(i)\n"
        "\n"
        "    def total(self):\n"
        "        return sum(self.parts)\n")
    assert forwarders(mod) == ["m.alias", "m.plain", "m.at_zero", "m.C.coeff"]


# dataclasses and the modules it pulls in took more than half of the CLI's import
HEAVY = ("dataclasses", "inspect", "ast", "dis")


def test_importing_the_cli_loads_no_dataclasses():
    """Each ``qfgl`` call imports the CLI first: its records are named
    tuples, and no module of the package loads ``dataclasses``.  ``-S``
    keeps site hooks from loading any module before the import."""
    code = ("import sys, qfgl.cli; "
            f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.split() == []
