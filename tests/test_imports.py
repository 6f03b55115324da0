"""Every import in the package and the test suite is used, every private
module-level name in the package is referenced somewhere in the package, the
package makes no Kronecker product outside `linalg._kron_rows`, and it parses
JSON input in one function."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC_MODULES = sorted((ROOT / "src" / "cqresolve").glob("*.py"))
MODULES = SRC_MODULES + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read elsewhere in the module.

    A name counts as read when it appears as a bare name, as the root of an
    attribute chain, or in ``__all__``. ``from __future__`` imports are exempt.
    """
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            read |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in read]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_gate_flags_an_unused_import():
    source = "import math\nimport os.path\nfrom numpy import linalg as la, fft\nprint(fft, os)\n"
    assert unused_imports(source) == ["line 1: math", "line 3: la"]


def _private_definitions(node: ast.stmt) -> list[str]:
    """Names with one leading underscore that a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        names = [node.target.id]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level functions, classes and constants that nothing reads.

    A name counts as read when some module-level statement other than its
    own definition, in any of the modules, uses it as a bare name or as an
    attribute, so recursion alone does not keep a function alive.
    """
    statements = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            reads = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)
                     and isinstance(n.ctx, ast.Load)}
            reads |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            statements.append((module, node, reads))
    return [f"{module}:{node.lineno}: {name}"
            for module, node, _ in statements for name in _private_definitions(node)
            if not any(name in reads for _, other, reads in statements if other is not node)]


def test_every_private_name_in_the_package_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC_MODULES}
    assert unreferenced_private_names(sources) == []


def test_gate_flags_an_unreferenced_private_name():
    sources = {"a.py": "_X = 1\n_Y: int = 2\n__z = 3\n_Z = 4\n"
                       "def _f():\n    return _f()\n\ndef g():\n    return _Y\n",
               "b.py": "import a\nprint(a._X)\nclass _C:\n    pass\n"}
    assert unreferenced_private_names(sources) == [
        "a.py:4: _Z", "a.py:5: _f", "b.py:3: _C"]


def kron_references(source: str) -> list[str]:
    """Lines that name ``kron``, bare or as an attribute (``np.kron``, ``numpy.kron``)."""
    lines = {node.lineno for node in ast.walk(ast.parse(source))
             if (isinstance(node, ast.Name) and node.id == "kron")
             or (isinstance(node, ast.Attribute) and node.attr == "kron")}
    return [f"line {line}" for line in sorted(lines)]


def test_package_makes_no_kron_call():
    # Product spaces are ordered in one place, the Kronecker kernel of linalg.
    assert {p.name: kron_references(p.read_text(encoding="utf-8"))
            for p in SRC_MODULES} == {p.name: [] for p in SRC_MODULES}


def test_gate_flags_a_kron_call():
    source = ("import numpy as np\nfrom numpy import kron\n"
              "a = np.kron(x, y)\nb = kron(x, y)\nc = _kron_rows(x, 2)\nf = np.linalg.kron\n")
    assert kron_references(source) == ["line 3", "line 4", "line 6"]


def json_load_callers(source: str) -> list[str]:
    """Names of the innermost functions around each call of ``json.load``.

    A call outside any function counts as ``<module>``, and ``load`` imported
    from ``json`` under any name counts as ``json.load``.
    """
    tree = ast.parse(source)
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "json"
               for alias in node.names if alias.name == "load"}
    owner = {}
    # ast.walk is breadth first, so a nested function's claim comes last and wins
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((id(node), func.name) for node in ast.walk(func))
    return sorted({owner.get(id(node), "<module>") for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and (
                       (isinstance(node.func, ast.Attribute) and node.func.attr == "load"
                        and isinstance(node.func.value, ast.Name) and node.func.value.id == "json")
                       or (isinstance(node.func, ast.Name) and node.func.id in aliases))})


def test_package_calls_json_load_in_one_function():
    # Every JSON source goes through one reader, which decides file or document.
    callers = [f"{p.name}:{name}" for p in SRC_MODULES
               for name in json_load_callers(p.read_text(encoding="utf-8"))]
    assert len(callers) == 1, callers


def test_gate_flags_every_json_load_caller():
    source = ("import json\nfrom json import load as ld\n"
              "def a(f):\n    return json.load(f)\n"
              "def b(f):\n    def inner():\n        return json.load(f)\n    return inner\n"
              "def c(s):\n    return json.loads(s)\n"
              "doc = ld(open('x'))\n")
    assert json_load_callers(source) == ["<module>", "a", "inner"]
