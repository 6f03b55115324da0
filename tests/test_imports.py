"""Every import in the package and the test suite is used, every private
module-level name in the package is referenced somewhere in the package,
every module-level name of `tests/oracles.py` is read by the tests, every
exported name is reached by a command, a demo or an acceptance test,
the package makes no Kronecker product outside `linalg._kron_rows` and
no factorial call, it parses JSON input in one function, it compares byte budgets in
`errors.check_budget` alone, no exported callable takes a cap as a
parameter, the package's names load lazily, and each command loads only
the modules it reaches."""
from __future__ import annotations

import ast
import collections
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cqresolve as cq
from conftest import EXAMPLE1

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


def _definitions(node: ast.stmt) -> list[str]:
    """Names that a module-level def, class or assignment defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _private_definitions(node: ast.stmt) -> list[str]:
    """Names with one leading underscore that a module-level statement defines."""
    return [n for n in _definitions(node) if n.startswith("_") and not n.startswith("__")]


def unreferenced_names(sources: dict[str, str], defined=_private_definitions,
                       owner: str | None = None) -> list[str]:
    """Module-level functions, classes and constants that nothing reads.

    `defined` gives the names of a module-level statement that are checked,
    and `owner`, if given, the one module whose statements are checked. A
    name counts as read when some module-level statement other than its own
    definition, in any of the modules, uses it as a bare name or as an
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
            for module, node, _ in statements if owner in (None, module)
            for name in defined(node)
            if not any(name in reads for _, other, reads in statements if other is not node)]


def test_every_private_name_in_the_package_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC_MODULES}
    assert unreferenced_names(sources) == []


def test_gate_flags_an_unreferenced_private_name():
    sources = {"a.py": "_X = 1\n_Y: int = 2\n__z = 3\n_Z = 4\n"
                       "def _f():\n    return _f()\n\ndef g():\n    return _Y\n",
               "b.py": "import a\nprint(a._X)\nclass _C:\n    pass\n"}
    assert unreferenced_names(sources) == ["a.py:4: _Z", "a.py:5: _f", "b.py:3: _C"]


def test_every_oracle_is_read_by_the_tests():
    # an oracle that no test reads checks nothing, and rots unseen
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES if p.parent.name == "tests"}
    assert unreferenced_names(sources, _definitions, "oracles.py") == []


def test_gate_flags_an_unread_oracle():
    sources = {"oracles.py": "LIMIT = 3\nUNUSED = 4\n\ndef used(x):\n    return x < LIMIT\n\n"
                             "def helper():\n    return 1\n\n"
                             "def unused():\n    return helper()\n\nclass Record:\n    pass\n",
               "test_a.py": "import oracles as orc\nfrom oracles import Record\n"
                            "def test_x():\n    assert orc.used(1)\n\nRecord()\n"
                            "def unused_here():\n    pass\n"}
    assert unreferenced_names(sources, _definitions, "oracles.py") == [
        "oracles.py:2: UNUSED", "oracles.py:10: unused"]


def _reads(node: ast.AST) -> set[str]:
    """Names that a syntax tree uses as a bare name or as an attribute."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def unreached_exports(exports, sources: list[str], entries: list[str]) -> list[str]:
    """Exported names that nothing reached from the entry sources reads.

    `sources` are the package's modules and `entries` the sources that use
    it from outside. A name is reached when an entry reads it, or when a
    module-level definition of a reached name reads it: a function reaches
    what it calls and the type it builds, a class what its methods read.
    So a name that only the package's unreached code reads is unreached.
    """
    reads_of = collections.defaultdict(set)
    for source in sources:
        for node in ast.parse(source).body:
            for name in _definitions(node):
                reads_of[name] |= _reads(node)
    reached = set().union(*(_reads(ast.parse(source)) for source in entries))
    todo = list(reached)
    while todo:
        fresh = reads_of.get(todo.pop(), set()) - reached
        reached |= fresh
        todo.extend(fresh)
    return sorted(set(exports) - reached)


# Exports that no command, demo or acceptance test reaches, each kept for a reason.
KEPT_UNREACHED = {
    "sandwiched_renyi": "D̃_α(W_x‖σ) is the divergence kernel of the worst-input "
                        "radius bound on the ROADMAP",
    "mutual_info": "I(X;B) at one law; the capacity ascent and the fixed-input rate sum "
                   "the same divergence vector, info._divergences, for all their points",
    "qrel_entropy": "the one-input form of info._divergences; its tests are that "
                    "kernel's direct tests of the support rule",
    "renyi_mutual_info": "the one-order form of info._renyi_fixed_points, which "
                         "soft_cover_simulate calls with all its orders at once",
    "type_projector": "the one-type form of type_pinching, which forms the word keys "
                      "once for all its types; types-check builds no projector",
}


def test_every_export_is_reached_by_a_command_demo_or_acceptance_test():
    exports = [name for name in cq.__all__ if not inspect.ismodule(getattr(cq, name))]
    sources = [p.read_text(encoding="utf-8") for p in SRC_MODULES if p.name != "__init__.py"]
    entries = [p.read_text(encoding="utf-8") for p in
               [ROOT / "src" / "cqresolve" / "cli.py", ROOT / "tests" / "test_acceptance.py",
                *sorted((ROOT / "demos").glob("*.py"))]]
    assert unreached_exports(exports, sources, entries) == sorted(KEPT_UNREACHED)


def test_gate_flags_an_unreached_export():
    sources = ["def f():\n    return g()\n\ndef g():\n    return R(1)\n\n"
               "class R:\n    def m(self):\n        return self.h()\n\n"
               "def h():\n    pass\n\ndef unused():\n    return k\n\n"
               "def k():\n    pass\n",
               "X = 1\nY: int = 2\n"]
    entries = ["import pkg\npkg.f()\nprint(Y)\n"]
    exports = ["f", "g", "R", "h", "unused", "k", "X", "Y"]
    assert unreached_exports(exports, sources, entries) == ["X", "k", "unused"]


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


def factorial_references(source: str) -> list[str]:
    """Lines that name ``factorial``, bare or as an attribute (``math.factorial``)."""
    lines = {node.lineno for node in ast.walk(ast.parse(source))
             if (isinstance(node, ast.Name) and node.id == "factorial")
             or (isinstance(node, ast.Attribute) and node.attr == "factorial")}
    return [f"line {line}" for line in sorted(lines)]


def test_package_makes_no_factorial_call():
    # A multinomial is a product of binomials, `types_sanov._multinomial`: n!
    # alone has millions of digits at the block lengths a one-letter type allows.
    assert {p.name: factorial_references(p.read_text(encoding="utf-8"))
            for p in SRC_MODULES} == {p.name: [] for p in SRC_MODULES}


def test_gate_flags_a_factorial_call():
    source = ("import math\nfrom math import factorial\n"
              "a = math.factorial(n)\nb = factorial(n)\nc = math.comb(n, k)\nf = math.factorial\n")
    assert factorial_references(source) == ["line 3", "line 4", "line 6"]


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


BYTE_BUDGETS = {"MAX_COUNT_BYTES", "MAX_MATRIX_BYTES"}


def budget_reads_outside_check_budget(source: str) -> list[str]:
    """Lines that read a byte budget other than as an argument of a ``check_budget`` call."""
    tree = ast.parse(source)
    arguments = {id(arg) for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and "check_budget" in (getattr(node.func, "id", None),
                                        getattr(node.func, "attr", None))
                 for arg in [*node.args, *(kw.value for kw in node.keywords)]}
    lines = {node.lineno for node in ast.walk(tree)
             if ((isinstance(node, ast.Name) and node.id in BYTE_BUDGETS)
                 or (isinstance(node, ast.Attribute) and node.attr in BYTE_BUDGETS))
             and id(node) not in arguments}
    return [f"line {line}" for line in sorted(lines)]


def test_byte_budgets_are_compared_in_check_budget_alone():
    # errors.py defines the budgets and check_budget, which compares them.
    assert {p.name: budget_reads_outside_check_budget(p.read_text(encoding="utf-8"))
            for p in SRC_MODULES if p.name != "errors.py"} == {
        p.name: [] for p in SRC_MODULES if p.name != "errors.py"}


def test_gate_flags_a_budget_read_outside_check_budget():
    source = ("from .errors import MAX_COUNT_BYTES, check_budget\n"
              "check_budget('a', n, MAX_COUNT_BYTES)\n"
              "errors.check_budget('a', n, budget=errors.MAX_MATRIX_BYTES)\n"
              "if n > MAX_COUNT_BYTES:\n    pass\n"
              "check_budget('a', n, MAX_COUNT_BYTES - 1)\n"
              "limit = errors.MAX_MATRIX_BYTES\n")
    assert budget_reads_outside_check_budget(source) == ["line 4", "line 6", "line 7"]


CAP_KNOBS = {"max_types", "max_dim", "max_iter"}


def cap_knob_parameters(exports: dict) -> list[str]:
    """Parameters named after a cap knob, of exported callables and their public methods."""
    found = []
    for name, obj in exports.items():
        calls = {name: obj} if callable(obj) else {}
        if inspect.isclass(obj):
            calls |= {f"{name}.{attr}": getattr(obj, attr) for attr in vars(obj)
                      if not attr.startswith("_") and callable(getattr(obj, attr))}
        for label, call in calls.items():
            try:
                params = inspect.signature(call).parameters
            except (TypeError, ValueError):
                continue
            found += [f"{label}({param})" for param in params if param in CAP_KNOBS]
    return sorted(found)


def test_no_exported_callable_takes_a_cap_knob():
    # Every resource cap is a module constant.
    assert cap_knob_parameters({name: getattr(cq, name) for name in cq.__all__}) == []


def test_gate_flags_a_cap_knob_parameter():
    def f(x, *, max_dim=3):
        return x

    def g(x, max_size=1):
        return x

    class C:
        def __init__(self, max_types=2):
            pass

        def run(self, max_iter=1):
            pass

        @classmethod
        def build(cls, max_dim=1):
            return cls()

        def _hidden(self, max_iter=1):
            pass

    assert cap_knob_parameters({"f": f, "g": g, "C": C, "K": 3}) == [
        "C(max_types)", "C.build(max_dim)", "C.run(max_iter)", "f(max_dim)"]


EXPORTS = [
    "Basis", "BridgeCheck", "CQChannel", "ConvergenceError", "DimensionMismatchError",
    "Distribution", "EmpiricalState", "IDCode", "IDVerifyReport", "MType",
    "PairwiseDistanceReport", "PinchingMap", "RateResult", "RenyiMutualInfo", "RenyiOrder",
    "ResolutionResult", "ResourceLimitError", "SmoothingParams", "SoftCoverReport",
    "SpectralDecomposition", "TypeProjector", "TypesBoundCheck", "ValidationError", "Word",
    "bad_codeword_count", "bridge_counting_check", "capacity", "ceil_operator", "channel",
    "channel_from_json", "commuting_types_bound_check", "converse_trend",
    "distribution_from_json", "ee31_margin", "eigh", "errors", "fixed_input_rate",
    "format_label", "idcode_from_json", "idcodes", "info", "linalg", "ll1b_bound", "ll2_bound",
    "m_type_counts", "mutual_info", "output_state", "pairwise_distance_check", "phi", "pinch",
    "qrel_entropy", "rates", "renyi_mutual_info", "resolution_error_exact",
    "resolution_error_worst", "resolvability", "sandwiched_renyi", "soft_cover_simulate",
    "tensor_power", "trace_norm", "type_pinching", "type_projector", "types_sanov",
    "validate_density", "validate_hermitian", "verify_id_code"]


def test_package_exports_its_names():
    assert sorted(cq.__all__) == EXPORTS


def test_each_export_is_the_object_of_its_defining_module():
    for name in cq.__all__:
        value = getattr(cq, name)
        if inspect.ismodule(value):
            assert value is importlib.import_module(f"cqresolve.{name}"), name
        else:
            assert getattr(importlib.import_module(value.__module__), name) is value, name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from cqresolve import *", namespace)
    assert set(cq.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        cq.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from cqresolve import no_such_name", {})


def loaded_modules(*lines: str) -> tuple[set[str], list[str]]:
    """The package's modules loaded, and ``dir(cqresolve)``, after running lines.

    The lines run in a fresh interpreter that imports this checkout and
    writes no bytecode, after ``import cqresolve``.
    """
    code = "\n".join(["import json, sys", "import cqresolve", *lines,
                      "print(json.dumps([sorted(m for m in sys.modules "
                      "if m.split('.')[0] == 'cqresolve'), dir(cqresolve)]))"])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                                      env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    modules, names = json.loads(proc.stdout.splitlines()[-1])
    return {m.removeprefix("cqresolve.") for m in modules}, names


def test_package_import_loads_no_module_and_lists_every_export():
    modules, names = loaded_modules()
    assert modules == {"cqresolve"}
    assert set(EXPORTS) <= set(names)


def test_cli_import_loads_only_errors():
    assert loaded_modules("import cqresolve.cli")[0] == {"cqresolve", "cli", "errors"}


# command line -> modules of the package that running it leaves unloaded
UNLOADED_BY = {
    ("id-bridge", "--N", "4", "--alphabet-size", "2", "--M", "2", "--lambda1", "0.1",
     "--lambda2", "0.1", "--eps", "0.1"): {"info", "rates", "resolvability", "types_sanov"},
    ("capacity", *EXAMPLE1): {"resolvability", "types_sanov", "idcodes"},
    ("resolve", *EXAMPLE1, "--M", "2", "--n", "2"): {"rates", "types_sanov", "idcodes"},
    ("types-check", "--n", "3"): {"resolvability", "rates", "idcodes"},
}


@pytest.mark.parametrize("argv", sorted(UNLOADED_BY), ids=lambda argv: argv[0])
def test_command_loads_only_the_modules_it_reaches(argv):
    modules, _ = loaded_modules("import cqresolve.cli",
                                f"assert cqresolve.cli.main({list(argv)!r}) == 0")
    assert modules & UNLOADED_BY[argv] == set()


def eager_package_imports(source: str) -> list[str]:
    """Package modules that a module imports when it is itself imported.

    Imports inside a function run when it is called and those under ``if
    TYPE_CHECKING:`` never run; every other relative import, and every
    import of ``cqresolve``, runs with the module. Relative imports are
    named with their leading dots.
    """
    found = set()

    def visit(node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.If) and ast.unparse(node.test).endswith("TYPE_CHECKING"):
            children = node.orelse
        else:
            children = list(ast.iter_child_nodes(node))
        if isinstance(node, ast.ImportFrom) and node.level:
            dots = "." * node.level
            found.update([dots + node.module] if node.module
                         else (dots + alias.name for alias in node.names))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) \
                else [alias.name for alias in node.names]
            found.update(name for name in names if name.split(".")[0] == "cqresolve")
        for child in children:
            visit(child)

    visit(ast.parse(source))
    return sorted(found)


def test_cli_imports_only_errors_at_module_level():
    # Each handler imports what it calls, so a command loads only what it reaches.
    source = (ROOT / "src" / "cqresolve" / "cli.py").read_text(encoding="utf-8")
    assert eager_package_imports(source) == [".errors"]


def test_gate_flags_an_eager_package_import():
    source = ("from typing import TYPE_CHECKING\nimport numpy\nfrom . import rates\n"
              "from .errors import E\nimport cqresolve.info\n"
              "if TYPE_CHECKING:\n    from .channel import C\nelse:\n    from .linalg import L\n"
              "try:\n    from .idcodes import I\nexcept ImportError:\n    pass\n"
              "class K:\n    from .types_sanov import T\n"
              "def f():\n    from .resolvability import R\n")
    assert eager_package_imports(source) == [".errors", ".idcodes", ".linalg", ".rates",
                                             ".types_sanov", "cqresolve.info"]
