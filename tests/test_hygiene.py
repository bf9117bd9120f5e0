"""Source hygiene: every module-level import in the package, the tests and
the tools is used, and every module-level private function or class in the
package is referenced.

Stdlib only (`ast`), so it runs wherever the test suite runs.  Package
`__init__.py` files are skipped by the import check (their imports are
re-exports), as are `from __future__` imports.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lefcert"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
CHECKED = MODULES + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detector_flags_an_unused_import():
    source = "from __future__ import annotations\nimport os\nfrom math import comb, pi\npi\n"
    assert unused_imports(source) == [(2, "os"), (3, "comb")]


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def dead_private_defs(sources):
    """(module, line, name) of each module-level `_private` function or class
    that no code in `sources` (module name -> source text) references, not
    counting references inside its own body."""
    defs = {}
    owners = {}  # name -> top-level statements that reference it, as (module, def name)
    for module, source in sources.items():
        for node in ast.parse(source).body:
            owner = (module, getattr(node, "name", None))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and node.name.startswith("_") and not node.name.startswith("__"):
                defs[owner] = node.lineno
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    owners.setdefault(sub.id, set()).add(owner)
                elif isinstance(sub, ast.Attribute):
                    owners.setdefault(sub.attr, set()).add(owner)
                elif isinstance(sub, ast.alias):
                    owners.setdefault(sub.asname or sub.name, set()).add(owner)
    return sorted((module, line, name) for (module, name), line in defs.items()
                  if not owners.get(name, set()) - {(module, name)})


def test_detector_flags_a_dead_private_def():
    a = ("def _used():\n    pass\n\n"
         "def _dead():\n    pass\n\n"
         "def _recursive():\n    return _recursive()\n\n"
         "class _Imported:\n    pass\n\n"
         "def __dunder__():\n    pass\n\n"
         "_used()\n")
    b = "from .a import _Imported\n"
    assert dead_private_defs({"a": a, "b": b}) == [("a", 4, "_dead"), ("a", 7, "_recursive")]


def test_no_dead_private_defs():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert dead_private_defs(sources) == []


def imported_modules(source):
    """The modules a source imports from, relative ones as written ('.certify')."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module is None:  # from . import x
            names.update("." * node.level + alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." * node.level + node.module)
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("name", ["polymatroid", "discriminant"])
def test_rank_lattice_modules_do_not_import_certify(name):
    # the subset-rank walk and its readers sit below certify, not beside it
    imported = imported_modules((SRC / f"{name}.py").read_text(encoding="utf-8"))
    assert not imported & {".certify", "lefcert.certify", "certify"}


def callers(sources, name):
    """{'module.qualname'} of every function or method in `sources` (module name
    -> source text) that calls `name`, as a plain name or as an attribute."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                    found.add(".".join(scope))
            visit(child, scope)

    for module, source in sources.items():
        visit(ast.parse(source), [module])
    return found


def test_detector_lists_every_caller():
    source = ("def f(rows):\n    return g(_clear(rows))\n\n"
              "class M:\n    def m(self):\n        def inner():\n"
              "            return linalg._clear(self)\n        return inner\n\n"
              "def h():\n    return _clear\n\n"
              "_clear([])\n")
    assert callers({"a": source}, "_clear") == {"a.f", "a.M.m.inner", "a"}


def test_the_general_elimination_runs_only_non_hermitian_work():
    # every Hermitian matrix, the m-positivity pencil included, goes to _inertia
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert callers(sources, "_eliminate") == {"linalg._rank", "linalg._det", "linalg._kernel"}


def test_the_psd_family_check_is_written_once():
    # every family of PSD members is checked by linalg._check_family; eta,
    # the CLI's single-matrix tasks and the generator's self-check read is_psd
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert callers(sources, "is_psd") == {
        "linalg._check_family",
        "certify.HLInstance.__post_init__",
        "cli._task_nd",
        "cli._task_psd_check",
        "generate.generate_psd",
    }


# the entry points that take rows from outside the library; every other
# path reads the Z[i] rows a HermitianMatrix cleared at construction
CLEARING_ENTRY_POINTS = {
    "linalg.HermitianMatrix.__init__",
    "linalg.HermitianMatrix.from_generator",
    "linalg.mat_rank",
    "linalg.mat_det",
    "linalg.kernel_basis",
    "exterior.PQForm.__init__",
    "serialize.matrix_from_json",
}


def test_only_the_entry_points_clear_rows():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert callers(sources, "_gaussian_integer_rows") <= CLEARING_ENTRY_POINTS


EXPORTING = [p for p in MODULES if "__all__" in p.read_text(encoding="utf-8")]


@pytest.mark.parametrize("path", EXPORTING, ids=lambda p: p.name)
def test_every_export_resolves(path):
    # a deleted definition must take its __all__ entry with it
    module = importlib.import_module(f"lefcert.{path.stem}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
