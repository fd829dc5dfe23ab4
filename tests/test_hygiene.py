"""Source hygiene checks that need no linter: every imported name is used,
and the package imports nothing but the standard library and numpy."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "curvlab").glob("*.py"))
CHECKED = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
# networkx, scipy, sympy, hypothesis and pytest serve the tests and the
# benchmark only
RUNTIME_DEPENDENCIES = sys.stdlib_module_names | {"numpy"}
# a package __init__ imports names only to re-export them
EXEMPT = {ROOT / "src" / "curvlab" / "__init__.py"}


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every name an import binds that the module never reads.

    `from __future__` imports and imports marked `# noqa: F401` are skipped.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    bound: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            bound.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(lineno, name) for lineno, name in bound if name not in read]


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os\nimport sys\nfrom a.b import c as d, e\nprint(sys.argv, e)\n"
    assert unused_imports(source) == [(2, "os"), (4, "d")]
    assert unused_imports("import os  # noqa: F401\n") == []
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


def test_no_unused_imports():
    unused = [
        f"{path.relative_to(ROOT)}:{lineno}: {name}"
        for path in CHECKED
        if path not in EXEMPT
        for lineno, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert unused == []


def foreign_imports(source: str) -> list[tuple[int, str]]:
    """(line, top-level module) of every absolute import outside
    `RUNTIME_DEPENDENCIES`; relative imports stay inside the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        tops = [module.split(".")[0] for module in modules]
        found += [(node.lineno, top) for top in tops if top not in RUNTIME_DEPENDENCIES]
    return found


def test_foreign_imports_are_found():
    source = (
        "from __future__ import annotations\nimport os, networkx as nx\n"
        "from numpy.linalg import eigh\nfrom . import graph\n"
        "def f():\n    from scipy import sparse\n"
    )
    assert foreign_imports(source) == [(2, "networkx"), (6, "scipy")]


def test_package_imports_only_stdlib_and_numpy():
    found = [
        f"{path.relative_to(ROOT)}:{lineno}: {name}"
        for path in PACKAGE
        for lineno, name in foreign_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []
