"""Source hygiene checks that need no linter: every imported name is used,
the package imports nothing but the standard library and numpy, no package
module imports another's underscore names, every function, class and method
of the package is named somewhere, every module-level name the package
assigns is read somewhere, every defaulted parameter of the package is
passed by some call and left out by another, the package calls json.dump
or json.dumps nowhere, only its report writer imports json's encoder,
it forks in one place and imports no thread or process pool, it calls
os._exit only where a forked worker or the program ends, importing
its command line loads no process machinery and no numpy, each command
loads only the modules it runs, and each runs numpy's BLAS on one thread."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "curvlab").glob("*.py"))
CHECKED = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
# every file that may name or call the package's functions, except this one,
# whose self-tests spell out names of their own
CALLERS = [
    path
    for path in CHECKED + sorted(ROOT.glob("scripts/*.py")) + sorted(ROOT.glob("bench/*.py"))
    if path != Path(__file__).resolve()
]
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


def private_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every underscore name the source imports from the
    package, by a relative import or one from `curvlab`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            node.level or node.module.split(".")[0] == "curvlab"
        ):
            found += [(node.lineno, alias.name) for alias in node.names if alias.name.startswith("_")]
    return found


def test_private_imports_are_found():
    source = (
        "from __future__ import annotations\nfrom .reports import _plain, emit_report\n"
        "from curvlab.graph import _helper\nfrom . import _cache\nfrom numpy import _core\n"
    )
    assert private_imports(source) == [(2, "_plain"), (3, "_helper"), (4, "_cache")]


def test_package_imports_no_private_names():
    # a module reaches another only through its public names; tests are exempt
    found = [
        f"{path.relative_to(ROOT)}:{lineno}: {name}"
        for path in PACKAGE
        for lineno, name in private_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []


# a string that spells a name or a dotted path, such as a `WRAPS` entry in
# bench/tracing.py or a monkeypatch target
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")
# a dataclass or an object runs these itself
IMPLICIT = {"__init__", "__post_init__"}


def _definitions(tree: ast.AST, owner: ast.ClassDef | None = None):
    """(node, the class it is defined in or None) of every function and class
    in a tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node, owner
        yield from _definitions(node, node if isinstance(node, ast.ClassDef) else None)


def names_used(source: str) -> set[str]:
    """Every name the source reads, every attribute it takes and every part
    of a string that spells a dotted name; imports and definitions only bind."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED.fullmatch(node.value):
                used.update(node.value.split("."))
    return used


def unnamed_definitions(source: str, used: set[str]) -> list[tuple[int, str]]:
    """(line, name) of every function, class and method of the source whose
    name is not in `used`; `IMPLICIT` methods are exempt."""
    return [
        (node.lineno, node.name)
        for node, _ in _definitions(ast.parse(source))
        if node.name not in used and node.name not in IMPLICIT
    ]


def test_unnamed_definitions_are_found():
    source = (
        "class A:\n    def __init__(self):\n        pass\n    def __str__(self):\n"
        "        return 'a'\n    def run(self):\n        return helper()\n"
        "def helper():\n    return 1\ndef spare():\n    return 2\n"
    )
    used = names_used(source + "A().run()\n")
    assert unnamed_definitions(source, used) == [(4, "__str__"), (10, "spare")]
    assert unnamed_definitions(source, used | names_used("x = ('m.spare', '__str__')\n")) == []
    assert "spare" not in names_used("'spare is unused'\n")


def test_every_definition_is_named():
    used = set().union(*(names_used(path.read_text(encoding="utf-8")) for path in CALLERS))
    unnamed = [
        f"{path.relative_to(ROOT)}:{lineno}: {name}"
        for path in PACKAGE
        for lineno, name in unnamed_definitions(path.read_text(encoding="utf-8"), used)
    ]
    assert unnamed == []


def names_read(source: str) -> set[str]:
    """Every name and attribute the source reads in load context; a store,
    a deletion or a string that spells a name is not a read."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def unread_assignments(source: str, read: set[str]) -> list[tuple[int, str]]:
    """(line, name) of every name a module-level assignment of the source
    binds that is not in `read`; dunder names such as `__all__` are exempt."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
        found += [
            (node.lineno, name)
            for name in names
            if name not in read and not (name.startswith("__") and name.endswith("__"))
        ]
    return found


def test_unread_assignments_are_found():
    source = (
        "__version__ = '1'\nLIMIT = 3\n_SPARE, USED = 1, 2\nTOTAL: int = 0\n"
        "def f():\n    return USED\nclass A:\n    x = 1\n"
    )
    read = names_read(source + "print(m.LIMIT)\nm.TOTAL = 1\ndel m.TOTAL\n")
    assert unread_assignments(source, read) == [(3, "_SPARE"), (4, "TOTAL")]
    assert unread_assignments(source, read | names_read("'_SPARE'\nm._SPARE\n")) == [
        (4, "TOTAL")
    ]


def test_every_assignment_is_read():
    read = set().union(*(names_read(path.read_text(encoding="utf-8")) for path in CALLERS))
    unread = [
        f"{path.relative_to(ROOT)}:{lineno}: {name}"
        for path in PACKAGE
        for lineno, name in unread_assignments(path.read_text(encoding="utf-8"), read)
    ]
    assert unread == []


def calls(source: str) -> list[tuple[str, int, set[str] | None]]:
    """(callee name, positional argument count, keyword names) of every call
    in the source; the keywords are None when the call unpacks * or **."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        unpacks = any(isinstance(a, ast.Starred) for a in node.args) or any(
            k.arg is None for k in node.keywords
        )
        found.append((name, len(node.args), None if unpacks else {k.arg for k in node.keywords}))
    return found


def default_passes(source: str, all_calls) -> list[tuple[int, str, list[bool | None]]]:
    """(line, "function(parameter)", passes) of every defaulted parameter of
    a function or method of the source, where `passes` holds, for each of
    `all_calls` to it, whether that call passes the parameter, by position
    or by keyword, or None when the call unpacks * or ** and may or may not.
    Calls are matched by name, a constructor by its class's name, so two
    functions of one name share their calls; the `self` of a method that is
    not static is not counted among the positions."""
    found = []
    for node, owner in _definitions(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            continue
        static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        bound = owner is not None and not static
        callee = owner.name if bound and node.name == "__init__" else node.name
        positional = [a.arg for a in node.args.posonlyargs + node.args.args][bound:]
        first = len(positional) - len(node.args.defaults)
        defaulted = [(i, positional[i]) for i in range(first, len(positional))] + [
            (None, a.arg)
            for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults)
            if d is not None
        ]
        mine = [(npos, kws) for name, npos, kws in all_calls if name == callee]
        for index, arg in defaulted:
            passes = [
                None if kws is None else arg in kws or (index is not None and npos > index)
                for npos, kws in mine
            ]
            found.append((node.lineno, f"{node.name}({arg})", passes))
    return found


def unpassed_defaults(source: str, all_calls) -> list[tuple[int, str]]:
    """(line, "function(parameter)") of every defaulted parameter of the
    source that none of `all_calls` may pass (see `default_passes`)."""
    return [
        (lineno, name)
        for lineno, name, passes in default_passes(source, all_calls)
        if all(p is False for p in passes)
    ]


def overridden_defaults(source: str, all_calls) -> list[tuple[int, str]]:
    """(line, "function(parameter)") of every defaulted parameter of the
    source that each of `all_calls` to its function passes, so that its
    default does no work; a call that unpacks * or ** may rely on it."""
    return [
        (lineno, name)
        for lineno, name, passes in default_passes(source, all_calls)
        if passes and all(p is True for p in passes)
    ]


def test_unpassed_defaults_are_found():
    source = (
        "def f(a, b=1, c=2, *, d=3):\n    return a\n"
        "class A:\n    def __init__(self, y=0):\n        pass\n"
        "    def m(self, x=0):\n        return x\n"
        "    @staticmethod\n    def s(z=0):\n        return z\n"
    )
    found = unpassed_defaults(source, calls(source + "f(1, 2)\nA().m()\nA.s()\n"))
    assert found == [(1, "f(c)"), (1, "f(d)"), (4, "__init__(y)"), (6, "m(x)"), (9, "s(z)")]
    calls_all = calls("f(0, 0, d=1, c=2)\nA(1).m(1)\nA.s(1)\n")
    assert unpassed_defaults(source, calls_all) == []
    assert unpassed_defaults(source, calls("f(*args)\nA(**kw).m(*a)\nA.s(**kw)\n")) == []


def test_every_default_is_passed():
    all_calls = [c for path in CALLERS for c in calls(path.read_text(encoding="utf-8"))]
    unpassed = [
        f"{path.relative_to(ROOT)}:{lineno}: {name}"
        for path in PACKAGE
        for lineno, name in unpassed_defaults(path.read_text(encoding="utf-8"), all_calls)
    ]
    assert unpassed == []


def test_overridden_defaults_are_found():
    source = (
        "def f(a, b=1, c=2, *, d=3):\n    return a\n"
        "class A:\n    def __init__(self, y=0):\n        pass\n"
        "    def m(self, x=0):\n        return x\n"
    )
    found = overridden_defaults(source, calls("f(1, 2, d=4)\nf(0, b=5, d=6)\nA(1).m()\nA(y=2)\n"))
    assert found == [(1, "f(b)"), (1, "f(d)"), (4, "__init__(y)")]
    # a default that no call reaches is the other rule's to report
    assert overridden_defaults(source, calls("A.m(0)\n")) == [(6, "m(x)")]
    assert overridden_defaults(source, calls("f(1, 2, d=4)\nf(*args)\nA(**kw)\n")) == []


def test_no_default_is_always_overridden():
    all_calls = [c for path in CALLERS for c in calls(path.read_text(encoding="utf-8"))]
    overridden = [
        f"{path.relative_to(ROOT)}:{lineno}: {name}"
        for path in PACKAGE
        for lineno, name in overridden_defaults(path.read_text(encoding="utf-8"), all_calls)
    ]
    assert overridden == []


def json_dump_calls(source: str) -> list[tuple[int, str | None]]:
    """(line, innermost enclosing function or None) of every call to
    `json.dump` or `json.dumps`, through any name the source binds to the
    module or to either function."""
    tree = ast.parse(source)
    modules, functions = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound, names = modules, ("json",)
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            bound, names = functions, ("dump", "dumps")
        else:
            continue
        bound |= {alias.asname or alias.name for alias in node.names if alias.name in names}
    found = []

    def visit(node: ast.AST, owner: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if (isinstance(func, ast.Name) and func.id in functions) or (
                    isinstance(func, ast.Attribute)
                    and func.attr in ("dump", "dumps")
                    and isinstance(func.value, ast.Name)
                    and func.value.id in modules
                ):
                    found.append((child.lineno, owner))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if named else owner)

    visit(tree, None)
    return found


def test_json_dump_calls_are_found():
    source = (
        "import json\nimport json as j\nfrom json import dumps as d, loads\n"
        "def _dump(x):\n    return json.dumps(x)\n"
        "def f(x, fh):\n    json.dump(x, fh)\n    return j.dumps(d(x))\n"
        "TEXT = json.dumps([])\nobj.dumps(1)\nloads(json.loads('1'))\n"
    )
    assert json_dump_calls(source) == [(5, "_dump"), (7, "f"), (8, "f"), (8, "f"), (9, None)]
    assert json_dump_calls("import pickle\npickle.dumps(1)\n") == []


def json_encoder_imports(source: str) -> list[int]:
    """Lines of every import of `json.encoder` or of a name from it."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Import) and any(a.name == "json.encoder" for a in node.names))
        or (
            isinstance(node, ast.ImportFrom)
            and (
                node.module == "json.encoder"
                or (node.module == "json" and any(a.name == "encoder" for a in node.names))
            )
        )
    ]


def test_json_encoder_imports_are_found():
    source = (
        "import json\nimport json.encoder\nfrom json.encoder import encode_basestring\n"
        "from json import encoder as e, loads\nfrom json import dumps\nimport encoder\n"
    )
    assert json_encoder_imports(source) == [2, 3, 4]


def test_one_json_dump_serves_the_package():
    # reports._dump is the one JSON writer and calls no json function; its
    # sorted keys and refused NaN are held against json.dumps by
    # test_reports, and a writer that called json itself could drop either
    dumping = [
        str(path.relative_to(ROOT))
        for path in PACKAGE
        if json_dump_calls(path.read_text(encoding="utf-8"))
    ]
    assert dumping == []
    encoding = [
        str(path.relative_to(ROOT))
        for path in PACKAGE
        if json_encoder_imports(path.read_text(encoding="utf-8"))
    ]
    assert encoding == ["src/curvlab/reports.py"]


def _calls_os(node: ast.AST, name: str) -> bool:
    """Whether `node` is a call of `os.<name>` or of a bare `<name>`."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr == name and getattr(func.value, "id", None) == "os"
    return getattr(func, "id", None) == name


def fork_calls(source: str) -> list[int]:
    """Lines of every call of `os.fork` or of a bare `fork` in the source."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if _calls_os(node, "fork")]


def exit_calls(source: str) -> list[tuple[int, str | None]]:
    """(line, innermost enclosing function, None at module level) of every
    call of `os._exit` or of a bare `_exit` in the source."""
    found = []

    def visit(node: ast.AST, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if _calls_os(child, "_exit"):
                found.append((child.lineno, function))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else function)

    visit(ast.parse(source), None)
    return found


def pool_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) of every import of a module that runs work on a pool
    of threads or processes."""
    pools = {"multiprocessing", "concurrent", "threading", "_thread", "subprocess"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names if name.split(".")[0] in pools]
    return found


def test_fork_calls_and_pool_imports_are_found():
    source = (
        "import os\nfrom os import fork\nimport threading\n"
        "from concurrent.futures import ThreadPoolExecutor\nfrom .workers import for_each\n"
        "pid = os.fork()\nfork()\nos.forkpty()\n"
    )
    assert fork_calls(source) == [6, 7]
    assert pool_imports(source) == [(3, "threading"), (4, "concurrent.futures")]


def test_one_fork_and_no_pool_in_the_package():
    # a scan runs on several CPUs only through the forked workers of
    # curvlab.workers; a thread pool gained nothing, since the scan holds
    # the interpreter lock.  The other pool, numpy's BLAS threads, is ruled
    # out by test_each_command_runs_blas_on_one_thread
    forks = [
        f"{path.relative_to(ROOT)}:{lineno}"
        for path in PACKAGE
        for lineno in fork_calls(path.read_text(encoding="utf-8"))
    ]
    assert len(forks) == 1 and forks[0].startswith("src/curvlab/workers.py:")
    pools = [
        f"{path.relative_to(ROOT)}:{lineno}: {name}"
        for path in PACKAGE
        for lineno, name in pool_imports(path.read_text(encoding="utf-8"))
    ]
    assert pools == []


def test_exit_calls_are_found():
    source = (
        "import os\nfrom os import _exit\nos._exit(0)\n"
        "def run():\n    def inner():\n        _exit(1)\n    os._exit(2)\nsys.exit(3)\n"
    )
    assert exit_calls(source) == [(3, None), (6, "inner"), (7, "run")]


def test_os_exit_only_where_a_process_ends():
    # os._exit skips the interpreter's teardown, and with it the flush of
    # every buffer still open; it ends a forked scan worker, and `cli.run`
    # ends the program once `main` has written and closed everything
    exits = [
        f"{path.relative_to(ROOT)}:{function}"
        for path in PACKAGE
        for _, function in exit_calls(path.read_text(encoding="utf-8"))
    ]
    assert sorted(exits) == ["src/curvlab/cli.py:run", "src/curvlab/workers.py:_fork"]


def _loaded(code: str, *argv: str, **env: str | None) -> subprocess.CompletedProcess:
    """`python -c code argv...` with the package's sources on the path and
    the environment variables `env` set, or removed where they are None."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    environ = dict(os.environ, PYTHONPATH=path, **env)
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env={k: v for k, v in environ.items() if v is not None},
    )


def test_cli_import_loads_no_process_machinery():
    # `curvlab check --help` imports curvlab.cli and what its parser needs,
    # and the benchmark times it as start-up; the workers load signal only
    # to fork, and numpy is loaded by the commands that compute curvature
    modules = ("multiprocessing", "concurrent.futures", "subprocess", "selectors", "signal")
    code = "import sys, curvlab.cli; print([m for m in sys.argv[1:] if m in sys.modules])"
    result = _loaded(code, *modules, "numpy")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


# the modules that only the commands reading curvature or scanning need
HEAVY = ("numpy", "curvlab.curvature", "curvlab.theorems", "curvlab.enumeration", "curvlab.workers")


@pytest.mark.parametrize(
    "argv, loads",
    [
        (("check", "--help"), ()),
        (("check",), ()),  # a usage error: --source is missing
        (("matching", "petersen"), ()),
        (("connectivity", "hypercube:3", "--classify-cuts"), ()),
        (("regularity", "hamming2:3"), ()),
        (("curvature", "cycle:5"), ("numpy", "curvlab.curvature")),
        (("check", "--source", "exhaustive:3"), HEAVY),
    ],
    ids=["help", "usage-error", "matching", "connectivity", "regularity", "curvature", "check"],
)
def test_each_command_loads_only_what_it_runs(argv, loads):
    # a command imports its modules when it runs, so the commands that read
    # no curvature start without numpy and the checkers
    code = (
        "import sys\nfrom curvlab.cli import main\nmain(sys.argv[1:])\n"
        f"print([m for m in {HEAVY!r} if m in sys.modules])"
    )
    result = _loaded(code, *argv)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == repr(list(loads))


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.parametrize(
    "argv",
    [("curvature", "petersen"), ("check", "--source", "exhaustive:3")],
    ids=["curvature", "check"],
)
def test_each_command_runs_blas_on_one_thread(argv):
    # both commands run in one process, so the count shows a BLAS thread
    # pool if numpy started one; a scan of several chunks cannot show it,
    # since OpenBLAS joins its threads at the fork and a small matrix never
    # starts them again
    code = (
        "import os, sys\nfrom curvlab.cli import main\nmain(sys.argv[1:])\n"
        "print(len(os.listdir('/proc/self/task')))"
    )
    result = _loaded(code, *argv, OPENBLAS_NUM_THREADS=None, OMP_NUM_THREADS=None)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "1"


@pytest.mark.parametrize(
    "argv",
    [("check", "--source", "exhaustive:5"), ("curvature", "hypercube:6")],
    ids=["check", "curvature"],
)
def test_a_callers_blas_threads_stay_and_change_no_output(argv):
    code = (
        "import os, sys\nfrom curvlab.cli import main\ncode = main(sys.argv[1:])\n"
        "print(code, os.environ.get('OPENBLAS_NUM_THREADS'))"
    )
    # the last line is main's exit code and the setting numpy saw
    callers = _loaded(code, *argv, OPENBLAS_NUM_THREADS="2")
    default = _loaded(code, *argv, OPENBLAS_NUM_THREADS=None)
    assert callers.stdout.endswith("\n0 2\n"), callers.stderr
    assert default.stdout.endswith("\n0 1\n"), default.stderr
    assert (callers.stdout[:-4], callers.stderr) == (default.stdout[:-4], default.stderr)
