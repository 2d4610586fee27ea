"""Checks on the package source itself, with the standard library only."""

import ast
import os
import subprocess
import sys
import warnings

import pytest

from conftest import SRC

MODULES = sorted(SRC.rglob("*.py"))


def exported(tree: ast.Module) -> list[str]:
    """The names in the module's ``__all__``, empty when it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def marked(node: ast.stmt, lines: list[str]) -> bool:
    """Whether a line of the import ``node`` is marked ``# noqa: F401``: kept on purpose, unused here."""
    return any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])


def unused_imports(text: str) -> list[str]:
    """``line: name`` of each name the module imports and neither uses nor lists in ``__all__``.

    An import on a line marked ``# noqa: F401`` is kept on purpose and not reported.
    """
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            if marked(node, lines):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | set(exported(tree))
    return [f"{line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_import_and_spares_the_used_and_the_marked():
    text = (
        "import os\nimport sys\nfrom math import pi, tau\nfrom json import dumps  # noqa: F401\n"
        "from re import sub\n__all__ = ['sub']\nprint(sys.argv, pi)\n"
    )
    assert unused_imports(text) == ["1: os", "3: tau"]


def unread_shims(texts: dict[str, str], readers: dict[str, str]) -> list[str]:
    """``module:line: name`` of each name a ``# noqa: F401`` import of ``texts`` binds that no reader reads.

    Such an import is kept only for code outside the package, which reads
    it as ``<module>.<name>`` (``bench/`` patches and checks
    ``solver.svd``); once no reader in ``readers`` reads it so, it is dead.
    The module of an attribute read is the name just before it, so
    ``cc.solver.svd`` reads ``solver.svd``.
    """
    read = set()
    for text in readers.values():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute):
                owner = getattr(node.value, "id", getattr(node.value, "attr", None))
                read.add(f"{owner}.{node.attr}")
    found = []
    for module, text in texts.items():
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and marked(node, lines):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                found += [f"{module}:{node.lineno}: {name}" for name in names
                          if f"{module.removesuffix('.py')}.{name}" not in read]
    return found


def test_every_import_shim_has_a_reader_in_bench():
    readers = {path.name: path.read_text() for path in sorted((SRC.parent / "bench").glob("*.py"))}
    assert unread_shims({path.name: path.read_text() for path in MODULES}, readers) == []


def test_the_check_finds_a_shim_no_reader_reads_and_spares_the_read_and_the_used():
    texts = {
        "a.py": "from math import pi  # noqa: F401\nfrom math import tau  # noqa: F401\nimport os\n",
        "b.py": "from json import (\n    dumps,  # noqa: F401\n    loads,\n)\n",
    }
    readers = {"r.py": "import pkg\npkg.a.pi\nb.loads\na.os\n"}
    # pi is read through pkg and loads as it is; a marked line marks its whole import; os is no shim
    assert unread_shims(texts, readers) == ["a.py:2: tau", "b.py:1: dumps"]


def stale_exports(text: str) -> list[str]:
    """Each name in ``__all__`` that the module's top level binds by no def, class, assignment or import.

    ``bench/tracer.py`` looks up every such name with ``getattr``, so a stale
    one breaks every traced benchmark run.
    """
    tree = ast.parse(text)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return [name for name in exported(tree) if name not in bound]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_exported_name_is_bound(path):
    assert stale_exports(path.read_text()) == []


def test_the_check_finds_a_stale_export_and_spares_every_kind_of_binding():
    text = (
        "import os.path\nfrom math import pi as p\nA, (B, C) = 1, (2, 3)\nD: int = 4\ndef f():\n    g = 5\n"
        "class K:\n    h = 6\n__all__ = ['os', 'p', 'A', 'B', 'C', 'D', 'f', 'K', 'pi', 'g', 'h']\n"
    )
    assert stale_exports(text) == ["pi", "g", "h"]


def unread_private_names(texts: dict[str, str]) -> list[str]:
    """``module:line: name`` of each module-level ``_name`` that nothing in ``texts`` reads.

    A module-level name is one a def, a class or an assignment at the top of
    a module binds; it is private when it starts with ``_`` and is not a
    dunder.  It is read where an ``ast.Name`` or an ``ast.Attribute`` loads
    it, in any of the modules, so a helper whose last caller was deleted is
    reported.
    """
    trees = {module: ast.parse(text) for module, text in texts.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unread += [f"{module}:{node.lineno}: {name}" for name in names
                       if name.startswith("_") and not name.endswith("__") and name not in read]
    return unread


def test_every_private_module_level_name_is_read():
    assert unread_private_names({path.name: path.read_text() for path in MODULES}) == []


def test_the_check_finds_an_unread_private_name_and_spares_the_read_the_public_and_the_dunder():
    texts = {
        "a.py": (
            "import os as _os\n_A, (_B, _C) = 1, (2, 3)\n_D: int = 4\ndef _f():\n    return _A\n"
            "class _K:\n    _h = 5\n_E = 6\n_F = 7\nPUBLIC = 8\n__all__ = []\n"
        ),
        "b.py": "import a\na._B = a._C\nprint(a._K, _f())\n_E = 9\n",
    }
    # a._B is only written, and _E, bound in both modules, is read in neither
    assert unread_private_names(texts) == ["a.py:2: _B", "a.py:3: _D", "a.py:8: _E", "a.py:9: _F", "b.py:4: _E"]


def unpassed_defaults(texts: dict[str, str]) -> list[str]:
    """``module:line: function(parameter=)`` of each defaulted parameter of a private function that no call passes.

    A function, a method or a nested function, is private when its name
    starts with ``_`` and is not a dunder.  A call in any of the modules is
    taken to be a call of every such function of the name it calls
    (``f(...)`` or ``x.f(...)``); it passes a parameter by its keyword, by
    its position (a method's ``self`` or ``cls`` is not counted unless it
    is a static method) or through ``*`` or ``**`` unpacking.  A default
    that no call overrides is a fork whose other branch nothing reaches.
    """
    trees = {module: ast.parse(text) for module, text in texts.items()}
    calls: dict[str, list[ast.Call]] = {}
    methods = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
            elif isinstance(node, ast.ClassDef):
                methods.update(
                    f for f in node.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and "staticmethod" not in [getattr(dec, "id", None) for dec in f.decorator_list]
                )

    def passes(call: ast.Call, position: int | None, name: str) -> bool:
        if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg in (None, name) for k in call.keywords):
            return True
        return position is not None and len(call.args) > position

    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not node.name.startswith("_") or node.name.endswith("__"):
                continue
            args, bound = node.args, int(node in methods)
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            defaulted = [(i - bound, a) for i, a in enumerate(positional) if i >= first]
            defaulted += [(None, a) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            found += [f"{module}:{node.lineno}: {node.name}({a.arg}=)" for position, a in defaulted
                      if not any(passes(call, position, a.arg) for call in calls.get(node.name, []))]
    return found


def test_every_default_of_a_private_function_is_overridden_by_some_call():
    assert unpassed_defaults({path.name: path.read_text() for path in MODULES}) == []


def test_the_check_finds_a_default_no_call_passes_and_spares_those_some_call_passes():
    texts = {
        "a.py": (
            "def _f(x, y=1, z=2, *, k=3, n=4):\n    pass\n"
            "def _g(a=1, b=2):\n    pass\n"
            "def _h(a=1):\n    pass\n"
            "def public(a=1):\n    pass\n"
            "class K:\n    def _m(self, a=1, b=2):\n        pass\n"
            "    @staticmethod\n    def _s(a=1):\n        pass\n"
            "    def __init__(self, a=1):\n        pass\n"
        ),
        "b.py": "import a\na._f(0, 5, k=6)\n_g(*[1])\nK()._m(1)\nK._s(1)\n",
    }
    # y is passed by position, k by keyword, _g's by unpacking, _m's a at
    # position 1 after self; z, n, _h's a and _m's b by no call
    assert unpassed_defaults(texts) == [
        "a.py:1: _f(z=)", "a.py:1: _f(n=)", "a.py:5: _h(a=)", "a.py:10: _m(b=)",
    ]


def test_importing_the_package_and_its_cli_imports_no_process_pool():
    # harness.run imports the pool's modules only when it starts workers,
    # so a benchmark's timed set-up, which imports the package, stays short
    code = (
        "import sys, coupled_completion, coupled_completion.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_warning_fails_its_test_but_the_one_of_importing_libcst():
    # pyproject.toml's filters: hypothesis imports libcst to report a failed
    # property test, and that import's warning must not end the whole run
    with pytest.raises(RuntimeWarning):
        warnings.warn("divide by zero encountered in log", RuntimeWarning)
    with pytest.raises(DeprecationWarning):
        warnings.warn("typing.TypedDict is deprecated", DeprecationWarning)
    warnings.warn("mypy_extensions.TypedDict is deprecated, and will be removed", DeprecationWarning)
