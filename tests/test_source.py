"""Checks on the package source itself, with the standard library only."""

import ast

import pytest

from conftest import SRC

MODULES = sorted(SRC.rglob("*.py"))


def exported(tree: ast.Module) -> list[str]:
    """The names in the module's ``__all__``, empty when it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def unused_imports(text: str) -> list[str]:
    """``line: name`` of each name the module imports and neither uses nor lists in ``__all__``.

    An import on a line marked ``# noqa: F401`` is kept on purpose and not reported.
    """
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
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
