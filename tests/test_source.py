"""Checks on the package source itself, with the standard library only."""

import ast

import pytest

from conftest import SRC

MODULES = sorted(SRC.rglob("*.py"))


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
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
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
