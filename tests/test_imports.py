"""No module of the package imports a name that it never uses.

A stdlib ``ast`` check standing in for a linter's unused-import rule: a
name bound by an import counts as used if the module reads it anywhere or
lists it in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

import kinglattice

PACKAGE = Path(kinglattice.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, and every string listed in ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = [
        f"line {line}: {name}"
        for name, line in sorted(imported_names(tree).items(), key=lambda x: x[1])
        if name not in used
    ]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_the_check_finds_an_unused_import():
    tree = ast.parse(
        "from itertools import chain, repeat\nimport os.path\n"
        "__all__ = ['chain']\nrepeat(1)\n"
    )
    bound = imported_names(tree)
    assert sorted(n for n in bound if n not in used_names(tree)) == ["os"]
