"""No module of the package imports a name that it never uses, no private
name of the package goes unread, and the CLI imports only public names of
the package.

Stdlib ``ast`` checks standing in for a linter's unused-import and
dead-code rules: a name bound by an import counts as used if the module
reads it anywhere or lists it in ``__all__``, and a private def, class or
module-level name counts as used if some module of the package reads it,
as a name or as an attribute.
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


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each single-underscore def or class, at any depth, and each
    single-underscore name a module-level assignment binds, with its line."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound[node.name] = node.lineno
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        bound[name.id] = node.lineno
    return {
        name: line
        for name, line in bound.items()
        if name.startswith("_") and not name.startswith("__")
    }


def read_names(tree: ast.Module) -> set[str]:
    """Every name the module loads, bare or as an attribute of anything."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
        and isinstance(node.ctx, ast.Load)
    }


def unread_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """Each private name some module defines and no module reads."""
    read = set().union(*map(read_names, trees.values()))
    return [
        f"{module} line {line}: {name}"
        for module, tree in trees.items()
        for name, line in sorted(private_definitions(tree).items(), key=lambda x: x[1])
        if name not in read
    ]


def test_every_private_name_is_read_in_the_package():
    # code that no caller needs is removed, not left private
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    assert unread_private_names(trees) == []


def test_the_check_finds_an_unread_private_name():
    # a class is read through its name, a method through an attribute; an
    # import or a new binding is not a read
    trees = {
        "a.py": ast.parse(
            "_LIMIT = 3\n_spare: int = 4\n__all__ = []\n"
            "class _Box:\n    def _open(self): pass\n    def _shut(self): pass\n"
            "def _used(): return _LIMIT\n"
        ),
        "b.py": ast.parse(
            "from .a import _Box, _used, _spare\n_Box()._open()\n_used()\n"
        ),
    }
    assert unread_private_names(trees) == ["a.py line 2: _spare", "a.py line 6: _shut"]


def private_package_imports(tree: ast.Module) -> list[str]:
    """Each import of an underscore-prefixed name from the package."""
    return [
        f"from {'.' * node.level}{node.module or ''} import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").partition(".")[0] == "kinglattice")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_cli_imports_only_public_names():
    # the CLI is a thin layer over the library's public surface
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert private_package_imports(tree) == []


def test_the_check_finds_a_private_import():
    tree = ast.parse(
        "from .core import PointSet, _steps\nfrom kinglattice.boundary import _x\n"
        "from os import _exit\nfrom . import _private\n"
    )
    assert private_package_imports(tree) == [
        "from .core import _steps",
        "from kinglattice.boundary import _x",
        "from . import _private",
    ]
