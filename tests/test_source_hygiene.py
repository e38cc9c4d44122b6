"""Source hygiene of the package modules, checked on their syntax trees.

Every module imports at its top, so the layering of the package is visible
in its import lines, and imports only names it uses.  The package
``__init__`` re-exports what it imports, and ``from __future__`` imports are
directives, so both are exempt from the unused-name rule.
"""

import ast
from pathlib import Path

import pytest

import truncops

MODULES = sorted(Path(truncops.__file__).parent.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name a module binds by import, with the line that binds it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation


def _used_names(tree: ast.Module) -> set[str]:
    """Every name a module reads, including those inside quoted annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for note in _annotations(tree):
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            quoted = ast.parse(note.value, mode="eval")
            used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _tree(path)
    used = _used_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    local = []
    for func in ast.walk(_tree(path)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            local += [(func.name, node.lineno) for node in ast.walk(func)
                      if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not local, f"{path.name} imports inside functions: {local}"


def test_the_checks_see_what_they_look_for():
    # an unused name, a name read only in a quoted annotation (and one only
    # in a plain string), and a local import
    tree = ast.parse("import json\nfrom x import y, z\n"
                     "def f(a: 'y') -> None:\n    import os\n    return os, 'z'\n")
    assert _imported_names(tree) == {"json": 1, "y": 2, "z": 2, "os": 4}
    assert {"y", "os"} <= _used_names(tree) and not {"json", "z"} & _used_names(tree)
