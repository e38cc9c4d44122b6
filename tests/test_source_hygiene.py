"""Source hygiene of the package modules, checked on their syntax trees.

Every module imports at its top, so the layering of the package is visible
in its import lines, and imports only names it uses.  The package
``__init__`` re-exports what it imports, and ``from __future__`` imports are
directives, so both are exempt from the unused-name rule.  The per-generator
operators live on the basis of K_u, so no module function only reads one
off `tm_basis`.  A basis holds its Hankel parts from construction, so
nothing else sets them.  Locks are made in `quadrature` only, whose memo
is the one home of state shared between threads, and ``lru_cache`` keeps only
the module-level pure helpers of `modelspace`, so no evaluation state sits in
a process-wide cache.  The Python examples of README.md run.
"""

import ast
import re
from pathlib import Path

import pytest

import truncops

MODULES = sorted(Path(truncops.__file__).parent.glob("*.py"))
README = Path(__file__).resolve().parent.parent / "README.md"


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


def _basis_readers(tree: ast.Module) -> list[str]:
    """The module-level functions whose body, past a docstring, is one
    ``return tm_basis(<arg>).<attr>``."""
    found = []
    for func in tree.body:
        if not isinstance(func, ast.FunctionDef):
            continue
        body = func.body
        if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]
        if len(body) != 1 or not isinstance(body[0], ast.Return):
            continue
        value = body[0].value
        if (isinstance(value, ast.Attribute) and isinstance(value.value, ast.Call)
                and isinstance(value.value.func, ast.Name) and value.value.func.id == "tm_basis"):
            found.append(func.name)
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_only_reads_a_basis_attribute(path):
    # callers read the attribute off the basis they hold, or off tm_basis(u)
    found = _basis_readers(_tree(path))
    assert not found, f"{path.name} wraps basis attributes: {found}"


def test_the_basis_rule_sees_a_wrapper():
    tree = ast.parse("def shift(u):\n    'doc'\n    return tm_basis(u).shift\n"
                     "def kernel0(u):\n    space = tm_basis(u)\n    return space.kernel0\n"
                     "class B:\n    def k(self, u):\n        return tm_basis(u).k0\n")
    assert _basis_readers(tree) == ["shift"]


def _assigned_attributes(node: ast.AST):
    """The attribute targets of an assignment node, through tuples and lists."""
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        stack = list(targets)
        while stack:
            target = stack.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                stack += target.elts
            elif isinstance(target, ast.Attribute):
                yield target.attr
    elif isinstance(node, ast.Call) and len(node.args) > 1:
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("setattr", "__setattr__") and isinstance(node.args[1], ast.Constant):
            yield node.args[1].value


def _hankel_parts_writes(tree: ast.Module) -> list[int]:
    """The lines that set ``hankel_parts`` outside ``ModelSpaceBasis.__init__``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if scope[-2:] != ("ModelSpaceBasis", "__init__") and "hankel_parts" in set(
                _assigned_attributes(node)):
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_hankel_parts_are_set_only_at_construction(path):
    found = _hankel_parts_writes(_tree(path))
    assert not found, f"{path.name} sets hankel_parts outside ModelSpaceBasis.__init__: {found}"


def test_the_hankel_parts_rule_sees_a_write():
    tree = ast.parse(
        "class ModelSpaceBasis:\n"
        "    def __init__(self, g, hankel_parts=None):\n"
        "        self.hankel_parts = hankel_parts\n"
        "    def later(self, parts):\n"
        "        self.hankel_parts = parts\n"
        "def hankel_space(a, b):\n"
        "    space = tm_basis(a * b.hat())\n"
        "    if space.hankel_parts is None:\n"
        "        space.hankel_parts = (tm_basis(a), tm_basis(b.hat()), tm_basis(b))\n"
        "    return space\n"
        "def other(space, parts):\n"
        "    space.dim, space.hankel_parts = 1, parts\n"
        "    setattr(space, 'hankel_parts', parts)\n"
        "    object.__setattr__(space, 'hankel_parts', parts)\n")
    assert _hankel_parts_writes(tree) == [5, 9, 12, 13, 14]


def _lock_constructions(tree: ast.Module) -> list[int]:
    """The lines that construct a ``Lock`` or an ``RLock``, by name or as an attribute."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) in ("Lock", "RLock")]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "quadrature.py"],
                         ids=lambda p: p.name)
def test_locks_are_made_only_in_quadrature(path):
    found = _lock_constructions(_tree(path))
    assert not found, f"{path.name} makes its own lock, a second home of shared state: {found}"


def test_the_lock_rule_sees_a_lock():
    tree = ast.parse("import threading\nfrom threading import Lock\n"
                     "class ModelSpaceBasis:\n"
                     "    def __init__(self, generator):\n"
                     "        self._warm_lock = Lock()\n"
                     "        self.gate = threading.RLock()\n"
                     "        self.lock = Lockable()\n")
    assert _lock_constructions(tree) == [5, 6]
    assert _lock_constructions(_tree(next(p for p in MODULES if p.name == "quadrature.py")))


# the module-level pure helpers that may keep a process-wide lru_cache
PURE_CACHES = {"modelspace.py": {"_below", "_swap_rounds"}}


def _lru_cache_uses(tree: ast.Module) -> list:
    """Each read of ``lru_cache``, by name or as an attribute: the name of the
    module-level function it decorates, else its line."""
    decorated = {}
    for func in tree.body:
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in func.decorator_list:
                decorated[id(dec.func if isinstance(dec, ast.Call) else dec)] = func.name
    return [decorated.get(id(node), node.lineno) for node in ast.walk(tree)
            if getattr(node, "id", getattr(node, "attr", None)) == "lru_cache"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_lru_caches_decorate_only_pure_helpers(path):
    # evaluation state lives in the evaluation's memo, not in process-wide caches
    found = [use for use in _lru_cache_uses(_tree(path))
             if use not in PURE_CACHES.get(path.name, ())]
    assert not found, f"{path.name} uses lru_cache outside its pure helpers: {found}"


def test_quadrature_imports_no_lru_cache_or_partial():
    imported = _imported_names(_tree(next(p for p in MODULES if p.name == "quadrature.py")))
    assert not {"lru_cache", "partial"} & imported.keys()


def test_the_cache_rule_sees_an_lru_cache():
    tree = ast.parse("import functools\nfrom functools import lru_cache, partial\n"
                     "@lru_cache(maxsize=64)\ndef _below(n):\n    return n\n"
                     "@functools.lru_cache\ndef tm_basis(u):\n    return u\n"
                     "class B:\n    @lru_cache\n    def k(self):\n        return 1\n"
                     "def memoized(build):\n"
                     "    cells = memo.get(build) or memo.setdefault(build, "
                     "lru_cache(MEMO_SIZE)(cell))\n")
    assert sorted(_lru_cache_uses(tree), key=str) == [10, 14, "_below", "tm_basis"]
    assert {"lru_cache", "partial"} <= _imported_names(tree).keys()
    modelspace = next(p for p in MODULES if p.name == "modelspace.py")
    assert set(_lru_cache_uses(_tree(modelspace))) == PURE_CACHES["modelspace.py"]


def _readme_examples() -> list[str]:
    """The python blocks of README.md, each padded so its lines keep their numbers."""
    text = README.read_text()
    return ["\n" * text.count("\n", 0, m.start(1)) + m.group(1)
            for m in re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S)]


def test_readme_examples_run():
    examples = _readme_examples()
    assert examples
    for code in examples:
        exec(compile(code, str(README), "exec"), {})
