"""Dead-code guard over the package source, read with ``ast``.

No module other than ``__init__`` (whose imports are the public exports) may
import a name it never uses, or define a private module-level name it never
references. No function in the package may take a parameter it never reads,
so that a settable value with no effect cannot enter the API.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fuzzbound"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
            yield from (arg.annotation for arg in ast.walk(node.args)
                        if isinstance(arg, ast.arg))
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def read_names(tree):
    """Every name the module reads, also inside quoted annotations."""
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= read_names(ast.parse(node.value, mode="eval"))
    return names


def unused_imports(tree):
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = read_names(tree)
    return [name for name in bound if name not in used]


def unreferenced_private_names(tree):
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [t.id for t in targets if isinstance(t, ast.Name)]
    used = read_names(tree)
    return [name for name in defined
            if name.startswith("_") and not name.startswith("__") and name not in used]


def unread_parameters(tree):
    """(function, parameter) for each parameter the function body never
    reads. Dunder methods, ``self``/``cls`` and ``_``-prefixed names are
    exempt; a read in a nested function counts."""
    unread = []
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                or node.name.startswith("__") and node.name.endswith("__")):
            continue
        args = node.args
        params = [arg.arg for arg in (*args.posonlyargs, *args.args,
                                      *args.kwonlyargs, args.vararg, args.kwarg)
                  if arg is not None]
        read = {sub.id for sub in ast.walk(node)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        unread += [(node.name, name) for name in params
                   if name not in read and name not in ("self", "cls")
                   and not name.startswith("_")]
    return unread


def parse(module):
    return ast.parse((PACKAGE / module).read_text(), filename=module)


def test_modules_are_found():
    assert {"dbsim.py", "fuzzy.py", "lattice.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports(parse(module)) == []


@pytest.mark.parametrize("module", MODULES)
def test_every_private_name_is_referenced(module):
    assert unreferenced_private_names(parse(module)) == []


@pytest.mark.parametrize("module", MODULES)
def test_every_parameter_is_read(module):
    assert unread_parameters(parse(module)) == []


def test_the_guard_sees_dead_code():
    tree = ast.parse(
        "import os.path\n"
        "from typing import Optional, Sequence\n"
        "_LIMIT = 3\n"
        "_used = 1\n"
        "def _helper(x: 'Sequence[int]') -> int:\n"
        "    return _used\n"
        "class C:\n"
        "    def __init__(self, unused): pass\n"
        "    def run(self, cap=3, *, _spare=None, **extra):\n"
        "        def inner(): return extra\n"
        "        return inner\n")
    assert unused_imports(tree) == ["os", "Optional"]
    assert unreferenced_private_names(tree) == ["_LIMIT", "_helper"]
    assert unread_parameters(tree) == [("_helper", "x"), ("run", "cap")]
