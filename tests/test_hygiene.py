"""Dead-code guard over the package source, read with ``ast``.

No module may import a name it never uses, or define a private module-level
name it never references. No function in the package may take a parameter
it never reads, so that a settable value with no effect cannot enter the
API, or assign a local it never reads. dbsim's round kernel is source text that dbsim
compiles per structure; its generic instantiation, and the built-in ops'
templates it inlines, filled in with x, y and v, are read as part of dbsim.
"""

import ast
import importlib
from pathlib import Path

import pytest

from fuzzbound import cli, dbsim, lattice

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fuzzbound"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py"))
# The kernel text's one function, which dbsim._kernel fetches by name from
# the namespace it compiles it in.
KERNEL_EXPORTS = ["_pass"]


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


def unread_locals(tree):
    """(function, name) for each name a function assigns and never reads;
    ``_`` is exempt, and a read in a nested function counts."""
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, read = {}, set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                if isinstance(sub.ctx, ast.Store):
                    stored[sub.id] = None
                else:
                    read.add(sub.id)
        unread += [(node.name, name) for name in stored
                   if name not in read and name != "_"]
    return unread


def parse(module, kernel_text=dbsim._KERNEL_TEXT):
    tree = ast.parse((PACKAGE / module).read_text(), filename=module)
    if module == "dbsim.py":
        tree.body += ast.parse(kernel_text, filename="<kernel>").body
        # The built-in ops' templates, which _kernel inlines into it.
        for template in (t for ops in lattice._TEMPLATES.values() for t in ops):
            text = template.format(x="x", y="y", v="v")
            tree.body += ast.parse(text, filename="<op>").body
    return tree


def test_modules_are_found():
    assert {"__init__.py", "cli.py", "dbsim.py", "fuzzy.py", "lattice.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports(parse(module)) == []


def test_every_lazy_name_is_read_and_defined():
    # The names cli binds when a command runs stand in for imports: each is
    # read in cli and defined by the module it is bound from.
    read = read_names(parse("cli.py"))
    for module, names in cli._LAZY.items():
        source = importlib.import_module(f"fuzzbound.{module}")
        assert [name for name in names if name not in read] == []
        assert [name for name in names if not hasattr(source, name)] == []


@pytest.mark.parametrize("module", MODULES)
def test_every_private_name_is_referenced(module):
    exported = KERNEL_EXPORTS if module == "dbsim.py" else []
    assert unreferenced_private_names(parse(module)) == exported


@pytest.mark.parametrize("module", MODULES)
def test_every_parameter_is_read(module):
    assert unread_parameters(parse(module)) == []


@pytest.mark.parametrize("module", MODULES)
def test_every_local_is_read(module):
    assert unread_locals(parse(module)) == []


def test_the_kernel_text_defines_only_its_exports():
    tree = ast.parse(dbsim._KERNEL_TEXT)
    assert [node.name for node in tree.body] == KERNEL_EXPORTS


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
    assert unread_locals(ast.parse(
        "def f(x):\n"
        "    a, _ = b, c = x\n"
        "    def g(): return b\n"
        "    return g\n")) == [("f", "a"), ("f", "c")]


def test_the_guard_sees_dead_code_in_the_kernel_text():
    # An unused local, and a parameter of the generic kernel left unread.
    text = dbsim._KERNEL_TEXT
    spare = text.replace("    max_drop = 0.0\n", "    max_drop = spare = 0.0\n", 1)
    assert spare != text
    assert unread_locals(parse("dbsim.py", spare)) == [("_pass", "spare")]
    unread = (text.replace("marks, opens):", "None, opens):", 1)
              .replace("if marks is None", "if None is None", 1))
    assert unread.count("None, opens):") == unread.count("if None is None") == 1
    assert unread_parameters(parse("dbsim.py", unread)) == [("_pass", "marks")]
