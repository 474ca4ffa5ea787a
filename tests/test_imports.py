"""Every module-level import in the package is used by its module, every
name a module lists in ``__all__`` is bound in it, and the dense scipy
kernels stay where they belong: the tridiagonal eigensolve is reached from
``radialop`` only, and no module reaches the dense LU (the
Lippmann-Schwinger solves go through ``resolvent.ls_sweep``; the LU is
the tests' oracle).

Stdlib only: parses ``src/wavedecay/*.py`` with ``ast``.  A name counts
as used when the module reads it (``name`` or ``name.attr``) or lists it
in ``__all__``.  A name left in ``__all__`` after it moved or was deleted
would break ``from wavedecay.x import *``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "wavedecay"


def _imported_names(tree):
    """(bound name, line) for each import statement at module level."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.append((alias.asname or alias.name.split(".")[0],
                            node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out.append((alias.asname or alias.name, node.lineno))
    return out


def _all_names(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return [elt.value for elt in node.value.elts
                    if isinstance(elt, ast.Constant)]
    return []


def _used_names(tree):
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return used | set(_all_names(tree))


def _bound_names(tree):
    """Names bound at module level: definitions, assignments, imports."""
    bound = {name for name, _ in _imported_names(tree)}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                bound |= {n.id for n in ast.walk(target)
                          if isinstance(n, ast.Name)}
    return bound


def unused_imports(source):
    tree = ast.parse(source)
    used = _used_names(tree)
    return [(name, line) for name, line in _imported_names(tree)
            if name not in used]


def unresolved_exports(source):
    tree = ast.parse(source)
    bound = _bound_names(tree)
    return [name for name in _all_names(tree) if name not in bound]


def test_detector_flags_an_unused_import():
    src = "import os\nfrom json import dumps, loads\nloads('1')\n"
    assert unused_imports(src) == [("os", 1), ("dumps", 2)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_an_unresolved_export():
    src = ("from json import dumps\nX, Y = 1, 2\ndef f(): pass\n"
           "class C: pass\n__all__ = ['dumps', 'X', 'Y', 'f', 'C', 'gone']\n")
    assert unresolved_exports(src) == ["gone"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_all_names_resolve(path):
    assert unresolved_exports(path.read_text()) == []


# scipy kernel -> the one module that may reach it (None: no module)
KERNEL_HOMES = {"lu_factor": None, "lu_solve": None,
                "eigh_tridiagonal": "radialop.py"}


def kernel_names(source):
    """The kernels of KERNEL_HOMES a module imports (at any depth) or
    reaches as an attribute (``scipy.linalg.lu_factor``)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= {alias.name.rsplit(".", 1)[-1] for alias in node.names}
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found & set(KERNEL_HOMES)


def test_detector_flags_kernel_bindings():
    src = ("import scipy.linalg as sl\n"
           "def f(a):\n"
           "    from scipy.linalg import lu_solve as solve\n"
           "    return solve(sl.lu_factor(a), a)\n")
    assert kernel_names(src) == {"lu_factor", "lu_solve"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_dense_kernels_have_one_home(path):
    strays = {name for name in kernel_names(path.read_text())
              if KERNEL_HOMES[name] != path.name}
    assert strays == set()
