"""Every module-level import in the package is used by its module, every
name a module lists in ``__all__`` is bound in it, and the dense scipy
kernels stay where they belong: the tridiagonal eigensolve is reached from
``radialop`` only, the banded solve from ``resolvent`` only (the
Lippmann-Schwinger solves are one tridiagonal solve per lambda there), no
module reaches the dense LU (the tests' oracle), and the order-specific
Bessel kernels are bound in ``specfun`` only, behind ``caljnu``.  The
resolvent quadrature of ``funcalc`` reads nothing of the eigen route it is
checked against.

The benchmark under ``perfbench/`` imports the package by name, so every
``from wavedecay... import name`` there, and every layer its tracer
imports, must resolve here too (``cache`` is kept for that import alone).
And every parameter with a default is set by some call in the tree: one
that no call sets is a constant in all but name.

Parses ``src/wavedecay/*.py`` and ``perfbench/**/*.py`` with ``ast``;
only the benchmark check imports the package.  A name counts
as used when the module reads it (``name`` or ``name.attr``) or lists it
in ``__all__``.  A name left in ``__all__`` after it moved or was deleted
would break ``from wavedecay.x import *``.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wavedecay"
BENCH = ROOT / "perfbench"


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
                "eigh_tridiagonal": "radialop.py",
                "solve_banded": None,
                "get_lapack_funcs": "resolvent.py",
                "j1": "specfun.py"}


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


# the resolvent quadrature that criterion 6 holds against the eigen route:
# the two stay independent only if the first reads nothing of the second
QUADRATURE_ROUTE = ("AlmostAnalytic", "_hs_mesh", "_certified_keep",
                    "_boundary_sweep", "_resolvent_sum", "hs_multiplier")


def eigen_reads(source, roots):
    """The eigen-route names (band, eigensystem, eigh*, np.linalg) read by
    the module-level definitions named in roots or by any module-level
    definition they reach."""
    tree = ast.parse(source)
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                defs.update((n.id, node) for n in ast.walk(target)
                            if isinstance(n, ast.Name))
    if missing := set(roots) - set(defs):
        raise KeyError(f"not defined at module level: {sorted(missing)}")
    seen, todo, found = set(), list(roots), set()
    while todo:
        name = todo.pop()
        if name in seen or name not in defs:
            continue
        seen.add(name)
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Name):
                todo.append(node.id)
                word = node.id
            elif isinstance(node, ast.Attribute):
                word = node.attr
            else:
                continue
            if word in ("band", "eigensystem", "linalg") or (
                    word.startswith("eigh")):
                found.add(word)
    return found


def test_detector_flags_eigen_reads_through_helpers():
    src = ("import numpy as np\n"
           "SCALE = np.linalg.norm\n"
           "def _helper(op):\n    return op.band(1).dense()\n"
           "def route(op):\n    return _helper(op) * SCALE(op.diag)\n"
           "def oracle(op):\n    return op.eigensystem()\n")
    assert eigen_reads(src, ("route",)) == {"band", "linalg"}
    assert eigen_reads(src, ("oracle",)) == {"eigensystem"}
    with pytest.raises(KeyError, match="gone"):
        eigen_reads(src, ("route", "gone"))


def test_quadrature_route_reads_no_eigen_route():
    source = (SRC / "funcalc.py").read_text()
    assert eigen_reads(source, QUADRATURE_ROUTE) == set()
    # the oracle next to it does read the eigen route
    assert eigen_reads(source, ("phi_of_hsqrt",)) == {"band"}


def benchmark_imports(source):
    """(module, name) for each ``from wavedecay[.mod] import name`` at any
    depth, and the tuple bound to ``LAYERS``, if any."""
    tree = ast.parse(source)
    pairs = [(node.module, alias.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module
             and node.module.split(".")[0] == "wavedecay"
             for alias in node.names]
    layers = [ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "LAYERS"
                      for t in node.targets)]
    return pairs, (layers[0] if layers else ())


def test_detector_reads_benchmark_imports():
    src = ("LAYERS = ('cache', 'cli')\n"
           "def f():\n    from wavedecay.cache import EigenCache\n"
           "    from wavedecay import estimates\n    import json\n")
    assert benchmark_imports(src) == (
        [("wavedecay.cache", "EigenCache"), ("wavedecay", "estimates")],
        ("cache", "cli"))


@pytest.mark.parametrize("path", sorted(BENCH.rglob("*.py")),
                         ids=lambda p: str(p.relative_to(BENCH)))
def test_benchmark_imports_resolve(path):
    pairs, layers = benchmark_imports(path.read_text())
    for layer in layers:
        importlib.import_module(f"wavedecay.{layer}")
    for module, name in pairs:
        if not hasattr(importlib.import_module(module), name):
            importlib.import_module(f"{module}.{name}")   # a submodule


def defaulted_params(source):
    """(function, parameter, slot) for each parameter with a default of
    every function or method defined in source; slot is its positional
    index after self or cls, None for a keyword-only one."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        pos = node.args.posonlyargs + node.args.args
        bound = int(bool(pos) and pos[0].arg in ("self", "cls"))
        first = len(pos) - len(node.args.defaults)
        out += [(node.name, a.arg, i - bound)
                for i, a in enumerate(pos[first:], first)]
        out += [(node.name, a.arg, None) for a, d in
                zip(node.args.kwonlyargs, node.args.kw_defaults) if d]
    return out


def call_settings(sources):
    """For each callee name (``f(...)`` or ``x.f(...)``): the keywords its
    calls pass and the most positional arguments one passes; a call
    through ``*args`` or ``**kwargs`` counts as passing every slot."""
    keywords, slots = set(), {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            spread = (any(isinstance(a, ast.Starred) for a in node.args)
                      or any(k.arg is None for k in node.keywords))
            count = float("inf") if spread else len(node.args)
            slots[name] = max(slots.get(name, 0), count)
            keywords |= {(name, k.arg) for k in node.keywords}
            if spread:
                keywords.add((name, None))
    return keywords, slots


def never_set(source, callers):
    """(function, parameter) for each defaulted parameter of source that no
    call in callers sets, by keyword or by position.  Calls are matched by
    the callee's bare name, so a call sets the parameter of every function
    of that name."""
    keywords, slots = call_settings(callers)
    return [(fn, arg) for fn, arg, slot in defaulted_params(source)
            if (fn, arg) not in keywords and (fn, None) not in keywords
            and (slot is None or slots.get(fn, 0) <= slot)]


def test_detector_flags_never_set_defaults():
    src = ("def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
           "class C:\n    def m(self, x, y=0):\n        pass\n"
           "def g(p=1):\n    pass\n")
    callers = ["f(0, 5)\nf(0, d=4)\nC().m(1)\n", "g(*args)\n"]
    assert never_set(src, callers) == [("f", "c"), ("f", "e"), ("m", "y")]


# ROADMAP item 12's demo study varies the mollifier suite's frame extent and
# lattice step by hand, so they stay parameters that no call sets
VARIED_BY_HAND = {("mollified_multiplier_suite", "r_cut"),
                  ("mollified_multiplier_suite", "lattice_step")}


def test_every_default_is_set_by_some_call():
    callers = [path.read_text() for folder in ("src", "tests", "demos",
                                               "perfbench")
               for path in sorted((ROOT / folder).rglob("*.py"))]
    found = {pair for path in sorted(SRC.glob("*.py"))
             for pair in never_set(path.read_text(), callers)}
    assert found == VARIED_BY_HAND
