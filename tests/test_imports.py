"""Every module-level import in the package is used by its module, every
name a module lists in ``__all__`` is bound in it, and the dense scipy
kernels stay where they belong: the tridiagonal eigensolve is reached from
``radialop`` only, the banded solve from ``resolvent`` only (the
Lippmann-Schwinger solves are one tridiagonal solve per lambda there), no
module reaches the dense LU (the tests' oracle), the order-specific Bessel
kernels and H^(1) are bound in ``specfun`` only, behind ``caljnu`` and
``bessel_jh``, and no module reaches H^(2): the incoming branch is the
conjugate of the outgoing one, and scipy's ``hankel2`` is the tests' oracle
of that identity.  The
resolvent quadrature of ``funcalc`` reads nothing of the eigen route it is
checked against, and only two definitions assemble the M x M matrix of
a factored operator (``LowRank.matrix``): no estimate and no command.

The benchmark under ``perfbench/`` imports the package by name, so every
``from wavedecay... import name`` there, and every layer its tracer
imports, must resolve here too (``cache`` is kept for that import alone).
And every parameter with a default is set by some production call (in
``src/``, the benchmark, the demos or the acceptance suite): one that only
unit tests set is a constant in all but name.  Likewise every public
function and class in ``src/`` is reached from a command, the acceptance
suite or the benchmark: one that only unit tests reach is an oracle, and
lives next to those tests.

Parses ``src/wavedecay/*.py``, ``perfbench/**/*.py`` and the callers in
the tree with ``ast``; only the benchmark check imports the package.  A
name counts as used when the module reads it (``name`` or ``name.attr``)
or lists it in ``__all__``.  A name left in ``__all__`` after it moved or
was deleted would break ``from wavedecay.x import *``.
"""

import ast
import importlib
import re
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


def _module_defs(tree):
    """(name, statement) for each name a module-level definition or
    assignment binds."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                yield from ((n.id, node) for n in ast.walk(target)
                            if isinstance(n, ast.Name))


def _bound_names(tree):
    """Names bound at module level: definitions, assignments, imports."""
    return ({name for name, _ in _imported_names(tree)}
            | {name for name, _ in _module_defs(tree)})


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
                "dstebz": "radialop.py", "dstein": "radialop.py",
                "j1": "specfun.py", "y1": "specfun.py",
                "hankel1": "specfun.py", "hankel2": None}


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
QUADRATURE_ROUTE = ("AlmostAnalytic", "_hs_mesh", "_chebyshev_count",
                    "_onto_chebyshev", "_compress", "_certified_keep",
                    "_coeff_rows", "_boundary_sweep", "_in_float_range",
                    "_direct_rows", "_march_step", "_resolvent_sum",
                    "hs_multiplier")


def eigen_reads(source, roots):
    """The eigen-route names (band, eigensystem, eigh*, np.linalg) read by
    the module-level definitions named in roots or by any module-level
    definition they reach.  ``band`` counts as an attribute (``x.band``)
    or a called name (``band(...)``); a local variable of that name reads
    nothing of the eigen route."""
    defs = dict(_module_defs(ast.parse(source)))
    if missing := set(roots) - set(defs):
        raise KeyError(f"not defined at module level: {sorted(missing)}")
    seen, todo, found = set(), list(roots), set()
    while todo:
        name = todo.pop()
        if name in seen or name not in defs:
            continue
        seen.add(name)
        called = {id(node.func) for node in ast.walk(defs[name])
                  if isinstance(node, ast.Call)}
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Name):
                todo.append(node.id)
                word = node.id
                if word == "band" and id(node) not in called:
                    continue
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


def test_detector_flags_band_only_as_attribute_or_call():
    """A local variable named band reads nothing of the eigen route;
    op.band(...) and a called band(...) do."""
    src = ("from .radialop import band\n"
           "def local(zs):\n    band = zs.imag > 0.5\n"
           "    return zs[band]\n"
           "def attribute(op):\n    return op.band(1)\n"
           "def called(op):\n    return band(op, 1)\n")
    assert eigen_reads(src, ("local",)) == set()
    assert eigen_reads(src, ("attribute",)) == {"band"}
    assert eigen_reads(src, ("called",)) == {"band"}


def test_quadrature_route_reads_no_eigen_route():
    source = (SRC / "funcalc.py").read_text()
    assert eigen_reads(source, QUADRATURE_ROUTE) == set()
    # the oracle next to it does read the eigen route
    assert eigen_reads(source, ("phi_of_hsqrt",)) == {"band"}


# the module-level definitions that may assemble the M x M matrix of a
# factored operator (LowRank.matrix): the dense oracle phi_of_hsqrt.
# Every estimate, and every norm the propagator command takes, reads the
# factors.
DENSE_READERS = {"phi_of_hsqrt"}


def dense_readers(source):
    """The module-level definitions of source that read ``.matrix``."""
    return {name for name, node in _module_defs(ast.parse(source))
            if any(isinstance(n, ast.Attribute) and n.attr == "matrix"
                   for n in ast.walk(node))}


def test_detector_flags_dense_readers():
    """A read of .matrix flags its definition, a class included; defining
    the property does not."""
    src = ("def oracle(b):\n"
           "    return LowRank(b.vecs, b.amps, b.vecs).matrix\n"
           "def gap(a, b):\n    return a.matrix - b.matrix\n"
           "def norm(rec):\n    return rec.norm_2()\n"
           "class Factored:\n    @property\n    def matrix(self):\n"
           "        return self.left @ self.right.T\n"
           "class Record(Factored):\n    def dense(self):\n"
           "        return self.matrix\n")
    assert dense_readers(src) == {"oracle", "gap", "Record"}


def test_only_oracles_read_dense_bands():
    """No estimate and no command forms the M x M matrix of a factored
    operator: the .matrix readers in src/ are DENSE_READERS (the records,
    the Duhamel parts and the residual read none), and lemma 2.3's rows
    neither read .matrix nor call one of them."""
    assert set().union(*(dense_readers(path.read_text())
                         for path in SRC.glob("*.py"))) == DENSE_READERS
    defs = dict(_module_defs(ast.parse((SRC / "funcalc.py").read_text())))
    assert read_names(defs["_lemma23_rows"]) & (DENSE_READERS
                                                | {"matrix"}) == set()


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


def never_set(source, settings):
    """(function, parameter) for each defaulted parameter of source that no
    call sets, by keyword or by position; settings is ``call_settings`` of
    the callers, parsed once for every source checked against them.  Calls
    are matched by the callee's bare name, so a call sets the parameter of
    every function of that name."""
    keywords, slots = settings
    return [(fn, arg) for fn, arg, slot in defaulted_params(source)
            if (fn, arg) not in keywords and (fn, None) not in keywords
            and (slot is None or slots.get(fn, 0) <= slot)]


def test_detector_flags_never_set_defaults():
    src = ("def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
           "class C:\n    def m(self, x, y=0):\n        pass\n"
           "def g(p=1):\n    pass\n")
    callers = ["f(0, 5)\nf(0, d=4)\nC().m(1)\n", "g(*args)\n"]
    assert never_set(src, call_settings(callers)) == [
        ("f", "c"), ("f", "e"), ("m", "y")]


# ROADMAP item 12's demo study varies the mollifier suite's frame extent and
# lattice step by hand, so they stay parameters that no call sets
VARIED_BY_HAND = {("mollified_multiplier_suite", "r_cut"),
                  ("mollified_multiplier_suite", "lattice_step")}
# the benchmark's tracer reads operator_two_norm's step cap off each call's
# bound arguments (perfbench/tracer.py, _hook_power), so it stays a
# parameter until the tracer's hooks go (ROADMAP item 6)
READ_BY_BENCHMARK = {("operator_two_norm", "max_iter")}


def test_every_default_is_set_by_some_call():
    """A default that only unit tests set is a constant in production: it
    belongs in the module as one, and the tests patch it there.  The
    callers are src/, the benchmark, the demos and the acceptance suite."""
    paths = [path for folder in ("src", "perfbench", "demos")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    paths.append(ROOT / "tests" / "test_acceptance.py")
    settings = call_settings([path.read_text() for path in paths])
    found = {pair for path in sorted(SRC.glob("*.py"))
             for pair in never_set(path.read_text(), settings)}
    assert found == VARIED_BY_HAND | READ_BY_BENCHMARK


def read_names(tree, strings=False):
    """The names a tree reads (``name`` or ``x.name``) or imports, and
    with strings every identifier spelled in its string constants."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out |= set(node.name.split("."))
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            out |= set(re.findall(r"[A-Za-z_]\w*", node.value))
    return out


def unreached(sources, roots):
    """module.name for each public module-level function or class of
    sources ({module: source}) that no closure from the names roots
    reaches: a reached name reaches every name read by the module-level
    definitions and assignments that bind it.  Names are matched bare,
    across modules."""
    defs, public = {}, []
    for module, source in sources.items():
        for name, node in _module_defs(ast.parse(source)):
            defs.setdefault(name, []).append(node)
            if (not name.startswith("_") and isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef,
                           ast.ClassDef))):
                public.append(f"{module}.{name}")
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            for node in defs.get(name, ()):
                todo += read_names(node)
    return sorted(name for name in public if name.split(".")[1] not in seen)


def test_detector_flags_unreached_definitions():
    sources = {"a": ("import numpy as np\n"
                     "TABLE = {'k': np.sqrt}\n"
                     "def main():\n    return helper(TABLE)\n"
                     "def helper(x):\n    return b.Kernel(x)\n"
                     "def orphan():\n    return helper(1)\n"),
               "b": ("class Kernel:\n    def run(self):\n"
                     "        return _inner()\n"
                     "def _inner():\n    return pinned()\n"
                     "def pinned():\n    pass\n"
                     "def by_string():\n    pass\n"
                     "def unused():\n    pass\n")}
    assert unreached(sources, {"main"}) == ["a.orphan", "b.by_string",
                                            "b.unused"]
    spelled = read_names(ast.parse("HOOKS = {'b.by_string': 1}\n"),
                         strings=True)
    assert unreached(sources, {"main"} | spelled) == ["a.orphan",
                                                       "b.unused"]


def test_every_public_definition_is_reached():
    """src/ holds only what a command, an acceptance check or the
    benchmark reaches: the roots are ``cli.main``, the names the
    acceptance suite reads, and every name the benchmark imports, reads
    or spells in a string (its tracer hooks functions by dotted name)."""
    roots = {"main"} | read_names(
        ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    for path in sorted(BENCH.rglob("*.py")):
        roots |= read_names(ast.parse(path.read_text()), strings=True)
    sources = {path.stem: path.read_text()
               for path in sorted(SRC.glob("*.py"))}
    assert unreached(sources, roots) == []
