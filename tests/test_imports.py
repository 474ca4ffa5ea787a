"""Every module-level import in the package is used by its module.

Stdlib only: parses ``src/wavedecay/*.py`` with ``ast``.  A name counts
as used when the module reads it (``name`` or ``name.attr``) or lists it
in ``__all__``.
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


def _used_names(tree):
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {elt.value for elt in node.value.elts
                     if isinstance(elt, ast.Constant)}
    return used


def unused_imports(source):
    tree = ast.parse(source)
    used = _used_names(tree)
    return [(name, line) for name, line in _imported_names(tree)
            if name not in used]


def test_detector_flags_an_unused_import():
    src = "import os\nfrom json import dumps, loads\nloads('1')\n"
    assert unused_imports(src) == [("os", 1), ("dumps", 2)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []
