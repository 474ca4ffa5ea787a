"""Correctness gate: compare a pass's outputs with the stored reference.

A check is one of:

- a step: it returned without raising and recorded no gap;
- a report node carrying ``passed`` (emitted estimate JSON, the lemma-2.3
  report, each oracle number a routes criterion asserts), together with
  the numbers and flags below it that no deeper check owns;
- an output document's remaining leaves (exit code, CSV rows, printed
  figures).

A check fails if it is missing on either side, if a flag or string
differs, or if a number drifted from the reference by more than the
round-off tolerance.  References are stored only from passes in which no
step raised or recorded a gap, so a step that raises or records a gap
fails its ``ran`` check.  Checks that fail by
design (criteria 3, 7, 11, 12 and 14) are stored with ``passed: false``
and count as failures only if that changes.
"""

from __future__ import annotations

import math

# numbers agree when |got - want| <= RTOL |want| + ATOL
RTOL = 1e-6
ATOL = 1e-12
# figures printed with four significant digits may move by one last digit
PRINTED_DIGITS = 4


def _walk(node, path, owner, out):
    """Assign every leaf under node to its deepest enclosing check."""
    if isinstance(node, dict):
        if "passed" in node:
            owner = path
        for key, val in node.items():
            _walk(val, f"{path}/{key}", owner, out)
    elif isinstance(node, list):
        for i, val in enumerate(node):
            _walk(val, f"{path}/{i}", owner, out)
    else:
        out.setdefault(owner, {})[path] = node


def flatten(outputs):
    """{check id: {leaf path: value}} for a pass's outputs."""
    checks = {}
    for step, rec in outputs.items():
        checks[f"{step}/ran"] = {f"{step}/error": rec["error"],
                                 f"{step}/gaps": len(rec["gaps"])}
        for doc, node in rec["docs"].items():
            _walk(node, f"{step}/{doc}", f"{step}/{doc}", checks)
    return checks


def _number(value):
    """value as a float; None for flags, None and non-numeric text."""
    if isinstance(value, bool) or value is None:
        return None
    try:
        return float(value)
    except ValueError:
        return None


def _last_digit(value):
    """One unit in the last digit of value printed with PRINTED_DIGITS
    significant digits."""
    return 10.0 ** (math.floor(math.log10(abs(value))) - PRINTED_DIGITS + 1)


def _leaf_ok(path, got, want, worst):
    a, b = _number(got), _number(want)
    if a is None or b is None:
        return got == want
    if a == b:                       # also equal infinities
        return True
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    diff = abs(a - b)
    worst[0] = max(worst[0], diff / abs(b) if b else diff)
    if path.endswith("/printed") and b:
        return round(diff / _last_digit(b)) <= 1
    return diff <= RTOL * abs(b) + ATOL


def compare(outputs, reference):
    """(checks attempted, ids of failed checks, largest relative
    deviation of any number) for outputs against the reference."""
    got, want = flatten(outputs), flatten(reference)
    worst = [0.0]
    failed = []
    for cid in sorted(set(got) | set(want)):
        g, w = got.get(cid), want.get(cid)
        ok = g is not None and w is not None and set(g) == set(w)
        if ok:
            ok = all([_leaf_ok(p, g[p], w[p], worst) for p in sorted(w)])
        if not ok:
            failed.append(cid)
    return len(set(got) | set(want)), failed, worst[0]
