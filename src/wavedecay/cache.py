"""Disk layer for operator eigendecompositions.

Files are keyed by a hash of the operator's defining numbers, normalized
so that 2 and 2.0 hash identically.  A loaded file is checked against the
operator itself before it is used, so a stale or corrupt file is rebuilt
rather than trusted.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import tempfile
import warnings
import zipfile

import numpy as np

__all__ = ["cache_key", "EigenCache"]

# what np.load raises on a truncated, garbage or foreign file
_LOAD_ERRORS = (OSError, ValueError, EOFError, KeyError, zipfile.BadZipFile)


def cache_key(section):
    """sha256 over the sorted key=repr(float(value)) lines of a section of
    numbers."""
    lines = [f"{k}={float(v)!r}" for k, v in sorted(section.items())]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:32]


def _failed_check(op, vals, vecs):
    """Name of the first check (vals, vecs) fails as the eigensystem of op,
    or None.  Orthonormality and the residual are spot checks on a few
    columns; the residual tolerance is relative to a Gershgorin bound of
    op.  A fresh eigh_tridiagonal solve reads about 1e-15 on both
    (M = 159 and 1280)."""
    tol = 1e-9
    m = op.grid.M
    if (vals.shape != (m,) or vecs.shape != (m, m)
            or vals.dtype != float or vecs.dtype != float):
        return "shape"
    if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(vecs))):
        return "finiteness"
    if np.any(np.diff(vals) < 0):
        return "ascending eigenvalues"
    cols = np.unique(np.linspace(0, m - 1, 5).astype(int))
    q = vecs[:, cols]
    gram = vecs.T @ q                     # columns of the identity if exact
    gram[cols, np.arange(cols.size)] -= 1.0
    if np.max(np.abs(gram)) > tol:
        return "orthonormality"
    scale = np.max(np.abs(op.diag)) + 2.0 * np.max(np.abs(op.offdiag))
    resid = np.linalg.norm(op.apply(q) - q * vals[cols], axis=0)
    if np.max(resid) > tol * scale:
        return "residual"
    return None


class EigenCache:
    """Disk cache of operator eigensystems under ``root``.  A memo hit
    reads no file; a checked file seeds the operator's memo, so repeat
    runs skip the tridiagonal solve; anything else is computed and
    written."""

    def __init__(self, root):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _path(self, op):
        pot = op.potential
        section = {"R": op.grid.R, "M": op.grid.M, "n": op.n,
                   "c": pot.c if pot else 0.0,
                   "delta": pot.delta if pot else 0.0}
        return os.path.join(self.root, f"eig_{cache_key(section)}.npz")

    def eigensystem(self, op):
        memo = vars(op)                   # DiscreteOperator._eigen lives here
        if "_eigen" in memo:
            return memo["_eigen"]
        path = self._path(op)
        if os.path.exists(path):
            try:
                with np.load(path) as data:
                    vals, vecs = data["vals"], data["vecs"]
            except _LOAD_ERRORS as exc:
                failed = f"load ({type(exc).__name__}: {exc})"
            else:
                failed = _failed_check(op, vals, vecs)
            if failed is None:
                memo["_eigen"] = (vals, vecs)
                return vals, vecs
            warnings.warn(f"eigen cache file {path} failed its {failed} "
                          "check; recomputing it", RuntimeWarning,
                          stacklevel=2)
        vals, vecs = op.eigensystem()
        self._write(path, vals, vecs)
        return vals, vecs

    def _write(self, path, vals, vecs):
        # a unique temp name per writer, so concurrent runs cannot collide
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, vals=vals, vecs=vecs)
            os.replace(tmp, path)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
