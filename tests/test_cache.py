import os
import warnings
from dataclasses import replace

import numpy as np
import pytest

from wavedecay import cache as cache_mod
from wavedecay import radialop
from wavedecay.cache import EigenCache, cache_key
from wavedecay.radialop import PotentialSpec, RadialGrid, build_G

GRID = RadialGrid(4.0, 39)


def test_canonical_numeric_forms_collapse():
    key = cache_key({"c": 2.0})
    assert cache_key({"c": 2}) == key
    assert cache_key({"c": np.float64(2.0)}) == key
    assert cache_key({"c": np.int64(2)}) == key
    assert cache_key({"c": 2.0 + 1e-15}) != key


def test_cache_key_invariances():
    a = cache_key({"R": 64, "M": 1280})
    assert a == cache_key({"M": 1280.0, "R": 64.0})    # order, int vs float
    assert a != cache_key({"R": 64, "M": 1281})
    assert len(a) == 32


def _fresh_op(c=1.0):
    # a copy of the shared operator, so its in-process memo starts empty
    return replace(build_G(GRID, 4, PotentialSpec(c, 3.0)))


def _no_eigensolve(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("eigensolve ran")
    monkeypatch.setattr(radialop, "eigh_tridiagonal", fail)


def test_round_trip_seeds_memo(tmp_path, monkeypatch):
    cache = EigenCache(str(tmp_path))
    vals, vecs = cache.eigensystem(_fresh_op())
    assert len(list(tmp_path.glob("eig_*.npz"))) == 1
    assert os.listdir(tmp_path) == [p.name for p in tmp_path.glob("*.npz")]

    _no_eigensolve(monkeypatch)
    op2 = _fresh_op()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals2, vecs2 = cache.eigensystem(op2)
    assert np.array_equal(vals, vals2)
    assert np.array_equal(vecs, vecs2)
    assert op2.eigensystem()[0] is vals2      # memo was seeded from disk


def test_memo_hit_reads_no_file(tmp_path, monkeypatch):
    cache = EigenCache(str(tmp_path))
    op = _fresh_op()
    vals, _ = cache.eigensystem(op)
    with open(cache._path(op), "wb") as fh:
        fh.write(b"garbage")

    def no_load(*args, **kwargs):
        raise AssertionError("memo hit touched the disk")
    monkeypatch.setattr(cache_mod.np, "load", no_load)
    assert cache.eigensystem(op)[0] is vals


def test_foreign_eigensystem_is_rejected(tmp_path):
    """Another operator's eigensystem stored under this operator's key is
    caught by the residual check and replaced."""
    cache = EigenCache(str(tmp_path))
    op = _fresh_op(2.0)
    other = _fresh_op(1.0).eigensystem()
    np.savez(cache._path(op), vals=other[0], vecs=other[1])
    with pytest.warns(RuntimeWarning, match="residual") as rec:
        vals, vecs = cache.eigensystem(op)
    assert cache._path(op) in str(rec[0].message)
    want = _fresh_op(2.0).eigensystem()
    assert np.array_equal(vals, want[0]) and np.array_equal(vecs, want[1])
    with np.load(cache._path(op)) as data:     # the file was overwritten
        assert np.array_equal(data["vals"], want[0])


def _mutations():
    yield "shape", lambda v, q: (v[:-1], q)
    yield "shape", lambda v, q: (v.astype(np.float32), q)
    yield "finiteness", lambda v, q: (np.where(v == v[3], np.nan, v), q)
    yield "ascending", lambda v, q: (v[::-1], q[:, ::-1])
    yield "orthonormality", lambda v, q: (v, 1.01 * q)
    yield "residual", lambda v, q: (v + 1e-3, q)


@pytest.mark.parametrize("check, mutate", list(_mutations()),
                         ids=[f"{c}{i}" for i, (c, _) in
                              enumerate(_mutations())])
def test_each_check_rejects_its_defect(tmp_path, check, mutate):
    cache = EigenCache(str(tmp_path))
    good = _fresh_op().eigensystem()
    op = _fresh_op()
    vals, vecs = mutate(*good)
    np.savez(cache._path(op), vals=vals, vecs=vecs)
    with pytest.warns(RuntimeWarning, match=check):
        got = cache.eigensystem(op)
    assert np.array_equal(got[0], good[0])


@pytest.mark.parametrize("damage", ["garbage", "truncated", "empty",
                                    "missing_member"])
def test_unreadable_file_is_rebuilt(tmp_path, damage):
    cache = EigenCache(str(tmp_path))
    op = _fresh_op()
    vals, vecs = op.eigensystem()
    path = cache._path(op)
    if damage == "missing_member":
        np.savez(path, vals=vals)
    else:
        np.savez(path, vals=vals, vecs=vecs)
        raw = open(path, "rb").read()
        body = {"garbage": b"not an npz archive" * 64,
                "truncated": raw[:len(raw) // 2], "empty": b""}[damage]
        with open(path, "wb") as fh:
            fh.write(body)
    with pytest.warns(RuntimeWarning, match="load"):
        got = cache.eigensystem(_fresh_op())
    assert np.array_equal(got[0], vals)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(cache.eigensystem(_fresh_op())[1], vecs)


def test_directory_at_the_old_temp_name_does_not_block_the_write(tmp_path):
    cache = EigenCache(str(tmp_path))
    op = _fresh_op()
    path = cache._path(op)
    os.mkdir(path + ".tmp")
    vals, _ = cache.eigensystem(op)
    with np.load(path) as data:
        assert np.array_equal(data["vals"], vals)
    assert sorted(os.listdir(tmp_path)) == sorted(
        [os.path.basename(path), os.path.basename(path) + ".tmp"])
