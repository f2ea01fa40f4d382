"""Numeric kernels over unit-row float64 matrices.

Dense similarity products go through numpy's BLAS in row blocks (`_BLOCK`
rows for the scans, `batch` rows for `sim_matrix`); the scans that fold
each block into counts or a running argmax live in `fallback` and are
looked up there on every call, so a profiler can wrap them on that module.
`theta_counts` folds each similarity block once per threshold, so any
number of thresholds cost one pass of products.
"""
from __future__ import annotations

import numpy as np

from . import fallback

_BLOCK = 512


def _rows(a):
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("expected a 2-D array of row vectors")
    return a


def sim_matrix(queries, keys, batch=128):
    """M[i][j] = dot(queries[i], keys[j]), chunked by `batch` query rows;
    every chunking computes the same dot products."""
    queries = _rows(queries)
    keys = _rows(keys)
    if queries.shape[1] != keys.shape[1]:
        raise ValueError("dimension mismatch")
    if batch < 1:
        raise ValueError("batch must be >= 1")
    batch = int(batch)
    out = np.empty((queries.shape[0], keys.shape[0]), dtype=np.float64)
    kt = keys.T
    for start in range(0, queries.shape[0], batch):
        np.matmul(queries[start:start + batch], kt, out=out[start:start + batch])
    return out


def theta_counts(vectors, lib_ids, n_libs, thetas):
    """[(n, df)], one pair per threshold in `thetas`: same-library hit
    counts (incl. self) and cross-library document frequencies at
    similarity >= that threshold.  Each block of products is computed
    once and folded once per threshold, so every pair equals a call with
    that threshold alone.

    lib_ids must be nondecreasing, covering every value in [0, n_libs).
    """
    vectors = _rows(vectors)
    lib_ids = np.ascontiguousarray(lib_ids, dtype=np.int64)
    if lib_ids.shape != (vectors.shape[0],):
        raise ValueError("lib_ids must have one entry per vector")
    if lib_ids.size:
        if (np.diff(lib_ids) < 0).any():
            raise ValueError("lib_ids must be nondecreasing")
        if lib_ids[0] != 0 or lib_ids[-1] != n_libs - 1 or np.unique(lib_ids).size != n_libs:
            raise ValueError("lib_ids must cover every value in [0, n_libs)")
    count = vectors.shape[0]
    thetas = [float(theta) for theta in thetas]
    out = [(np.ones(count, dtype=np.int64), np.zeros(count, dtype=np.int64)) for _ in thetas]
    if not count or not thetas:
        return out
    edges = np.searchsorted(lib_ids, np.arange(int(n_libs) + 1)).tolist()
    vt = vectors.T
    # one block of products at a time, each written over the last
    buf = np.empty((min(_BLOCK, count), count), dtype=np.float64)
    for start in range(0, count, _BLOCK):
        stop = min(start + _BLOCK, count)
        sims = np.matmul(vectors[start:stop], vt, out=buf[:stop - start])
        for theta, (n, df) in zip(thetas, out):
            fallback.count_block(sims, lib_ids, edges, start, theta, n, df)
    return out


def best_match(queries, keys):
    """Per key: max similarity over queries and the first query row index
    attaining it."""
    queries = _rows(queries)
    keys = _rows(keys)
    if queries.shape[1] != keys.shape[1]:
        raise ValueError("dimension mismatch")
    if queries.shape[0] == 0:
        raise ValueError("queries must be non-empty")
    best = np.full(keys.shape[0], -np.inf, dtype=np.float64)
    arg = np.zeros(keys.shape[0], dtype=np.int64)
    kt = keys.T
    for start in range(0, queries.shape[0], _BLOCK):
        stop = min(start + _BLOCK, queries.shape[0])
        fallback.best_match_block(queries[start:stop] @ kt, start, best, arg)
    return best, arg
