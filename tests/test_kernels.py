import numpy as np
import pytest

from libsift import _kernels

import reference


def _unit(rng, n, dim):
    m = rng.standard_normal((n, dim))
    return np.ascontiguousarray(m / np.linalg.norm(m, axis=1, keepdims=True))


def _lib_ids(rng, count, n_libs):
    ids = np.sort(rng.integers(0, n_libs, count)).astype(np.int64)
    ids[:n_libs] = np.arange(n_libs)
    return np.sort(ids)


def _safe_theta(sims, rng):
    """A threshold not within float noise of any attained similarity."""
    flat = np.unique(np.round(sims, 12))
    k = rng.integers(1, flat.size - 1)
    return float((flat[k] + flat[k + 1]) / 2.0)


def test_sim_matrix_against_double_loop():
    rng = np.random.default_rng(0)
    q = _unit(rng, 19, 24)
    k = _unit(rng, 27, 24)
    sims = _kernels.sim_matrix(q, k, batch=4)
    for i in range(19):
        for j in range(27):
            assert sims[i, j] == pytest.approx(reference.dot(q[i], k[j]), abs=1e-9)


def test_sim_matrix_batch_invariance():
    rng = np.random.default_rng(1)
    q = _unit(rng, 150, 32)
    k = _unit(rng, 90, 32)
    base = _kernels.sim_matrix(q, k, batch=1)
    for batch in (7, 128, 1000):
        np.testing.assert_allclose(_kernels.sim_matrix(q, k, batch=batch),
                                   base, atol=1e-9)


def test_sim_matrix_validates():
    with pytest.raises(ValueError):
        _kernels.sim_matrix(np.ones((2, 3)), np.ones((2, 4)))
    with pytest.raises(ValueError):
        _kernels.sim_matrix(np.ones(3), np.ones((2, 3)))
    with pytest.raises(ValueError):
        _kernels.sim_matrix(np.ones((2, 3)), np.ones((2, 3)), batch=0)


def _check_counts(vectors, lib_ids, n_libs, thetas, rows=None):
    """theta_counts with every threshold at once, each pair checked against
    a call with its threshold alone and, over `rows`, the reference."""
    together = _kernels.theta_counts(vectors, lib_ids, n_libs, thetas)
    assert len(together) == len(thetas)
    for theta, (n, df) in zip(thetas, together):
        (n_alone, df_alone), = _kernels.theta_counts(vectors, lib_ids, n_libs, [theta])
        np.testing.assert_array_equal(n, n_alone)
        np.testing.assert_array_equal(df, df_alone)
    picked = slice(None) if rows is None else rows
    assert [(n[picked].tolist(), df[picked].tolist()) for n, df in together] == reference.counts(
        vectors, lib_ids, thetas, rows)
    return together


def test_theta_counts_against_brute_force():
    rng = np.random.default_rng(2)
    for trial in range(8):
        count = int(rng.integers(5, 120))
        n_libs = int(rng.integers(1, min(count, 9) + 1))
        vecs = _unit(rng, count, 16)
        _check_counts(vecs, _lib_ids(rng, count, n_libs), n_libs,
                      [_safe_theta(vecs @ vecs.T, rng) for _ in range(3)])


def test_theta_counts_at_attained_similarities():
    # entries of +-0.5 and 1 make every similarity exact: 0, +-0.5 or +-1,
    # so each threshold below is attained and >= must count it
    half = np.array([[0.5, 0.5, 0.5, 0.5], [0.5, 0.5, 0.5, -0.5],
                     [0.5, -0.5, 0.5, -0.5], [-0.5, 0.5, 0.5, 0.5]])
    vecs = np.vstack([np.eye(4), half, np.eye(4)[::-1], half[::-1]])
    thetas = [0.0, 0.5, 1.0, -0.5]
    got = _check_counts(vecs, np.repeat(np.arange(4), 4), 4, thetas)
    assert all(n.sum() > len(vecs) or theta == 1.0 for theta, (n, _) in zip(thetas, got))


def test_theta_counts_without_thresholds():
    assert _kernels.theta_counts(np.eye(3), np.arange(3), 3, []) == []


def test_theta_counts_extremes():
    rng = np.random.default_rng(3)
    vecs = _unit(rng, 40, 8)
    ids = _lib_ids(rng, 40, 4)
    (n, df), = _kernels.theta_counts(vecs, ids, 4, [1.1])  # nothing matches
    np.testing.assert_array_equal(n, np.ones(40, dtype=np.int64))
    np.testing.assert_array_equal(df, np.zeros(40, dtype=np.int64))
    (n, df), = _kernels.theta_counts(vecs, ids, 4, [-1.1])  # everything matches
    sizes = np.bincount(ids, minlength=4)
    np.testing.assert_array_equal(n, sizes[ids])
    np.testing.assert_array_equal(df, np.full(40, 3, dtype=np.int64))


def test_theta_counts_spans_block_boundary():
    # more than two internal blocks, the last one partial; the checked rows
    # take both sides of every seam, the last row and a random sample
    rng = np.random.default_rng(4)
    block = _kernels._BLOCK
    count = 2 * block + 176
    vecs = _unit(rng, count, 8)
    ids = _lib_ids(rng, count, 6)
    rows = [0, block - 1, block, 2 * block - 1, 2 * block, count - 1]
    _check_counts(vecs, ids, 6, [0.9, 0.5, 0.95], rows + rng.integers(0, count, 25).tolist())


def test_theta_counts_validates_lib_ids():
    vecs = np.eye(4)
    with pytest.raises(ValueError):
        _kernels.theta_counts(vecs, np.array([0, 1, 0, 1]), 2, [0.5])  # not sorted
    with pytest.raises(ValueError):
        _kernels.theta_counts(vecs, np.array([0, 0, 2, 2]), 3, [0.5])  # lib 1 empty
    with pytest.raises(ValueError):
        _kernels.theta_counts(vecs, np.array([0, 0, 1]), 2, [0.5])  # length mismatch


def test_best_match_against_oracle():
    rng = np.random.default_rng(5)
    q = _unit(rng, 33, 12)
    k = _unit(rng, 21, 12)
    best, arg = _kernels.best_match(q, k)
    sims = q @ k.T
    np.testing.assert_allclose(best, sims.max(axis=0), atol=0)
    np.testing.assert_array_equal(arg, sims.argmax(axis=0))


def test_best_match_tie_keeps_earliest_row():
    q = np.vstack([np.eye(3)[0], np.eye(3)[1], np.eye(3)[0]])
    k = np.eye(3)
    best, arg = _kernels.best_match(q, k)
    assert arg[0] == 0  # rows 0 and 2 tie at 1.0
    assert best[0] == 1.0


def test_best_match_ties_across_internal_blocks():
    # identical query rows far beyond the first block must not steal the
    # argmax from row 0
    dim = 8
    row = np.ones((1, dim)) / np.sqrt(dim)
    q = np.repeat(row, 1300, axis=0)
    k = np.vstack([row, -row])
    best, arg = _kernels.best_match(q, k)
    np.testing.assert_array_equal(arg, [0, 0])
    assert best[0] == pytest.approx(1.0, abs=1e-12)


def test_best_match_requires_queries():
    with pytest.raises(ValueError):
        _kernels.best_match(np.empty((0, 4)), np.ones((2, 4)))
