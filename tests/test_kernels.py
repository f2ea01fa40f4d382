import zlib

import numpy as np
import pytest

from libsift import (
    AGG_MATCH_SUM, AGG_WEIGHTED_MEAN, AGGREGATION_MODES, BinaryDocument, SyntheticCorpusSpec, _kernels, aggregate,
    batched_similarity, build_repository, detect, generate_corpus, run_ablation, sweep,
)
from libsift.detector import embed_target

import reference
from corpora import one_block


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


# ---------------------------------------------------------------------------
# the kernels check nothing: every caller must meet their preconditions

def _rows(*mats):
    """Float64, C-contiguous 2-D row matrices of one shared dimension."""
    for mat in mats:
        assert isinstance(mat, np.ndarray) and mat.dtype == np.float64
        assert mat.ndim == 2 and mat.flags.c_contiguous
    assert len({mat.shape[1] for mat in mats}) == 1


def _external(dim):
    """A vector reader giving each function float32 values seeded by its
    name, so the public entry points must convert them."""
    def read(doc):
        return {fn.name: np.random.default_rng(zlib.crc32(fn.name.encode())).standard_normal(
            dim).astype(np.float32) for fn in doc.functions}
    return read


def test_every_caller_meets_the_kernels_preconditions(monkeypatch):
    real = {name: getattr(_kernels, name) for name in ("sim_matrix", "theta_counts",
                                                         "best_match")}
    calls = []

    def sim_matrix(queries, keys, batch=128):
        _rows(queries, keys)
        assert queries.shape[0] > 0 and batch >= 1
        calls.append("sim_matrix")
        return real["sim_matrix"](queries, keys, batch)

    def theta_counts(vectors, lib_ids, n_libs, thetas):
        _rows(vectors)
        lib_ids = np.asarray(lib_ids)
        assert lib_ids.shape == (vectors.shape[0],)
        assert (np.diff(lib_ids) >= 0).all()
        assert np.unique(lib_ids).tolist() == list(range(n_libs))
        calls.append("theta_counts")
        return real["theta_counts"](vectors, lib_ids, n_libs, thetas)

    def best_match(queries, keys):
        _rows(queries, keys)
        assert queries.shape[0] > 0
        calls.append("best_match")
        return real["best_match"](queries, keys)

    for name, wrapper in (("sim_matrix", sim_matrix), ("theta_counts", theta_counts),
                          ("best_match", best_match)):
        monkeypatch.setattr(_kernels, name, wrapper)

    def reached(*names):
        assert sorted(set(calls)) == sorted(names)
        calls.clear()

    # the kernel each aggregation mode scores with
    kernel = {AGG_WEIGHTED_MEAN: "best_match", AGG_MATCH_SUM: "sim_matrix"}
    dim = 32
    tpl_docs, target_docs, manifest = generate_corpus(SyntheticCorpusSpec(
        library_count=4, functions_per_library=10, simple_fn_rate=0.25, export_rate=0.6,
        planted_reuse={"bin000": (["lib000"], 1.0), "bin001": (["lib002", "lib003"], 0.6)},
        distractor_functions=6, rng_seed=3))
    # a target that section filtering empties is never scored
    target_docs.append(BinaryDocument("binstub", "target", [
        one_block("stub", ["jmp"], section=".plt")]))
    manifest["binstub"] = []

    for vectors in (None, _external(dim)):
        repo = build_repository(tpl_docs, dim=dim, vectors=vectors)
        reached("theta_counts")
        for mode in AGGREGATION_MODES:
            for doc in target_docs:
                detect(doc, repo, mode=mode, vectors=vectors)
            reached(kernel[mode])

    # the public entries prepare what they receive: raw, float32 or
    # Fortran-ordered rows
    names, mat = embed_target(target_docs[0], repo.config, vectors=vectors)
    feats = repo.libraries["lib000"]
    for mode in AGGREGATION_MODES:
        aggregate(np.asfortranarray(mat), names, feats, mode=mode, normalized=True)
        aggregate((3 * mat).astype(np.float32).tolist(), names, feats, mode=mode)
        reached(kernel[mode])
    rng = np.random.default_rng(0)
    batched_similarity(np.asfortranarray(rng.standard_normal((7, 5)).astype(np.float32)),
                       rng.integers(1, 9, (4, 5)), batch=3)
    reached("sim_matrix")

    for mode in AGGREGATION_MODES:
        sweep(tpl_docs, target_docs, manifest, theta1_values=(0.8, 0.9),
              theta2_values=(0.2, 0.5), theta3_values=(0.7, 0.9), dim=dim, mode=mode)
        reached("theta_counts", kernel[mode])
        run_ablation(tpl_docs, target_docs, manifest, dim=dim, mode=mode)
        reached("theta_counts", kernel[mode])
