"""NumPy block scans behind the kernels in __init__.

All inputs are C-contiguous float64 arrays of unit-norm rows; __init__
validates them, owns the block loop and computes each BLAS similarity
block these functions fold.
"""
from __future__ import annotations

import numpy as np


def count_block(sims, lib_ids, edges, row_start, theta, n_out, df_out):
    """Fold one block of similarity rows into same-library hit counts and
    cross-library document frequencies.

    Library k holds the columns edges[k]:edges[k + 1].
    """
    rows = sims.shape[0]
    rr = np.arange(rows)
    span = np.arange(row_start, row_start + rows)
    hits = sims >= theta
    hits[rr, span] = False  # self excluded
    per_lib = np.stack([np.count_nonzero(hits[:, lo:hi], axis=1)
                        for lo, hi in zip(edges, edges[1:])], axis=1)
    own = lib_ids[span]
    n_out[span] += per_lib[rr, own]
    matched = per_lib > 0
    matched[rr, own] = False
    df_out[span] = matched.sum(axis=1)


def best_match_block(sims, row_start, best, arg):
    """Fold one block of query rows into the per-key running maximum.

    Strict > keeps earlier rows on exact ties, both within the block
    (argmax picks the first) and across blocks (no update on equality).
    """
    blk_best = sims.max(axis=0)
    improve = blk_best > best
    if improve.any():
        blk_arg = sims.argmax(axis=0)
        best[improve] = blk_best[improve]
        arg[improve] = blk_arg[improve] + row_start
