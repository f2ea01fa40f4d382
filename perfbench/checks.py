"""Output checks.  Each returns a list of problems; an empty list means the
output is correct.  A non-empty list counts as one failed operation, it
never aborts the run.

The oracles recompute weights and scores from the formulas in FORMAT.md
with plain numpy instead of libsift's counting and scoring code, so a
change that alters results is caught even on a seed with no recorded
digest.
"""
from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from libsift import (
    DEFAULT_THETA3,
    HashedNgramEmbedder,
    LibsiftError,
    build_origin,
    compute_weights,
    filter_sections,
    load_repository,
    purify_export,
    purify_mi,
    save_repository,
)

SCORE_TOLERANCE = 1e-9
WEIGHT_TOLERANCE = 1e-12


class Tally:
    """Attempted and failed operations, with the problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, problems, ops=1):
        self.attempted += ops
        if problems:
            self.failed += ops
            self.problems.extend(problems)

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# build

def weight_problems(repo) -> list:
    """Recount n and df for every retained feature by brute force and
    recompute its TF-IDF weight."""
    libs = list(repo.libraries.items())
    rows = [(i, f) for i, (_, feats) in enumerate(libs) for f in feats]
    if not rows:
        return []
    vecs = np.array([f.vector for _, f in rows], dtype=np.float64)
    owner = np.array([i for i, _ in rows])
    hits = vecs @ vecs.T >= repo.config.theta1
    np.fill_diagonal(hits, False)
    same = owner[:, None] == owner[None, :]
    n = 1 + (hits & same).sum(axis=1)
    onehot = np.eye(len(libs), dtype=np.int64)[owner]
    df = (((hits & ~same).astype(np.int64) @ onehot) > 0).sum(axis=1)
    sizes = np.bincount(owner, minlength=len(libs))
    problems = []
    for k, (i, f) in enumerate(rows):
        weight = n[k] / sizes[i] * math.log(len(libs) / (df[k] + 1))
        if (f.n_in_library, f.df) != (n[k], df[k]) or abs(f.weight - weight) > WEIGHT_TOLERANCE:
            problems.append(
                "feature %s/%s: n=%d df=%d weight=%r, oracle n=%d df=%d weight=%r"
                % (f.library_id, f.function_name, f.n_in_library, f.df, f.weight,
                   n[k], df[k], weight))
    return problems


def build_problems(lsr_path, expected_sha, scratch_path) -> list:
    """The .lsr matches the expected sha256 (when one is known), loads,
    re-saves byte-identically, and carries oracle-exact weights."""
    problems = []
    sha = sha256_file(lsr_path)
    if expected_sha is not None and sha != expected_sha:
        problems.append("repository sha256 %s, expected %s" % (sha, expected_sha))
    try:
        repo = load_repository(lsr_path)
    except LibsiftError as exc:
        return problems + ["repository does not load: %s" % exc]
    save_repository(repo, scratch_path)
    if sha256_file(scratch_path) != sha:
        problems.append("repository does not round-trip through load/save")
    os.remove(scratch_path)
    return problems + weight_problems(repo)


# ---------------------------------------------------------------------------
# detect

def oracle_scores(repo, target_vectors) -> dict:
    """library_id -> weighted mean over the library's features of each
    feature's best cosine against the target's functions."""
    libs = sorted(repo.libraries)
    feats = [f for lib in libs for f in repo.libraries[lib]]
    vecs = np.array([f.vector for f in feats], dtype=np.float64)
    vecs /= np.linalg.norm(vecs, axis=1)[:, None]
    target = target_vectors / np.linalg.norm(target_vectors, axis=1)[:, None]
    best = np.clip((target @ vecs.T).max(axis=0), -1.0, 1.0)
    scores = {}
    pos = 0
    for lib in libs:
        size = len(repo.libraries[lib])
        w = np.array([f.weight for f in repo.libraries[lib]], dtype=np.float64)
        total_w = w.sum()
        scores[lib] = float((w * best[pos:pos + size]).sum() / total_w) if total_w > 0 else 0.0
        pos += size
    return scores


def target_vectors(doc, embedder, known: dict) -> np.ndarray:
    """Vectors for a target's retained functions.  Functions copied from a
    library reuse the vector the repository build embedded for them (the
    corpus has no document-local call targets, so context cannot change
    them); the rest are embedded here."""
    fdoc = filter_sections(doc)
    local = frozenset(fn.name for fn in fdoc.functions)
    rows = []
    for fn in fdoc.functions:
        vec = known.get(fn.name)
        rows.append(vec if vec is not None else embedder.embed_function(fn, local))
    return np.array(rows, dtype=np.float64)


def report_problems(report: dict, truth: set, expected: dict) -> list:
    """One target's report: decisions equal the manifest and every score is
    within SCORE_TOLERANCE of the oracle."""
    bin_id = report.get("binary_id")
    problems = []
    entries = {e["library_id"]: e for e in report.get("entries", [])}
    if set(entries) != set(expected):
        return ["%s: report covers %d libraries, expected %d"
                % (bin_id, len(entries), len(expected))]
    decided = {lib for lib, e in entries.items() if e["decision"]}
    if decided != set(truth):
        problems.append("%s: decided %s, manifest %s" % (bin_id, sorted(decided), sorted(truth)))
    for lib, e in entries.items():
        if abs(e["score"] - expected[lib]) > SCORE_TOLERANCE:
            problems.append("%s/%s: score %r, oracle %r" % (bin_id, lib, e["score"], expected[lib]))
        if e["decision"] != (e["score"] >= DEFAULT_THETA3):
            problems.append("%s/%s: decision disagrees with score" % (bin_id, lib))
    return problems


def read_report_lines(path) -> dict:
    """binary_id -> report object; a missing or unreadable file gives {}."""
    reports = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    obj = json.loads(line)
                    reports[obj["binary_id"]] = obj
    except (OSError, ValueError, KeyError):
        return {}
    return reports


# ---------------------------------------------------------------------------
# sweep

CSV_HEADER = "theta1,theta2,theta3,retained_fraction,precision,recall,f1"


def parse_sweep_csv(data: bytes, grid) -> tuple:
    """(cells, problems); cells are tuples of floats in file order."""
    lines = data.decode("utf-8").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return [], ["sweep CSV header is wrong"]
    expected = [(t1, t2, t3) for t1 in grid[0] for t2 in grid[1] for t3 in grid[2]]
    cells = []
    problems = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            cell = tuple(float(x) for x in line.split(","))
        except ValueError:
            problems.append("sweep CSV line %d is not numeric" % lineno)
            continue
        if len(cell) != 7:
            problems.append("sweep CSV line %d has %d fields" % (lineno, len(cell)))
            continue
        cells.append(cell)
    if [c[:3] for c in cells] != expected:
        problems.append("sweep CSV cells do not follow the grid")
    for c in cells:
        p, r, f1 = c[4:]
        want = 2 * p * r / (p + r) if p + r else 0.0
        if abs(f1 - want) > 1e-12 or not (0 <= p <= 1 and 0 <= r <= 1):
            problems.append("sweep cell %r: inconsistent precision/recall/f1" % (c[:3],))
    return cells, problems


def best_cell(cells):
    """SweepGrid.best's rule: max F1, then retained fraction, then the
    smallest (theta1, theta2, theta3)."""
    return max(cells, key=lambda c: (c[6], c[3], (-c[0], -c[1], -c[2])))


def sweep_oracle(tpls, targets, manifest, grid) -> list:
    """Every sweep cell recomputed with oracle_scores: one repository per
    (theta1, theta2) from the export-stage origin, numpy scoring instead of
    the sweep's aggregate path, and confusion counts per theta3."""
    origin = build_origin(tpls)
    exported = purify_export(origin)
    known = {f.function_name: f.vector for feats in origin.libraries.values() for f in feats}
    embedder = HashedNgramEmbedder()
    vectors = {doc.binary_id: target_vectors(doc, embedder, known) for doc in targets}
    cells = []
    for t1 in grid[0]:
        for t2 in grid[1]:
            repo = compute_weights(purify_mi(exported, t2), t1)
            retained = repo.stats[-1].leave_percent
            scores = {b: oracle_scores(repo, v) for b, v in vectors.items()}
            for t3 in grid[2]:
                tp = fp = fn = 0
                for b, truth in manifest.items():
                    decided = {lib for lib, score in scores[b].items() if score >= t3}
                    tp += len(decided & truth)
                    fp += len(decided - truth)
                    fn += len(truth - decided)
                p = tp / (tp + fp) if tp + fp else 0.0
                r = tp / (tp + fn) if tp + fn else 0.0
                f1 = 2 * p * r / (p + r) if p + r else 0.0
                cells.append((t1, t2, t3, retained, p, r, f1))
    return cells


def sweep_problems(data: bytes, grid, expected_sha, oracle_cells, expected_best=None) -> list:
    """The CSV follows the grid, every cell equals the oracle's, its sha256
    matches the expected one (when known) and its best cell is
    `expected_best` (thetas, precision, recall, f1; when recorded)."""
    cells, problems = parse_sweep_csv(data, grid)
    sha = hashlib.sha256(data).hexdigest()
    if expected_sha is not None and sha != expected_sha:
        problems.append("sweep CSV sha256 %s, expected %s" % (sha, expected_sha))
    if not cells:
        return problems + ["sweep CSV has no cells"]
    for got, want in zip(cells, oracle_cells):
        if any(abs(a - b) > 1e-12 for a, b in zip(got, want)):
            problems.append("sweep cell %r, oracle %r" % (got, want))
    if expected_best is not None:
        best = best_cell(cells)
        got = best[:3] + best[4:]
        if any(abs(a - b) > 1e-12 for a, b in zip(got, expected_best)):
            problems.append("sweep best cell %r, expected %r" % (got, tuple(expected_best)))
    return problems
