"""Evaluation harness: ground-truth scoring, threshold sweeps, the
ablation matrix and stage timing.  The synthetic corpus generator is
`synthetic`.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .detector import (
    AGG_MATCH_SUM,
    AGG_WEIGHTED_MEAN,
    DEFAULT_THETA3,
    check_scoring,
    embed_target,
    library_block,
    match_library,
    reduce_scores,
    unique_targets,
)
from .embedding import DEFAULT_DIM, DEFAULT_SEED
from .errors import ConfigError, ParseError, ValidationError
from .interchange import NUMBER, json_field, json_object, save_json
from .repository import (
    DEFAULT_THETA1,
    DEFAULT_THETA2,
    STAGE_EXPORT,
    STAGE_MI,
    RepoConfig,
    TplRepository,
    build_origin,
    build_steps,
    feature_vectors,
    purify_export,
    purify_mi,
    stage_steps,
    weight_rows,
)

DEFAULT_THETA1_GRID = (0.75, 0.8, 0.85, 0.9, 0.95)
DEFAULT_THETA2_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
DEFAULT_THETA3_GRID = tuple(round(0.70 + 0.01 * k, 2) for k in range(26))


# ---------------------------------------------------------------------------
# ground-truth metrics

@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0


@dataclass(frozen=True)
class EvalResult:
    counts: ConfusionCounts
    precision: float
    recall: float
    f1: float
    precision_defined: bool
    recall_defined: bool


def metrics_from_counts(counts: ConfusionCounts) -> EvalResult:
    """P/R/F1 on integer counts; undefined ratios report 0.0 with the
    matching *_defined flag cleared."""
    p_den = counts.tp + counts.fp
    r_den = counts.tp + counts.fn
    precision = counts.tp / p_den if p_den else 0.0
    recall = counts.tp / r_den if r_den else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return EvalResult(counts, precision, recall, f1, p_den > 0, r_den > 0)


def _confusions(bin_ids, lib_ids, decisions, manifest: Mapping) -> list:
    """One ConfusionCounts per boolean (binary x library) array in
    `decisions`: tp/fp/fn of its decided (bin_ids[i], lib_ids[j]) pairs,
    the one counting rule of reports and evaluation tables.

    Manifest binaries without a row count as all-missed, and so do
    manifest libraries outside `lib_ids`; every binary in `bin_ids` is in
    the manifest, once.
    """
    truth = np.array([[lib_id in libs for lib_id in lib_ids]
                      for libs in (set(manifest[bin_id]) for bin_id in bin_ids)],
                     dtype=bool).reshape(len(bin_ids), len(lib_ids))
    total = sum(len(set(libs)) for libs in manifest.values())
    counts = []
    for decided in decisions:
        tp = int(np.count_nonzero(decided & truth))
        counts.append(ConfusionCounts(tp, int(np.count_nonzero(decided)) - tp, total - tp))
    return counts


def score_metrics(reports, manifest: Mapping) -> EvalResult:
    """Count (binary, library) decisions against the manifest.

    Manifest binaries without a report count as all-missed; a report for a
    binary absent from the manifest, or a second report for one binary, is
    an error.
    """
    bin_ids, seen = [r.binary_id for r in reports], set()
    for bin_id in bin_ids:
        if bin_id not in manifest:
            raise ValidationError("report for unknown binary %r" % bin_id)
        if bin_id in seen:
            raise ValidationError("duplicate report for binary %r" % bin_id)
        seen.add(bin_id)
    decided = [r.decided() for r in reports]
    lib_ids = sorted(set().union(*decided))
    table = np.array([[lib_id in libs for lib_id in lib_ids] for libs in decided],
                     dtype=bool).reshape(len(decided), len(lib_ids))
    return metrics_from_counts(_confusions(bin_ids, lib_ids, [table], manifest)[0])


# ---------------------------------------------------------------------------
# shared scoring: one match per (target, library) serves every cell

# The certified bound on how far a score gathered from a union block can
# lie from the same score on its group's own block, per unit of score
# scale.  With u = 2**-53, any float64 evaluation of the dot product of
# two unit rows of dimension D lies within about D*u of the exact cosine,
# whatever its summation order or BLAS blocking, so two evaluations lie
# within 2*D*u (1.7e-13 at D = 768); clipping and a max over binary rows
# keep that bound.
# * core-weighted-mean divides sum(w_j * s_j) by sum(w_j), with w_j >= 0
#   and the same weights and left-to-right order on both paths: the two
#   scores lie within about 2*(D + K + 2)*u for K library features.
# * match-sum adds one term max_j(w_j * s_rj) per binary row: each of the
#   R terms moves by at most (2*D*u + 2*u)*max(w), and each path's sum of
#   R terms is off by at most R*u*R*max(w): within about
#   2*(D + R + 1)*u * R*max(w).
# DELTA bounds 2*(D + n + 2)*u for D + n up to _DELTA_TERMS (n = K or R),
# and the bound grows with D + n past that.  A score further than its
# bound from every theta3 in use is on the same side of each as the
# own-block score; any other is recomputed on its group's own block.
DELTA = 1e-9
_DELTA_TERMS = 4e6


@dataclass
class _Group:
    """One retained feature set with its weightings, laid over the union:
    per union library, None where the set emptied it, else (columns of its
    features in the union block, weight rows (weightings x features), its
    features)."""

    weightings: int
    entries: list
    shared: np.ndarray  # per library: scores gathered from a larger block
    sizes: np.ndarray
    max_weights: np.ndarray


def _lay_out(union, columns, repo: TplRepository, rows) -> _Group:
    """`repo`, a subset of the union's features (`columns`: id -> column, per
    union library), with one `weight_rows` array per weighting in `rows`."""
    rows = np.array(rows, dtype=np.float64).reshape(len(rows), -1)
    offsets, pos = {}, 0
    for lib_id, feats in repo.libraries.items():
        offsets[lib_id] = pos
        pos += len(feats)
    entries = []
    for (lib_id, _), column in zip(union, columns):
        feats = repo.libraries.get(lib_id)
        if not feats:
            entries.append(None)
            continue
        cols = np.array([column[id(f)] for f in feats], dtype=np.int64)
        start = offsets[lib_id]
        entries.append((cols, rows[:, start:start + len(feats)], feats))
    return _Group(
        len(rows),
        entries,
        np.array([e is not None and len(e[0]) < len(u[1]) for e, u in zip(entries, union)],
                 dtype=bool),
        np.array([len(e[0]) if e else 0 for e in entries]),
        np.array([e[1].max() if e and e[1].size else 0.0 for e in entries]),
    )


def _slack(group: _Group, mode, rows: int, dim: int) -> np.ndarray:
    """Per union library: the bound on |gathered - own-block score| of a
    target of `rows` rows of dimension `dim` (see DELTA)."""
    terms = group.sizes if mode == AGG_WEIGHTED_MEAN else rows
    slack = DELTA * np.maximum(1.0, (dim + terms) / _DELTA_TERMS)
    if mode == AGG_MATCH_SUM:
        # kept above zero for a library whose weights are all zero, so an
        # infinite DELTA recomputes it too rather than making a NaN
        slack = slack * (rows * np.maximum(group.max_weights, np.finfo(float).tiny))
    return slack


def _shared_scores(target_docs, manifest, sets, weightings, mode, theta3_values) -> tuple:
    """(binary ids, library ids, scores): scores[s] is a (targets x
    weightings x libraries) array of aggregate scores of `sets[s]` under
    each row of `weightings(sets[s])`, over the union's libraries; -inf
    where detect could decide nothing (an emptied library, an empty target).

    The union is the largest set, which holds every other one.  Its
    non-empty libraries, in id order, are read before any set is weighted,
    one embed call per library; its column index and blocks are built
    after the weighting, so they never hold memory at once.  Targets are
    streamed: each is embedded once with the sets' shared config, matched
    once per union library, and each set's columns are gathered from that
    match and re-weighted.  A gathered score within its DELTA bound of a
    value in `theta3_values` is recomputed on its set's own block, built on
    first need and kept for the run, so every decision at those thresholds
    is the own block's.  Every target must be in the manifest, once.
    """
    largest = max(sets, key=TplRepository.feature_count)
    union = [(lib_id, feats) for lib_id, feats in sorted(largest.libraries.items()) if feats]
    feature_vectors(f for _, feats in union for f in feats)
    weights = [weightings(repo) for repo in sets]
    columns = [{id(f): j for j, f in enumerate(feats)} for _, feats in union]
    laid_out = [_lay_out(union, columns, repo, rows) for repo, rows in zip(sets, weights)]
    del columns, weights
    blocks = [library_block(feats) for _, feats in union]
    thresholds = np.array(theta3_values, dtype=np.float64)
    own_blocks = {}
    bin_ids, scores = [], [[] for _ in laid_out]
    for doc in unique_targets(target_docs):
        bin_id = doc.binary_id
        if bin_id not in manifest:
            raise ValidationError("target %r missing from manifest" % bin_id)
        bin_ids.append(bin_id)
        rows = [np.full((group.weightings, len(union)), -np.inf) for group in laid_out]
        _, bin_mat = embed_target(doc, largest.config)
        if bin_mat is not None:
            for j, block in enumerate(blocks):
                sims, _ = match_library(bin_mat, block, mode)
                for group, row in zip(laid_out, rows):
                    if group.entries[j] is not None:
                        cols, weights, _ = group.entries[j]
                        row[:, j] = reduce_scores(sims[..., cols], weights, mode)
            for g, (group, row) in enumerate(zip(laid_out, rows)):
                slack = _slack(group, mode, *bin_mat.shape)
                near = (np.abs(row[:, :, None] - thresholds) <= slack[:, None]).any(axis=(0, 2))
                for j in np.flatnonzero(near & group.shared):
                    _, weights, feats = group.entries[j]
                    if (g, j) not in own_blocks:
                        own_blocks[g, j] = library_block(feats)
                    sims, _ = match_library(bin_mat, own_blocks[g, j], mode)
                    row[:, j] = reduce_scores(sims, weights, mode)
        for table, row in zip(scores, rows):
            table.append(row)
    return bin_ids, [lib_id for lib_id, _ in union], [
        np.array(table).reshape(len(bin_ids), group.weightings, len(union))
        for table, group in zip(scores, laid_out)
    ]


def _evaluate(target_docs, manifest, sets, weightings, mode, theta3_values) -> list:
    """[set][weighting][theta3] EvalResults counted on `_shared_scores`'s tables."""
    bin_ids, lib_ids, scores = _shared_scores(target_docs, manifest, sets, weightings, mode,
                                              theta3_values)
    return [[list(map(metrics_from_counts, _confusions(
                bin_ids, lib_ids, (weighted >= t3 for t3 in theta3_values), manifest)))
             for weighted in table.transpose(1, 0, 2)] for table in scores]


# ---------------------------------------------------------------------------
# threshold sweep

@dataclass(frozen=True)
class SweepCell:
    theta1: float
    theta2: float
    theta3: float
    retained_fraction: float
    precision: float
    recall: float
    f1: float


@dataclass
class SweepGrid:
    cells: list

    def best(self) -> SweepCell:
        """Argmax F1; ties resolved toward larger retained fraction, then
        the lexicographically smallest (theta1, theta2, theta3)."""
        return max(
            self.cells,
            key=lambda c: (c.f1, c.retained_fraction, (-c.theta1, -c.theta2, -c.theta3)),
        )

    def to_csv_bytes(self) -> bytes:
        lines = ["theta1,theta2,theta3,retained_fraction,precision,recall,f1"]
        for c in self.cells:
            lines.append(
                "%r,%r,%r,%r,%r,%r,%r"
                % (c.theta1, c.theta2, c.theta3, c.retained_fraction,
                   c.precision, c.recall, c.f1)
            )
        return ("\n".join(lines) + "\n").encode("utf-8")

    def write_csv(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_csv_bytes())


def sweep(
    tpl_docs,
    target_docs,
    manifest: Mapping,
    *,
    theta1_values: Sequence[float] = DEFAULT_THETA1_GRID,
    theta2_values: Sequence[float] = DEFAULT_THETA2_GRID,
    theta3_values: Sequence[float] = DEFAULT_THETA3_GRID,
    dim: int = DEFAULT_DIM,
    seed: int = DEFAULT_SEED,
    mode: str = AGG_WEIGHTED_MEAN,
) -> SweepGrid:
    """Full grid evaluation.

    theta2 alone fixes the retained features: the complexity filter runs
    once per theta2, and one pass of similarity products per theta2
    weights it for every theta1.  The theta2 sets are nested, so
    `_shared_scores` takes the largest as the union: each library is
    embedded once, before any weighting, and each target is embedded
    once, matched once per library against the union and re-weighted per
    (theta2, theta1) from that match; a score too close to a theta3 to
    trust that shared match is recomputed on its set's own block (see
    DELTA).  theta3 only re-thresholds the scores.  Every grid value is
    checked before the first document is read.
    """
    if not theta1_values or not theta2_values or not theta3_values:
        raise ConfigError("sweep grids must be non-empty")
    check_scoring(mode, *theta3_values)
    for t1 in theta1_values:
        for t2 in theta2_values:
            RepoConfig(theta1=t1, theta2=t2, dim=dim, seed=seed)
    origin = build_origin(tpl_docs, dim=dim, seed=seed)
    exported = purify_export(origin)
    # purify_mi keeps nested sets, so the largest holds every other one
    purified = [purify_mi(exported, t2) for t2 in theta2_values]
    results = _evaluate(target_docs, manifest, purified,
                        lambda staged: [w for w, _, _ in weight_rows(staged, theta1_values)],
                        mode, theta3_values)
    return SweepGrid([
        SweepCell(float(t1), float(t2), float(t3), staged.stats[-1].leave_percent,
                  result.precision, result.recall, result.f1)
        for i1, t1 in enumerate(theta1_values)
        for t2, staged, by_theta1 in zip(theta2_values, purified, results)
        for t3, result in zip(theta3_values, by_theta1[i1])
    ])


# ---------------------------------------------------------------------------
# ablation matrix

ABLATION_CONFIGS = (
    ("origin", ()),
    ("export", (STAGE_EXPORT,)),
    ("mi", (STAGE_MI,)),
    ("export+mi", (STAGE_EXPORT, STAGE_MI)),
)


@dataclass(frozen=True)
class AblationRow:
    config: str
    weights: bool
    func_count: int
    leave_percent: float
    precision: float
    recall: float
    f1: float


@dataclass
class AblationTable:
    rows: list

    def row(self, config: str, weights: bool) -> AblationRow:
        for r in self.rows:
            if r.config == config and r.weights == weights:
                return r
        raise KeyError((config, weights))

    def to_csv_bytes(self) -> bytes:
        lines = ["config,weights,func_count,leave_percent,precision,recall,f1"]
        for r in self.rows:
            lines.append(
                "%s,%s,%d,%r,%r,%r,%r"
                % (r.config, "on" if r.weights else "off", r.func_count,
                   r.leave_percent, r.precision, r.recall, r.f1)
            )
        return ("\n".join(lines) + "\n").encode("utf-8")

    def __str__(self) -> str:
        out = ["%-10s %-4s %10s %14s %10s %8s %8s"
               % ("config", "wts", "functions", "leave_percent", "precision",
                  "recall", "f1")]
        for r in self.rows:
            out.append(
                "%-10s %-4s %10d %14.3f %10.3f %8.3f %8.3f"
                % (r.config, "on" if r.weights else "off", r.func_count,
                   r.leave_percent, r.precision, r.recall, r.f1)
            )
        return "\n".join(out)


def run_ablation(
    tpl_docs,
    target_docs,
    manifest: Mapping,
    *,
    theta1: float = DEFAULT_THETA1,
    theta2: float = DEFAULT_THETA2,
    theta3: float = DEFAULT_THETA3,
    dim: int = DEFAULT_DIM,
    seed: int = DEFAULT_SEED,
    mode: str = AGG_WEIGHTED_MEAN,
) -> AblationTable:
    """Eight rows: four purification configs, each with weights off (all
    1.0) and on, at fixed thresholds; every stage reads theta1 and theta2
    from the origin's config.  Every config keeps a subset of the origin,
    so `_shared_scores` takes the origin as the union, as `sweep` takes
    its largest theta2 set: each target is matched once per library
    against the origin, and each config's columns are gathered and
    re-weighted for weights off and on."""
    check_scoring(mode, theta3)
    origin = build_origin(tpl_docs, theta1=theta1, theta2=theta2, dim=dim, seed=seed)
    configs = []
    for _, stages in ABLATION_CONFIGS:
        staged = origin
        for _, staged in stage_steps(origin, stages):
            pass
        configs.append(staged)
    # every config keeps a subset of the origin, the largest of them
    results = _evaluate(target_docs, manifest, configs,
                        lambda staged: [np.ones(staged.feature_count()),
                                        weight_rows(staged, (origin.config.theta1,))[0][0]],
                        mode, (theta3,))
    return AblationTable([
        AblationRow(
            config=label,
            weights=weights_on,
            func_count=staged.feature_count(),
            leave_percent=staged.stats[-1].leave_percent,
            precision=result.precision,
            recall=result.recall,
            f1=result.f1,
        )
        for (label, _), staged, by_weighting in zip(ABLATION_CONFIGS, configs, results)
        for weights_on, (result,) in zip((False, True), by_weighting)
    ])


# ---------------------------------------------------------------------------
# stage timing

@dataclass(frozen=True)
class StageTimings:
    export_s: float
    mi_s: float
    weights_s: float
    # building the origin repository (section filter, profiles, external
    # vectors; built-in embedding runs later, at the first vector read);
    # None when read from a file written without it
    origin_s: float = None

    @property
    def total_s(self) -> float:
        return self.export_s + self.mi_s + self.weights_s


_TIMING_FIELDS = ("origin_s", "export_s", "mi_s", "weights_s")


def time_stages(tpl_docs, **options):
    """Wall-clock each step of `build_steps(tpl_docs, **options)`, which
    takes `build_repository`'s options: the origin and each requested
    stage, and 0 for a stage the options leave out.  Returns (timings,
    final repository)."""
    seconds = dict.fromkeys(_TIMING_FIELDS, 0.0)
    t0 = time.perf_counter()
    for stage, repo in build_steps(tpl_docs, **options):
        t1 = time.perf_counter()
        seconds[stage + "_s"] = t1 - t0
        t0 = t1
    return StageTimings(**seconds), repo


def write_timings(timings: StageTimings, path) -> None:
    payload = {key: getattr(timings, key) for key in _TIMING_FIELDS
               if getattr(timings, key) is not None}
    payload["total_s"] = timings.total_s
    save_json(payload, path)


def read_timings(path) -> StageTimings:
    """Timings from a file written by `write_timings`; `origin_s` may be
    absent.  Anything else malformed raises ParseError."""
    def fail(message):
        return ParseError("timing file: " + message)

    with open(path, "rb") as fh:
        raw = json_object(fh.read(), fail)
    return StageTimings(**{key: json_field(raw, key, NUMBER, fail)
                           for key in _TIMING_FIELDS if key != "origin_s" or key in raw})
