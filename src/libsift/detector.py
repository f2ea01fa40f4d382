"""Score target binaries against the repository and decide reuse.

Two aggregation modes share the same weighted pairwise scores but differ
in the max direction:

* core-weighted-mean (default): every library feature keeps its best match
  among the binary's functions; the score is the weight-normalized mean of
  those best matches, so a verbatim superset of the library scores 1.0.
* match-sum: every binary function keeps its best weighted match among the
  library's features and the score is the plain sum, unbounded and
  monotone in binary size.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Iterable

import numpy as np

from . import _kernels
from .embedding import HashedNgramEmbedder, function_vectors, unit_rows
from .errors import ConfigError, ParseError, ValidationError
from .interchange import (
    NUMBER, BinaryDocument, field_values, json_field, json_fields, json_line, json_records,
)
from .repository import EMBEDDER_EXTERNAL, RepoConfig, TplRepository, feature_vectors

log = logging.getLogger(__name__)

AGG_WEIGHTED_MEAN = "core-weighted-mean"
AGG_MATCH_SUM = "match-sum"
AGGREGATION_MODES = (AGG_WEIGHTED_MEAN, AGG_MATCH_SUM)

DEFAULT_THETA3 = 0.89
# query rows per product block in match-sum scoring; reports echo it as
# `config.batch`
DEFAULT_BATCH = 128


@dataclass(frozen=True)
class MatchEvidence:
    binary_function: str
    library_function: str
    cosine: float
    weight: float
    contribution: float


@dataclass
class LibraryScore:
    library_id: str
    score: float
    decision: bool
    evidence: list = field(default_factory=list)


@dataclass
class DetectionReport:
    binary_id: str
    entries: list = field(default_factory=list)
    config: dict = field(default_factory=dict)

    def decided(self) -> set:
        return {e.library_id for e in self.entries if e.decision}


def check_scoring(mode: str, *theta3_values) -> None:
    """The one check of an aggregation mode and of reuse thresholds; every
    scoring entry point calls it before it reads a document."""
    if mode not in AGGREGATION_MODES:
        raise ConfigError("unknown aggregation mode %r" % (mode,))
    for theta3 in theta3_values:
        if not -1.0 <= theta3 <= 1.0:
            raise ConfigError("theta3 must be in [-1, 1]")


def library_block(features):
    """The unit-row block of one library's features, in order: the one
    place a library becomes a scoring block.  A block holds one library's
    rows: BLAS results depend on the key count, so one product over every
    library would move cosines in the last bit."""
    return unit_rows(np.vstack(feature_vectors(features)))


def match_library(bin_mat, lib_mat, mode: str = AGG_WEIGHTED_MEAN):
    """The kernel step of scoring one binary against one library, on
    unit-row matrices; weights play no part, so any number of weightings
    of the same features reuse its similarities through `reduce_scores`,
    and `match_evidence` reads its evidence rows.

    core-weighted-mean: (clipped best cosine, first binary row attaining
    it) per library feature.  match-sum: (clipped binary x library cosine
    matrix, None).
    """
    if mode == AGG_WEIGHTED_MEAN:
        # streaming max avoids materializing the full score matrix
        best, arg = _kernels.best_match(bin_mat, lib_mat)
        return np.clip(best, -1.0, 1.0), arg
    return np.clip(_kernels.sim_matrix(bin_mat, lib_mat, DEFAULT_BATCH), -1.0, 1.0), None


def reduce_scores(sims, weights, mode: str = AGG_WEIGHTED_MEAN):
    """The score of the similarities `sims` of a `match_library` result
    under each row of the 2-D `weights`, one weight per library feature:
    the one reducer of detect, sweep and ablate.  Each row sums left to
    right, as a += loop from 0.0 does, so a row scores the same bits
    whatever rows it is stacked with: reports print scores with repr."""
    if mode == AGG_WEIGHTED_MEAN:
        terms = weights * sims[None, :]
    else:
        # each binary row's best weighted match; a tie between zeros of
        # either sign sums to the same score once 0.0 is added
        terms = np.array([(sims * row[None, :]).max(axis=1) for row in weights])
    totals = np.add.accumulate(terms, axis=1)[:, -1] + 0.0
    if mode == AGG_MATCH_SUM:
        return totals
    total_weights = np.add.accumulate(weights, axis=1)[:, -1] + 0.0
    return np.divide(totals, total_weights, out=np.zeros(len(totals)),
                     where=total_weights > 0.0)


def match_evidence(matches, weights, mode: str = AGG_WEIGHTED_MEAN):
    """(binary rows, library columns, cosines, contributions) of the
    `match_library` result `matches` under one weight per library feature:
    one evidence row per entry of the four arrays.  The contributions sum,
    left to right, to the unnormalized score `reduce_scores` gives."""
    sims, arg = matches
    if mode == AGG_WEIGHTED_MEAN:
        return arg, np.arange(len(weights)), sims, weights * sims
    cols = (sims * weights[None, :]).argmax(axis=1)
    rows = np.arange(len(cols))
    cosines = sims[rows, cols]
    return rows, cols, cosines, weights[cols] * cosines


def aggregate(bin_vectors, bin_names, features, mode: str = AGG_WEIGHTED_MEAN, *,
              normalized: bool = False):
    """(score, evidence rows) for one binary against one library, with
    one name in `bin_names` per row of `bin_vectors`.

    The rows are raw vectors, normalized here; with `normalized` they are
    already `unit_rows` output, as when one target is scored against many
    libraries.  Evidence contributions always sum to the unnormalized
    aggregate.
    """
    check_scoring(mode)
    features = list(features)
    bin_mat = np.ascontiguousarray(bin_vectors, dtype=np.float64)
    if len(features) == 0 or bin_mat.shape[0] == 0:
        raise ValueError("aggregate needs a non-empty binary and library")
    if len(bin_names) != bin_mat.shape[0]:
        raise ValueError("aggregate got %d binary names for %d rows"
                         % (len(bin_names), bin_mat.shape[0]))
    lib_mat = library_block(features)
    if bin_mat.ndim != 2 or bin_mat.shape[1] != lib_mat.shape[1]:
        raise ValueError("dimension mismatch")

    weights = np.array([f.weight for f in features], dtype=np.float64)
    matches = match_library(bin_mat if normalized else unit_rows(bin_mat), lib_mat, mode)
    score = float(reduce_scores(matches[0], weights[None, :], mode)[0])
    evidence = [
        MatchEvidence(bin_names[i], features[j].function_name, cosine, features[j].weight,
                      contribution)
        for i, j, cosine, contribution in zip(
            *(a.tolist() for a in match_evidence(matches, weights, mode)))
    ]
    return score, evidence


def embed_target(doc: BinaryDocument, config: RepoConfig, *, vectors=None):
    """(function names, unit-row matrix) for a target's functions after
    section filtering, or ([], None) when filtering leaves none.  The
    embedder's rows are unit only up to rounding, so they pass through
    `unit_rows` here, once per target; every scorer takes them as they are.

    The repository's embedder decides the embedding space: a repository
    built from external vectors requires the reader `vectors`, and any
    other repository refuses it without calling it and embeds with its
    own embedder, so embedding spaces never mix.
    """
    if config.embedder == EMBEDDER_EXTERNAL:
        if vectors is None:
            raise ConfigError(
                "repository was built from external vectors; supply target vectors"
            )
    elif vectors is not None:
        raise ConfigError(
            "repository was built with the %r embedder; external target vectors "
            "would mix embedding spaces" % config.embedder
        )
    elif config.embedder != HashedNgramEmbedder.name:
        raise ConfigError("repository embedder %r is not available" % config.embedder)
    functions, mat = function_vectors(doc, config.dim, config.seed, vectors=vectors)
    return [fn.name for fn in functions], None if mat is None else unit_rows(mat)


def detect(
    doc: BinaryDocument,
    repo: TplRepository,
    *,
    theta3: float = DEFAULT_THETA3,
    mode: str = AGG_WEIGHTED_MEAN,
    vectors=None,
) -> DetectionReport:
    """One report entry per library, sorted by library id; decision is
    score >= theta3 (inclusive).  Neither empty case is ever decided: a
    target that section filtering empties gets no entries, and a library
    with no retained features scores 0.

    `vectors` reads the target's name -> embedding table; required when
    the repository was built from external vectors and refused otherwise.
    """
    check_scoring(mode, theta3)
    echo = field_values(SimpleNamespace(**vars(repo.config), theta3=theta3, mode=mode,
                                        batch=DEFAULT_BATCH), _ECHO_FIELDS)
    names, bin_mat = embed_target(doc, repo.config, vectors=vectors)
    if bin_mat is None:
        return DetectionReport(doc.binary_id, [], echo)
    entries = []
    for lib_id in sorted(repo.libraries):
        feats = repo.libraries[lib_id]
        if feats:
            score, evidence = aggregate(bin_mat, names, feats, mode=mode, normalized=True)
            entries.append(LibraryScore(lib_id, score, score >= theta3, evidence))
        else:
            log.warning("library %r has no retained features; scoring 0", lib_id)
            entries.append(LibraryScore(lib_id, 0.0, False, []))
    return DetectionReport(doc.binary_id, entries, echo)


def unique_targets(docs: Iterable[BinaryDocument]):
    """Yield `docs`, raising ValidationError at a binary id given twice."""
    seen = set()
    for doc in docs:
        if doc.binary_id in seen:
            raise ValidationError("target %r given twice" % doc.binary_id)
        seen.add(doc.binary_id)
        yield doc


def detect_many(docs: Iterable[BinaryDocument], repo: TplRepository, **kwargs):
    return [detect(doc, repo, **kwargs) for doc in unique_targets(docs)]


# ---------------------------------------------------------------------------
# report files: JSON lines, one report per line

def write_reports(reports: Iterable[DetectionReport], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for report in reports:
            fh.write(json_line(_report_dict(report)))
            fh.write("\n")


# the fields of each report record, in the order they are written; a
# record's nested list follows its fields
_REPORT_FIELDS = (("binary_id", str), ("config", dict))
# the settings a report's config echoes; a reader accepts any subset
_ECHO_FIELDS = (("theta1", NUMBER), ("theta2", NUMBER), ("theta3", NUMBER), ("mode", str),
                ("dim", int), ("embedder", str), ("seed", int), ("batch", int))
_ENTRY_FIELDS = (("library_id", str), ("score", NUMBER), ("decision", bool))
_EVIDENCE_FIELDS = (("binary_function", str), ("library_function", str),
                    ("cosine", NUMBER), ("weight", NUMBER), ("contribution", NUMBER))


def _report_dict(report: DetectionReport) -> dict:
    return dict(
        field_values(report, _REPORT_FIELDS),
        entries=[
            dict(field_values(e, _ENTRY_FIELDS),
                 evidence=[field_values(m, _EVIDENCE_FIELDS) for m in e.evidence])
            for e in report.entries
        ],
    )


def read_reports(path) -> list:
    """Reports from a JSON Lines file; a missing or mistyped field, or an
    unknown config echo key, raises ParseError with its line number."""
    reports = []
    with open(path, "rb") as fh:
        for line, obj in json_records(fh.read()):
            def fail(message):
                return ParseError("report " + message, line=line)

            entries = []
            for e in json_field(obj, "entries", list, fail):
                evidence = [MatchEvidence(**json_fields(m, _EVIDENCE_FIELDS, fail))
                            for m in json_field(e, "evidence", list, fail)]
                entries.append(LibraryScore(**json_fields(e, _ENTRY_FIELDS, fail),
                                            evidence=evidence))
            report = json_fields(obj, _REPORT_FIELDS, fail)
            kinds = dict(_ECHO_FIELDS)
            for key in report["config"]:
                if key not in kinds:
                    raise fail("config has unknown field %r" % key)
                json_field(report["config"], key, kinds[key], fail)
            reports.append(DetectionReport(**report, entries=entries))
    return reports
