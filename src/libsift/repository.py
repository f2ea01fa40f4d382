"""Library feature repository: build, purify, weight, persist.

Construction runs up to three purification passes over the extracted
features, in a fixed order: keep exported functions, drop simple functions
by a complexity-index percentile, then weight what remains so functions
common across libraries stop driving scores.
"""
from __future__ import annotations

import functools
import hashlib
import logging
import math
import struct
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping

import numpy as np

from . import _gc, _kernels
from .embedding import DEFAULT_DIM, DEFAULT_SEED, DeferredVector, HashedNgramEmbedder
from .embedding import MAX_SEED, MIN_SEED, embed_deferred, function_vectors, row_norms
from .errors import (
    ConfigError,
    EmbeddingError,
    ParseError,
    RepositoryChecksumError,
    RepositoryError,
    RepositoryVersionError,
)
from .interchange import (
    NUMBER, BinaryDocument, field_values, json_field, json_fields, json_line, json_object,
    save_json,
)
from .metrics import ComplexityProfile, compute_profile

log = logging.getLogger(__name__)

REPO_FORMAT_VERSION = 1
_MAGIC = b"LSREPO"

STAGE_EXPORT = "export"
STAGE_MI = "mi"
STAGE_WEIGHTS = "weights"
ALL_STAGES = (STAGE_EXPORT, STAGE_MI, STAGE_WEIGHTS)

EMBEDDER_EXTERNAL = "external"

DEFAULT_THETA1 = 0.8  # similarity at which two functions count as the same
DEFAULT_THETA2 = 0.2  # population fraction the complexity filter may keep


@dataclass(eq=False)
class FunctionFeature:
    """One library function in the repository.  `vector` may be created
    as a `DeferredVector`; the first read embeds it (see `feature_vectors`)."""

    library_id: str
    function_name: str
    vector: np.ndarray
    profile: ComplexityProfile
    is_export: bool
    weight: float = 1.0
    df: int = 0
    n_in_library: int = 1

    def __eq__(self, other):
        if not isinstance(other, FunctionFeature):
            return NotImplemented
        return (
            self.library_id == other.library_id
            and self.function_name == other.function_name
            and self.profile == other.profile
            and self.is_export == other.is_export
            and self.weight == other.weight
            and self.df == other.df
            and self.n_in_library == other.n_in_library
            and np.array_equal(self.vector, other.vector)
        )


def feature_vectors(features) -> list:
    """The vectors of `features`, in order, embedding the deferred ones
    with one `embed_document` call per library; every reader of feature
    vectors in bulk goes through here.  Safe from several threads: a race
    embeds a function twice, with the same bytes."""
    features = list(features)
    vectors = [f.__dict__["vector"] for f in features]
    deferred = [i for i, vec in enumerate(vectors) if vec.__class__ is DeferredVector]
    if deferred:
        for i, row in zip(deferred, embed_deferred([vectors[i] for i in deferred])):
            vectors[i] = features[i].__dict__["vector"] = row
    return vectors


def _read_vector(feature):
    vec = feature.__dict__["vector"]
    return feature_vectors((feature,))[0] if vec.__class__ is DeferredVector else vec


def _write_vector(feature, vec):
    feature.__dict__["vector"] = vec


# a property set after the dataclass is made, so that the generated
# __init__, replace() and repr() go through it and the field keeps no default
FunctionFeature.vector = property(_read_vector, _write_vector)


@dataclass(frozen=True)
class RepoConfig:
    theta1: float = DEFAULT_THETA1
    theta2: float = DEFAULT_THETA2
    dim: int = DEFAULT_DIM
    embedder: str = HashedNgramEmbedder.name
    seed: int = DEFAULT_SEED
    stages: tuple = ()

    def __post_init__(self):
        """The only range check of theta1, theta2, dim and seed, and the
        check that `stages` keeps the stage rule; the built-in embedder
        needs two dimensions, external vectors one."""
        if not -1.0 <= self.theta1 <= 1.0:
            raise ConfigError("theta1 must be in [-1, 1]")
        if not 0.0 < self.theta2 <= 1.0:
            raise ConfigError("theta2 must be in (0, 1]")
        min_dim = 1 if self.embedder == EMBEDDER_EXTERNAL else 2
        if self.dim < min_dim:
            raise ConfigError("dim must be >= %d with the %s embedder" % (min_dim, self.embedder))
        if not MIN_SEED <= self.seed <= MAX_SEED:
            raise ConfigError("seed must be a signed 64-bit integer")
        if not _in_stage_order(self.stages):
            raise ConfigError("stages must list distinct names among %s, in that order"
                              % ", ".join(ALL_STAGES))


@dataclass(frozen=True)
class StageStats:
    stage: str
    functions: int
    leave_percent: float  # relative to the origin population


@dataclass(eq=False)
class TplRepository:
    libraries: dict
    config: RepoConfig
    stats: list

    def feature_count(self) -> int:
        return sum(len(feats) for feats in self.libraries.values())

    def __eq__(self, other):
        if not isinstance(other, TplRepository):
            return NotImplemented
        return (
            self.config == other.config
            and self.stats == other.stats
            and list(self.libraries.items()) == list(other.libraries.items())
        )


def tfidf_weight(n: int, lib_size: int, library_count: int, df: int) -> float:
    """(n / lib_size) * ln(library_count / (df + 1)).

    df counts OTHER libraries holding a similar function, so df + 1 never
    exceeds library_count and the log never goes negative.
    """
    return (n / lib_size) * math.log(library_count / (df + 1))


def _leave_percent(count: int, origin: int) -> float:
    return count / origin if origin else 0.0


def build_origin(
    docs: Iterable[BinaryDocument],
    *,
    theta1: float = DEFAULT_THETA1,
    theta2: float = DEFAULT_THETA2,
    dim: int = DEFAULT_DIM,
    seed: int = DEFAULT_SEED,
    vectors: Callable = None,
) -> TplRepository:
    """Extract one feature per function kept by section filtering from
    per-library documents: its name, export flag and complexity profile,
    and its vector.

    `vectors` reads each library's external vectors after its kind and
    duplicate checks, and marks the repository as externally embedded.
    Otherwise the built-in embedder for (dim, seed) embeds a function only
    when its vector is first read, so a build embeds only what its stages
    keep: the weights stage and `save_repository` read vectors, the export
    and complexity stages do not.  A function with no instructions raises
    EmbeddingError either way.  Documents are taken one at a time, so
    `docs` may parse them lazily.
    """
    config = RepoConfig(
        theta1=theta1,
        theta2=theta2,
        dim=dim,
        embedder=HashedNgramEmbedder.name if vectors is None else EMBEDDER_EXTERNAL,
        seed=seed,
    )
    libraries = {}
    # the features hold their records until embedded: many acyclic
    # containers that the cyclic collector would only re-scan
    with _gc.paused():
        for doc in docs:
            if doc.kind != "tpl":
                raise RepositoryError(
                    "document %r has kind %r; repositories are built from tpl documents"
                    % (doc.binary_id, doc.kind)
                )
            if doc.binary_id in libraries:
                raise RepositoryError("duplicate library_id %r" % doc.binary_id)
            functions, rows = function_vectors(doc, dim, seed, vectors=vectors, defer=True)
            features = libraries[doc.binary_id] = []
            for fn, row in zip(functions, rows if functions else ()):
                if not fn.instruction_count():
                    raise EmbeddingError("cannot embed an empty token stream: function %r "
                                         "has no instructions" % fn.name)
                features.append(FunctionFeature(doc.binary_id, fn.name, row,
                                                compute_profile(fn), fn.is_export))
    if not libraries:
        raise RepositoryError("empty corpus: no library documents")

    repo = TplRepository(libraries, config, [])
    repo.stats.append(StageStats("origin", repo.feature_count(), 1.0))
    return repo


def _in_stage_order(stages) -> bool:
    """The stage rule, kept by every stage and checked on every loaded
    header: names from ALL_STAGES, each at most once, in that order."""
    return list(stages) == [stage for stage in ALL_STAGES if stage in stages]


def _stage(name):
    """Turn `body(repo, ...) -> (libraries, config)` into the stage `name`:
    it refuses to run when that would break the stage rule, and its new
    repository lists `name` in config.stages and, for a purification, in
    one more stats row."""
    def decorate(body):
        @functools.wraps(body)
        def run(repo, *args, **kwargs):
            applied = repo.config.stages
            if not _in_stage_order(applied + (name,)):
                reason = ("already applied" if name in applied
                          else "must run before %r" % applied[-1])
                raise RepositoryError("stage %r %s" % (name, reason))
            libraries, config = body(repo, *args, **kwargs)
            stats = list(repo.stats)
            if name != STAGE_WEIGHTS:
                count = sum(len(feats) for feats in libraries.values())
                stats.append(StageStats(name, count, _leave_percent(count, stats[0].functions)))
            return TplRepository(libraries, replace(config, stages=applied + (name,)), stats)

        return run

    return decorate


@_stage(STAGE_EXPORT)
def purify_export(repo: TplRepository):
    """Keep only export-table functions; they are what a reusing binary can
    actually link against."""
    libraries = {}
    for lib_id, feats in repo.libraries.items():
        kept = [f for f in feats if f.is_export]
        if feats and not kept:
            log.warning("library %r has no exported functions", lib_id)
        libraries[lib_id] = kept
    return libraries, repo.config


@_stage(STAGE_MI)
def purify_mi(repo: TplRepository, theta2: float = None):
    """Drop simple functions by a global complexity-index percentile.

    The cutoff m* is the largest observed index value whose strictly-below
    fraction stays within theta2; functions AT the cutoff are dropped too,
    so retention can undershoot theta2 when values tie.
    """
    config = replace(repo.config, theta2=repo.config.theta2 if theta2 is None else theta2)
    values = np.array(
        [f.profile.mi for feats in repo.libraries.values() for f in feats],
        dtype=np.float64,
    )
    if values.size == 0:
        log.warning("complexity filter ran on an empty repository")
        return {lib_id: [] for lib_id in repo.libraries}, config
    ordered = np.sort(values)
    distinct = np.unique(values)
    below = np.searchsorted(ordered, distinct, side="left")
    eligible = distinct[below / values.size <= config.theta2]
    m_star = float(eligible[-1])  # below[0] == 0, so this always exists
    libraries = {lib_id: [f for f in feats if f.profile.mi < m_star]
                 for lib_id, feats in repo.libraries.items()}
    if not any(libraries.values()):
        log.warning("complexity filter retained nothing (all values tie at the cutoff)")
    return libraries, config


def weight_rows(repo: TplRepository, theta1_values) -> list:
    """[(weights, n, df)], one triple per theta1 in `theta1_values`, each
    a flat array over the features of `repo`'s non-empty libraries in
    order; the weights stage and the sweep both weight through here.

    n counts same-library functions within theta1 similarity (self always
    included); df counts OTHER libraries holding at least one such match.
    The weight is TF * IDF over `repo`'s population, with the library
    count taken over ALL libraries, including purification-emptied ones.
    One pass of similarity products serves every theta1.
    """
    nonempty = [feats for feats in repo.libraries.values() if feats]
    if not nonempty:
        empty = np.zeros(0, dtype=np.int64)
        return [(np.zeros(0), empty, empty) for _ in theta1_values]
    library_count = len(repo.libraries)
    stack = np.vstack(feature_vectors(f for feats in nonempty for f in feats))
    row_norms(stack)  # the counts read the stored vectors, but only valid ones
    sizes = [len(feats) for feats in nonempty]
    lib_ids = np.repeat(np.arange(len(nonempty)), sizes)
    own_size = np.repeat(sizes, sizes).tolist()
    rows = []
    for n_arr, df_arr in _kernels.theta_counts(stack, lib_ids, len(nonempty), theta1_values):
        weights = [tfidf_weight(n, size, library_count, df)
                   for n, size, df in zip(n_arr.tolist(), own_size, df_arr.tolist())]
        rows.append((np.array(weights, dtype=np.float64), n_arr, df_arr))
    return rows


@_stage(STAGE_WEIGHTS)
def compute_weights(repo: TplRepository, theta1: float = None):
    """Frequency-weight every retained feature by `weight_rows` at theta1
    (the config's when None)."""
    config = replace(repo.config, theta1=repo.config.theta1 if theta1 is None else theta1)
    libraries = {lib_id: [] for lib_id in repo.libraries}
    if not any(repo.libraries.values()):
        log.warning("weighting ran on an empty repository")
        return libraries, config
    (weights, n_arr, df_arr), = weight_rows(repo, (config.theta1,))
    # one iterator across the libraries: an emptied one takes no row
    rows = zip(weights.tolist(), n_arr.tolist(), df_arr.tolist())
    for lib_id, feats in repo.libraries.items():
        libraries[lib_id] = [replace(f, weight=w, df=df, n_in_library=n)
                             for f, (w, n, df) in zip(feats, rows)]
    return libraries, config


def stage_steps(repo: TplRepository, stages: Iterable[str] = ALL_STAGES):
    """Yield (stage, repository) after each of `stages` applied to `repo`,
    in ALL_STAGES order whatever order `stages` lists them in."""
    # looked up as the loop runs, so a rebound module attribute is the one
    # that runs
    steps = {STAGE_EXPORT: purify_export, STAGE_MI: purify_mi, STAGE_WEIGHTS: compute_weights}
    for stage in ALL_STAGES:
        if stage in stages:
            repo = steps[stage](repo)
            yield stage, repo


def build_steps(
    docs: Iterable[BinaryDocument],
    *,
    theta1: float = DEFAULT_THETA1,
    theta2: float = DEFAULT_THETA2,
    dim: int = DEFAULT_DIM,
    seed: int = DEFAULT_SEED,
    stages: Iterable[str] = ALL_STAGES,
    vectors: Callable = None,
):
    """Yield ("origin", repository), then the `stage_steps` of the requested
    stages: export, then complexity filter, then weights.

    Each stage reads its threshold from the origin's config, so a caller
    only times or inspects the steps; the last one is the repository.
    """
    stages = tuple(stages)
    unknown = set(stages) - set(ALL_STAGES)
    if unknown:
        raise ConfigError("unknown stages: %s" % sorted(unknown))
    repo = build_origin(
        docs, theta1=theta1, theta2=theta2, dim=dim, seed=seed, vectors=vectors,
    )
    yield "origin", repo
    steps = stage_steps(repo, stages)
    del repo  # only the stage loop holds the origin: its first stage frees it
    yield from steps


def build_repository(docs: Iterable[BinaryDocument], **options) -> TplRepository:
    """The last step of `build_steps(docs, **options)`: origin extraction
    plus the requested stages."""
    for _, repo in build_steps(docs, **options):
        pass
    return repo


# ---------------------------------------------------------------------------
# persistence

# the fields of each header record, in the order they are written; a
# record's nested objects and lists follow its fields
_CONFIG_FIELDS = (("theta1", NUMBER), ("theta2", NUMBER), ("dim", int),
                  ("embedder", str), ("seed", int), ("stages", list))
_STATS_FIELDS = (("stage", str), ("functions", int), ("leave_percent", NUMBER))
_FEATURE_FIELDS = (("function_name", str), ("is_export", bool), ("weight", NUMBER),
                   ("df", int), ("n_in_library", int))
_PROFILE_FIELDS = (("hv", NUMBER), ("loc", NUMBER), ("cc", NUMBER), ("mi", NUMBER))


def _header_dict(repo: TplRepository) -> dict:
    return {
        "format_version": REPO_FORMAT_VERSION,
        "config": field_values(repo.config, _CONFIG_FIELDS),
        "stats": [field_values(s, _STATS_FIELDS) for s in repo.stats],
        "libraries": [
            {
                "library_id": lib_id,
                "features": [
                    dict(field_values(f, _FEATURE_FIELDS),
                         profile=field_values(f.profile, _PROFILE_FIELDS))
                    for f in feats
                ],
            }
            for lib_id, feats in repo.libraries.items()
        ],
    }


def save_repository(repo: TplRepository, path) -> None:
    """Write a versioned, checksummed container; load() restores it
    field-for-field (vectors byte-exact, scalars via JSON round-trip)."""
    header = json_line(_header_dict(repo)).encode("utf-8")
    blob = bytearray()
    for vec in feature_vectors(f for feats in repo.libraries.values() for f in feats):
        blob += np.ascontiguousarray(vec, dtype="<f8").tobytes()
    _vector_rows(blob, repo.feature_count(), repo.config.dim)
    payload = _MAGIC + struct.pack("<HI", REPO_FORMAT_VERSION, len(header)) + header + bytes(blob)
    digest = hashlib.sha256(payload).digest()
    with open(path, "wb") as fh:
        fh.write(payload + digest)


def load_repository(path) -> TplRepository:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(_MAGIC) + 6 or not data.startswith(_MAGIC):
        raise RepositoryError("not a repository file")
    version, header_len = struct.unpack_from("<HI", data, len(_MAGIC))
    if version != REPO_FORMAT_VERSION:
        raise RepositoryVersionError(
            "repository format %d unsupported (this build reads %d)"
            % (version, REPO_FORMAT_VERSION)
        )
    body_start = len(_MAGIC) + 6
    if len(data) < body_start + header_len + 32:
        raise RepositoryChecksumError("repository file is truncated")
    payload, digest = data[:-32], data[-32:]
    if hashlib.sha256(payload).digest() != digest:
        raise RepositoryChecksumError("repository checksum mismatch")

    header = json_object(payload[body_start : body_start + header_len], _header_error)
    config, stats, libraries = _read_header(header)
    blob = payload[body_start + header_len :]
    count = sum(len(recs) for _, recs in libraries)
    rows = iter(_vector_rows(blob, count, config.dim).copy())
    return TplRepository(
        {lib_id: [FunctionFeature(library_id=lib_id, vector=next(rows), **rec) for rec in recs]
         for lib_id, recs in libraries},
        config,
        stats,
    )


def _vector_rows(blob, count: int, dim: int) -> np.ndarray:
    """The (count, dim) matrix the vector block `blob` holds; save and load
    both refuse a block of another length or with a row that fails
    `row_norms`."""
    if len(blob) != count * dim * 8:
        raise RepositoryChecksumError("vector block has wrong length")
    rows = np.frombuffer(blob, dtype="<f8").reshape(count, dim)
    try:
        row_norms(rows)
    except EmbeddingError as exc:
        raise RepositoryError("vector block: %s" % exc) from None
    return rows


def _header_error(message):
    return RepositoryError("repository header: " + message)


def _read_header(header):
    """(config, stats, [(library_id, [feature fields])]) from a decoded
    header; every field is read here, and a missing or mistyped one, or
    stages and stats that break the stage rule, raise RepositoryError."""
    if json_field(header, "format_version", int, _header_error) != REPO_FORMAT_VERSION:
        raise _header_error("field 'format_version' must be %d" % REPO_FORMAT_VERSION)
    cfg = json_fields(json_field(header, "config", dict, _header_error), _CONFIG_FIELDS,
                      _header_error)
    stages = cfg["stages"]
    if not _in_stage_order(stages):
        raise _header_error("field 'stages' must list distinct names among %s, in that order"
                            % ", ".join(ALL_STAGES))
    try:
        config = RepoConfig(**dict(cfg, stages=tuple(stages)))
    except ConfigError as exc:
        raise _header_error("config: %s" % exc) from None
    stats = [StageStats(**json_fields(s, _STATS_FIELDS, _header_error))
             for s in json_field(header, "stats", list, _header_error)]
    libraries = []
    for lib in json_field(header, "libraries", list, _header_error):
        recs = []
        for rec in json_field(lib, "features", list, _header_error):
            prof = json_field(rec, "profile", dict, _header_error)
            profile = ComplexityProfile(**json_fields(prof, _PROFILE_FIELDS, _header_error))
            recs.append(dict(json_fields(rec, _FEATURE_FIELDS, _header_error), profile=profile))
        libraries.append((json_field(lib, "library_id", str, _header_error), recs))
    if len({lib_id for lib_id, _ in libraries}) != len(libraries):
        raise RepositoryError("repository header repeats a library_id")
    rows = ["origin"] + [stage for stage in stages if stage != STAGE_WEIGHTS]
    leave = [1.0] + [_leave_percent(s.functions, stats[0].functions) for s in stats[1:]]
    if ([s.stage for s in stats] != rows or [s.leave_percent for s in stats] != leave
            or stats[-1].functions != sum(len(recs) for _, recs in libraries)):
        raise _header_error("field 'stats' must hold origin, then the purifications in 'stages', "
                            "each leave_percent count / origin, ending at the feature count")
    return config, stats, libraries


# ---------------------------------------------------------------------------
# ground-truth manifests

def save_manifest(manifest: Mapping, path) -> None:
    """JSON map binary_id -> sorted list of library ids."""
    save_json({bin_id: sorted(libs) for bin_id, libs in manifest.items()}, path)


def load_manifest(path) -> dict:
    with open(path, "rb") as fh:
        raw = json_object(fh.read(), lambda message: ParseError("manifest: " + message))
    out = {}
    for bin_id, libs in raw.items():
        if not isinstance(libs, list) or not all(isinstance(x, str) for x in libs):
            raise ParseError("manifest entry %r must list library ids" % bin_id)
        out[bin_id] = set(libs)
    return out
