"""Binary-to-binary third-party library detection.

Feature extraction over disassembly interchange documents, a purified and
frequency-weighted library repository, and a similarity-aggregation
detector, plus an evaluation harness and CLI.
"""

from .errors import (
    ConfigError,
    EmbeddingError,
    LibsiftError,
    ParseError,
    RepositoryChecksumError,
    RepositoryError,
    RepositoryVersionError,
    ValidationError,
)
from .interchange import (
    EXCLUDED_SECTIONS,
    BasicBlock,
    BinaryDocument,
    FunctionRecord,
    Instruction,
    filter_sections,
    load_document,
    parse_document,
    save_document,
    serialize_document,
)
from .metrics import (
    ComplexityProfile,
    compute_profile,
    cyclomatic_complexity,
    halstead_volume,
    lines_of_code,
    maintainability_index,
)
from .embedding import (
    DEFAULT_DIM,
    DEFAULT_SEED,
    HashedNgramEmbedder,
    batched_similarity,
    cosine,
    import_embeddings,
    normalize,
    normalize_document,
)
from .repository import (
    ALL_STAGES,
    DEFAULT_THETA1,
    DEFAULT_THETA2,
    STAGE_EXPORT,
    STAGE_MI,
    STAGE_WEIGHTS,
    FunctionFeature,
    RepoConfig,
    StageStats,
    TplRepository,
    build_origin,
    build_repository,
    build_steps,
    compute_weights,
    load_manifest,
    load_repository,
    purify_export,
    purify_mi,
    save_manifest,
    save_repository,
    tfidf_weight,
)
from .detector import (
    AGG_MATCH_SUM,
    AGG_WEIGHTED_MEAN,
    AGGREGATION_MODES,
    DEFAULT_BATCH,
    DEFAULT_THETA3,
    DetectionReport,
    LibraryScore,
    MatchEvidence,
    aggregate,
    detect,
    detect_many,
    read_reports,
    write_reports,
)
from .evaluation import (
    DEFAULT_THETA1_GRID,
    DEFAULT_THETA2_GRID,
    DEFAULT_THETA3_GRID,
    AblationRow,
    AblationTable,
    ConfusionCounts,
    EvalResult,
    StageTimings,
    SweepCell,
    SweepGrid,
    metrics_from_counts,
    read_timings,
    run_ablation,
    score_metrics,
    sweep,
    time_stages,
    write_timings,
)
from .synthetic import SyntheticCorpusSpec, generate_corpus, random_reuse_plan

__version__ = "0.1.0"

# the scans are always numpy; kept for tools that report the backend
kernel_backend = "numpy"
