"""Evaluation harness: ground-truth scoring, threshold sweeps, the
ablation matrix, stage timing, and a synthetic corpus generator with
planted reuse.

The generator gives every function its own instruction vocabulary and a
repeated three-instruction idiom, so unrelated functions land well below
the similarity thresholds while verbatim copies match exactly.  All
call/jump targets point at a shared external symbol pool, never at
document-local names, so a copied function embeds identically wherever it
lands.
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
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
from .embedding import DEFAULT_DIM, DEFAULT_SEED, unit_rows
from .errors import ConfigError, ParseError, ValidationError
from .interchange import BasicBlock, BinaryDocument, FunctionRecord, Instruction
from .interchange import NUMBER, json_field, json_object, save_json
from .metrics import compute_profile
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
    manifest libraries outside `lib_ids`; a binary absent from the
    manifest, or given twice, is an error.
    """
    seen = set()
    for bin_id in bin_ids:
        if bin_id not in manifest:
            raise ValidationError("report for unknown binary %r" % bin_id)
        if bin_id in seen:
            raise ValidationError("duplicate report for binary %r" % bin_id)
        seen.add(bin_id)
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
    binary absent from the manifest is an error.
    """
    decided = [r.decided() for r in reports]
    lib_ids = sorted(set().union(*decided))
    table = np.array([[lib_id in libs for lib_id in lib_ids] for libs in decided],
                     dtype=bool).reshape(len(decided), len(lib_ids))
    return metrics_from_counts(
        _confusions([r.binary_id for r in reports], lib_ids, [table], manifest)[0])


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


def _union(repo: TplRepository) -> list:
    """[(library id, features)] over the non-empty libraries of `repo`, in
    id order: the repository whose features hold every set scored with
    it.  Their vectors are read here, one embed call per library, so
    weighting any subset of them embeds nothing more."""
    union = [(lib_id, repo.libraries[lib_id]) for lib_id in sorted(repo.libraries)
             if repo.libraries[lib_id]]
    feature_vectors(f for _, feats in union for f in feats)
    return union


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


def _lay_out(union, repo: TplRepository, rows) -> _Group:
    """`repo`, a subset of the union's features, with `rows`: one
    `weight_rows` array per weighting over its non-empty libraries."""
    rows = np.array(rows, dtype=np.float64).reshape(len(rows), -1)
    offsets, pos = {}, 0
    for lib_id, feats in repo.libraries.items():
        offsets[lib_id] = pos
        pos += len(feats)
    entries = []
    for lib_id, union_feats in union:
        feats = repo.libraries.get(lib_id)
        if not feats:
            entries.append(None)
            continue
        column = {id(f): j for j, f in enumerate(union_feats)}
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


def _shared_scores(target_docs, manifest, config: RepoConfig, union, groups, mode,
                   theta3_values) -> tuple:
    """(binary ids, library ids, scores): scores[g] is a (targets x
    weightings x libraries) array of aggregate scores under each weighting
    of group g, over the union's libraries; -inf where detect could decide
    nothing (an emptied library, an empty target).

    `union` is `_union`'s, and `groups` holds (repository, weight rows)
    pairs over subsets of it; the union's blocks are built here, after
    the weighting, so the two never hold memory at once.  Targets are taken one document at a time:
    each is embedded and normalized once, matched once per union library,
    and each group's columns are gathered from that match and re-weighted
    at once.  Every gathered score within its DELTA bound of a value in
    `theta3_values` is then recomputed on its group's own block, built on
    first need and kept for the run, so every decision at those
    thresholds is the own block's.  Every target must be in the manifest,
    once.
    """
    laid_out = [_lay_out(union, repo, rows) for repo, rows in groups]
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
        _, mat = embed_target(doc, config)
        if mat is not None:
            bin_mat = unit_rows(mat)
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
    weights it for every theta1.  The theta2 groups are nested, so each
    library is embedded once, before any weighting, and each target is
    embedded once, matched once per library against the largest group and
    re-weighted per (theta2, theta1) from that match; a score too close to
    a theta3 to trust that shared match is recomputed on its group's own
    block (see DELTA).  theta3 only re-thresholds the scores.  Every grid
    value is checked before the first document is read.
    """
    if not theta1_values or not theta2_values or not theta3_values:
        raise ConfigError("sweep grids must be non-empty")
    check_scoring(mode, *theta3_values)
    for t1 in theta1_values:
        for t2 in theta2_values:
            RepoConfig(theta1=t1, theta2=t2, dim=dim, seed=seed)
    origin = build_origin(tpl_docs, dim=dim, seed=seed)
    exported = purify_export(origin)
    purified = [purify_mi(exported, t2) for t2 in theta2_values]
    # purify_mi keeps nested sets, so the union is the largest of them
    union = _union(max(purified, key=TplRepository.feature_count))
    groups = [(staged, [weights for weights, _, _ in weight_rows(staged, theta1_values)])
              for staged in purified]
    bin_ids, lib_ids, scores = _shared_scores(target_docs, manifest, origin.config, union,
                                              groups, mode, theta3_values)

    cells = []
    for i1, t1 in enumerate(theta1_values):
        for i2, t2 in enumerate(theta2_values):
            table = scores[i2][:, i1]
            counts = _confusions(bin_ids, lib_ids, (table >= t3 for t3 in theta3_values),
                                 manifest)
            for t3, count in zip(theta3_values, counts):
                result = metrics_from_counts(count)
                cells.append(
                    SweepCell(
                        float(t1), float(t2), float(t3), purified[i2].stats[-1].leave_percent,
                        result.precision, result.recall, result.f1,
                    )
                )
    return SweepGrid(cells)


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
    so each target is matched once per library against the origin and
    each config's columns are gathered and re-weighted for weights off
    and on, as `sweep` does."""
    check_scoring(mode, theta3)
    origin = build_origin(tpl_docs, theta1=theta1, theta2=theta2, dim=dim, seed=seed)
    configs = []
    for _, stages in ABLATION_CONFIGS:
        staged = origin
        for _, staged in stage_steps(origin, stages):
            pass
        configs.append(staged)
    # every config keeps a subset of the origin, so the origin is the union
    union = _union(origin)
    groups = [(staged, [np.ones(staged.feature_count()),
                        weight_rows(staged, (origin.config.theta1,))[0][0]])
              for staged in configs]
    bin_ids, lib_ids, scores = _shared_scores(target_docs, manifest, origin.config, union,
                                              groups, mode, (theta3,))

    rows = []
    for (label, _), staged, table in zip(ABLATION_CONFIGS, configs, scores):
        for weights_on in (False, True):
            count, = _confusions(bin_ids, lib_ids, [table[:, int(weights_on)] >= theta3],
                                 manifest)
            result = metrics_from_counts(count)
            rows.append(
                AblationRow(
                    config=label,
                    weights=weights_on,
                    func_count=staged.feature_count(),
                    leave_percent=staged.stats[-1].leave_percent,
                    precision=result.precision,
                    recall=result.recall,
                    f1=result.f1,
                )
            )
    return AblationTable(rows)


# ---------------------------------------------------------------------------
# synthetic corpus generation

_BASE_MNEMONICS = (
    "add sub adc sbb inc dec neg not and or xor mul imul div idiv "
    "shl shr sar sal rol ror rcl rcr shld shrd "
    "bt bts btr btc bsf bsr popcnt lzcnt tzcnt andn bextr blsi blsmsk blsr "
    "cmove cmovne cmovl cmovle cmovg cmovge cmova cmovae cmovb cmovbe cmovs cmovns "
    "sete setne setl setle setg setge seta setae setb setbe sets setns "
    "movsx movzx movsxd movbe xchg bswap lea cmpxchg xadd test "
    "cdq cqo cwde cbw cdqe push pop "
    "addss addsd subss subsd mulss mulsd divss divsd sqrtss sqrtsd "
    "minss minsd maxss maxsd ucomiss ucomisd cvtsi2sd cvtsd2si cvttsd2si "
    "addps addpd subps subpd mulps mulpd andps andpd orps orpd xorps xorpd "
    "maxps minps sqrtps shufps unpcklps "
    "paddb paddw paddd paddq psubb psubw psubd psubq pmulld pmullw "
    "pand pandn por pxor psllw pslld psllq psrlw psrld psrlq "
    "pcmpeqb pcmpeqd pcmpgtb pcmpgtd pminsd pmaxsd pminud pmaxud "
    "packssdw punpcklbw punpckldq pshufb pshufd pmovmskb "
    "movaps movups movdqa movdqu movq movd"
).split()

_REGISTER_POOL = (
    "rax rbx rcx rdx rsi rdi rbp rsp r8 r9 r10 r11 r12 r13 r14 r15 "
    "eax ebx ecx edx esi edi r8d r9d r10d r11d ax bx cx dx al bl cl dl "
    "xmm0 xmm1 xmm2 xmm3 xmm4 xmm5 xmm6 xmm7 xmm8 xmm9 xmm10 xmm11 "
    "xmm12 xmm13 xmm14 xmm15"
).split()

_JCC_POOL = (
    "je jne jl jle jg jge ja jae jb jbe js jns jo jno jp jnp"
).split()

_EXT_SYMBOLS = tuple("ext_%03d" % i for i in range(64))


def _synth_function(
    rng: random.Random,
    name: str,
    *,
    is_export: bool,
    blocks_range=(1, 5),
    instr_range=(3, 9),
    mnemonic_pool: Sequence[str] = None,
) -> FunctionRecord:
    """One synthetic function with its own vocabulary and repeated idiom.

    The private mnemonic/register sample keeps unrelated functions apart in
    embedding space; the repeated idiom concentrates n-gram mass the way
    real loop bodies do.
    """
    pool = list(mnemonic_pool) if mnemonic_pool is not None else _BASE_MNEMONICS
    regs = rng.sample(_REGISTER_POOL, rng.randint(3, 5))
    mnems = rng.sample(pool, min(len(pool), rng.randint(8, 16)))
    jccs = rng.sample(_JCC_POOL, 2)
    shape_weights = [rng.randint(1, 6) for _ in range(5)]

    def make_instr() -> Instruction:
        r = rng.random()
        if r < 0.87:
            m = rng.choice(mnems)
        elif r < 0.95:
            m = "mov"
        else:
            m = "cmp"
        shape = rng.choices(range(5), weights=shape_weights)[0]
        a = rng.choice(regs)
        if shape == 0:
            ops = (a, rng.choice(regs))
        elif shape == 1:
            ops = (a, hex(rng.randrange(1 << 20)))
        elif shape == 2:
            ops = (a, "[%s+%s]" % (rng.choice(regs), hex(rng.randrange(512))))
        elif shape == 3:
            ops = ("[%s+%s]" % (rng.choice(regs), hex(rng.randrange(512))), a)
        else:
            ops = (a,)
        return Instruction(m, ops)

    idiom = [make_instr() for _ in range(3)]
    n_blocks = rng.randint(*blocks_range)
    blocks = []
    jcc_blocks = []
    for b in range(n_blocks):
        instrs = []
        budget = rng.randint(*instr_range)
        while budget > 0:
            if budget >= 3 and rng.random() < 0.4:
                instrs.extend(idiom)
                budget -= 3
            else:
                instrs.append(make_instr())
                budget -= 1
        if rng.random() < 0.25:
            instrs.append(Instruction("call", (rng.choice(_EXT_SYMBOLS),)))
        if rng.random() < 0.6:
            instrs.append(Instruction(rng.choice(jccs), ()))
            jcc_blocks.append(b)
        blocks.append(BasicBlock(b, instrs))
    blocks[-1].instructions.append(Instruction("ret", ()))

    edges = [(b, b + 1) for b in range(n_blocks - 1)]
    present = set(edges)
    for b in jcc_blocks:
        extra = (b, rng.randrange(n_blocks))
        if extra not in present:
            edges.append(extra)
            present.add(extra)
    return FunctionRecord(name, ".text", is_export, blocks, edges)


def _synth_simple(rng: random.Random, name: str, *, is_export: bool) -> FunctionRecord:
    """A 1-2 instruction stub: forwarding jump, bare return, or constant
    load.  These are the filter fodder."""
    kind = rng.randrange(3)
    if kind == 0:
        instrs = [Instruction("jmp", (rng.choice(_EXT_SYMBOLS),))]
    elif kind == 1:
        instrs = [Instruction("ret", ())]
    else:
        instrs = [
            Instruction("mov", (rng.choice(_REGISTER_POOL), hex(rng.randrange(256)))),
            Instruction("ret", ()),
        ]
    return FunctionRecord(name, ".text", is_export, [BasicBlock(0, instrs)], [])


def _linkage_stubs(rng: random.Random, prefix: str) -> list:
    stubs = []
    for section in (".plt", ".init", ".fini"):
        stubs.append(
            FunctionRecord(
                "%s%s_stub" % (prefix, section.replace(".", "_")),
                section,
                False,
                [BasicBlock(0, [Instruction("jmp", (rng.choice(_EXT_SYMBOLS),))])],
                [],
            )
        )
    return stubs


@dataclass(frozen=True)
class SyntheticCorpusSpec:
    library_count: int = 10
    functions_per_library: int = 50
    clone_rate: float = 0.05
    simple_fn_rate: float = 0.3
    export_rate: float = 0.35
    planted_reuse: Mapping = field(default_factory=dict)
    distractor_functions: int = 40
    rng_seed: int = 1

    def library_ids(self):
        return ["lib%03d" % i for i in range(self.library_count)]

    def validate(self) -> None:
        if self.library_count < 1 or self.functions_per_library < 1:
            raise ConfigError("library_count and functions_per_library must be >= 1")
        for rate_name in ("clone_rate", "simple_fn_rate", "export_rate"):
            rate = getattr(self, rate_name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError("%s must be in [0, 1]" % rate_name)
        if self.distractor_functions < 0:
            raise ConfigError("distractor_functions must be >= 0")
        known = set(self.library_ids())
        for bin_id, (libs, fraction) in self.planted_reuse.items():
            if not bin_id or bin_id in known:
                raise ConfigError("bad binary id %r" % bin_id)
            unknown = set(libs) - known
            if unknown:
                raise ConfigError(
                    "binary %r plants unknown libraries %s" % (bin_id, sorted(unknown))
                )
            if len(set(libs)) != len(list(libs)):
                raise ConfigError("binary %r lists a library twice" % bin_id)
            if libs and not 0.0 < fraction <= 1.0:
                raise ConfigError("binary %r has reuse fraction outside (0, 1]" % bin_id)


def random_reuse_plan(
    rng: random.Random,
    binary_ids: Sequence[str],
    library_ids: Sequence[str],
    *,
    min_libs: int = 1,
    max_libs: int = 3,
    min_fraction: float = 0.3,
    max_fraction: float = 1.0,
) -> dict:
    """Deterministic random plan: each binary reuses min..max libraries at
    one uniform fraction."""
    if not library_ids or not 0 <= min_libs <= min(max_libs, len(library_ids)):
        raise ConfigError("min_libs must be in [0, min(max_libs, %d libraries)]"
                          % len(library_ids))
    if not 0.0 < min_fraction <= max_fraction <= 1.0:
        raise ConfigError("reuse fractions must satisfy 0 < min_fraction <= max_fraction <= 1")
    plan = {}
    for bin_id in binary_ids:
        k = rng.randint(min_libs, min(max_libs, len(library_ids)))
        libs = sorted(rng.sample(list(library_ids), k))
        plan[bin_id] = (libs, rng.uniform(min_fraction, max_fraction))
    return plan


def _api_first(functions: Sequence[FunctionRecord]) -> list:
    """Exported-first, then most complex first: the order in which a
    partial reuser would plausibly pull functions in."""
    keyed = [
        (not fn.is_export, compute_profile(fn).mi, fn.name, fn) for fn in functions
    ]
    keyed.sort(key=lambda t: t[:3])
    return [t[3] for t in keyed]


def generate_corpus(spec: SyntheticCorpusSpec):
    """(tpl documents, target documents, manifest), fully determined by the
    spec's seed.

    Every planted (binary, library) pair receives at least
    ceil(fraction * |library|) verbatim function copies, taken API-first.
    Clones are verbatim copies pushed into other libraries under new names;
    every document also gets .plt/.init/.fini stubs so section filtering
    has something to chew on.
    """
    spec.validate()
    rng = random.Random(spec.rng_seed)
    lib_ids = spec.library_ids()

    bodies = {}
    for lib in lib_ids:
        n = spec.functions_per_library
        n_simple = min(n - 1, round(spec.simple_fn_rate * n)) if n > 1 else 0
        n_flag = max(1, min(n - n_simple, max(2, n // 12)))
        n_regular = n - n_simple - n_flag
        kinds = ["flag"] * n_flag + ["regular"] * n_regular + ["simple"] * n_simple
        rng.shuffle(kinds)
        fns = []
        for k, kind in enumerate(kinds):
            name = "%s_fn%04d" % (lib, k)
            if kind == "flag":
                fns.append(
                    _synth_function(
                        rng, name, is_export=True,
                        blocks_range=(6, 10), instr_range=(8, 14),
                    )
                )
            elif kind == "regular":
                fns.append(
                    _synth_function(
                        rng, name, is_export=rng.random() < spec.export_rate
                    )
                )
            else:
                fns.append(
                    _synth_simple(rng, name, is_export=rng.random() < spec.export_rate)
                )
        bodies[lib] = fns

    # verbatim cross-library clones, spread cyclically so no destination
    # pair stacks up
    if len(lib_ids) > 1:
        clone_count = round(spec.clone_rate * spec.functions_per_library)
        for i, lib in enumerate(lib_ids):
            if not clone_count:
                break
            others = lib_ids[i + 1 :] + lib_ids[:i]
            picks = sorted(rng.sample(range(spec.functions_per_library), clone_count))
            for c, idx in enumerate(picks):
                src = bodies[lib][idx]
                dst = others[c % len(others)]
                bodies[dst].append(
                    FunctionRecord(
                        "%s_clone_%s" % (dst, src.name),
                        src.section,
                        src.is_export,
                        src.blocks,
                        src.edges,
                    )
                )

    tpl_docs = [
        BinaryDocument(lib, "tpl", list(bodies[lib]) + _linkage_stubs(rng, lib))
        for lib in lib_ids
    ]

    ordered = {lib: _api_first(bodies[lib]) for lib in lib_ids}
    target_docs = []
    manifest = {}
    for bin_id, (libs, fraction) in spec.planted_reuse.items():
        fns = []
        for lib in libs:
            pool = ordered[lib]
            fns.extend(pool[: math.ceil(fraction * len(pool))])
        nd = spec.distractor_functions
        n_simple = round(spec.simple_fn_rate * nd)
        kinds = ["simple"] * n_simple + ["regular"] * (nd - n_simple)
        rng.shuffle(kinds)
        for k, kind in enumerate(kinds):
            name = "%s_fn%04d" % (bin_id, k)
            if kind == "simple":
                fns.append(_synth_simple(rng, name, is_export=False))
            else:
                fns.append(_synth_function(rng, name, is_export=False))
        target_docs.append(
            BinaryDocument(bin_id, "target", fns + _linkage_stubs(rng, bin_id))
        )
        manifest[bin_id] = set(libs)
    return tpl_docs, target_docs, manifest


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
