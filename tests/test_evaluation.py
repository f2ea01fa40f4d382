import gc
import json
import math
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from libsift import (
    AGGREGATION_MODES,
    BasicBlock,
    BinaryDocument,
    ConfigError,
    ConfusionCounts,
    DetectionReport,
    FunctionRecord,
    Instruction,
    LibraryScore,
    ParseError,
    StageTimings,
    SweepCell,
    SweepGrid,
    SyntheticCorpusSpec,
    TplRepository,
    ValidationError,
    build_origin,
    build_repository,
    compute_weights,
    detect,
    generate_corpus,
    metrics_from_counts,
    parse_document,
    purify_export,
    purify_mi,
    random_reuse_plan,
    read_timings,
    run_ablation,
    score_metrics,
    serialize_document,
    sweep,
    time_stages,
    write_timings,
)
from libsift import _kernels, evaluation, synthetic
from libsift.detector import AGG_WEIGHTED_MEAN, aggregate, embed_target, library_block
from libsift.evaluation import (
    ABLATION_CONFIGS,
    DEFAULT_THETA1_GRID,
    DEFAULT_THETA2_GRID,
    DEFAULT_THETA3_GRID,
    _confusions,
    _shared_scores,
)
from libsift.repository import stage_steps

import reference
from corpora import embed_calls
from reference import EXACT_CORPORA, EXACT_DIM, exact_thresholds, some


def _report(binary_id, decisions):
    entries = [
        LibraryScore(lib, 1.0 if yes else 0.0, yes, []) for lib, yes in decisions
    ]
    return DetectionReport(binary_id, entries, {})


def _mini_spec(**overrides):
    base = dict(
        library_count=3,
        functions_per_library=8,
        clone_rate=0.0,
        simple_fn_rate=0.25,
        export_rate=0.6,
        planted_reuse={
            "bin000": (["lib000"], 1.0),
            "bin001": (["lib002"], 0.8),
        },
        distractor_functions=6,
        rng_seed=7,
    )
    base.update(overrides)
    return SyntheticCorpusSpec(**base)


# ---------------------------------------------------------------------------
# confusion metrics

def test_metrics_frozen_values():
    result = metrics_from_counts(ConfusionCounts(tp=8, fp=2, fn=4))
    assert result.precision == pytest.approx(0.8, abs=1e-15)
    assert result.recall == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert result.f1 == pytest.approx(8.0 / 11.0, abs=1e-15)
    assert result.precision_defined and result.recall_defined


def test_metrics_undefined_ratios_flagged():
    empty = metrics_from_counts(ConfusionCounts(0, 0, 0))
    assert (empty.precision, empty.recall, empty.f1) == (0.0, 0.0, 0.0)
    assert not empty.precision_defined and not empty.recall_defined

    no_truth = metrics_from_counts(ConfusionCounts(0, 3, 0))
    assert no_truth.precision_defined and not no_truth.recall_defined
    assert no_truth.precision == 0.0

    no_calls = metrics_from_counts(ConfusionCounts(0, 0, 5))
    assert not no_calls.precision_defined and no_calls.recall_defined
    assert no_calls.recall == 0.0


def test_score_metrics_counts_decisions():
    manifest = {"b0": {"libA", "libB"}, "b1": {"libC"}}
    reports = [
        _report("b0", [("libA", True), ("libB", False), ("libC", True)]),
        _report("b1", [("libC", True)]),
    ]
    result = score_metrics(reports, manifest)
    assert result.counts == ConfusionCounts(tp=2, fp=1, fn=1)


def test_score_metrics_missing_report_counts_as_missed():
    manifest = {"b0": {"libA"}, "b1": {"libB", "libC"}}
    reports = [_report("b0", [("libA", True)])]
    result = score_metrics(reports, manifest)
    assert result.counts == ConfusionCounts(tp=1, fp=0, fn=2)


def test_score_metrics_rejects_unknown_binary():
    with pytest.raises(ValidationError, match="unknown binary"):
        score_metrics([_report("ghost", [])], {"b0": set()})


def test_score_metrics_rejects_duplicate_reports():
    reports = [_report("b0", []), _report("b0", [])]
    with pytest.raises(ValidationError, match="duplicate"):
        score_metrics(reports, {"b0": set()})


def test_array_counts_equal_set_counts_on_generated_tables():
    rng = random.Random(5)
    libs = ["lib%d" % i for i in range(6)]
    thresholds = (-1.0, -0.2, 0.0, 0.35, 0.8, 1.0)
    for trial in range(60):
        bin_ids = ["bin%d" % i for i in range(rng.randint(0, 6))]
        # truth libraries outside the table's columns, binaries with no
        # row, and a library listed twice
        manifest = {bin_id: rng.sample(libs, rng.randint(0, 3))
                    for bin_id in bin_ids + ["unscored%d" % i for i in range(rng.randint(0, 2))]}
        for libs_of in manifest.values():
            if libs_of and rng.random() < 0.3:
                libs_of.append(libs_of[0])
        lib_ids = sorted(rng.sample(libs, rng.randint(0, 5)))
        table = np.array([[rng.choice((-np.inf, -1.0, 0.0, 0.35, 1.0, rng.uniform(-1, 1)))
                           for _ in lib_ids] for _ in bin_ids]).reshape(len(bin_ids),
                                                                       len(lib_ids))
        if bin_ids and rng.random() < 0.5:
            table[rng.randrange(len(bin_ids))] = -np.inf  # an empty target
        got = _confusions(bin_ids, lib_ids, (table >= t for t in thresholds), manifest)
        want = [ConfusionCounts(*reference.confusion(
            [(bin_id, {lib for lib, s in zip(lib_ids, row) if s >= t})
             for bin_id, row in zip(bin_ids, table)], manifest)) for t in thresholds]
        assert got == want, (trial, bin_ids, lib_ids, manifest)


# ---------------------------------------------------------------------------
# corpus generation

def test_generate_corpus_is_deterministic():
    spec = _mini_spec()
    tpl_a, tgt_a, man_a = generate_corpus(spec)
    tpl_b, tgt_b, man_b = generate_corpus(spec)
    assert man_a == man_b
    for a, b in zip(tpl_a + tgt_a, tpl_b + tgt_b):
        assert serialize_document(a) == serialize_document(b)


def test_generate_corpus_runs_with_gc_paused(monkeypatch):
    seen = []
    real = synthetic._synth_function

    def synth(*args, **kwargs):
        seen.append(gc.isenabled())
        return real(*args, **kwargs)

    monkeypatch.setattr(synthetic, "_synth_function", synth)
    generate_corpus(_mini_spec())
    assert seen and not any(seen)
    assert gc.isenabled()


@pytest.mark.parametrize("planted_reuse", [
    {},
    # lib002 planted by three targets, lib000 by one, lib001 by none
    {"bin000": (["lib000", "lib002"], 0.5), "bin001": (["lib002"], 1.0),
     "bin002": (["lib002"], 0.3)},
], ids=["none", "repeated"])
def test_generate_corpus_orders_only_planted_libraries_once(monkeypatch, planted_reuse):
    profiled = []
    real = synthetic.compute_profile

    def compute_profile(fn):
        profiled.append(fn.name)
        return real(fn)

    monkeypatch.setattr(synthetic, "compute_profile", compute_profile)
    tpl_docs, _, _ = generate_corpus(_mini_spec(clone_rate=0.25, planted_reuse=planted_reuse))
    planted = {lib for libs, _ in planted_reuse.values() for lib in libs}
    assert sorted(profiled) == sorted(
        fn.name for doc in tpl_docs if doc.binary_id in planted
        for fn in doc.functions if fn.section == ".text"
    )


def test_generate_corpus_shapes():
    spec = _mini_spec()
    tpl_docs, target_docs, manifest = generate_corpus(spec)
    assert [d.binary_id for d in tpl_docs] == ["lib000", "lib001", "lib002"]
    assert [d.binary_id for d in target_docs] == ["bin000", "bin001"]
    assert manifest == {"bin000": {"lib000"}, "bin001": {"lib002"}}
    for doc in tpl_docs:
        assert doc.kind == "tpl"
        body = [fn for fn in doc.functions if fn.section == ".text"]
        assert len(body) == 8
        # linkage stubs ride along so section filtering has work to do
        assert any(fn.section == ".plt" for fn in doc.functions)
        assert any(fn.section == ".init" for fn in doc.functions)
    for doc in target_docs:
        assert doc.kind == "target"


def test_generate_corpus_plants_api_first():
    spec = _mini_spec()
    tpl_docs, target_docs, _ = generate_corpus(spec)
    lib2 = next(d for d in tpl_docs if d.binary_id == "lib002")
    body_names = {fn.name for fn in lib2.functions if fn.section == ".text"}
    bin1 = next(d for d in target_docs if d.binary_id == "bin001")
    planted = [fn for fn in bin1.functions if fn.name in body_names]
    assert len(planted) == math.ceil(0.8 * len(body_names))
    # partial reuse pulls every export before any internal function
    if any(not fn.is_export for fn in planted):
        exported_in_lib = {
            fn.name
            for fn in lib2.functions
            if fn.section == ".text" and fn.is_export
        }
        assert exported_in_lib <= {fn.name for fn in planted}
    # planted bodies are verbatim copies
    by_name = {fn.name: fn for fn in lib2.functions}
    for fn in planted:
        src = by_name[fn.name]
        assert serialize_document(
            type(bin1)("x", "target", [fn])
        ) == serialize_document(type(bin1)("x", "target", [src]))


def test_generate_corpus_full_reuse_covers_library():
    spec = _mini_spec()
    tpl_docs, target_docs, _ = generate_corpus(spec)
    lib0 = next(d for d in tpl_docs if d.binary_id == "lib000")
    body_names = {fn.name for fn in lib0.functions if fn.section == ".text"}
    bin0 = next(d for d in target_docs if d.binary_id == "bin000")
    assert body_names <= {fn.name for fn in bin0.functions}


def test_generate_corpus_spreads_clones():
    spec = _mini_spec(clone_rate=0.25, planted_reuse={})
    tpl_docs, _, _ = generate_corpus(spec)
    clones = [
        fn.name
        for doc in tpl_docs
        for fn in doc.functions
        if "_clone_" in fn.name
    ]
    assert len(clones) == round(0.25 * 8) * 3
    for doc in tpl_docs:
        for fn in doc.functions:
            if "_clone_" in fn.name:
                assert fn.name.startswith(doc.binary_id + "_clone_")


def test_generate_corpus_distractors_are_local():
    spec = _mini_spec()
    _, target_docs, _ = generate_corpus(spec)
    bin0 = target_docs[0]
    distractors = [
        fn for fn in bin0.functions if fn.name.startswith("bin000_fn")
    ]
    assert len(distractors) == 6
    assert all(not fn.is_export for fn in distractors)


@pytest.mark.parametrize(
    "overrides,needle",
    [
        (dict(library_count=0), "must be >= 1"),
        (dict(clone_rate=1.5), "clone_rate"),
        (dict(simple_fn_rate=-0.1), "simple_fn_rate"),
        (dict(export_rate=2.0), "export_rate"),
        (dict(distractor_functions=-1), "distractor_functions"),
        (dict(planted_reuse={"lib000": (["lib000"], 0.5)}), "bad binary id"),
        (dict(planted_reuse={"bin0": (["lib009"], 0.5)}), "unknown libraries"),
        (dict(planted_reuse={"bin0": (["lib000", "lib000"], 0.5)}), "twice"),
        (dict(planted_reuse={"bin0": (["lib000"], 0.0)}), "fraction"),
        (dict(planted_reuse={"bin0": (["lib000"], 1.0001)}), "fraction"),
    ],
)
def test_spec_validation(overrides, needle):
    with pytest.raises(ConfigError, match=needle):
        generate_corpus(_mini_spec(**overrides))


@pytest.mark.parametrize("fractions", [
    dict(max_fraction=1.3), dict(min_fraction=0.0), dict(min_fraction=-0.1),
    dict(min_fraction=0.9, max_fraction=0.5),
], ids=["max-above-one", "min-zero", "min-negative", "min-above-max"])
def test_random_reuse_plan_checks_fractions_before_drawing(fractions):
    for seed in range(1, 7):
        rng = random.Random(seed)
        state = rng.getstate()
        with pytest.raises(ConfigError, match="fraction"):
            random_reuse_plan(rng, ["bin000", "bin001"], ["lib000", "lib001"], **fractions)
        assert rng.getstate() == state


def test_random_reuse_plan_respects_bounds():
    rng = random.Random(3)
    libs = ["lib%03d" % i for i in range(6)]
    bins = ["bin%03d" % i for i in range(40)]
    plan = random_reuse_plan(rng, bins, libs, min_libs=2, max_libs=4,
                             min_fraction=0.4, max_fraction=0.9)
    assert set(plan) == set(bins)
    for libs_used, fraction in plan.values():
        assert 2 <= len(libs_used) <= 4
        assert libs_used == sorted(set(libs_used))
        assert set(libs_used) <= set(libs)
        assert 0.4 <= fraction <= 0.9
    again = random_reuse_plan(random.Random(3), bins, libs, min_libs=2,
                              max_libs=4, min_fraction=0.4, max_fraction=0.9)
    assert again == plan


# ---------------------------------------------------------------------------
# threshold sweep

def test_sweep_default_grid_has_910_cells():
    assert len(DEFAULT_THETA1_GRID) * len(DEFAULT_THETA2_GRID) * len(
        DEFAULT_THETA3_GRID
    ) == 910
    tpl_docs, target_docs, manifest = generate_corpus(_mini_spec())
    grid = sweep(tpl_docs, target_docs, manifest, dim=128)
    assert len(grid.cells) == 910
    # theta1-major, then theta2, then theta3
    flat = [(c.theta1, c.theta2, c.theta3) for c in grid.cells]
    want = [
        (t1, t2, t3)
        for t1 in DEFAULT_THETA1_GRID
        for t2 in DEFAULT_THETA2_GRID
        for t3 in DEFAULT_THETA3_GRID
    ]
    assert flat == want


def test_sweep_csv_bytes_are_reproducible():
    tpl_docs, target_docs, manifest = generate_corpus(_mini_spec())
    a, b = (sweep(tpl_docs, target_docs, manifest, dim=64, theta1_values=(0.8, 0.9),
                  theta2_values=(0.2, 0.5), theta3_values=(0.7, 0.8, 0.9)) for _ in range(2))
    assert a.to_csv_bytes() == b.to_csv_bytes()
    lines = a.to_csv_bytes().decode("utf-8").splitlines()
    assert lines[0] == "theta1,theta2,theta3,retained_fraction,precision,recall,f1"
    assert len(lines) == 13


def test_sweep_finds_working_thresholds():
    tpl_docs, target_docs, manifest = generate_corpus(_mini_spec())
    grid = sweep(tpl_docs, target_docs, manifest, dim=128)
    assert grid.best().f1 == 1.0
    streamed = sweep(iter(tpl_docs), iter(target_docs), manifest, dim=128)
    assert streamed.to_csv_bytes() == grid.to_csv_bytes()


def test_sweep_validates_inputs():
    tpl_docs, target_docs, manifest = generate_corpus(_mini_spec())
    with pytest.raises(ConfigError, match="non-empty"):
        sweep(tpl_docs, target_docs, manifest, theta1_values=())
    with pytest.raises(ConfigError, match="mode"):
        sweep(tpl_docs, target_docs, manifest, mode="vote")
    with pytest.raises(ValidationError, match="missing from manifest"):
        sweep(tpl_docs, target_docs, {"bin000": {"lib000"}})


def _cell(f1, retained, thetas):
    return SweepCell(thetas[0], thetas[1], thetas[2], retained, 1.0, 1.0, f1)


def test_sweep_best_tie_break_order():
    # higher f1 always wins
    grid = SweepGrid([
        _cell(0.9, 0.1, (0.95, 0.7, 0.95)),
        _cell(0.8, 0.9, (0.75, 0.1, 0.70)),
    ])
    assert grid.best().f1 == 0.9
    # equal f1: larger retained fraction wins
    grid = SweepGrid([
        _cell(0.9, 0.2, (0.75, 0.1, 0.70)),
        _cell(0.9, 0.4, (0.95, 0.7, 0.95)),
    ])
    assert grid.best().retained_fraction == 0.4
    # equal f1 and retention: smallest (theta1, theta2, theta3) wins
    grid = SweepGrid([
        _cell(0.9, 0.4, (0.9, 0.2, 0.89)),
        _cell(0.9, 0.4, (0.8, 0.7, 0.95)),
        _cell(0.9, 0.4, (0.8, 0.2, 0.95)),
        _cell(0.9, 0.4, (0.8, 0.2, 0.89)),
    ])
    best = grid.best()
    assert (best.theta1, best.theta2, best.theta3) == (0.8, 0.2, 0.89)


def test_sweep_write_csv(tmp_path):
    grid = SweepGrid([_cell(0.5, 0.25, (0.8, 0.2, 0.89))])
    path = tmp_path / "grid.csv"
    grid.write_csv(path)
    assert path.read_bytes() == grid.to_csv_bytes()


# ---------------------------------------------------------------------------
# ablation matrix

def test_ablation_shape_and_lookup():
    tpl_docs, target_docs, manifest = generate_corpus(_mini_spec())
    table = run_ablation(tpl_docs, target_docs, manifest, dim=128)
    assert [(r.config, r.weights) for r in table.rows] == [
        ("origin", False), ("origin", True),
        ("export", False), ("export", True),
        ("mi", False), ("mi", True),
        ("export+mi", False), ("export+mi", True),
    ]
    origin_row = table.row("origin", weights=False)
    assert origin_row.leave_percent == 1.0
    assert origin_row.func_count == 24
    exp_row = table.row("export", weights=True)
    assert exp_row.func_count < origin_row.func_count
    with pytest.raises(KeyError):
        table.row("export+mi+weights", weights=True)


def test_ablation_csv_and_pretty_table():
    tpl_docs, target_docs, manifest = generate_corpus(_mini_spec())
    table = run_ablation(tpl_docs, target_docs, manifest, dim=128)
    lines = table.to_csv_bytes().decode("utf-8").splitlines()
    assert lines[0] == "config,weights,func_count,leave_percent,precision,recall,f1"
    assert len(lines) == 9
    pretty = str(table)
    assert "export+mi" in pretty and pretty.count("\n") == 8


# ---------------------------------------------------------------------------
# sweep and ablation decide exactly as detect does

def _emptying_corpus():
    """_mini_spec's corpus plus a library with no exports, which the export
    stage empties, and a target holding only a .plt stub, which section
    filtering empties."""
    tpl_docs, target_docs, manifest = generate_corpus(_mini_spec())
    private = [
        FunctionRecord("priv_%s" % fn.name, fn.section, False, fn.blocks, fn.edges)
        for fn in tpl_docs[1].functions
        if fn.section == ".text"
    ]
    stub = FunctionRecord(
        "stub", ".plt", False, [BasicBlock(0, [Instruction("jmp", ("ext_001",))])], []
    )
    tpl_docs = tpl_docs + [BinaryDocument("libpriv", "tpl", private)]
    target_docs = target_docs + [BinaryDocument("binstub", "target", [stub])]
    return tpl_docs, target_docs, dict(manifest, binstub={"lib000"})


_THETA3S = (-0.5, 0.0, 0.89)


def _detected(tpl_docs, target_docs, manifest, theta3, **build):
    repo = build_repository(tpl_docs, dim=128, **build)
    reports = [detect(doc, repo, theta3=theta3) for doc in target_docs]
    return repo, score_metrics(reports, manifest)


def test_sweep_cells_equal_detect_at_every_theta3():
    tpl_docs, target_docs, manifest = _emptying_corpus()
    grid = sweep(tpl_docs, target_docs, manifest, dim=128,
                 theta1_values=(0.8,), theta2_values=(0.3, 0.6),
                 theta3_values=_THETA3S)
    assert len(grid.cells) == 6
    for cell in grid.cells:
        repo, want = _detected(tpl_docs, target_docs, manifest, cell.theta3,
                               theta1=cell.theta1, theta2=cell.theta2)
        assert repo.libraries["libpriv"] == []
        assert (cell.precision, cell.recall) == (want.precision, want.recall), cell


def test_ablation_rows_equal_detect_at_every_theta3():
    tpl_docs, target_docs, manifest = _emptying_corpus()
    stages = {"origin": (), "export": ("export",), "mi": ("mi",),
              "export+mi": ("export", "mi")}
    for theta3 in _THETA3S:
        table = run_ablation(tpl_docs, target_docs, manifest, dim=128, theta3=theta3)
        for row in table.rows:
            _, want = _detected(
                tpl_docs, target_docs, manifest, theta3, theta1=0.8, theta2=0.2,
                stages=stages[row.config] + (("weights",) if row.weights else ()),
            )
            assert (row.precision, row.recall) == (want.precision, want.recall), row


# ---------------------------------------------------------------------------
# grouped scoring: sweep and ablation score each retained feature set once

def _scoring_corpus():
    """_emptying_corpus plus a target of more than 512 functions after
    section filtering, so best_match crosses a block boundary."""
    tpl_docs, target_docs, manifest = _emptying_corpus()
    big_tpls, (big,), _ = generate_corpus(_mini_spec(
        planted_reuse={"binbig": (["lib000", "lib002"], 1.0)}, distractor_functions=530))
    assert [serialize_document(d) for d in big_tpls] == [serialize_document(d)
                                                         for d in tpl_docs[:-1]]
    return tpl_docs, target_docs + [big], dict(manifest, binbig={"lib000", "lib002"})


def _staged(origin, stages):
    staged = origin
    for _, staged in stage_steps(origin, stages):
        pass
    return staged


def _weight_row(repo):
    return [f.weight for feats in repo.libraries.values() for f in feats]


def _union(repo):
    """{library id: features} over the non-empty libraries of `repo`, in
    id order: the libraries that _shared_scores scores with `repo` as its
    union."""
    return {lib_id: feats for lib_id, feats in sorted(repo.libraries.items()) if feats}


def _superset(cells):
    """The largest retained feature set of `cells`, which holds every
    other one: purify_mi keeps nested sets, and every ablation config keeps
    a subset of the origin."""
    return max((staged for staged, _ in cells), key=TplRepository.feature_count)


def _grouped(target_docs, manifest, cells, mode, theta3_values):
    """_shared_scores over `cells`: (retained feature set, repositories
    weighting exactly those features) pairs, one per set."""
    rows = {id(staged): [_weight_row(repo) for repo in repos] for staged, repos in cells}
    return _shared_scores(target_docs, manifest, [staged for staged, _ in cells],
                          lambda staged: rows[id(staged)], mode, theta3_values)


def _sweep_cells(exported, theta1_values, theta2_values):
    return [(staged, [compute_weights(staged, t1) for t1 in theta1_values])
            for staged in (purify_mi(exported, t2) for t2 in theta2_values)]


@pytest.mark.parametrize("mode", AGGREGATION_MODES)
def test_grouped_scores_equal_aggregate_bit_for_bit(mode, monkeypatch):
    tpl_docs, target_docs, manifest = _scoring_corpus()
    origin = build_origin(tpl_docs, dim=128)
    exported = purify_export(origin)
    theta3_values = _THETA3S + DEFAULT_THETA3_GRID
    # the sweep's groups (one per theta2, weighted per theta1) over the
    # export population, then the ablation's (one per config, weights off
    # and on) over the origin
    runs = [
        (exported, _sweep_cells(exported, (0.75, 0.9), DEFAULT_THETA2_GRID)),
        (origin, [(staged, [staged, compute_weights(staged)])
                  for staged in (_staged(origin, stages) for _, stages in ABLATION_CONFIGS)]),
    ]
    embedded = {doc.binary_id: embed_target(doc, origin.config) for doc in target_docs}
    assert embedded["binstub"][1] is None
    assert embedded["binbig"][1].shape[0] > 512
    emptied = moved = 0
    for parent, cells in runs:
        # an infinite bound recomputes every score gathered from a larger
        # block on its group's own block: the exact path
        monkeypatch.setattr(evaluation, "DELTA", float("inf"))
        bin_ids, lib_ids, exact = _grouped(target_docs, manifest, cells, mode, theta3_values)
        monkeypatch.undo()
        *ids, shared = _grouped(target_docs, manifest, cells, mode, theta3_values)
        assert ids == [bin_ids, lib_ids]
        assert bin_ids == list(embedded)
        assert lib_ids == sorted(lib_id for lib_id, feats in parent.libraries.items() if feats)
        for (_, repos), exact_table, shared_table in zip(cells, exact, shared):
            for k, repo in enumerate(repos):
                emptied += sum(not feats for feats in repo.libraries.values())
                for t, (names, mat) in enumerate(embedded.values()):
                    for j, lib_id in enumerate(lib_ids):
                        feats = repo.libraries[lib_id]
                        if mat is None or not feats:
                            assert exact_table[t, k, j] == shared_table[t, k, j] == -np.inf
                            continue
                        want = aggregate(mat, names, feats, mode=mode,
                                         normalized=True)[0]
                        assert exact_table[t, k, j] == want, (bin_ids[t], lib_id, repo.config)
                        # the shared path: within the certified bound, and
                        # on the same side of every theta3 in use
                        got = shared_table[t, k, j]
                        scale = 1.0 if mode == AGG_WEIGHTED_MEAN else (
                            mat.shape[0] * max(f.weight for f in feats))
                        assert abs(got - want) <= evaluation.DELTA * scale
                        assert [got >= t3 for t3 in theta3_values] == [
                            want >= t3 for t3 in theta3_values]
                        moved += got != want
    assert emptied > 0
    assert moved > 0  # sharing does move bits: the certificate is needed


@settings(max_examples=25)
@given(corpus=EXACT_CORPORA, data=st.data())
@pytest.mark.parametrize("mode", AGGREGATION_MODES)
def test_grouped_scores_equal_the_reference_at_attained_scores(mode, corpus, data):
    tpl_docs, target_docs, manifest, read = corpus
    origin = build_origin(tpl_docs, dim=EXACT_DIM, vectors=read)
    exported = purify_export(origin)
    sims, shares = exact_thresholds(exported)
    targets = {doc.binary_id: embed_target(doc, origin.config, vectors=read)
               for doc in target_docs}
    for cells in [
            _sweep_cells(exported, data.draw(some(sims)), data.draw(some(shares))),
            [(staged, [staged, compute_weights(staged)])
             for staged in (_staged(origin, stages) for _, stages in ABLATION_CONFIGS)]]:
        union = _union(_superset(cells))
        want = [[[[reference.aggregate(names, mat.tolist(), repo.libraries[lib_id], mode)[0]
                   if mat is not None and repo.libraries[lib_id] else -np.inf
                   for lib_id in union] for repo in repos] for names, mat in targets.values()]
                for _, repos in cells]
        # theta3 on scores of libraries that a group holds only in part:
        # the shared match may not decide those, their own blocks must
        partial = [score for (staged, _), table in zip(cells, want) for row in table
                   for weighting in row for lib_id, score in zip(union, weighting)
                   if 0 < len(staged.libraries[lib_id]) < len(union[lib_id]) and score > -np.inf]
        built = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(evaluation, "embed_target", lambda doc, config: targets[doc.binary_id])
            patch.setattr(evaluation, "library_block",
                          lambda feats: built.append(feats) or library_block(feats))
            _, lib_ids, got = _grouped(target_docs, manifest, cells, mode,
                                       data.draw(some(partial or [0.0])))
        assert lib_ids == list(union) and [table.tolist() for table in got] == want
        assert len(built) > len(union) or not partial  # the fallback built own blocks


def _moved_true_pair(target_docs, manifest, cells, mode, monkeypatch):
    """(exact, shared) score of a planted (target, library) pair whose
    score the shared match moves."""
    monkeypatch.setattr(evaluation, "DELTA", float("inf"))
    bin_ids, lib_ids, exact = _grouped(target_docs, manifest, cells, mode, (0.9,))
    monkeypatch.setattr(evaluation, "DELTA", -1.0)
    _, _, shared = _grouped(target_docs, manifest, cells, mode, (0.9,))
    monkeypatch.undo()
    for e, s in zip(exact, shared):
        for t, k, j in zip(*np.nonzero(np.isfinite(e) & (e != s))):
            if lib_ids[j] in manifest[bin_ids[t]]:
                return float(e[t, k, j]), float(s[t, k, j])
    raise AssertionError("no planted pair's score moved")


def test_sweep_certificate_keeps_a_decision_the_shared_match_would_flip(monkeypatch):
    tpl_docs, target_docs, manifest = _scoring_corpus()
    theta1_values, theta2_values = (0.75, 0.9), DEFAULT_THETA2_GRID
    exported = purify_export(build_origin(tpl_docs, dim=128))
    cells = _sweep_cells(exported, theta1_values, theta2_values)
    exact, shared = _moved_true_pair(target_docs, manifest, cells,
                                     AGG_WEIGHTED_MEAN, monkeypatch)
    # at this theta3 the exact and the shared score decide differently
    theta3 = max(exact, shared)
    assert (exact >= theta3) != (shared >= theta3)
    matched, match_library = [], evaluation.match_library

    def run(delta):
        monkeypatch.setattr(evaluation, "DELTA", delta)
        monkeypatch.setattr(evaluation, "match_library",
                            lambda *args: matched.append(1) or match_library(*args))
        csv = sweep(tpl_docs, target_docs, manifest, dim=128, theta1_values=theta1_values,
                    theta2_values=theta2_values,
                    theta3_values=(0.7, theta3, 0.9)).to_csv_bytes()
        monkeypatch.undo()
        calls = len(matched)
        matched.clear()
        return csv, calls

    exact_csv, _ = run(float("inf"))
    certified_csv, certified_calls = run(evaluation.DELTA)
    uncertified_csv, shared_calls = run(-1.0)
    assert certified_csv == exact_csv
    assert certified_calls > shared_calls  # the certificate fired
    assert uncertified_csv != exact_csv  # and without it the CSV changes


def _best_matches(monkeypatch):
    calls = []
    best_match = _kernels.best_match

    def counting(queries, keys):
        calls.append(keys.shape[0])
        return best_match(queries, keys)

    monkeypatch.setattr(_kernels, "best_match", counting)
    return calls


def test_sweep_matches_once_per_target_and_union_library(monkeypatch):
    tpl_docs, target_docs, manifest = _emptying_corpus()
    theta2_values = (0.1, 0.3, 0.6)
    exported = purify_export(build_origin(tpl_docs, dim=128))
    # the widest theta2 keeps every feature a narrower one does
    union = _union(purify_mi(exported, max(theta2_values)))
    nonempty_targets = sum(embed_target(doc, exported.config)[1] is not None
                           for doc in target_docs)
    best, thetas = _best_matches(monkeypatch), []
    theta_counts = _kernels.theta_counts
    monkeypatch.setattr(_kernels, "theta_counts",
                        lambda *args: thetas.append(args[3]) or theta_counts(*args))
    # no theta3 near a score: no fallback
    sweep(tpl_docs, target_docs, manifest, dim=128, theta1_values=(0.75, 0.8, 0.9),
          theta2_values=theta2_values, theta3_values=(-1.0,))
    assert len(union) == 3  # libpriv keeps nothing
    assert best == [len(feats) for _ in range(nonempty_targets) for feats in union.values()]
    assert thetas == [(0.75, 0.8, 0.9)] * len(theta2_values)


def test_ablation_matches_once_per_target_and_origin_library(monkeypatch):
    tpl_docs, target_docs, manifest = _emptying_corpus()
    origin = build_origin(tpl_docs, dim=128)
    nonempty_targets = sum(embed_target(doc, origin.config)[1] is not None
                           for doc in target_docs)
    best = _best_matches(monkeypatch)
    run_ablation(tpl_docs, target_docs, manifest, dim=128, theta3=-1.0)
    sizes = [len(origin.libraries[lib_id]) for lib_id in sorted(origin.libraries)]
    assert best == sizes * nonempty_targets


@pytest.mark.parametrize("run", [sweep, run_ablation])
def test_evaluation_embeds_each_union_library_and_target_once(run, monkeypatch):
    tpl_docs, target_docs, manifest = generate_corpus(_mini_spec(
        library_count=4,
        planted_reuse={"bin%03d" % i: (["lib%03d" % i], 1.0) for i in range(4)}))
    origin = build_origin(tpl_docs, dim=64)
    # the sweep's union is its widest theta2 set, the ablation's the origin
    union = _union(origin if run is run_ablation
                   else purify_mi(purify_export(origin), max(DEFAULT_THETA2_GRID)))
    assert len(union) == len(target_docs) == 4
    calls = embed_calls(monkeypatch)
    run(tpl_docs, target_docs, manifest, dim=64)
    # weighting a nested theta2 set before the union is read would embed
    # each increment of it with its own call per library
    assert sorted(doc.binary_id for doc in calls if doc.kind == "tpl") == list(union)
    assert [doc.binary_id for doc in calls if doc.kind == "target"] == [
        doc.binary_id for doc in target_docs]


@pytest.mark.parametrize("mode", AGGREGATION_MODES)
def test_sweep_cell_equals_the_ablation_row_at_the_same_thresholds(mode):
    library_ids = SyntheticCorpusSpec(library_count=5).library_ids()
    tpl_docs, target_docs, manifest = generate_corpus(SyntheticCorpusSpec(
        library_count=5, functions_per_library=30,
        planted_reuse=random_reuse_plan(random.Random(1),
                                        ["bin%03d" % i for i in range(8)], library_ids)))
    f1s = []
    for theta1, theta2, theta3 in [(0.8, 0.2, 0.5), (0.9, 0.5, 0.89)]:
        cell, = sweep(tpl_docs, target_docs, manifest, dim=64, theta1_values=(theta1,),
                      theta2_values=(theta2,), theta3_values=(theta3,), mode=mode).cells
        row = run_ablation(tpl_docs, target_docs, manifest, dim=64, theta1=theta1,
                           theta2=theta2, theta3=theta3, mode=mode).row("export+mi", True)
        assert (cell.retained_fraction, cell.precision, cell.recall, cell.f1) == (
            row.leave_percent, row.precision, row.recall, row.f1)
        f1s.append(cell.f1)
    assert min(f1s) < 1.0  # a corpus that every cell reads perfectly would show nothing


def _lazy(docs, parsed, alive_at_parse):
    """Parse each document only when it is asked for, and record how many
    parsed ones are still alive at each parse."""
    for blob in [serialize_document(doc) for doc in docs]:
        alive_at_parse.append(sum(ref() is not None for ref in parsed))
        doc = parse_document(blob)
        parsed.append(weakref.ref(doc))
        yield doc


@pytest.mark.parametrize("run", [sweep, run_ablation])
def test_evaluation_streams_its_targets(run, monkeypatch):
    tpl_docs, target_docs, manifest = generate_corpus(_mini_spec(
        planted_reuse={"bin%03d" % i: (["lib%03d" % (i % 3)], 1.0) for i in range(5)}))
    embedded, alive_at_embed = [], []

    def embed(doc, config):
        alive_at_embed.append(sum(ref() is not None for ref in embedded))
        names, mat = embed_target(doc, config)
        embedded.append(weakref.ref(mat))
        return names, mat

    monkeypatch.setattr(evaluation, "embed_target", embed)
    parsed, alive_at_parse = [], []
    streamed = run(tpl_docs, _lazy(target_docs, parsed, alive_at_parse), manifest, dim=64)
    assert len(parsed) == len(embedded) == 5
    assert max(alive_at_parse) <= 2, alive_at_parse
    assert max(alive_at_embed) <= 1, alive_at_embed
    assert streamed.to_csv_bytes() == run(tpl_docs, target_docs, manifest,
                                          dim=64).to_csv_bytes()
    # streaming still checks every target against the manifest
    with pytest.raises(ValidationError, match="'bin001' missing from manifest"):
        run(tpl_docs, _lazy(target_docs, [], []), {"bin000": manifest["bin000"]}, dim=64)


@pytest.mark.parametrize("run", [sweep, run_ablation])
def test_evaluation_refuses_a_target_given_twice(run, monkeypatch):
    tpl_docs, target_docs, manifest = generate_corpus(_mini_spec(
        planted_reuse={"bin%03d" % i: (["lib%03d" % (i % 3)], 1.0) for i in range(3)}))
    # a second bin000 holding bin001's functions would replace bin000's scores
    twice = target_docs + [BinaryDocument("bin000", "target", target_docs[1].functions)]
    embedded = []

    def embed(doc, config):
        embedded.append(doc.binary_id)
        return embed_target(doc, config)

    monkeypatch.setattr(evaluation, "embed_target", embed)
    with pytest.raises(ValidationError, match="target 'bin000' given twice"):
        run(tpl_docs, _lazy(twice, [], []), manifest, dim=64)
    assert embedded == ["bin000", "bin001", "bin002"]


# ---------------------------------------------------------------------------
# stage timing

def test_time_stages_returns_positive_durations():
    tpl_docs, _, _ = generate_corpus(_mini_spec(planted_reuse={}))
    timings, repo = time_stages(tpl_docs, dim=64)
    assert timings.origin_s > 0.0
    assert timings.export_s >= 0.0
    assert timings.mi_s >= 0.0
    assert timings.weights_s >= 0.0
    assert timings.total_s == pytest.approx(
        timings.export_s + timings.mi_s + timings.weights_s
    )
    assert repo.config.stages == ("export", "mi", "weights")


@pytest.mark.parametrize("stages", [(), ("export",), ("mi", "export"), ("weights",)])
def test_time_stages_takes_the_build_options_and_records_left_out_stages_as_zero(stages):
    tpl_docs, _, _ = generate_corpus(_mini_spec(planted_reuse={}))
    options = dict(dim=64, theta1=0.9, theta2=0.4, seed=5, stages=stages)
    timings, repo = time_stages(tpl_docs, **options)
    assert repo == build_repository(tpl_docs, **options)
    assert timings.origin_s > 0.0
    for stage in ("export", "mi", "weights"):
        assert (getattr(timings, stage + "_s") > 0.0) == (stage in repo.config.stages)
    assert timings.total_s == timings.export_s + timings.mi_s + timings.weights_s


def test_time_stages_holds_at_most_two_parsed_documents():
    # while the next document is parsed, the loop over the previous one
    # may still name it; materializing the input would keep every one alive
    tpl_docs, _, _ = generate_corpus(_mini_spec(library_count=5, planted_reuse={}))
    parsed, alive_at_parse = [], []
    _, repo = time_stages(_lazy(tpl_docs, parsed, alive_at_parse), dim=64)
    assert len(parsed) == 5 and len(repo.libraries) == 5
    assert max(alive_at_parse) <= 2, alive_at_parse


def test_timings_round_trip(tmp_path):
    timings = StageTimings(0.125, 0.0625, 0.03125)
    path = tmp_path / "timings.json"
    write_timings(timings, path)
    assert read_timings(path) == timings


@pytest.mark.parametrize("text", ["{broken", '{"export_s": 1.0}',
                                  '{"export_s": NaN, "mi_s": 0, "weights_s": 0}'])
def test_read_timings_rejects_malformed(tmp_path, text):
    path = tmp_path / "timings.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError):
        read_timings(path)


def test_timings_file_carries_origin_and_keeps_total_meaning(tmp_path):
    timings = StageTimings(0.125, 0.0625, 0.03125, origin_s=2.5)
    path = tmp_path / "timings.json"
    write_timings(timings, path)
    raw = json.loads(path.read_text(encoding="utf-8"))
    assert raw["origin_s"] == 2.5
    assert raw["total_s"] == 0.125 + 0.0625 + 0.03125  # origin is not a stage
    assert read_timings(path) == timings


def test_timing_file_is_indented_with_sorted_keys(tmp_path):
    path = tmp_path / "timings.json"
    write_timings(StageTimings(0.5, 0.25, 1.0, origin_s=2.0), path)
    assert path.read_text(encoding="utf-8") == (
        '{\n  "export_s": 0.5,\n  "mi_s": 0.25,\n  "origin_s": 2.0,\n'
        '  "total_s": 1.75,\n  "weights_s": 1.0\n}\n'
    )


def test_read_timings_accepts_a_file_without_origin(tmp_path):
    path = tmp_path / "timings.json"
    path.write_text('{"export_s": 0.5, "mi_s": 0.25, "weights_s": 1, "total_s": 1.75}',
                    encoding="utf-8")
    assert read_timings(path) == StageTimings(0.5, 0.25, 1)
    assert read_timings(path).origin_s is None


_STAGES = '"export_s": 0.5, "mi_s": 0.25, "weights_s": 1.0'


@pytest.mark.parametrize("data", [
    b"[0.5, 0.25, 1.0]",
    b'"timings"',
    b"\xff\xfe{}",
    b'{"export_s": "0.5", "mi_s": 0.25, "weights_s": 1.0}',
    b'{"export_s": 0.5, "mi_s": true, "weights_s": 1.0}',
    b'{"export_s": 0.5, "mi_s": 0.25, "weights_s": null}',
    ("{%s, \"origin_s\": [1.0]}" % _STAGES).encode(),
], ids=["array", "string", "not-utf8", "string-value", "bool-value", "null-value",
        "array-origin"])
def test_read_timings_raises_parse_error_for_non_objects_and_non_numbers(tmp_path, data):
    path = tmp_path / "timings.json"
    path.write_bytes(data)
    with pytest.raises(ParseError):
        read_timings(path)
