import logging
import math
import random
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from libsift import (
    AGG_MATCH_SUM,
    AGG_WEIGHTED_MEAN,
    AGGREGATION_MODES,
    BasicBlock,
    BinaryDocument,
    ComplexityProfile,
    ConfigError,
    EmbeddingError,
    FunctionRecord,
    FunctionFeature,
    Instruction,
    ParseError,
    ValidationError,
    aggregate,
    build_origin,
    build_repository,
    compute_weights,
    detect,
    detect_many,
    purify_export,
    purify_mi,
    read_reports,
    write_reports,
)
from libsift import detector
from libsift.detector import embed_target
from libsift.embedding import function_vectors, unit_rows

import reference
from corpora import one_block
from reference import EXACT_CORPORA, EXACT_DIM, exact_thresholds

DIM = 256


def _feature(name, vector, weight=1.0, lib="libx"):
    vector = np.asarray(vector, dtype=np.float64)
    return FunctionFeature(
        library_id=lib,
        function_name=name,
        vector=vector / np.linalg.norm(vector),
        profile=ComplexityProfile(hv=10.0, loc=3, cc=1, mi=120.0),
        is_export=True,
        weight=weight,
    )


_MNEMS = "add sub mul xor shl shr cmp test lea mov or and adc sbb bt".split()
_REGS = "rax rbx rcx rdx rsi rdi r8 r9 r10 r11 r12 r13".split()


def _rand_fn(rng, name, *, is_export=True):
    """Random body with per-instruction registers so distinct functions do
    not collide under the similarity threshold."""
    instrs = []
    for _ in range(rng.randint(6, 14)):
        ops = tuple(rng.sample(_REGS, 2))
        if rng.random() < 0.3:
            ops = (ops[0], "0x%x" % rng.randint(0, 4095))
        instrs.append(Instruction(rng.choice(_MNEMS), ops))
    return FunctionRecord(name, ".text", is_export, [BasicBlock(0, instrs)], [])


def _corpus(seed=0):
    rng = random.Random(seed)
    docs = []
    for li in range(3):
        functions = [
            _rand_fn(rng, "l%d_f%02d" % (li, fi)) for fi in range(8)
        ]
        docs.append(BinaryDocument("lib%03d" % li, "tpl", functions))
    return docs


def _external_repository(docs, rng, stages=("export", "weights")):
    """A dim-16 repository of `docs` from Gaussian vectors drawn from `rng`."""
    table = {doc.binary_id: {fn.name: rng.standard_normal(16) for fn in doc.functions}
             for doc in docs}
    return build_repository(docs, dim=16, stages=stages, vectors=lambda doc: table[doc.binary_id])


def _copy_target(doc, binary_id="bin000"):
    functions = [
        FunctionRecord("t_%s" % fn.name, fn.section, False, fn.blocks, fn.edges)
        for fn in doc.functions
    ]
    return BinaryDocument(binary_id, "target", functions)


# ---------------------------------------------------------------------------
# aggregation

def test_weighted_mean_frozen_value():
    # hand-built cosines 0.9 and 0.5 with weights 0.3 and 0.1:
    # (0.3*0.9 + 0.1*0.5) / 0.4 == 0.8
    b = np.zeros(4)
    b[0] = 1.0
    f1 = np.array([0.9, math.sqrt(1 - 0.81), 0.0, 0.0])
    f2 = np.array([0.5, 0.0, math.sqrt(0.75), 0.0])
    feats = [_feature("f1", f1, 0.3), _feature("f2", f2, 0.1)]
    score, evidence = aggregate([b], ["q"], feats)
    assert score == pytest.approx(0.8, abs=1e-12)
    assert [e.cosine for e in evidence] == pytest.approx([0.9, 0.5], abs=1e-12)
    assert [e.binary_function for e in evidence] == ["q", "q"]


def test_match_sum_frozen_value():
    # per binary function, the best weighted match: max(0.27, 0.05) == 0.27
    b = np.zeros(4)
    b[0] = 1.0
    f1 = np.array([0.9, math.sqrt(1 - 0.81), 0.0, 0.0])
    f2 = np.array([0.5, 0.0, math.sqrt(0.75), 0.0])
    feats = [_feature("f1", f1, 0.3), _feature("f2", f2, 0.1)]
    score, evidence = aggregate([b], ["q"], feats, mode=AGG_MATCH_SUM)
    assert score == pytest.approx(0.27, abs=1e-12)
    assert len(evidence) == 1
    assert evidence[0].library_function == "f1"
    assert evidence[0].contribution == pytest.approx(0.27, abs=1e-12)


def test_weighted_mean_all_weights_zero_scores_zero():
    rng = np.random.default_rng(3)
    feats = [_feature("f%d" % i, rng.standard_normal(8), 0.0) for i in range(4)]
    score, evidence = aggregate(rng.standard_normal((3, 8)), list("abc"), feats)
    assert score == 0.0
    assert all(e.contribution == 0.0 for e in evidence)


@pytest.mark.parametrize("mode,seed,features,rows",
                         [(AGG_WEIGHTED_MEAN, 4, 7, 5), (AGG_MATCH_SUM, 5, 6, 4)])
def test_contributions_sum_to_the_unnormalized_score(mode, seed, features, rows):
    # raw Gaussian rows on the default path, arbitrary weights
    rng = np.random.default_rng(seed)
    feats = [_feature("f%d" % i, rng.standard_normal(16), rng.uniform(0.1, 2.0))
             for i in range(features)]
    score, evidence = aggregate(rng.standard_normal((rows, 16)), ["b%d" % i for i in range(rows)],
                                feats, mode=mode)
    # exactly, summed left to right as a += loop from 0.0: the score and
    # the evidence come from two functions.  Not sum(), which compensates
    # its sum from Python 3.12 on
    total = total_weight = 0.0
    for e in evidence:
        total += e.contribution
        total_weight += e.weight
    if mode == AGG_MATCH_SUM:
        assert total == score
        assert len(evidence) == rows  # one row per binary function
    else:
        assert total / total_weight == score


def test_weighted_mean_is_invariant_to_weight_rescaling():
    rng = np.random.default_rng(6)
    vectors = [rng.standard_normal(12) for _ in range(5)]
    weights = [rng.uniform(0.2, 1.5) for _ in range(5)]
    queries = rng.standard_normal((4, 12))
    names = ["b%d" % i for i in range(4)]
    base, _ = aggregate(
        queries, names, [_feature("f%d" % i, v, w) for i, (v, w) in enumerate(zip(vectors, weights))]
    )
    scaled, _ = aggregate(
        queries, names, [_feature("f%d" % i, v, w * 7.0) for i, (v, w) in enumerate(zip(vectors, weights))]
    )
    assert scaled == pytest.approx(base, abs=1e-12)


def test_aggregate_rejects_bad_inputs():
    feats = [_feature("f", np.ones(4))]
    with pytest.raises(ConfigError):
        aggregate(np.ones((1, 4)), ["q"], feats, mode="geometric")
    with pytest.raises(ValueError):
        aggregate(np.ones((1, 4)), ["q"], [])
    with pytest.raises(EmbeddingError):
        aggregate(np.zeros((1, 4)), ["q"], feats)
    for normalized in (False, True):
        for names in (["q"], ["q", "r", "s"]):  # fewer, then more, names than rows
            with pytest.raises(ValueError, match="names"):
                aggregate(np.eye(4)[:2], names, feats, normalized=normalized)


def test_aggregate_rejects_a_dimension_mismatch():
    # aggregate is public: it checks its rows' dimension itself, since the
    # kernels it calls take their preconditions on trust
    feats = [_feature("f", np.ones(4))]
    for normalized in (False, True):
        for rows in (np.eye(3), np.ones((2, 5)), np.ones((1, 1, 4))):
            with pytest.raises(ValueError, match="dimension mismatch"):
                aggregate(rows, ["q%d" % i for i in range(len(rows))], feats,
                          normalized=normalized)


@pytest.mark.parametrize("mode", [AGG_WEIGHTED_MEAN, AGG_MATCH_SUM])
def test_aggregate_on_unit_rows_gives_the_same_bits(mode):
    # 600 rows: two best_match query blocks, five match-sum blocks
    rng = np.random.default_rng(7)
    raw = rng.standard_normal((600, 32)) * rng.uniform(0.1, 50.0, (600, 1))
    names = ["b%03d" % i for i in range(600)]
    feats = [_feature("f%d" % i, rng.standard_normal(32), rng.uniform(0.1, 2.0))
             for i in range(40)]
    want_score, want = aggregate(raw, names, feats, mode=mode)
    got_score, got = aggregate(unit_rows(raw), names, feats, mode=mode, normalized=True)
    assert got_score == want_score
    assert [astuple(e) for e in got] == [astuple(e) for e in want]


@pytest.mark.parametrize("mode", [AGG_WEIGHTED_MEAN, AGG_MATCH_SUM])
def test_reduce_scores_gives_each_weight_row_its_own_bits(mode):
    # the 2-D accumulate along each row sums as that row alone: a sweep
    # cell scores as the detect of its one weighting
    rng = np.random.default_rng(8)
    for rows, cols in ((1, 1), (3, 7), (600, 40), (40, 600)):
        bin_mat = unit_rows(rng.standard_normal((rows, 16)))
        lib_mat = unit_rows(rng.standard_normal((cols, 16)))
        # a column slice, as a group's rows are cut from a weighting
        weights = rng.uniform(0.0, 3.0, (5, cols + 4))[:, 2:2 + cols]
        weights[1] = 0.0  # an all-zero weighting scores 0
        weights[2, ::2] = 0.0
        weights[3] = rng.uniform(1e-6, 1e-3, cols)
        sims, _ = detector.match_library(bin_mat, lib_mat, mode)
        got = detector.reduce_scores(sims, weights, mode)
        want = [detector.reduce_scores(sims, row[None, :], mode)[0].item() for row in weights]
        assert got.tolist() == want
        assert [math.copysign(1.0, x) for x in got.tolist()] == [
            math.copysign(1.0, x) for x in want]


@pytest.mark.parametrize("mode", [AGG_WEIGHTED_MEAN, AGG_MATCH_SUM])
def test_reduce_scores_sums_left_to_right(mode):
    # a += loop from 0.0 stays at 1.0, as each 1e-16 is under half an ulp
    # of 1.0; pairwise summation (ndarray.sum) adds the 1e-16s to each
    # other first and ends above 1.0.  Unit weights make the weighted
    # mean's terms the cosines and its weight total exactly 16.0
    terms = np.array([1.0] + [1e-16] * 15)
    sims = terms if mode == AGG_WEIGHTED_MEAN else np.stack([terms, terms / 2, -terms], axis=1)
    weights = np.ones(sims.shape[-1])
    total = 0.0
    for term in terms.tolist():
        total += term
    assert total == 1.0 and float(terms.sum()) != total
    want = total if mode == AGG_MATCH_SUM else total / 16.0
    assert detector.reduce_scores(sims, weights[None, :], mode).tolist() == [want]


# ---------------------------------------------------------------------------
# end-to-end detection

def test_detect_full_copy_scores_near_one():
    docs = _corpus(seed=1)
    repo = build_repository(docs, dim=DIM, stages=("export", "weights"))
    report = detect(_copy_target(docs[0]), repo, theta3=0.89)
    scores = {e.library_id: e for e in report.entries}
    assert scores["lib000"].score == pytest.approx(1.0, abs=1e-9)
    assert scores["lib000"].decision is True
    for other in ("lib001", "lib002"):
        assert scores[other].score < 0.89
        assert scores[other].decision is False
    assert report.decided() == {"lib000"}


def test_detect_normalizes_the_target_once(monkeypatch):
    docs = _corpus(seed=1)
    repo = build_repository(docs, dim=DIM, stages=("export", "weights"))
    assert len(repo.libraries) >= 3
    # 13 rows, so no 8-feature library block has the target's row count
    target = BinaryDocument("bin000", "target",
                            _copy_target(docs[0]).functions + docs[1].functions[:5])
    rows = len(embed_target(target, repo.config)[0])
    normalized, aggregated = [], []

    def counting_unit_rows(mat):
        out = unit_rows(mat)
        if len(mat) == rows:
            normalized.append(out)
        return out

    def recording_aggregate(bin_vectors, *args, **kwargs):
        aggregated.append(bin_vectors)
        return aggregate(bin_vectors, *args, **kwargs)

    monkeypatch.setattr(detector, "unit_rows", counting_unit_rows)
    monkeypatch.setattr(detector, "aggregate", recording_aggregate)
    report = detect(target, repo)
    assert len(normalized) == 1
    assert len(aggregated) == len(report.entries) == len(repo.libraries)
    assert all(mat is normalized[0] for mat in aggregated)


def test_embed_target_returns_unit_rows_or_none():
    docs = _corpus(seed=1)
    target = BinaryDocument("bin000", "target", _copy_target(docs[0]).functions
                            + [one_block("s", ["jmp"], section=".plt")])
    stub = BinaryDocument("binstub", "target", [one_block("s", ["jmp"], section=".plt")])
    rng = np.random.default_rng(0)
    table = {fn.name: rng.standard_normal(16).astype(np.float32) for fn in target.functions}
    hashed = build_repository(docs, dim=DIM, stages=("export", "weights"))
    external = _external_repository(docs, np.random.default_rng(1))
    for repo, vectors in ((hashed, None), (external, lambda doc: table)):
        names, mat = embed_target(target, repo.config, vectors=vectors)
        kept, raw = function_vectors(target, repo.config.dim, repo.config.seed, vectors=vectors)
        assert names == [fn.name for fn in kept] == [fn.name for fn in target.functions[:-1]]
        assert mat.dtype == np.float64 and mat.flags.c_contiguous
        assert mat.shape == (len(names), repo.config.dim)
        # one unit_rows pass over the embedder's matrix, so the same bits
        assert np.array_equal(mat, unit_rows(raw))
        np.testing.assert_allclose(np.linalg.norm(mat, axis=1), 1.0, atol=1e-12)
        assert embed_target(stub, repo.config, vectors=vectors) == ([], None)


def test_detect_entries_are_sorted_and_echo_config():
    docs = _corpus(seed=2)
    repo = build_repository(docs, dim=DIM, stages=("export", "weights"))
    report = detect(_copy_target(docs[1]), repo, theta3=0.9)
    assert [e.library_id for e in report.entries] == ["lib000", "lib001", "lib002"]
    assert report.config == {
        "theta1": 0.8,
        "theta2": 0.2,
        "theta3": 0.9,
        "mode": AGG_WEIGHTED_MEAN,
        "dim": DIM,
        "embedder": repo.config.embedder,
        "seed": repo.config.seed,
        "batch": 128,
    }


def test_detect_decision_threshold_is_inclusive():
    # zero-weight features force an exact 0.0 score; theta3=0 must decide yes
    feats = [_feature("f", [1.0, 0.0, 0.0, 0.0], 0.0)]
    score, _ = aggregate(np.ones((1, 4)), ["q"], feats)
    assert score == 0.0
    assert (score >= 0.0) is True

    docs = _corpus(seed=3)
    repo = build_repository(docs, dim=DIM, stages=("export", "weights"))
    report = detect(_copy_target(docs[0]), repo, theta3=-1.0)
    assert all(e.decision for e in report.entries)


def test_detect_match_sum_mode():
    docs = _corpus(seed=4)
    repo = build_repository(docs, dim=DIM, stages=("export", "weights"))
    report = detect(
        _copy_target(docs[0]), repo, theta3=0.5, mode=AGG_MATCH_SUM
    )
    own = next(e for e in report.entries if e.library_id == "lib000")
    # every binary function finds its identical twin at cosine ~1, so the
    # sum approaches the total feature weight of the library
    want = sum(f.weight for f in repo.libraries["lib000"])
    assert own.score == pytest.approx(want, rel=1e-6)
    assert own.evidence and len(own.evidence) == 8


def test_detect_empty_target_after_filtering(caplog):
    docs = _corpus(seed=5)
    repo = build_repository(docs, dim=DIM, stages=("export", "weights"))
    stub_doc = BinaryDocument(
        "binstub", "target", [one_block("s", ["jmp"], section=".plt")]
    )
    with caplog.at_level(logging.WARNING):
        report = detect(stub_doc, repo)
    assert report.entries == []
    assert any("empty after section filtering" in r.message for r in caplog.records)


def test_detect_emptied_library_scores_zero(caplog):
    docs = _corpus(seed=6)
    docs.append(
        BinaryDocument(
            "libpriv", "tpl", [one_block("p", ["add", "sub"], is_export=False)]
        )
    )
    repo = build_repository(docs, dim=DIM, stages=("export", "weights"))
    with caplog.at_level(logging.WARNING):
        report = detect(_copy_target(docs[0]), repo)
    emptied = next(e for e in report.entries if e.library_id == "libpriv")
    assert emptied.score == 0.0
    assert emptied.decision is False
    assert emptied.evidence == []
    assert any("no retained features" in r.message for r in caplog.records)


def test_detect_validates_arguments():
    docs = _corpus(seed=7)
    repo = build_repository(docs, dim=DIM, stages=("export", "weights"))
    target = _copy_target(docs[0])
    with pytest.raises(ConfigError, match="mode"):
        detect(target, repo, mode="votes")
    with pytest.raises(ConfigError, match="theta3"):
        detect(target, repo, theta3=1.5)


def test_detect_external_repository_requires_target_vectors():
    docs = _corpus(seed=8)
    rng = np.random.default_rng(0)
    repo = _external_repository(docs, rng)
    target = _copy_target(docs[0])
    with pytest.raises(ConfigError, match="external"):
        detect(target, repo)
    with pytest.raises(EmbeddingError, match="no vector supplied"):
        detect(target, repo, vectors=lambda doc: {"t_l0_f00": np.ones(16)})
    good = {fn.name: rng.standard_normal(16) for fn in target.functions}
    report = detect(target, repo, vectors=lambda doc: good)
    assert len(report.entries) == 3


def test_detect_refuses_external_vectors_for_a_hashed_repository():
    docs = _corpus(seed=8)
    repo = build_repository(docs, dim=DIM, stages=("export", "weights"))
    target = _copy_target(docs[0])
    rng = np.random.default_rng(2)
    foreign = {fn.name: rng.standard_normal(DIM) for fn in target.functions}
    calls = []
    with pytest.raises(ConfigError, match="mix embedding spaces"):
        detect(target, repo, vectors=lambda doc: calls.append(doc) or foreign)
    assert calls == []


def test_detect_external_vector_shape_and_norm_checks():
    docs = _corpus(seed=9)
    repo = _external_repository(docs, np.random.default_rng(1))
    target = _copy_target(docs[0])
    bad_shape = {fn.name: np.ones(9) for fn in target.functions}
    with pytest.raises(EmbeddingError, match="shape"):
        detect(target, repo, vectors=lambda doc: bad_shape)
    bad_norm = {fn.name: np.zeros(16) for fn in target.functions}
    with pytest.raises(EmbeddingError, match="zero or overflowing norm"):
        detect(target, repo, vectors=lambda doc: bad_norm)


@settings(max_examples=40)
@given(corpus=EXACT_CORPORA, data=st.data())
@pytest.mark.parametrize("mode", AGGREGATION_MODES)
def test_detect_equals_the_reference_at_attained_scores(mode, corpus, data):
    tpl_docs, target_docs, _, read = corpus
    repo = build_origin(tpl_docs, dim=EXACT_DIM, vectors=read)
    if data.draw(st.booleans(), "export"):
        repo = purify_export(repo)
    if data.draw(st.booleans(), "mi"):
        repo = purify_mi(repo, data.draw(st.sampled_from(exact_thresholds(repo)[1]), "theta2"))
    repo = compute_weights(repo, data.draw(st.sampled_from(exact_thresholds(repo)[0]), "theta1"))
    for doc in target_docs:
        names, mat = embed_target(doc, repo.config, vectors=read)
        rows = [] if mat is None else mat.tolist()
        scores = [entry[1] for entry in reference.detect(names, rows, repo.libraries, 1.0, mode)]
        theta3 = data.draw(st.sampled_from([s for s in scores if -1.0 <= s <= 1.0] or [1.0]),
                           "theta3")
        report = detect(doc, repo, theta3=theta3, mode=mode, vectors=read)
        # the reference's score sums its rows' contributions left to right
        # (over the weights in core-weighted-mean): so must detect's
        assert [(e.library_id, e.score, e.decision, [astuple(m) for m in e.evidence])
                for e in report.entries] == reference.detect(names, rows, repo.libraries,
                                                               theta3, mode)


def test_detect_many_refuses_a_target_given_twice_before_reading_it_again():
    docs = _corpus(seed=8)
    rng = np.random.default_rng(0)
    repo = _external_repository(docs, rng, stages=())
    target = _copy_target(docs[0])
    good = {fn.name: rng.standard_normal(16) for fn in target.functions}
    calls = []
    with pytest.raises(ValidationError, match="target 'bin000' given twice"):
        detect_many(iter([target, _copy_target(docs[0])]), repo,
                    vectors=lambda doc: calls.append(doc.binary_id) or good)
    assert calls == ["bin000"]


def test_detect_many_preserves_order():
    docs = _corpus(seed=10)
    repo = build_repository(docs, dim=DIM, stages=("export", "weights"))
    targets = [_copy_target(docs[i], "bin%03d" % i) for i in range(3)]
    reports = detect_many(targets, repo, theta3=0.89)
    assert [r.binary_id for r in reports] == ["bin000", "bin001", "bin002"]
    for i, report in enumerate(reports):
        assert report.decided() == {"lib%03d" % i}


# ---------------------------------------------------------------------------
# report files

def test_report_round_trip_is_exact(tmp_path):
    docs = _corpus(seed=11)
    repo = build_repository(docs, dim=DIM)
    targets = [_copy_target(docs[i], "bin%03d" % i) for i in range(2)]
    reports = detect_many(targets, repo, theta3=0.89)
    path = tmp_path / "reports.jsonl"
    write_reports(reports, path)
    back = read_reports(path)
    assert back == reports
    # float fields survive the trip bit-for-bit
    for orig, rt in zip(reports, back):
        for e_orig, e_rt in zip(orig.entries, rt.entries):
            assert e_orig.score == e_rt.score
            for m_orig, m_rt in zip(e_orig.evidence, e_rt.evidence):
                assert m_orig.cosine == m_rt.cosine
                assert m_orig.contribution == m_rt.contribution


def test_read_reports_rejects_bad_json(tmp_path):
    path = tmp_path / "reports.jsonl"
    path.write_text('{"binary_id": "b", "config": {}, "entries": []}\n{oops\n',
                    encoding="utf-8")
    with pytest.raises(ParseError) as err:
        read_reports(path)
    assert err.value.line == 2


def test_read_reports_rejects_missing_fields(tmp_path):
    path = tmp_path / "reports.jsonl"
    path.write_text('{"binary_id": "b"}\n', encoding="utf-8")
    with pytest.raises(ParseError) as err:
        read_reports(path)
    assert err.value.line == 1
    assert "entries" in str(err.value)


def test_read_reports_skips_blank_lines(tmp_path):
    docs = _corpus(seed=12)
    repo = build_repository(docs, dim=DIM)
    reports = [detect(_copy_target(docs[0]), repo)]
    path = tmp_path / "reports.jsonl"
    write_reports(reports, path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n\n")
    assert read_reports(path) == reports
