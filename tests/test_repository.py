import functools
import itertools
import json
import logging
import math
import random
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from libsift import (
    ALL_STAGES,
    BasicBlock,
    BinaryDocument,
    ConfigError,
    EmbeddingError,
    FunctionRecord,
    HashedNgramEmbedder,
    Instruction,
    ParseError,
    RepositoryChecksumError,
    RepositoryError,
    RepositoryVersionError,
    RepoConfig,
    SyntheticCorpusSpec,
    build_origin,
    build_repository,
    build_steps,
    compute_weights,
    filter_sections,
    generate_corpus,
    import_embeddings,
    load_manifest,
    load_repository,
    purify_export,
    purify_mi,
    save_document,
    save_manifest,
    save_repository,
    tfidf_weight,
)

from libsift import repository
from libsift.cli import main

import reference
from corpora import embed_calls, forge_lsr, one_block, random_document
from reference import EXACT_CORPORA, EXACT_DIM, exact_thresholds, some

DIM = 64


def _doc(binary_id, functions, kind="tpl"):
    return BinaryDocument(binary_id, kind, functions)


def _body(rng, n):
    pool = "add sub mul xor shl shr cmp test lea mov".split()
    return [rng.choice(pool) for _ in range(n)]


def _small_corpus(seed=0, libs=3, fns=6):
    rng = random.Random(seed)
    docs = []
    for li in range(libs):
        functions = []
        for fi in range(fns):
            functions.append(
                one_block(
                    "lib%d_fn%02d" % (li, fi),
                    _body(rng, rng.randint(4, 12)),
                    is_export=fi % 2 == 0,
                )
            )
        docs.append(_doc("lib%03d" % li, functions))
    return docs


# ---------------------------------------------------------------------------
# weight formula

def test_tfidf_weight_frozen_value():
    # (1/100) * ln(102/1), computed independently
    assert tfidf_weight(1, 100, 102, 0) == pytest.approx(
        0.04624972813284271, abs=1e-15
    )


def test_tfidf_weight_zero_idf_is_exact_zero():
    # matched in every other library: ln(3/3) == 0 exactly
    assert tfidf_weight(5, 10, 3, 2) == 0.0


def test_tfidf_weight_monotonicity():
    assert tfidf_weight(4, 10, 8, 0) > tfidf_weight(2, 10, 8, 0)
    assert tfidf_weight(2, 10, 8, 0) > tfidf_weight(2, 10, 8, 3)


# ---------------------------------------------------------------------------
# origin extraction

def test_build_origin_one_feature_per_function():
    docs = _small_corpus()
    repo = build_origin(docs, dim=DIM)
    assert set(repo.libraries) == {"lib000", "lib001", "lib002"}
    assert repo.feature_count() == 18
    feats = repo.libraries["lib001"]
    assert [f.function_name for f in feats] == [
        "lib1_fn%02d" % i for i in range(6)
    ]
    for f in feats:
        assert f.vector.shape == (DIM,)
        assert np.linalg.norm(f.vector) == pytest.approx(1.0, abs=1e-12)
        assert f.weight == 1.0 and f.df == 0 and f.n_in_library == 1
    assert repo.config.stages == ()
    assert [s.stage for s in repo.stats] == ["origin"]
    assert repo.stats[0].functions == 18
    assert repo.stats[0].leave_percent == 1.0
    assert build_origin(iter(docs), dim=DIM) == repo


def test_build_origin_filters_linkage_sections():
    keep = one_block("real", ["add", "sub", "xor"])
    stub = one_block("stub", ["jmp"], section=".plt")
    repo = build_origin([_doc("libx", [keep, stub])], dim=DIM)
    assert [f.function_name for f in repo.libraries["libx"]] == ["real"]


def test_build_origin_rejects_target_documents():
    doc = _doc("binx", [one_block("f", ["ret"])], kind="target")
    with pytest.raises(RepositoryError, match="kind"):
        build_origin([doc], dim=DIM)


def test_build_origin_rejects_duplicate_library():
    doc = _doc("libx", [one_block("f", ["ret"])])
    with pytest.raises(RepositoryError, match="duplicate"):
        build_origin([doc, doc], dim=DIM)


@pytest.mark.parametrize("docs", [[], iter([])], ids=["list", "iterator"])
def test_build_origin_rejects_empty_corpus(docs):
    with pytest.raises(RepositoryError, match="empty"):
        build_origin(docs, dim=DIM)


def test_build_origin_warns_on_stub_only_library(caplog):
    doc = _doc("libstubs", [one_block("s", ["jmp"], section=".plt")])
    with caplog.at_level(logging.WARNING):
        repo = build_origin([doc], dim=DIM)
    assert repo.libraries["libstubs"] == []
    assert any("no functions" in r.message for r in caplog.records)


# ---------------------------------------------------------------------------
# deferred embedding: a build embeds what its stages keep, with the bytes
# that embedding each whole filtered document gives

_STAGE_SUBSETS = [s for n in range(len(ALL_STAGES) + 1)
                  for s in itertools.combinations(ALL_STAGES, n)]


@functools.lru_cache(maxsize=None)
def _calling_corpus():
    """Generated libraries whose functions also call the next function of
    their document and its .plt stub, so that a function's NEARFUNC and
    EXTFUNC tokens depend on the names of functions the stages drop."""
    tpl_docs, _, _ = generate_corpus(SyntheticCorpusSpec(
        library_count=4, functions_per_library=12, distractor_functions=0, rng_seed=3))
    docs = []
    for doc in tpl_docs:
        stub = next(fn.name for fn in doc.functions if fn.section == ".plt")
        functions = []
        for i, fn in enumerate(doc.functions):
            callee = doc.functions[(i + 1) % len(doc.functions)].name
            calls = BasicBlock(max(b.id for b in fn.blocks) + 1,
                               [Instruction("call", (callee,)), Instruction("call", (stub,))])
            functions.append(FunctionRecord(fn.name, fn.section, fn.is_export,
                                            fn.blocks + [calls], fn.edges))
        docs.append(_doc(doc.binary_id, functions))
    return docs


def _whole_document_rows(docs):
    """(library id, function name) -> vector bytes from embedding each
    whole filtered document at once."""
    embedder = HashedNgramEmbedder(DIM, 1)
    rows = {}
    for doc in docs:
        names, mat = embedder.embed_document(filter_sections(doc))
        rows.update(((doc.binary_id, name), row.tobytes()) for name, row in zip(names, mat))
    return rows


def test_every_stage_subset_keeps_the_whole_document_vectors(tmp_path):
    docs = _calling_corpus()
    want = _whole_document_rows(docs)
    for stages in _STAGE_SUBSETS:
        repo = build_repository(docs, dim=DIM, seed=1, stages=stages)
        got = {(f.library_id, f.function_name): f.vector.tobytes()
               for feats in repo.libraries.values() for f in feats}
        assert got and all(got[key] == want[key] for key in got), stages
        save_repository(repo, tmp_path / "repo.lsr")
        assert load_repository(tmp_path / "repo.lsr") == repo, stages


@pytest.mark.parametrize("stages", [ALL_STAGES, ("export",), (), ("weights",)],
                         ids=["default", "export", "none", "weights"])
def test_a_build_embeds_only_the_functions_its_stages_keep(stages, monkeypatch, tmp_path):
    docs = _calling_corpus()
    filtered = [fn for doc in docs for fn in filter_sections(doc).functions]
    calls = embed_calls(monkeypatch)
    repo = build_repository(docs, dim=DIM, stages=stages)
    save_repository(repo, tmp_path / "repo.lsr")
    rows = [len(doc.functions) for doc in calls]
    expected = {ALL_STAGES: repo.feature_count(),
                ("export",): sum(fn.is_export for fn in filtered)}.get(stages, len(filtered))
    assert expected == repo.feature_count() and sum(rows) == expected
    assert len(rows) <= len(docs)  # one call per library


@pytest.mark.parametrize("stages", [ALL_STAGES, ()], ids=["default", "none"])
def test_a_function_without_instructions_raises_embedding_error(stages):
    empty = FunctionRecord("empty", ".text", False, [BasicBlock(0, [])], [])
    doc = _doc("libx", [one_block("real", ["add", "sub", "xor"]), empty])
    with pytest.raises(EmbeddingError, match="empty token stream: function 'empty'"):
        build_repository([doc], dim=DIM, stages=stages)


def test_deferred_vectors_are_safe_to_read_from_several_threads():
    docs = _calling_corpus()
    want = _whole_document_rows(docs)
    feats = [f for feats in build_origin(docs, dim=DIM, seed=1).libraries.values()
             for f in feats]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            bulk = [pool.submit(repository.feature_vectors, feats) for _ in range(2)]
            single = [pool.submit(lambda: [f.vector for f in feats]) for _ in range(2)]
            results = [future.result(timeout=60) for future in bulk + single]
    finally:
        sys.setswitchinterval(interval)
    for vectors in results:
        assert [vec.tobytes() for vec in vectors] == [
            want[f.library_id, f.function_name] for f in feats]


# ---------------------------------------------------------------------------
# external vectors

def _external_table(docs, dim=DIM):
    rng = np.random.default_rng(9)
    table = {}
    for doc in docs:
        table[doc.binary_id] = {
            fn.name: rng.standard_normal(dim) for fn in doc.functions
        }
    return table


def test_external_vectors_mark_repo_and_normalize():
    docs = _small_corpus(seed=1, libs=2, fns=3)
    table = _external_table(docs)
    repo = build_origin(docs, dim=DIM, vectors=lambda doc: table[doc.binary_id])
    assert repo.config.embedder == "external"
    f = repo.libraries["lib000"][0]
    raw = table["lib000"][f.function_name]
    np.testing.assert_allclose(f.vector, raw / np.linalg.norm(raw), atol=1e-12)


@pytest.mark.parametrize(
    "breakage,needle",
    [
        (lambda t: t.pop("lib001"), "no vector supplied"),
        (lambda t: t["lib001"].pop("lib1_fn00"), "no vector supplied"),
        (lambda t: t["lib001"].update(lib1_fn00=np.ones(7)), "shape"),
        (lambda t: t["lib001"].update(lib1_fn00=np.zeros(DIM)), "zero or overflowing norm"),
        (
            lambda t: t["lib001"].update(lib1_fn00=np.full(DIM, np.nan)),
            "non-finite",
        ),
    ],
    ids=["no-library-table", "no-function-vector", "wrong-dimension", "zero-norm",
         "non-finite"],
)
def test_external_vector_validation(breakage, needle):
    docs = _small_corpus(seed=1, libs=2, fns=3)
    table = _external_table(docs)
    breakage(table)
    with pytest.raises(EmbeddingError, match=needle):
        build_origin(docs, dim=DIM, vectors=lambda doc: table.get(doc.binary_id, {}))


def _recording_reader(table):
    """(reader of `table`'s per-library entries, the binary ids it was
    called with, in order)."""
    calls = []

    def read(doc):
        calls.append(doc.binary_id)
        return table[doc.binary_id]

    return read, calls


def test_build_origin_reads_each_library_once_in_order():
    docs = _small_corpus(seed=1, libs=3, fns=3)
    read, calls = _recording_reader(_external_table(docs))
    build_origin(iter(docs), dim=DIM, vectors=read)
    assert calls == ["lib000", "lib001", "lib002"]


@pytest.mark.parametrize("refused", ["kind", "duplicate"])
def test_build_origin_never_reads_a_library_it_refuses(refused):
    docs = _small_corpus(seed=1, libs=2, fns=3)
    table = _external_table(docs)
    extra = docs[0] if refused == "duplicate" else _doc("bin", docs[1].functions, kind="target")
    table.setdefault(extra.binary_id, table["lib001"])
    read, calls = _recording_reader(table)
    with pytest.raises(RepositoryError, match=refused):
        build_origin(docs + [extra], dim=DIM, vectors=read)
    assert calls == ["lib000", "lib001"]


def test_a_library_that_section_filtering_empties_still_has_its_vectors_read():
    doc = _doc("libstubs", [one_block("s", ["jmp"], section=".plt")])
    bad = json.dumps({"doc_id": "libstubs", "dim": DIM}) + "\n" + json.dumps(
        {"function": "s", "values": [0.0] * DIM})
    read, calls = _recording_reader({"libstubs": {}})
    assert build_origin([doc], dim=DIM, vectors=read).libraries == {"libstubs": []}
    assert calls == ["libstubs"]
    with pytest.raises(EmbeddingError, match="zero or overflowing norm"):
        build_origin([doc], dim=DIM,
                      vectors=lambda doc: import_embeddings(doc, bad.encode("utf-8"), DIM))


# ---------------------------------------------------------------------------
# export purification

def test_purify_export_keeps_only_exports():
    repo = build_origin(_small_corpus(), dim=DIM)
    pure = purify_export(repo)
    for feats in pure.libraries.values():
        assert feats and all(f.is_export for f in feats)
    assert pure.feature_count() == 9
    assert pure.config.stages == ("export",)
    assert pure.stats[-1].stage == "export"
    assert pure.stats[-1].leave_percent == pytest.approx(0.5)
    # source repo is untouched
    assert repo.feature_count() == 18
    assert repo.config.stages == ()


def test_purify_export_warns_when_library_empties(caplog):
    doc = _doc("libpriv", [one_block("f", ["add", "sub"], is_export=False)])
    repo = build_origin([doc], dim=DIM)
    with caplog.at_level(logging.WARNING):
        pure = purify_export(repo)
    assert pure.libraries["libpriv"] == []
    assert any("no exported" in r.message for r in caplog.records)


@pytest.mark.parametrize(
    "stages, needle",
    [
        ((purify_export, purify_export), "already applied"),
        ((purify_export, purify_mi, purify_mi), "already applied"),
        ((purify_mi, purify_export), "before"),
        ((purify_export, purify_mi, compute_weights, compute_weights), "already applied"),
        ((purify_export, compute_weights, purify_mi), "before"),
        ((compute_weights, purify_export), "before"),
    ],
    ids=["export-twice", "mi-twice", "export-after-mi", "weights-twice", "mi-after-weights",
         "export-after-weights"],
)
def test_stage_order_is_enforced(stages, needle):
    repo = build_origin(_small_corpus(), dim=DIM)
    *applied, last = stages
    for stage in applied:
        repo = stage(repo)
    with pytest.raises(RepositoryError, match=needle):
        last(repo)


_STAGE_CALLS = {"export": purify_export, "mi": purify_mi, "weights": compute_weights}


@settings(max_examples=40)
@given(st.lists(st.sampled_from(sorted(_STAGE_CALLS)), max_size=5))
def test_any_stage_sequence_keeps_the_stage_rule(tmp_path_factory, calls):
    repo = build_origin(_small_corpus(), dim=DIM)
    path = tmp_path_factory.mktemp("staged") / "repo.lsr"
    for name in calls:
        try:
            repo = _STAGE_CALLS[name](repo)
        except RepositoryError:
            continue
        stages = list(repo.config.stages)
        assert stages == [s for s in ALL_STAGES if s in stages]
        assert [s.stage for s in repo.stats] == ["origin"] + [s for s in stages if s != "weights"]
        assert repo.stats[-1].functions == repo.feature_count()
        save_repository(repo, path)
        assert load_repository(path) == repo


# ---------------------------------------------------------------------------
# complexity filter

@settings(max_examples=60)
@given(corpus=EXACT_CORPORA, data=st.data())
def test_purify_mi_equals_the_reference_at_attained_shares(corpus, data):
    origin = build_origin(corpus[0], dim=EXACT_DIM, vectors=corpus[3])
    repo = data.draw(st.sampled_from([origin, purify_export(origin)]), "stage")
    theta2 = data.draw(st.one_of(st.sampled_from(exact_thresholds(repo)[1]),
                                 st.floats(0.05, 1.0)), "theta2")
    _check_purify_mi(repo, theta2)


def _check_purify_mi(repo, theta2):
    pure = purify_mi(repo, theta2)
    assert pure.libraries == reference.purify_mi(repo.libraries, theta2)
    assert pure.feature_count() / repo.feature_count() <= theta2 + 1e-12


def _seeded_mi_cases():
    """(libraries, theta2) of many distinct complexity values: ten corpora
    of three libraries (4-15 functions of 3-30 instructions, 0-3 self-loops)
    at theta2 from a list, then twenty of one library (2-60 functions of
    3-25 instructions, 0-2 self-loops) at theta2 uniform in [0.05, 1]."""
    rng = random.Random(7)
    for _ in range(10):
        docs = []
        for li in range(3):
            functions = [one_block("l%d_f%02d" % (li, fi), _body(rng, rng.randint(3, 30)),
                                   loops=rng.randint(0, 3)) for fi in range(rng.randint(4, 15))]
            docs.append(_doc("lib%d" % li, functions))
        yield docs, rng.choice([0.1, 0.2, 0.35, 0.5, 0.8, 1.0])
    rng = random.Random(11)
    for _ in range(20):
        functions = [one_block("f%03d" % i, _body(rng, rng.randint(3, 25)), loops=rng.randint(0, 2))
                     for i in range(rng.randint(2, 60))]
        yield [_doc("lib0", functions)], rng.uniform(0.05, 1.0)


@pytest.mark.parametrize("docs,theta2", _seeded_mi_cases())
def test_purify_mi_equals_the_reference_on_seeded_corpora(docs, theta2):
    _check_purify_mi(build_origin(docs, dim=DIM), theta2)


def test_purify_mi_drops_ties_at_cutoff():
    # eight simple copies tie at the top of the index scale; the cutoff
    # lands on their shared value and the whole tied block is dropped, so
    # retention undershoots theta2 and only the two complex bodies survive
    same = ["add", "sub", "xor", "mul"]
    functions = [one_block("tied%d" % i, same) for i in range(8)]
    functions.append(one_block("deep_a", _body(random.Random(1), 40), loops=3))
    functions.append(one_block("deep_b", _body(random.Random(2), 30), loops=2))
    repo = build_origin([_doc("lib0", functions)], dim=DIM)
    for theta2 in (0.5, 1.0):
        pure = purify_mi(repo, theta2)
        kept = sorted(f.function_name for f in pure.libraries["lib0"])
        assert kept == ["deep_a", "deep_b"]
        assert pure.stats[-1].leave_percent == pytest.approx(0.2)


def test_purify_mi_all_identical_retains_nothing(caplog):
    functions = [one_block("f%d" % i, ["add", "sub"]) for i in range(5)]
    repo = build_origin([_doc("lib0", functions)], dim=DIM)
    with caplog.at_level(logging.WARNING):
        pure = purify_mi(repo, 0.2)
    assert pure.feature_count() == 0
    assert any("retained nothing" in r.message for r in caplog.records)


@pytest.mark.parametrize("theta2", [0.0, -0.1, 1.2])
def test_purify_mi_rejects_bad_theta2(theta2):
    repo = build_origin(_small_corpus(), dim=DIM)
    with pytest.raises(ConfigError):
        purify_mi(repo, theta2)


def test_purify_mi_on_emptied_repository(caplog):
    doc = _doc("libpriv", [one_block("f", ["add"], is_export=False)])
    repo = purify_export(build_origin([doc], dim=DIM))
    with caplog.at_level(logging.WARNING):
        pure = purify_mi(repo, 0.2)
    assert pure.feature_count() == 0
    assert pure.stats[-1].functions == 0


# ---------------------------------------------------------------------------
# weighting

def _weights_and_reference(repo, thetas):
    """Yield (got, want) per theta1 in `thetas`: the (n, df, weight) rows
    of one `weight_rows` call at every theta1, once the weights stage has
    given the same at that theta1 alone, and the reference's rows."""
    rows = repository.weight_rows(repo, thetas)
    assert len(rows) == len(thetas)
    vectors = {lib_id: [f.vector for f in feats] for lib_id, feats in repo.libraries.items()}
    for theta, (weights, n, df) in zip(thetas, rows):
        got = list(zip(n.tolist(), df.tolist(), weights.tolist()))
        weighted = compute_weights(repo, theta).libraries.values()
        assert got == [(f.n_in_library, f.df, f.weight) for feats in weighted for f in feats]
        yield got, reference.weights(vectors, theta)


@pytest.mark.parametrize("case", ["planted-in-every-library", "emptied-library"])
def test_weights_equal_the_reference_on_hashed_vectors(case):
    if case == "planted-in-every-library":
        rng = random.Random(13)
        docs = []
        for li in range(4):
            functions = [one_block("l%d_f%02d" % (li, fi), _body(rng, rng.randint(3, 8)))
                         for fi in range(rng.randint(5, 10))]
            functions.append(one_block("l%d_shared" % li, ["add", "sub", "xor"]))
            docs.append(_doc("lib%d" % li, functions))
        repo, thetas = build_origin(docs, dim=DIM), (0.95,)
    else:  # an emptied library still counts in L
        docs = _small_corpus(seed=6) + [_doc("libpriv", [one_block("p", ["test", "ret"],
                                                                   is_export=False)])]
        repo, thetas = purify_export(build_origin(docs, dim=DIM)), (1.0, 0.95, 0.5, -1.0)
    for got, want in _weights_and_reference(repo, thetas):
        assert [row[:2] for row in got] == [row[:2] for row in want]
        assert [row[2] for row in got] == pytest.approx([row[2] for row in want], abs=1e-12)


@settings(max_examples=60)
@given(corpus=EXACT_CORPORA, data=st.data())
def test_counts_and_weights_equal_the_reference_at_attained_similarities(corpus, data):
    # weight_rows returns theta_counts' n and df; the export stage empties
    # libraries, which still count in L
    origin = build_origin(corpus[0], dim=EXACT_DIM, vectors=corpus[3])
    repo = data.draw(st.sampled_from([origin, purify_export(origin)]), "stage")
    for got, want in _weights_and_reference(
            repo, data.draw(some(exact_thresholds(repo)[0]), "theta1")):
        assert got == want


def test_compute_weights_self_only_when_theta1_is_one():
    docs = _small_corpus(seed=2)
    repo = build_origin(docs, dim=DIM)
    weighted = compute_weights(repo, 1.0)
    for lib_id, feats in weighted.libraries.items():
        size = len(feats)
        for f in feats:
            assert f.n_in_library == 1
            assert f.df == 0
            assert f.weight == pytest.approx(math.log(3) / size, abs=1e-12)


def test_compute_weights_is_order_invariant():
    docs = _small_corpus(seed=4)
    a = compute_weights(build_origin(docs, dim=DIM))
    b = compute_weights(build_origin(list(reversed(docs)), dim=DIM))
    for lib_id in a.libraries:
        wa = {f.function_name: f.weight for f in a.libraries[lib_id]}
        wb = {f.function_name: f.weight for f in b.libraries[lib_id]}
        assert wa == wb


def test_compute_weights_counts_emptied_libraries():
    # lib2 loses everything to export purification but still counts toward
    # the library total, so a unique function keeps idf = ln(3)
    docs = [
        _doc("lib0", [one_block("u0", ["add", "mul", "shl", "xor"])]),
        _doc("lib1", [one_block("u1", ["sub", "shr", "lea", "cmp", "not", "neg", "ror"],
                                reg="rbx")]),
        _doc("lib2", [one_block("p", ["test", "ret"], is_export=False)]),
    ]
    repo = purify_export(build_origin(docs, dim=DIM))
    weighted = compute_weights(repo)
    assert len(weighted.libraries) == 3
    f = weighted.libraries["lib0"][0]
    assert f.df == 0
    assert f.weight == pytest.approx(math.log(3), abs=1e-12)


def test_compute_weights_zero_idf_annihilates():
    # byte-identical function in all three libraries: df = 2, ln(3/3) = 0
    body = ["add", "sub", "xor", "mul", "shl"]
    docs = [
        _doc("lib%d" % i, [one_block("dup", body),
                           one_block("own%d" % i, _body(random.Random(i), 6))])
        for i in range(3)
    ]
    weighted = compute_weights(build_origin(docs, dim=DIM))
    for lib_id, feats in weighted.libraries.items():
        by_name = {f.function_name: f for f in feats}
        assert by_name["dup"].df == 2
        assert by_name["dup"].weight == 0.0


def test_compute_weights_on_empty_repository(caplog):
    doc = _doc("libpriv", [one_block("f", ["add"], is_export=False)])
    repo = purify_export(build_origin([doc], dim=DIM))
    with caplog.at_level(logging.WARNING):
        weighted = compute_weights(repo)
    assert weighted.libraries == {"libpriv": []}


# ---------------------------------------------------------------------------
# staged build

def test_build_repository_runs_stages_in_canonical_order():
    docs = _small_corpus(seed=5)
    # stage names arrive in the "wrong" order; the pipeline still applies
    # export, then the complexity filter, then weights
    repo = build_repository(docs, dim=DIM, stages=("weights", "mi", "export"))
    assert repo.config.stages == ("export", "mi", "weights")
    assert [s.stage for s in repo.stats] == ["origin", "export", "mi"]


def test_build_repository_rejects_unknown_stage():
    with pytest.raises(ConfigError, match="unknown stages"):
        build_repository(_small_corpus(), dim=DIM, stages=("export", "polish"))


def test_build_steps_free_the_origin_once_the_first_stage_has_run():
    steps = build_steps(_small_corpus(seed=7), dim=DIM)
    stage, origin = next(steps)
    origin = weakref.ref(origin)
    assert stage == "origin" and origin() is not None
    assert next(steps)[0] == "export"
    assert origin() is None
    assert [stage for stage, _ in steps] == ["mi", "weights"]


def test_build_repository_no_stages_is_origin():
    docs = _small_corpus(seed=6)
    assert build_repository(docs, dim=DIM, stages=()) == build_origin(docs, dim=DIM)


# ---------------------------------------------------------------------------
# persistence

def _full_repo(seed=8):
    return build_repository(_small_corpus(seed=seed), dim=DIM)


def test_save_load_round_trip(tmp_path):
    repo = _full_repo()
    path = tmp_path / "repo.lsr"
    save_repository(repo, path)
    back = load_repository(path)
    assert back == repo
    # vectors byte-exact
    for lib_id, feats in repo.libraries.items():
        for f, g in zip(feats, back.libraries[lib_id]):
            assert f.vector.tobytes() == g.vector.tobytes()


def test_save_is_deterministic(tmp_path):
    repo = _full_repo()
    save_repository(repo, tmp_path / "a.lsr")
    save_repository(repo, tmp_path / "b.lsr")
    assert (tmp_path / "a.lsr").read_bytes() == (tmp_path / "b.lsr").read_bytes()


@pytest.fixture(scope="module")
def embedded_origin():
    """A stages=() repository of 2,100 functions at the default dim, its
    vectors embedded; its file is about 13 MB."""
    tpl_docs, _, _ = generate_corpus(
        SyntheticCorpusSpec(library_count=10, functions_per_library=200))
    repo = build_repository(tpl_docs, stages=())
    repository.feature_vectors(f for feats in repo.libraries.values() for f in feats)
    return repo


def _traced_peak(call):
    """(result, the tracemalloc peak of `call()` above what was traced
    before it)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_save_joins_no_payload(embedded_origin, tmp_path):
    # the prefix, header and block go to the digest and the file unjoined,
    # so the peak is the block plus the norm check's temporary
    path = tmp_path / "repo.lsr"
    _, peak = _traced_peak(lambda: save_repository(embedded_origin, path))
    assert peak <= 2.5 * path.stat().st_size


def test_load_holds_the_file_and_one_copy_of_the_vector_block(embedded_origin, tmp_path):
    path = tmp_path / "repo.lsr"
    save_repository(embedded_origin, path)
    back, peak = _traced_peak(lambda: load_repository(path))
    assert back.feature_count() == embedded_origin.feature_count() == 2100
    assert peak <= 2.5 * path.stat().st_size
    vector = back.libraries["lib000"][0].vector
    assert vector.flags.writeable and vector.base.base is None  # not a view of the file


def test_an_empty_repository_saves_and_loads(tmp_path):
    # no vectors: the block concatenates no rows
    repo = build_repository([_doc("lib", [])], dim=DIM)
    assert repo.feature_count() == 0
    path = tmp_path / "repo.lsr"
    save_repository(repo, path)
    assert load_repository(path) == repo


def test_load_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.lsr"
    path.write_bytes(b"PNG....definitely not a repository")
    with pytest.raises(RepositoryError, match="not a repository"):
        load_repository(path)


def test_load_rejects_future_version(tmp_path):
    path = tmp_path / "repo.lsr"
    save_repository(_full_repo(), path)
    data = bytearray(path.read_bytes())
    data[6] = 99  # little-endian version field right after the magic
    path.write_bytes(bytes(data))
    with pytest.raises(RepositoryVersionError):
        load_repository(path)


def test_load_rejects_corrupted_payload(tmp_path):
    path = tmp_path / "repo.lsr"
    save_repository(_full_repo(), path)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(RepositoryChecksumError):
        load_repository(path)


def test_load_rejects_truncated_file(tmp_path):
    path = tmp_path / "repo.lsr"
    save_repository(_full_repo(), path)
    path.write_bytes(path.read_bytes()[:-40])
    with pytest.raises(RepositoryChecksumError):
        load_repository(path)


def _first_feature(header):
    return next(lib for lib in header["libraries"] if lib["features"])["features"][0]


@pytest.mark.parametrize(
    "edit, needle",
    [
        (lambda h: h.pop("config"), "lacks field 'config'"),
        (lambda h: _first_feature(h).pop("profile"), "lacks field 'profile'"),
        (lambda h: h.update(libraries={}), "'libraries' has the wrong type"),
        (lambda h: _first_feature(h).update(weight=float("nan")),
         "field 'weight' is not a finite number"),
        (lambda h: h["stats"][0].update(leave_percent=float("inf")),
         "field 'leave_percent' is not a finite number"),
        (lambda h: _first_feature(h)["profile"].update(mi=float("nan")),
         "field 'mi' is not a finite number"),
        (lambda h: h["config"].update(stages=["bogus"]), "field 'stages' must list distinct"),
        (lambda h: h["config"].update(stages=["mi", "mi"]), "field 'stages' must list distinct"),
        (lambda h: h["config"].update(stages=["weights", "export", "mi"]),
         "field 'stages' must list distinct"),
        (lambda h: h["stats"][1].update(stage="bogus"), "field 'stats' must hold"),
        (lambda h: h.update(stats=[]), "field 'stats' must hold"),
        (lambda h: h["stats"][-1].update(functions=h["stats"][-1]["functions"] + 1),
         "field 'stats' must hold"),
        (lambda h: h.update(format_version="x"), "'format_version' has the wrong type"),
        (lambda h: h.update(format_version=2), "field 'format_version' must be 1"),
    ],
    ids=["no-config", "feature-without-profile", "libraries-not-a-list", "nan-weight",
         "infinite-leave-percent", "nan-profile-mi", "unknown-stage", "repeated-stage",
         "stages-out-of-order", "bogus-stats-row", "empty-stats", "wrong-last-count",
         "format-version-not-int", "format-version-2"],
)
def test_load_rejects_malformed_header(tmp_path, capsys, edit, needle):
    path = tmp_path / "repo.lsr"
    save_repository(_full_repo(), path)
    path.write_bytes(forge_lsr(path.read_bytes(), lambda header, _: edit(header)))
    with pytest.raises(RepositoryError, match=needle):
        load_repository(path)
    assert main(["inspect", "--repo", str(path)]) == 1
    err = capsys.readouterr().err
    assert needle in err and "Traceback" not in err


# (index, value) per case: the assignment that spoils one row of a
# (features, dim) vector matrix
_BAD_ROWS = {"nan": ((0, 0), float("nan")), "inf": ((-1, 5), float("inf")),
             "-inf": ((3, 1), -float("inf")), "overflowing": ((4, slice(2)), 1e308),
             "all-zero": (7, 0.0)}


def _spoil(rows, bad):
    index, value = _BAD_ROWS[bad]
    rows[index] = value


def _edit_vectors(repo, bad):
    """`repo` with its vectors, as one (features, dim) matrix in library
    order, spoiled by `bad`."""
    rows = np.array([f.vector for feats in repo.libraries.values() for f in feats])
    _spoil(rows, bad)
    rows = iter(rows)
    for lib_id, feats in repo.libraries.items():
        repo.libraries[lib_id] = [replace(f, vector=next(rows)) for f in feats]
    return repo


@pytest.mark.parametrize("bad", list(_BAD_ROWS))
def test_load_rejects_a_vector_block_with_a_bad_row(tmp_path, capsys, bad):
    path = tmp_path / "repo.lsr"
    save_repository(build_repository(_small_corpus(seed=8), dim=DIM, stages=()), path)
    path.write_bytes(forge_lsr(path.read_bytes(), lambda _, rows: _spoil(rows, bad)))
    with pytest.raises(RepositoryError, match="vector block: .*zero, non-finite or overflowing"):
        load_repository(path)
    target = tmp_path / "bin.jsonl"
    save_document(_doc("bin", _small_corpus(seed=8)[0].functions, kind="target"), target)
    for args in (["inspect", "--repo", str(path)],
                 ["detect", "--repo", str(path), "--targets", str(target),
                  "--out", str(tmp_path / "out.jsonl"), "--quiet"]):
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "vector block" in err and "Traceback" not in err
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize("bad", list(_BAD_ROWS))
def test_save_refuses_a_vector_load_would_refuse(tmp_path, bad):
    repo = _edit_vectors(build_repository(_small_corpus(seed=8), dim=DIM, stages=()), bad)
    path = tmp_path / "repo.lsr"
    with pytest.raises(RepositoryError, match="vector block: .*zero, non-finite or overflowing"):
        save_repository(repo, path)
    assert not path.exists()


@pytest.mark.parametrize("bad", list(_BAD_ROWS))
def test_weights_refuse_a_bad_vector(monkeypatch, bad):
    # unchecked, a NaN row matches nothing and gets df 0 and a full weight
    origin = _edit_vectors(build_repository(_small_corpus(seed=8), dim=DIM, stages=()), bad)
    with pytest.raises(EmbeddingError, match="zero, non-finite or overflowing"):
        compute_weights(origin)
    real = repository.build_origin
    monkeypatch.setattr(repository, "build_origin",
                        lambda *args, **kwargs: _edit_vectors(real(*args, **kwargs), bad))
    with pytest.raises(EmbeddingError, match="zero, non-finite or overflowing"):
        build_repository(_small_corpus(seed=8), dim=DIM, stages=("weights",))


def test_save_refuses_a_vector_of_another_dimension(tmp_path):
    repo = _full_repo()
    lib_id, feats = next((lib_id, feats) for lib_id, feats in repo.libraries.items() if feats)
    repo.libraries[lib_id] = [replace(feats[0], vector=np.ones(DIM + 1))] + feats[1:]
    path = tmp_path / "repo.lsr"
    with pytest.raises(RepositoryChecksumError, match="vector block has wrong length"):
        save_repository(repo, path)
    assert not path.exists()


@pytest.mark.parametrize("stages", [("weights", "export"), ("mi", "export"), ("mi", "mi"),
                                    ("bogus",), ("export", "weights", "mi")])
def test_config_refuses_stages_that_break_the_stage_rule(stages):
    # a config the loader would refuse can never be built, so it is never saved
    repo = _full_repo()
    with pytest.raises(ConfigError, match="stages must list distinct names"):
        replace(repo.config, stages=stages)
    with pytest.raises(ConfigError, match="stages must list distinct names"):
        RepoConfig(stages=stages)


def test_config_accepts_every_stage_order_a_build_can_reach():
    for k in range(len(ALL_STAGES) + 1):
        for stages in itertools.combinations(ALL_STAGES, k):
            assert RepoConfig(stages=stages).stages == stages


def test_loader_keeps_its_stage_message_for_a_header_config_would_refuse(tmp_path):
    path = tmp_path / "repo.lsr"
    save_repository(_full_repo(), path)
    path.write_bytes(forge_lsr(path.read_bytes(), lambda h, _: h["config"].update(
        stages=["weights", "export"])))
    with pytest.raises(RepositoryError) as err:
        load_repository(path)
    assert str(err.value) == ("repository header: field 'stages' must list distinct names "
                              "among export, mi, weights, in that order")


def test_round_trip_random_repositories(tmp_path):
    rng = random.Random(17)
    for trial in range(5):
        docs = [
            random_document(rng, "lib%02d" % i, kind="tpl")
            for i in range(rng.randint(1, 4))
        ]
        stages = ("export", "mi", "weights")[: rng.randint(0, 3)]
        repo = build_repository(docs, dim=32, stages=stages)
        path = tmp_path / ("r%d.lsr" % trial)
        save_repository(repo, path)
        assert load_repository(path) == repo


# ---------------------------------------------------------------------------
# manifests

def test_manifest_round_trip(tmp_path):
    manifest = {"bin0": {"libA", "libB"}, "bin1": set(), "bin2": {"libC"}}
    path = tmp_path / "manifest.json"
    save_manifest(manifest, path)
    assert load_manifest(path) == manifest


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        "[1, 2]",
        '{"bin0": "libA"}',
        '{"bin0": ["libA", 3]}',
    ],
)
def test_manifest_rejects_malformed_input(tmp_path, text):
    path = tmp_path / "manifest.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError):
        load_manifest(path)
