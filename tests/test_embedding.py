import gc
import json
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from libsift.embedding import (
    HashedNgramEmbedder,
    batched_similarity,
    cosine,
    function_vectors,
    import_embeddings,
    normalize,
    normalize_document,
)
from libsift.errors import EmbeddingError, ParseError
from libsift.interchange import BasicBlock, BinaryDocument, FunctionRecord, Instruction

from corpora import random_document, vector_file


def _fn(name, rows, edges=None, section=".text"):
    return FunctionRecord(
        name, section, True,
        [BasicBlock(0, [Instruction(r[0], tuple(r[1:])) for r in rows])],
        edges or [],
    )


# ---------------------------------------------------------------------------
# normalization

def test_registers_kept_verbatim_immediates_abstracted():
    toks = normalize(_fn("f", [["mov", "rax", "0x10"], ["add", "ecx", "-42"]]))
    assert toks == ["MNEMONIC:mov", "REG:rax", "IMM:IMM", "MNEMONIC:add", "REG:ecx", "IMM:IMM"]


def test_memory_operands_collapse_to_one_class():
    a = normalize(_fn("f", [["mov", "rax", "[rbp-0x8]"]]))
    b = normalize(_fn("f", [["mov", "rax", "qword ptr [rsp+rdi*4]"]]))
    assert a == b
    assert a[2] == "MEM:MEM"


def test_call_targets_split_by_locality():
    doc = BinaryDocument("bin", "target", [
        _fn("helper", [["ret"]]),
        _fn("f", [["call", "helper"], ["call", "memcpy"], ["ret"]]),
    ])
    streams = normalize_document(doc)
    assert streams["f"] == ["MNEMONIC:call", "NEARFUNC:NEARFUNC", "MNEMONIC:call",
                            "EXTFUNC:EXTFUNC", "MNEMONIC:ret"]


def test_conditional_jumps_are_branches():
    toks = normalize(_fn("f", [["jne", "loc_40"], ["loop", "loc_41"]]))
    assert toks == ["MNEMONIC:jne", "EXTFUNC:EXTFUNC", "MNEMONIC:loop", "EXTFUNC:EXTFUNC"]


def test_bare_symbol_on_data_instruction_is_memory():
    toks = normalize(_fn("f", [["lea", "rax", "some_table"]]))
    assert toks[2] == "MEM:MEM"


def test_block_id_order_defines_stream():
    blocks_a = [
        BasicBlock(0, [Instruction("mov", ("rax", "rbx"))]),
        BasicBlock(1, [Instruction("ret", ())]),
    ]
    fn_a = FunctionRecord("f", ".text", True, blocks_a, [(0, 1)])
    fn_b = FunctionRecord("f", ".text", True, list(reversed(blocks_a)), [(0, 1)])
    assert normalize(fn_a) == normalize(fn_b)


# ---------------------------------------------------------------------------
# embedding

def test_thunks_embed_identically():
    # forwarding stubs to different external symbols are the same after
    # abstraction, so their similarity is exactly 1.0
    e = HashedNgramEmbedder()
    a = e.embed_function(_fn("t1", [["jmp", "ext_000"]]))
    b = e.embed_function(_fn("t2", [["jmp", "ext_063"]]))
    assert np.array_equal(a, b)
    assert cosine(a, b) == 1.0


def test_different_registers_change_the_vector():
    e = HashedNgramEmbedder()
    a = e.embed_function(_fn("f", [["mov", "rax", "rbx"], ["ret"]]))
    b = e.embed_function(_fn("f", [["mov", "rcx", "rdx"], ["ret"]]))
    assert not np.array_equal(a, b)
    assert cosine(a, b) < 1.0


def test_vectors_unit_norm_and_deterministic():
    rng = random.Random(13)
    for i in range(40):
        doc = random_document(rng, "d%02d" % i)
        e1 = HashedNgramEmbedder(dim=64, seed=3)
        e2 = HashedNgramEmbedder(dim=64, seed=3)
        names, mat = e1.embed_document(doc)
        names2, mat2 = e2.embed_document(doc)
        assert names == names2
        assert np.array_equal(mat, mat2)
        np.testing.assert_allclose(np.linalg.norm(mat, axis=1), 1.0, atol=1e-12)


def test_seed_and_dim_matter():
    fn = _fn("f", [["mov", "rax", "rbx"], ["add", "rax", "0x1"], ["ret"]])
    base = HashedNgramEmbedder(dim=64, seed=1).embed_function(fn)
    reseeded = HashedNgramEmbedder(dim=64, seed=2).embed_function(fn)
    assert not np.array_equal(base, reseeded)
    widened = HashedNgramEmbedder(dim=128, seed=1).embed_function(fn)
    assert widened.shape == (128,)
    assert HashedNgramEmbedder(dim=64, seed=1).info == "hashed-ngram-v1/d64/s1"


def test_slot_cache_is_shared_per_dim_and_seed_and_safe_under_threads():
    assert HashedNgramEmbedder(64, 3)._slots is HashedNgramEmbedder(64, 3)._slots
    assert HashedNgramEmbedder(64, 3)._slots is not HashedNgramEmbedder(64, 4)._slots
    assert HashedNgramEmbedder(64, 3)._slots is not HashedNgramEmbedder(128, 3)._slots

    # a (dim, seed) pair no other test uses: many threads fill its cache
    # at once (through function_vectors, which pauses cyclic GC), then a
    # cleared cache must give the same vectors serially
    dim, seed = 96, 424242
    docs = [random_document(random.Random(i), "d%02d" % i) for i in range(24)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(HashedNgramEmbedder(dim, seed).embed_document, d)
                       for d in docs]
            futures += [pool.submit(function_vectors, d, dim, seed) for d in docs]
            threaded = [f.result(timeout=60)[1] for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert gc.isenabled()
    HashedNgramEmbedder(dim, seed)._slots.clear()
    for doc, mat, kept in zip(docs, threaded, threaded[len(docs):]):
        assert np.array_equal(HashedNgramEmbedder(dim, seed).embed_document(doc)[1], mat)
        want = function_vectors(doc, dim, seed)[1]
        assert (kept is None and want is None) or np.array_equal(want, kept)


def test_disjoint_token_streams_orthogonal_at_wide_dim():
    # at 4096 slots these few features land collision-free, so the dot
    # product is exactly zero
    e = HashedNgramEmbedder(dim=4096)
    a = e.embed_function(_fn("f", [["push", "rbp"], ["pop", "rbp"]]))
    b = e.embed_function(_fn("g", [["xorps", "xmm0", "xmm1"], ["sqrtsd", "xmm2", "xmm3"]]))
    assert cosine(a, b) == 0.0


def test_embedder_rejects_degenerate_dim():
    with pytest.raises(EmbeddingError):
        HashedNgramEmbedder(dim=1)


def test_embedder_rejects_seed_outside_signed_64_bits():
    HashedNgramEmbedder(dim=16, seed=-(2 ** 63))
    HashedNgramEmbedder(dim=16, seed=2 ** 63 - 1)
    for seed in (2 ** 63, -(2 ** 63) - 1, 10 ** 20):
        with pytest.raises(EmbeddingError, match="seed"):
            HashedNgramEmbedder(dim=16, seed=seed)


def test_empty_token_stream_rejected():
    with pytest.raises(EmbeddingError):
        HashedNgramEmbedder(dim=16).embed_tokens([])


# ---------------------------------------------------------------------------
# cosine and batching

def test_cosine_basics():
    assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert cosine([1.0, 0.0], [1.0, 0.0]) == 1.0
    assert cosine([1.0, 0.0], [-1.0, 0.0]) == -1.0
    assert cosine([3.0, 0.0], [3.0, 0.0]) == 1.0  # identical fast path
    with pytest.raises(EmbeddingError):
        cosine([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(EmbeddingError):
        cosine([1.0, 0.0], [1.0, 0.0, 0.0])


def test_cosine_clipped_to_valid_range():
    rng = np.random.default_rng(5)
    for _ in range(200):
        v = rng.standard_normal(32)
        w = v * rng.uniform(0.5, 2.0)
        assert -1.0 <= cosine(v, w) <= 1.0


def test_batched_similarity_matches_pairwise_cosine():
    rng = np.random.default_rng(17)
    q = rng.standard_normal((23, 48))
    k = rng.standard_normal((31, 48))
    sims = batched_similarity(q, k, batch=7)
    for i in range(q.shape[0]):
        for j in range(0, k.shape[0], 5):
            assert sims[i, j] == pytest.approx(cosine(q[i], k[j]), abs=1e-9)


def test_batched_similarity_batch_invariant():
    rng = np.random.default_rng(23)
    q = rng.standard_normal((65, 32))
    k = rng.standard_normal((40, 32))
    base = batched_similarity(q, k, batch=1)
    for batch in (2, 7, 64, 1000):
        np.testing.assert_allclose(
            batched_similarity(q, k, batch=batch), base, atol=1e-9)


def test_batched_similarity_rejects_zero_rows():
    q = np.zeros((2, 8))
    k = np.ones((3, 8))
    with pytest.raises(EmbeddingError):
        batched_similarity(q, k)


# ---------------------------------------------------------------------------
# external embedding import

def test_import_embeddings_normalizes():
    doc = BinaryDocument("bin", "tpl", [_fn("f", [["ret"]]), _fn("g", [["ret"]])])
    data = vector_file("bin", 4, [("f", [2.0, 0, 0, 0]), ("g", [0, 3.0, 0, 0])], count=2)
    out = import_embeddings(doc, data, 4)
    np.testing.assert_allclose(out["f"], [1, 0, 0, 0], atol=1e-12)
    np.testing.assert_allclose(out["g"], [0, 1, 0, 0], atol=1e-12)


@pytest.mark.parametrize("mutate,err", [
    (lambda d: vector_file("other", 4, [("f", [1, 0, 0, 0])]), EmbeddingError),
    (lambda d: vector_file("bin", 8, [("f", [1, 0, 0, 0])]), EmbeddingError),
    (lambda d: vector_file("bin", 4, [("nope", [1, 0, 0, 0])]), EmbeddingError),
    (lambda d: vector_file("bin", 4, [("f", [1, 0, 0, 0]), ("f", [1, 0, 0, 0])]),
     EmbeddingError),
    (lambda d: vector_file("bin", 4, [("f", [1, 0])]), EmbeddingError),
    (lambda d: vector_file("bin", 4, [("f", [float("nan"), 0, 0, 0])]), EmbeddingError),
    (lambda d: vector_file("bin", 4, [("f", [0, 0, 0, 0])]), EmbeddingError),
    (lambda d: vector_file("bin", 4, [("f", [1, 0, 0, 0])], count=5), EmbeddingError),
    (lambda d: vector_file("bin", 4, [("f", ["a", 0, 0, 0])]), EmbeddingError),
    (lambda d: vector_file("bin", 4, [("f", [[1, 0], [0, 0]])]), EmbeddingError),
    (lambda d: vector_file("bin", 4, [("f", [[1, 0], [0]])]), EmbeddingError),
    (lambda d: vector_file("bin", 4, [("f", [1e308, 1e308, 0, 0])]), EmbeddingError),
    (lambda d: vector_file("bin", 4, [(["f"], [1, 0, 0, 0])]), EmbeddingError),
    (lambda d: "", ParseError),
    (lambda d: "{not json", ParseError),
    (lambda d: "[1]", ParseError),
    (lambda d: vector_file("bin", 4, []) + "\n[1]", ParseError),
    (lambda d: b"\xff\xfe" + vector_file("bin", 4, []).encode(), ParseError),
])
def test_import_embeddings_rejects_bad_files(mutate, err):
    doc = BinaryDocument("bin", "tpl", [_fn("f", [["ret"]])])
    with pytest.raises(err) as info:
        import_embeddings(doc, mutate(doc), 4)
    if err is ParseError:
        assert info.value.line is not None


@pytest.mark.parametrize("header,dim", [
    ({"doc_id": "bin", "dim": 4.0}, 4),
    ({"doc_id": "bin", "dim": True}, 1),
    ({"doc_id": "bin", "dim": 4, "count": 1.0}, 4),
    ({"doc_id": "bin", "dim": 4, "count": None}, 4),
    ({"doc_id": "bin", "dim": "4"}, 4),
    ({"doc_id": ["bin"], "dim": 4}, 4),
    ({"dim": 4}, 4),
    ({"doc_id": "bin"}, 4),
], ids=["float-dim", "bool-dim", "float-count", "null-count", "string-dim", "list-doc-id",
        "no-doc-id", "no-dim"])
def test_import_embeddings_refuses_a_mistyped_header_at_its_line(header, dim):
    doc = BinaryDocument("bin", "tpl", [_fn("f", [["ret"]])])
    data = "\n".join([json.dumps(header), json.dumps({"function": "f", "values": [1.0] * dim})])
    with pytest.raises(ParseError, match="vector header") as info:
        import_embeddings(doc, data, dim)
    assert info.value.line == 1


def test_import_accepts_bytes():
    doc = BinaryDocument("bin", "tpl", [_fn("f", [["ret"]])])
    data = vector_file("bin", 4, [("f", [0, 0, 5.0, 0])]).encode("utf-8")
    out = import_embeddings(doc, data, 4)
    assert out["f"][2] == 1.0
