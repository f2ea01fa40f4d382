"""The parse -> normalize -> hash front end against a slow reference.

The reference below is the front end as it was before per-document memos,
cached n-gram keys and bincount accumulation: one classification per
operand, one "%s:%s" key per token, one hash-cache lookup and one float
addition per n-gram.  The memoized front end must give the same token
streams and byte-identical vectors.  Cyclic GC is paused while documents
are parsed and embedded, and must come back on every way out.
"""
import gc
import re
import struct
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from hashlib import blake2b

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from libsift import (
    BasicBlock,
    BinaryDocument,
    EmbeddingError,
    FunctionRecord,
    Instruction,
    ParseError,
    ValidationError,
    parse_document,
    serialize_document,
)
from libsift import _gc, interchange
from libsift.embedding import (
    REGISTERS,
    HashedNgramEmbedder,
    function_vectors,
    normalize,
    normalize_document,
)

# ---------------------------------------------------------------------------
# reference: the per-token front end

_REF_ABSTRACT = frozenset({"IMM", "MEM", "NEARFUNC", "EXTFUNC"})
_REF_BRANCH_EXTRA = frozenset({"call", "lcall", "callq", "loop", "loope", "loopne"})
_REF_IMM = re.compile(r"^[+-]?(0x[0-9a-fA-F]+|\d+)$")


def _ref_classify(operand, mnemonic, local_names):
    if operand in REGISTERS:
        return (operand, "REG")
    if operand in _REF_ABSTRACT:
        return (operand, operand)
    if _REF_IMM.match(operand):
        return ("IMM", "IMM")
    if "[" in operand:
        return ("MEM", "MEM")
    if mnemonic in _REF_BRANCH_EXTRA or mnemonic.startswith("j"):
        if operand in local_names:
            return ("NEARFUNC", "NEARFUNC")
        return ("EXTFUNC", "EXTFUNC")
    return ("MEM", "MEM")


def _ref_normalize(record, local_names=frozenset()):
    """[(text, kind)] for one function."""
    tokens = []
    for block in sorted(record.blocks, key=lambda b: b.id):
        for ins in block.instructions:
            tokens.append((ins.mnemonic, "MNEMONIC"))
            for op in ins.operands:
                tokens.append(_ref_classify(op, ins.mnemonic, local_names))
    return tokens


def _ref_slot(key, dim, seed):
    digest = blake2b(key.encode("utf-8"), digest_size=8, key=struct.pack("<q", seed)).digest()
    value = int.from_bytes(digest, "little")
    return (value >> 1) % dim, 1.0 if value & 1 else -1.0


def _ref_embed_tokens(tokens, dim, seed):
    vec = np.zeros(dim, dtype=np.float64)
    keys = ["%s:%s" % (kind, text) for text, kind in tokens]
    for key in keys:
        slot, sign = _ref_slot(key, dim, seed)
        vec[slot] += sign
    for a, b in zip(keys, keys[1:]):
        slot, sign = _ref_slot(a + "\x1f" + b, dim, seed)
        vec[slot] += sign
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        slot, _ = _ref_slot("\x1f".join(keys) + "\x1f#cancelled", dim, seed)
        vec[slot] = 1.0
        norm = 1.0
    return vec / norm


def _ref_embed_document(doc, dim, seed):
    local = frozenset(fn.name for fn in doc.functions)
    rows = [_ref_embed_tokens(_ref_normalize(fn, local), dim, seed) for fn in doc.functions]
    return np.array(rows).reshape(len(rows), dim)


def _cancelling_slots(tokens, dim, seed):
    """Slots that receive both a +1 and a -1 from the stream's n-grams."""
    keys = ["%s:%s" % (kind, text) for text, kind in tokens]
    signs = {}
    for key in keys + [a + "\x1f" + b for a, b in zip(keys, keys[1:])]:
        slot, sign = _ref_slot(key, dim, seed)
        signs.setdefault(slot, set()).add(sign)
    return [slot for slot, seen in signs.items() if len(seen) == 2]


# ---------------------------------------------------------------------------
# generated documents

_MNEMONICS = ("mov", "add", "xor", "lea", "push", "ret", "call", "callq", "jmp", "jne",
              "loop", "rep movsb")
_OPERANDS = st.one_of(
    st.sampled_from(("rax", "ebx", "r8d", "xmm3", "rip")),     # registers
    st.sampled_from(("IMM", "MEM", "NEARFUNC", "EXTFUNC")),    # already abstracted
    st.sampled_from(("0x10", "-42", "+7", "0xFF", "1")),       # immediates
    st.sampled_from(("[rbp-0x8]", "qword ptr [rax+rbx*4]")),   # memory
    st.sampled_from(("f0", "f1", "f3", "memcpy", "cs:off_40")),  # local or external symbols
    st.text(max_size=4),
)
_INSTRUCTIONS = st.builds(
    Instruction, st.sampled_from(_MNEMONICS), st.lists(_OPERANDS, max_size=3).map(tuple))


@st.composite
def _documents(draw):
    """1-4 functions f0.. whose instructions mostly come from one shared
    pool, so equal instructions repeat within and across functions."""
    pool = draw(st.lists(_INSTRUCTIONS, min_size=1, max_size=6))
    instruction = st.one_of(st.sampled_from(pool), _INSTRUCTIONS)
    functions = []
    for i in range(draw(st.integers(1, 4))):
        ids = draw(st.lists(st.integers(0, 9), min_size=1, max_size=3, unique=True))
        blocks = [BasicBlock(b, draw(st.lists(instruction, min_size=1, max_size=6)))
                  for b in ids]
        functions.append(FunctionRecord("f%d" % i, ".text", draw(st.booleans()), blocks, []))
    return BinaryDocument("doc", "tpl", functions)


def _fn(name, rows, block_id=0):
    return FunctionRecord(name, ".text", True,
                          [BasicBlock(block_id, [Instruction(r[0], tuple(r[1:])) for r in rows])],
                          [])


# every required shape in one document: an instruction repeated across
# functions, a branch to a local and to an external symbol, operands that
# are already abstract kinds, and (at dim 2) n-grams that cancel in a slot
_FIXED = BinaryDocument("fixed", "tpl", [
    _fn("f0", [["push", "rbp"], ["mov", "rax", "0x10"], ["call", "f1"], ["call", "memcpy"],
               ["ret"]]),
    _fn("f1", [["mov", "rax", "0x10"], ["jne", "f0"], ["jmp", "ext_000"], ["lea", "rax", "tbl"],
               ["mov", "IMM", "MEM"], ["call", "NEARFUNC"], ["jmp", "EXTFUNC"], ["ret"]], 7),
    _fn("f2", [["push", "rbp"], ["mov", "rax", "0x10"], ["xor", "eax", "eax"], ["ret"]]),
])


def test_fixed_document_covers_every_required_shape():
    streams = {fn.name: _ref_normalize(fn, {"f0", "f1", "f2"}) for fn in _FIXED.functions}
    kinds = {kind for tokens in streams.values() for _, kind in tokens}
    assert {"NEARFUNC", "EXTFUNC", "IMM", "MEM"} <= kinds
    assert ("IMM", "IMM") in streams["f1"] and ("NEARFUNC", "NEARFUNC") in streams["f1"]
    shared = [ins for fn in _FIXED.functions for b in fn.blocks for ins in b.instructions]
    assert sum(ins == Instruction("mov", ("rax", "0x10")) for ins in shared) == 3
    assert _cancelling_slots(streams["f1"], 2, 1)


@settings(max_examples=200)
@given(doc=_documents(), dim=st.sampled_from((2, 3, 16, 64)), seed=st.sampled_from((1, -7)))
@example(doc=_FIXED, dim=2, seed=1)
@example(doc=_FIXED, dim=768, seed=1)
def test_front_end_matches_reference(doc, dim, seed):
    parsed = parse_document(serialize_document(doc))
    assert parsed == doc
    local = frozenset(fn.name for fn in doc.functions)
    for source in (doc, parsed):
        streams = normalize_document(source)
        assert list(streams) == [fn.name for fn in source.functions]
        for fn in source.functions:
            tokens = streams[fn.name]
            assert tokens == ["%s:%s" % (kind, text) for text, kind in _ref_normalize(fn, local)]
            assert normalize(fn, local) == tokens
        names, mat = HashedNgramEmbedder(dim, seed).embed_document(source)
        assert names == [fn.name for fn in source.functions]
        assert mat.dtype == np.float64
        assert mat.tobytes() == _ref_embed_document(source, dim, seed).tobytes()
        for fn, row in zip(source.functions, mat):
            single = HashedNgramEmbedder(dim, seed).embed_function(fn, local)
            assert single.tobytes() == row.tobytes()


def test_tokens_are_interned_keys():
    a, b = normalize(_fn("f", [["mov", "rax", "0x10"]])), normalize(_fn("g", [["mov", "rax", "7"]]))
    assert a == ["MNEMONIC:mov", "REG:rax", "IMM:IMM"]
    assert all(x is y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# shared instructions in parse_document

_HEADER = b'{"binary_id": "bin", "kind": "tpl", "format_version": 1}'


def _function_line(name, instructions):
    return (b'{"name": "%s", "section": ".text", "is_export": true, "blocks": '
            b'[{"id": 0, "instructions": [%s]}], "edges": []}'
            % (name.encode(), b", ".join(instructions)))


# each bad array next to the token tuple a careless conversion would turn
# it into, which the warmed document holds as a valid instruction
_BAD_INSTRUCTIONS = {
    "nested-list": (b'["mov", ["rax"]]', b'["mov", "rax"]', "instruction tokens must be strings"),
    "object-token": (b'["mov", {"rax": 1}]', b'["mov", "rax"]',
                     "instruction tokens must be strings"),
    "number-token": (b'["mov", 1]', b'["mov", "1"]', "instruction tokens must be strings"),
    "bool-token": (b'["mov", true]', b'["mov", "true"]', "instruction tokens must be strings"),
    "object": (b'{"mov": "rax"}', b'["mov"]', "instruction must be a non-empty array"),
    "string": (b'"mov"', b'["m", "o", "v"]', "instruction must be a non-empty array"),
    "number": (b"7", b'["ret"]', "instruction must be a non-empty array"),
    "bool": (b"true", b'["ret"]', "instruction must be a non-empty array"),
    "empty": (b"[]", b'["ret"]', "instruction must be a non-empty array"),
}


@pytest.mark.parametrize("case", sorted(_BAD_INSTRUCTIONS))
def test_bad_instruction_error_is_the_same_with_a_warm_memo(case):
    bad, lookalike, message = _BAD_INSTRUCTIONS[case]
    cold = _HEADER + b"\n" + _function_line("g", [bad]) + b"\n"
    warm = b"\n".join([_HEADER, _function_line("f", [lookalike, b'["ret"]']),
                       _function_line("g", [lookalike, b'["ret"]', bad])]) + b"\n"
    for data, line in ((cold, 2), (warm, 3)):
        with pytest.raises(ParseError) as info:
            parse_document(data)
        assert info.value.line == line
        assert str(info.value) == "line %d: %s" % (line, message)


def test_instructions_are_shared_within_one_document_only():
    data = serialize_document(_FIXED)
    doc, again = parse_document(data), parse_document(data)
    movs = [ins for fn in doc.functions for b in fn.blocks for ins in b.instructions
            if ins == Instruction("mov", ("rax", "0x10"))]
    assert len(movs) == 3 and all(ins is movs[0] for ins in movs)
    assert again.functions[0].blocks[0].instructions[1] is not movs[0]


def test_empty_mnemonic_is_a_validation_error_after_parse_errors_of_its_line():
    empty = _function_line("g", [b'[""]', b'[""]'])
    with pytest.raises(ValidationError, match="empty mnemonic"):
        parse_document(_HEADER + b"\n" + empty + b"\n")
    broken = empty.replace(b'"edges": []', b'"edges": [[0]]')
    with pytest.raises(ParseError, match="line 2: edge must be"):
        parse_document(_HEADER + b"\n" + broken + b"\n")


# ---------------------------------------------------------------------------
# cyclic GC is paused inside parse and embed, and restored on every exit

def test_gc_is_paused_inside_parse_and_embed(monkeypatch):
    seen = []
    real_records, real_embed = interchange.json_records, HashedNgramEmbedder.embed_document

    def records(data):
        seen.append(("parse", gc.isenabled()))
        return real_records(data)

    def embed(self, doc):
        seen.append(("embed", gc.isenabled()))
        return real_embed(self, doc)

    monkeypatch.setattr(interchange, "json_records", records)
    monkeypatch.setattr(HashedNgramEmbedder, "embed_document", embed)
    function_vectors(parse_document(serialize_document(_FIXED)), 16, 1)
    assert seen == [("parse", False), ("embed", False)]
    assert gc.isenabled()


def test_gc_state_is_restored_after_errors():
    assert gc.isenabled()
    with pytest.raises(ParseError):
        parse_document(_HEADER + b'\n{"name": 5}\n')
    assert gc.isenabled()
    with pytest.raises(EmbeddingError):
        function_vectors(_FIXED, 4, 1, vectors=lambda doc: {"f0": [0.0, 0.0, 0.0, 0.0]})
    assert gc.isenabled()
    gc.disable()
    try:
        function_vectors(parse_document(serialize_document(_FIXED)), 16, 1)
        with pytest.raises(ParseError):
            parse_document(b"[]")
        assert not gc.isenabled()  # a caller's own setting is left alone
    finally:
        gc.enable()


def test_gc_state_is_restored_after_concurrent_parse_and_embed():
    good = serialize_document(_FIXED)
    bad = _HEADER + b"\n" + _function_line("g", [b"[]"]) + b"\n"

    def work(i):
        if i % 3 == 0:
            with pytest.raises(ParseError):
                parse_document(bad)
            return None
        return function_vectors(parse_document(good), 32, 1)[1]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(work, range(48), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert gc.isenabled()
    want = _ref_embed_document(_FIXED, 32, 1).tobytes()
    assert all(r is None or r.tobytes() == want for r in results)


def test_pauses_that_overlap_on_two_threads_count_as_one():
    inside, leave = threading.Event(), threading.Event()

    def hold():
        with _gc.paused():
            inside.set()
            leave.wait()

    thread = threading.Thread(target=hold)
    try:
        with _gc.paused():
            thread.start()
            inside.wait()
        assert not gc.isenabled()  # the other thread's pause still runs
    finally:
        leave.set()
        thread.join()
    assert gc.isenabled()


def test_slot_cache_holds_one_entry_per_distinct_ngram():
    embedder = HashedNgramEmbedder(48, 977)
    embedder._slots.clear()
    streams = normalize_document(_FIXED)
    embedder.embed_document(_FIXED)
    keys = set()
    for tokens in streams.values():
        keys.update(tokens)
        keys.update(zip(tokens, tokens[1:]))
    assert set(embedder._slots) == keys


def test_cold_cache_hashes_each_distinct_ngram_once(monkeypatch):
    # f repeats "push rbp": 6 unigrams and 5 bigrams, of which 4 are distinct;
    # g adds MNEMONIC:ret and the bigram (REG:rbp, MNEMONIC:ret)
    doc = BinaryDocument("rep", "tpl", [_fn("f", [["push", "rbp"]] * 3),
                                        _fn("g", [["push", "rbp"], ["ret"]])])
    embedder = HashedNgramEmbedder(41, 8311)
    embedder._slots.clear()
    hashed = []
    real = HashedNgramEmbedder._hash
    monkeypatch.setattr(HashedNgramEmbedder, "_hash",
                        lambda self, text: hashed.append(text) or real(self, text))
    _, mat = embedder.embed_document(doc)
    assert len(hashed) == len(set(hashed)) == len(embedder._slots) == 6
    assert mat.tobytes() == _ref_embed_document(doc, 41, 8311).tobytes()
