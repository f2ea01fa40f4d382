"""Purpose-built corpora, external-vector files, and a probe of embedding
work, shared by the test modules.

`ablation_corpus` wires up one false-positive mechanism per purification
stage so the precision ordering is observable rather than vacuous:

* lib_vendor holds non-exported verbatim copies of lib_main's internal
  functions. While those are in the repository the target looks like a
  vendor superset; the export stage removes them.
* lib_thunk is mostly one-instruction forwarding thunks. Thunks normalize
  identically, so they match the target's thunks perfectly; only the
  complexity filter removes them.
* lib_free holds exported copies of lib_host's complex functions plus one
  large function of its own, built from a reserved mnemonic pool nothing
  else uses. Unweighted averaging scores it as mostly-matched; TF-IDF
  weighting discounts the widely-shared copies and lets the unmatched
  original dominate.

The single target reuses lib_host and lib_main completely, so both score
1.0 at every stage and recall never moves.
"""
from __future__ import annotations

import functools
import hashlib
import json
import random
import struct
import zlib

import numpy as np

from libsift.embedding import HashedNgramEmbedder
from libsift.synthetic import (
    _BASE_MNEMONICS,
    SyntheticCorpusSpec,
    _synth_function,
    generate_corpus,
    random_reuse_plan,
)
from libsift.interchange import BasicBlock, BinaryDocument, FunctionRecord, Instruction

# the reserved tail feeds only lib_free's own function; everything else
# draws from the common head, keeping their vocabularies disjoint
_RESERVED_MNEMONICS = _BASE_MNEMONICS[-30:]
_COMMON_MNEMONICS = _BASE_MNEMONICS[:-30]

TIER_XL = dict(blocks_range=(18, 24), instr_range=(10, 14))
TIER_L = dict(blocks_range=(9, 12), instr_range=(9, 12))
TIER_M = dict(blocks_range=(4, 6), instr_range=(5, 8))
TIER_S = dict(blocks_range=(2, 3), instr_range=(4, 6))


def one_block(name, mnemonics, *, is_export=True, section=".text", reg="rax", loops=0):
    """A one-block function of `mnemonics`, each on `reg` and an immediate;
    `loops` self-loop edges raise its cyclomatic number, not its content."""
    instrs = [Instruction(m, (reg, "0x%x" % i)) for i, m in enumerate(mnemonics)]
    return FunctionRecord(name, section, is_export, [BasicBlock(0, instrs)], [(0, 0)] * loops)


def _fn(rng, name, is_export, tier, pool=_COMMON_MNEMONICS):
    return _synth_function(rng, name, is_export=is_export, mnemonic_pool=pool, **tier)


def _thunk(rng, name, is_export=True):
    target = "ext_%03d" % rng.randrange(64)
    return FunctionRecord(
        name, ".text", is_export,
        [BasicBlock(0, [Instruction("jmp", (target,))])], [],
    )


def _copy(src, name, is_export):
    return FunctionRecord(name, src.section, is_export, src.blocks, src.edges)


@functools.lru_cache(maxsize=None)
def ablation_corpus(seed=11):
    """(tpl_docs, target_docs, manifest) with one target reusing lib_host
    and lib_main in full."""
    rng = random.Random(seed)

    host_core = [_fn(rng, "host_core%02d" % i, True, TIER_L) for i in range(10)]
    host = (
        host_core
        + [_thunk(rng, "host_thunk%d" % i) for i in range(2)]
        + [_fn(rng, "host_fill%02d" % i, True, TIER_S) for i in range(82)]
        + [_fn(rng, "host_int%02d" % i, False, TIER_M) for i in range(2)]
    )

    main_internal = [_fn(rng, "main_int%02d" % i, False, TIER_M) for i in range(20)]
    main = (
        [_fn(rng, "main_api%02d" % i, True, TIER_M) for i in range(8)]
        + main_internal
        + [_thunk(rng, "main_thunk%d" % i) for i in range(3)]
        + [_copy(host_core[i], "main_copy%02d" % i, True) for i in range(9)]
        + [_fn(rng, "main_fill%02d" % i, True, TIER_S) for i in range(82)]
    )

    vendor = [
        _copy(main_internal[i], "vendor_int%02d" % i, False) for i in range(20)
    ] + [_fn(rng, "vendor_api00", True, TIER_M)]

    thunklib = [_thunk(rng, "thunklib_t%d" % i) for i in range(5)] + [
        _fn(rng, "thunklib_api00", True, TIER_M)
    ]

    free = [_copy(host_core[i], "free_copy%02d" % i, True) for i in range(9)] + [
        _fn(rng, "free_big00", True, TIER_XL, pool=_RESERVED_MNEMONICS)
    ]

    clone = [_copy(host_core[i], "clone_copy%02d" % i, True) for i in range(9)] + [
        _fn(rng, "clone_own%02d" % i, True, TIER_L) for i in range(8)
    ]

    tpl_docs = [
        BinaryDocument("lib_host", "tpl", host),
        BinaryDocument("lib_main", "tpl", main),
        BinaryDocument("lib_vendor", "tpl", vendor),
        BinaryDocument("lib_thunk", "tpl", thunklib),
        BinaryDocument("lib_free", "tpl", free),
        BinaryDocument("lib_clone", "tpl", clone),
    ]
    target = BinaryDocument(
        "target00", "target",
        [_copy(f, "t_host_%s" % f.name, False) for f in host]
        + [_copy(f, "t_main_%s" % f.name, False) for f in main],
    )
    manifest = {"target00": {"lib_host", "lib_main"}}
    return tpl_docs, [target], manifest


_SECTIONS = (".text", ".text", ".text", ".plt", ".init", ".fini", "extern", ".text.hot")
_WORDS = (
    "rax", "ebx", "0x10", "-42", "[rbp-0x8]", "qword ptr [rax+rbx*4]",
    "fn.local", "ext_000", "xmm3", "1", "byte ptr [rip+0x2000]", "cs:off_40",
)


def random_document(rng, binary_id, kind=None):
    """An arbitrary valid document: odd tokens, empty operand lists,
    excluded sections, self-loop edges. For round-trip laws, not for
    pipeline quality."""
    if kind is None:
        kind = rng.choice(("tpl", "target"))
    functions = []
    for i in range(rng.randint(1, 8)):
        n_blocks = rng.randint(1, 4)
        blocks = []
        for b in range(n_blocks):
            instrs = [
                Instruction(
                    rng.choice(("mov", "jmp", "add", "call", "ret", "xor.b", "rep movsb")),
                    tuple(rng.choice(_WORDS) for _ in range(rng.randint(0, 3))),
                )
                for _ in range(rng.randint(1, 5))
            ]
            blocks.append(BasicBlock(b, instrs))
        possible = [(a, c) for a in range(n_blocks) for c in range(n_blocks)]
        edges = sorted(rng.sample(possible, rng.randint(0, len(possible))))
        functions.append(
            FunctionRecord(
                "fn_%03d" % i,
                rng.choice(_SECTIONS),
                rng.random() < 0.5,
                blocks,
                edges,
            )
        )
    return BinaryDocument(binary_id, kind, functions)


@functools.lru_cache(maxsize=None)
def planted_corpus(seed=5):
    """The 10x50 planted-recovery corpus: 10 calibration binaries
    (cal000..) plus 20 held-out binaries (bin000..), each reusing 1-3
    libraries at a 30-100% fraction."""
    rng = random.Random(seed)
    lib_ids = ["lib%03d" % i for i in range(10)]
    plan = {}
    plan.update(random_reuse_plan(rng, ["cal%03d" % i for i in range(10)], lib_ids))
    plan.update(random_reuse_plan(rng, ["bin%03d" % i for i in range(20)], lib_ids))
    spec = SyntheticCorpusSpec(
        library_count=10,
        functions_per_library=50,
        clone_rate=0.05,
        simple_fn_rate=0.3,
        planted_reuse=plan,
        rng_seed=seed,
    )
    tpl_docs, target_docs, manifest = generate_corpus(spec)
    calibration = [d for d in target_docs if d.binary_id.startswith("cal")]
    heldout = [d for d in target_docs if d.binary_id.startswith("bin")]
    return tpl_docs, calibration, heldout, manifest


def embed_calls(monkeypatch) -> list:
    """The list that every later `HashedNgramEmbedder.embed_document` call
    appends its document to, until `monkeypatch` undoes the wrapper."""
    calls = []
    embed_document = HashedNgramEmbedder.embed_document

    def counting(self, doc, local_names=None):
        calls.append(doc)
        return embed_document(self, doc, local_names)

    monkeypatch.setattr(HashedNgramEmbedder, "embed_document", counting)
    return calls


def forge_lsr(data, edit=None, header_bytes=None) -> bytes:
    """The `.lsr` bytes `data` resealed with a valid length and checksum,
    so only the change is wrong: `edit(header, vectors)` changes the decoded
    header and (features, dim) vector block in place; `header_bytes`, when
    given, replaces the header."""
    (size,) = struct.unpack_from("<I", data, 8)
    header = json.loads(data[12:12 + size])
    vectors = np.frombuffer(data[12 + size:-32], "<f8").reshape(-1, header["config"]["dim"]).copy()
    if edit is not None:
        edit(header, vectors)
    if header_bytes is None:
        header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    payload = data[:8] + struct.pack("<I", len(header_bytes)) + header_bytes + vectors.tobytes()
    return payload + hashlib.sha256(payload).digest()


def vector_file(doc_id, dim, rows, count=None) -> str:
    """An external-vector file as FORMAT.md gives it: the header, with
    `count` when given, then one line per (function name, values) row."""
    header = {"doc_id": doc_id, "dim": dim}
    if count is not None:
        header["count"] = count
    lines = [header] + [{"function": name, "values": values} for name, values in rows]
    return "".join(json.dumps(line) + "\n" for line in lines)


def write_seeded_vectors(out_dir, docs, dim):
    """Write each of `docs` a vector file, with a count, into `out_dir`,
    named by its binary id: each function's vector is drawn from a
    generator seeded by the crc32 of its name, so a planted copy gets its
    original's vector."""
    out_dir.mkdir(exist_ok=True)
    for doc in docs:
        rows = [(fn.name, np.random.default_rng(zlib.crc32(fn.name.encode("utf-8")))
                 .standard_normal(dim).tolist()) for fn in doc.functions]
        (out_dir / (doc.binary_id + ".jsonl")).write_text(
            vector_file(doc.binary_id, dim, rows, count=len(rows)), encoding="utf-8")

