"""Function vectorization.

Instruction streams are normalized into tokens, each its interned
"KIND:text" hashing key, then hashed into fixed-dimension vectors by
signed feature hashing of unigrams and adjacent bigrams.  The built-in
embedder is deterministic and dependency-free; vectors from a real
similarity model can be imported instead, as long as the dimension
matches the repository.

`function_vectors` is the one way a document's functions become vectors,
for library builds and targets alike (a library build defers the built-in
embedder's vectors to `embed_deferred`), and `_unit_vector` is the one check
on vectors that come from outside the package.  `check_norms` is the one
rule for what may enter a cosine: `row_norms` and `unit_rows` apply it to
matrices, and every similarity input and the saved vector block pass it.
"""
from __future__ import annotations

import logging
import math
import re
import struct
import sys
from hashlib import blake2b
from itertools import islice
from typing import Callable, Iterable

import numpy as np

from . import _gc, _kernels
from .errors import EmbeddingError, ParseError
from .interchange import BinaryDocument, FunctionRecord, filter_sections, json_field, json_records

log = logging.getLogger(__name__)

DEFAULT_DIM = 768
DEFAULT_SEED = 1
# seeds are packed as signed 64-bit integers into the hash key
MIN_SEED, MAX_SEED = -(2 ** 63), 2 ** 63 - 1

MNEMONIC = "MNEMONIC"
REG = "REG"
IMM = "IMM"
MEM = "MEM"
NEARFUNC = "NEARFUNC"
EXTFUNC = "EXTFUNC"

_ABSTRACT_KINDS = frozenset({IMM, MEM, NEARFUNC, EXTFUNC})


def _token(kind: str, text: str) -> str:
    """A token: its "KIND:text" unigram hashing key, interned so that every
    slot-cache key built from it shares one string."""
    return sys.intern(kind + ":" + text)


def _register_names():
    regs = set()
    for base in ("ax", "bx", "cx", "dx"):
        regs.update({"r" + base, "e" + base, base, base[0] + "l", base[0] + "h"})
    for base in ("sp", "bp", "si", "di"):
        regs.update({"r" + base, "e" + base, base, base + "l"})
    for i in range(8, 16):
        regs.update({"r%d" % i, "r%dd" % i, "r%dw" % i, "r%db" % i})
    for i in range(16):
        regs.update({"xmm%d" % i, "ymm%d" % i})
    regs.update({"rip", "cs", "ds", "es", "fs", "gs", "ss"})
    return frozenset(regs)


REGISTERS = _register_names()

_BRANCH_EXTRA = frozenset({"call", "lcall", "callq", "loop", "loope", "loopne"})
_IMM_RE = re.compile(r"^[+-]?(0x[0-9a-fA-F]+|\d+)$")


def _is_branch(mnemonic: str) -> bool:
    return mnemonic in _BRANCH_EXTRA or mnemonic.startswith("j")


def _classify(operand: str, is_branch: bool, local_names) -> str:
    if operand in REGISTERS:
        return _token(REG, operand)
    if operand in _ABSTRACT_KINDS:
        # already-abstracted input (synthetic corpora, preprocessed exports)
        return _token(operand, operand)
    if _IMM_RE.match(operand):
        return _token(IMM, IMM)
    if "[" in operand:
        return _token(MEM, MEM)
    if is_branch:
        if operand in local_names:
            return _token(NEARFUNC, NEARFUNC)
        return _token(EXTFUNC, EXTFUNC)
    # bare symbol on a data instruction: treat as a memory reference
    return _token(MEM, MEM)


class _Tokenizer:
    """Token streams for the functions of one document, sharing one token
    per mnemonic and one per operand.

    An operand's class depends only on the operand and on whether the
    instruction is a branch (a bare symbol is MEM on data instructions and
    NEARFUNC/EXTFUNC by `local_names` on branches), so operands are
    memoized separately for the two.
    """

    def __init__(self, local_names):
        self.local_names = local_names
        self.mnemonics = {}  # mnemonic -> (its token, its operand memo, is_branch)
        self.data_operands = {}
        self.branch_operands = {}

    def _mnemonic(self, mnemonic):
        branch = _is_branch(mnemonic)
        entry = (_token(MNEMONIC, mnemonic),
                 self.branch_operands if branch else self.data_operands, branch)
        self.mnemonics[mnemonic] = entry
        return entry

    def tokens(self, record: FunctionRecord) -> list:
        out = []
        append = out.append
        mnemonics = self.mnemonics
        for block in sorted(record.blocks, key=lambda b: b.id):
            for ins in block.instructions:
                token, operands, branch = (mnemonics.get(ins.mnemonic)
                                           or self._mnemonic(ins.mnemonic))
                append(token)
                for op in ins.operands:
                    op_token = operands.get(op)
                    if op_token is None:
                        op_token = operands[op] = _classify(op, branch, self.local_names)
                    append(op_token)
        return out


def normalize(record: FunctionRecord, local_names=frozenset()) -> list:
    """Tokenize one function into "KIND:text" keys: mnemonics and registers
    verbatim, everything else abstracted to its class.  Blocks are
    concatenated in ascending id order, so block relabeling cannot change
    the stream.
    """
    return _Tokenizer(local_names).tokens(record)


def normalize_document(doc: BinaryDocument, local_names=None) -> dict:
    """Token streams for every function, resolving near/external targets
    against `local_names`, by default the document's own function names."""
    if local_names is None:
        local_names = frozenset(fn.name for fn in doc.functions)
    tokenizer = _Tokenizer(local_names)
    return {fn.name: tokenizer.tokens(fn) for fn in doc.functions}


class HashedNgramEmbedder:
    """Deterministic signed feature hashing of token unigrams and bigrams.

    Hash function and seed are fixed at construction and recorded in
    repository headers, so repositories reproduce across machines.

    A key's slot depends only on (dim, seed), so every instance with the
    same pair shares one slot cache, which lives as long as the process and
    holds one entry per distinct n-gram it has hashed: a unigram under its
    key string, a bigram under its (key, key) pair.
    """

    name = "hashed-ngram-v1"
    _slot_caches = {}

    def __init__(self, dim: int = DEFAULT_DIM, seed: int = DEFAULT_SEED):
        if dim < 2:
            raise EmbeddingError("dim must be >= 2")
        if not MIN_SEED <= seed <= MAX_SEED:
            raise EmbeddingError("seed must be a signed 64-bit integer")
        self.dim = int(dim)
        self.seed = int(seed)
        self._key = struct.pack("<q", self.seed)
        self._slots = self._slot_caches.setdefault((self.dim, self.seed), {})

    @property
    def info(self) -> str:
        return "%s/d%d/s%d" % (self.name, self.dim, self.seed)

    def _hash(self, text: str) -> int:
        """Signed slot of `text`: slot + 1 when the feature counts +1,
        -(slot + 1) when it counts -1."""
        digest = blake2b(text.encode("utf-8"), digest_size=8, key=self._key).digest()
        value = int.from_bytes(digest, "little")
        slot = (value >> 1) % self.dim + 1
        return slot if value & 1 else -slot

    def _signed_slots(self, tokens) -> list:
        """Signed slots of the unigrams, then the adjacent bigrams, of
        `tokens`, hashing once each n-gram the slot cache has not seen."""
        slots = self._slots
        ngrams = [*tokens, *zip(tokens, islice(tokens, 1, None))]
        signed = list(map(slots.get, ngrams))
        if None in signed:
            for i, ngram in enumerate(ngrams):
                if signed[i] is None:
                    if ngram not in slots:  # else missed earlier in this stream
                        slots[ngram] = self._hash(
                            ngram if isinstance(ngram, str) else "\x1f".join(ngram))
                    signed[i] = slots[ngram]
        return signed

    def embed_tokens(self, tokens) -> np.ndarray:
        """L2-normalized vector for one token stream, a sequence of keys."""
        if not tokens:
            raise EmbeddingError("cannot embed an empty token stream")
        signed = np.array(self._signed_slots(tokens))
        # each n-gram adds +1 or -1 to its slot; sums of small integers are
        # exact in float64, so the order of accumulation cannot matter
        vec = np.bincount(np.abs(signed) - 1, weights=np.sign(signed), minlength=self.dim)
        # never zero: the 2n - 1 n-grams of n tokens sum to an odd total
        return vec / float(np.linalg.norm(vec))

    def embed_function(self, record: FunctionRecord, local_names=frozenset()) -> np.ndarray:
        return self.embed_tokens(normalize(record, local_names))

    def embed_document(self, doc: BinaryDocument, local_names=None):
        """(function names, matrix of their vectors) in document order;
        `local_names` as for `normalize_document`."""
        streams = normalize_document(doc, local_names)
        names = [fn.name for fn in doc.functions]
        mat = np.empty((len(names), self.dim), dtype=np.float64)
        for i, name in enumerate(names):
            mat[i] = self.embed_tokens(streams[name])
        return names, mat


def _unit_vector(name, value, dim: int) -> np.ndarray:
    """`value`, the vector supplied for function `name`, as a float64 unit
    vector of length `dim`.

    Raises EmbeddingError when the vector is missing (None), not numeric,
    of the wrong shape, non-finite, or has a zero or overflowing norm.
    """
    if value is None:
        raise EmbeddingError("no vector supplied for function %r" % name)
    try:
        vec = np.asarray(value)
    except ValueError as exc:  # ragged nesting
        raise EmbeddingError("vector for %r is not numeric" % name) from exc
    if vec.dtype.kind not in "iuf":
        raise EmbeddingError("vector for %r is not numeric" % name)
    if vec.shape != (dim,):
        raise EmbeddingError(
            "vector for %r has shape %s, not the repository dimension (%d,)"
            % (name, vec.shape, dim)
        )
    vec = vec.astype(np.float64)
    if not np.isfinite(vec).all():
        raise EmbeddingError("vector for %r has non-finite values" % name)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(vec))
    if not 0.0 < norm < math.inf:
        raise EmbeddingError("vector for %r has a zero or overflowing norm" % name)
    return vec / norm


class DeferredVector:
    """A function's built-in embedding before it is computed by
    `embed_deferred`.  It holds the function's record and a `source`
    shared by its document's functions: the embedder and the filtered
    document's name set, which NEARFUNC/EXTFUNC tokens are classified
    against.  It never holds the document."""

    __slots__ = ("record", "source")

    def __init__(self, record: FunctionRecord, source: tuple):
        self.record = record
        self.source = source  # (binary_id, kind, name set, embedder)


def function_vectors(doc: BinaryDocument, dim: int, seed: int, vectors: Callable = None,
                     defer: bool = False):
    """(functions kept by section filtering, unit-row matrix of their
    vectors), or ([], None) when filtering keeps nothing.

    `vectors(doc)`, called once and before section filtering, gives name ->
    vector from an external model, each checked by `_unit_vector`; without
    it the built-in embedder for (dim, seed) embeds the functions, or, with
    `defer`, gives one `DeferredVector` per function in place of the matrix.
    """
    with _gc.paused():
        table = None if vectors is None else vectors(doc)
        fdoc = filter_sections(doc)
        if not fdoc.functions:
            log.warning("%s document %r is empty after section filtering; no functions kept",
                        doc.kind, doc.binary_id)
            return [], None
        if vectors is not None:
            return fdoc.functions, np.array(
                [_unit_vector(fn.name, table.get(fn.name), dim) for fn in fdoc.functions]
            )
        embedder = HashedNgramEmbedder(dim, seed)
        if defer:
            source = (fdoc.binary_id, fdoc.kind, frozenset(fn.name for fn in fdoc.functions),
                      embedder)
            return fdoc.functions, [DeferredVector(fn, source) for fn in fdoc.functions]
        return fdoc.functions, embedder.embed_document(fdoc)[1]


def embed_deferred(deferred) -> list:
    """The vectors of the `DeferredVector`s `deferred`, in order: one
    `embed_document` call per source document, over only its functions
    listed and against its whole name set, so each row has the bytes that
    embedding the whole filtered document gives."""
    groups = {}
    for i, d in enumerate(deferred):
        groups.setdefault(id(d.source), (d.source, []))[1].append(i)
    rows = [None] * len(deferred)
    with _gc.paused():
        for (binary_id, kind, names, embedder), index in groups.values():
            doc = BinaryDocument(binary_id, kind, [deferred[i].record for i in index])
            for i, row in zip(index, embedder.embed_document(doc, names)[1]):
                rows[i] = row
    return rows


def import_embeddings(doc: BinaryDocument, data, dim: int) -> dict:
    """Load an external vector file for `doc`; returns name -> unit vector.

    The file is UTF-8 JSON lines: a header (doc_id, dim, count), then one
    record per function.  Every vector passes `_unit_vector`.
    """
    records = json_records(data)
    header_line, header = next(records, (1, None))
    if header is None:
        raise ParseError("empty vector file", line=1)

    def fail(message):
        return ParseError("vector header " + message, line=header_line)

    doc_id = json_field(header, "doc_id", str, fail)
    if doc_id != doc.binary_id:
        raise EmbeddingError("vector file is for %r, not %r" % (doc_id, doc.binary_id))
    if json_field(header, "dim", int, fail) != dim:
        raise EmbeddingError("vector dimension %r does not match repository dimension %d"
                             % (header["dim"], dim))
    count = json_field(header, "count", int, fail) if "count" in header else None
    known = {fn.name for fn in doc.functions}
    out = {}
    for _, rec in records:
        name = rec.get("function")
        if not isinstance(name, str) or name not in known:
            raise EmbeddingError("vector for unknown function %r" % (name,))
        if name in out:
            raise EmbeddingError("duplicate vector for function %r" % name)
        out[name] = _unit_vector(name, rec.get("values"), dim)
    if count is not None and count != len(out):
        raise EmbeddingError("header count %r does not match %d records" % (count, len(out)))
    return out


def check_norms(norms) -> None:
    """Raise EmbeddingError unless every norm is finite and greater than
    zero.  A NaN or infinite entry makes its row's norm NaN or infinite,
    and so does an overflowing sum of squares, so reading the norms
    checks every entry at O(rows) cost."""
    norms = np.asarray(norms)
    if not ((norms > 0.0) & (norms < math.inf)).all():
        raise EmbeddingError("a vector has a zero, non-finite or overflowing norm")


def row_norms(mat) -> np.ndarray:
    """The L2 norms of a 2-D matrix's rows, passed through `check_norms`."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(mat, axis=1)
    check_norms(norms)
    return norms


def unit_rows(mat) -> np.ndarray:
    """`mat` as float64 with each row divided by its norm; every matrix
    that enters a cosine goes through here."""
    mat = np.ascontiguousarray(mat, dtype=np.float64)
    return mat / row_norms(mat)[:, None]


def cosine(a, b) -> float:
    """cos(a, b) in [-1, 1]; identical arrays compare to exactly 1.0."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise EmbeddingError("dimension mismatch")
    with np.errstate(over="ignore"):
        na = float(np.linalg.norm(a))
        nb = float(np.linalg.norm(b))
    check_norms((na, nb))
    if np.array_equal(a, b):
        return 1.0
    value = float(a @ b) / (na * nb)
    return min(1.0, max(-1.0, value))


def batched_similarity(queries, keys, batch: int = 128) -> np.ndarray:
    """Cosine matrix between two vector stacks, processed `batch` query
    rows at a time; results match across batch sizes to 1e-9."""
    q = np.ascontiguousarray(queries, dtype=np.float64)
    k = np.ascontiguousarray(keys, dtype=np.float64)
    if q.ndim != 2 or k.ndim != 2 or q.shape[1] != k.shape[1]:
        raise EmbeddingError("dimension mismatch")
    if batch < 1:
        raise ValueError("batch must be >= 1")
    return _kernels.sim_matrix(unit_rows(q), unit_rows(k), int(batch))
