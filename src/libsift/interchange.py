"""Disassembly interchange documents.

A document is UTF-8 JSON lines: one header record, then one record per
function.  Field names are frozen in FORMAT.md.  Parsed documents are
treated as immutable values; every operation here returns a new document
and never mutates its input.
"""
from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field

from . import _gc
from .errors import ParseError, ValidationError

FORMAT_VERSION = 1
DOCUMENT_KINDS = ("tpl", "target")

# Linkage stubs and init/fini glue carry no library-specific logic and are
# dropped before any feature extraction.
EXCLUDED_SECTIONS = frozenset({".plt", "extern", ".init", ".fini"})


@dataclass
class Instruction:
    mnemonic: str
    operands: tuple = ()


@dataclass
class BasicBlock:
    id: int
    instructions: list = field(default_factory=list)


@dataclass
class FunctionRecord:
    name: str
    section: str
    is_export: bool
    blocks: list = field(default_factory=list)
    edges: list = field(default_factory=list)

    def instruction_count(self) -> int:
        return sum(len(b.instructions) for b in self.blocks)


@dataclass
class BinaryDocument:
    binary_id: str
    kind: str
    functions: list = field(default_factory=list)
    format_version: int = FORMAT_VERSION


# the fields of the header and of each function record, in the order they
# are read and written; a function's nested `blocks` and `edges` follow
_HEADER_FIELDS = (("binary_id", str), ("kind", str), ("format_version", int))
_FUNCTION_FIELDS = (("name", str), ("section", str), ("is_export", bool))


def _decode_function(record: dict, line: int, shared: dict) -> FunctionRecord:
    """The FunctionRecord a function line holds: every ParseError of the
    line is raised before any ValidationError of its invariants.

    `shared` maps the token tuple of every instruction seen earlier in the
    document to its one Instruction, so a repeated instruction is checked
    and built once.  An instruction with an empty mnemonic fails its first
    function, so only a first sighting can carry one.
    """
    def fail(message):
        return ParseError(message, line=line)

    fields = json_fields(record, _FUNCTION_FIELDS, fail)
    raw_blocks = json_field(record, "blocks", list, fail)
    raw_edges = json_field(record, "edges", list, fail)

    blocks = []
    empty_mnemonic = False
    for rb in raw_blocks:
        bid = json_field(rb, "id", int, fail)
        instrs = []
        for ri in json_field(rb, "instructions", list, fail):
            if ri.__class__ is not list or not ri:
                raise fail("instruction must be a non-empty array")
            key = tuple(ri)
            try:
                ins = shared.get(key)  # TypeError: a nested array or object
                if ins is None:
                    "".join(key)  # TypeError: a token that is not a string
                    ins = shared[key] = Instruction(key[0], key[1:])
                    empty_mnemonic = empty_mnemonic or not key[0]
            except TypeError:
                raise fail("instruction tokens must be strings") from None
            instrs.append(ins)
        blocks.append(BasicBlock(bid, instrs))

    edges = []
    for re_ in raw_edges:
        if (
            not isinstance(re_, list)
            or len(re_) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in re_)
        ):
            raise fail("edge must be a [from, to] integer pair")
        edges.append((re_[0], re_[1]))

    fn = FunctionRecord(**fields, blocks=blocks, edges=edges)
    if not fn.name:
        raise ValidationError("empty function name", function=fn.name)
    if not blocks:
        raise ValidationError("function has no basic blocks", function=fn.name)
    ids = {b.id for b in blocks}
    if len(ids) != len(blocks):
        raise ValidationError("duplicate basic block id", function=fn.name)
    if fn.instruction_count() == 0:
        raise ValidationError("function has no instructions", function=fn.name)
    if empty_mnemonic:
        raise ValidationError("empty mnemonic", function=fn.name)
    seen_edges = set()
    for edge in edges:
        if edge[0] not in ids or edge[1] not in ids:
            raise ValidationError("edge %r references a missing block id" % (edge,),
                                  function=fn.name)
        if edge in seen_edges:
            raise ValidationError("duplicate edge %r" % (edge,), function=fn.name)
        seen_edges.add(edge)
    return fn


# the JSON type of a number field: an int or a finite float, never a bool
NUMBER = (int, float)


def json_field(obj, key, kind, fail):
    """obj[key], which must exist and be an instance of `kind` (a bool only
    where `kind` is bool, a float only when finite); otherwise raises
    fail(message)."""
    if not isinstance(obj, dict) or key not in obj:
        raise fail("lacks field %r" % key)
    value = obj[key]
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise fail("field %r has the wrong type" % key)
    if value.__class__ is float and not math.isfinite(value):
        raise fail("field %r is not a finite number" % key)
    return value


def json_fields(obj, fields, fail) -> dict:
    """key -> json_field(obj, key, kind, fail) for each (key, kind) of a
    record's field table, in table order."""
    return {key: json_field(obj, key, kind, fail) for key, kind in fields}


def field_values(obj, fields) -> dict:
    """key -> obj.key for each (key, kind) of a record's field table, in
    table order: the record as a writer dumps it."""
    return {key: getattr(obj, key) for key, _ in fields}


def json_object(text, fail) -> dict:
    """The JSON object that UTF-8 bytes (or str) `text` hold; text that is
    not UTF-8, not JSON, nested too deeply, escapes a lone surrogate, holds
    a number too long to read or is not an object raises fail(message).
    This is the one place libsift decodes JSON text."""
    if isinstance(text, (bytes, bytearray)):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise fail("not UTF-8: %s" % exc.reason) from None
    try:
        obj = json.loads(text)
        if "\\" in text:
            # an escape may decode to a lone surrogate, which no UTF-8 holds
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
    except json.JSONDecodeError as exc:
        raise fail("invalid JSON: %s" % exc.msg) from None
    except RecursionError:
        raise fail("JSON nested too deeply") from None
    except UnicodeEncodeError:
        raise fail("not valid Unicode: a lone surrogate escape") from None
    except ValueError:  # an integer past Python's digit limit
        raise fail("invalid JSON: a number too long to read") from None
    if not isinstance(obj, dict):
        raise fail("not a JSON object")
    return obj


# the one compact encoder behind every JSON line libsift writes: document
# lines, report lines and the .lsr header.  Each is a tree of strings,
# numbers, lists and dicts built from the dataclasses, which cannot hold a
# cycle, so the cycle check is skipped.
json_line = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode


def save_json(obj, path) -> None:
    """Write `obj` to `path` as indented, key-sorted UTF-8 JSON and a
    newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def json_records(data):
    """Yield (1-based line number, object) for each non-blank line of JSON
    Lines `data`, UTF-8 bytes or str, decoding a line only when asked for
    it; json_object refuses a bad line with ParseError.  A blank line holds
    only JSON whitespace (space, tab, CR), and only a line feed ends a
    line: JSON strings may hold U+2028 raw, and a CRLF's CR is whitespace."""
    binary = isinstance(data, (bytes, bytearray))
    # BytesIO shares a bytes object's buffer, so no line list copies the input
    lines = io.BytesIO(data) if binary else io.StringIO(data, newline="\n")
    for lineno, raw in enumerate(lines, start=1):
        if raw.strip(b" \t\r\n" if binary else " \t\r\n"):
            yield lineno, json_object(raw, lambda message: ParseError(message, line=lineno))


def parse_document(data) -> BinaryDocument:
    """Parse UTF-8 bytes (or str) into a validated BinaryDocument.

    Raises ParseError for syntax/type problems (with a line number) and
    ValidationError for invariant violations (naming the function); the
    first bad line in file order is the one reported.  Equal instructions
    within the document share one Instruction.
    """
    with _gc.paused():
        records = json_records(data)
        header_line, header = next(records, (1, None))
        if header is None:
            raise ParseError("empty document: header record missing", line=1)

        def fail(message):
            return ParseError(message, line=header_line)

        header = json_fields(header, _HEADER_FIELDS, fail)
        binary_id, kind, version = header.values()
        if kind not in DOCUMENT_KINDS:
            raise fail("kind must be one of %s" % (DOCUMENT_KINDS,))
        if version != FORMAT_VERSION:
            raise fail("unsupported format_version %d (this build writes %d)"
                       % (version, FORMAT_VERSION))
        if not binary_id:
            raise fail("binary_id must be non-empty")

        functions = []
        names = set()
        shared = {}
        for lineno, record in records:
            fn = _decode_function(record, lineno, shared)
            if fn.name in names:
                raise ValidationError("duplicate function name", function=fn.name)
            names.add(fn.name)
            functions.append(fn)

        return BinaryDocument(**header, functions=functions)


def serialize_document(doc: BinaryDocument) -> bytes:
    """Serialize a document; parse_document(serialize_document(d)) == d."""
    lines = [json_line(field_values(doc, _HEADER_FIELDS))]
    for fn in doc.functions:
        lines.append(json_line(dict(
            field_values(fn, _FUNCTION_FIELDS),
            blocks=[
                {"id": b.id,
                 "instructions": [[ins.mnemonic, *ins.operands] for ins in b.instructions]}
                for b in fn.blocks
            ],
            edges=[list(e) for e in fn.edges],
        )))
    return ("\n".join(lines) + "\n").encode("utf-8")


def load_document(path) -> BinaryDocument:
    with open(path, "rb") as fh:
        return parse_document(fh.read())


def save_document(doc: BinaryDocument, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_document(doc))


def filter_sections(doc: BinaryDocument) -> BinaryDocument:
    """Drop functions living in EXCLUDED_SECTIONS (exact, case-sensitive).

    Idempotent; retained records are shared, not copied.
    """
    kept = [fn for fn in doc.functions if fn.section not in EXCLUDED_SECTIONS]
    return BinaryDocument(doc.binary_id, doc.kind, kept, doc.format_version)
