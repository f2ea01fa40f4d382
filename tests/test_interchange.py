import json
import random

import pytest

from libsift.detector import _report_dict, detect, write_reports
from libsift.errors import ParseError, ValidationError
from libsift.interchange import (
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
from libsift.repository import _MAGIC, _header_dict, build_repository, save_repository

from corpora import random_document


HEADER = '{"binary_id":"demo","kind":"tpl","format_version":1}'
FN = ('{"name":"f","section":".text","is_export":true,'
      '"blocks":[{"id":0,"instructions":[["ret"]]}],"edges":[]}')


def _doc(*function_lines):
    return "\n".join((HEADER,) + function_lines)


def test_minimal_document_parses():
    doc = parse_document(_doc(FN))
    assert doc.binary_id == "demo"
    assert doc.kind == "tpl"
    assert doc.format_version == 1
    assert len(doc.functions) == 1
    fn = doc.functions[0]
    assert fn.name == "f"
    assert fn.is_export is True
    assert fn.blocks[0].instructions == [Instruction("ret", ())]
    assert fn.instruction_count() == 1


def test_operands_preserved_verbatim():
    line = json.dumps({
        "name": "g", "section": ".text", "is_export": False,
        "blocks": [{"id": 3, "instructions": [
            ["mov", "rax", "qword ptr [rbp-0x8]"], ["jne"], ["ret"]]}],
        "edges": [[3, 3]],
    })
    fn = parse_document(_doc(line)).functions[0]
    assert fn.blocks[0].instructions[0].operands == ("rax", "qword ptr [rbp-0x8]")
    assert fn.blocks[0].instructions[1].operands == ()
    assert fn.edges == [(3, 3)]


def test_blank_lines_ignored():
    doc = parse_document(HEADER + "\n\n" + FN + "\n\n")
    assert len(doc.functions) == 1


def test_round_trip_law_many_random_documents():
    rng = random.Random(1234)
    for i in range(300):
        doc = random_document(rng, "doc%04d" % i)
        again = parse_document(serialize_document(doc))
        assert again == doc
        # serialization is canonical: a second pass is byte-identical
        assert serialize_document(again) == serialize_document(doc)


def test_file_round_trip(tmp_path):
    doc = random_document(random.Random(9), "ondisk")
    path = tmp_path / "doc.jsonl"
    save_document(doc, path)
    assert load_document(path) == doc


@pytest.mark.parametrize("text,line", [
    ("", 1),
    ("not json", 1),
    ('["list","not","object"]', 1),
    (HEADER + "\n{bad", 2),
    (_doc(FN) + "\n{]", 3),
])
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as err:
        parse_document(text)
    assert err.value.line == line
    assert str(err.value).startswith("line %d:" % line)


@pytest.mark.parametrize("header", [
    '{"kind":"tpl","format_version":1}',
    '{"binary_id":"","kind":"tpl","format_version":1}',
    '{"binary_id":"x","kind":"library","format_version":1}',
    '{"binary_id":"x","kind":"tpl","format_version":2}',
    '{"binary_id":"x","kind":"tpl","format_version":"1"}',
    '{"binary_id":7,"kind":"tpl","format_version":1}',
])
def test_bad_headers_rejected(header):
    with pytest.raises(ParseError):
        parse_document("\n".join([header, FN]))


def test_bool_is_not_accepted_where_int_required():
    bad = FN.replace('"id":0', '"id":true')
    with pytest.raises(ParseError) as err:
        parse_document(_doc(bad))
    assert err.value.line == 2


def test_is_export_must_be_bool():
    bad = FN.replace('"is_export":true', '"is_export":1')
    with pytest.raises(ParseError):
        parse_document(_doc(bad))


def _record(**overrides):
    base = {
        "name": "f", "section": ".text", "is_export": True,
        "blocks": [{"id": 0, "instructions": [["ret"]]}],
        "edges": [],
    }
    base.update(overrides)
    return json.dumps(base)


@pytest.mark.parametrize("record,needle", [
    (_record(blocks=[]), "no basic blocks"),
    (_record(blocks=[{"id": 0, "instructions": [["ret"]]},
                     {"id": 0, "instructions": [["nop"]]}]), "duplicate basic block"),
    (_record(blocks=[{"id": 0, "instructions": []}]), "no instructions"),
    (_record(blocks=[{"id": 0, "instructions": [["", "rax"]]}]), "empty mnemonic"),
    (_record(edges=[[0, 1]]), "missing block"),
    (_record(blocks=[{"id": 0, "instructions": [["jmp"]]},
                     {"id": 1, "instructions": [["ret"]]}],
             edges=[[0, 1], [0, 1]]), "duplicate edge"),
])
def test_validation_errors_name_the_function(record, needle):
    with pytest.raises(ValidationError) as err:
        parse_document(_doc(record))
    assert needle in str(err.value)
    assert "'f'" in str(err.value)


def test_duplicate_function_names_rejected():
    with pytest.raises(ValidationError) as err:
        parse_document(_doc(FN, FN))
    assert "duplicate function name" in str(err.value)


def test_filter_sections_drops_linkage_stubs():
    fns = [
        FunctionRecord("a", ".text", True, [BasicBlock(0, [Instruction("ret", ())])], []),
        FunctionRecord("b", ".plt", False, [BasicBlock(0, [Instruction("jmp", ("x",))])], []),
        FunctionRecord("c", "extern", False, [BasicBlock(0, [Instruction("ret", ())])], []),
        FunctionRecord("d", ".init", False, [BasicBlock(0, [Instruction("ret", ())])], []),
        FunctionRecord("e", ".fini", False, [BasicBlock(0, [Instruction("ret", ())])], []),
    ]
    doc = BinaryDocument("bin", "target", fns)
    kept = filter_sections(doc)
    assert [f.name for f in kept.functions] == ["a"]
    # exact section-name matching: lookalike sections stay
    hot = FunctionRecord("h", ".text.plt", False,
                         [BasicBlock(0, [Instruction("ret", ())])], [])
    assert len(filter_sections(BinaryDocument("x", "tpl", [hot])).functions) == 1


def test_filter_sections_idempotent_and_sharing():
    rng = random.Random(77)
    for i in range(25):
        doc = random_document(rng, "doc%02d" % i)
        once = filter_sections(doc)
        twice = filter_sections(once)
        assert once == twice
        assert all(s not in EXCLUDED_SECTIONS for s in (f.section for f in once.functions))
        for fn in once.functions:
            assert any(fn is orig for orig in doc.functions)


def test_custom_exclusion_set():
    doc = random_document(random.Random(3), "doc")
    assert filter_sections(doc, excluded=()) == doc
    none_left = filter_sections(doc, excluded={f.section for f in doc.functions})
    assert none_left.functions == []


def test_every_json_line_writer_encodes_as_json_dumps(tmp_path):
    # documents, report lines and the .lsr header share one encoder; it
    # must escape non-ASCII exactly as json.dumps does
    def compact(obj):
        return json.dumps(obj, separators=(",", ":"))

    body = [BasicBlock(0, [Instruction("add", ("rax", "0x%x" % i)) for i in range(6)]
                       + [Instruction("ret", ())])]
    lib = BinaryDocument("lib_été", "tpl",
                         [FunctionRecord("fn_日本", ".text", True, body, [])])
    target = BinaryDocument("bin_ü", "target",
                            [FunctionRecord("copy_ß", ".text", False, body, [])])

    text = serialize_document(lib).decode("ascii")
    assert "\\u00e9" in text and "\\u65e5" in text
    assert text.splitlines() == [compact(json.loads(line)) for line in text.splitlines()]

    repo = build_repository([lib], dim=32, stages=())
    save_repository(repo, tmp_path / "repo.lsr")
    header = compact(_header_dict(repo)).encode("utf-8")
    assert b"\\u00e9" in header
    assert (tmp_path / "repo.lsr").read_bytes()[len(_MAGIC) + 6:][:len(header)] == header

    report = detect(target, repo)
    assert [e.library_id for e in report.entries] == [lib.binary_id]
    write_reports([report], tmp_path / "reports.jsonl")
    line = compact(_report_dict(report))
    assert "\\u00e9" in line and "\\u00fc" in line
    assert (tmp_path / "reports.jsonl").read_text(encoding="ascii") == line + "\n"
