import json
import random
import tracemalloc

import pytest

from libsift.detector import (
    DetectionReport, LibraryScore, MatchEvidence, _report_dict, detect, read_reports,
    write_reports,
)
from libsift.embedding import import_embeddings
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
from libsift.synthetic import SyntheticCorpusSpec, generate_corpus

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


@pytest.mark.parametrize("encode", [str, str.encode], ids=["str", "bytes"])
def test_a_blank_line_holds_only_json_whitespace(encode):
    assert len(parse_document(encode(HEADER + "\n \t\r\n" + FN)).functions) == 1
    # other Unicode whitespace is not JSON whitespace
    for space in ("\u00a0", "\f"):
        with pytest.raises(ParseError, match="^line 2: invalid JSON"):
            parse_document(encode(HEADER + "\n" + space + "\n" + FN))


def test_parse_reads_each_line_into_its_record_before_the_next():
    # so a parse's peak stays near the size of the document it returns:
    # the decoded lines are never all held at once
    tpl_docs, _, _ = generate_corpus(
        SyntheticCorpusSpec(library_count=1, functions_per_library=2000))
    data = serialize_document(tpl_docs[0])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        doc = parse_document(data)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(doc.functions) == 2003
    assert peak - base < 1.8 * (size - base)


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


def test_filter_sections_keeps_every_other_section_in_order():
    doc = random_document(random.Random(6), "doc")
    kept = [f for f in doc.functions if f.section not in EXCLUDED_SECTIONS]
    assert 0 < len(kept) < len(doc.functions)
    assert filter_sections(doc).functions == kept


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


# breaks that str.splitlines takes for line ends and that JSON lets a
# string hold raw; the writers escape them, other tools need not
_RAW_BREAKS = "\u2028\u2029\x85"


def _raw_line(obj):
    return json.dumps(obj, ensure_ascii=False)


def test_json_lines_end_at_a_line_feed_only(tmp_path):
    name = "f" + _RAW_BREAKS + "g"
    text = _doc(_raw_line(dict(json.loads(FN), name=name)))
    assert text.count("\n") == 1 and "\u2028" in text
    doc = parse_document(text.encode("utf-8"))
    assert [fn.name for fn in doc.functions] == [name]
    # CRLF line ends still read: the carriage return is JSON whitespace
    assert parse_document(text.replace("\n", "\r\n") + "\r\n") == doc
    with pytest.raises(ParseError, match="^line 3: invalid JSON"):
        parse_document(text + "\n{bad")

    vectors = "\n".join([_raw_line({"doc_id": "demo", "dim": 2}),
                         _raw_line({"function": name, "values": [3.0, 4.0]})])
    assert import_embeddings(doc, vectors.encode("utf-8"), 2)[name].tolist() == [0.6, 0.8]
    with pytest.raises(ParseError, match="^line 3: invalid JSON"):
        import_embeddings(doc, vectors + "\n{bad", 2)

    report = DetectionReport("bin" + _RAW_BREAKS, [LibraryScore(
        "lib", 0.5, False, [MatchEvidence(name, "h", 0.5, 1.0, 0.5)])], {"mode": "match-sum"})
    path = tmp_path / "reports.jsonl"
    path.write_text(_raw_line(_report_dict(report)) + "\n", encoding="utf-8")
    assert read_reports(path) == [report]
    path.write_text(_raw_line(_report_dict(report)) + "\n\n{bad\n", encoding="utf-8")
    with pytest.raises(ParseError, match="^line 3: invalid JSON"):
        read_reports(path)
