"""The README and FORMAT name only code that exists: every backticked
`module.attr` reference to a libsift submodule resolves, and FORMAT.md's
CSV headers and examples spell the fields the code reads and writes."""
import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import libsift
from libsift import detector, interchange
from libsift.evaluation import AblationRow, SweepCell

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "FORMAT.md")
SUBMODULES = {info.name for info in pkgutil.iter_modules(libsift.__path__)}
# `detector.check_scoring`, `libsift.repository.stage_steps`, `cli.main()`
REFERENCE = re.compile(r"`(?:libsift\.)?([A-Za-z_]\w*)((?:\.[A-Za-z_]\w*)+)(?:\(\))?`")


def _references():
    """[(document, reference, module name, attribute path)] over DOCS."""
    found = []
    for name in DOCS:
        for match in REFERENCE.finditer((ROOT / name).read_text(encoding="utf-8")):
            if match.group(1) in SUBMODULES:
                found.append((name, match.group(0), match.group(1),
                              match.group(2).lstrip(".").split(".")))
    return found


def _resolves(module, attrs) -> bool:
    obj = importlib.import_module("libsift." + module)
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_documented_references_resolve():
    references = _references()
    assert len(references) >= 13  # the pattern still finds the documents' references
    unresolved = [(name, ref) for name, ref, module, attrs in references
                  if not _resolves(module, attrs)]
    assert unresolved == []


def _format_section(heading) -> str:
    """The text under `## heading` in FORMAT.md, up to the next `##`."""
    text = (ROOT / "FORMAT.md").read_text(encoding="utf-8")
    return text.split("\n## " + heading + "\n", 1)[1].split("\n## ", 1)[0]


def _example_keys(section) -> list:
    """The object keys of each ```json example in `section`, in order."""
    return [re.findall(r'"([A-Za-z_]\w*)"\s*:', block)
            for block in re.findall(r"```json\n(.*?)```", section, re.S)]


def _names(table) -> list:
    return [key for key, _ in table]


@pytest.mark.parametrize("heading,row_type", [("Sweep CSV", SweepCell),
                                              ("Ablation CSV", AblationRow)])
def test_format_spells_each_csv_header_as_its_row_fields(heading, row_type):
    header = re.match(r"\s*Header `([^`]+)`", _format_section(heading)).group(1)
    assert header.split(",") == [f.name for f in dataclasses.fields(row_type)]


def test_format_examples_spell_the_document_and_report_field_tables():
    header, function = _example_keys(
        _format_section("Disassembly interchange documents (`*.jsonl`)"))
    assert header == _names(interchange._HEADER_FIELDS)
    assert function == _names(interchange._FUNCTION_FIELDS) + ["blocks", "id", "instructions",
                                                              "edges"]
    [report] = _example_keys(_format_section("Detection reports (`*.jsonl`)"))
    assert report == (_names(detector._REPORT_FIELDS) + _names(detector._ECHO_FIELDS)
                      + ["entries"] + _names(detector._ENTRY_FIELDS)
                      + ["evidence"] + _names(detector._EVIDENCE_FIELDS))
