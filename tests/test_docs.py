"""The README and FORMAT name only code that exists: every backticked
`module.attr` reference to a libsift submodule resolves."""
import importlib
import pkgutil
import re
from pathlib import Path

import libsift

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
