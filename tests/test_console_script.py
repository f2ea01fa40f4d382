"""The `libsift` script's contract, one subprocess per case: the exit code
(0 success, 1 pipeline error, 2 bad configuration), the reason on stderr,
and never a traceback.

The runner uses the `libsift` script installed beside the running
interpreter when there is one, and `python -m libsift.cli` otherwise.
"""
import json
import math
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from libsift.detector import read_reports, write_reports
from libsift.interchange import load_document, serialize_document
from libsift.repository import load_repository, save_repository

from corpora import forge_lsr, write_seeded_vectors

_SCRIPT = Path(sysconfig.get_path("scripts"), "libsift")
_COMMAND = [str(_SCRIPT)] if _SCRIPT.is_file() else [sys.executable, "-m", "libsift.cli"]


def _libsift(argv, code=0, needle=None):
    proc = subprocess.run(_COMMAND + [str(arg) for arg in argv],
                          capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    assert needle is None or needle in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr, proc.stderr
    return proc


@pytest.fixture(scope="module")
def dirs(tmp_path_factory):
    work = tmp_path_factory.mktemp("cli")
    corpus = work / "corpus"
    _libsift(["gen", "--out", corpus, "--libraries", "4", "--functions", "20",
              "--targets", "4", "--distractors", "10", "--quiet"])
    _libsift(["build", "--tpls", corpus / "tpls", "--out", work / "repo.lsr", "--quiet"])
    docs = [load_document(path) for path in sorted(corpus.glob("*/*.jsonl"))]
    write_seeded_vectors(work / "vectors", docs, 16)
    write_seeded_vectors(work / "library-vectors", [doc for doc in docs if doc.kind == "tpl"], 16)
    _libsift(["build", "--tpls", corpus / "tpls", "--out", work / "external.lsr",
              "--vectors-dir", work / "vectors", "--dim", "16", "--quiet"])
    lsr = (work / "repo.lsr").read_bytes()
    (work / "bogus-stats.lsr").write_bytes(forge_lsr(
        lsr, lambda header, _: header["stats"][-1].update(stage="bogus")))
    (work / "nan-vector.lsr").write_bytes(forge_lsr(
        lsr, lambda _, vectors: vectors.put(0, math.nan)))
    shutil.copytree(corpus / "targets", work / "twice")
    shutil.copy(work / "twice" / "bin001.jsonl", work / "twice" / "copy.jsonl")
    shutil.copytree(corpus / "tpls", work / "tpls-with-target")
    shutil.copy(corpus / "targets" / "bin000.jsonl", work / "tpls-with-target")
    (work / "bad.json").write_text("[")
    (work / "nan.json").write_text('{"theta3": NaN}')
    return {"work": work, "corpus": corpus}


def _detect(repo="{work}/repo.lsr", targets="{corpus}/targets", out="{work}/bad.jsonl"):
    return ["detect", "--repo", repo, "--targets", targets, "--out", out, "--quiet"]


_BUILD = ["build", "--tpls", "{corpus}/tpls", "--out", "{work}/bad.lsr"]
_LIBS = ["--tpls", "{corpus}/tpls", "--manifest", "{corpus}/manifest.json", "--quiet"]
_EVAL = _LIBS + ["--targets", "{corpus}/targets"]
_TWICE = _LIBS + ["--targets", "{work}/twice"]
_GRID = ["--theta1-grid", "0.8", "--theta2-grid", "0.2,0.4", "--theta3-grid", "0.85,0.9"]

# (id, argv with {work}/{corpus} placeholders, exit code, stderr needle or None)
CASES = [
    ("sweep", ["sweep", "--out", "{work}/grid.csv"] + _EVAL + _GRID, 0, None),
    ("ablate", ["ablate", "--out", "{work}/ablation.csv"] + _EVAL, 0, None),
    ("sweep-match-sum", ["sweep", "--out", "{work}/grid-ms.csv", "--mode", "match-sum"]
     + _EVAL + _GRID, 0, None),
    ("ablate-match-sum", ["ablate", "--out", "{work}/ablation-ms.csv", "--mode", "match-sum"]
     + _EVAL, 0, None),
    ("inspect", ["inspect", "--repo", "{work}/repo.lsr"], 0, None),
] + [
    ("detect-external-" + mode, _detect("{work}/external.lsr", out="{work}/ext-%s.jsonl" % mode)
     + ["--vectors-dir", "{work}/vectors", "--mode", mode], 0, None)
    for mode in ("core-weighted-mean", "match-sum")
] + [
    ("inspect-bogus-stats", ["inspect", "--repo", "{work}/bogus-stats.lsr"], 1,
     "field 'stats' must hold origin"),
    ("inspect-nan-vector", ["inspect", "--repo", "{work}/nan-vector.lsr"], 1, "non-finite"),
    ("detect-nan-vector", _detect("{work}/nan-vector.lsr"), 1, "non-finite"),
    ("sweep-target-twice", ["sweep", "--out", "{work}/twice.csv", "--theta1-grid", "0.8",
                            "--theta2-grid", "0.4", "--theta3-grid", "0.9"] + _TWICE, 1,
     "given twice"),
    ("ablate-target-twice", ["ablate", "--out", "{work}/twice.csv"] + _TWICE, 1, "given twice"),
    ("detect-target-twice", _detect(targets="{work}/twice"), 1, "given twice"),
    ("build-vectors-with-a-target", ["build", "--tpls", "{work}/tpls-with-target",
                                     "--out", "{work}/bad.lsr", "--dim", "16", "--vectors-dir",
                                     "{work}/library-vectors", "--quiet"], 1,
     "has kind 'target'"),
    ("detect-unknown-batch", _detect() + ["--batch", "4"], 2, "unrecognized arguments"),
    ("detect-unknown-verbose", _detect() + ["--verbose"], 2, "unrecognized arguments"),
    ("detect-external-without-vectors", _detect("{work}/external.lsr"), 2,
     "supply target vectors"),
    ("detect-empty-config", _detect() + ["--config", ""], 2, "--config must name a file"),
    ("detect-empty-vectors-dir", _detect() + ["--vectors-dir", ""], 2,
     "--vectors-dir must name a directory"),
    ("build-theta1-5", _BUILD + ["--theta1", "5"], 2, "theta1 must be in"),
    ("build-dim-1", _BUILD + ["--dim", "1"], 2, "dim must be >= 2"),
    ("build-empty-stages", _BUILD + ["--stages", ""], 2, "bad stages"),
    ("build-bad-json-config", _BUILD + ["--config", "{work}/bad.json"], 2, "invalid JSON"),
    ("build-nan-config", _BUILD + ["--config", "{work}/nan.json"], 2, "not a finite number"),
    ("build-empty-config", _BUILD + ["--config", ""], 2, "--config must name a file"),
    ("build-empty-vectors-dir", _BUILD + ["--vectors-dir", ""], 2,
     "--vectors-dir must name a directory"),
    ("sweep-bad-grid", ["sweep", "--out", "{work}/bad.csv", "--theta1-grid", "abc"] + _EVAL, 2,
     "bad grid"),
    ("gen-min-libs-above-max", ["gen", "--out", "{work}/bad", "--min-libs", "3",
                                "--max-libs", "1"], 2, "min_libs must be in"),
    ("gen-negative-targets", ["gen", "--out", "{work}/bad", "--targets", "-1"], 2,
     "--targets must be >= 0"),
    ("gen-max-fraction-1.3", ["gen", "--out", "{work}/bad", "--max-fraction", "1.3",
                              "--seed", "1"], 2, "reuse fractions"),
    ("gen-into-a-corpus", ["gen", "--out", "{corpus}", "--libraries", "4", "--functions", "20",
                           "--targets", "2", "--distractors", "10"], 2, "is not empty"),
]


@pytest.mark.parametrize("argv, code, needle", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_exit_code(dirs, argv, code, needle):
    _libsift([arg.format(**dirs) for arg in argv], code, needle)


def test_build_applies_the_stages_it_is_given(dirs):
    out = dirs["work"] / "mi-export.lsr"
    _libsift(["build", "--tpls", dirs["corpus"] / "tpls", "--out", out,
              "--stages", "mi,export", "--quiet"])
    stages = json.loads(_libsift(["inspect", "--repo", out, "--json"]).stdout)["stages"]
    assert stages == ["export", "mi"]


def test_outputs_round_trip_byte_for_byte(dirs):
    work, corpus = dirs["work"], dirs["corpus"]
    resaved = work / "resaved"
    checks = [(work / "repo.lsr", load_repository, save_repository)]
    for mode in ("core-weighted-mean", "match-sum"):
        out = work / (mode + ".jsonl")
        _libsift(_detect(work / "repo.lsr", corpus / "targets", out) + ["--mode", mode])
        checks.append((out, read_reports, write_reports))
    for path, load, save in checks:
        save(load(path), resaved)
        assert path.read_bytes() == resaved.read_bytes(), path
    documents = sorted(corpus.glob("*/*.jsonl"))
    for path in documents:
        assert path.read_bytes() == serialize_document(load_document(path)), path
    assert len(checks) + len(documents) == 11
