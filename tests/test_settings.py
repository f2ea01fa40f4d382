"""The CLI's settings: which command reads which setting, how a config file
and flags reach the library call and the sidecar, and the flags that are
usage errors."""
import json
import os

import pytest

from libsift import (
    DetectionReport,
    ParseError,
    RepositoryError,
    load_document,
    load_repository,
    read_reports,
)
from libsift import cli
from libsift.cli import main
from libsift.evaluation import AblationTable, StageTimings, SweepCell, SweepGrid

from corpora import forge_lsr, vector_file

# a value per setting that differs from its default, and a third that a
# flag sets over the config file
_CONFIGURED = {"theta1": 0.7, "theta2": 0.3, "theta3": 0.5, "dim": 24,
               "mode": "match-sum", "seed": 9, "stages": ["export"]}
_FLAGGED = {"theta1": 0.6, "theta2": 0.5, "theta3": 0.4, "dim": 40,
            "mode": "core-weighted-mean", "seed": 11, "stages": ["mi", "weights"]}

# command -> (the settings its library call takes, its other arguments)
_COMMANDS = {
    "build": (("theta1", "theta2", "dim", "seed", "stages"),
              "build --tpls {d}/tpls --out {o}/out.lsr --quiet"),
    "detect": (("theta3", "mode"),
               "detect --repo {d}/repo.lsr --targets {d}/targets --out {o}/out.jsonl --quiet"),
    "sweep": (("dim", "seed", "mode"),
              "sweep --tpls {d}/tpls --targets {d}/targets --manifest {d}/manifest.json "
              "--out {o}/out.csv --theta1-grid 0.8 --theta2-grid 0.3,0.4 "
              "--theta3-grid 0.9 --quiet"),
    "ablate": (("theta1", "theta2", "theta3", "dim", "seed", "mode"),
               "ablate --tpls {d}/tpls --targets {d}/targets --manifest {d}/manifest.json "
               "--out {o}/out.csv --quiet"),
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("settings")
    assert main(["gen", "--out", str(out), "--libraries", "3", "--functions", "8",
                 "--targets", "2", "--distractors", "4", "--quiet"]) == 0
    assert main(["build", "--tpls", str(out / "tpls"), "--out", str(out / "repo.lsr"),
                 "--dim", "32", "--quiet"]) == 0
    return out


def _flag(name, value):
    return ["--" + name, ",".join(value) if name == "stages" else str(value)]


def _patch_library(command, repo_path, monkeypatch):
    """Replace the command's library entry point by one that records its
    keyword arguments and returns a minimal valid result."""
    received = {}

    def time_stages(docs, **kwargs):
        received.update(kwargs)
        return StageTimings(0.0, 0.0, 0.0, origin_s=0.0), load_repository(repo_path)

    def detect_many(docs, repo, **kwargs):
        received.update(kwargs)
        return [DetectionReport(doc.binary_id, [], {}) for doc in docs]

    def sweep(tpl_docs, target_docs, manifest, **kwargs):
        received.update(kwargs)
        return SweepGrid([SweepCell(0.8, 0.3, 0.9, 1.0, 1.0, 1.0, 1.0)])

    def run_ablation(tpl_docs, target_docs, manifest, **kwargs):
        received.update(kwargs)
        return AblationTable([])

    entry = {"build": time_stages, "detect": detect_many, "sweep": sweep, "ablate": run_ablation}
    monkeypatch.setattr(cli, entry[command].__name__, entry[command])
    return received


@pytest.mark.parametrize("source", ["config", "flags over config"])
@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_each_setting_a_command_reads_reaches_its_library_call_and_sidecar(
        command, source, corpus, tmp_path, monkeypatch):
    reads, base = _COMMANDS[command]
    received = _patch_library(command, corpus / "repo.lsr", monkeypatch)
    config = tmp_path / "cfg.json"
    # every command's config file may hold all seven settings
    config.write_text(json.dumps(_CONFIGURED))
    argv = base.format(d=corpus, o=tmp_path).split() + ["--config", str(config)]
    expected = _CONFIGURED
    if source == "flags over config":
        for name in reads:
            argv += _flag(name, _FLAGGED[name])
        expected = _FLAGGED
    assert main(argv) == 0

    settings = {name: value for name, value in received.items() if name in _CONFIGURED}
    want = {name: expected[name] for name in reads}
    if "stages" in want:
        want["stages"] = tuple(want["stages"])
    assert settings == want
    if command in ("sweep", "ablate"):
        meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
        if command == "sweep":
            for i in (1, 2, 3):
                assert meta.pop("theta%d_grid" % i) == list(received["theta%d_values" % i])
        assert meta == settings


@pytest.mark.parametrize("command", ["gen"] + sorted(_COMMANDS))
def test_verbose_is_a_usage_error(command, corpus, tmp_path, capsys):
    base = "gen --out {o}/out --quiet" if command == "gen" else _COMMANDS[command][1]
    assert main(base.format(d=corpus, o=tmp_path).split() + ["--verbose"]) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --verbose" in err and "Traceback" not in err
    assert not list(tmp_path.glob("out*"))


def test_options_per_command():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    counts = {
        name: sum(1 for a in p._actions if a.option_strings and a.dest != "help")
        for name, p in sub.choices.items()
    }
    assert counts == {"gen": 14, "build": 11, "detect": 8, "sweep": 12, "ablate": 12,
                      "inspect": 2}


# ---------------------------------------------------------------------------
# dim: two dimensions for the built-in embedder, one for external vectors

@pytest.mark.parametrize("command", ["build", "sweep", "ablate"])
def test_dim_one_is_a_config_error_before_any_document_is_parsed(
        command, corpus, tmp_path, monkeypatch, capsys):
    parsed = []
    monkeypatch.setattr(cli, "load_document", lambda path: parsed.append(path))
    argv = _COMMANDS[command][1].format(d=corpus, o=tmp_path).split()
    assert main(argv + ["--dim", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "dim must be >= 2" in err
    assert "Traceback" not in err
    assert parsed == []
    assert not list(tmp_path.glob("out*"))


def test_load_repository_refuses_dim_one_with_the_builtin_embedder(corpus, tmp_path):
    path = tmp_path / "repo.lsr"
    path.write_bytes(forge_lsr((corpus / "repo.lsr").read_bytes(),
                               lambda header, _: header["config"].update(dim=1)))
    with pytest.raises(RepositoryError, match="dim must be >= 2"):
        load_repository(path)


def test_external_vectors_of_one_dimension_build_and_detect(corpus, tmp_path):
    vectors = tmp_path / "vectors"
    vectors.mkdir()
    for sub in ("tpls", "targets"):
        for name in os.listdir(corpus / sub):
            doc = load_document(corpus / sub / name)
            rows = [(fn.name, [1.0 + i]) for i, fn in enumerate(doc.functions)]
            (vectors / name).write_text(vector_file(doc.binary_id, 1, rows, count=len(rows)))
    out = tmp_path / "ext.lsr"
    assert main(["build", "--tpls", str(corpus / "tpls"), "--out", str(out),
                 "--vectors-dir", str(vectors), "--dim", "1", "--quiet"]) == 0
    config = load_repository(out).config
    assert (config.dim, config.embedder) == (1, "external")
    assert main(["detect", "--repo", str(out), "--targets", str(corpus / "targets"),
                 "--out", str(tmp_path / "r.jsonl"), "--vectors-dir", str(vectors),
                 "--quiet"]) == 0
    assert len(read_reports(tmp_path / "r.jsonl")) == 2


# ---------------------------------------------------------------------------
# report fields are type-checked on reading

_REPORT = {
    "binary_id": "bin", "config": {"theta3": 0.89},
    "entries": [{"library_id": "lib", "score": 0.5, "decision": True,
                 "evidence": [{"binary_function": "f", "library_function": "g",
                               "cosine": 0.5, "weight": 1.0, "contribution": 0.5}]}],
}


@pytest.mark.parametrize("where,field,value", [
    ("report", "binary_id", 7), ("report", "config", []), ("report", "entries", {}),
    ("entry", "library_id", 3), ("entry", "score", "x"), ("entry", "score", True),
    ("entry", "decision", "no"), ("entry", "decision", 1), ("entry", "evidence", {}),
    ("evidence", "binary_function", None), ("evidence", "library_function", 2),
    ("evidence", "cosine", "0.5"), ("evidence", "weight", False),
    ("evidence", "contribution", [0.5]), ("entry", "score", float("nan")),
    ("evidence", "cosine", float("inf")), ("config", "theta3", float("nan")),
    ("config", "mode", 5), ("config", "bogus", 1),
])
def test_read_reports_refuses_a_mistyped_field(where, field, value, tmp_path):
    bad = json.loads(json.dumps(_REPORT))
    record = {"report": bad, "entry": bad["entries"][0], "config": bad["config"],
              "evidence": bad["entries"][0]["evidence"][0]}[where]
    record[field] = value
    path = tmp_path / "reports.jsonl"
    path.write_text(json.dumps(_REPORT) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(ParseError, match=field) as err:
        read_reports(path)
    assert err.value.line == 2


def test_read_reports_accepts_integer_numbers(tmp_path):
    report = json.loads(json.dumps(_REPORT))
    report["entries"][0]["score"] = 1
    path = tmp_path / "reports.jsonl"
    path.write_text(json.dumps(report) + "\n")
    (back,) = read_reports(path)
    assert back.entries[0].score == 1


# ---------------------------------------------------------------------------
# gen

def test_gen_refuses_negative_targets_before_writing(tmp_path, capsys):
    assert main(["gen", "--out", str(tmp_path / "c"), "--targets", "-1", "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "targets" in err and "Traceback" not in err
    assert not (tmp_path / "c").exists()


def test_gen_accepts_zero_targets(tmp_path):
    out = tmp_path / "c"
    assert main(["gen", "--out", str(out), "--libraries", "2", "--functions", "4",
                 "--targets", "0", "--quiet"]) == 0
    assert os.listdir(out / "targets") == []
    assert json.loads((out / "manifest.json").read_text()) == {}
    assert json.loads((out / "corpus_spec.json").read_text())["planted_reuse"] == {}


def _files(root):
    return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_gen_refuses_a_non_empty_out_and_changes_nothing(tmp_path, capsys):
    out = tmp_path / "c"
    argv = ["gen", "--out", str(out), "--libraries", "2", "--functions", "6",
            "--distractors", "4", "--quiet", "--targets"]
    assert main(argv + ["4"]) == 0
    before = _files(out)
    assert main(argv + ["2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "not empty" in err and "Traceback" not in err
    assert _files(out) == before


@pytest.mark.parametrize("flags", [["--max-fraction", "1.3"], ["--min-fraction", "0"],
                                   ["--min-fraction", "0.9", "--max-fraction", "0.5"]],
                         ids=["max-above-one", "min-zero", "min-above-max"])
def test_gen_refuses_reuse_fractions_out_of_range_for_every_seed(flags, tmp_path, capsys):
    for seed in range(1, 7):
        out = tmp_path / str(seed)
        assert main(["gen", "--out", str(out), "--libraries", "3", "--functions", "10",
                     "--targets", "1", "--distractors", "5", "--seed", str(seed),
                     "--quiet"] + flags) == 2, seed
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "fraction" in err and "Traceback" not in err
        assert not out.exists()
