import dataclasses
import json
import os
import random
import weakref

import pytest

from libsift import (
    ConfigError,
    RepoConfig,
    SyntheticCorpusSpec,
    build_repository,
    load_document,
    load_manifest,
    load_repository,
    random_reuse_plan,
    read_reports,
    save_repository,
    score_metrics,
)
from libsift import cli
from libsift.cli import main

from corpora import write_seeded_vectors


_GEN_FLAGS = ["--seed", "3", "--libraries", "4", "--functions", "12", "--targets", "4",
              "--distractors", "8", "--max-libs", "2", "--min-fraction", "0.55", "--quiet"]
# theta2 0.45 keeps every library's complex exports on this small corpus;
# the default 0.2 can starve a library entirely, which is its own test
_REPO_FLAGS = ["--dim", "192", "--theta2", "0.45", "--quiet"]


def _build(corpus_dir, out, *flags):
    """The exit code of `build` from the corpus's libraries into `out`."""
    return main(["build", "--tpls", str(corpus_dir / "tpls"), "--out", str(out), *flags])


def _detect(repo, targets, out, *flags):
    """The exit code of `detect` of the documents at `targets` into `out`."""
    return main(["detect", "--repo", str(repo), "--targets", str(targets), "--out", str(out),
                 *flags])


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(["gen", "--out", str(out)] + _GEN_FLAGS) == 0
    return out


@pytest.fixture(scope="module")
def repo_path(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("repo") / "repo.lsr"
    assert _build(corpus_dir, out, *_REPO_FLAGS) == 0
    return out


def test_gen_writes_expected_layout(corpus_dir):
    tpls = sorted(os.listdir(corpus_dir / "tpls"))
    targets = sorted(os.listdir(corpus_dir / "targets"))
    assert tpls == ["lib%03d.jsonl" % i for i in range(4)]
    assert targets == ["bin%03d.jsonl" % i for i in range(4)]
    manifest = load_manifest(corpus_dir / "manifest.json")
    assert set(manifest) == {"bin%03d" % i for i in range(4)}
    sidecar = json.loads((corpus_dir / "corpus_spec.json").read_text())
    assert sidecar["rng_seed"] == 3
    assert set(sidecar["planted_reuse"]) == set(manifest)


def test_gen_is_reproducible(corpus_dir, tmp_path):
    again = tmp_path / "again"
    assert main(["gen", "--out", str(again)] + _GEN_FLAGS) == 0
    for rel in ("tpls/lib000.jsonl", "targets/bin002.jsonl", "manifest.json"):
        assert (again / rel).read_bytes() == (corpus_dir / rel).read_bytes()


def test_gen_defaults_are_the_generators(tmp_path):
    out = tmp_path / "defaults"
    assert main(["gen", "--out", str(out), "--quiet"]) == 0
    spec = SyntheticCorpusSpec()
    plan = random_reuse_plan(random.Random(spec.rng_seed), ["bin%03d" % i for i in range(20)],
                             spec.library_ids())
    expected = dict(dataclasses.asdict(spec), planted_reuse={
        b: {"libraries": libs, "fraction": frac} for b, (libs, frac) in plan.items()})
    assert json.loads((out / "corpus_spec.json").read_text()) == expected


def test_gen_refuses_an_empty_out_and_writes_nothing(tmp_path, monkeypatch, capsys):
    work = tmp_path / "cwd"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(["gen", "--out", "", "--libraries", "2", "--functions", "3",
                 "--targets", "1", "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "--out" in err and "Traceback" not in err
    assert os.listdir(work) == []


def test_build_writes_repository_with_all_stages(repo_path):
    repo = load_repository(repo_path)
    assert repo.config.stages == ("export", "mi", "weights")
    assert repo.config.dim == 192
    assert [s.stage for s in repo.stats] == ["origin", "export", "mi"]


def test_build_is_deterministic(corpus_dir, repo_path, tmp_path):
    other = tmp_path / "again.lsr"
    assert _build(corpus_dir, other, *_REPO_FLAGS) == 0
    assert other.read_bytes() == repo_path.read_bytes()


def test_build_stage_selection(corpus_dir, tmp_path):
    out = tmp_path / "origin.lsr"
    assert _build(corpus_dir, out, "--stages", "none", "--dim", "64", "--quiet") == 0
    assert load_repository(out).config.stages == ()

    out2 = tmp_path / "exp.lsr"
    assert _build(corpus_dir, out2, "--stages", "export,weights", "--dim", "64", "--quiet") == 0
    assert load_repository(out2).config.stages == ("export", "weights")

    # a config file's empty list means no stages, as --stages none does
    config = tmp_path / "cfg.json"
    config.write_text('{"stages": []}')
    out3 = tmp_path / "config-origin.lsr"
    assert _build(corpus_dir, out3, "--config", str(config), "--dim", "64", "--quiet") == 0
    assert out3.read_bytes() == out.read_bytes()


@pytest.mark.parametrize("command, flag, value, needle", [
    ("build", "--stages", "", "bad stages"),
    ("build", "--stages", ",", "bad stages"),
    ("build", "--stages", " , ", "bad stages"),
    ("build", "--config", "", "--config must name a file"),
    ("detect", "--config", "", "--config must name a file"),
    ("build", "--vectors-dir", "", "--vectors-dir must name a directory"),
    ("detect", "--vectors-dir", "", "--vectors-dir must name a directory"),
])
def test_an_empty_flag_value_is_refused(corpus_dir, repo_path, tmp_path, capsys,
                                        command, flag, value, needle):
    # an unset shell variable must not quietly fall back to a default
    out = tmp_path / "out"
    inputs = (["--tpls", str(corpus_dir / "tpls")] if command == "build" else
              ["--repo", str(repo_path), "--targets", str(corpus_dir / "targets")])
    assert main([command] + inputs + ["--out", str(out), flag, value, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert needle in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("stages", ["none", "export", "mi", "weights", "weights,export", None])
def test_build_writes_what_build_repository_builds(corpus_dir, tmp_path, stages):
    out = tmp_path / "cli.lsr"
    flags = [] if stages is None else ["--stages", stages]
    assert _build(corpus_dir, out, "--dim", "64", "--theta1", "0.9", "--theta2", "0.4", "--quiet",
                  *flags) == 0
    docs = (load_document(corpus_dir / "tpls" / name)
            for name in sorted(os.listdir(corpus_dir / "tpls")))
    kwargs = {} if stages is None else {"stages": cli._parse_stages(stages)}
    api = tmp_path / "api.lsr"
    save_repository(build_repository(docs, dim=64, theta1=0.9, theta2=0.4, **kwargs), api)
    assert out.read_bytes() == api.read_bytes()


def test_build_prints_stage_table(corpus_dir, tmp_path, capsys):
    out = tmp_path / "r.lsr"
    assert _build(corpus_dir, out, "--dim", "64") == 0
    printed = capsys.readouterr().out
    assert "origin" in printed and "export" in printed and "mi" in printed
    assert "timing" in printed


def test_build_no_timing_flag(corpus_dir, tmp_path, capsys):
    out = tmp_path / "r.lsr"
    assert _build(corpus_dir, out, "--dim", "64", "--no-timing") == 0
    printed = capsys.readouterr().out
    assert not any(line.startswith("timing") for line in printed.splitlines())


def test_detect_reports_and_summary(corpus_dir, repo_path, tmp_path, capsys):
    out = tmp_path / "reports.jsonl"
    assert _detect(repo_path, corpus_dir / "targets", out, "--theta3", "0.85") == 0
    printed = capsys.readouterr().out
    reports = read_reports(out)
    assert [r.binary_id for r in reports] == ["bin%03d" % i for i in range(4)]
    manifest = load_manifest(corpus_dir / "manifest.json")
    result = score_metrics(reports, manifest)
    assert result.recall == 1.0
    assert "REUSED" in printed


@pytest.mark.parametrize("command, flag", [
    ("build", ["--batch", "4"]),
    ("build", ["--mode", "match-sum"]),
    ("detect", ["--dim", "192"]),
    ("detect", ["--seed", "3"]),
    ("detect", ["--jobs", "2"]),
    ("detect", ["--batch", "4"]),
])
def test_flags_a_command_does_not_read_are_usage_errors(corpus_dir, repo_path, tmp_path,
                                                        capsys, command, flag):
    out = tmp_path / "out"
    args = {
        "build": ["build", "--tpls", str(corpus_dir / "tpls")],
        "detect": ["detect", "--repo", str(repo_path), "--targets", str(corpus_dir / "targets")],
    }[command]
    assert main(args + ["--out", str(out), "--quiet"] + flag) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: %s" % flag[0] in err and "Traceback" not in err
    assert not out.exists()


def test_detect_single_file_target(corpus_dir, repo_path, tmp_path):
    out = tmp_path / "one.jsonl"
    assert _detect(repo_path, corpus_dir / "targets" / "bin001.jsonl", out, "--quiet") == 0
    reports = read_reports(out)
    assert len(reports) == 1 and reports[0].binary_id == "bin001"


def test_sweep_csv_and_meta(corpus_dir, tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code = main([
        "sweep", "--tpls", str(corpus_dir / "tpls"),
        "--targets", str(corpus_dir / "targets"),
        "--manifest", str(corpus_dir / "manifest.json"),
        "--out", str(out), "--dim", "128",
        "--theta1-grid", "0.8,0.9", "--theta2-grid", "0.2,0.4",
        "--theta3-grid", "0.8,0.85,0.9",
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 13  # header + 2*2*3
    assert lines[0].startswith("theta1,")
    meta = json.loads((tmp_path / "grid.csv.meta.json").read_text())
    assert meta["theta1_grid"] == [0.8, 0.9]
    assert meta["dim"] == 128
    assert "best:" in capsys.readouterr().out


def test_sweep_default_grid_size(corpus_dir, tmp_path):
    out = tmp_path / "grid.csv"
    assert main([
        "sweep", "--tpls", str(corpus_dir / "tpls"),
        "--targets", str(corpus_dir / "targets"),
        "--manifest", str(corpus_dir / "manifest.json"),
        "--out", str(out), "--dim", "96", "--quiet",
    ]) == 0
    assert len(out.read_text().splitlines()) == 911


def test_ablate_csv_and_meta(corpus_dir, tmp_path, capsys):
    out = tmp_path / "ablation.csv"
    code = main([
        "ablate", "--tpls", str(corpus_dir / "tpls"),
        "--targets", str(corpus_dir / "targets"),
        "--manifest", str(corpus_dir / "manifest.json"),
        "--out", str(out), "--dim", "128",
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 9
    assert lines[1].startswith("origin,off,")
    meta = json.loads((tmp_path / "ablation.csv.meta.json").read_text())
    assert meta["theta3"] == 0.89
    assert "export+mi" in capsys.readouterr().out


def test_inspect_text_and_json(repo_path, capsys):
    assert main(["inspect", "--repo", str(repo_path)]) == 0
    text = capsys.readouterr().out
    assert "stages: export,mi,weights" in text
    assert "total features:" in text

    assert main(["inspect", "--repo", str(repo_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim"] == 192
    assert set(payload["libraries"]) == {"lib%03d" % i for i in range(4)}
    assert payload["stats"][0]["stage"] == "origin"


def test_config_file_and_flag_precedence(corpus_dir, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"dim": 128, "theta2": 0.4}))
    out = tmp_path / "r.lsr"
    assert _build(corpus_dir, out, "--config", str(cfg_path), "--dim", "96", "--quiet") == 0
    repo = load_repository(out)
    assert repo.config.dim == 96  # flag beats file
    assert repo.config.theta2 == 0.4  # file beats default


def test_exit_code_two_on_bad_config(corpus_dir, tmp_path, capsys):
    out = tmp_path / "r.lsr"
    assert _build(corpus_dir, out, "--theta2", "0", "--quiet") == 2
    assert "config error" in capsys.readouterr().err
    assert _build(corpus_dir, out, "--stages", "export,polish", "--quiet") == 2
    capsys.readouterr()
    cfg_path = tmp_path / "cfg.json"
    for bad in (b'{"theta1": "x"}', b'{"stages": 5}', b'{"stages": [["export"]]}',
                b'{"dim": true}', b'{"batch": 4}', b'\xff\xfe{}', b'{"theta3": NaN}'):
        cfg_path.write_bytes(bad)
        assert _build(corpus_dir, out, "--config", str(cfg_path), "--quiet") == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
    assert not out.exists()


def test_sweep_and_ablate_exit_one_on_a_target_missing_from_the_manifest(corpus_dir, tmp_path,
                                                                         capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"bin000": ["lib000"]}))
    for command in ("sweep", "ablate"):
        out = tmp_path / (command + ".csv")
        assert main([
            command, "--tpls", str(corpus_dir / "tpls"),
            "--targets", str(corpus_dir / "targets"), "--manifest", str(manifest),
            "--out", str(out), "--dim", "64", "--quiet",
        ]) == 1
        err = capsys.readouterr().err
        assert "missing from manifest" in err and "Traceback" not in err
        assert not out.exists()


def test_detect_sweep_and_ablate_exit_one_on_a_target_given_twice(corpus_dir, repo_path,
                                                                  tmp_path, capsys):
    # a copy of bin001 under a second file name still holds binary id bin001
    targets = tmp_path / "targets"
    targets.mkdir()
    for name in os.listdir(corpus_dir / "targets"):
        (targets / name).write_bytes((corpus_dir / "targets" / name).read_bytes())
    (targets / "copy.jsonl").write_bytes((targets / "bin001.jsonl").read_bytes())
    for command in ("detect", "sweep", "ablate"):
        out = tmp_path / (command + ".out")
        inputs = (["--repo", str(repo_path)] if command == "detect" else
                  ["--tpls", str(corpus_dir / "tpls"), "--dim", "64",
                   "--manifest", str(corpus_dir / "manifest.json")])
        assert main([command, "--targets", str(targets), "--out", str(out), "--quiet"]
                    + inputs) == 1
        err = capsys.readouterr().err
        assert "'bin001' given twice" in err and "Traceback" not in err
        assert not out.exists()


def test_seed_outside_signed_64_bits_is_a_config_error(corpus_dir, tmp_path, capsys):
    RepoConfig(seed=-(2 ** 63))
    RepoConfig(seed=2 ** 63 - 1)
    for seed in (2 ** 63, -(2 ** 63) - 1):
        with pytest.raises(ConfigError, match="seed"):
            RepoConfig(seed=seed)
    out = tmp_path / "r.lsr"
    assert _build(corpus_dir, out, "--seed", "100000000000000000000", "--quiet") == 2
    err = capsys.readouterr().err
    assert "config error" in err and "seed" in err and "Traceback" not in err
    assert not out.exists()


def test_exit_code_two_on_usage_error(capsys):
    assert main(["build"]) == 2  # missing required arguments
    capsys.readouterr()
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_exit_code_two_on_a_directory_without_documents(repo_path, tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    out = tmp_path / "out"
    for args in (["build", "--tpls", str(empty)],
                 ["detect", "--repo", str(repo_path), "--targets", str(empty)]):
        assert main(args + ["--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "no .jsonl documents" in err and "Traceback" not in err
        assert not out.exists()


def test_exit_code_one_on_missing_input(tmp_path, capsys):
    code = main([
        "inspect", "--repo", str(tmp_path / "nope.lsr"),
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_exit_code_one_on_malformed_document(repo_path, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json\n", encoding="utf-8")
    out = tmp_path / "reports.jsonl"
    assert _detect(repo_path, bad, out, "--quiet") == 1
    assert "error:" in capsys.readouterr().err


def test_external_vectors_end_to_end(corpus_dir, tmp_path):
    # same name -> same vector, so planted copies still match exactly
    dim = 32
    vec_dir = tmp_path / "vectors"
    write_seeded_vectors(vec_dir, map(load_document, corpus_dir.glob("*/*.jsonl")), dim)
    repo_out = tmp_path / "ext.lsr"
    assert _build(corpus_dir, repo_out, "--vectors-dir", str(vec_dir), "--dim", str(dim),
                  "--stages", "export,weights", "--quiet") == 0
    repo = load_repository(repo_out)
    assert repo.config.embedder == "external"

    reports_out = tmp_path / "reports.jsonl"
    assert _detect(repo_out, corpus_dir / "targets", reports_out, "--vectors-dir", str(vec_dir),
                   "--quiet") == 0
    manifest = load_manifest(corpus_dir / "manifest.json")
    result = score_metrics(read_reports(reports_out), manifest)
    assert result.recall == 1.0

    # detecting without vectors against an external repository is refused
    assert _detect(repo_out, corpus_dir / "targets", tmp_path / "x.jsonl", "--quiet") == 2


def _record_vector_reads(monkeypatch, vec_dir) -> list:
    """The files under `vec_dir` that the CLI opens from now on, in order."""
    opened = []

    def recording_open(path, *args, **kwargs):
        if os.path.dirname(os.fspath(path)) == str(vec_dir):
            opened.append(os.path.basename(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    return opened


@pytest.mark.parametrize("vector_files", ["every target", "none"])
def test_detect_refuses_vectors_for_a_hashed_repository(corpus_dir, repo_path, tmp_path,
                                                         monkeypatch, capsys, vector_files):
    vec_dir = tmp_path / "vectors"
    targets = (corpus_dir / "targets").glob("*.jsonl") if vector_files == "every target" else ()
    write_seeded_vectors(vec_dir, map(load_document, targets), 192)
    opened = _record_vector_reads(monkeypatch, vec_dir)
    out = tmp_path / "reports.jsonl"
    assert _detect(repo_path, corpus_dir / "targets", out, "--vectors-dir", str(vec_dir),
                   "--quiet") == 2
    err = capsys.readouterr().err
    assert "mix embedding spaces" in err and "Traceback" not in err
    assert opened == []
    assert not out.exists()


def test_build_with_vectors_refuses_a_target_document_before_reading_its_vectors(
        corpus_dir, tmp_path, monkeypatch, capsys):
    tpls, vec_dir = tmp_path / "tpls", tmp_path / "vectors"
    tpls.mkdir()
    # the target's file name sorts last, so both libraries are read first
    for src, name in (("tpls/lib000.jsonl", "lib000.jsonl"), ("tpls/lib001.jsonl", "lib001.jsonl"),
                      ("targets/bin000.jsonl", "z.jsonl")):
        (tpls / name).write_bytes((corpus_dir / src).read_bytes())
        write_seeded_vectors(vec_dir, [load_document(tpls / name)], 32)
    opened = _record_vector_reads(monkeypatch, vec_dir)
    out = tmp_path / "ext.lsr"
    assert main(["build", "--tpls", str(tpls), "--out", str(out), "--vectors-dir", str(vec_dir),
                 "--dim", "32", "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "has kind 'target'" in err and "Traceback" not in err
    assert opened == ["lib000.jsonl", "lib001.jsonl"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["build", "build-vectors", "detect", "sweep", "ablate"])
def test_commands_parse_one_document_at_a_time(corpus_dir, repo_path, tmp_path, monkeypatch,
                                              command):
    # each document is dropped once it is used; while the next one is
    # parsed, loop variables may still name the previous one, and loading
    # every document first would keep all of them alive
    vec_dir = tmp_path / "vectors"
    if command == "build-vectors":
        write_seeded_vectors(vec_dir, map(load_document, (corpus_dir / "tpls").glob("*.jsonl")), 32)
    tpls, targets = str(corpus_dir / "tpls"), str(corpus_dir / "targets")
    out = str(tmp_path / "out")
    args, count = {
        "build": (["build", "--tpls", tpls, "--dim", "64"], 4),
        "build-vectors": (["build", "--tpls", tpls, "--dim", "32",
                           "--vectors-dir", str(vec_dir)], 4),
        "detect": (["detect", "--repo", str(repo_path), "--targets", targets], 4),
        "sweep": (["sweep", "--tpls", tpls, "--targets", targets,
                   "--manifest", str(corpus_dir / "manifest.json"), "--dim", "64",
                   "--theta1-grid", "0.8", "--theta2-grid", "0.45",
                   "--theta3-grid", "0.9"], 8),
        "ablate": (["ablate", "--tpls", tpls, "--targets", targets,
                    "--manifest", str(corpus_dir / "manifest.json"), "--dim", "64"], 8),
    }[command]

    parsed, alive_at_load = [], []
    real_load = cli.load_document

    def load(path):
        alive_at_load.append(sum(ref() is not None for ref in parsed))
        doc = real_load(path)
        parsed.append(weakref.ref(doc))
        return doc

    monkeypatch.setattr(cli, "load_document", load)
    assert main(args + ["--out", out, "--quiet"]) == 0
    assert len(parsed) == count
    assert max(alive_at_load) <= 2, alive_at_load
