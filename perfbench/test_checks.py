"""The benchmark's own tests: every output check fails on a corrupted
output, and the tracer degrades instead of crashing.

    python3 -m pytest perfbench -q
"""
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, HERE]

import libsift  # noqa: E402

import checks  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

TINY = corpus.CorpusShape(libraries=5, functions=24, targets=6)
TINY_GRID = ((0.8, 0.9), (0.2, 0.5), (0.85, 0.89))


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    c = corpus.write_corpus(corpus.corpus_spec(3, TINY), str(out))
    origin = libsift.build_origin(c.tpls)
    repo = libsift.compute_weights(libsift.purify_mi(libsift.purify_export(origin)))
    repo_path = str(out / "repo.lsr")
    libsift.save_repository(repo, repo_path)
    return c, origin, repo, repo_path


def test_corpus_is_pinned_by_seed(tmp_path):
    a = corpus.write_corpus(corpus.corpus_spec(3, TINY), str(tmp_path / "a"))
    b = corpus.write_corpus(corpus.corpus_spec(3, TINY), str(tmp_path / "b"))
    c = corpus.write_corpus(corpus.corpus_spec(4, TINY), str(tmp_path / "c"))
    assert a.digest == b.digest != c.digest


def test_build_check_fails_on_a_corrupted_byte(tiny, tmp_path):
    _, _, _, repo_path = tiny
    data = bytearray(open(repo_path, "rb").read())
    sha = checks.sha256_file(repo_path)
    tally = checks.Tally()
    tally.record(checks.build_problems(repo_path, sha, str(tmp_path / "resaved")))
    assert tally.failed_ratio == 0.0

    data[len(data) // 2] ^= 0x01
    bad = tmp_path / "bad.lsr"
    bad.write_bytes(bytes(data))
    tally.record(checks.build_problems(str(bad), sha, str(tmp_path / "resaved")))
    assert tally.failed_ratio > 0.0


def test_build_check_fails_on_a_wrong_weight_without_a_digest(tiny, tmp_path):
    _, _, repo, _ = tiny
    lib = next(lib for lib, feats in repo.libraries.items() if feats)
    repo.libraries[lib][0].weight += 1e-6
    try:
        path = str(tmp_path / "wrong.lsr")
        libsift.save_repository(repo, path)  # valid checksum, wrong weight
        problems = checks.build_problems(path, None, str(tmp_path / "resaved"))
    finally:
        repo.libraries[lib][0].weight -= 1e-6
    assert any("oracle" in p for p in problems)


def _expected_scores(c, origin, repo):
    known = {f.function_name: f.vector for feats in origin.libraries.values() for f in feats}
    embedder = libsift.HashedNgramEmbedder()
    return {doc.binary_id: checks.oracle_scores(repo, checks.target_vectors(doc, embedder, known))
            for doc in c.targets}


def test_detect_check_fails_on_a_nudged_score(tiny, tmp_path):
    c, origin, repo, _ = tiny
    expected = _expected_scores(c, origin, repo)
    out = str(tmp_path / "reports.jsonl")
    libsift.write_reports([libsift.detect(doc, repo) for doc in c.targets], out)
    reports = checks.read_report_lines(out)

    tally = checks.Tally()
    for bin_id, truth in c.manifest.items():
        tally.record(checks.report_problems(reports[bin_id], truth, expected[bin_id]))
    assert tally.attempted == len(c.targets) and tally.failed_ratio == 0.0

    bin_id = sorted(reports)[0]
    reports[bin_id]["entries"][0]["score"] += 1e-6
    tally.record(checks.report_problems(reports[bin_id], c.manifest[bin_id], expected[bin_id]))
    assert tally.failed_ratio > 0.0


def test_sweep_check_fails_on_a_changed_row(tiny):
    c, _, _, _ = tiny
    grid = libsift.sweep(c.tpls, c.targets, c.manifest, theta1_values=TINY_GRID[0],
                         theta2_values=TINY_GRID[1], theta3_values=TINY_GRID[2])
    data = grid.to_csv_bytes()
    oracle = checks.sweep_oracle(c.tpls, c.targets, c.manifest, TINY_GRID)
    best = grid.best()
    recorded_best = [best.theta1, best.theta2, best.theta3, best.precision, best.recall, best.f1]
    sha = checks.hashlib.sha256(data).hexdigest()

    tally = checks.Tally()
    tally.record(checks.sweep_problems(data, TINY_GRID, sha, oracle, recorded_best))
    tally.record(checks.sweep_problems(data, TINY_GRID, None, oracle))
    assert tally.failed_ratio == 0.0

    lines = data.decode().splitlines()
    fields = lines[3].split(",")
    fields[4] = repr(float(fields[4]) / 2)  # halve one cell's precision
    lines[3] = ",".join(fields)
    changed = ("\n".join(lines) + "\n").encode()
    tally.record(checks.sweep_problems(changed, TINY_GRID, None, oracle))  # no digest
    assert tally.failed == 1
    tally.record(checks.sweep_problems(changed, TINY_GRID, sha, oracle, recorded_best))
    assert tally.failed == 2


def test_tracer_reports_a_missing_attribute_instead_of_crashing():
    t = tracer.Tracer()
    t.install(wraps=[("libsift.detector", "no_such_function", "detector.aggregate", None),
                     ("libsift.no_such_module", "f", "evaluation.sweep", None)])
    assert t.missing == ["detector.aggregate", "evaluation.sweep"]
    values = tracer.summarize(t.dump(), op_s=1.0, import_s=0.1)
    assert values["detector.aggregate_calls"] is None
    assert values["evaluation.cells"] is None
    assert values["interchange.parse_s"] == 0.0


def test_traced_detect_op_counts_every_layer(tiny, tmp_path):
    c, _, repo, repo_path = tiny
    result_path = str(tmp_path / "result.json")
    env = dict(os.environ, PYTHONPATH=SRC)
    targets = [os.path.join(c.target_dir, doc.binary_id + ".jsonl") for doc in c.targets]
    subprocess.run([sys.executable, os.path.join(HERE, "op.py"), result_path, "1", "detect",
                    repo_path, str(tmp_path / "reports.jsonl")] + targets,
                   env=env, check=True, timeout=120)
    result = json.load(open(result_path))
    values = tracer.summarize(result["trace"], result["op_s"], result["import_s"])
    assert result["trace"]["missing"] == []
    assert values["interchange.docs"] == len(c.targets)
    assert values["detector.aggregate_calls"] == len(c.targets) * len(repo.libraries)
    assert values["kernels.calls"] == values["detector.aggregate_calls"]
    assert values["evaluation.rescore_ratio"] == 1.0
    assert values["cli.overhead_s"] >= 0.0


def test_reported_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    empty = {"spans": [], "counters": {}, "distinct": {}, "missing": []}
    fake = run.Op(1.0, 10.0, 0, {"trace": empty, "op_s": 1.0, "import_s": 0.1}, "")
    values, _ = run.per_layer([fake], [fake])
    assert sorted(values) == sorted(m["name"] for m in bench["per_layer"])

    class Stub:
        items = 3

    e2e = run.end_to_end(Stub(), [fake], [0.5])
    assert sorted(e2e) == sorted(m["name"] for m in bench["end_to_end"])


def test_setup_fails_when_the_corpus_digest_differs(tmp_path, monkeypatch):
    monkeypatch.setitem(corpus.SHAPES, "build", TINY)
    good = run.Build(libsift, 3, str(tmp_path), {})
    good.setup()
    run.Build(libsift, 3, str(tmp_path), {"corpus": good.digests["corpus"]}).setup()
    with pytest.raises(run.SetupError):
        run.Build(libsift, 3, str(tmp_path), {"corpus": "0" * 64}).setup()
