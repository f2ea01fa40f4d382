"""scripts/bench_pairs.py driven by a stub run, so no benchmark runs here,
and the shape of every committed BENCH_*.json row."""
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

NAMES = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def _stub_runs(monkeypatch, scale):
    """Replace run_once by a stub whose k-th run in a checkout reads
    k * scale[checkout] for every metric (no result when the scale is
    None); returns the list of (checkout, workload, seed) it was asked for."""
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((checkout, workload, seed))
        if scale[checkout] is None:
            return {}, None
        k = sum(1 for call in calls if call[0] == checkout and call[1:] == (workload, seed))
        return ({"commit": checkout, "src_sha256": "src-" + checkout, "nproc": 2},
                {"attempted": 4, "failed": 0,
                 "metrics": {name: {"value": k * scale[checkout]} for name in NAMES}})

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    return calls


def test_pairs_alternate_and_each_workload_gets_one_row(monkeypatch, tmp_path):
    calls = _stub_runs(monkeypatch, {"P": 1.0, "C": 1.2})
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", "P", "--change", "C", "--workloads", "build,sweep",
                             "--seeds", "1,1009", "--pairs", "3", "--seconds", "2",
                             "--out", str(out)]) == 0
    assert calls[:6] == [("P", "build", 1), ("C", "build", 1), ("C", "build", 1),
                         ("P", "build", 1), ("P", "build", 1), ("C", "build", 1)]
    rows = json.loads(out.read_text())
    assert [(r["workload"], r["seed"], r["pairs"]) for r in rows] == [
        ("build", 1, 3), ("sweep", 1, 3), ("build", 1009, 3), ("sweep", 1009, 3)]
    row = rows[0]
    assert row["parent"] == {"commit": "P", "src_sha256": "src-P", "runs": 3,
                             "attempted_ops": 12, "failed_ops": 0}
    assert row["change"]["commit"] == "C" and row["env"]["nproc"] == 2
    assert list(row["metrics"]) == NAMES
    op_s = row["metrics"]["op_s"]
    assert op_s["parent"] == {"median": 2.0, "q1": 1.5, "q3": 2.5, "iqr": 1.0}
    assert op_s["change"]["median"] == pytest.approx(2.4)
    # the change reads 20% higher everywhere: worse only past a 10% bound
    # on a lower-is-better metric
    assert {name: m["verdict"] for name, m in row["metrics"].items()} == {
        "op_s": "within", "items_per_s": "within", "peak_rss_mb": "worse", "setup_s": "within"}
    assert op_s["change_vs_parent"] == 0.2


@pytest.mark.parametrize("missing", ["P", "C"])
def test_a_row_with_a_side_missing_is_refused(monkeypatch, tmp_path, capsys, missing):
    _stub_runs(monkeypatch, dict({"P": 1.0, "C": 1.0}, **{missing: None}))
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", "P", "--change", "C", "--workloads", "detect",
                             "--seeds", "1", "--pairs", "2", "--out", str(out)]) == 1
    side = {"P": "parent", "C": "change"}[missing]
    assert "the %s side is missing" % side in capsys.readouterr().err
    assert not out.exists()


def test_committed_rows_hold_both_sides_of_the_end_to_end_metrics():
    rows = [row for path in sorted(ROOT.glob("BENCH_*.json"))
            for row in json.loads(path.read_text())]
    measured = {(row["workload"], row["seed"]) for row in rows
                if not row.get("transcribed") and row["pairs"] >= 5}
    assert measured >= {(w, s) for w in ("build", "detect", "sweep") for s in (1, 1009)}
    for row in rows:
        assert "parent" in row and "change" in row
        assert row["metrics"] and set(row["metrics"]) <= set(NAMES)
        for metric in row["metrics"].values():
            assert metric["parent"]["median"] > 0 and metric["change"]["median"] > 0
