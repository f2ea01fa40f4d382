#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, one BENCH row per workload.

    python3 scripts/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \
        [--workloads build,detect,sweep] [--seeds 1,1009] [--pairs 5] \
        [--seconds 30] [--out BENCH_<date>.json]

PARENT_DIR and CHANGE_DIR are two checkouts of this repository: the code
before a change and the change.  For each seed and workload the script
runs `python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`
once in each checkout per pair, alternating which side runs first, and
then appends one row to the BENCH file (a JSON list; by default
BENCH_<UTC date>.json next to this repository's BENCHMARK.json).  A row
holds both sides' commit and source digest, their run and operation
counts, and for each end-to-end metric of BENCHMARK.json the median and
quartiles of each side's runs, the change's relative move and its verdict
against the metric's bound.  A row is refused, and the script exits 1,
when a run of either side fails or reads no value for a metric: a row
without its parent side compares nothing.
"""
from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


class RowRefused(Exception):
    pass


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(checkout, workload, seed, seconds):
    """(env, result) of one untraced benchmark run in `checkout`: its `env`
    line and its last stdout line, decoded; result is None when the run
    exits non-zero or its last line is not JSON."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    try:
        return env, json.loads(lines[-1]) if proc.returncode == 0 else None
    except (IndexError, ValueError):
        return env, None


def spread(values) -> dict:
    """The median and quartiles (inclusive method) of `values`."""
    values = sorted(values)
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def judge(metric, entry) -> dict:
    """`entry` (a metric's parent and change spreads) with the change's
    relative move of the median and its verdict: "worse" when it is worse
    than the parent's by more than the metric's bound, else "within"."""
    move = entry["change"]["median"] / entry["parent"]["median"] - 1.0
    worse = move > metric["bound"] if metric["better"] == "lower" else move < -metric["bound"]
    return dict(entry, unit=metric["unit"], better=metric["better"], bound=metric["bound"],
                change_vs_parent=round(move, 4), verdict="worse" if worse else "within")


def make_row(workload, seed, seconds, runs, metrics) -> dict:
    """The BENCH row of `runs`, {side: [(env, result)] in run order}; raises
    RowRefused when a run of a side failed or missed a metric, the parent
    side first."""
    row = {"workload": workload, "seed": seed, "pairs": len(runs["parent"]),
           "seconds": seconds}
    for side in SIDES:
        results = [result for _, result in runs[side]]
        unread = [m["name"] for m in metrics for result in results
                  if result is None or result["metrics"].get(m["name"], {}).get("value") is None]
        if not results or unread:
            raise RowRefused("%s seed %d: the %s side is missing (%s)"
                             % (workload, seed, side, ", ".join(sorted(set(unread))) or "no runs"))
        env = runs[side][0][0]
        row[side] = {"commit": env.get("commit"), "src_sha256": env.get("src_sha256"),
                     "runs": len(results), "attempted_ops": sum(r["attempted"] for r in results),
                     "failed_ops": sum(r["failed"] for r in results)}
    row["env"] = {key: runs["parent"][0][0].get(key)
                  for key in ("python", "numpy", "blas", "blas_threads", "nproc")}
    row["metrics"] = {
        m["name"]: judge(m, {side: spread(r["metrics"][m["name"]]["value"] for _, r in runs[side])
                             for side in SIDES})
        for m in metrics}
    return row


def append_row(path, row) -> None:
    rows = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            rows = json.load(fh)
    rows.append(row)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    bench = benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the code before the change")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1,1009")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--out", default=os.path.join(
        ROOT, "BENCH_%s.json" % datetime.datetime.now(datetime.timezone.utc).date()))
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent, "change": args.change}
    for seed in [int(s) for s in args.seeds.split(",")]:
        for workload in args.workloads.split(","):
            runs = {side: [] for side in SIDES}
            for pair in range(args.pairs):
                for side in SIDES[::-1] if pair % 2 else SIDES:
                    runs[side].append(run_once(checkouts[side], workload, seed, args.seconds))
                    print("%s seed %d pair %d %s done" % (workload, seed, pair + 1, side),
                          file=sys.stderr, flush=True)
            try:
                row = make_row(workload, seed, args.seconds, runs, bench["end_to_end"])
            except RowRefused as exc:
                print("row refused: %s" % exc, file=sys.stderr)
                return 1
            append_row(args.out, row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
