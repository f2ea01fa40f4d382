"""libsift benchmark: one workload per invocation.

    python3 perfbench/run.py --workload build|detect|sweep --seed N \
        --seconds S --trace 0|1

Set-up generates the workload's corpus from the seed (three times; the
median is `setup_s`), then a single client runs operations in a closed
loop, each in a fresh interpreter, for about S seconds.  Every output is
checked; a wrong output is a failed operation.  With --trace 0 the last
stdout line holds the end-to-end metrics; with --trace 1 untraced and
traced operations alternate and it holds the per-layer metrics.  The names
and units are those in BENCHMARK.json; see perfbench/README.md.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0  # every op is killed past this point of the run


class SetupError(Exception):
    pass


def import_libsift():
    if not os.path.isfile(os.path.join(SRC, "libsift", "__init__.py")):
        raise SetupError("no libsift sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import libsift

    if not os.path.abspath(libsift.__file__).startswith(SRC + os.sep):
        raise SetupError("imported libsift from %s, not %s" % (libsift.__file__, SRC))
    return libsift


# ---------------------------------------------------------------------------
# environment block

def _blas_threads():
    import numpy as np

    lib_dir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(lib_dir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "libsift", "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(path, SRC).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def environment(libsift, seed):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "kernel_backend": libsift.kernel_backend,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# operations

class Op:
    """One finished child process."""

    def __init__(self, wall_s, rss_mb, exit_code, result, stderr):
        self.wall_s = wall_s
        self.rss_mb = rss_mb
        self.exit_code = exit_code
        self.result = result
        self.stderr = stderr


def run_op(work, index, traced, kind, args, run_start):
    result_path = os.path.join(work, "op-%d.json" % index)
    err_path = os.path.join(work, "op-%d.err" % index)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    argv = [sys.executable, os.path.join(HERE, "op.py"), result_path, "1" if traced else "0",
            kind] + list(args)
    with open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(max(1.0, RUN_LIMIT_S - (perf_counter() - run_start)), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = None
    if proc.returncode == 0:
        with open(result_path, "r", encoding="utf-8") as fh:
            result = json.load(fh)
        os.remove(result_path)
    with open(err_path, "r", encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()[-2000:]
    os.remove(err_path)
    return Op(wall, usage.ru_maxrss / 1024.0, proc.returncode, result, stderr)


# ---------------------------------------------------------------------------
# workloads: set-up, one op's arguments, and the check of its output

class Workload:
    items = 0

    def __init__(self, libsift, seed, work, recorded):
        self.libsift = libsift
        self.seed = seed
        self.work = work
        self.recorded = recorded  # digests for this seed and workload, or {}
        self.digests = {}

    def setup(self):
        raise NotImplementedError

    def prepare_checks(self):
        """Oracle work done once after set-up, outside its timing."""

    def op_args(self, index):
        raise NotImplementedError

    def check(self, index, op, tally):
        raise NotImplementedError

    def _write_corpus(self):
        import corpus

        spec = corpus.corpus_spec(self.seed, corpus.SHAPES[self.name])
        c = corpus.write_corpus(spec, os.path.join(self.work, "corpus"))
        self.digests["corpus"] = c.digest
        want = self.recorded.get("corpus")
        if want is not None and c.digest != want:
            raise SetupError("corpus digest %s differs from the recorded %s for seed %d"
                             % (c.digest, want, self.seed))
        return c

    def _expect(self, key, value):
        """The recorded digest if there is one, else the first value seen."""
        return self.digests.setdefault(key, self.recorded.get(key, value))


class Build(Workload):
    name = "build"

    def setup(self):
        self.corpus = self._write_corpus()
        self.items = len(self.corpus.tpls)

    def op_args(self, index):
        out = os.path.join(self.work, "build-%d.lsr" % index)
        return "cli", ["build", "--tpls", self.corpus.tpl_dir, "--out", out, "--quiet"]

    def check(self, index, op, tally):
        import checks

        out = os.path.join(self.work, "build-%d.lsr" % index)
        if op.exit_code != 0 or op.result["exit"] != 0:
            tally.record(["build op %d exited %s: %s" % (index, op.exit_code, op.stderr)])
            return
        expected = self._expect("lsr", checks.sha256_file(out))
        tally.record(checks.build_problems(out, expected, out + ".resaved"))
        os.remove(out)


class Detect(Workload):
    """Each op scans one batch of BATCH targets; batch k holds every
    (targets / BATCH)-th target from k, so every batch spans the whole
    range of reuse fractions and the batches do about equal work."""

    name = "detect"
    BATCH = 20

    def setup(self):
        ls = self.libsift
        self.corpus = self._write_corpus()
        self.items = self.BATCH
        origin = ls.build_origin(self.corpus.tpls)
        self.repo = ls.compute_weights(ls.purify_mi(ls.purify_export(origin)))
        self.repo_path = os.path.join(self.work, "repo.lsr")
        ls.save_repository(self.repo, self.repo_path)
        self.origin = origin
        import checks

        sha = checks.sha256_file(self.repo_path)
        want = self.recorded.get("lsr")
        if want is not None and sha != want:
            raise SetupError("repository sha256 %s differs from the recorded %s for seed %d"
                             % (sha, want, self.seed))
        self.digests["lsr"] = sha

    def prepare_checks(self):
        import checks

        known = {f.function_name: f.vector
                 for feats in self.origin.libraries.values() for f in feats}
        embedder = self.libsift.HashedNgramEmbedder()
        self.expected = {
            doc.binary_id: checks.oracle_scores(
                self.repo, checks.target_vectors(doc, embedder, known))
            for doc in self.corpus.targets
        }

    def batch(self, index):
        ids = sorted(self.corpus.manifest)
        stride = len(ids) // self.BATCH
        return ids[index % stride::stride]

    def op_args(self, index):
        out = os.path.join(self.work, "reports-%d.jsonl" % index)
        paths = [os.path.join(self.corpus.target_dir, b + ".jsonl") for b in self.batch(index)]
        return "detect", [self.repo_path, out] + paths

    def check(self, index, op, tally):
        import checks

        out = os.path.join(self.work, "reports-%d.jsonl" % index)
        reports = checks.read_report_lines(out) if op.exit_code == 0 else {}
        for bin_id in self.batch(index):
            report = reports.get(bin_id)
            if report is None:
                tally.record(["detect op %d: no report for %s (exit %s): %s"
                              % (index, bin_id, op.exit_code, op.stderr)])
            else:
                tally.record(checks.report_problems(
                    report, self.corpus.manifest[bin_id], self.expected[bin_id]))
        if os.path.exists(out):
            os.remove(out)


class Sweep(Workload):
    name = "sweep"

    def setup(self):
        self.corpus = self._write_corpus()
        ls = self.libsift
        self.grid = (ls.DEFAULT_THETA1_GRID, ls.DEFAULT_THETA2_GRID, ls.DEFAULT_THETA3_GRID)
        self.items = len(self.grid[0]) * len(self.grid[1]) * len(self.grid[2])

    def op_args(self, index):
        c = self.corpus
        out = os.path.join(self.work, "sweep-%d.csv" % index)
        return "cli", ["sweep", "--tpls", c.tpl_dir, "--targets", c.target_dir,
                       "--manifest", c.manifest_path, "--out", out, "--quiet"]

    def prepare_checks(self):
        import checks

        c = self.corpus
        self.oracle = checks.sweep_oracle(c.tpls, c.targets, c.manifest, self.grid)

    def check(self, index, op, tally):
        import checks

        out = os.path.join(self.work, "sweep-%d.csv" % index)
        if op.exit_code != 0 or op.result["exit"] != 0:
            tally.record(["sweep op %d exited %s: %s" % (index, op.exit_code, op.stderr)])
            return
        with open(out, "rb") as fh:
            data = fh.read()
        os.remove(out)
        expected_sha = self._expect("csv", hashlib.sha256(data).hexdigest())
        best = checks.best_cell(self.oracle)
        self.digests["best"] = list(best[:3] + best[4:])
        tally.record(checks.sweep_problems(data, self.grid, expected_sha, self.oracle,
                                           self.recorded.get("best")))


WORKLOADS = {w.name: w for w in (Build, Detect, Sweep)}


# ---------------------------------------------------------------------------
# metrics

def target_latencies_ms(ops):
    """(per-target detect latencies in ms, their p50, their p90)."""
    lat = [s * 1000.0 for op in ops if op.result is not None
           for s in op.result.get("latencies_s", ())]
    if len(lat) < 2:
        return lat, 0.0, 0.0
    return lat, statistics.median(lat), statistics.quantiles(lat, n=10, method="inclusive")[8]


def end_to_end(workload, ops, setup_times):
    op_s = statistics.median(op.wall_s for op in ops)
    return {
        "op_s": op_s,
        "items_per_s": workload.items / op_s,
        "peak_rss_mb": statistics.median(op.rss_mb for op in ops),
        "setup_s": statistics.median(setup_times),
    }


def per_layer(plain, traced):
    import tracer

    per_op = [tracer.summarize(op.result["trace"], op.result["op_s"], op.result["import_s"])
              for op in traced if op.result is not None]
    values = tracer.median_values(per_op) if per_op else {}
    values["trace.overhead_ratio"] = (
        statistics.median(op.wall_s for op in traced)
        / statistics.median(op.wall_s for op in plain) - 1.0)
    missing = sorted({m for op in traced if op.result for m in op.result["trace"]["missing"]})
    return values, missing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    run_start = perf_counter()
    # SIGTERM unwinds like Ctrl-C, so the running op is killed and the
    # scratch directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "recorded.json"), "r", encoding="utf-8") as fh:
        recorded = json.load(fh).get(str(args.seed), {}).get(args.workload, {})
    try:
        libsift = import_libsift()
    except (SetupError, ImportError) as exc:
        print("benchmark set-up failed: %s" % exc, file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    from checks import Tally

    env = environment(libsift, args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    work = os.path.join(ROOT, ".perfbench_work", "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        workload = WORKLOADS[args.workload](libsift, args.seed, work, recorded)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            workload.setup()
            setup_times.append(perf_counter() - t0)
        workload.prepare_checks()

        tally = Tally()
        plain, traced = [], []
        measured = 0.0
        round_no = 0
        while True:
            round_s = 0.0
            # a traced op repeats the untraced op of its round on the same input
            for trace_this in ((False, True) if args.trace else (False,)):
                kind, op_args = workload.op_args(round_no)
                op = run_op(work, round_no, trace_this, kind, op_args, run_start)
                (traced if trace_this else plain).append(op)
                try:
                    workload.check(round_no, op, tally)
                except Exception as exc:  # a check that cannot run is a failed op
                    tally.record(["check of op %d raised %r" % (round_no, exc)])
                round_s += op.wall_s
            round_no += 1
            measured += round_s
            # closed loop: start another round only if it fits the budget
            if measured + round_s > args.seconds or perf_counter() - run_start > RUN_LIMIT_S / 2:
                break
    except SetupError as exc:
        print("benchmark set-up failed: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))  # only if no other run is using it
        except OSError:
            pass

    print("digests " + json.dumps({str(args.seed): {args.workload: workload.digests}},
                                  sort_keys=True))
    for problem in tally.problems[:20]:
        print("FAILED " + problem)
    print("ops %d (%d failed, failed_ratio %.4f) over %.1f s measured"
          % (tally.attempted, tally.failed, tally.failed_ratio, measured))
    print("op walls (s): " + " ".join("%.3f" % op.wall_s for op in plain + traced))
    print("set-up walls (s): " + " ".join("%.3f" % t for t in setup_times))
    if args.trace:
        values, missing = per_layer(plain, traced)
        if missing:
            print("missing spans (libsift attribute not found): " + ", ".join(missing))
        declared = bench["per_layer"]
    else:
        values = end_to_end(workload, plain, setup_times)
        aliases = {"build": "build_s", "detect": "detect_s", "sweep": "sweep_s"}
        print("%s = %.4f s" % (aliases[args.workload], values["op_s"]))
        lat, p50, p90 = target_latencies_ms(plain)
        if lat:
            print("detect_targets_per_s = %.4f targets/s" % values["items_per_s"])
            print("detect_p50_ms = %.3f ms, detect_p90_ms = %.3f ms (n = %d targets)"
                  % (p50, p90, len(lat)))
        print("failed_ratio = %.4f" % tally.failed_ratio)
        declared = bench["end_to_end"]
    metrics = {}
    for m in declared:
        value = values.get(m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        if value is None:
            metrics[m["name"]]["missing"] = True
        print("%-40s %16s %s" % (m["name"], "missing" if value is None else "%.6g" % value,
                                 m["unit"]))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
