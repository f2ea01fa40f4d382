"""One benchmark operation in a fresh interpreter.

    python3 op.py RESULT.json TRACE(0|1) detect REPO REPORTS TARGET...
    python3 op.py RESULT.json TRACE(0|1) cli ARGS...

`detect` is the read path through the public API: load the repository,
then `load_document` + `detect` per target (each timed), then
`write_reports`.  `cli` runs `libsift.cli.main(ARGS)`, the same entry point
as the `libsift` executable.  With TRACE=1 the tracer wraps libsift's
modules first and the spans go into RESULT.json.
"""
import json
import sys
from time import perf_counter


def run_detect(libsift, tracer, repo_path, out_path, *target_paths):
    repo = libsift.load_repository(repo_path)
    reports = []
    latencies = []
    for path in target_paths:
        t0 = perf_counter()
        doc = libsift.load_document(path)
        reports.append(libsift.detect(doc, repo))
        latencies.append(perf_counter() - t0)
        if tracer is not None:
            tracer.op += 1
    libsift.write_reports(reports, out_path)
    return {"exit": 0, "latencies_s": latencies}


def main(argv):
    result_path, traced, kind, rest = argv[0], argv[1] == "1", argv[2], argv[3:]
    t0 = perf_counter()
    import libsift
    import libsift.cli

    import_s = perf_counter() - t0
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = perf_counter()
    if kind == "detect":
        result = run_detect(libsift, tracer, *rest)
    elif kind == "cli":
        result = {"exit": libsift.cli.main(rest)}
    else:
        raise SystemExit("unknown op kind %r" % kind)
    result["op_s"] = perf_counter() - t0
    result["import_s"] = import_s
    if tracer is not None:
        result["trace"] = tracer.dump()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return result["exit"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
