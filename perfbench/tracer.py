"""Spans and counters recorded around calls into libsift's modules.

The tracer lives in the benchmark, not in libsift: `install` replaces
public functions on libsift's module attributes with timing wrappers, and
every module that imported the same function object by name gets the
wrapper too.  A span records its name, start, end, parent span and op id;
a layer's self time is its span time minus the time of the spans it
caused.  An attribute that no longer exists is listed as missing and the
metrics that depend on it are reported as missing rather than failing the
run, so the traced run survives refactors of the code it measures.
"""
from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

HOOK_SPAN = "trace.hook"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, op id]
        self.stack = []
        self.op = 0
        self.counters = Counter()
        self.distinct = defaultdict(set)
        self.distinct["targets"] = {}
        self.missing = []

    def _open(self, name):
        parent = self.stack[-1] if self.stack else None
        span = [name, perf_counter(), 0.0, parent, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[2] = perf_counter()
        self.stack.pop()

    def wrap(self, fn, name, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if hook is not None:
                # counting runs in its own span so it is not charged to the
                # caller's self time
                hook_span = tracer._open(HOOK_SPAN)
                try:
                    hook(tracer, args, kwargs, result)
                finally:
                    tracer._close(hook_span)
            return result

        return wrapper

    def install(self, wraps=None):
        for module_name, attr, span_name, hook in WRAPS if wraps is None else wraps:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(span_name)
                continue
            owner_path, _, leaf = attr.rpartition(".")
            owner = module
            try:
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except AttributeError:
                self.missing.append(span_name)
                continue
            wrapper = self.wrap(original, span_name, hook)
            setattr(owner, leaf, wrapper)
            if owner is module:
                _rebind(original, wrapper)

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counters": dict(self.counters),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "missing": self.missing,
        }


def _rebind(original, wrapper):
    """Point every libsift module attribute bound to `original` at
    `wrapper` (covers `from .x import f` copies)."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "libsift" or mod_name.startswith("libsift.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# ---------------------------------------------------------------------------
# counting hooks: hook(tracer, args, kwargs, result)

def _count_parse(t, args, kwargs, doc):
    t.counters["parse.docs"] += 1
    t.counters["parse.functions"] += len(doc.functions)
    t.counters["parse.bytes"] += len(_arg(args, kwargs, 0, "data"))


def _count_filter(t, args, kwargs, doc):
    before = _arg(args, kwargs, 0, "doc")
    t.counters["filter.dropped"] += len(before.functions) - len(doc.functions)


def _count_tokens(t, args, kwargs, streams):
    for tokens in streams.values():
        t.counters["embed.tokens"] += len(tokens)
        t.counters["embed.keys"] += max(0, 2 * len(tokens) - 1)  # unigrams + bigrams


def _count_embedded(t, args, kwargs, result):
    t.counters["embed.functions"] += len(result[0])
    # the embedder's slot cache holds every distinct n-gram key it hashed;
    # its union over embedders is the distinct keys of the whole input
    slots = getattr(_arg(args, kwargs, 0, "self"), "_slots", None)
    if slots is not None:
        t.distinct["keys"].update(slots)
    elif "embedding.slots" not in t.missing:
        t.missing.append("embedding.slots")


def _count_features(stage):
    def hook(t, args, kwargs, repo):
        t.counters["features." + stage] += repo.feature_count()

    return hook


def _count_weights(t, args, kwargs, repo):
    t.counters["features.zero_weight"] += sum(
        1 for feats in repo.libraries.values() for f in feats if f.weight == 0.0
    )


def _count_saved(t, args, kwargs, result):
    repo = _arg(args, kwargs, 0, "repo")
    t.counters["repository.saved_features"] += repo.feature_count()
    t.counters["repository.bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _count_loaded(t, args, kwargs, repo):
    t.counters["repository.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_theta(t, args, kwargs, result):
    rows, dim = np.shape(_arg(args, kwargs, 0, "vectors"))
    t.counters["kernels.flop"] += 2 * rows * rows * dim


def _count_best(t, args, kwargs, result):
    rows, dim = np.shape(_arg(args, kwargs, 0, "queries"))
    keys = np.shape(_arg(args, kwargs, 1, "keys"))[0]
    t.counters["kernels.flop"] += 2 * rows * keys * dim


def _count_aggregate(t, args, kwargs, result):
    targets = t.distinct["targets"]
    names = tuple(_arg(args, kwargs, 1, "bin_names"))
    target = targets.setdefault(names, len(targets))
    features = list(_arg(args, kwargs, 2, "features"))
    t.counters["aggregate.evidence_rows"] += len(result[1])
    t.counters["aggregate.pair_evals"] += len(features)
    t.distinct["pairs"].update((target, f.library_id, f.function_name) for f in features)


def _count_report(t, args, kwargs, result):
    t.counters["report.bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _count_cells(t, args, kwargs, grid):
    t.counters["sweep.cells"] += len(grid.cells)


# (module, attribute, span name, counting hook)
WRAPS = (
    ("libsift.interchange", "parse_document", "interchange.parse", _count_parse),
    ("libsift.interchange", "filter_sections", "interchange.filter", _count_filter),
    ("libsift.embedding", "normalize_document", "embedding.normalize", _count_tokens),
    ("libsift.embedding", "HashedNgramEmbedder.embed_document", "embedding.embed",
     _count_embedded),
    ("libsift.metrics", "compute_profile", "metrics.profile", None),
    ("libsift.repository", "build_origin", "repository.origin", _count_features("origin")),
    ("libsift.repository", "purify_export", "repository.export", _count_features("export")),
    ("libsift.repository", "purify_mi", "repository.mi", _count_features("mi")),
    ("libsift.repository", "compute_weights", "repository.weights", _count_weights),
    ("libsift.repository", "save_repository", "repository.save", _count_saved),
    ("libsift.repository", "load_repository", "repository.load", _count_loaded),
    ("libsift._kernels", "theta_counts", "kernels.theta_counts", _count_theta),
    ("libsift._kernels.fallback", "count_block", "kernels.theta_counts_scan", None),
    ("libsift._kernels", "best_match", "kernels.best_match", _count_best),
    ("libsift._kernels.fallback", "best_match_block", "kernels.best_match_scan", None),
    ("libsift.detector", "detect", "detector.detect", None),
    ("libsift.detector", "aggregate", "detector.aggregate", _count_aggregate),
    ("libsift.detector", "write_reports", "detector.write_reports", _count_report),
    ("libsift.evaluation", "sweep", "evaluation.sweep", _count_cells),
)


# ---------------------------------------------------------------------------
# per-layer metrics from one traced op

def summarize(trace: dict, op_s: float, import_s: float) -> dict:
    """name -> value (None when a wrapped attribute is missing) for one
    traced op; `op_s` is the op's wall time inside the traced process."""
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    self_s = Counter()
    calls = Counter()
    top = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        self_s[name] += (end - start) - child[i]
        calls[name] += 1
        if parent is None:
            top += end - start
    c = Counter(trace["counters"])
    distinct = trace["distinct"]
    missing_spans = set(trace["missing"])

    def ratio(a, b):
        return a / b if b else 0.0

    values = {
        "interchange.parse_s": self_s["interchange.parse"],
        "interchange.docs": c["parse.docs"],
        "interchange.functions": c["parse.functions"],
        "interchange.bytes": c["parse.bytes"],
        "interchange.parse_us_per_function": 1e6 * ratio(
            self_s["interchange.parse"], c["parse.functions"]),
        "interchange.filter_s": self_s["interchange.filter"],
        "interchange.functions_dropped": c["filter.dropped"],
        "embedding.normalize_s": self_s["embedding.normalize"],
        "embedding.embed_s": self_s["embedding.embed"],
        "embedding.tokens": c["embed.tokens"],
        "embedding.keys": c["embed.keys"],
        "embedding.distinct_key_ratio": ratio(distinct.get("keys", 0), c["embed.keys"]),
        "metrics.profile_s": self_s["metrics.profile"],
        "metrics.profiles": calls["metrics.profile"],
        "repository.origin_s": self_s["repository.origin"],
        "repository.export_s": self_s["repository.export"],
        "repository.mi_s": self_s["repository.mi"],
        "repository.weights_s": self_s["repository.weights"],
        "repository.save_s": self_s["repository.save"],
        "repository.load_s": self_s["repository.load"],
        "repository.bytes": c["repository.bytes"],
        "repository.features_origin": c["features.origin"],
        "repository.features_export": c["features.export"],
        "repository.features_mi": c["features.mi"],
        "repository.zero_weight_features": c["features.zero_weight"],
        "repository.embedded_useful_ratio": ratio(
            c["repository.saved_features"], c["embed.functions"]),
        "kernels.theta_counts_gemm_s": self_s["kernels.theta_counts"],
        "kernels.theta_counts_scan_s": self_s["kernels.theta_counts_scan"],
        "kernels.best_match_gemm_s": self_s["kernels.best_match"],
        "kernels.best_match_scan_s": self_s["kernels.best_match_scan"],
        "kernels.calls": calls["kernels.theta_counts"] + calls["kernels.best_match"],
        "kernels.gflop": c["kernels.flop"] / 1e9,
        "detector.detect_s": self_s["detector.detect"],
        "detector.aggregate_calls": calls["detector.aggregate"],
        "detector.aggregate_self_us_per_call": 1e6 * ratio(
            self_s["detector.aggregate"], calls["detector.aggregate"]),
        "detector.evidence_rows": c["aggregate.evidence_rows"],
        "detector.write_reports_s": self_s["detector.write_reports"],
        "detector.report_bytes": c["report.bytes"],
        "evaluation.cells": c["sweep.cells"],
        "evaluation.rescore_ratio": ratio(
            c["aggregate.pair_evals"], distinct.get("pairs", 0)),
        "evaluation.sweep_self_s": self_s["evaluation.sweep"],
        "cli.import_s": import_s,
        "cli.overhead_s": op_s - top,
    }
    for name, needs in NEEDS.items():
        if missing_spans.intersection(needs):
            values[name] = None
    return values


# metric -> span names it is computed from
NEEDS = {
    "interchange.parse_s": {"interchange.parse"},
    "interchange.docs": {"interchange.parse"},
    "interchange.functions": {"interchange.parse"},
    "interchange.bytes": {"interchange.parse"},
    "interchange.parse_us_per_function": {"interchange.parse"},
    "interchange.filter_s": {"interchange.filter"},
    "interchange.functions_dropped": {"interchange.filter"},
    "embedding.normalize_s": {"embedding.normalize"},
    "embedding.embed_s": {"embedding.embed"},
    "embedding.tokens": {"embedding.normalize"},
    "embedding.keys": {"embedding.normalize"},
    "embedding.distinct_key_ratio": {"embedding.normalize", "embedding.slots"},
    "metrics.profile_s": {"metrics.profile"},
    "metrics.profiles": {"metrics.profile"},
    "repository.origin_s": {"repository.origin"},
    "repository.export_s": {"repository.export"},
    "repository.mi_s": {"repository.mi"},
    "repository.weights_s": {"repository.weights"},
    "repository.save_s": {"repository.save"},
    "repository.load_s": {"repository.load"},
    "repository.bytes": {"repository.save", "repository.load"},
    "repository.features_origin": {"repository.origin"},
    "repository.features_export": {"repository.export"},
    "repository.features_mi": {"repository.mi"},
    "repository.zero_weight_features": {"repository.weights"},
    "repository.embedded_useful_ratio": {"repository.save", "embedding.embed"},
    "kernels.theta_counts_gemm_s": {"kernels.theta_counts", "kernels.theta_counts_scan"},
    "kernels.theta_counts_scan_s": {"kernels.theta_counts_scan"},
    "kernels.best_match_gemm_s": {"kernels.best_match", "kernels.best_match_scan"},
    "kernels.best_match_scan_s": {"kernels.best_match_scan"},
    "kernels.calls": {"kernels.theta_counts", "kernels.best_match"},
    "kernels.gflop": {"kernels.theta_counts", "kernels.best_match"},
    "detector.detect_s": {"detector.detect"},
    "detector.aggregate_calls": {"detector.aggregate"},
    "detector.aggregate_self_us_per_call": {"detector.aggregate", "kernels.best_match"},
    "detector.evidence_rows": {"detector.aggregate"},
    "detector.write_reports_s": {"detector.write_reports"},
    "detector.report_bytes": {"detector.write_reports"},
    "evaluation.cells": {"evaluation.sweep"},
    "evaluation.rescore_ratio": {"detector.aggregate"},
    "evaluation.sweep_self_s": {"evaluation.sweep"},
    "cli.import_s": set(),
    "cli.overhead_s": set(),
}


def median_values(per_op: list) -> dict:
    """Per-metric median over traced ops; None if any op lacked it."""
    out = {}
    for name in per_op[0]:
        vals = [v[name] for v in per_op]
        out[name] = None if any(v is None for v in vals) else statistics.median(vals)
    return out
