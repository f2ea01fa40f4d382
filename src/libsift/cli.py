"""Command-line entry point.

Subcommands: gen (synthetic corpus), build (library repository), detect,
sweep, ablate, inspect.  Every command is deterministic given its inputs,
flags, and seed.  Exit codes: 0 success, 1 pipeline error, 2 bad
configuration or usage.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import random
import sys

from .detector import (
    AGG_WEIGHTED_MEAN,
    AGGREGATION_MODES,
    DEFAULT_THETA3,
    check_scoring,
    detect_many,
    write_reports,
)
from .embedding import DEFAULT_DIM, DEFAULT_SEED, import_embeddings
from .errors import ConfigError, LibsiftError
from .evaluation import (
    DEFAULT_THETA1_GRID,
    DEFAULT_THETA2_GRID,
    DEFAULT_THETA3_GRID,
    run_ablation,
    sweep,
    time_stages,
)
from .interchange import NUMBER, json_field, json_object, load_document, save_document, save_json
from .repository import (
    ALL_STAGES,
    DEFAULT_THETA1,
    DEFAULT_THETA2,
    load_manifest,
    load_repository,
    save_manifest,
    save_repository,
)
from .synthetic import SyntheticCorpusSpec, generate_corpus, random_reuse_plan


def _parse_stages(text: str) -> tuple:
    stages = tuple(part.strip() for part in text.split(",") if part.strip())
    if not stages:
        raise argparse.ArgumentTypeError("bad stages %r; expected a comma list or 'none'" % text)
    return () if text == "none" else stages


# setting -> (default, the JSON type of its config-file value (never a bool),
# its flag's argparse settings); a flag defaults to None so that
# `resolve_config` can tell a given flag from an absent one
_SETTINGS = {
    "theta1": (DEFAULT_THETA1, NUMBER, {"type": float}),
    "theta2": (DEFAULT_THETA2, NUMBER, {"type": float}),
    "theta3": (DEFAULT_THETA3, NUMBER, {"type": float}),
    "dim": (DEFAULT_DIM, int, {"type": int}),
    "mode": (AGG_WEIGHTED_MEAN, str, {"choices": AGGREGATION_MODES}),
    "seed": (DEFAULT_SEED, int, {"type": int}),
    "stages": (ALL_STAGES, list, {"type": _parse_stages,
                                  "help": "comma list of export,mi,weights or 'none'"}),
}

# command -> the settings it reads: its flags, the keywords of its library
# call and, for sweep and ablate, its sidecar
_READS = {
    "build": ("theta1", "theta2", "dim", "seed", "stages"),
    "detect": ("theta3", "mode"),
    "sweep": ("dim", "seed", "mode"),
    "ablate": ("theta1", "theta2", "theta3", "dim", "seed", "mode"),
}


def _load_config_file(path) -> dict:
    if not path:
        raise ConfigError("--config must name a file")

    def fail(message):
        return ConfigError("config file %s: %s" % (path, message))

    with open(path, "rb") as fh:
        raw = json_object(fh.read(), fail)
    unknown = set(raw) - set(_SETTINGS)
    if unknown:
        raise fail("unknown keys: %s" % sorted(unknown))
    for key in raw:
        json_field(raw, key, _SETTINGS[key][1], fail)
    if "stages" in raw:
        if not all(isinstance(stage, str) for stage in raw["stages"]):
            raise fail("field 'stages' has the wrong type")
        raw["stages"] = tuple(raw["stages"])
    return raw


def resolve_config(args) -> dict:
    """The settings `args.command` reads: defaults < config file < flags.
    The library call that takes a setting checks its range."""
    names = _READS[args.command]
    merged = {name: _SETTINGS[name][0] for name in names}
    if args.config is not None:
        from_file = _load_config_file(args.config)
        merged.update((name, from_file[name]) for name in names if name in from_file)
    for name in names:
        value = getattr(args, name)
        if value is not None:
            merged[name] = value
    return merged


# ---------------------------------------------------------------------------
# shared I/O helpers

def _doc_paths(path) -> list:
    if os.path.isdir(path):
        names = sorted(n for n in os.listdir(path) if n.endswith(".jsonl"))
        if not names:
            raise ConfigError("no .jsonl documents under %s" % path)
        return [os.path.join(path, n) for n in names]
    return [path]


def _load_docs(path):
    """Parse the documents under `path` one at a time, in file name order."""
    for p in _doc_paths(path):
        yield load_document(p)


def _vector_reader(vectors_dir, dim):
    """The reader of each document's external embedding file
    <binary_id>.jsonl under `vectors_dir`, or None without one."""
    if vectors_dir == "":
        raise ConfigError("--vectors-dir must name a directory")

    def read(doc) -> dict:
        vpath = os.path.join(vectors_dir, doc.binary_id + ".jsonl")
        if not os.path.exists(vpath):
            raise ConfigError("no vector file for %r at %s" % (doc.binary_id, vpath))
        with open(vpath, "rb") as fh:
            return import_embeddings(doc, fh.read(), dim)
    return None if vectors_dir is None else read


def _stage_table(stats) -> list:
    """The lines of the stage table that build and inspect print."""
    return (["%-8s %10s %14s" % ("stage", "functions", "leave_percent")]
            + ["%-8s %10d %14.3f" % (s.stage, s.functions, s.leave_percent) for s in stats])


def _say(args, msg, *fmt) -> None:
    if not args.quiet:
        print(msg % fmt if fmt else msg)


def _parse_grid(text: str) -> tuple:
    """A grid flag's values; `sweep` checks their ranges."""
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        values = ()
    if not values:
        raise argparse.ArgumentTypeError("bad grid %r; expected comma-separated floats" % text)
    return values


# ---------------------------------------------------------------------------
# subcommands

# gen's corpus flags: flag -> (the SyntheticCorpusSpec field or
# random_reuse_plan keyword it sets, its type); a flag left out is None and
# keeps the generator's own default
_GEN_FLAGS = {
    "seed": ("rng_seed", int),
    "libraries": ("library_count", int),
    "functions": ("functions_per_library", int),
    "clone-rate": ("clone_rate", float),
    "simple-rate": ("simple_fn_rate", float),
    "export-rate": ("export_rate", float),
    "min-libs": ("min_libs", int),
    "max-libs": ("max_libs", int),
    "min-fraction": ("min_fraction", float),
    "max-fraction": ("max_fraction", float),
    "distractors": ("distractor_functions", int),
}


def cmd_gen(args) -> int:
    if args.targets < 0:
        raise ConfigError("--targets must be >= 0")
    if not args.out:
        raise ConfigError("--out must name a directory")
    if os.path.isdir(args.out) and os.listdir(args.out):
        raise ConfigError("--out %s is not empty" % args.out)
    spec_fields = {f.name for f in dataclasses.fields(SyntheticCorpusSpec)}
    spec_kw, plan_kw = {}, {}
    for flag, (key, _) in _GEN_FLAGS.items():
        value = getattr(args, flag.replace("-", "_"))
        if value is not None:
            (spec_kw if key in spec_fields else plan_kw)[key] = value
    spec = SyntheticCorpusSpec(**spec_kw)
    spec = dataclasses.replace(spec, planted_reuse=random_reuse_plan(
        random.Random(spec.rng_seed), ["bin%03d" % i for i in range(args.targets)],
        spec.library_ids(), **plan_kw,
    ))
    tpl_docs, target_docs, manifest = generate_corpus(spec)

    tpl_dir = os.path.join(args.out, "tpls")
    target_dir = os.path.join(args.out, "targets")
    os.makedirs(tpl_dir, exist_ok=True)
    os.makedirs(target_dir, exist_ok=True)
    for doc in tpl_docs:
        save_document(doc, os.path.join(tpl_dir, doc.binary_id + ".jsonl"))
    for doc in target_docs:
        save_document(doc, os.path.join(target_dir, doc.binary_id + ".jsonl"))
    save_manifest(manifest, os.path.join(args.out, "manifest.json"))
    payload = dataclasses.asdict(spec)
    payload["planted_reuse"] = {
        b: {"libraries": list(libs), "fraction": frac}
        for b, (libs, frac) in spec.planted_reuse.items()
    }
    save_json(payload, os.path.join(args.out, "corpus_spec.json"))
    _say(args, "wrote %d library docs, %d targets, manifest under %s",
         len(tpl_docs), len(target_docs), args.out)
    return 0


def cmd_build(args) -> int:
    cfg = resolve_config(args)
    timings, repo = time_stages(_load_docs(args.tpls),
                                vectors=_vector_reader(args.vectors_dir, cfg["dim"]), **cfg)
    save_repository(repo, args.out)

    for line in _stage_table(repo.stats):
        _say(args, line)
    if not args.no_timing:
        for stage in ("origin",) + repo.config.stages:
            _say(args, "timing %-8s %.3fs", stage, getattr(timings, stage + "_s"))
        _say(args, "timing %-8s %.3fs", "total", timings.origin_s + timings.total_s)
    _say(args, "repository written to %s (%d features, %d libraries)",
         args.out, repo.feature_count(), len(repo.libraries))
    return 0


def cmd_detect(args) -> int:
    cfg = resolve_config(args)
    check_scoring(cfg["mode"], cfg["theta3"])
    repo = load_repository(args.repo)
    reports = detect_many(_load_docs(args.targets), repo,
                          vectors=_vector_reader(args.vectors_dir, repo.config.dim), **cfg)
    reports.sort(key=lambda r: r.binary_id)
    write_reports(reports, args.out)

    for report in reports:
        decided = sorted(report.decided())
        _say(args, "%s: %s", report.binary_id,
             " ".join(decided) if decided else "(no libraries detected)")
        for entry in report.entries:
            _say(args, "  %-12s %8.4f  %s", entry.library_id, entry.score,
                 "REUSED" if entry.decision else "-")
    _say(args, "reports written to %s", args.out)
    return 0


def cmd_sweep(args) -> int:
    cfg = resolve_config(args)
    grid = sweep(
        _load_docs(args.tpls), _load_docs(args.targets), load_manifest(args.manifest),
        theta1_values=args.theta1_grid,
        theta2_values=args.theta2_grid,
        theta3_values=args.theta3_grid,
        **cfg,
    )
    grid.write_csv(args.out)
    save_json(dict(
        cfg,
        theta1_grid=list(args.theta1_grid),
        theta2_grid=list(args.theta2_grid),
        theta3_grid=list(args.theta3_grid),
    ), args.out + ".meta.json")
    best = grid.best()
    _say(args, "%d cells written to %s", len(grid.cells), args.out)
    _say(args, "best: theta1=%r theta2=%r theta3=%r f1=%.4f precision=%.4f "
         "recall=%.4f retained=%.3f",
         best.theta1, best.theta2, best.theta3, best.f1, best.precision,
         best.recall, best.retained_fraction)
    return 0


def cmd_ablate(args) -> int:
    cfg = resolve_config(args)
    table = run_ablation(
        _load_docs(args.tpls), _load_docs(args.targets), load_manifest(args.manifest),
        **cfg,
    )
    with open(args.out, "wb") as fh:
        fh.write(table.to_csv_bytes())
    save_json(cfg, args.out + ".meta.json")
    _say(args, "%s", table)
    _say(args, "ablation written to %s", args.out)
    return 0


def cmd_inspect(args) -> int:
    repo = load_repository(args.repo)
    cfg = repo.config
    payload = dict(
        dataclasses.asdict(cfg),
        stats=[dataclasses.asdict(s) for s in repo.stats],
        libraries={lib_id: len(feats) for lib_id, feats in sorted(repo.libraries.items())},
        feature_count=repo.feature_count(),
    )
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print("embedder: %s  dim=%d  seed=%d" % (cfg.embedder, cfg.dim, cfg.seed))
    print("theta1=%r theta2=%r  stages: %s"
          % (cfg.theta1, cfg.theta2, ",".join(cfg.stages) or "(origin only)"))
    print("\n".join(_stage_table(repo.stats)))
    print("libraries (%d):" % len(repo.libraries))
    for lib_id, count in sorted(payload["libraries"].items()):
        print("  %-16s %6d" % (lib_id, count))
    print("total features: %d" % payload["feature_count"])
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_common(p, command) -> None:
    """--config, --quiet and the flags of the settings `command` reads."""
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--quiet", action="store_true", help="suppress progress output")
    for name in _READS[command]:
        p.add_argument("--" + name, default=None, **_SETTINGS[name][2])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="libsift",
        description="Library reuse detection over disassembly documents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--targets", type=int, default=20)
    for flag, (_, kind) in _GEN_FLAGS.items():
        p.add_argument("--" + flag, type=kind)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("build", help="build a library feature repository")
    p.add_argument("--tpls", required=True, help="document file or directory")
    p.add_argument("--out", required=True)
    p.add_argument("--vectors-dir",
                   help="external embedding files, one <binary_id>.jsonl per doc")
    p.add_argument("--no-timing", action="store_true")
    _add_common(p, "build")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("detect", help="score target binaries against a repository")
    p.add_argument("--repo", required=True)
    p.add_argument("--targets", required=True, help="document file or directory")
    p.add_argument("--out", required=True, help="report JSONL path")
    p.add_argument("--vectors-dir")
    _add_common(p, "detect")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("sweep", help="grid-evaluate thresholds against a manifest")
    p.add_argument("--tpls", required=True)
    p.add_argument("--targets", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="CSV path")
    p.add_argument("--theta1-grid", type=_parse_grid, default=DEFAULT_THETA1_GRID)
    p.add_argument("--theta2-grid", type=_parse_grid, default=DEFAULT_THETA2_GRID)
    p.add_argument("--theta3-grid", type=_parse_grid, default=DEFAULT_THETA3_GRID)
    _add_common(p, "sweep")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("ablate", help="purification/weighting ablation matrix")
    p.add_argument("--tpls", required=True)
    p.add_argument("--targets", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="CSV path")
    _add_common(p, "ablate")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("inspect", help="dump repository configuration and stats")
    p.add_argument("--repo", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except LibsiftError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
