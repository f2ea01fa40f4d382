"""Seeded benchmark inputs.

Each workload's corpus is generated from the benchmark's --seed with every
SyntheticCorpusSpec field spelled out, so a change to a library default
cannot silently change the inputs.  The reuse plan is stratified rather
than drawn at random: target i reuses 1 + i % 3 libraries at the i-th of
evenly spaced fractions in [0.3, 1.0], and only the libraries picked vary
with the seed.  That keeps the amount of work per run the same across
seeds (the spread the benchmark is judged on is taken across seeds) while
matching the size distribution `libsift gen` draws by default.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass

from libsift import (
    SyntheticCorpusSpec,
    generate_corpus,
    save_manifest,
    serialize_document,
)

MIN_FRACTION = 0.3
MAX_FRACTION = 1.0


@dataclass(frozen=True)
class CorpusShape:
    libraries: int
    functions: int
    targets: int


# build and detect share their libraries: detect's set-up builds the
# repository the build workload times.
SHAPES = {
    "build": CorpusShape(libraries=40, functions=200, targets=0),
    "detect": CorpusShape(libraries=40, functions=200, targets=100),
    "sweep": CorpusShape(libraries=20, functions=50, targets=20),
}


def reuse_plan(seed: int, shape: CorpusShape) -> dict:
    rng = random.Random(seed)
    lib_ids = ["lib%03d" % i for i in range(shape.libraries)]
    plan = {}
    for i in range(shape.targets):
        libs = sorted(rng.sample(lib_ids, 1 + i % 3))
        fraction = MIN_FRACTION + (MAX_FRACTION - MIN_FRACTION) * (i + 0.5) / shape.targets
        plan["bin%03d" % i] = (libs, fraction)
    return plan


def corpus_spec(seed: int, shape: CorpusShape) -> SyntheticCorpusSpec:
    return SyntheticCorpusSpec(
        library_count=shape.libraries,
        functions_per_library=shape.functions,
        clone_rate=0.05,
        simple_fn_rate=0.3,
        export_rate=0.35,
        planted_reuse=reuse_plan(seed, shape),
        distractor_functions=40,
        rng_seed=seed,
    )


def spec_dict(spec: SyntheticCorpusSpec) -> dict:
    return {
        "library_count": spec.library_count,
        "functions_per_library": spec.functions_per_library,
        "clone_rate": spec.clone_rate,
        "simple_fn_rate": spec.simple_fn_rate,
        "export_rate": spec.export_rate,
        "distractor_functions": spec.distractor_functions,
        "rng_seed": spec.rng_seed,
        "planted_reuse": {
            b: {"libraries": list(libs), "fraction": frac}
            for b, (libs, frac) in sorted(spec.planted_reuse.items())
        },
    }


@dataclass
class Corpus:
    tpls: list
    targets: list
    manifest: dict
    digest: str
    tpl_dir: str
    target_dir: str
    manifest_path: str


def write_corpus(spec: SyntheticCorpusSpec, out_dir: str) -> Corpus:
    """Generate the corpus, write it as `libsift gen` lays it out, and
    return it with the sha256 over the spec, every document and the
    manifest."""
    tpls, targets, manifest = generate_corpus(spec)
    h = hashlib.sha256()
    spec_bytes = json.dumps(spec_dict(spec), sort_keys=True).encode("utf-8")
    h.update(spec_bytes)
    tpl_dir = os.path.join(out_dir, "tpls")
    target_dir = os.path.join(out_dir, "targets")
    for sub, docs in ((tpl_dir, tpls), (target_dir, targets)):
        os.makedirs(sub, exist_ok=True)
        for doc in docs:
            data = serialize_document(doc)
            h.update(doc.binary_id.encode("utf-8") + b"\0" + data)
            with open(os.path.join(sub, doc.binary_id + ".jsonl"), "wb") as fh:
                fh.write(data)
    manifest_path = os.path.join(out_dir, "manifest.json")
    save_manifest(manifest, manifest_path)
    with open(manifest_path, "rb") as fh:
        h.update(fh.read())
    with open(os.path.join(out_dir, "corpus_spec.json"), "wb") as fh:
        fh.write(spec_bytes + b"\n")
    return Corpus(tpls, targets, manifest, h.hexdigest(), tpl_dir, target_dir, manifest_path)
