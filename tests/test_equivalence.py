"""Byte-level equivalence gate for refactors.

One small fixed corpus goes through build, sweep and ablate, and the
sha256 of each output file must equal the digest recorded here.  A change
meant only to restructure code must leave all three unchanged; a change
meant to alter results updates the digests and says why.  The digests
were recorded with numpy and OpenBLAS on x86-64; vectors and weights in
the repository file are only bit-exact where the float arithmetic is.
"""
import hashlib
import random

import pytest

from libsift import (
    SyntheticCorpusSpec,
    build_repository,
    generate_corpus,
    random_reuse_plan,
    run_ablation,
    save_repository,
    sweep,
)

DIM = 192

RECORDED = {
    "repository": "b1a11082fdf458a4ca2230b26bd2fd464756681c93abc7ba2cc00b5a3bb7d91c",
    "sweep": "14db16bf79fbff09d949bb34ea080f39bf391790b64ccdd45f0d756174dab0a7",
    "ablation": "0d86ec5a08a7152a2affb09c2fd1b157158ebfcdd25f903d1fd5858f072582bc",
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    rng = random.Random(21)
    libs = ["lib%03d" % i for i in range(5)]
    plan = random_reuse_plan(rng, ["bin%03d" % i for i in range(6)], libs, max_libs=2)
    spec = SyntheticCorpusSpec(
        library_count=5, functions_per_library=20, planted_reuse=plan,
        distractor_functions=12, rng_seed=21,
    )
    tpl_docs, target_docs, manifest = generate_corpus(spec)
    path = tmp_path_factory.mktemp("gate") / "repo.lsr"
    save_repository(build_repository(tpl_docs, dim=DIM), path)
    return {
        "repository": path.read_bytes(),
        "sweep": sweep(tpl_docs, target_docs, manifest, dim=DIM).to_csv_bytes(),
        "ablation": run_ablation(tpl_docs, target_docs, manifest, dim=DIM).to_csv_bytes(),
    }


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_output_bytes_match_recorded_digest(outputs, name):
    assert hashlib.sha256(outputs[name]).hexdigest() == RECORDED[name]
