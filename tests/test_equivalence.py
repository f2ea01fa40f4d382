"""Byte-level equivalence gate for refactors.

One small fixed corpus goes through build, and detect, sweep and ablate
in both aggregation modes, and the sha256 of each output file must equal
the digest recorded here.  A change meant only to restructure code must
leave all of them unchanged; a change meant to alter results updates the
digests and says why.  The digests were recorded with numpy and OpenBLAS
on x86-64; vectors and weights in the repository file are only bit-exact
where the float arithmetic is.

The generator's own bytes are pinned too, on that corpus and on two more:
one that reaches every random draw the generator makes, and one that
plants no reuse.
"""
import hashlib
import random

import pytest

from libsift import (
    SyntheticCorpusSpec,
    build_repository,
    detect_many,
    generate_corpus,
    random_reuse_plan,
    run_ablation,
    save_document,
    save_manifest,
    save_repository,
    serialize_document,
    sweep,
    write_reports,
)
from libsift import evaluation
from libsift.cli import main
from libsift.interchange import BinaryDocument
from libsift.synthetic import _BASE_MNEMONICS, _synth_function

from corpora import TIER_L, TIER_M, TIER_S, TIER_XL, write_seeded_vectors

DIM = 192
EXTERNAL_DIM = 32

RECORDED = {
    "repository": "b1a11082fdf458a4ca2230b26bd2fd464756681c93abc7ba2cc00b5a3bb7d91c",
    "sweep": "14db16bf79fbff09d949bb34ea080f39bf391790b64ccdd45f0d756174dab0a7",
    "ablation": "0d86ec5a08a7152a2affb09c2fd1b157158ebfcdd25f903d1fd5858f072582bc",
    "sweep-match-sum": "7918c4812ac82e727fd6710ec463a939257a4dc608722cf7616539c00bf09239",
    "ablation-match-sum": "66ef6b4445e3452e11a80ac04313aeb7f129e321cbe6dc65c5ff2f170eb880fe",
    "reports-weighted-mean": "735e4fd1bb5c938a2a838ca8cd9d34e165fd1c5e102ae5604b2c7c7305e52e08",
    "reports-match-sum": "37a58128dd94d2e247d8a8a799eea7eb9a49de94c346741835f74c83efb6a271",
}


# `libsift build --vectors-dir` and `libsift detect --vectors-dir` on the
# same corpus, with vector files written by `corpora.write_seeded_vectors`
RECORDED_EXTERNAL = {
    "repository": "72b5e249a670eda0bfe6f36e8dc21a95876208f6876b6e74484811c3316e06f6",
    "reports-weighted-mean": "8543b1703735a0786a4b7fd6324d3ccc65ebbf5379f4022415f69436675ff1c8",
    "reports-match-sum": "8af66008031350e9ab575e9ebb1ef7b708655ee6c3fdd8fa58afad71e72ae533",
}


# sha256 over `serialize_document` of every tpl document, then every
# target document, then the manifest file as `libsift gen` writes it
RECORDED_GENERATED = {
    "equivalence": "8773d0fae1e9d8bf853057489679573f2d552a53ffecc822797554d7cfa7a214",
    "every-draw-site": "e55f46574f18d1578d0cf783a07483d8ab6e6de00ebf828a7b9f40bc33babe42",
    "no-planted-reuse": "29c6205727a0ed79e123ba3fb4674a2042e19e5d5c5775981669e7c81f203e73",
}


def _equivalence_corpus():
    rng = random.Random(21)
    libs = ["lib%03d" % i for i in range(5)]
    plan = random_reuse_plan(rng, ["bin%03d" % i for i in range(6)], libs, max_libs=2)
    spec = SyntheticCorpusSpec(
        library_count=5, functions_per_library=20, planted_reuse=plan,
        distractor_functions=12, rng_seed=21,
    )
    return generate_corpus(spec)


def _every_draw_site_corpus():
    """Clones, simple functions, exports, partial reuse and distractors,
    plus one more tpl of `_synth_function` calls over every test tier and
    three mnemonic pools, the last smaller than the mnemonic sample."""
    rng = random.Random(23)
    libs = ["lib%03d" % i for i in range(6)]
    plan = random_reuse_plan(rng, ["bin%03d" % i for i in range(5)], libs,
                             max_libs=3, min_fraction=0.2, max_fraction=0.9)
    tpl_docs, target_docs, manifest = generate_corpus(SyntheticCorpusSpec(
        library_count=6, functions_per_library=24, clone_rate=0.1, simple_fn_rate=0.3,
        export_rate=0.35, planted_reuse=plan, distractor_functions=10, rng_seed=23,
    ))
    pools = (_BASE_MNEMONICS[:-30], _BASE_MNEMONICS[-30:], _BASE_MNEMONICS[:6])
    tiers = (TIER_XL, TIER_L, TIER_M, TIER_S)
    pooled = [
        _synth_function(rng, "pool%d_tier%d" % (p, t), is_export=(p + t) % 2 == 0,
                        mnemonic_pool=pool, **tier)
        for p, pool in enumerate(pools)
        for t, tier in enumerate(tiers)
    ]
    return tpl_docs + [BinaryDocument("pooled", "tpl", pooled)], target_docs, manifest


def _no_planted_reuse_corpus():
    return generate_corpus(SyntheticCorpusSpec(
        library_count=4, functions_per_library=30, clone_rate=0.1, rng_seed=29,
    ))


GENERATED_CORPORA = {
    "equivalence": _equivalence_corpus,
    "every-draw-site": _every_draw_site_corpus,
    "no-planted-reuse": _no_planted_reuse_corpus,
}


@pytest.fixture(scope="module")
def corpus():
    return _equivalence_corpus()


@pytest.mark.parametrize("name", sorted(GENERATED_CORPORA))
def test_generated_corpus_bytes_match_recorded_digest(name, tmp_path):
    tpl_docs, target_docs, manifest = GENERATED_CORPORA[name]()
    digest = hashlib.sha256()
    for doc in list(tpl_docs) + list(target_docs):
        digest.update(serialize_document(doc))
    save_manifest(manifest, tmp_path / "manifest.json")
    digest.update((tmp_path / "manifest.json").read_bytes())
    assert digest.hexdigest() == RECORDED_GENERATED[name]


@pytest.fixture(scope="module")
def outputs(corpus, tmp_path_factory):
    tpl_docs, target_docs, manifest = corpus
    out = tmp_path_factory.mktemp("gate")
    repo = build_repository(tpl_docs, dim=DIM)
    save_repository(repo, out / "repo.lsr")
    for mode in ("core-weighted-mean", "match-sum"):
        write_reports(detect_many(target_docs, repo, mode=mode), out / (mode + ".jsonl"))
    return {
        "repository": (out / "repo.lsr").read_bytes(),
        "reports-weighted-mean": (out / "core-weighted-mean.jsonl").read_bytes(),
        "reports-match-sum": (out / "match-sum.jsonl").read_bytes(),
        "sweep": sweep(tpl_docs, target_docs, manifest, dim=DIM).to_csv_bytes(),
        "ablation": run_ablation(tpl_docs, target_docs, manifest, dim=DIM).to_csv_bytes(),
        "sweep-match-sum": sweep(tpl_docs, target_docs, manifest, dim=DIM,
                                 mode="match-sum").to_csv_bytes(),
        "ablation-match-sum": run_ablation(tpl_docs, target_docs, manifest, dim=DIM,
                                           mode="match-sum").to_csv_bytes(),
    }


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_output_bytes_match_recorded_digest(outputs, name):
    assert hashlib.sha256(outputs[name]).hexdigest() == RECORDED[name]


@pytest.mark.parametrize("name", ["sweep", "ablation", "sweep-match-sum",
                                  "ablation-match-sum"])
def test_evaluation_on_own_blocks_matches_recorded_digest(corpus, name, monkeypatch):
    # an infinite bound sends every score gathered from a larger block to
    # its group's own block: the exact path gives the same bytes
    monkeypatch.setattr(evaluation, "DELTA", float("inf"))
    tpl_docs, target_docs, manifest = corpus
    run = sweep if name.startswith("sweep") else run_ablation
    mode = "match-sum" if name.endswith("match-sum") else "core-weighted-mean"
    data = run(tpl_docs, target_docs, manifest, dim=DIM, mode=mode).to_csv_bytes()
    assert hashlib.sha256(data).hexdigest() == RECORDED[name]


@pytest.fixture(scope="module")
def external_outputs(corpus, tmp_path_factory):
    tpl_docs, target_docs, _ = corpus
    out = tmp_path_factory.mktemp("gate-external")
    for sub, docs in (("tpls", tpl_docs), ("targets", target_docs)):
        (out / sub).mkdir()
        for doc in docs:
            save_document(doc, out / sub / (doc.binary_id + ".jsonl"))
    write_seeded_vectors(out / "vectors", list(tpl_docs) + list(target_docs), EXTERNAL_DIM)
    assert main(["build", "--tpls", str(out / "tpls"), "--out", str(out / "repo.lsr"),
                 "--vectors-dir", str(out / "vectors"), "--dim", str(EXTERNAL_DIM),
                 "--quiet"]) == 0
    for mode in ("core-weighted-mean", "match-sum"):
        assert main(["detect", "--repo", str(out / "repo.lsr"),
                     "--targets", str(out / "targets"), "--out", str(out / (mode + ".jsonl")),
                     "--vectors-dir", str(out / "vectors"), "--mode", mode, "--quiet"]) == 0
    return {
        "repository": (out / "repo.lsr").read_bytes(),
        "reports-weighted-mean": (out / "core-weighted-mean.jsonl").read_bytes(),
        "reports-match-sum": (out / "match-sum.jsonl").read_bytes(),
    }


@pytest.mark.parametrize("name", sorted(RECORDED_EXTERNAL))
def test_external_vector_output_bytes_match_recorded_digest(external_outputs, name):
    assert hashlib.sha256(external_outputs[name]).hexdigest() == RECORDED_EXTERNAL[name]
