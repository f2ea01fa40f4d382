"""A deliberately slow, loop-level model of the rules libsift computes:
counts and TF-IDF weights at theta1, the complexity cut at theta2, both
aggregation modes with evidence, decisions at theta3, confusion counts.

Fast paths are tested against it, with `==` where the inputs make the
arithmetic exact (`EXACT_CORPORA` below).  It uses plain Python floats,
sums with `+=` from 0.0 and calls none of the code it models; the
acceptance tests keep oracles of their own.
"""
import math
import random

from hypothesis import strategies as st

from libsift.detector import AGG_MATCH_SUM
from libsift.embedding import import_embeddings
from libsift.interchange import BinaryDocument

from corpora import one_block, vector_file


def dot(a, b) -> float:
    total = 0.0
    for x, y in zip(a, b):
        total += float(x) * float(y)
    return total


def counts(vectors, lib_ids, thetas, rows=None) -> list:
    """[(n, df)] per threshold, two lists over `rows` (all when None): n
    counts same-library vectors at similarity >= the threshold, itself
    included; df counts the OTHER libraries holding one."""
    vectors = [[float(x) for x in v] for v in vectors]
    out = [([], []) for _ in thetas]
    for i in range(len(vectors)) if rows is None else rows:
        sims = [dot(vectors[i], v) for v in vectors]
        for theta, (n, df) in zip(thetas, out):
            hits = [lib_ids[j] for j, sim in enumerate(sims) if j != i and sim >= theta]
            n.append(1 + hits.count(lib_ids[i]))
            df.append(len(set(hits) - {lib_ids[i]}))
    return out


def weights(libraries, theta1) -> list:
    """[(n, df, weight)] per vector of `libraries`, {library: [vector]}:
    weight = (n / library size) * ln(L / (df + 1)), with L counting every
    library, emptied ones included."""
    flat = [(lib, len(vs), v) for lib, vs in libraries.items() for v in vs]
    (n, df), = counts([v for *_, v in flat], [lib for lib, *_ in flat], [theta1])
    return [(k, d, (k / size) * math.log(len(libraries) / (d + 1)))
            for k, d, (_, size, _) in zip(n, df, flat)]


def below_shares(values) -> list:
    """[(value, share of `values` strictly below it)] per distinct value,
    ascending: every share that the complexity cut compares with theta2."""
    return [(v, sum(1 for x in values if x < v) / len(values)) for v in sorted(set(values))]


def purify_mi(libraries, theta2) -> dict:
    """`libraries`, {library: [feature]}, keeping the features whose
    complexity index is below m*, the largest value whose strictly-below
    share is <= theta2; values tied at m* are dropped."""
    values = [f.profile.mi for feats in libraries.values() for f in feats]
    m_star = max((v for v, share in below_shares(values) if share <= theta2), default=None)
    return {lib: [f for f in feats if f.profile.mi < m_star] for lib, feats in libraries.items()}


def aggregate(bin_names, bin_vectors, features, mode) -> tuple:
    """(score, evidence) of a target against one library's features; an
    evidence row is (binary function, library function, cosine, weight,
    contribution).  Cosines are clipped to [-1, 1], a max takes the first
    row or column attaining it, and sums run left to right.
    core-weighted-mean: each feature's best cosine; the score is
    sum(w * cos) / sum(w), or 0.0 when the weights sum to 0.
    match-sum: each target row's feature of largest w * cos; the score is
    the sum of those products."""
    sims = [[min(1.0, max(-1.0, dot(b, f.vector))) for f in features] for b in bin_vectors]
    evidence = []
    if mode == AGG_MATCH_SUM:
        for name, row in zip(bin_names, sims):
            terms = [f.weight * s for f, s in zip(features, row)]
            j = terms.index(max(terms))
            evidence.append((name, features[j].function_name, row[j], features[j].weight,
                             terms[j]))
    else:
        for j, f in enumerate(features):
            column = [row[j] for row in sims]
            best = max(column)
            evidence.append((bin_names[column.index(best)], f.function_name, best, f.weight,
                             f.weight * best))
    total = total_weight = 0.0
    for row in evidence:
        total += row[4]
    if mode == AGG_MATCH_SUM:
        return total, evidence
    for f in features:
        total_weight += f.weight
    return (total / total_weight if total_weight > 0.0 else 0.0), evidence


def detect(bin_names, bin_vectors, libraries, theta3, mode) -> list:
    """[(library, score, decision, evidence)] for a target against
    `libraries`, {library: [feature]}, in library order, deciding
    score >= theta3.  A library without features scores 0.0 with no
    evidence and is never decided; an empty target gets no entries."""
    out = []
    for lib in sorted(libraries) if bin_names else ():
        feats = libraries[lib]
        score, evidence = aggregate(bin_names, bin_vectors, feats, mode) if feats else (0.0, [])
        out.append((lib, score, bool(feats) and score >= theta3, evidence))
    return out


def confusion(decided, manifest) -> tuple:
    """(tp, fp, fn) of `decided`, [(binary id, decided library set)] with
    one row at most per manifest binary, by set arithmetic per binary; a
    manifest binary without a row misses all of its libraries."""
    tp = fp = fn = 0
    for bin_id, libs in decided:
        truth = set(manifest[bin_id])
        tp, fp, fn = tp + len(libs & truth), fp + len(libs - truth), fn + len(truth - libs)
    scored = {bin_id for bin_id, _ in decided}
    for bin_id, truth in manifest.items():
        if bin_id not in scored:
            fn += len(set(truth))
    return tp, fp, fn


# inputs on which the model and the fast paths compute exactly
EXACT_DIM = 8
# (mnemonics, self-loops) of one-block bodies of five complexity values:
# equal bodies tie on the index
_BODIES = ((("add",), 0), (("add", "xor"), 0), (("add", "xor"), 2), (("add", "xor", "shl"), 1),
           (("add", "xor", "shl", "lea", "mov", "sub"), 3))


def _exact_corpus(seed) -> tuple:
    """(tpl documents, target documents, manifest, vector reader): three
    libraries of 2-5 functions, three targets of 0-4 (bin0 at least 1),
    and external vector files of dimension EXACT_DIM.  A vector has four
    entries of +-0.5 and the rest 0: its norm is exactly 1, and a dot
    product of two is a multiple of 0.25, exact in any summation order.
    Vectors come from a pool of 2-6 and bodies from _BODIES, so vectors
    repeat within and across libraries and complexity values tie.  lib0
    holds an exported and an internal function; a target of 0 functions
    holds only a .plt stub, which section filtering drops."""
    rng = random.Random(seed)
    pool = []
    for _ in range(rng.randint(2, 6)):
        signs = dict(zip(rng.sample(range(EXACT_DIM), 4), rng.choices((0.5, -0.5), k=4)))
        pool.append([signs.get(d, 0.0) for d in range(EXACT_DIM)])
    docs, files = [], {}
    for doc_id, kind, low, high in ([("lib%d" % i, "tpl", 2, 5) for i in range(3)]
                                    + [("bin%d" % i, "target", int(i == 0), 4) for i in range(3)]):
        functions = []
        for k in range(rng.randint(low, high)):
            export = k == 0 if doc_id == "lib0" and k < 2 else rng.random() < 0.5
            mnemonics, loops = rng.choice(_BODIES)
            functions.append(one_block("%s_f%d" % (doc_id, k), mnemonics, is_export=export,
                                       loops=loops))
        files[doc_id] = vector_file(doc_id, EXACT_DIM, [(fn.name, rng.choice(pool))
                                                        for fn in functions])
        stub = one_block("stub", ["ret"], is_export=False, section=".plt")
        docs.append(BinaryDocument(doc_id, kind, functions or [stub]))
    manifest = {doc.binary_id: set(rng.sample(["lib0", "lib1", "lib2"], rng.randint(0, 3)))
                for doc in docs[3:]}
    return docs[:3], docs[3:], manifest, lambda doc: import_embeddings(
        doc, files[doc.binary_id], EXACT_DIM)


# one seed per corpus keeps each example cheap to draw
EXACT_CORPORA = st.integers(0, 2 ** 32 - 1).map(_exact_corpus)


def some(values):
    """The strategy of lists of 1-3 of `values`."""
    return st.lists(st.sampled_from(values), min_size=1, max_size=3)


def exact_thresholds(repo) -> tuple:
    """(similarities, shares) attained by `repo`'s features, each with 1.0:
    the theta1 values where counts change, the theta2 values where the cut
    does."""
    feats = [f for fs in repo.libraries.values() for f in fs]
    sims = {dot(f.vector, g.vector) for f in feats for g in feats}
    values = [f.profile.mi for f in feats]
    shares = {share for _, share in below_shares(values) if share > 0}
    return sorted(sims | {1.0}), sorted(shares | {1.0})
