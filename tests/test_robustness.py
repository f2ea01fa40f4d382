"""Malformed input of any kind ends in a typed LibsiftError and a clean
exit code, never a traceback."""
import json
import math
import random
import struct
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from libsift import (
    AGGREGATION_MODES,
    BinaryDocument,
    ComplexityProfile,
    ConfigError,
    EmbeddingError,
    FunctionFeature,
    LibsiftError,
    ParseError,
    RepositoryError,
    SyntheticCorpusSpec,
    aggregate,
    batched_similarity,
    build_origin,
    build_repository,
    compute_weights,
    cosine,
    detect,
    generate_corpus,
    import_embeddings,
    load_manifest,
    load_repository,
    parse_document,
    purify_mi,
    read_reports,
    read_timings,
    run_ablation,
    save_manifest,
    save_repository,
    serialize_document,
    sweep,
    write_reports,
)
from libsift import cli
from libsift.cli import build_parser, main, resolve_config

from corpora import forge_lsr, one_block, random_document, vector_file

DIM = 16
NOT_UTF8 = b"\xff\xfe"


def _library(lib_id, k):
    return BinaryDocument(lib_id, "tpl", [
        one_block("%s_f%d" % (lib_id, i), ["add", "xor", "shl", "lea", "mov"][: 2 + i],
                  reg="r%d" % (8 + k))
        for i in range(3)
    ])


def _target(libraries, binary_id="bin"):
    return BinaryDocument(binary_id, "target", [fn for lib in libraries for fn in lib.functions])


# ---------------------------------------------------------------------------
# one validator for vectors from outside, whichever entry point reads them

_BAD_VECTORS = {
    "wrong-dimension": ("f", [1.0] * (DIM - 1)),
    "nan": ("f", [float("nan")] + [0.0] * (DIM - 1)),
    "zero": ("f", [0.0] * DIM),
    "overflowing-norm": ("f", [1e308, 1e308] + [0.0] * (DIM - 2)),
    "non-numeric": ("f", ["a"] + [0.0] * (DIM - 1)),
    "missing-name": ("not_f", [1.0] * DIM),
}


@pytest.mark.parametrize("entry", ["import_embeddings", "build_origin", "detect"])
@pytest.mark.parametrize("case", sorted(_BAD_VECTORS))
def test_every_entry_point_raises_embedding_error_for_a_bad_vector(case, entry):
    name, values = _BAD_VECTORS[case]
    doc = BinaryDocument("lib", "tpl", [one_block("f", ["add", "xor"])])
    table = {name: values}
    with pytest.raises(EmbeddingError):
        if entry == "import_embeddings":
            import_embeddings(doc, vector_file("lib", DIM, [(name, values)]), DIM)
        elif entry == "build_origin":
            build_origin([doc], dim=DIM, vectors=lambda doc: table)
        else:
            repo = build_repository([doc], dim=DIM, stages=(),
                                    vectors=lambda doc: {"f": np.ones(DIM)})
            detect(_target([doc]), repo, vectors=lambda doc: table)


# ---------------------------------------------------------------------------
# a repository whose embedder this build does not have

def test_detect_refuses_a_repository_with_an_unknown_embedder(tmp_path, capsys):
    libs = [_library("liba", 0), _library("libb", 1)]
    repo = build_repository(libs, dim=DIM, stages=())
    repo.config = replace(repo.config, embedder="bcsd-model-v9")
    with pytest.raises(ConfigError, match="not available"):
        detect(_target(libs), repo)

    repo_path = tmp_path / "repo.lsr"
    save_repository(repo, repo_path)
    target_path = tmp_path / "bin.jsonl"
    target_path.write_bytes(serialize_document(_target(libs)))
    out = tmp_path / "reports.jsonl"
    assert main(["detect", "--repo", str(repo_path), "--targets", str(target_path),
                 "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "not available" in err and "Traceback" not in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# JSON text no reader can take

def _saved_repository(path):
    save_repository(build_repository([_library("liba", 0)], dim=DIM, stages=()), path)
    return path.read_bytes()


_FILE_READERS = {"read_reports": read_reports, "load_manifest": load_manifest,
                 "read_timings": read_timings}


def _resolve_build_config(path):
    return resolve_config(build_parser().parse_args(
        ["build", "--tpls", "t", "--out", "o", "--config", str(path)]))


# the error each reader raises for JSON text it cannot take
_READER_ERRORS = dict({reader: ParseError for reader in _FILE_READERS},
                      parse_document=ParseError, import_embeddings=ParseError,
                      load_repository=RepositoryError, config=ConfigError)

# a valid first line for each JSON Lines reader
_FIRST_LINES = {
    "parse_document": b'{"binary_id":"liba","kind":"tpl","format_version":1}\n',
    "import_embeddings": vector_file("liba", DIM, []).encode(),
    "read_reports": b'{"binary_id":"bin","entries":[],"config":{}}\n',
}


def _read_json(reader, text, path, line=1):
    """Hand `text` to `reader` as the JSON it decodes: line `line` (1 or 2)
    of a document, vector file or report file, a repository header, or a
    whole manifest, config or timing file."""
    if reader in _FIRST_LINES and line == 2:
        text = _FIRST_LINES[reader] + text
    if reader == "parse_document":
        return parse_document(text)
    if reader == "import_embeddings":
        return import_embeddings(_library("liba", 0), text, DIM)
    if reader == "load_repository":
        path.write_bytes(forge_lsr(_saved_repository(path), header_bytes=text))
        return load_repository(path)
    path.write_bytes(text)
    if reader == "config":
        return _resolve_build_config(path)
    return _FILE_READERS[reader](path)


DEEP = b"[" * 100000
# an integer past Python's digit limit (4,300 digits by default); where
# the limit is missing, the reader reads it and refuses the record instead
LONG_INTEGER = b'{"format_version": ' + b"1" * 5000 + b"}"
_DIGIT_LIMIT = hasattr(sys, "get_int_max_str_digits")

# text, the message it is refused with, and the line a JSON Lines reader
# reads it on
_UNREADABLE = {
    "invalid-json": (b'{"a": ', "invalid JSON", 1),
    "not-an-object": (b"[1]", "not a JSON object", 1),
    "not-utf8": (NOT_UTF8 + b"{}", "not UTF-8", 2),
    "deeply-nested": (b'{"a": ' + DEEP, "JSON nested too deeply", 2),
    "long-integer": (LONG_INTEGER,
                     "invalid JSON: a number too long to read" if _DIGIT_LIMIT else None, 1),
}


@pytest.mark.parametrize("case", sorted(_UNREADABLE))
@pytest.mark.parametrize("reader", sorted(_READER_ERRORS))
def test_readers_refuse_unreadable_json(reader, case, tmp_path):
    text, message, line = _UNREADABLE[case]
    with pytest.raises(_READER_ERRORS[reader], match=message) as err:
        _read_json(reader, text, tmp_path / "input", line)
    if reader in _FIRST_LINES:
        assert err.value.line == line


# a bad first line for each JSON Lines reader, and the error it raises
_BAD_FIRST_LINES = {
    "parse_document": (b'{"binary_id":"x","kind":"lib","format_version":1}',
                       "kind must be one of"),
    "import_embeddings": (b'{"dim":%d}' % DIM, "vector header lacks field 'doc_id'"),
    "read_reports": (b"{}", "report lacks field 'entries'"),
}


@pytest.mark.parametrize("reader", sorted(_BAD_FIRST_LINES))
def test_json_lines_readers_report_the_first_bad_line(reader, tmp_path):
    first, message = _BAD_FIRST_LINES[reader]
    with pytest.raises(ParseError, match="^line 1: " + message):
        _read_json(reader, first + b"\n\n" + NOT_UTF8 + b"\n", tmp_path / "input")


@pytest.fixture
def cli_inputs(tmp_path):
    """Valid inputs for every command, so one file at a time can be broken."""
    libs = [_library("liba", 0), _library("libb", 1)]
    for sub, docs in (("tpls", libs), ("targets", [_target(libs)]), ("vectors", [])):
        (tmp_path / sub).mkdir()
        for doc in docs:
            (tmp_path / sub / (doc.binary_id + ".jsonl")).write_bytes(serialize_document(doc))
    for doc in libs:
        rows = [(fn.name, [1.0 + i] + [0.5] * (DIM - 1)) for i, fn in enumerate(doc.functions)]
        (tmp_path / "vectors" / (doc.binary_id + ".jsonl")).write_bytes(
            vector_file(doc.binary_id, DIM, rows).encode())
    save_manifest({"bin": {"liba", "libb"}}, tmp_path / "manifest.json")
    _saved_repository(tmp_path / "repo.lsr")
    return tmp_path


_CLI_CASES = {
    "detect-target": ("targets/bin.jsonl",
                      "detect --repo {d}/repo.lsr --targets {d}/targets --out {d}/r.jsonl --quiet"),
    "build-vectors": ("vectors/liba.jsonl",
                      "build --tpls {d}/tpls --out {d}/x.lsr --vectors-dir {d}/vectors "
                      "--dim %d --quiet" % DIM),
    "sweep-manifest": ("manifest.json",
                       "sweep --tpls {d}/tpls --targets {d}/targets --manifest "
                       "{d}/manifest.json --out {d}/s.csv --theta3-grid 0.9 --quiet"),
    "inspect-header": ("repo.lsr", "inspect --repo {d}/repo.lsr"),
    "build-tpl": ("tpls/liba.jsonl", "build --tpls {d}/tpls --out {d}/x.lsr --quiet"),
}
_CLI_CONTENTS = {"not-utf8": NOT_UTF8 + b"{}", "not-an-object": b"[1]",
                 "long-integer": LONG_INTEGER}


@pytest.mark.parametrize("content", sorted(_CLI_CONTENTS))
@pytest.mark.parametrize("case", sorted(_CLI_CASES))
def test_cli_exits_one_on_unreadable_input(case, content, cli_inputs, capsys):
    rel, command = _CLI_CASES[case]
    path = cli_inputs / rel
    bad = _CLI_CONTENTS[content]
    if rel.endswith(".lsr"):
        path.write_bytes(forge_lsr(path.read_bytes(), header_bytes=bad))
    else:
        path.write_bytes(bad + b"\n")
    assert main(command.format(d=cli_inputs).split()) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("case", ["detect-target", "build-config"])
def test_cli_exits_cleanly_on_deeply_nested_json(case, cli_inputs, capsys):
    d = cli_inputs
    if case == "detect-target":
        (d / "targets" / "bin.jsonl").write_bytes(DEEP + b"\n")
        command, code, prefix = _CLI_CASES["detect-target"][1].format(d=d), 1, "error:"
    else:
        (d / "cfg.json").write_bytes(DEEP)
        command = "build --tpls {d}/tpls --out {d}/x.lsr --config {d}/cfg.json --quiet"
        command, code, prefix = command.format(d=d), 2, "config error:"
    assert main(command.split()) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and "nested too deeply" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# a JSON escape of a lone surrogate, which decodes to text no UTF-8 can hold

LONE_SURROGATE = "not valid Unicode: a lone surrogate escape"


@pytest.mark.parametrize("text", [b'{"x": "\\ud800"}', b'{"\\udfff": 1}',
                                  b'{"x": ["\\ude00\\ud83d"]}'],
                         ids=["value", "key", "reversed-pair"])
@pytest.mark.parametrize("reader", sorted(_READER_ERRORS))
def test_readers_refuse_a_lone_surrogate_escape(reader, text, tmp_path):
    with pytest.raises(_READER_ERRORS[reader], match=LONE_SURROGATE) as err:
        _read_json(reader, text, tmp_path / "input")
    if reader in _FIRST_LINES:
        assert err.value.line == 1


# the serialized _library("liba", 0) text each case escapes, and its line
_SURROGATE_SITES = {"token": (b'"add"', 2), "function-name": (b'"liba_f1"', 3),
                    "binary-id": (b'"liba"', 1)}


@pytest.mark.parametrize("site", sorted(_SURROGATE_SITES))
def test_parse_document_refuses_a_lone_surrogate_and_reads_an_escaped_pair(site):
    text, line = _SURROGATE_SITES[site]
    data = serialize_document(_library("liba", 0))
    with pytest.raises(ParseError, match="line %d: %s" % (line, LONE_SURROGATE)):
        parse_document(data.replace(text, b'"\\ud800"', 1))
    doc = parse_document(data.replace(text, b'"\\ud83d\\ude00"', 1))
    assert "\U0001f600" in (doc.binary_id, doc.functions[1].name,
                            doc.functions[0].blocks[0].instructions[0].mnemonic)


@pytest.mark.parametrize("case", ["build-token", "detect-binary-id", "build-config"])
def test_cli_exits_cleanly_on_a_lone_surrogate(case, cli_inputs, capsys):
    d = cli_inputs
    out = d / "out"
    if case == "build-token":
        path = d / "tpls" / "liba.jsonl"
        path.write_bytes(path.read_bytes().replace(b'"add"', b'"\\ud800"', 1))
        command = "build --tpls {d}/tpls --out {d}/out --stages none --quiet"
        code, prefix = 1, "error: line 2:"
    elif case == "detect-binary-id":
        path = d / "targets" / "bin.jsonl"
        path.write_bytes(path.read_bytes().replace(b'"bin"', b'"\\ud800"', 1))
        command = _CLI_CASES["detect-target"][1].replace("r.jsonl", "out")
        code, prefix = 1, "error: line 1:"
    else:
        (d / "cfg.json").write_bytes(b'{"mode": "\\ud800"}')
        command = "build --tpls {d}/tpls --out {d}/out --config {d}/cfg.json --quiet"
        code, prefix = 2, "config error: config file"
    assert main(command.format(d=d).split()) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and LONE_SURROGATE in err and "Traceback" not in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# one rule for what may enter a cosine, whichever similarity helper takes it

_BAD_SIMILARITY_ROWS = {
    "nan": [math.nan, 1.0, 1.0, 1.0],
    "inf": [math.inf, 1.0, 1.0, 1.0],
    "-inf": [-math.inf, 1.0, 1.0, 1.0],
    "overflowing-norm": [1e300] * 4,
    "zero": [0.0] * 4,
}


def _similarity(entry, queries, keys):
    """Run one similarity helper on two row stacks; `cosine` takes their
    last rows."""
    if entry == "cosine":
        return cosine(queries[-1], keys[-1])
    if entry == "batched_similarity":
        return batched_similarity(queries, keys)
    profile = ComplexityProfile(hv=10.0, loc=3, cc=1, mi=120.0)
    features = [FunctionFeature("lib", "f%d" % i, row, profile, True, 1.0)
                for i, row in enumerate(keys)]
    return aggregate(queries, ["q%d" % i for i in range(len(queries))], features, mode=entry)


@pytest.mark.parametrize("entry", ["cosine", "batched_similarity", *AGGREGATION_MODES])
@pytest.mark.parametrize("side", ["query", "key"])
@pytest.mark.parametrize("case", sorted(_BAD_SIMILARITY_ROWS))
def test_every_similarity_input_passes_one_norm_check(entry, side, case):
    good = np.array([[1.0, 0.5, 0.25, 0.125], [0.0, 1.0, 0.0, 2.0]])
    bad = np.vstack([good, [_BAD_SIMILARITY_ROWS[case]]])
    queries, keys = (bad, good) if side == "query" else (good, bad)
    _similarity(entry, good, good)
    with pytest.raises(EmbeddingError, match="zero, non-finite or overflowing norm"):
        _similarity(entry, queries, keys)


# ---------------------------------------------------------------------------
# property: the readers raise nothing but LibsiftError on arbitrary or
# mutated bytes

_PROPERTY = settings(max_examples=150)

_DOC = random_document(random.Random(3), "bin", kind="tpl")


def _edits(data: bytes):
    """`data` with 1-6 byte flips, insertions or deletions."""
    edit = st.tuples(st.integers(0, max(len(data) - 1, 0)),
                     st.sampled_from(("flip", "insert", "delete")), st.integers(0, 255))

    def apply(edits):
        out = bytearray(data)
        for pos, op, byte in edits:
            pos = min(pos, len(out))
            if op == "insert":
                out.insert(pos, byte)
            elif pos < len(out):
                if op == "flip":
                    out[pos] ^= byte or 0x80
                else:
                    del out[pos]
        return bytes(out)

    return st.lists(edit, min_size=1, max_size=6).map(apply)


def _inputs(valid: bytes):
    return st.one_of(st.binary(max_size=300), _edits(valid))


def _only_libsift_errors(call, *args):
    try:
        call(*args)
    except LibsiftError:
        pass


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def valid_reports(scratch):
    libs = [_library("liba", 0), _library("libb", 1)]
    write_reports([detect(_target(libs), build_repository(libs, dim=DIM))],
                  scratch / "reports.jsonl")
    return (scratch / "reports.jsonl").read_bytes()


@pytest.fixture(scope="module")
def valid_lsr(scratch):
    return _saved_repository(scratch / "valid.lsr")


@_PROPERTY
@given(data=_inputs(serialize_document(_DOC)))
def test_parse_document_raises_only_libsift_errors(data):
    _only_libsift_errors(parse_document, data)


def _valid_vector_file():
    rows = [(fn.name, [0.25 * (i + 1)] * 4) for i, fn in enumerate(_DOC.functions)]
    return vector_file(_DOC.binary_id, 4, rows).encode()


@_PROPERTY
@given(data=_inputs(_valid_vector_file()))
def test_import_embeddings_raises_only_libsift_errors(data):
    _only_libsift_errors(import_embeddings, _DOC, data, 4)


@_PROPERTY
@given(data=st.data())
def test_read_reports_raises_only_libsift_errors(scratch, valid_reports, data):
    (scratch / "in.jsonl").write_bytes(data.draw(_inputs(valid_reports)))
    _only_libsift_errors(read_reports, scratch / "in.jsonl")


@_PROPERTY
@given(data=_inputs(json.dumps({"bin000": ["lib000", "lib001"], "bin001": []}).encode()))
def test_load_manifest_raises_only_libsift_errors(scratch, data):
    (scratch / "manifest.json").write_bytes(data)
    _only_libsift_errors(load_manifest, scratch / "manifest.json")


@_PROPERTY
@given(data=st.data())
def test_load_repository_raises_only_libsift_errors_on_mutated_headers(scratch, valid_lsr, data):
    (header_len,) = struct.unpack_from("<I", valid_lsr, 8)
    header = data.draw(_edits(valid_lsr[12 : 12 + header_len]))
    (scratch / "in.lsr").write_bytes(forge_lsr(valid_lsr, header_bytes=header))
    _only_libsift_errors(load_repository, scratch / "in.lsr")


# ---------------------------------------------------------------------------
# property: detect does not depend on the order of functions or of blocks

_INVARIANCE_SPEC = SyntheticCorpusSpec(
    library_count=5, functions_per_library=12, clone_rate=0.1, export_rate=0.6,
    planted_reuse={"bin000": (["lib000"], 1.0), "bin001": (["lib001", "lib002"], 0.8),
                   "bin002": (["lib003"], 0.5), "bin003": (["lib004"], 0.3),
                   "bin004": ([], 0.0)},
    distractor_functions=8, rng_seed=5)


def _shuffled(doc, rng):
    """`doc` with its functions, and each function's block list, in a
    random order; block ids and edges are kept."""
    functions = [replace(fn, blocks=rng.sample(fn.blocks, len(fn.blocks)))
                 for fn in doc.functions]
    return replace(doc, functions=rng.sample(functions, len(functions)))


def _scores(tpl_docs, target_docs):
    """(stages, target, mode) -> [(library, score, decision)] for a fully
    purified repository and for one that keeps every function."""
    out = {}
    for stages in (("export", "mi", "weights"), ("weights",)):
        repo = build_repository(tpl_docs, dim=64, stages=stages)
        for doc in target_docs:
            for mode in AGGREGATION_MODES:
                out[stages, doc.binary_id, mode] = [
                    (e.library_id, e.score, e.decision)
                    for e in detect(doc, repo, mode=mode).entries]
    return out


@pytest.fixture(scope="module")
def invariance_corpus():
    tpl_docs, target_docs, _ = generate_corpus(_INVARIANCE_SPEC)
    return tpl_docs, target_docs, _scores(tpl_docs, target_docs)


@settings(max_examples=10)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_detect_is_invariant_under_function_and_block_reordering(invariance_corpus, seed):
    tpl_docs, target_docs, want = invariance_corpus
    rng = random.Random(seed)
    got = _scores([_shuffled(d, rng) for d in tpl_docs], [_shuffled(d, rng) for d in target_docs])
    assert got.keys() == want.keys()
    for key, entries in want.items():
        assert [(lib, decision) for lib, _, decision in got[key]] == [
            (lib, decision) for lib, _, decision in entries], key
        for (_, score, _), (_, expected, _) in zip(got[key], entries):
            assert abs(score - expected) <= 1e-12 * max(1.0, abs(expected)), key


# ---------------------------------------------------------------------------
# one range check per setting, whichever entry point or command takes it

_BAD_SETTINGS = [
    ("theta1", 1.5), ("theta1", float("nan")), ("theta1", float("inf")),
    ("theta2", 0.0), ("theta2", 1.5), ("theta2", float("nan")),
    ("theta3", 1.5), ("theta3", float("nan")),
    ("seed", 2 ** 63), ("dim", 0),
]
_GRIDS = ("theta1", "theta2", "theta3")


def _entry_points(setting, value, reads):
    """name -> call for every library entry point that takes `setting`;
    the calls that parse documents append each one they take to `reads`."""
    libs = [_library("liba", 0), _library("libb", 1)]
    target = _target(libs)
    manifest = {"bin": {"liba", "libb"}}

    def docs(items):
        for doc in items:
            reads.append(doc.binary_id)
            yield doc

    opts = {"dim": DIM, setting: value}
    grids = {"theta1_values": (0.8,), "theta2_values": (0.4,), "theta3_values": (0.9,), "dim": DIM}
    if setting in _GRIDS:
        grids[setting + "_values"] = (0.5, value)
    else:
        grids[setting] = value
    calls = {
        "sweep": lambda: sweep(docs(libs), docs([target]), manifest, **grids),
        "run_ablation": lambda: run_ablation(docs(libs), docs([target]), manifest, **opts),
    }
    if setting == "theta3":
        repo = build_repository(libs, dim=DIM)
        calls["detect"] = lambda: detect(target, repo, theta3=value)
    else:
        calls["build_repository"] = lambda: build_repository(docs(libs), **opts)
        calls["build_repository(stages=())"] = lambda: build_repository(
            docs(libs), stages=(), **opts)
    if setting == "theta1":
        calls["compute_weights"] = lambda: compute_weights(build_origin(libs, dim=DIM), value)
    if setting == "theta2":
        calls["purify_mi"] = lambda: purify_mi(build_origin(libs, dim=DIM), value)
    return calls


@pytest.mark.parametrize("setting,value", _BAD_SETTINGS)
def test_every_entry_point_refuses_an_out_of_range_setting(setting, value):
    reads = []
    for name, call in _entry_points(setting, value, reads).items():
        reads.clear()
        with pytest.raises(ConfigError, match=setting):
            call()
        assert reads == [], "%s read a document before checking %s" % (name, setting)


_SETTING_COMMANDS = {
    "build": ("build --tpls {d}/tpls --out {d}/out --quiet", ("theta1", "theta2", "dim", "seed")),
    "detect": ("detect --repo {d}/repo.lsr --targets {d}/targets --out {d}/out --quiet",
               ("theta3",)),
    "sweep": ("sweep --tpls {d}/tpls --targets {d}/targets --manifest {d}/manifest.json "
              "--out {d}/out --theta1-grid 0.8 --theta2-grid 0.4 --theta3-grid 0.9 --quiet",
              _GRIDS + ("dim", "seed")),
    "ablate": ("ablate --tpls {d}/tpls --targets {d}/targets --manifest {d}/manifest.json "
               "--out {d}/out --quiet", _GRIDS + ("dim", "seed")),
}


@pytest.mark.parametrize("command,setting,value", [
    (command, setting, value) for command, (_, taken) in sorted(_SETTING_COMMANDS.items())
    for setting, value in _BAD_SETTINGS if setting in taken
])
def test_every_command_refuses_an_out_of_range_setting_before_parsing(
        command, setting, value, cli_inputs, monkeypatch, capsys):
    base = _SETTING_COMMANDS[command][0]
    parsed = []
    monkeypatch.setattr(cli, "load_document", lambda path: parsed.append(path))
    flag = setting + "-grid" if command == "sweep" and setting in _GRIDS else setting
    argv = base.format(d=cli_inputs).split() + ["--%s=%r" % (flag, value)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and setting in err and "Traceback" not in err
    assert parsed == []
    assert not list(cli_inputs.glob("out*"))


@pytest.mark.parametrize("setting,value", [("theta1", float("nan")), ("theta1", 5),
                                           ("theta2", 0), ("dim", 0), ("seed", 2 ** 63)])
def test_load_repository_refuses_an_out_of_range_header_config(setting, value, tmp_path):
    path = tmp_path / "repo.lsr"
    path.write_bytes(forge_lsr(_saved_repository(path),
                               lambda header, _: header["config"].update({setting: value})))
    with pytest.raises(RepositoryError, match=setting):
        load_repository(path)


@pytest.mark.parametrize("args", [
    "sweep --tpls {d}/tpls --targets {d}/targets --manifest {d}/manifest.json "
    "--out {d}/out --theta1-grid abc",
    "sweep --tpls {d}/tpls --targets {d}/targets --manifest {d}/manifest.json "
    "--out {d}/out --theta3-grid ,",
    "gen --out {d}/out --min-libs 3 --max-libs 1",
    "gen --out {d}/out --libraries 0",
])
def test_bad_grid_and_gen_flags_exit_two_without_a_traceback(args, cli_inputs, capsys):
    assert main(args.format(d=cli_inputs).split()) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not list(cli_inputs.glob("out*"))


_NUMBER_TEXT = st.one_of(st.floats(-1, 1).map(repr), st.floats().map(repr), st.text(max_size=8))


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.one_of(
    st.tuples(st.sampled_from([("build", "theta1"), ("build", "theta2"), ("detect", "theta3"),
                               ("ablate", "theta1"), ("ablate", "theta3")]), _NUMBER_TEXT),
    st.tuples(st.sampled_from([("sweep", "theta1-grid"), ("sweep", "theta2-grid"),
                               ("sweep", "theta3-grid")]),
              st.one_of(st.lists(_NUMBER_TEXT, max_size=3).map(",".join), st.text(max_size=12))),
))
def test_cli_flag_values_never_end_in_a_traceback(case, cli_inputs, capsys):
    (command, flag), value = case
    argv = _SETTING_COMMANDS[command][0].format(d=cli_inputs).split()
    assert main(argv + ["--%s=%s" % (flag, value)]) in (0, 1, 2)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err + captured.out


# ---------------------------------------------------------------------------
# property: a whole generated command line ends in an exit code, never a
# traceback

def _paths(first):
    """Input path values, `first` (a good one) ahead of the bad ones."""
    bad = ("{d}/repo.lsr", "{d}/manifest.json", "{d}/targets/bin.jsonl", "{d}/garbage",
           "{d}/empty", "{d}/missing", "")
    return ("{d}/" + first,) + tuple(path for path in bad if path != "{d}/" + first)


# flag -> its values, a good one first; every size stays tiny, so no
# generated command builds a large corpus or vector
_THETAS = ("0.8", "0.4", "1.5", "-2", "nan", "inf", "abc", "")
_SIZES = ("2", "1", "0", "-1", "1e3", "abc", "")
_RATES = ("0.5", "1", "1.5", "-0.1", "nan", "abc")
_ARGV_FLAGS = {
    "--tpls": _paths("tpls"), "--targets": _paths("targets") + _SIZES,
    "--repo": _paths("repo.lsr"), "--manifest": _paths("manifest.json"),
    "--vectors-dir": _paths("vectors"),
    "--out": ("{d}/out/x", "{d}/out", "{d}/missing/x", ""),
    "--config": ("{d}/config.json", "{d}/garbage", "{d}/missing", ""),
    "--theta1": _THETAS, "--theta2": _THETAS, "--theta3": _THETAS,
    "--theta1-grid": ("0.8,0.9",) + _THETAS + (",",),
    "--theta2-grid": ("0.2,0.4",) + _THETAS + (",",),
    "--theta3-grid": ("0.85,0.9",) + _THETAS + (",",),
    "--dim": ("16", "2", "1", "0", "-3", "1e3", "abc", ""),
    "--seed": ("1", "9", "-1", str(2 ** 63), "abc", ""),
    "--mode": AGGREGATION_MODES + ("bogus", ""),
    "--stages": ("none", "export,mi", "mi,export", "weights,weights", "bogus", ""),
    "--libraries": _SIZES, "--functions": _SIZES, "--distractors": _SIZES,
    "--min-libs": _SIZES, "--max-libs": _SIZES,
    "--clone-rate": _RATES, "--simple-rate": _RATES, "--export-rate": _RATES,
    "--min-fraction": _RATES, "--max-fraction": _RATES,
    "--quiet": (), "--no-timing": (), "--json": (),
    "--verbose": (), "--batch": ("4",), "--bogus": ("1",),
}
_SETTING_FLAGS = ("--config", "--quiet", "--theta1", "--theta2", "--theta3", "--dim", "--seed",
                  "--mode", "--stages")
# command -> (the flags it needs to get past argparse, the flags most
# likely to reach its library call)
_ARGV_COMMANDS = {
    "gen": (("--out",), ("--seed", "--libraries", "--functions", "--targets", "--distractors",
                         "--min-libs", "--max-libs", "--clone-rate", "--simple-rate",
                         "--export-rate", "--min-fraction", "--max-fraction", "--quiet")),
    "build": (("--tpls", "--out"), ("--vectors-dir", "--no-timing") + _SETTING_FLAGS),
    "detect": (("--repo", "--targets", "--out"), ("--vectors-dir",) + _SETTING_FLAGS),
    "sweep": (("--tpls", "--targets", "--manifest", "--out"),
              ("--theta1-grid", "--theta2-grid", "--theta3-grid") + _SETTING_FLAGS),
    "ablate": (("--tpls", "--targets", "--manifest", "--out"), _SETTING_FLAGS),
    "inspect": (("--repo",), ("--json",)),
}
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.sampled_from((-1, 0, 1, 2, 16, 2 ** 63)),
              st.floats(), st.text(max_size=6)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6,
)
_CONFIG = st.one_of(_JSON, st.dictionaries(
    st.sampled_from(("theta1", "theta2", "theta3", "dim", "mode", "seed", "stages", "bogus")),
    st.one_of(_JSON, st.sampled_from(("match-sum", "export", ["export", "mi"], 0.5))),
    max_size=4))


@settings(max_examples=120, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_never_ends_in_a_traceback_on_a_generated_command_line(data, cli_inputs,
                                                                   monkeypatch, capsys):
    d = cli_inputs
    for sub in ("out", "empty", "cwd"):
        (d / sub).mkdir(exist_ok=True)
    (d / "garbage").write_bytes(b"\x00\xffgarbage\n")
    monkeypatch.chdir(d / "cwd")  # a relative or empty path stays in here
    command = data.draw(st.sampled_from(sorted(_ARGV_COMMANDS) + [None, "bogus"]), "command")
    required, usual = _ARGV_COMMANDS.get(command, ((), ()))
    flags = [flag for flag in required
             if data.draw(st.sampled_from(range(10)), "keep " + flag)]
    if usual:
        flags += data.draw(st.lists(st.sampled_from(usual), max_size=4), "usual")
    flags += data.draw(st.lists(st.sampled_from(sorted(_ARGV_FLAGS)), max_size=1), "any")
    argv = [] if command is None else [command]
    for flag in data.draw(st.permutations(flags), "order"):
        argv.append(flag)
        values = _ARGV_FLAGS[flag]
        if values:
            # half the time the good value; a missing value is one choice
            value = data.draw(st.one_of(st.just(values[0]),
                                        st.sampled_from(values + (None,))), flag)
            argv += [] if value is None else [value.format(d=d)]
    if "--config" in argv:
        (d / "config.json").write_text(json.dumps(data.draw(_CONFIG, "config")),
                                       encoding="utf-8")
    assert main(argv) in (0, 1, 2)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err + captured.out
