"""Every command that reads a JSON file answers any JSON value with an exit
code: 0, 1 or 2, never an uncaught exception.  A nonzero exit writes
exactly one error object, `{"error", "detail"}`, to stderr.  The documents
are arbitrary JSON values, and valid small documents with one value
replaced or one field dropped somewhere inside."""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonotile import jsonio
from zonotile.cli import cmd
from zonotile.contraction import n_contract
from zonotile.flips import interval_combi
from zonotile.patterns import boundary_pattern
from zonotile.rhombus import minimal_tiling
from zonotile.separation import interval_collection

import oracles

KEYS = ("n", "members", "cycle", "vertices", "rhombi", "X", "i", "j",
        "deltas", "nablas", "lenses", "apex", "bottom", "base", "upper", "lower")
SMALL = st.integers(-1, 5)
LEAVES = (st.none() | st.booleans() | st.integers() | st.text(max_size=3) | SMALL
          | st.floats(allow_nan=False, allow_infinity=False) | st.lists(SMALL, max_size=4))
VALUES = st.recursive(
    LEAVES,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=2), kids, max_size=4),
    max_leaves=10,
)

SMALLER, PATH = n_contract(interval_combi(4))
VALID = [
    jsonio.family_to_json(interval_collection(3)),
    jsonio.combi_to_json(interval_combi(3)),
    jsonio.combi_to_json(SMALLER),
    oracles.tiling_json(minimal_tiling(3)),
    oracles.pattern_json(boundary_pattern(3)),
    jsonio.path_to_json(PATH),
]


@st.composite
def near_valid(draw):
    """A valid document with one value replaced or one field dropped."""
    doc = copy.deepcopy(draw(st.sampled_from(VALID)))
    node = doc
    while node:
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        move = draw(st.sampled_from(("replace", "drop", "descend")))
        if move == "descend" and isinstance(node[key], (dict, list)):
            node = node[key]
        elif move == "drop":
            del node[key]
            break
        else:
            node[key] = draw(VALUES)
            break
    return doc


# each command that reads a file, the fuzzed one as DOC
DOC = "{dir}/doc.json"
FLIP = ["--core", "", "--i", "1", "--j", "2", "--k", "3"]
READERS = [
    ["enumerate", "--domain", DOC],
    ["purity", "--domain", DOC],
    ["build-combi", "--family", DOC],
    ["flip", "--combi", DOC, "--op", "lower", *FLIP],
    ["flip", "--combi", DOC, "--op", "raise", *FLIP],
    ["descend", "--combi", DOC],
    ["contract", "--combi", DOC],
    ["expand", "--combi", DOC, "--path", "{dir}/path.json"],
    ["expand", "--combi", "{dir}/smaller.json", "--path", DOC],
    ["pattern", "classify", "--pattern", DOC],
    ["pattern", "domains", "--pattern", DOC],
    ["pattern", "verify", "--pattern", DOC],
    ["render", "--combi", DOC],
    ["render", "--tiling", DOC],
    ["render", "--pattern", DOC],
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "smaller.json").write_text(json.dumps(jsonio.combi_to_json(SMALLER)))
    (path / "path.json").write_text(json.dumps(jsonio.path_to_json(PATH)))
    return path


@settings(max_examples=30, deadline=None)
@given(reader=st.sampled_from(READERS), doc=VALUES | near_valid())
def test_file_readers_never_raise(workdir, reader, doc):
    (workdir / "doc.json").write_text(json.dumps(doc))
    argv = [arg.format(dir=workdir) for arg in reader]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cmd(argv)
    assert rc in (0, 1, 2)
    if rc:
        [line] = err.getvalue().splitlines()
        assert set(json.loads(line)) == {"error", "detail"}
