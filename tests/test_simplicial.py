"""Simplicial sets: parsing, identities, faces, chains."""
import pytest
from models import FIXTURES, fixture, front_back_faces, rank, serialize

from einfty.errors import SSetParseError, SSetValidationError
from einfty.simplicial import (FaceRef, SimplicialSet, normalized_chains, parse_sset,
                               render_cell, standard_simplex)


def test_parse_point_and_circle():
    x = parse_sset("dim 0\nv: []\n")
    assert x.names(0) == ["v"] and x.dimension == 0
    y = parse_sset("dim 0\nv: []\ndim 1\na: [v, v]\n")
    assert y == fixture("circle")


def test_parse_torus_model():
    text = serialize(fixture("torus"))
    x = parse_sset(text)
    assert [len(x.names(d)) for d in (0, 1, 2)] == [1, 3, 2]
    # brute-force enumeration of the simplicial identities
    assert x.validate() == []


def test_round_trip_all_models():
    for model in (*FIXTURES.values(), standard_simplex(2)):
        assert parse_sset(serialize(model)) == model


# (text, a fragment of the message, the line it names): every parse branch
PARSE_ERRORS = [
    ("dim 0\nv []\n", "expected 'name: [faces]' or 'dim N', got 'v []'", 2),
    ("v: []\n", "simplex entry before any 'dim N' header", 1),
    ("dim 0\nv!: []\n", "bad simplex name 'v!'", 2),
    ("dim 0\nv: [] trailing\n", "faces of v must be a [...] list", 2),
    ("dim 0\nv: [w]\n", "vertex v must have an empty face list", 2),
    ("dim 1\na: [v]\n", "a has 1 faces, a 1-simplex needs 2", 2),
    ("dim 0\nv: []\ndim 1\na: [v, s_0 s_1(v)]\n",
     "degeneracy word [0, 1] not strictly decreasing", 4),
    ("dim 0\nv: []\ndim 1\na: [v, s_0(v]\n", "unbalanced parentheses", 4),
    ("dim 0\nv: []\ndim 1\na: [v, s_0)v(]\n", "unbalanced parentheses", 4),
    ("dim 0\nv: []\ndim 1\na: [v, s_0(v) x]\n", "cannot parse face 's_0(v) x'", 4),
    ("dim 0\nv: []\ndim 0\nv: []\n", "duplicate simplex name 'v'", 4),
    ("dim 0\nv: []\nw: []\ndim 1\na: [v, w]\nw: [v, v]\n", "duplicate simplex name 'w'", 6),
]


def test_parser_rejects_garbage():
    for text, fragment, line in PARSE_ERRORS:
        with pytest.raises(SSetParseError) as exc:
            parse_sset(text)
        assert exc.value.payload() == {"error": "SSetParseError",
                                       "message": f"{fragment} (line {line})", "line": line}


@pytest.mark.parametrize("build,violations", [
    (lambda: SimplicialSet({0: ["v"]}, {"v": (FaceRef((), "w"),)}),
     [{"kind": "vertex-with-faces", "simplex": "v"}]),
    (lambda: SimplicialSet({0: ["v"], 1: ["a"]}, {"a": (FaceRef((), "v"),)}),
     [{"kind": "face-count", "simplex": "a", "expected": 2, "got": 1}]),
    (lambda: SimplicialSet({0: ["v"], 1: ["a"]}, {}),
     [{"kind": "face-count", "simplex": "a", "expected": 2, "got": 0}]),
    (lambda: parse_sset("dim 0\nv: []\ndim 1\na: [v, s_0(v)]\n"),
     [{"kind": "face-dimension", "simplex": "a", "face": 1, "target": "v",
       "expected_dim": 0, "got_dim": 1},
      {"kind": "degeneracy-index", "simplex": "a", "face": 1, "word": [0]}]),
    (lambda: parse_sset("dim 0\nv: []\ndim 1\na: [v, v]\ndim 2\nT: [a, s_1(v), a]\n"),
     [{"kind": "degeneracy-index", "simplex": "T", "face": 1, "word": [1]}]),
], ids=["vertex-with-faces", "face-count", "no-faces", "face-dimension", "degeneracy-index"])
def test_validation_violation_names_its_fields(build, violations):
    with pytest.raises(SSetValidationError) as exc:
        build()
    assert exc.value.violations == violations
    assert exc.value.payload()["message"] == f"{len(violations)} simplicial-set violation(s)"


def test_dangling_face_reported():
    with pytest.raises(SSetValidationError) as exc:
        SimplicialSet({0: ["v"], 1: ["a"]},
                      {"a": (FaceRef((), "v"), FaceRef((), "w"))})
    kinds = [item["kind"] for item in exc.value.violations]
    assert "dangling-face" in kinds


def test_identity_violation_reported():
    # two triangles sharing edges inconsistently: d0 d1 != d0 d0 forced
    faces = {
        "e": (FaceRef((), "v"), FaceRef((), "v")),
        "g": (FaceRef((), "v"), FaceRef((), "w")),
        "T": (FaceRef((), "e"), FaceRef((), "g"), FaceRef((), "e")),
    }
    with pytest.raises(SSetValidationError) as exc:
        SimplicialSet({0: ["v", "w"], 1: ["e", "g"], 2: ["T"]}, faces)
    items = [i for i in exc.value.violations if i["kind"] == "simplicial-identity"]
    assert items and items[0]["simplex"] == "T"
    assert {"i", "j"} <= set(items[0])


def test_normalized_chains_examples():
    assert normalized_chains(fixture("point")).degrees() == [0]
    c = normalized_chains(fixture("circle"))
    assert c.boundary_matrix(1).is_zero()
    t = normalized_chains(fixture("torus"))
    assert rank(t.boundary_matrix(2)) == 1
    assert rank(t.boundary_matrix(1)) == 0
    t.validate()
    rp = normalized_chains(fixture("rp2"))
    assert rp.boundary_matrix(2).to_rows() == [[2]]


def test_front_back_faces_on_standard_simplex():
    d2 = standard_simplex(2)
    assert front_back_faces(d2, "012", 0) == (((), "0"), ((), "012"))
    assert front_back_faces(d2, "012", 1) == (((), "01"), ((), "12"))
    assert front_back_faces(d2, "012", 2) == (((), "012"), ((), "2"))
    d1 = standard_simplex(1)
    assert front_back_faces(d1, "01", 1) == (((), "01"), ((), "1"))
    with pytest.raises(ValueError):
        front_back_faces(d2, "012", 3)


def test_degeneracy_normal_form():
    s = fixture("sphere")
    cell = s.degeneracy(0, ((), "v"))
    assert cell == ((0,), "v")
    cell2 = s.degeneracy(1, cell)  # s_1 s_0 already decreasing
    assert cell2 == ((1, 0), "v")
    cell3 = s.degeneracy(0, cell)  # s_0 s_0 -> s_1 s_0
    assert cell3 == ((1, 0), "v")
    # faces cancel degeneracies: d_0 s_0 = id
    assert s.face(0, cell) == ((), "v")
    assert s.face(1, cell) == ((), "v")


def test_degenerate_face_flagging():
    rp = fixture("rp2")
    cells = [rp.face(i, ((), "f")) for i in range(3)]
    assert [render_cell(c) for c in cells] == ["e", "s_0(v)", "e"]
    assert cells[1][0] == (0,)


def test_standard_simplex_names_are_unambiguous():
    # "12" is a vertex of Delta^12 and "1_2" an edge; up to Delta^9 the
    # digits are run together
    assert standard_simplex(3).names(1) == ["01", "02", "03", "12", "13", "23"]
    x = standard_simplex(12)
    names = [n for d in x.simplices for n in x.names(d)]
    assert len(names) == len(set(names)) == 2 ** 13 - 1
    assert x.names(0)[12] == "12" and "1_2" in x.names(1)
    assert x.faces["0_1_12"][0].target == "1_12"
