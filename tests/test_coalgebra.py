"""Chain-level structure: counit, diagonal, cup tower, reduction."""
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import operator_oracle as oracle
import pytest
from models import FIXTURES, fixture, front_back_faces, index_of

from einfty.chains import (bracket_d, compose_slot, identity_operator,
                           tensor_compose, transpose_swap)
from einfty.cli import main
from einfty.coalgebra import (CoalgebraStructure, aw_diagonal, chain_structure,
                              counit, cup_k_coproduct, cup_table, evaluate,
                              operator_dump, reduce_structure)
from einfty.errors import MultipleVertices, RelationViolation
from einfty.homology import build_sdr
from einfty.operads import generator, generator_differential, identity_labels
from einfty.simplicial import FaceRef, SimplicialSet, normalized_chains, standard_simplex
from einfty.transfer import transfer


def test_counit_values():
    x = SimplicialSet({0: ["v", "w"], 1: ["e"]},
                      {"e": (FaceRef((), "v"), FaceRef((), "w"))})
    c = normalized_chains(x)
    p = counit(x, c)
    assert p.block(0).to_rows() == [[1, 1]]
    assert p.block(1).is_zero()
    # componentwise on the chain 3v - 2w
    assert p.block(0).apply([3, -2]) == [1]


def test_aw_values_on_standard_simplices():
    d2 = standard_simplex(2)
    c = normalized_chains(d2)
    aw = aw_diagonal(d2, c)
    idx01 = index_of(d2, "01")
    img = aw.image_of(1, idx01)
    labels = [tuple(c.labels(e)[i] for e, i in word) for _, word in img]
    assert labels == [("0", "01"), ("01", "1")]
    img2 = aw.image_of(2, index_of(d2, "012"))
    labels2 = [tuple(c.labels(e)[i] for e, i in word) for _, word in img2]
    assert labels2 == [("0", "012"), ("01", "12"), ("012", "2")]
    assert all(coeff == 1 for coeff, _ in img + img2)


def test_aw_matches_front_back_faces():
    x = fixture("torus")
    c = normalized_chains(x)
    aw = aw_diagonal(x, c)
    for d in c.degrees():
        for idx, name in enumerate(x.names(d)):
            expected = {}
            for i in range(d + 1):
                front, back = front_back_faces(x, name, i)
                if front[0] or back[0]:
                    continue  # degenerate halves vanish in normalized chains
                key = ((x.dim_of[front[1]], index_of(x, front[1])),
                       (x.dim_of[back[1]], index_of(x, back[1])))
                expected[key] = expected.get(key, 0) + 1
            got = {word: coeff for coeff, word in aw.image_of(d, idx)}
            assert got == expected, name


def test_cup_one_on_interval():
    assert cup_table(1, 0) == ()
    table = cup_table(1, 1)
    assert table == ((-1, (0, 1), (0, 1)),)
    x = fixture("circle")
    op = cup_k_coproduct(x, 1)
    img = op.image_of(1, 0)
    assert img == [(-1, ((1, 0), (1, 0)))]


def test_cup_k_vanishes_below_dimension_k():
    s = chain_structure(fixture("torus"), 3)
    c = s.complex
    for k in (1, 2, 3):
        op = s.op(f"m2_{k}")
        for d in c.degrees():
            if d < k:
                assert d not in op.blocks


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_ladder_identities_exact(name):
    s = chain_structure(FIXTURES[name], 3)
    for k in range(0, 3):
        lhs = bracket_d(s.op(f"m2_{k + 1}"))
        tw = transpose_swap(s.op(f"m2_{k}")).scale(-1 if k % 2 else 1)
        assert lhs == s.op(f"m2_{k}") - tw, f"{name} ladder k={k}"


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_chain_map_coassoc_counit(name):
    x = FIXTURES[name]
    s = chain_structure(x, 3)
    d0 = s.op("m2_0")
    assert bracket_d(d0).is_zero()
    assert compose_slot(d0, d0, 1) == compose_slot(d0, d0, 2)
    ident = identity_operator(s.complex)
    assert tensor_compose([s.op("p"), ident], d0) == ident
    assert tensor_compose([ident, s.op("p")], d0) == ident


def test_structure_verifier_catches_defects():
    s = chain_structure(fixture("torus"), 2)
    broken = dict(s.ops)
    bad = s.op("m2_1")
    block = bad.block(1).copy()
    block[0, 0] = block[0, 0] + 1
    broken["m2_1"] = type(bad)(bad.source, bad.target, 2, 1,
                               {**bad.blocks, 1: block})
    with pytest.raises(RelationViolation):
        CoalgebraStructure(s.complex, broken, max_k=2)


def test_structure_verifier_names_the_failing_element():
    # the same defect: the first failing relation is named at its source
    # degree and cell, with the required and the actual [d, m2_1] image
    s = chain_structure(fixture("torus"), 2)
    broken = dict(s.ops)
    bad = s.op("m2_1")
    block = bad.block(1).copy()
    block[0, 0] = block[0, 0] + 1
    broken["m2_1"] = type(bad)(bad.source, bad.target, 2, 1, {**bad.blocks, 1: block})
    first = CoalgebraStructure(s.complex, broken, max_k=2, check=False).verify()[0]
    assert first["relation"] == "[d, m2_1]"
    assert (first["degree"], first["element"]) == (1, "a")
    assert first["expected"] == []
    assert first["actual"] == [[1, "v(x)a"], [1, "v(x)b"], [-1, "v(x)c"]]
    assert first["detail"] == "degree 1, a: expected 0, got +1 v(x)a +1 v(x)b -1 v(x)c"
    with pytest.raises(RelationViolation) as err:
        CoalgebraStructure(s.complex, broken, max_k=2)
    payload = err.value.payload()
    assert payload["relation"] == "[d, m2_1]"
    assert (payload["degree"], payload["element"]) == (1, "a")
    assert payload["actual"] == first["actual"]


def test_counit_identities_are_located():
    # a doubled counit keeps [d, p] = 0 but breaks both counit identities at v
    s = chain_structure(fixture("torus"), 2)
    broken = {**s.ops, "p": s.op("p").scale(2)}
    bad = CoalgebraStructure(s.complex, broken, max_k=2, check=False).verify()
    assert bad == [{"relation": f"{side} m2_0 = id",
                    "detail": "degree 0, v: expected +1 v, got +2 v",
                    "degree": 0, "element": "v",
                    "expected": [[1, "v"]], "actual": [[2, "v"]]}
                   for side in ("(p (x) id)", "(id (x) p)")]
    with pytest.raises(RelationViolation) as err:
        CoalgebraStructure(s.complex, broken, max_k=2)
    payload = err.value.payload()
    assert payload["relation"] == "(p (x) id) m2_0 = id"
    assert (payload["degree"], payload["element"], payload["actual"]) == (0, "v", [[2, "v"]])


def test_point_structure():
    s = chain_structure(fixture("point"), 3)
    dump = operator_dump(s)
    assert dump["m2_0"] == {"v": "v(x)v"}
    for k in (1, 2, 3):
        assert s.op(f"m2_{k}").is_zero()


def test_reduce_examples():
    s = chain_structure(fixture("circle"), 2)
    red = reduce_structure(s)
    assert red.op("m2_0").is_zero()  # both halves hit the vertex
    w = chain_structure(fixture("wedge2"), 2)
    assert reduce_structure(w).op("m2_0").is_zero()
    t = chain_structure(fixture("torus"), 2)
    rt = reduce_structure(t)
    dump = operator_dump(rt)
    assert dump["m2_0"] == {"U": "a(x)b", "L": "b(x)a"}
    # reduced ladder holds (verified at construction, assert again)
    assert rt.verify() == []


def test_reduce_needs_single_vertex():
    x = SimplicialSet({0: ["v", "w"], 1: ["e"]},
                      {"e": (FaceRef((), "v"), FaceRef((), "w"))})
    with pytest.raises(MultipleVertices):
        reduce_structure(chain_structure(x, 1))


def test_evaluate_bracket_matches_table():
    s = chain_structure(fixture("torus"), 3)
    c = s.complex
    for name in ("m2_1", "m2_2", "m3_1"):
        g = generator(name)
        want = evaluate(generator_differential(name), source=c, target=c,
                        arity=g.arity, degree=g.degree - 1, chain_ops=s.ops)
        assert bracket_d(s.op(name)) == want


def _realized_termwise(elem, **realize):
    """``elem`` realized one monomial at a time, each with identity labels
    through ``evaluate``, then twisted, scaled and summed by the row-keyed
    reference."""
    terms = []
    for (tree, labels), coeff in elem.items():
        op = evaluate({(tree, identity_labels(len(labels))): 1}, **realize)
        ref = oracle.GradedOperator(op.source, op.target, op.arity, op.degree, op.blocks)
        terms.append((coeff, [l - 1 for l in labels], ref))
    return oracle.combination(terms).blocks


def test_evaluate_realizes_long_differentials():
    # d(m3_2): 8 monomials under 5 permutations, which verify never realizes;
    # d(f3_2) crosses the bimodule vertex into the homology operators
    d_m32 = generator_differential("m3_2")
    assert len(d_m32) == 8 and len({labels for _, labels in d_m32}) == 5
    for x, words in ((standard_simplex(3), 192), (fixture("torus"), None)):
        s = chain_structure(x, 3)
        realize = dict(source=s.complex, target=s.complex, arity=3, degree=1,
                       chain_ops=s.ops)
        got = evaluate(d_m32, **realize)
        assert got.blocks == _realized_termwise(d_m32, **realize)
        if words:
            assert sum(len(col) for block in got.cols.values() for col in block.values()) \
                == words
    s = chain_structure(fixture("torus"), 3)
    pkg = transfer(s, build_sdr(s.complex))
    realize = dict(source=s.complex, target=pkg.homology, arity=3, degree=1,
                   chain_ops=s.ops, module_ops=pkg.morphism_ops, homology_ops=pkg.hat_ops)
    d_f32 = generator_differential("f3_2")
    got = evaluate(d_f32, **realize)
    assert not got.is_zero()
    assert got.blocks == _realized_termwise(d_f32, **realize)


def test_sphere_and_rp2_degenerate_faces_handled():
    # cup operators drop terms whose faces are degenerate; structure still
    # satisfies every relation (checked at construction)
    s = chain_structure(fixture("sphere"), 3)
    aw = s.op("m2_0")
    img = aw.image_of(2, 0)
    assert [(c, w) for c, w in img] == [(1, ((0, 0), (2, 0))), (1, ((2, 0), (0, 0)))]
    chain_structure(fixture("rp2"), 3)


def test_coalgebra_on_a_ten_sphere(tmp_path):
    # the cup tables reach the standard 10-simplex, whose labels have
    # two-digit vertices
    degenerate = "s_8s_7s_6s_5s_4s_3s_2s_1s_0(v)"
    path = tmp_path / "s10.sset"
    path.write_text(f"dim 0\nv: []\ndim 10\nT: [{', '.join([degenerate] * 11)}]\n")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["coalgebra", str(path), "--max-cup", "3"])
    assert code == 0, err.getvalue()
    report = json.loads(out.getvalue())
    assert report["results"]["operators"]["m2_0"]["T"] == "v(x)T + T(x)v"
