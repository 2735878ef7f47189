"""Cobar construction: graded ranks against group-algebra oracles."""
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import cobar_oracle as oracle
import pytest
from models import relabel

from einfty import cli, cobar
from einfty.cobar import (ColumnBlock, TruncatedCobar, build_cobar, check_d_squared_cobar,
                          gr_h0_ranks)
from einfty.coalgebra import CoalgebraStructure, chain_structure, reduce_structure
from einfty.errors import MultipleVertices
from einfty.formats import SSET_FIXTURES, fixture_path
from einfty.simplicial import (FaceRef, SimplicialSet, circle, parse_sset, point,
                               projective_plane, sphere, torus, wedge_of_circles)


def _cobar(x, n, max_k=2):
    red = reduce_structure(chain_structure(x, max_k))
    return build_cobar(red, n)


def _ranks(t):
    return [entry["rank"] for entry in gr_h0_ranks(t)]


def _torsion(t):
    return [entry["torsion"] for entry in gr_h0_ranks(t)]


def test_point_is_ground_ring():
    t = _cobar(point(), 3)
    assert _ranks(t) == [1, 0, 0]


def test_sphere_has_no_letters_in_degree_zero():
    t = _cobar(sphere(), 3)
    assert _ranks(t) == [1, 0, 0]


def test_free_group_oracles():
    # gr of the group ring of a free group on g letters is the free
    # associative algebra: rank g^l in word length l
    for g, model in ((2, wedge_of_circles(2)), (3, wedge_of_circles(3))):
        t = _cobar(model, 4)
        assert _ranks(t) == [g ** l for l in range(4)]
        assert _torsion(t) == [[]] * 4


def test_infinite_cyclic_oracle():
    t = _cobar(circle(), 4)
    assert _ranks(t) == [1, 1, 1, 1]


def test_torus_oracle_commuting_letters():
    # gr of Z[Z^2]: polynomial ring on two commuting letters, rank l + 1
    t = _cobar(torus(), 4)
    assert _ranks(t) == [1, 2, 3, 4]
    assert _torsion(t) == [[]] * 4


def _genus2_surface() -> SimplicialSet:
    """Single vertex, 9 edges, 6 triangles: the fan triangulation of the
    octagon a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1 from its corner P_0.

    Triangle k has corners P_0, P_k, P_{k+1} and the diagonal D_j runs from
    P_0 to P_j, so D_1 = a1 and D_7 = b2.  A side read backwards puts
    P_{k+1} before P_k in the triangle's vertex order.
    """
    sides = [("a1", 1), ("b1", 1), ("a1", -1), ("b1", -1),
             ("a2", 1), ("b2", 1), ("a2", -1), ("b2", -1)]

    def diagonal(j):
        return {1: "a1", 7: "b2"}.get(j, f"D{j}")

    v = FaceRef((), "v")
    edges = ["a1", "b1", "a2", "b2"] + [f"D{j}" for j in range(2, 7)]
    faces = {e: (v, v) for e in edges}
    triangles = []
    for k in range(1, 7):
        letter, direction = sides[k]
        ends = (diagonal(k + 1), diagonal(k)) if direction > 0 else (diagonal(k), diagonal(k + 1))
        triangles.append(f"T{k}")
        faces[f"T{k}"] = tuple(FaceRef((), f) for f in (letter,) + ends)
    return SimplicialSet({0: ["v"], 1: edges, 2: triangles}, faces)


def test_genus2_surface_oracle():
    # gr of the group ring of a genus-g surface group has the Hilbert
    # series 1 / (1 - 2g t + t^2): ranks 1, 4, 15, 56 for g = 2
    t = _cobar(_genus2_surface(), 4)
    assert _ranks(t) == [1, 4, 15, 56]
    assert _torsion(t) == [[]] * 4


def test_ranks_factor_only_the_completable_levels_they_read(monkeypatch):
    # length l reads the completable generators of length l - 1, so at
    # max_len 4 only lengths 1 and 2 need a kernel basis
    calls = []
    real = cobar.kernel_basis

    def counting(m):
        calls.append(m.shape)
        return real(m)

    monkeypatch.setattr(cobar, "kernel_basis", counting)
    assert _ranks(_cobar(torus(), 4)) == [1, 2, 3, 4]
    assert len(calls) == 2


def test_rp2_torsion_honesty():
    # dimension completion of Z/2: each graded piece is 2-torsion
    t = _cobar(projective_plane(), 4)
    assert _ranks(t) == [1, 0, 0, 0]
    assert _torsion(t) == [[], [2], [2], [2]]


@pytest.mark.parametrize("model", [circle, torus, sphere, projective_plane,
                                   lambda: wedge_of_circles(2)])
def test_d_squared_zero_on_safe_range(model):
    t = _cobar(model(), 4)
    assert all(r["ok"] for r in check_d_squared_cobar(t))


def test_word_length_filtration():
    t = _cobar(torus(), 4)
    # length-preserving and length-raising blocks only
    for (deg, length) in t.d_keep:
        assert t.d_keep[(deg, length)].nrows == t.word_count(deg - 1, length)
    for (deg, length) in t.d_up:
        assert t.d_up[(deg, length)].nrows == t.word_count(deg - 1, length + 1)


def test_flipped_shift_sign_breaks_d_squared():
    # a globally consistent sign flip is still a differential; an
    # inconsistent one (a single length-raising block negated, as happens
    # with a wrong desuspension convention in the derivation signs) is not
    t = _cobar(torus(), 4)
    flipped_up = dict(t.d_up)
    block = flipped_up[(2, 2)]
    flipped_up[(2, 2)] = ColumnBlock(block.nrows, [{r: -v for r, v in col.items()}
                                                   for col in block.cols])
    flipped = TruncatedCobar(t.structure, t.max_len, t.words, t.d_keep,
                             flipped_up)
    report = check_d_squared_cobar(flipped)
    assert any(not r["ok"] for r in report)


def test_ranks_do_not_depend_on_higher_cup_operators():
    # replace the degree-1 coproduct by garbage of the right shape; the
    # cobar differential never consults it
    red = reduce_structure(chain_structure(torus(), 2))
    ops = dict(red.ops)
    junk = ops["m2_2"]
    ops["m2_1"] = junk  # wrong operator on purpose (degree differs: rebuild)
    hacked = CoalgebraStructure(red.complex,
                                {"m2_0": ops["m2_0"], "m3_1": ops["m3_1"]},
                                reduced=True, max_k=0, check=False)
    t0 = build_cobar(red, 4)
    t1 = build_cobar(hacked, 4)
    assert _ranks(t0) == _ranks(t1)


def test_requires_reduced_structure():
    s = chain_structure(torus(), 1)
    with pytest.raises(MultipleVertices):
        build_cobar(s, 3)
    with pytest.raises(ValueError):
        build_cobar(reduce_structure(s), 0)


def _verdicts(report):
    return [(r["source"], r["component"], r["ok"]) for r in report]


def _assert_matches_oracle(x, max_len):
    red = reduce_structure(chain_structure(x, 2))
    t, want = build_cobar(red, max_len), oracle.build_cobar(red, max_len)
    assert t.words == want.words
    assert ({key: [t.word(*key, i) for i in range(len(codes))]
             for key, codes in t.words.items()} == oracle.words(red, max_len))
    assert t.d_keep == want.d_keep
    assert t.d_up == want.d_up
    assert check_d_squared_cobar(t) == oracle.check_d_squared_cobar(want)


@pytest.mark.parametrize("name", SSET_FIXTURES + ("genus2",))
def test_cobar_matches_oracle(name):
    # the words from codes and the blocks built column by column against
    # the recursive words, entry-by-entry blocks and block products they
    # replaced
    if name == "genus2":
        x = _genus2_surface()
    else:
        x = parse_sset(fixture_path(name).read_text())
    _assert_matches_oracle(x, 4)


@pytest.mark.parametrize("name,max_len,seed", [("genus2", 3, 11), ("genus2", 4, 15), ("torus", 4, 12),
                                               ("wedge3", 4, 13), ("torus", 3, 14)])
def test_relabelled_cobar_matches_oracle(name, max_len, seed):
    # a relabelling reorders the alphabet, and with it every code and block
    x = _genus2_surface() if name == "genus2" else parse_sset(fixture_path(name).read_text())
    _assert_matches_oracle(relabel(x, seed), max_len)


def _negate_entry(t, table, pick=0):
    """Negate an entry of a degree-2 block of ``table`` ("keep" or "up") in a
    row whose degree-1 word has a nonzero length-preserving D: the
    ``pick``-th in column order in the shortest such block.

    Returns the tampered cobar and the label of the source word of that
    entry, or None when no degree-2 entry meets a nonzero degree-1 column.
    """
    blocks = t.d_keep if table == "keep" else t.d_up
    rise = 0 if table == "keep" else 1
    for length in range(t.max_len + 1):
        inner, outer = blocks.get((2, length)), t.d_keep.get((1, length + rise))
        if inner is None or outer is None:
            continue
        keys = [(c, r) for c, col in enumerate(inner.cols) for r in sorted(col)
                if outer.cols[r]]
        if keys:
            col, row = keys[pick]
            cols = list(inner.cols)
            cols[col] = {**cols[col], row: -cols[col][row]}
            blocks = {**blocks, (2, length): ColumnBlock(inner.nrows, cols)}
            d_keep, d_up = (blocks, t.d_up) if table == "keep" else (t.d_keep, blocks)
            tampered = TruncatedCobar(t.structure, t.max_len, t.words, d_keep, d_up)
            return tampered, cobar.word_label(t, 2, length, col)
    return None


def _assert_named(table, component, pick):
    tampered, word = _negate_entry(_cobar(torus(), 4), table, pick)
    report = check_d_squared_cobar(tampered)
    assert _verdicts(report) == _verdicts(oracle.check_d_squared_cobar(tampered))
    bad = [r for r in report if not r["ok"]]
    assert bad[0]["component"] == component
    assert bad[0]["word"] == word
    assert bad[0]["expansion"] and all(v for v, _ in bad[0]["expansion"])


@pytest.mark.parametrize("pick", [0, -1])
def test_negated_keep_entry_is_named(pick):
    _assert_named("keep", "keep.keep", pick)


@pytest.mark.parametrize("pick", [0, -1])
def test_negated_up_entry_is_named(pick):
    # a length-raising entry breaks the mixed component first
    _assert_named("up", "keep.up + up.keep", pick)


def _run_cli(monkeypatch, argv):
    # the commands import build_cobar from einfty.cobar when they run
    real = cobar.build_cobar

    def tampering(structure, max_len):
        t = real(structure, max_len)
        hit = _negate_entry(t, "keep")
        return t if hit is None else hit[0]

    monkeypatch.setattr(cobar, "build_cobar", tampering)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_failing_cobar_exits_with_relation_violation(monkeypatch):
    code, _, err = _run_cli(monkeypatch, ["cobar", "torus"])
    assert code == 1
    error = json.loads(err)["error"]
    assert error["error"] == "RelationViolation"
    assert error["relation"] == "cobar D o D = 0"
    # on the torus fixture the negated entry sits in the column of U(x)U,
    # its first degree-2 word
    assert (error["component"], error["length"]) == ("keep.keep", 2)
    assert error["word"] == "U(x)U"
    assert error["expansion"] == [[-2, "a(x)a"], [-2, "a(x)b"], [2, "a(x)c"]]
    assert "U(x)U -> -2 a(x)a -2 a(x)b +2 a(x)c" in error["message"]


def test_failing_cobar_in_selfcheck_has_detail(monkeypatch):
    code, out, _ = _run_cli(monkeypatch, ["selfcheck"])
    assert code == 1
    checks = {c["check"]: c for c in json.loads(out)["results"]["checks"]}
    entry = checks["torus: cobar D o D = 0"]
    assert not entry["ok"]
    assert entry["detail"].startswith("keep.keep on degree 2, length 2: ")


def test_degree_zero_block_is_named():
    # degree-0 words are cycles; a hand-made block on them must fail, and
    # the entry names the first word it moves
    t = _cobar(torus(), 3)
    cols = [{} for _ in range(t.word_count(0, 1))]
    cols[1], cols[2] = {0: 1}, {0: -2}
    bad = TruncatedCobar(t.structure, t.max_len, t.words, t.d_keep,
                         {**t.d_up, (0, 1): ColumnBlock(1, cols)})
    report = check_d_squared_cobar(bad)
    assert _verdicts(report) == _verdicts(oracle.check_d_squared_cobar(bad))
    entry = report[-1]
    assert (entry["source"], entry["ok"]) == ("degree 0, length 1", False)
    assert entry["word"] == cobar.word_label(t, 0, 1, 1)
    assert [v for v, _ in entry["expansion"]] == [1]
