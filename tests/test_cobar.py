"""Cobar construction: graded ranks against group-algebra oracles."""
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import cobar_oracle as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from models import FIXTURES, fan_surface, fixture, grid_torus, one_vertex_simplex, relabel

from einfty import cli, cobar
from einfty.chains import GradedOperator
from einfty.cobar import (ColumnBlock, TruncatedCobar, build_cobar, check_d_squared_cobar,
                          gr_h0_ranks)
from einfty.coalgebra import CoalgebraStructure, chain_structure, reduce_structure
from einfty.errors import MultipleVertices, NotReduced, located
from einfty.formats import SSET_FIXTURES


def _cobar(x, n, max_k=2):
    red = reduce_structure(chain_structure(x, max_k))
    return build_cobar(red, n)


def _ranks(t):
    return [entry["rank"] for entry in gr_h0_ranks(t)]


def _torsion(t):
    return [entry["torsion"] for entry in gr_h0_ranks(t)]


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([(fan_surface, 1), (fan_surface, 2), (one_vertex_simplex, 3)]),
       st.none() | st.integers(0, 2 ** 16))
def test_cobar_reads_no_cup_coproduct(model, seed):
    # the cobar differential reads m2_0 only, so the ranks built from m2_0
    # alone equal those built with the cup coproducts up to m2_3
    family, size = model
    x = family(size) if seed is None else relabel(family(size), seed)
    assert gr_h0_ranks(_cobar(x, 3, 0)) == gr_h0_ranks(_cobar(x, 3, 3))


def test_point_is_ground_ring():
    t = _cobar(fixture("point"), 3)
    assert _ranks(t) == [1, 0, 0]


def test_sphere_has_no_letters_in_degree_zero():
    t = _cobar(fixture("sphere"), 3)
    assert _ranks(t) == [1, 0, 0]


def test_free_group_oracles():
    # gr of the group ring of a free group on g letters is the free
    # associative algebra: rank g^l in word length l
    for g, model in ((2, fixture("wedge2")), (3, fixture("wedge3"))):
        t = _cobar(model, 4)
        assert _ranks(t) == [g ** l for l in range(4)]
        assert _torsion(t) == [[]] * 4


def test_infinite_cyclic_oracle():
    t = _cobar(fixture("circle"), 4)
    assert _ranks(t) == [1, 1, 1, 1]


def test_torus_oracle_commuting_letters():
    # gr of Z[Z^2]: polynomial ring on two commuting letters, rank l + 1
    t = _cobar(fixture("torus"), 4)
    assert _ranks(t) == [1, 2, 3, 4]
    assert _torsion(t) == [[]] * 4


def test_genus2_surface_oracle():
    # gr of the group ring of a genus-g surface group has the Hilbert
    # series 1 / (1 - 2g t + t^2): ranks 1, 4, 15, 56 for g = 2
    t = _cobar(fan_surface(2), 4)
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
    assert _ranks(_cobar(fixture("torus"), 4)) == [1, 2, 3, 4]
    assert len(calls) == 2


def test_rp2_torsion_honesty():
    # dimension completion of Z/2: each graded piece is 2-torsion
    t = _cobar(fixture("rp2"), 4)
    assert _ranks(t) == [1, 0, 0, 0]
    assert _torsion(t) == [[], [2], [2], [2]]


@pytest.mark.parametrize("name", ["circle", "torus", "sphere", "rp2", "wedge2"])
def test_d_squared_zero_on_safe_range(name):
    t = _cobar(FIXTURES[name], 4)
    assert check_d_squared_cobar(t) == []


def test_word_length_filtration():
    t = _cobar(fixture("torus"), 4)
    # length-preserving and length-raising blocks only
    for (deg, length) in t.d_keep:
        assert t.d_keep[(deg, length)].nrows == t.word_count(deg - 1, length)
    for (deg, length) in t.d_up:
        assert t.d_up[(deg, length)].nrows == t.word_count(deg - 1, length + 1)


def test_ranks_do_not_depend_on_higher_cup_operators():
    # replace the degree-1 coproduct by garbage of the right shape; the
    # cobar differential never consults it
    red = reduce_structure(chain_structure(fixture("torus"), 2))
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
    s = chain_structure(fixture("torus"), 1)
    with pytest.raises(MultipleVertices):
        build_cobar(chain_structure(grid_torus(3), 1), 3)
    with pytest.raises(ValueError):
        build_cobar(reduce_structure(s), 0)


def test_unreduced_single_vertex_names_the_reduction():
    # one vertex, but not reduced: the error names the missing step instead
    # of reporting "found 1 vertices"
    with pytest.raises(NotReduced, match="reduce_structure") as caught:
        build_cobar(chain_structure(fixture("torus"), 1), 3)
    assert "vertices" not in str(caught.value)
    assert caught.value.payload()["error"] == "NotReduced"


def _fails(report) -> bool:
    """Whether a report of the reference check holds a failing entry."""
    return any(not r["ok"] for r in report)


def _with_block(t, table, key, block):
    """``t`` with its ``table`` ("keep" or "up") block at ``key`` replaced."""
    blocks = {**(t.d_keep if table == "keep" else t.d_up), key: block}
    d_keep, d_up = (blocks, t.d_up) if table == "keep" else (t.d_keep, blocks)
    return TruncatedCobar(t.structure, t.max_len, t.words, d_keep, d_up)


def _negated(t, table, key, pick):
    """``t`` with the ``pick``-th entry, in column order, of a block negated,
    and that entry's (column, row)."""
    block = (t.d_keep if table == "keep" else t.d_up)[key]
    col, row = [(c, r) for c, entries in enumerate(block.cols) for r in sorted(entries)][pick]
    cols = list(block.cols)
    cols[col] = {**cols[col], row: -cols[col][row]}
    return _with_block(t, table, key, ColumnBlock(block.nrows, cols)), (col, row)


def test_flipped_shift_sign_breaks_d_squared():
    # negating one length-raising block, as a wrong desuspension sign in the
    # derivation rule would, leaves a store that is not D: the audit names
    # the block's first column, and the reference's full D o D fails on its
    # own store negated the same way
    red = reduce_structure(chain_structure(fixture("torus"), 2))
    t, ref = build_cobar(red, 4), oracle.build_cobar(red, 4)

    def flipped(c):
        block = c.d_up[(1, 2)]
        return _with_block(c, "up", (1, 2), ColumnBlock(
            block.nrows, [{r: -v for r, v in col.items()} for col in block.cols]))

    bad = check_d_squared_cobar(flipped(t))
    assert (bad[0]["relation"], bad[0]["degree"]) == ("cobar D o D = 0: Leibniz up", 1)
    assert bad[0]["element"] == cobar.word_label(t, 1, 2, 0)
    assert _fails(oracle.check_d_squared_cobar(flipped(ref)))


def _assert_audit_names(table, pick):
    # negate one entry of each stored block in turn: the audit names the
    # block, the column's word and the expected and actual columns
    red = reduce_structure(chain_structure(fixture("torus"), 2))
    t, ref = build_cobar(red, 4), oracle.build_cobar(red, 4)
    rise = 0 if table == "keep" else 1
    blocks = t.d_keep if table == "keep" else t.d_up
    assert sorted(blocks) == [(1, length) for length in range(1, 4 - rise)]
    for key, block in sorted(blocks.items()):
        length = key[1]
        tampered, (col, row) = _negated(t, table, key, pick)

        def terms(column):
            return [[v, cobar.word_label(t, 0, length + rise, r)]
                    for r, v in sorted(column.items())]

        bad = check_d_squared_cobar(tampered)
        clean = block.cols[col]
        assert bad[0] == located(f"cobar D o D = 0: Leibniz {table}", 1,
                                 cobar.word_label(t, 1, length, col),
                                 terms(clean), terms({**clean, row: -clean[row]}))
        # the reference's full D o D over every degree-2 word, on its own
        # store negated the same way, agrees from length 2 on; no degree-2
        # word has length 1 on a 2-dimensional input, so it cannot see a
        # length-1 block, although a negated D(U) or D(L) changes the ranks
        ref_tampered = _negated(ref, table, key, pick)[0]
        assert _fails(oracle.check_d_squared_cobar(ref_tampered)) == (length > 1)
        if key == (1, 1) and table == "keep":
            assert _ranks(tampered) != _ranks(t)


@pytest.mark.parametrize("pick", [0, -1])
def test_negated_keep_entry_is_named(pick):
    _assert_audit_names("keep", pick)


@pytest.mark.parametrize("pick", [0, -1])
def test_negated_up_entry_is_named(pick):
    _assert_audit_names("up", pick)


def test_degree_zero_block_is_named():
    # degree-0 words are cycles; a hand-made block on them must fail, and
    # the entry names the first word it moves
    red = reduce_structure(chain_structure(fixture("torus"), 2))
    t, ref = build_cobar(red, 3), oracle.build_cobar(red, 3)
    cols = [{} for _ in range(t.word_count(0, 1))]
    cols[1], cols[2] = {0: 1}, {0: -2}
    block = ColumnBlock(1, cols)
    (entry,) = check_d_squared_cobar(_with_block(t, "up", (0, 1), block))
    assert (entry["relation"], entry["degree"]) == ("cobar D o D = 0: Leibniz up", 0)
    assert entry["element"] == cobar.word_label(t, 0, 1, 1)
    assert entry["expected"] == [] and [v for v, _ in entry["actual"]] == [1]
    assert _fails(oracle.check_d_squared_cobar(_with_block(ref, "up", (0, 1), block)))


def test_negated_diagonal_entry_fails_the_letter_check():
    # Delta^3 with its vertices identified is a wedge of three circles, and
    # its 3-simplex is a letter of degree 2, whose D^2 the letter check sums
    red = reduce_structure(chain_structure(one_vertex_simplex(3), 2))
    clean = build_cobar(red, 3)
    assert _ranks(clean) == [1, 3, 9]
    assert check_d_squared_cobar(clean) == []
    assert not _fails(oracle.check_d_squared_cobar(oracle.build_cobar(red, 3)))
    m2 = red.op("m2_0")
    col = m2.cols[3][0]
    first = min(col)
    cols = {**m2.cols, 3: {0: {**col, first: -col[first]}}}
    ops = {**red.ops, "m2_0": GradedOperator._adopt(red.complex, red.complex, 2, 0, cols)}
    bad = CoalgebraStructure(red.complex, ops, reduced=True, max_k=red.max_k, check=False)
    # D on the stored degree-1 words does not read the 3-simplex, so only
    # the letter check fails
    assert check_d_squared_cobar(build_cobar(bad, 3)) == [
        located("cobar D o D = 0: letter keep.up + up.keep", 2, "0123", [],
                [[-2, "01(x)12"], [2, "01(x)13"], [-2, "01(x)23"]]),
        located("cobar D o D = 0: letter up.up", 2, "0123", [], [[-2, "01(x)12(x)23"]])]
    want = [r for r in oracle.check_d_squared_cobar(oracle.build_cobar(bad, 3)) if not r["ok"]]
    assert (want[0]["source"], want[0]["component"]) == ("degree 2, length 1", "keep.up + up.keep")


def _assert_matches_oracle(x, max_len):
    # the store holds the reference's words and blocks at every key the
    # ranks read, and the check's verdict is the full D o D's
    red = reduce_structure(chain_structure(x, 2))
    t, want = build_cobar(red, max_len), oracle.build_cobar(red, max_len)
    assert set(t.words) == {(d, length) for d, length in want.words
                            if d <= 1 and length < max_len}
    decoded = oracle.words(red, max_len)
    for key, codes in t.words.items():
        assert codes == want.words[key]
        assert [t.word(*key, i) for i in range(len(codes))] == decoded[key]
    assert set(t.d_keep) == {(d, length) for d, length in want.d_keep
                             if d == 1 and length < max_len}
    assert set(t.d_up) == {(d, length) for d, length in want.d_up
                           if d == 1 and length < max_len - 1}
    for table, ref in ((t.d_keep, want.d_keep), (t.d_up, want.d_up)):
        for key, block in table.items():
            assert block == ref[key]
    assert gr_h0_ranks(t) == gr_h0_ranks(want)
    assert bool(check_d_squared_cobar(t)) == _fails(oracle.check_d_squared_cobar(want))


def _model(name):
    if name == "genus2":
        return fan_surface(2)
    if name == "delta3":
        return one_vertex_simplex(3)
    return fixture(name)


@pytest.mark.parametrize("name", SSET_FIXTURES + ("genus2", "delta3"))
def test_cobar_matches_oracle(name):
    _assert_matches_oracle(_model(name), 4)


@pytest.mark.parametrize("name,max_len,seed", [("genus2", 3, 11), ("genus2", 4, 15), ("torus", 4, 12),
                                               ("wedge3", 4, 13), ("torus", 3, 14)])
def test_relabelled_cobar_matches_oracle(name, max_len, seed):
    # a relabelling reorders the alphabet, and with it every code and block
    _assert_matches_oracle(relabel(_model(name), seed), max_len)


def _run_cli(monkeypatch, argv):
    # the commands import build_cobar from einfty.cobar when they run
    real = cobar.build_cobar

    def tampering(structure, max_len):
        t = real(structure, max_len)
        return _negated(t, "keep", (1, 1), 0)[0] if (1, 1) in t.d_keep else t

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
    # on the torus fixture the negated entry is the coefficient of a in
    # D(U) = -a - b + c, the first column of the first stored block; the
    # payload has the fields of every located failure, in their order
    assert list(error.items())[2:] == [
        ("relation", "cobar D o D = 0: Leibniz keep"), ("degree", 1), ("element", "U"),
        ("expected", [[-1, "a"], [-1, "b"], [1, "c"]]),
        ("actual", [[1, "a"], [-1, "b"], [1, "c"]])]
    assert error["message"] == ("structure relation violated: cobar D o D = 0: Leibniz keep "
                                "(degree 1, U: expected -1 a -1 b +1 c, got +1 a -1 b +1 c)")


def test_failing_cobar_in_selfcheck_has_detail(monkeypatch):
    code, out, _ = _run_cli(monkeypatch, ["selfcheck"])
    assert code == 1
    checks = {c["check"]: c for c in json.loads(out)["results"]["checks"]}
    entry = checks["torus: cobar D o D = 0"]
    assert not entry["ok"]
    assert entry["detail"] == "degree 1, U: expected -1 a -1 b +1 c, got +1 a -1 b +1 c"
