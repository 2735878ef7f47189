"""Complexes, tensor powers and the Koszul bookkeeping of operators."""
import random
from functools import lru_cache
from itertools import product

import operator_oracle as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from models import fixture, grid_torus, tensor_complex

from einfty.chains import (ChainComplex, GradedOperator, bracket_d,
                           boundary_operator, combination, compose_slot,
                           identity_operator, sigma_twist, tensor_compose,
                           transpose_swap, unit_complex, zero_operator)
from einfty.coalgebra import chain_structure, cup_table, reduce_structure
from einfty.homology import homology
from einfty.intlinalg import IntMatrix
from einfty.simplicial import normalized_chains, standard_simplex

MODELS = {"torus": lambda: fixture("torus"), "delta3": lambda: standard_simplex(3),
          "wedge3": lambda: fixture("wedge3")}


@lru_cache(maxsize=None)
def _chains(name):
    return normalized_chains(MODELS[name]())


@lru_cache(maxsize=None)
def _naive_words(name, n, total):
    """All words of (C^{(x) n})_total, listed and sorted."""
    c = _chains(name)
    factors = [(d, i) for d in c.degrees() for i in range(c.rank(d))]
    return sorted(w for w in product(factors, repeat=n) if sum(d for d, _ in w) == total)


def _naive_tensor_boundary(name, n, total):
    """The tensor differential by scanning the boundary matrices."""
    rows = {w: r for r, w in enumerate(_naive_words(name, n, total - 1))}
    src = _naive_words(name, n, total)
    c = _chains(name)
    out = IntMatrix(len(rows), len(src))
    for col, word in enumerate(src):
        sign = 1
        for slot, (d, i) in enumerate(word):
            for (r, cc), v in c.boundary_matrix(d).data.items():
                if cc == i:
                    row = rows[word[:slot] + ((d - 1, r),) + word[slot + 1:]]
                    out[row, col] = out[row, col] + sign * v
            if d & 1:
                sign = -sign
    return out


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(MODELS)), st.integers(0, 3), st.data())
def test_word_rank_matches_enumeration(name, n, data):
    c = _chains(name)
    total = data.draw(st.integers(0, n * c.degrees()[-1]))
    words = _naive_words(name, n, total)
    assert c.tensor_rank(n, total) == len(words)
    if words:
        row = data.draw(st.integers(0, len(words) - 1))
        assert c.row_word(n, total, row) == words[row]
        assert c.word_row(n, total, words[row]) == row


@pytest.mark.parametrize("n,total,word", [
    (2, 1, ((0, 0),)),                    # too few factors
    (1, 1, ((0, 0), (1, 0))),             # too many factors
    (2, 2, ((0, 0), (1, 0))),             # total degree 1, not 2
    (2, 1, ((0, 0), (1, 6))),             # index out of range
    (2, 1, ((0, 0), (1, -1))),            # negative index
    (2, 3, ((0, 0), (3, 0))),             # no cell in degree 3
])
def test_malformed_words_are_rejected(n, total, word):
    c = _chains("torus")
    with pytest.raises(ValueError):
        c.word_row(n, total, word)


def test_rows_out_of_range_are_rejected():
    c = _chains("torus")
    for row in (-1, c.tensor_rank(2, 1)):
        with pytest.raises(ValueError):
            c.row_word(2, 1, row)


@pytest.mark.parametrize("name", ["delta3", "torus"])
def test_tensor_boundary_matches_scan(name):
    c = _chains(name)
    for n in (2, 3):
        tc = tensor_complex(c, n)
        for total in range(1, 3 * n + 1):
            assert tc.boundary_matrix(total) == _naive_tensor_boundary(name, n, total)


@pytest.mark.parametrize("name", ["delta3", "torus"])
def test_bracket_matches_matrix_formula(name):
    c = _chains(name)
    rng = random.Random(5)
    for arity, degree in ((1, 1), (2, 0), (2, 1), (3, 1)):
        f = _random_operator(rng, c, c, arity, degree)
        got = bracket_d(f)
        sign = -1 if degree & 1 else 1
        for d in c.degrees():
            t = d + degree
            want = _naive_tensor_boundary(name, arity, t) @ f.block(d) \
                - (f.block(d - 1) @ c.boundary_matrix(d)).scale(sign)
            assert got.block(d) == want


def test_grid_torus_structure_verifies():
    s = chain_structure(grid_torus(4), 3)  # check=True verifies every relation
    assert not s.verify()
    rep = homology(s.complex)
    assert [rep.rank(d) for d in (0, 1, 2)] == [1, 2, 1]
    assert not any(rep.torsion_in(d) for d in (0, 1, 2))


def test_tensor_complex_examples():
    c = normalized_chains(fixture("circle"))
    sq = tensor_complex(c, 2)
    assert [sq.rank(d) for d in (0, 1, 2)] == [1, 2, 1]
    assert not sq.boundary  # circle differential is zero
    p3 = tensor_complex(normalized_chains(fixture("point")), 3)
    assert p3.rank(0) == 1 and p3.degrees() == [0]
    assert tensor_complex(c, 1) is c


def test_tensor_complex_squares_boundary():
    c = normalized_chains(fixture("torus"))
    for n in (2, 3):
        tc = tensor_complex(c, n)
        tc.validate()  # includes d o d = 0


def test_dd_zero_is_enforced():
    bad = {1: IntMatrix.from_rows([[1]]), 2: IntMatrix.from_rows([[1]])}
    with pytest.raises(ValueError):
        ChainComplex({0: ("x",), 1: ("y",), 2: ("z",)}, bad)


def _random_operator(rng, src, dst, arity, degree):
    blocks = {}
    for d in src.degrees():
        rows = dst.tensor_rank(arity, d + degree)
        cols = src.rank(d)
        if rows == 0 or cols == 0:
            continue
        m = IntMatrix(rows, cols)
        for i in range(rows):
            for j in range(cols):
                m[i, j] = rng.randint(-2, 2)
        if not m.is_zero():
            blocks[d] = m
    return GradedOperator(src, dst, arity, degree, blocks)


def test_compose_identity_is_neutral():
    c = normalized_chains(fixture("torus"))
    rng = random.Random(0)
    b = _random_operator(rng, c, c, 2, 1)
    ident = identity_operator(c)
    assert compose_slot(ident, b, 1) == b
    assert compose_slot(ident, b, 2) == b
    assert compose_slot(b, ident, 1) == b


def test_koszul_sign_past_odd_factor():
    # a degree-1 slot operator substituted in slot 2 passes the first factor
    c = normalized_chains(fixture("circle"))
    rng = random.Random(1)
    a = _random_operator(rng, c, c, 1, 1)
    b = _random_operator(rng, c, c, 2, 0)
    ident = identity_operator(c)
    composed = tensor_compose([ident, a], b)
    # manual expansion of one matrix entry: source = the 1-simplex
    src_words = [((0, 0), (1, 0)), ((1, 0), (0, 0))]  # (v, a) and (a, v)
    manual = IntMatrix(c.tensor_rank(2, 2), 1)
    bmat = b.block(1)
    for r, word in enumerate(src_words):
        coeff = bmat[r, 0]
        if not coeff:
            continue
        (d1, i1), (d2, i2) = word
        for s, img in a.image_of(d2, i2):
            sign = -1 if (d1 % 2) else 1  # deg a = 1 moves past factor 1
            row = c.word_row(2, 2, ((d1, i1),) + img)
            manual[row, 0] = manual[row, 0] + sign * s * coeff
    assert composed.block(1).column(0) == manual.column(0)


def test_interchange_sign_for_two_substitutions():
    # descending substitution has no sign; ascending picks up (-1)^{|a1||a2|}
    c = normalized_chains(fixture("torus"))
    rng = random.Random(2)
    for _ in range(10):
        deg1, deg2 = rng.choice([(1, 1), (1, 2), (2, 1), (0, 1)])
        a1 = _random_operator(rng, c, c, 1, deg1)
        a2 = _random_operator(rng, c, c, 1, deg2)
        b = _random_operator(rng, c, c, 2, 0)
        joint = tensor_compose([a1, a2], b)
        desc = compose_slot(a1, compose_slot(a2, b, 2), 1)
        asc = compose_slot(a2, compose_slot(a1, b, 1), 2)
        assert joint == desc
        sign = -1 if (deg1 % 2) and (deg2 % 2) else 1
        assert asc == (joint if sign == 1 else joint.scale(-1))


def test_three_slot_signs_match_row_reference():
    # a later slot pays the degrees of the inputs before it; dense operators,
    # so that every pattern of odd inputs and odd slot operators occurs
    c = normalized_chains(fixture("torus"))
    rng = random.Random(5)
    for degrees in product((0, 1), repeat=3):
        b = _random_operator(rng, c, c, 3, 0)
        ops = [_random_operator(rng, c, c, 1, e) for e in degrees]
        refs = [oracle.GradedOperator(c, c, 1, op.degree, op.blocks) for op in ops]
        _same(tensor_compose(ops, b),
              oracle.tensor_compose(refs, oracle.GradedOperator(c, c, 3, 0, b.blocks)))


def test_nested_composition_associativity():
    c = normalized_chains(fixture("torus"))
    rng = random.Random(3)
    for _ in range(8):
        a = _random_operator(rng, c, c, 1, rng.choice([0, 1]))
        b = _random_operator(rng, c, c, 1, rng.choice([0, 1]))
        cc = _random_operator(rng, c, c, 2, rng.choice([0, 1]))
        lhs = compose_slot(a, compose_slot(b, cc, 1), 1)
        rhs = compose_slot(tensor_compose([a], b), cc, 1)
        assert lhs == rhs


def test_sigma_twist_is_action_and_involution():
    c = normalized_chains(fixture("torus"))
    rng = random.Random(4)
    f = _random_operator(rng, c, c, 2, 1)
    assert sigma_twist((0, 1), f) == f
    assert transpose_swap(transpose_swap(f)) == f
    g = _random_operator(rng, c, c, 3, 0)
    s1 = (1, 0, 2)
    s2 = (0, 2, 1)
    comp = tuple(s1[s2[i]] for i in range(3))
    assert sigma_twist(s1, sigma_twist(s2, g)) == sigma_twist(comp, g)


def test_bracket_of_chain_map_vanishes():
    c = normalized_chains(fixture("torus"))
    assert bracket_d(identity_operator(c)).is_zero()
    d = boundary_operator(c)
    assert bracket_d(d).is_zero()  # [d, d] = 2 d^2 = 0 in odd degree


def test_counit_style_arity_zero_slot():
    c = normalized_chains(fixture("circle"))
    u = unit_complex()
    p = GradedOperator(c, u, 0, 0, {0: IntMatrix.from_rows([[1]])})
    delta_blocks = {}
    # fake diagonal on the circle for shape purposes: v -> v (x) v
    m = IntMatrix(c.tensor_rank(2, 0), 1)
    m[c.word_row(2, 0, ((0, 0), (0, 0))), 0] = 1
    delta_blocks[0] = m
    delta = GradedOperator(c, c, 2, 0, delta_blocks)
    ident = identity_operator(c)
    left = tensor_compose([p, ident], delta)
    assert left.arity == 1 and left.block(0)[0, 0] == 1
    # with no slot to fill, the composition is p itself, on p's target
    assert tensor_compose([], p) == p
    assert tensor_compose([], p) + p == p.scale(2)
    with pytest.raises(ValueError, match="slot 1 out of range for arity 0"):
        compose_slot(zero_operator(u, u, 0, 0), p, 1)


# -- the word-keyed algebra against the row-keyed reference --------------------

@st.composite
def _operator_pair(draw, name, arity, degree):
    """A sparse operator on one model, as a word-keyed operator and as the
    row-keyed reference built from the same blocks."""
    c = _chains(name)
    blocks = {}
    for d in c.degrees():
        rows, cols = c.tensor_rank(arity, d + degree), c.rank(d)
        if rows:
            entries = draw(st.dictionaries(
                st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
                st.integers(-3, 3), max_size=5))
            blocks[d] = IntMatrix(rows, cols, entries)
    return (GradedOperator(c, c, arity, degree, blocks),
            oracle.GradedOperator(c, c, arity, degree, blocks))


def _same(op, ref):
    """Entry-for-entry equal blocks, and the blocks give back the operator."""
    assert op.blocks == ref.blocks
    assert GradedOperator(op.source, op.target, op.arity, op.degree, op.blocks) == op


_model = st.sampled_from(sorted(MODELS))
_arity = st.integers(0, 3)
_degree = st.integers(-1, 2)


@settings(max_examples=60, deadline=None)
@given(_model, _arity, _degree, st.data())
def test_bracket_and_twist_match_row_reference(name, arity, degree, data):
    f, ref = data.draw(_operator_pair(name, arity, degree))
    _same(f, ref)
    _same(bracket_d(f), oracle.bracket_d(ref))
    perm = data.draw(st.permutations(range(arity)))
    _same(sigma_twist(perm, f), oracle.sigma_twist(perm, ref))


@settings(max_examples=60, deadline=None)
@given(_model, _arity, _degree, _degree, st.data())
def test_plain_compose_matches_row_reference(name, arity, deg_a, deg_b, data):
    # a o b is the one-slot case of the kernel
    a, ref_a = data.draw(_operator_pair(name, arity, deg_a))
    b, ref_b = data.draw(_operator_pair(name, 1, deg_b))
    _same(tensor_compose([a], b), oracle.plain_compose(ref_a, ref_b))


@settings(max_examples=60, deadline=None)
@given(_model, _arity, _degree, st.data())
def test_tensor_compose_matches_row_reference(name, arity, degree, data):
    b, ref_b = data.draw(_operator_pair(name, arity, degree))
    pairs = [data.draw(_operator_pair(name, data.draw(_arity), data.draw(_degree)))
             for _ in range(arity)]
    got = tensor_compose([op for op, _ in pairs], b)
    _same(got, oracle.tensor_compose([ref for _, ref in pairs], ref_b))


@settings(max_examples=60, deadline=None)
@given(_model, _arity, _degree, st.data())
def test_combination_matches_row_reference(name, arity, degree, data):
    terms = [(data.draw(st.integers(-3, 3)),
              data.draw(st.none() | st.permutations(range(arity))),
              data.draw(_operator_pair(name, arity, degree)))
             for _ in range(data.draw(st.integers(1, 3)))]
    got = combination([(coeff, perm, op) for coeff, perm, (op, _) in terms])
    _same(got, oracle.combination([(coeff, perm, ref) for coeff, perm, (_, ref) in terms]))


def test_combination_rejects_mixed_shapes():
    c = _chains("torus")
    f = zero_operator(c, c, 2, 1)
    with pytest.raises(ValueError, match=r"operator shape mismatch in \+"):
        combination([(1, None, f), (1, None, zero_operator(c, c, 2, 0))])
    with pytest.raises(ValueError, match="permutation length must match arity"):
        combination([(1, (0, 1, 2), f)])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.booleans(), min_size=3, max_size=3), st.integers(0, 2),
       st.integers(0, 2 ** 16))
def test_identity_slots_pass_factors_through(identity_at, deg_b, seed):
    # an identity slot (None) copies its factor, whose degree still signs the
    # odd slot operators after it: dense operators, so that every such
    # pattern occurs, against the same slots as explicit identity operators
    c = _chains("torus")
    rng = random.Random(seed)
    b = _random_operator(rng, c, c, 3, deg_b)
    ops = [None if ident else _random_operator(rng, c, c, rng.randint(1, 2), 1)
           for ident in identity_at]
    explicit = [identity_operator(c) if op is None else op for op in ops]
    assert tensor_compose(ops, b) == tensor_compose(explicit, b)


def test_structure_and_reduction_rank_no_words(monkeypatch):
    # Building, verifying and reducing a structure, cup tables included,
    # reads and writes words only.
    cup_table.cache_clear()
    calls = []
    for method in ("word_row", "row_word"):
        real = getattr(ChainComplex, method)

        def counted(self, *args, real=real, method=method):
            calls.append(method)
            return real(self, *args)
        monkeypatch.setattr(ChainComplex, method, counted)
    chain_structure(grid_torus(3), 3)
    reduce_structure(chain_structure(fixture("torus"), 3))
    assert calls == []
