"""Exact linear algebra: Smith form against an independent minor-gcd oracle,
against the dense elimination whose pivot sequence it keeps, and against the
row-walking sparse elimination whose every step it repeats."""
import ast
import doctest
import os
import random
import subprocess
import sys
from itertools import combinations
from math import gcd
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from einfty import intlinalg, invariants, operads
from einfty.cli import _class_report
from einfty.intlinalg import (TRANSFORMS, IntMatrix, column_span_saturation,
                              column_vector, kernel_basis, quotient_invariants,
                              smith, solve)
from einfty.invariants import (InvariantWindow, class_equals, lie_lattice,
                               massey_invariant, sq_dual_invariant)

from dense_smith_oracle import RemainderStep, dense_smith
from models import in_column_span, rank, vstack
from sparse_smith_oracle import sparse_smith
import window_oracle


def minors_gcd_invariant_factors(rows):
    """Independent oracle: d_k = gcd(k-minors) / gcd((k-1)-minors)."""
    m = IntMatrix.from_rows(rows)
    n, c = m.shape
    dense = m.to_rows()

    def det(sub_rows, sub_cols):
        k = len(sub_rows)
        if k == 0:
            return 1
        total = 0
        first, rest = sub_rows[0], sub_rows[1:]
        for pos, j in enumerate(sub_cols):
            minor = det(rest, sub_cols[:pos] + sub_cols[pos + 1:])
            term = dense[first][j] * minor
            total += term if pos % 2 == 0 else -term
        return total

    previous = 1
    factors = []
    for k in range(1, min(n, c) + 1):
        g = 0
        for rr in combinations(range(n), k):
            for cc in combinations(range(c), k):
                g = gcd(g, det(list(rr), list(cc)))
        if g == 0:
            break
        factors.append(g // previous)
        previous = g
    return factors


def test_example_matrix_has_factors_2_4():
    sf = smith(IntMatrix.from_rows([[2, 4], [6, 8]]), ("u", "v"))
    assert [sf.s[0, 0], sf.s[1, 1]] == [2, 4]
    assert minors_gcd_invariant_factors([[2, 4], [6, 8]]) == [2, 4]
    assert (sf.u @ IntMatrix.from_rows([[2, 4], [6, 8]]) @ sf.v) == sf.s


def test_identity_and_zero():
    sf = smith(IntMatrix.identity(3), ("u", "v"))
    assert sf.s == IntMatrix.identity(3)
    assert sf.u == IntMatrix.identity(3) and sf.v == IntMatrix.identity(3)
    sf = smith(IntMatrix.zero(2, 3), ("u", "v"))
    assert sf.s.is_zero()
    assert sf.u == IntMatrix.identity(2) and sf.v == IntMatrix.identity(3)


small_matrix = st.integers(1, 4).flatmap(
    lambda n: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=n, max_size=n)))


def matrices(size, entries):
    return st.integers(1, size).flatmap(
        lambda n: st.integers(1, size).flatmap(
            lambda c: st.lists(
                st.lists(entries, min_size=c, max_size=c),
                min_size=n, max_size=n)))


def assert_smith_form(m, sf):
    assert (sf.u @ m @ sf.v) == sf.s
    assert (sf.u @ sf.uinv) == IntMatrix.identity(m.nrows)
    assert (sf.v @ sf.vinv) == IntMatrix.identity(m.ncols)
    facs = sf.invariant_factors()
    assert all(f > 0 for f in facs)
    for a, b in zip(facs, facs[1:]):
        assert b % a == 0
    # off-diagonal zero
    for (i, j), val in sf.s.data.items():
        assert i == j and val


@settings(max_examples=60, deadline=None)
@given(small_matrix)
def test_smith_postconditions(rows):
    m = IntMatrix.from_rows(rows)
    sf = smith(m)
    assert_smith_form(m, sf)
    assert sf.invariant_factors() == minors_gcd_invariant_factors(rows)


@settings(max_examples=60, deadline=None)
@given(matrices(10, st.integers(-100, 100)))
def test_smith_postconditions_on_wide_entries(rows):
    # entries the pivot does not divide are cleared by gcd steps, which keep
    # the coefficients of the working copy and the transforms bounded
    m = IntMatrix.from_rows(rows)
    assert_smith_form(m, smith(m))


# the remainder-and-swap Euclid pass grew the working copy of this matrix
# past 12 million bits at pivot 4 and did not finish in 300 s
REGRESSION_7X6 = IntMatrix(7, 6, {
    (0, 0): -4, (0, 1): 4, (0, 5): 6, (1, 0): -3, (1, 4): -8, (1, 5): -7, (2, 1): 6,
    (2, 3): 3, (3, 0): -5, (3, 1): 6, (3, 2): 7, (3, 3): 6, (3, 4): 7, (4, 0): -7,
    (4, 1): 1, (4, 3): 8, (5, 2): 5, (5, 3): -2, (5, 4): 9, (6, 3): 7, (6, 5): -6})


def test_smith_finishes_where_remainder_swaps_blew_up():
    m = REGRESSION_7X6
    sf = smith(m)
    assert_smith_form(m, sf)
    assert sf.invariant_factors() == minors_gcd_invariant_factors(m.to_rows()) == [1] * 5 + [24]


@settings(max_examples=200, deadline=None)
@given(matrices(10, st.one_of(st.just(0), st.integers(-2, 2))))
@example([[0, -2, 0], [-2, 1, 2], [0, -2, 2]])
@example([[2, -2, 1, 0], [0, 0, -2, 0], [0, 0, 0, 0], [1, 0, -2, 0]])
def test_sparse_smith_repeats_the_dense_elimination(rows):
    # the pivot sequence is the contract: wherever the dense elimination
    # never meets an entry its pivot does not divide, S and all four
    # transforms are the same matrices, built in the same entry order (the
    # two examples each fold an offending row into the pivot row)
    m = IntMatrix.from_rows(rows)
    try:
        dense = dense_smith(m)
    except RemainderStep:
        event("dense elimination took a remainder step")
        return
    sparse = smith(m)
    for name in ("s",) + TRANSFORMS:
        assert getattr(sparse, name) == getattr(dense, name)
        assert list(getattr(sparse, name).data) == list(getattr(dense, name).data)


def assert_same_elimination(m):
    """S and all four transforms of ``smith`` equal those of the row-walking
    elimination, entry for entry and in the same entry order."""
    got, want = smith(m), sparse_smith(m)
    for name in ("s",) + TRANSFORMS:
        x, y = getattr(got, name), getattr(want, name)
        assert x.shape == y.shape
        assert list(x.data.items()) == list(y.data.items())


# tall and sparse with even entries only, like the Massey relations: no unit
# pivot, so every step runs the divisibility check and many fold a row
tall_even = st.integers(2, 30).flatmap(
    lambda n: st.integers(1, n).flatmap(
        lambda c: st.lists(
            st.lists(st.sampled_from([0, 0, 0, 0, 2, -2, 4]), min_size=c, max_size=c),
            min_size=n, max_size=n)))


@settings(max_examples=200, deadline=None)
@given(st.one_of(small_matrix, matrices(10, st.integers(-100, 100)),
                 matrices(10, st.one_of(st.just(0), st.integers(-2, 2))), tall_even))
@example(REGRESSION_7X6.to_rows())
@example([[0, -2, 0], [-2, 1, 2], [0, -2, 2]])
@example([[2, -2, 1, 0], [0, 0, -2, 0], [0, 0, 0, 0], [1, 0, -2, 0]])
def test_smith_repeats_the_row_walking_elimination(rows):
    # wide entries take gcd steps and folds, which the dense oracle cannot
    # follow; the row-walking elimination makes every choice by a plain scan
    assert_same_elimination(IntMatrix.from_rows(rows))


def test_smith_repeats_the_row_walking_elimination_on_massey_relations():
    # 120 x 168, 252 entries of +-2, every invariant factor 2
    m = 4
    pairs = list(combinations(range(m), 2))
    comul = IntMatrix.from_columns(
        [[2 * x for x in window_oracle._bracket2(m, i, j)] for i, j in pairs], nrows=m * m)
    relations = invariants.massey_group(m, len(pairs), comul).relations
    assert relations.shape == (120, 168)
    assert smith(relations, ()).invariant_factors() == [2] * 120
    assert_same_elimination(relations)


def test_derive_arity3_prints_the_frozen_table():
    # the derivation script searches through Smith transforms, so a change
    # of pivot sequence would show up as a different table
    script = Path(__file__).parents[1] / "tools" / "derive_arity3.py"
    env = dict(os.environ, PYTHONPATH=str(Path(intlinalg.__file__).parents[1]))
    out = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                         check=True, env=env).stdout
    table = out[out.index("_M3_TABLE_DATA = ") + len("_M3_TABLE_DATA = "):]
    assert ast.literal_eval(table[:table.index("\n}\n") + 2]) == operads._M3_TABLE_DATA
    for k in (1, 2, 3):
        assert f"H_{k}: rank 0, torsion []" in out


@settings(max_examples=40, deadline=None)
@given(small_matrix)
def test_kernel_and_rank(rows):
    m = IntMatrix.from_rows(rows)
    k = kernel_basis(m)
    assert (m @ k).is_zero()
    assert k.ncols + rank(m) == m.ncols
    assert rank(m) == smith(m).rank


@settings(max_examples=40, deadline=None)
@given(small_matrix, st.lists(st.integers(-3, 3), min_size=1, max_size=4))
def test_solve_consistency(rows, coeffs):
    m = IntMatrix.from_rows(rows)
    coeffs = (coeffs * m.ncols)[: m.ncols]
    rhs = column_vector(m.apply(coeffs))
    x = solve(m, rhs)
    assert x is not None
    assert (m @ x) == rhs


def test_solve_unsolvable():
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert solve(m, column_vector([1, 0])) is None
    assert not in_column_span(m, [0, 1])
    assert in_column_span(m, [4, -9])


def test_saturation_of_scaled_lattice():
    m = IntMatrix.from_rows([[2, 0], [0, 4], [0, 0]])
    sat = column_span_saturation(m)
    assert sat.ncols == 2
    # saturation contains the primitive vectors e1, e2
    assert in_column_span(sat, [1, 0, 0])
    assert in_column_span(sat, [0, 1, 0])
    assert not in_column_span(sat, [0, 0, 1])


def test_quotient_invariants():
    assert quotient_invariants(2, IntMatrix.from_rows([[2, 0], [0, 1]])) == (0, [2])
    assert quotient_invariants(3, IntMatrix.zero(3, 0)) == (3, [])
    assert quotient_invariants(2, IntMatrix.from_rows([[2, 4], [6, 8]])) == (0, [2, 4])


def test_matrix_ops():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert (a @ b).to_rows() == [[2, 1], [4, 3]]
    assert (a + b - b) == a
    assert a.transpose().transpose() == a
    assert a.hstack(b).shape == (2, 4)
    assert vstack(a, b).shape == (4, 2)
    with pytest.raises(ValueError):
        a @ IntMatrix.zero(3, 3)


def test_doctests_pass():
    failed, attempted = doctest.testmod(intlinalg)
    assert failed == 0 and attempted > 0


@settings(max_examples=40, deadline=None)
@given(small_matrix)
def test_smith_builds_only_requested_transforms(rows):
    m = IntMatrix.from_rows(rows)
    full = smith(m)
    for k in range(len(TRANSFORMS) + 1):
        for subset in combinations(TRANSFORMS, k):
            part = smith(m, subset)
            assert part.s == full.s
            for name in TRANSFORMS:
                got = getattr(part, name)
                if name in subset:
                    assert got == getattr(full, name)
                else:
                    assert got is None


def test_smith_rejects_unknown_transform_and_solve_needs_u_v():
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    with pytest.raises(ValueError):
        smith(m, ("w",))
    with pytest.raises(ValueError):
        smith(m, ("u",)).solve(column_vector([2, 3]))


@settings(max_examples=60, deadline=None)
@given(small_matrix, st.data())
def test_multi_column_solve_matches_columns(rows, data):
    m = IntMatrix.from_rows(rows)
    cols = []
    for _ in range(data.draw(st.integers(0, 3))):
        if data.draw(st.booleans()):
            coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=m.ncols,
                                        max_size=m.ncols))
            cols.append(m.apply(coeffs))
        else:
            cols.append(data.draw(st.lists(st.integers(-5, 5), min_size=m.nrows,
                                           max_size=m.nrows)))
    rhs = IntMatrix.from_columns(cols, nrows=m.nrows)
    x = smith(m, ("u", "v")).solve(rhs)
    singles = [solve(m, column_vector(c)) for c in cols]
    if any(s is None for s in singles):
        assert x is None
    else:
        assert x is not None and (m @ x) == rhs
        assert [x.column(j) for j in range(len(cols))] == [s.column(0) for s in singles]


# -- factor once: counted Smith factorizations ------------------------------------

@pytest.fixture
def smith_calls(monkeypatch):
    """Every matrix handed to ``smith`` while the test runs."""
    calls = []
    real = intlinalg.smith

    def counting(m, *args, **kwargs):
        calls.append(m)
        return real(m, *args, **kwargs)

    monkeypatch.setattr(intlinalg, "smith", counting)
    monkeypatch.setattr(invariants, "smith", counting)
    return calls


def _window(m: int, seed: int) -> InvariantWindow:
    """H1 rank m, one H2 generator per pair with comul the pair's bracket,
    and triple images random combinations of degree-3 brackets."""
    rng = random.Random(seed)
    pairs = list(combinations(range(m), 2))
    comul = IntMatrix.from_columns(
        [window_oracle._bracket2(m, i, j) for i, j in pairs], nrows=m * m)
    brackets = [window_oracle._bracket_with_left(m, i, window_oracle._bracket2(m, j, k))
                for i in range(m) for j, k in pairs]
    triple = []
    for _ in pairs:
        col = [0] * m ** 3
        for b in rng.sample(brackets, 3):
            c = rng.randint(-2, 2)
            col = [x + c * y for x, y in zip(col, b)]
        triple.append(col)
    return InvariantWindow(m, len(pairs), comul, IntMatrix(m * m, m),
                           IntMatrix.from_columns(triple, nrows=m ** 3))


def test_massey_factors_degree3_once_per_process(smith_calls):
    lie_lattice.cache_clear()
    for seed in (1, 2):
        massey_invariant(_window(4, seed))
    degree3 = lie_lattice(4).degree3
    assert sum(m == degree3 for m in smith_calls) == 1
    # the other factorization is the saturation that builds degree3
    assert len(smith_calls) == 2


def test_class_report_then_equals_factors_each_group_once(smith_calls):
    wa, wb = _window(4, 1), _window(4, 2)
    for fn in (sq_dual_invariant, massey_invariant):
        a, b = fn(wa), fn(wb)
        _class_report(a)
        _class_report(b)
        class_equals(a, b)
        for cls in (a, b):
            assert sum(m is cls.group.relations for m in smith_calls) == 1
