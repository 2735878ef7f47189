"""Cup-k tables: the closed formula against the ladder solver it replaced,
and the ladder itself on the chains of standard simplices."""
import pytest

from einfty.chains import bracket_d, transpose_swap
from einfty.coalgebra import chain_structure, cup_table
from einfty.simplicial import standard_simplex

from cup_ladder_oracle import ladder_cup_table, subset_index


@pytest.mark.parametrize("k", range(6))
def test_cup_table_matches_ladder_solve(k):
    # term for term: coefficient, S1, S2 and their order
    for n in range(9):
        assert cup_table(k, n) == ladder_cup_table(k, n), (k, n)


@pytest.mark.parametrize("n", range(7))
def test_ladder_holds_on_standard_simplex(n):
    # chain_structure verifies every [d, m2_k] on construction; the ladder
    # is checked here once more, directly against the tables' operators
    s = chain_structure(standard_simplex(n), max(n, 1))
    assert s.verify() == []
    for k in range(1, max(n, 1) + 1):
        below = s.op(f"m2_{k - 1}")
        want = below + transpose_swap(below).scale(-1 if k % 2 else 1)
        assert bracket_d(s.op(f"m2_{k}")) == want, (n, k)


def test_subset_index_matches_simplex_labels():
    for n in range(10):
        x = standard_simplex(n)
        for d in range(n + 1):
            index = subset_index(n, d)
            for i, name in enumerate(x.names(d)):
                assert index[tuple(int(ch) for ch in name)] == i
