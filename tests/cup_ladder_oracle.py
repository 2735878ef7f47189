"""Reference oracle for ``einfty.coalgebra.cup_table``.

The code below is how the package found its cup-k tables before it used the
closed formula: for every (k, n) with k >= 1 it builds the normalized chains
of the standard n-simplex, assembles the ladder

    [d, Delta_k] = Delta_{k-1} - (-1)^{k-1} T Delta_{k-1}

on the top simplex as an integer linear system over the interval-cut pairs,
and takes the particular solution of one Smith factorization.  The faces of
the top simplex carry the table of dimension n - 1, so the system reads
only lower tables.  ``tests/test_cup_oracle.py`` requires the formula's
tables to equal these term for term.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations, combinations_with_replacement

from einfty.chains import ChainComplex, TensorKey
from einfty.coalgebra import CutTerm
from einfty.intlinalg import IntMatrix, solve
from einfty.simplicial import normalized_chains, standard_simplex


def _interval_cut_pairs(n: int, intervals: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Nondegenerate (S1, S2) pairs from interval cuts of [0..n]."""
    pairs = set()
    for cuts in combinations_with_replacement(range(n + 1), intervals - 1):
        points = [0, *cuts, n]
        segs = [tuple(range(points[t], points[t + 1] + 1)) for t in range(intervals)]
        for parity in (0, 1):
            s = [[], []]
            for t, seg in enumerate(segs):
                s[(t + parity) % 2].extend(seg)
            if all(a != b for side in s for a, b in zip(side, side[1:])):
                pairs.add((tuple(s[0]), tuple(s[1])))
    return sorted(pairs)


@lru_cache(maxsize=None)
def _standard_chain(n: int) -> ChainComplex:
    return normalized_chains(standard_simplex(n))


@lru_cache(maxsize=None)
def subset_index(n: int, d: int) -> dict[tuple[int, ...], int]:
    """Vertex subset -> index among the d-simplices of the standard n-simplex,
    which ``standard_simplex`` lists in ``combinations`` order."""
    return {vs: i for i, vs in enumerate(combinations(range(n + 1), d + 1))}


def _pair_word(n: int, s1: tuple[int, ...], s2: tuple[int, ...]) -> TensorKey:
    """The tensor word of the face pair (S1, S2) of the standard n-simplex."""
    d1, d2 = len(s1) - 1, len(s2) - 1
    return ((d1, subset_index(n, d1)[s1]), (d2, subset_index(n, d2)[s2]))


def _pair_vector(c: ChainComplex, n: int, total: int, terms: list[CutTerm]) -> IntMatrix:
    vec = IntMatrix(c.tensor_rank(2, total), 1)
    for coeff, s1, s2 in terms:
        row = c.word_row(2, total, _pair_word(n, s1, s2))
        vec[row, 0] = vec[row, 0] + coeff
    return vec


def _twist_vector(c: ChainComplex, n: int, total: int, terms: list[CutTerm]) -> IntMatrix:
    """Vector of T applied to a pair combination (signed swap)."""
    swapped = [(-coeff if (len(s1) - 1) % 2 and (len(s2) - 1) % 2 else coeff, s2, s1)
               for coeff, s1, s2 in terms]
    return _pair_vector(c, n, total, swapped)


@lru_cache(maxsize=None)
def ladder_cup_table(k: int, n: int) -> tuple[CutTerm, ...]:
    """Coefficients of Delta_k on the standard n-simplex, sorted by (S1, S2):
    the front/back-face diagonal for k = 0, a ladder solve above it."""
    if k == 0:
        return tuple((1, tuple(range(0, i + 1)), tuple(range(i, n + 1)))
                     for i in range(n + 1))
    if k > n:
        return ()
    prev = k - 1
    c = _standard_chain(n)
    pairs = _interval_cut_pairs(n, k + 2)
    # right-hand side: R_{k-1}(iota_n) - (-1)^{k-1} Delta_k(d iota_n)
    below = list(ladder_cup_table(prev, n))
    rk = _pair_vector(c, n, n + prev, below)
    rk = rk - _twist_vector(c, n, n + prev, below).scale(-1 if prev % 2 else 1)
    lower = IntMatrix(c.tensor_rank(2, n + k - 1), 1)
    for i in range(n + 1):
        facet = tuple(v for v in range(n + 1) if v != i)
        mapped = [(coeff, tuple(facet[a] for a in s1), tuple(facet[b] for b in s2))
                  for coeff, s1, s2 in ladder_cup_table(k, n - 1)]
        lower = lower + _pair_vector(c, n, n - 1 + k, mapped).scale(-1 if i % 2 else 1)
    rhs = rk - lower.scale(-1 if (k - 1) % 2 else 1)
    # unknown coefficients on candidate pairs; columns = d_tensor(pair)
    cols = IntMatrix(c.tensor_rank(2, n + k - 1), len(pairs))
    for j, (s1, s2) in enumerate(pairs):
        for v, face in c.word_boundary(_pair_word(n, s1, s2)):
            row = c.word_row(2, n + k - 1, face)
            cols[row, j] = cols[row, j] + v
    sol = solve(cols, rhs)
    assert sol is not None, f"cup-{k} ladder has no integer solution at dimension {n}"
    return tuple((sol[j, 0], s1, s2) for j, (s1, s2) in enumerate(pairs) if sol[j, 0])
