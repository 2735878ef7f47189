"""The sparse Massey presentation and normalizing correction against the
dense reference code in ``massey_oracle.py``."""
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from massey_oracle import delta_map as oracle_delta_map
from massey_oracle import massey_group as oracle_massey_group
from massey_oracle import normalizing_correction as oracle_correction
from models import fan_surface, fixture, grid_torus, identity_sdr, relabel

from einfty import invariants
from einfty.chains import ChainComplex, GradedOperator, pruned
from einfty.coalgebra import chain_structure
from einfty.homology import build_sdr
from einfty.intlinalg import IntMatrix
from einfty.invariants import (delta_map, massey_group, massey_invariant, normalizing_shift,
                               perturb, window_from_package)
from einfty.transfer import TransferPackage, transfer


@st.composite
def comul_windows(draw):
    """(m, r, comul) with m <= 5, r <= 4 and antisymmetric comul columns."""
    m, r = draw(st.integers(0, 5)), draw(st.integers(0, 4))
    comul = IntMatrix(m * m, r)
    for s in range(r):
        for i in range(m):
            for j in range(i + 1, m):
                c = draw(st.integers(-3, 3))
                comul[i * m + j, s] = c
                comul[j * m + i, s] = -c
    return m, r, comul


def _dense(draw, nrows, ncols):
    return IntMatrix.from_rows([draw(st.lists(st.integers(-3, 3), min_size=ncols,
                                              max_size=ncols)) for _ in range(nrows)],
                               ncols=ncols)


@settings(max_examples=40, deadline=None)
@given(comul_windows())
def test_massey_group_relations_match_oracle(window):
    # entry for entry, hence also the column order and the dropped columns
    m, r, comul = window
    got, want = massey_group(m, r, comul), oracle_massey_group(m, r, comul)
    assert got.ambient_rank == want.ambient_rank
    assert got.relations == want.relations


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_delta_map_matches_oracle_on_dense_nu(m, r, data):
    comul = _dense(data.draw, m * m, r)
    nu = _dense(data.draw, m * m, m)
    assert delta_map(comul, nu, m) == oracle_delta_map(comul, nu, m)


def _operator(h, block):
    """The degree-1 binary operator on ``h`` that ``transfer`` applies for a
    block of ``normalizing_shift``, or None."""
    return None if block is None else GradedOperator._adopt(h, h, 2, 1, {2: block})


def _spied_transfer(x, monkeypatch):
    """The package transferred from ``x``, the uncorrected window, the block
    ``normalizing_shift`` found for it, and the oracle's correction on the
    same uncorrected operators."""
    hats, seen = [], []
    real_window, real_shift = invariants.window_from_package, invariants.normalizing_shift

    def window_spy(pkg):
        hats.append(dict(pkg.hat_ops))  # transfer replaces entries after the call
        return real_window(pkg)

    def shift_spy(w):
        seen.append((w, real_shift(w), oracle_correction(hats[-1])))
        return seen[-1][1]

    monkeypatch.setattr(invariants, "window_from_package", window_spy)
    monkeypatch.setattr(invariants, "normalizing_shift", shift_spy)
    s = chain_structure(x, 3)
    pkg = transfer(s, build_sdr(s.complex))
    assert len(seen) == 1
    return (pkg, *seen[0])


def _corrections(x, monkeypatch):
    """What ``normalizing_shift`` returned while ``x`` was transferred, as the
    operator ``transfer`` applies, next to the oracle's answer."""
    pkg, _, block, want = _spied_transfer(x, monkeypatch)
    return _operator(pkg.homology, block), want


@pytest.mark.parametrize("n,seed", [(None, None), (2, 41), (3, 42), (4, 43)])
def test_correction_matches_oracle_on_tori(n, seed, monkeypatch):
    x = fixture("torus") if n is None else relabel(grid_torus(n), seed)
    got, want = _corrections(x, monkeypatch)
    assert want is not None
    assert got == want


@pytest.mark.parametrize("n,seed", [(None, None), (2, 41), (3, 42), (4, 43)])
def test_corrected_window_is_the_perturbed_window(n, seed, monkeypatch):
    # the correction, read off the corrected package, is ``perturb`` of the
    # window before it
    pkg, w0, block, _ = _spied_transfer(fixture("torus") if n is None else relabel(grid_torus(n), seed),
                                        monkeypatch)
    assert block is not None
    got, want = window_from_package(pkg), perturb(w0, {2: block})
    assert (got.comul, got.sq, got.triple) == (want.comul, want.sq, want.triple)


def test_correction_is_none_on_genus2_surface(monkeypatch):
    assert _corrections(fan_surface(2), monkeypatch) == (None, None)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.data())
def test_correction_matches_oracle_on_drawn_windows(m, r, data):
    # homology-level operators drawn directly: an antisymmetric comul, and a
    # triple made of shift generators on both sides and a random L3 part,
    # plus noise on some draws, so that both solvable and unsolvable windows
    # occur.  The L3 part makes the solve use right shift columns, whose
    # sign the oracle then checks.
    coeff = st.integers(-2, 2)
    comul = {}
    for u in range(r):
        col = comul[u] = {}
        for i in range(m):
            for j in range(i + 1, m):
                c = data.draw(coeff)
                col[(1, i), (1, j)], col[(1, j), (1, i)] = c, -c
    noisy = data.draw(st.booleans())
    triple = {}
    for s in range(r):
        col = triple[s] = {}
        for u in range(r):
            for a in range(m):
                x, y = data.draw(coeff), data.draw(coeff)
                for (e1, e2), c in comul[u].items():
                    for word, v in (((e1, e2, (1, a)), x), (((1, a), e1, e2), y)):
                        col[word] = col.get(word, 0) + v * c
        for i in range(m):
            for j, k in combinations(range(m), 2):
                c = data.draw(coeff)
                # [e_i, [e_j, e_k]] = ijk - ikj - jki + kji
                for word, v in (((i, j, k), c), ((i, k, j), -c), ((j, k, i), -c),
                                ((k, j, i), c)):
                    word = tuple((1, x) for x in word)
                    col[word] = col.get(word, 0) + v
        if noisy:
            word = tuple((1, data.draw(st.integers(0, m - 1))) for _ in range(3)) if m else ()
            if word:
                col[word] = col.get(word, 0) + data.draw(coeff)
    pkg = _window_package(m, r, comul, triple)
    w = window_from_package(pkg)
    block = normalizing_shift(w)
    assert _operator(pkg.homology, block) == oracle_correction(pkg.hat_ops)
    if block is not None:
        massey_invariant(perturb(w, {2: block}))  # the corrected triple lies in L3


def test_correction_keeps_the_right_shift_sign():
    # comul = ([e1, e2], [e0, e1]) and triple(s1) = e2 (x) [e0, e1]: the
    # solve uses a right shift column, so the correction has an
    # e_a (x) s_u word, and a wrong sign on that branch differs from the oracle
    def bracket(i, j):
        return {((1, i), (1, j)): 1, ((1, j), (1, i)): -1}

    pkg = _window_package(3, 2, {0: bracket(1, 2), 1: bracket(0, 1)},
                          {0: {}, 1: {((1, 2), *w): v for w, v in bracket(0, 1).items()}})
    got = _operator(pkg.homology, normalizing_shift(window_from_package(pkg)))
    assert any(word[0][0] == 1 for col in got.cols[2].values() for word in col)
    assert got == oracle_correction(pkg.hat_ops)


def _window_package(m, r, comul, triple):
    """A package on H = Z + Z^m + Z^r with zero differential, whose comul and
    triple are given as {H2 generator: {H1 word: coefficient}}."""
    h = ChainComplex({0: ("p",), 1: [f"a{i}" for i in range(m)],
                      2: [f"s{u}" for u in range(r)]}, {})
    hat = {"m2_0": GradedOperator._adopt(h, h, 2, 0, pruned({2: comul})),
           "m2_1": GradedOperator._adopt(h, h, 2, 1, {}),
           "m3_1": GradedOperator._adopt(h, h, 3, 1, pruned({2: triple}))}
    return TransferPackage(None, identity_sdr(h), hat, {})
