"""Bracket lattices, the two invariant classes, and their stability."""
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from models import FIXTURES, fixture, grid_torus, nu_columns, relabel

from einfty.coalgebra import chain_structure
from einfty.errors import GroupMismatch, NotNormalizable, RelationViolation
from einfty.homology import build_sdr, sdr_variant
from einfty.intlinalg import IntMatrix
from einfty.invariants import (InvariantWindow, class_equals, delta_map,
                               lie_lattice, massey_invariant, perturb,
                               sq_dual_invariant, window_from_package)
from einfty.transfer import transfer


def _bracket2(m, i, j):
    v = [0] * (m * m)
    v[i * m + j] += 1
    v[j * m + i] -= 1
    return v


def _bracket3(m, i, j, k):
    v = [0] * m ** 3

    def idx(a, b, c):
        return (a * m + b) * m + c

    v[idx(i, j, k)] += 1
    v[idx(j, i, k)] -= 1
    v[idx(k, i, j)] -= 1
    v[idx(k, j, i)] += 1
    return v


def brute_force_rank(vectors):
    """Rational row reduction, independent of the Smith machinery."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    r = 0
    width = len(rows[0]) if rows else 0
    for j in range(width):
        piv = next((i for i in range(r, len(rows)) if rows[i][j]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][j]:
                f = rows[i][j] / rows[r][j]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


@pytest.mark.parametrize("m", range(6))
def test_lie_lattice_ranks(m):
    lat = lie_lattice(m)
    # left-normed brackets [[e_j, e_k], e_i] span the same lattice as the
    # [e_i, [e_j, e_k]] family used internally (they differ by a sign)
    spans = [_bracket3(m, j, k, i)
             for i in range(m) for j, k in combinations(range(m), 2)]
    expected = brute_force_rank(spans) if spans else 0
    assert lat.rank3 == expected == m * (m * m - 1) // 3
    assert lat.rank2 == m * (m - 1) // 2
    # primitivity: the quotient of the square layer by brackets is free
    from einfty.intlinalg import quotient_invariants
    free, torsion = quotient_invariants(m * m, lat.degree2)
    assert torsion == []


def test_delta_map_examples():
    m = 3
    # comul = 0 forces delta = 0
    nu = IntMatrix.from_columns([_bracket2(m, 1, 2), [0] * 9, [0] * 9], nrows=9)
    assert delta_map(IntMatrix(9, 2), nu, m).is_zero()
    # nu = 0 gives 0
    comul = IntMatrix.from_columns([_bracket2(m, 0, 1), [0] * 9], nrows=9)
    assert delta_map(comul, IntMatrix(9, m), m).is_zero()
    # the hand-computed value: comul(s) = [a, b], nu(a) = [a, b]
    nu2 = IntMatrix.from_columns([_bracket2(m, 0, 1), [0] * 9, [0] * 9], nrows=9)
    img = delta_map(comul, nu2, m)
    assert img.column(0) == _bracket3(m, 0, 1, 1)  # [[a, b], b]
    assert img.column(1) == [0] * 27


def _borromean_window():
    triple = IntMatrix.from_columns(
        [_bracket3(3, 0, 1, 2), _bracket3(3, 1, 2, 0)], nrows=27)
    return InvariantWindow(3, 2, IntMatrix(9, 2), IntMatrix(9, 3), triple)


def _zero_window():
    return InvariantWindow(3, 2, IntMatrix(9, 2), IntMatrix(9, 3),
                           IntMatrix(27, 2))


def test_massey_discrimination():
    bor = massey_invariant(_borromean_window())
    zero = massey_invariant(_zero_window())
    assert not bor.is_zero()
    assert zero.is_zero()
    assert not class_equals(bor, zero)
    assert class_equals(bor, bor)


def test_massey_delta_image_is_zero_class():
    m = 3
    comul = IntMatrix.from_columns([_bracket2(m, 0, 1), [0] * 9], nrows=9)
    nu = IntMatrix.from_columns([_bracket2(m, 1, 2), [0] * 9, [0] * 9], nrows=9)
    img = delta_map(comul, nu, m)
    w = InvariantWindow(3, 2, comul, IntMatrix(9, 3), img)
    assert massey_invariant(w).is_zero()


def test_massey_membership_precondition():
    for col in (0, 1):
        bad = IntMatrix(27, 2)
        bad[0, col] = 1  # a (x) a (x) a is not a bracket
        w = InvariantWindow(3, 2, IntMatrix(9, 2), IntMatrix(9, 3), bad)
        with pytest.raises(NotNormalizable) as exc:
            massey_invariant(w)
        assert f"generator #{col}" in str(exc.value)


def test_window_symmetry_validation():
    skew = IntMatrix(9, 3)
    skew[0 * 3 + 1, 0] = 1  # not symmetric
    w = InvariantWindow(3, 2, IntMatrix(9, 2), skew, IntMatrix(27, 2))
    with pytest.raises(RelationViolation) as err:
        sq_dual_invariant(w)
    assert list(err.value.payload().items())[2:] == [
        ("relation", "hat m2_1 = -sigma hat m2_1"), ("degree", 1), ("element", "#0"),
        ("expected", [[1, "#1(x)#0"]]), ("actual", [[1, "#0(x)#1"]])]
    badc = IntMatrix(9, 2)
    badc[0 * 3 + 1, 0] = 1  # not antisymmetric
    w2 = InvariantWindow(3, 2, badc, IntMatrix(9, 3), IntMatrix(27, 2))
    with pytest.raises(RelationViolation) as err:
        massey_invariant(w2)
    assert list(err.value.payload().items())[2:] == [
        ("relation", "hat m2_0 = sigma hat m2_0"), ("degree", 2), ("element", "#0"),
        ("expected", [[-1, "#1(x)#0"]]), ("actual", [[1, "#0(x)#1"]])]
    assert w2.validate() == [w2.asymmetry("comul")] and w.validate() == [w.asymmetry("sq")]


def test_sq_zero_and_boundary_classes():
    m = 3
    zero = InvariantWindow(m, 0, IntMatrix(9, 0), IntMatrix(9, 3),
                           IntMatrix(27, 0))
    assert sq_dual_invariant(zero).is_zero()
    rng = random.Random(0)
    for _ in range(10):
        f = IntMatrix(9, 3)
        for i in range(9):
            for j in range(3):
                f[i, j] = rng.randint(-3, 3)
        w = perturb(zero, nu_columns(m, f.scale(-1)))  # sq = f + swap f
        assert sq_dual_invariant(w).is_zero()


def test_group_mismatch_rejected():
    bor = massey_invariant(_borromean_window())
    small = InvariantWindow(2, 1, IntMatrix(4, 1), IntMatrix(4, 2),
                            IntMatrix(8, 1))
    other = massey_invariant(small)
    with pytest.raises(GroupMismatch):
        class_equals(bor, other)


def test_representative_shift_by_relator_is_equal():
    bor = massey_invariant(_borromean_window())
    g = bor.group
    if g.relations.ncols:
        shift = g.relations.column(0)
        rep2 = tuple(a + b for a, b in zip(bor.representative, shift))
        from einfty.invariants import InvariantClass
        assert class_equals(bor, InvariantClass(g, rep2))


@pytest.mark.parametrize("name", ["circle", "sphere", "torus", "wedge2"])
def test_invariants_stable_across_retractions(name):
    s = chain_structure(FIXTURES[name], 3)
    sdr = build_sdr(s.complex)
    pkg = transfer(s, sdr)
    sq0 = sq_dual_invariant(window_from_package(pkg))
    ma0 = massey_invariant(window_from_package(pkg))
    for seed in (1, 2):
        rng = random.Random(seed)
        theta = {}
        for d in pkg.homology.degrees():
            m = IntMatrix(s.complex.rank(d), pkg.homology.rank(d))
            for i in range(m.nrows):
                for j in range(m.ncols):
                    m[i, j] = rng.randint(-2, 2)
            theta[d] = m
        pkg2 = transfer(s, sdr_variant(sdr, theta))
        assert class_equals(sq_dual_invariant(window_from_package(pkg2)), sq0)
        assert class_equals(massey_invariant(window_from_package(pkg2)), ma0)


def test_massey_stable_under_admissible_perturbations():
    # nonzero comultiplication so that perturbations genuinely move the
    # representative; the class must stay put
    m, r = 3, 2
    comul = IntMatrix.from_columns([_bracket2(m, 0, 1), [0] * 9], nrows=9)
    triple = IntMatrix.from_columns(
        [_bracket3(3, 0, 1, 2), _bracket3(3, 1, 2, 0)], nrows=27)
    base = InvariantWindow(m, r, comul, IntMatrix(9, 3), triple)
    cls = massey_invariant(base)
    lat = lie_lattice(m)
    rng = random.Random(17)
    moved_at_least_once = False
    for _ in range(30):
        nu = IntMatrix(9, 3)
        for j in range(3):
            for w_idx in range(lat.rank2):
                c = rng.randint(-1, 1)
                if c:
                    for i, v in enumerate(lat.degree2.column(w_idx)):
                        nu[i, j] = nu[i, j] + c * v
        gamma = IntMatrix(m * r, r)
        for i in range(m * r):
            for j in range(r):
                gamma[i, j] = rng.randint(-1, 1)
        moved = perturb(base, nu_columns(m, nu, r, gamma))
        if moved.triple != base.triple:
            moved_at_least_once = True
        assert class_equals(massey_invariant(moved), cls)
    assert moved_at_least_once


def test_borromean_quotient_structure():
    # comul = 0 makes the denominator and the delta image vanish: the group
    # is the full hom lattice, rank r * rank3 = 2 * 8
    cls = massey_invariant(_borromean_window())
    free, torsion = cls.group.invariants()
    assert (free, torsion) == (16, [])


def _invariant_report(x):
    """What ``einfty invariant`` reports on a simplicial set."""
    s = chain_structure(x, 3)
    w = window_from_package(transfer(s, build_sdr(s.complex)))
    out = {"ranks": (w.h1_rank, w.h2_rank)}
    for key, fn in (("sq_dual", sq_dual_invariant), ("massey", massey_invariant)):
        cls = fn(w)
        out[key] = (cls.group.invariants(), cls.is_zero())
    return out


def _check_torus_model(n, seed):
    # a relabelled grid torus is another simplicial model of the minimal
    # torus: homology, both groups and both zero/non-zero verdicts agree
    want = _invariant_report(fixture("torus"))
    assert want == {"ranks": (2, 1), "sq_dual": ((0, [2, 2, 2, 2]), False),
                    "massey": ((0, []), True)}
    assert _invariant_report(relabel(grid_torus(n), seed)) == want


@pytest.mark.parametrize("n,seed", [(3, 21), (4, 22), (5, 23)])
def test_torus_models_agree(n, seed):
    _check_torus_model(n, seed)


@settings(max_examples=10, deadline=None)
@given(st.integers(3, 5), st.integers(0, 2 ** 16))
def test_torus_models_agree_drawn(n, seed):
    _check_torus_model(n, seed)
