"""Homotopy transfer: relation verification, invariance data, comparison."""
import random

import pytest
from models import in_column_span
from structure_compare import compare_structures

from einfty.chains import GradedOperator
from einfty.coalgebra import chain_structure
from einfty.errors import ShapeMismatch
from einfty.homology import build_sdr, sdr_variant
from einfty.intlinalg import IntMatrix
from einfty.simplicial import (circle, point, sphere, torus, wedge_of_circles)
from einfty.transfer import TransferPackage, transfer, verify_relations

FIXTURES = {
    "point": point(), "circle": circle(), "wedge2": wedge_of_circles(2),
    "wedge3": wedge_of_circles(3), "sphere": sphere(), "torus": torus(),
}


def _package(name, max_k=3):
    s = chain_structure(FIXTURES[name], max_k)
    return transfer(s, build_sdr(s.complex))


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_verify_relations_empty(name):
    assert verify_relations(_package(name)) == []


def test_circle_transfer_is_chain_structure():
    # zero differential, f = g = id, h = 0: transfer changes nothing
    s = chain_structure(FIXTURES["circle"], 3)
    sdr = build_sdr(s.complex)
    assert sdr.h.is_zero()
    pkg = transfer(s, sdr)
    for k in (0, 1, 2):
        assert pkg.hat_ops[f"m2_{k}"].blocks == s.op(f"m2_{k}").blocks
    img = pkg.hat_ops["m2_0"].image_of(1, 0)
    assert img == [(1, ((0, 0), (1, 0))), (1, ((1, 0), (0, 0)))]


def test_torus_comultiplication_hits_commutator_generator():
    pkg = _package("torus")
    h = pkg.homology
    m = h.rank(1)
    img = pkg.hat_ops["m2_0"].image_of(2, 0)
    window = {w: c for c, w in img if all(e == 1 for e, _ in w)}
    # antisymmetric with wedge coordinate +-1: a generator of the rank-1
    # second exterior power, i.e. a commutator a (x) b - b (x) a in a basis
    assert window == {((1, 0), (1, 1)): 1, ((1, 1), (1, 0)): -1} or \
        window == {((1, 0), (1, 1)): -1, ((1, 1), (1, 0)): 1}


def test_sphere_window_vanishes():
    pkg = _package("sphere")
    img = pkg.hat_ops["m2_0"].image_of(2, 0)
    assert all(any(e == 0 for e, _ in w) for _, w in img)


def test_torus_triple_window_in_bracket_lattice():
    pkg = _package("torus")
    from einfty.invariants import lie_lattice, window_from_package
    w = window_from_package(pkg)
    lat = lie_lattice(w.h1_rank)
    for col in range(w.h2_rank):
        assert in_column_span(lat.degree3, w.triple.column(col))


def test_defective_package_is_reported():
    pkg = _package("torus")
    hat = dict(pkg.hat_ops)
    bad = hat["m3_1"]
    h = pkg.homology
    block = bad.block(2).copy()
    # a cocommutative perturbation violating the arity-3 bracket relation
    word = ((1, 0), (1, 0), (1, 0))
    row = h.word_row(3, 3, word)
    block[row, 0] = block[row, 0] + 1
    hat["m3_1"] = GradedOperator(h, h, 3, 1, {**bad.blocks, 2: block})
    broken = TransferPackage(pkg.source, pkg.sdr, hat, pkg.morphism_ops)
    bad_rel = verify_relations(broken)
    assert bad_rel and any("f3_2" in b["relation"] for b in bad_rel)


def _gauge(pkg, seed):
    rng = random.Random(seed)
    s = pkg.source
    theta = {}
    for d in pkg.homology.degrees():
        m = IntMatrix(s.complex.rank(d), pkg.homology.rank(d))
        for i in range(m.nrows):
            for j in range(m.ncols):
                m[i, j] = rng.randint(-2, 2)
        theta[d] = m
    return transfer(s, sdr_variant(pkg.sdr, theta))


def test_compare_identical_packages():
    pkg = _package("torus")
    cmp0 = compare_structures(pkg, pkg)
    assert all(op.is_zero() for op in cmp0.differences.values())
    assert cmp0.solvable and cmp0.witness.is_zero()


def test_compare_two_transfers_solvable():
    pkg = _package("torus")
    pkg2 = _gauge(pkg, 13)
    cmp = compare_structures(pkg, pkg2)
    assert cmp.solvable
    # the witness actually satisfies (1 - sigma) w = difference
    from einfty.chains import transpose_swap
    w = cmp.witness
    assert (w - transpose_swap(w)) == cmp.differences["m2_1"]


def test_compare_rejects_incompatible():
    pkg = _package("torus")
    pkg_c = _package("circle")
    with pytest.raises(ShapeMismatch):
        compare_structures(pkg, pkg_c)
    # tamper with the comultiplication: not comparable either
    hat = dict(pkg.hat_ops)
    m0 = hat["m2_0"]
    h = pkg.homology
    block = m0.block(2).copy()
    word = ((1, 0), (1, 1))
    row = h.word_row(2, 2, word)
    block[row, 0] = block[row, 0] + 2
    swapped = ((1, 1), (1, 0))
    row = h.word_row(2, 2, swapped)
    block[row, 0] = block[row, 0] - 2
    hat["m2_0"] = GradedOperator(h, h, 2, 0, {**m0.blocks, 2: block})
    tampered = TransferPackage(pkg.source, pkg.sdr, hat, pkg.morphism_ops)
    with pytest.raises(ShapeMismatch):
        compare_structures(pkg, tampered)


def test_unsolvable_difference_reported():
    pkg = _package("torus")
    hat = dict(pkg.hat_ops)
    m1 = hat["m2_1"]
    h = pkg.homology
    # a symmetric-with-sign change is never of the form (1 - sigma) w:
    # (1 - sigma) lands in the odd-antisymmetric part, so perturb by the
    # invariant diagonal direction instead
    block = m1.block(1).copy()
    word = ((1, 0), (1, 0))
    row = h.word_row(2, 2, word)
    block[row, 0] = block[row, 0] + 1
    hat["m2_1"] = GradedOperator(h, h, 2, 1, {**m1.blocks, 1: block})
    q = TransferPackage(pkg.source, pkg.sdr, hat, pkg.morphism_ops)
    cmp = compare_structures(pkg, q)
    assert not cmp.solvable and cmp.witness is None


def test_failed_bracket_names_element_and_expansions():
    # one extra term in F(f2_1) breaks its bracket identity on the triangle
    # whose boundary meets that term's edge
    pkg = _package("torus")
    morph = dict(pkg.morphism_ops)
    w = morph["f2_1"]
    block = w.block(1).copy()
    block[0, 0] = block[0, 0] + 1
    morph["f2_1"] = GradedOperator(w.source, w.target, 2, 1, {**w.blocks, 1: block})
    bad = verify_relations(TransferPackage(pkg.source, pkg.sdr, pkg.hat_ops, morph))
    first = bad[0]
    assert first["relation"] == "[d, F(f2_1)] = df2_1 realized"
    assert (first["degree"], first["element"]) == (2, "U")
    assert first["expected"] == [[1, "h1_0(x)h1_0"], [-1, "h1_1(x)h1_0"]]
    assert first["actual"] == [[1, "h0_0(x)h2_0"], [1, "h1_0(x)h1_0"], [-1, "h1_1(x)h1_0"]]
    assert first["detail"] == ("degree 2, U: expected +1 h1_0(x)h1_0 -1 h1_1(x)h1_0, "
                               "got +1 h0_0(x)h2_0 +1 h1_0(x)h1_0 -1 h1_1(x)h1_0")
