"""Homotopy transfer: relation verification, invariance data, comparison,
the table-driven transfer against the hand-written formulas of
``transfer_oracle.py``, and ``invariants.perturb`` against the chain-level
change it describes."""
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from models import FIXTURES, fan_surface, fixture, grid_torus, in_column_span, relabel
from structure_compare import compare_structures
from transfer_oracle import transfer as oracle_transfer

from einfty import invariants
from einfty.chains import GradedOperator, pruned, tensor_compose, transpose_swap, violation
from einfty.coalgebra import chain_structure
from einfty.errors import ShapeMismatch, TorsionPresent
from einfty.homology import build_sdr, sdr_variant
from einfty.intlinalg import IntMatrix
from einfty.simplicial import standard_simplex
from einfty.transfer import TransferPackage, transfer, transfer_step, verify_relations

TORSION_FREE = [name for name in FIXTURES if name != "rp2"]


def _package(name, max_k=3):
    s = chain_structure(FIXTURES[name], max_k)
    return transfer(s, build_sdr(s.complex))


@pytest.mark.parametrize("name", sorted(TORSION_FREE))
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


@pytest.mark.parametrize("name", ["m2_0", "m2_1", "m3_1", "f1", "f2_1", "f3_2"])
def test_missing_operator_is_reported(name):
    pkg = _package("torus")
    hat = {k: v for k, v in pkg.hat_ops.items() if k != name}
    morph = {k: v for k, v in pkg.morphism_ops.items() if k != name}
    label = f"hat {name} present" if name in pkg.hat_ops else f"F({name}) present"
    assert verify_relations(TransferPackage(pkg.source, pkg.sdr, hat, morph)) == [
        {"relation": label}]


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


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 4), st.none() | st.integers(0, 2 ** 16))
def test_transfer_reads_no_cup_above_m2_2(n, seed):
    # the f2_3 step reads m2_2 and nothing above, so the hat operators built
    # with m2_0..m2_2 equal those built with m2_3 and m2_4 as well
    x = grid_torus(n) if seed is None else relabel(grid_torus(n), seed)
    hats = []
    for k in (2, 3, 4):
        s = chain_structure(x, k)
        hats.append({name: (op.arity, op.degree, op.cols)
                     for name, op in transfer(s, build_sdr(s.complex)).hat_ops.items()})
    assert hats[0] == hats[1] == hats[2]


def test_f1_identity_is_located():
    # F(f1) = 2f: the identity F(f1) = f fails first, at the vertex
    pkg = _package("torus")
    morph = {**pkg.morphism_ops, "f1": pkg.sdr.f.scale(2)}
    bad = verify_relations(TransferPackage(pkg.source, pkg.sdr, pkg.hat_ops, morph))
    assert bad[0] == {"relation": "F(f1) = f",
                      "detail": "degree 0, v: expected +1 h0_0, got +2 h0_0",
                      "degree": 0, "element": "v",
                      "expected": [[1, "h0_0"]], "actual": [[2, "h0_0"]]}
    payload = violation(bad[0]).payload()
    assert (payload["error"], payload["relation"]) == ("RelationViolation", "F(f1) = f")
    assert (payload["degree"], payload["element"]) == (0, "v")


def test_hat_m2_2_symmetry_is_located():
    # h0_0 -> h1_0 (x) h1_1 has swap -h1_1 (x) h1_0; on H, d = 0, so only the
    # symmetry of hat m2_2 reads the extra term
    pkg = _package("torus")
    h, m22 = pkg.homology, pkg.hat_ops["m2_2"]
    extra = GradedOperator._adopt(h, h, 2, 2, {0: {0: {((1, 0), (1, 1)): 1}}})
    hat = {**pkg.hat_ops, "m2_2": m22 + extra}
    bad = verify_relations(TransferPackage(pkg.source, pkg.sdr, hat, pkg.morphism_ops))
    assert bad == [{"relation": "hat m2_2 = (-1)^2 sigma hat m2_2",
                    "detail": "degree 0, h0_0: expected -1 h1_1(x)h1_0, got +1 h1_0(x)h1_1",
                    "degree": 0, "element": "h0_0",
                    "expected": [[-1, "h1_1(x)h1_0"]], "actual": [[1, "h1_0(x)h1_1"]]}]
    assert violation(bad[0]).payload()["actual"] == [[1, "h1_0(x)h1_1"]]


@st.composite
def retracted_models(draw):
    """(structure, retraction) of a drawn model, relabelled or not, with a
    drawn gauge twist (theta entries in [-2, 2]) or none."""
    family, sizes = draw(st.sampled_from([(grid_torus, (2, 4)), (fan_surface, (1, 3)),
                                          (lambda n: fixture(("circle", "wedge2", "wedge3")[n - 1]),
                                           (1, 3)),
                                          (standard_simplex, (0, 4))]))
    x = family(draw(st.integers(*sizes)))
    seed = draw(st.none() | st.integers(0, 2 ** 16))
    if seed is not None:
        x = relabel(x, seed)
    s = chain_structure(x, 3)
    sdr = build_sdr(s.complex)
    if draw(st.booleans()):
        entries = st.integers(-2, 2)
        theta = {d: IntMatrix.from_rows(
                     [draw(st.lists(entries, min_size=sdr.retract.rank(d),
                                    max_size=sdr.retract.rank(d)))
                      for _ in range(s.complex.rank(d))], ncols=sdr.retract.rank(d))
                 for d in sdr.retract.degrees()}
        sdr = sdr_variant(sdr, theta)
    return s, sdr


@settings(max_examples=40, deadline=None)
@given(retracted_models())
def test_transfer_matches_oracle(model):
    s, sdr = model
    corrections = []
    real = invariants.normalizing_shift

    def spy(w):
        corrections.append(real(w))
        return corrections[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invariants, "normalizing_shift", spy)
        want = oracle_transfer(s, sdr)
        got = transfer(s, sdr)
    assert got.hat_ops == want.hat_ops
    assert got.morphism_ops == want.morphism_ops
    assert list(got.hat_ops) == list(want.hat_ops)
    assert list(got.morphism_ops) == list(want.morphism_ops)
    assert len(corrections) == 2 and corrections[0] == corrections[1]


def _failure(run):
    try:
        run()
    except Exception as exc:  # noqa: BLE001 -- the type itself is compared
        return type(exc), str(exc)
    raise AssertionError("expected an error")


@pytest.mark.parametrize("case", ["rp2", "foreign retraction"])
def test_transfer_errors_match_oracle(case):
    s = chain_structure(FIXTURES["rp2" if case == "rp2" else "torus"], 3)
    other = s.complex if case == "rp2" else chain_structure(FIXTURES["torus"], 3).complex
    got = _failure(lambda: transfer(s, build_sdr(other)))
    assert got == _failure(lambda: oracle_transfer(s, build_sdr(other)))
    assert got[0] is (TorsionPresent if case == "rp2" else ShapeMismatch)


CORRECTED = {"torus": lambda: fixture("torus"), "grid3": lambda: relabel(grid_torus(3), 5),
             "genus2": lambda: fan_surface(2)}


@lru_cache(maxsize=None)
def _transferred(name):
    s = chain_structure(CORRECTED[name](), 3)
    return transfer(s, build_sdr(s.complex))


def _shifted(name, nu, compensate=True, reclose=True):
    """The package of ``name`` with F(f2_1) += nu o f, hat m2_1 += nu - sigma
    nu and the f3_2 step run again, each of the last two optional."""
    pkg = _transferred(name)
    pkg = TransferPackage(pkg.source, pkg.sdr, dict(pkg.hat_ops), dict(pkg.morphism_ops))
    pkg.morphism_ops["f2_1"] = pkg.morphism_ops["f2_1"] + tensor_compose([nu], pkg.sdr.f)
    if compensate:
        pkg.hat_ops["m2_1"] = pkg.hat_ops["m2_1"] + nu - transpose_swap(nu)
    if reclose:
        pkg.morphism_ops["f3_2"] = transfer_step(pkg, "f3_2")
    return pkg


def _nu(h, coefficient):
    """An arity-2, degree-1 operator on h with every word of each source
    degree, (h0, h2) and (h2, h0) alike, weighted by ``coefficient()``."""
    cols = {}
    for d in h.degrees():
        words = [((e, i), (d + 1 - e, j)) for e in h.degrees()
                 for i in range(h.rank(e)) for j in range(h.rank(d + 1 - e))]
        cols[d] = {i: {w: coefficient() for w in words} for i in range(h.rank(d))}
    return GradedOperator._adopt(h, h, 2, 1, pruned(cols))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(CORRECTED)), st.data())
def test_chain_level_correction_keeps_every_relation(name, data):
    # the normalizing correction's shape with any nu, a right shift column
    # (words s_u (x) e_a next to e_a (x) s_u) included
    nu = _nu(_transferred(name).homology, lambda: data.draw(st.integers(-2, 2)))
    assert verify_relations(_shifted(name, nu)) == []


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(CORRECTED)), st.data())
def test_perturb_is_the_window_of_the_chain_level_change(name, data):
    nu = _nu(_transferred(name).homology, lambda: data.draw(st.integers(-2, 2)))
    got = invariants.perturb(invariants.window_from_package(_transferred(name)), nu.cols)
    want = invariants.window_from_package(_shifted(name, nu))
    assert (got.comul, got.sq, got.triple) == (want.comul, want.sq, want.triple)


def test_correction_needs_the_compensation_and_the_reclose():
    nu = _nu(_transferred("torus").homology, lambda: 1)
    assert verify_relations(_shifted("torus", nu)) == []
    bad = verify_relations(_shifted("torus", nu, reclose=False))
    assert [b["relation"] for b in bad] == ["[d, F(f3_2)] = df3_2 realized"]
    bad = verify_relations(_shifted("torus", nu, compensate=False))
    assert "[d, F(f2_2)] = df2_2 realized" in [b["relation"] for b in bad]
