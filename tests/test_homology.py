"""Homology against a brute-force counting oracle; retraction identities."""
import random
from fractions import Fraction
from itertools import product

import pytest
import sdr_oracle
from hypothesis import given, settings
from hypothesis import strategies as st
from models import FIXTURES, fan_surface, fixture, grid_torus, identity_sdr, relabel, total_rank

from einfty import homology as homology_module
from einfty import intlinalg
from einfty.chains import ChainComplex, GradedOperator, tensor_compose
from einfty.errors import RelationViolation, TorsionPresent
from einfty.homology import SDR, build_sdr, homology, sdr_variant
from einfty.intlinalg import IntMatrix
from einfty.simplicial import normalized_chains, standard_simplex

FIXTURE_COMPLEXES = {name: normalized_chains(x) for name, x in FIXTURES.items()}

SYNTHETIC = {
    "times2": ChainComplex({0: ("x",), 1: ("y",)}, {1: IntMatrix.from_rows([[2]])}),
    "mixed": ChainComplex(
        {0: ("a", "b"), 1: ("c", "d"), 2: ("e",)},
        {1: IntMatrix.from_rows([[0, 0], [0, 0]]),
         2: IntMatrix.from_rows([[6], [0]])}),
    "acyclic": ChainComplex({0: ("x",), 1: ("y",)}, {1: IntMatrix.from_rows([[1]])}),
}


def count_homology_mod(c: ChainComplex, d: int, n: int) -> int:
    """|H_d(C; Z/n)| by literally enumerating cycles and boundaries."""
    rd = c.rank(d)
    out_mat = c.boundary_matrix(d)
    in_mat = c.boundary_matrix(d + 1)
    cycles = 0
    for vec in product(range(n), repeat=rd):
        if all(v % n == 0 for v in out_mat.apply(list(vec))):
            cycles += 1
    boundaries = set()
    for vec in product(range(n), repeat=c.rank(d + 1)):
        img = tuple(v % n for v in in_mat.apply(list(vec)))
        boundaries.add(img)
    return cycles // len(boundaries)


def predicted_order_mod(report, d: int, n: int) -> int:
    """Universal coefficients: |H_d (x) Z/n| * |Tor(H_{d-1}, Z/n)|."""
    from math import gcd
    order = n ** report.rank(d)
    for t in report.torsion_in(d):
        order *= gcd(t, n)
    for t in report.torsion_in(d - 1):
        order *= gcd(t, n)
    return order


def rational_rank(m: IntMatrix) -> int:
    rows = [[Fraction(v) for v in row] for row in m.to_rows()]
    r = 0
    for j in range(m.ncols):
        piv = next((i for i in range(r, m.nrows) if rows[i][j]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(m.nrows):
            if i != r and rows[i][j]:
                f = rows[i][j] / rows[r][j]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


@pytest.mark.parametrize("name", sorted(FIXTURE_COMPLEXES) + sorted(SYNTHETIC))
def test_homology_matches_counting_oracle(name):
    c = FIXTURE_COMPLEXES.get(name) or SYNTHETIC[name]
    assert total_rank(c) <= 12
    report = homology(c)
    degs = range(min(c.degrees()), max(c.degrees()) + 1)
    for d in degs:
        # free rank against fraction-free elimination
        expected_rank = c.rank(d) - rational_rank(c.boundary_matrix(d)) \
            - rational_rank(c.boundary_matrix(d + 1))
        assert report.rank(d) == expected_rank
        for n in (2, 3, 4, 5, 9):
            assert count_homology_mod(c, d, n) == predicted_order_mod(report, d, n)


def test_known_tables():
    assert homology(FIXTURE_COMPLEXES["circle"]).as_table() == {
        "0": {"rank": 1, "torsion": []}, "1": {"rank": 1, "torsion": []}}
    assert homology(FIXTURE_COMPLEXES["torus"]).as_table() == {
        "0": {"rank": 1, "torsion": []}, "1": {"rank": 2, "torsion": []},
        "2": {"rank": 1, "torsion": []}}
    assert homology(FIXTURE_COMPLEXES["rp2"]).as_table() == {
        "0": {"rank": 1, "torsion": []}, "1": {"rank": 0, "torsion": [2]}}


def test_representatives_are_cycles():
    for name, c in FIXTURE_COMPLEXES.items():
        report = homology(c)
        for d, reps in report.representatives.items():
            assert (c.boundary_matrix(d) @ reps).is_zero(), name


@pytest.mark.parametrize("name", ["circle", "wedge2", "wedge3", "sphere", "torus"])
def test_sdr_five_identities(name):
    sdr = build_sdr(FIXTURE_COMPLEXES[name])
    assert sdr.verify() == []


def test_sdr_matches_homology_basis():
    c = FIXTURE_COMPLEXES["torus"]
    report = homology(c)
    sdr = build_sdr(c)
    for d in sdr.retract.degrees():
        assert sdr.retract.rank(d) == report.rank(d)
        assert sdr.g.block(d) == report.representatives[d]
    assert not sdr.retract.boundary


def test_torsion_raises():
    with pytest.raises(TorsionPresent) as exc:
        build_sdr(FIXTURE_COMPLEXES["rp2"])
    assert exc.value.degree == 1 and exc.value.coefficient == 2


def test_acyclic_complex_sdr():
    sdr = build_sdr(SYNTHETIC["acyclic"])
    assert sdr.f.is_zero() and sdr.g.is_zero()
    assert sdr.verify() == []
    assert not sdr.h.is_zero()


def test_circle_sdr_is_identity():
    sdr = build_sdr(FIXTURE_COMPLEXES["circle"])
    assert sdr.h.is_zero()
    for d in (0, 1):
        assert sdr.f.block(d) == IntMatrix.identity(1)
        assert sdr.g.block(d) == IntMatrix.identity(1)


def test_identity_sdr_requires_zero_differential():
    with pytest.raises(ValueError):
        identity_sdr(SYNTHETIC["acyclic"])
    sdr = identity_sdr(FIXTURE_COMPLEXES["circle"])
    assert sdr.verify() == []


def test_gauge_variant_is_sdr_and_differs():
    c = FIXTURE_COMPLEXES["torus"]
    sdr = build_sdr(c)
    rng = random.Random(9)
    theta = {}
    for d in sdr.retract.degrees():
        m = IntMatrix(c.rank(d), sdr.retract.rank(d))
        for i in range(m.nrows):
            for j in range(m.ncols):
                m[i, j] = rng.randint(-2, 2)
        theta[d] = m
    v = sdr_variant(sdr, theta)
    assert v.verify() == []
    assert v.g != sdr.g or v.h != sdr.h


# -- each side condition caught and located -------------------------------------

def _plus(op, d, i, word):
    """``op`` with one more ``word`` in the image of basis element i of degree d."""
    return op + GradedOperator._adopt(op.source, op.target, op.arity, op.degree,
                                      {d: {i: {word: 1}}})


def _g_theta_f(sdr):
    """g theta f for the degree-1 map theta: h1_0 -> h2_0 of the retract."""
    theta = GradedOperator._adopt(sdr.retract, sdr.retract, 1, 1, {1: {0: {((2, 0),): 1}}})
    return tensor_compose([tensor_compose([sdr.g], theta)], sdr.f)


# (relation, complex, corruption of its retraction); h h = 0 needs h in two
# consecutive degrees, which the 2-simplex has and the torus does not
CORRUPTIONS = {
    "fg": ("f g = id_L", "torus", lambda r: SDR(r.f.scale(2), r.g, r.h)),
    "fg-g2": ("f g = id_L", "torus", lambda r: SDR(r.f, r.g.scale(2), r.h)),
    "gf": ("g f = id_K + d h + h d", "torus", lambda r: SDR(r.f, r.g, r.h.scale(2))),
    # h sends vertex 0 to edge 1; one more term edge 1 -> triangle
    "hh": ("h h = 0", "simplex2", lambda r: SDR(r.f, r.g, _plus(r.h, 1, 1, ((2, 0),)))),
    "fh": ("f h = 0", "torus", lambda r: SDR(r.f, r.g, r.h + _g_theta_f(r))),
    "hg": ("h g = 0", "torus", lambda r: SDR(r.f, r.g, r.h + _g_theta_f(r))),
}
CORRUPTED_COMPLEXES = {"torus": FIXTURE_COMPLEXES["torus"],
                       "simplex2": normalized_chains(standard_simplex(2))}


@pytest.mark.parametrize("case", list(CORRUPTIONS))
def test_sdr_verify_locates_each_failed_identity(case):
    relation, name, corrupt = CORRUPTIONS[case]
    sdr = corrupt(build_sdr(CORRUPTED_COMPLEXES[name]))
    bad = sdr.verify()
    assert relation in [b["relation"] for b in bad]
    for b in bad:
        d, element = b["degree"], b["element"]
        assert element in {str(label) for cx in (sdr.total, sdr.retract)
                           for label in cx.labels(d)}
        assert b["expected"] != b["actual"]
        assert b["detail"].startswith(f"degree {d}, {element}: expected ")


def test_sdr_verify_names_degree_element_and_both_sides():
    # doubling h breaks only g f = id + d h + h d: on edge a, g f a = -b + c
    # while a + 2 (d h + h d) a = -a - 2b + 2c
    sdr = build_sdr(FIXTURE_COMPLEXES["torus"])
    assert SDR(sdr.f, sdr.g, sdr.h.scale(2)).verify() == [{
        "relation": "g f = id_K + d h + h d",
        "detail": "degree 1, a: expected -1 a -2 b +2 c, got -1 b +1 c",
        "degree": 1, "element": "a",
        "expected": [[-1, "a"], [-2, "b"], [2, "c"]], "actual": [[-1, "b"], [1, "c"]]}]


def test_failed_sdr_construction_raises_relation_violation(monkeypatch):
    real = homology_module._degree_data

    def doubled_reps(c, x_transforms=("uinv",)):
        data = real(c, x_transforms)
        for info in data.values():
            info["reps"] = info["reps"].scale(2)
        return data

    monkeypatch.setattr(homology_module, "_degree_data", doubled_reps)
    with pytest.raises(RelationViolation) as err:
        build_sdr(FIXTURE_COMPLEXES["torus"])
    payload = err.value.payload()
    assert payload["relation"] == "f g = id_L"
    assert (payload["degree"], payload["element"]) == (0, "h0_0")
    assert (payload["expected"], payload["actual"]) == ([[1, "h0_0"]], [[2, "h0_0"]])


def test_gauge_twist_of_a_broken_sdr_raises_relation_violation():
    sdr = build_sdr(FIXTURE_COMPLEXES["torus"])
    broken = SDR(sdr.f, sdr.g, sdr.h.scale(2))
    with pytest.raises(RelationViolation) as err:
        sdr_variant(broken, {})
    assert err.value.payload()["relation"] == "g f = id_K + d h + h d"


# -- the retraction against the splitting-inverse oracle -----------------------

simplicial_models = st.one_of(
    st.builds(grid_torus, st.integers(2, 4)),
    st.builds(fan_surface, st.integers(1, 3)),
    st.sampled_from(["circle", "wedge2", "wedge3"]).map(fixture),
    st.builds(standard_simplex, st.integers(0, 4)),
).flatmap(lambda x: st.builds(relabel, st.just(x), st.integers(0, 2 ** 16)))


def _unimodular(draw, n: int) -> tuple[list[list[int]], list[list[int]]]:
    """A random unimodular n x n matrix and its inverse, as rows: a product
    of row swaps and elementary row additions."""
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    ginv = [row[:] for row in g]
    ops = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                  st.integers(-2, 2)), max_size=3 * n)) if n > 1 else []
    for i, j, q in ops:
        if i == j:
            continue
        if q == 0:
            g[i], g[j] = g[j], g[i]
            for row in ginv:
                row[i], row[j] = row[j], row[i]
        else:
            g[i] = [a + q * b for a, b in zip(g[i], g[j])]
            for row in ginv:
                row[j] -= q * row[i]
    return g, ginv


@st.composite
def based_complexes(draw, factors=(1, 2, 3, 6)):
    """A complex of elementary pieces Z --k--> Z and free Z, k drawn from
    ``factors``, seen through a random unimodular base change in every degree."""
    top = draw(st.integers(0, 3))
    pieces = [[]] + [draw(st.lists(st.sampled_from(factors), max_size=3)) for _ in range(top)]
    pieces.append([])
    free = [draw(st.integers(0, 2)) for _ in range(top + 1)]
    ranks = [len(pieces[d + 1]) + len(pieces[d]) + free[d] for d in range(top + 1)]
    # degree d lists the targets of pieces[d + 1], then the sources of pieces[d]
    change = [_unimodular(draw, n) for n in ranks]
    boundary = {}
    for d in range(1, top + 1):
        normal = IntMatrix(ranks[d - 1], ranks[d], {
            (p, len(pieces[d + 1]) + p): k for p, k in enumerate(pieces[d])})
        g_below = IntMatrix.from_rows(change[d - 1][0], ncols=ranks[d - 1])
        ginv = IntMatrix.from_rows(change[d][1], ncols=ranks[d])
        boundary[d] = g_below @ normal @ ginv
    basis = {d: tuple(f"e{d}_{i}" for i in range(n)) for d, n in enumerate(ranks)}
    return ChainComplex(basis, boundary)


def _assert_matches_oracle(c: ChainComplex) -> None:
    got, want = homology(c), sdr_oracle.homology(c)
    assert (got.free_rank, got.torsion) == (want.free_rank, want.torsion)
    assert got.representatives == want.representatives
    try:
        want = sdr_oracle.build_sdr(c)
    except TorsionPresent as exc:
        with pytest.raises(TorsionPresent) as raised:
            build_sdr(c)
        assert (raised.value.degree, raised.value.coefficient) == (exc.degree, exc.coefficient)
        return
    got = build_sdr(c)
    for name in ("f", "g", "h"):
        assert getattr(got, name).cols == getattr(want, name).cols, name


@settings(max_examples=40, deadline=None)
@given(simplicial_models)
def test_sdr_matches_oracle_on_simplicial_sets(x):
    _assert_matches_oracle(normalized_chains(x))


@settings(max_examples=150, deadline=None)
@given(based_complexes())
def test_sdr_matches_oracle_on_based_complexes(c):
    _assert_matches_oracle(c)


@settings(max_examples=60, deadline=None)
@given(based_complexes(factors=(1,)))
def test_sdr_matches_oracle_on_torsion_free_based_complexes(c):
    _assert_matches_oracle(c)


# -- factor once: counted Smith factorizations ----------------------------------

@pytest.mark.parametrize("c", [
    normalized_chains(relabel(grid_torus(3), 5)),
    FIXTURE_COMPLEXES["torus"],
    SYNTHETIC["acyclic"],
], ids=["grid3", "torus", "acyclic"])
def test_build_sdr_factors_each_boundary_once_and_one_x_per_degree(monkeypatch, c):
    calls = []
    real = intlinalg.smith

    def counting(m, *args, **kwargs):
        calls.append(m)
        return real(m, *args, **kwargs)

    monkeypatch.setattr(intlinalg, "smith", counting)
    monkeypatch.setattr(homology_module, "smith", counting)
    build_sdr(c)
    degs = c.degrees()
    boundaries = [c.boundary_matrix(d) for d in range(degs[0], degs[-1] + 2)]
    assert calls[:len(boundaries)] == boundaries
    # then one X per degree: the boundaries into d in kernel coordinates,
    # (rank d minus the rank of the boundary out of d) x (rank of the one in)
    rank = {d: real(m, ()).rank for d, m in zip(range(degs[0], degs[-1] + 2), boundaries)}
    assert [m.shape for m in calls[len(boundaries):]] == [
        (c.rank(d) - rank[d], rank[d + 1]) for d in degs]
