"""Acceptance suite: every exit criterion at its stated tolerance.

All algebraic identities are exact integer equalities (no tolerances); the
only numeric bounds are the stated wall-clock limits.  Each criterion
prints one PASS line when it holds, so `pytest -s tests/test_acceptance.py`
reads as a checklist.
"""
import random
import time
from itertools import product

from models import FIXTURES, element_arity, element_degree, nu_columns, total_rank

from einfty.chains import bracket_d, compose_slot, identity_operator, tensor_compose, transpose_swap
from einfty.cobar import build_cobar, check_d_squared_cobar, gr_h0_ranks
from einfty.coalgebra import chain_structure, reduce_structure
from einfty.errors import TorsionPresent
from einfty.formats import fixture_path, load_structure_fixture
from einfty.homology import build_sdr, homology, sdr_variant
from einfty.intlinalg import IntMatrix
from einfty.invariants import (class_equals, lie_lattice, massey_invariant,
                               perturb, sq_dual_invariant, window_from_package)
from einfty.operads import (check_d_squared, compose_i, differential, el_add,
                            el_scale, generator, single)
from einfty.simplicial import normalized_chains
from einfty.transfer import transfer, verify_relations

TORSION_FREE = ["point", "circle", "wedge2", "wedge3", "sphere", "torus"]


def _report(criterion: str):
    print(f"PASS {criterion}")


def test_criterion_1_exact_structural_identities():
    """d^2 = 0, chain map, coassociativity, counit, cup ladders k <= 2."""
    t0 = time.time()
    for name, x in FIXTURES.items():
        s = chain_structure(x, 3)
        c = s.complex
        for d in c.boundary:
            assert (c.boundary_matrix(d - 1) @ c.boundary_matrix(d)).is_zero()
        d0 = s.op("m2_0")
        assert bracket_d(d0).is_zero(), f"{name}: diagonal not a chain map"
        assert compose_slot(d0, d0, 1) == compose_slot(d0, d0, 2), name
        ident = identity_operator(c)
        assert tensor_compose([s.op("p"), ident], d0) == ident, name
        assert tensor_compose([ident, s.op("p")], d0) == ident, name
        for k in range(0, 3):
            lhs = bracket_d(s.op(f"m2_{k + 1}"))
            rhs = s.op(f"m2_{k}") - transpose_swap(s.op(f"m2_{k}")).scale(
                -1 if k % 2 else 1)
            assert lhs == rhs, f"{name}: ladder k={k}"
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    _report(f"criterion 1: exact structural identities on all fixtures "
            f"({elapsed:.2f}s)")


def test_criterion_2_symbolic_operad_consistency():
    """d o d = 0 through arity 5 / degree 4; Leibniz on random composites."""
    t0 = time.time()
    report = check_d_squared(5, 4)
    assert all(r["ok"] for r in report), [r for r in report if not r["ok"]]
    covered = {r["generator"] for r in report}
    assert {"m2_4", "m3_4", "f2_4", "f3_2", "d4", "d5"} <= covered
    rng = random.Random(2024)
    pool = ["m2_0", "m2_1", "m2_2", "m2_3", "m3_1", "m3_2", "f1", "f2_1", "f2_2"]
    done = 0
    while done < 60:
        xn, yn = rng.choice(pool), rng.choice(pool)
        if generator(xn).kind == "bimodule" and generator(yn).kind == "bimodule":
            continue
        x, y = single(xn), single(yn)
        i = rng.randint(1, element_arity(y))
        sgn = -1 if (element_degree(x) or 0) % 2 else 1
        lhs = differential(compose_i(x, y, i))
        rhs = el_add(compose_i(differential(x), y, i),
                     el_scale(compose_i(x, differential(y), i), sgn))
        assert lhs == rhs, (xn, yn, i)
        done += 1
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.1f}s"
    _report(f"criterion 2: symbolic consistency, {len(report)} generators, "
            f"60 Leibniz composites ({elapsed:.2f}s)")


def test_criterion_3_sdr_suite():
    """Five identities on circle/wedge/sphere/torus; torsion raises on rp2."""
    for name in ("circle", "wedge2", "wedge3", "sphere", "torus"):
        sdr = build_sdr(normalized_chains(FIXTURES[name]))
        assert sdr.verify() == [], name
    try:
        build_sdr(normalized_chains(FIXTURES["rp2"]))
        raise AssertionError("rp2 must refuse a retraction onto free homology")
    except TorsionPresent as exc:
        assert exc.coefficient == 2 and exc.degree == 1
    _report("criterion 3: retraction identities exact; torsion coefficient 2 "
            "detected on the projective plane")


def test_criterion_4_transfer_relation_suite():
    """verify_relations empty; torus comultiplication generates the wedge square."""
    for name in TORSION_FREE:
        s = chain_structure(FIXTURES[name], 3)
        pkg = transfer(s, build_sdr(s.complex))
        assert verify_relations(pkg) == [], name
    s = chain_structure(FIXTURES["torus"], 3)
    pkg = transfer(s, build_sdr(s.complex))
    img = pkg.hat_ops["m2_0"].image_of(2, 0)
    window = {w: c for c, w in img if all(e == 1 for e, _ in w)}
    assert window in ({((1, 0), (1, 1)): 1, ((1, 1), (1, 0)): -1},
                      {((1, 0), (1, 1)): -1, ((1, 1), (1, 0)): 1}), window
    _report("criterion 4: transfer relations verified; torus H2 generator "
            "maps to a commutator generator a(x)b - b(x)a")


def test_criterion_5_cobar_graded_ranks():
    """Group-algebra gradeds of F2, F3, Z^2, and the trivial group."""
    expected = {
        "wedge2": (4, [1, 2, 4, 8]),
        "wedge3": (4, [1, 3, 9, 27]),
        "torus": (4, [1, 2, 3, 4]),
        "sphere": (3, [1, 0, 0]),
    }
    for name, (n, ranks) in expected.items():
        t0 = time.time()
        red = reduce_structure(chain_structure(FIXTURES[name], 3))
        t = build_cobar(red, n)
        assert check_d_squared_cobar(t) == [], name
        got = gr_h0_ranks(t)
        assert [p["rank"] for p in got] == ranks, (name, got)
        assert all(p["torsion"] == [] for p in got), name
        elapsed = time.time() - t0
        assert elapsed < 60.0, f"{name} cobar took {elapsed:.1f}s"
    _report("criterion 5: cobar graded ranks match Z[F2], Z[F3], Z[Z^2], Z[1]")


def test_criterion_6_invariant_well_definedness():
    """Equality across independent retractions; 100 admissible perturbations."""
    for name in ("torus", "wedge2", "wedge3"):
        s = chain_structure(FIXTURES[name], 3)
        sdr = build_sdr(s.complex)
        pkg = transfer(s, sdr)
        sq0 = sq_dual_invariant(window_from_package(pkg))
        ma0 = massey_invariant(window_from_package(pkg))
        rng = random.Random(hash(name) & 0xFFFF)
        for _ in range(2):
            theta = {}
            for d in pkg.homology.degrees():
                m = IntMatrix(s.complex.rank(d), pkg.homology.rank(d))
                for i, j in product(range(m.nrows), range(m.ncols)):
                    m[i, j] = rng.randint(-2, 2)
                theta[d] = m
            pkg2 = transfer(s, sdr_variant(sdr, theta))
            assert class_equals(sq_dual_invariant(window_from_package(pkg2)), sq0), name
            assert class_equals(massey_invariant(window_from_package(pkg2)), ma0), name
    # property test: 100 random admissible perturbations of the triple window
    base = load_structure_fixture(fixture_path("borromean"))
    cls = massey_invariant(base)
    lat = lie_lattice(base.h1_rank)
    rng = random.Random(99)
    m, r = base.h1_rank, base.h2_rank
    for _ in range(100):
        nu = IntMatrix(m * m, m)
        for j in range(m):
            for w_idx in range(lat.rank2):
                coeff = rng.randint(-2, 2)
                if coeff:
                    for i, v in enumerate(lat.degree2.column(w_idx)):
                        nu[i, j] = nu[i, j] + coeff * v
        gamma = IntMatrix(m * r, r)
        for i, j in product(range(m * r), range(r)):
            gamma[i, j] = rng.randint(-2, 2)
        moved = perturb(base, nu_columns(m, nu, r, gamma))
        assert class_equals(massey_invariant(moved), cls)
    _report("criterion 6: invariants stable across retractions and under "
            "100 admissible perturbations")


def test_criterion_7_discrimination():
    """Nonzero Borromean-type class vs zero class over identical data."""
    bor = load_structure_fixture(fixture_path("borromean"))
    zero = load_structure_fixture(fixture_path("zero"))
    assert (bor.h1_rank, bor.h2_rank) == (zero.h1_rank, zero.h2_rank)
    assert bor.comul.is_zero() and zero.comul.is_zero()
    cb = massey_invariant(bor)
    cz = massey_invariant(zero)
    assert not cb.is_zero()
    assert cz.is_zero()
    assert not class_equals(cb, cz)
    _report("criterion 7: Borromean-type class distinguished from zero over "
            "identical (H1, H2, comul = 0) data")


def test_criterion_8_oracle_equivalence():
    """SNF homology vs counting enumeration; bracket lattice dimensions."""
    from math import gcd

    def count_mod(c, d, n):
        out_mat = c.boundary_matrix(d)
        in_mat = c.boundary_matrix(d + 1)
        cycles = sum(1 for vec in product(range(n), repeat=c.rank(d))
                     if all(v % n == 0 for v in out_mat.apply(list(vec))))
        boundaries = {tuple(v % n for v in in_mat.apply(list(vec)))
                      for vec in product(range(n), repeat=c.rank(d + 1))}
        return cycles // len(boundaries)

    for name, x in FIXTURES.items():
        c = normalized_chains(x)
        assert total_rank(c) <= 12, name
        rep = homology(c)
        for d in range(min(c.degrees()), max(c.degrees()) + 1):
            for n in (2, 3, 4, 5):
                predicted = n ** rep.rank(d)
                for t in rep.torsion_in(d) + rep.torsion_in(d - 1):
                    predicted *= gcd(t, n)
                assert count_mod(c, d, n) == predicted, (name, d, n)
    for m in range(6):
        assert lie_lattice(m).rank3 == m * (m * m - 1) // 3
    _report("criterion 8: homology agrees with brute-force enumeration mod "
            "2,3,4,5; bracket lattice ranks match m(m^2-1)/3 for m <= 5")
