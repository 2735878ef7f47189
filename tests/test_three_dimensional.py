"""Nothing may hardcode dimension two: a 3-simplex and a 3-sphere model."""
from einfty.chains import bracket_d, transpose_swap
from einfty.cobar import build_cobar, check_d_squared_cobar, gr_h0_ranks
from einfty.coalgebra import chain_structure, reduce_structure
from einfty.homology import build_sdr, homology
from einfty.simplicial import FaceRef, SimplicialSet, standard_simplex
from einfty.transfer import transfer, verify_relations


def three_sphere():
    """One vertex and one 3-simplex with all faces degenerate."""
    f = FaceRef((1, 0), "v")
    return SimplicialSet({0: ["v"], 3: ["W"]}, {"W": (f, f, f, f)})


def test_standard_three_simplex_pipeline():
    x = standard_simplex(3)
    s = chain_structure(x, 3)  # relation checks exercise dimension-3 tables
    for k in range(0, 3):
        lhs = bracket_d(s.op(f"m2_{k + 1}"))
        rhs = s.op(f"m2_{k}") - transpose_swap(s.op(f"m2_{k}")).scale(
            -1 if k % 2 else 1)
        assert lhs == rhs
    pkg = transfer(s, build_sdr(s.complex))
    assert verify_relations(pkg) == []
    assert {d: pkg.homology.rank(d) for d in pkg.homology.degrees()} == {0: 1}


def test_three_sphere_model():
    x = three_sphere()
    assert x.validate() == []
    s = chain_structure(x, 3)
    rep = homology(s.complex)
    assert rep.as_table() == {"0": {"rank": 1, "torsion": []},
                              "3": {"rank": 1, "torsion": []}}
    pkg = transfer(s, build_sdr(s.complex))
    assert verify_relations(pkg) == []
    t = build_cobar(reduce_structure(s), 3)
    assert check_d_squared_cobar(t) == []
    assert [p["rank"] for p in gr_h0_ranks(t)] == [1, 0, 0]
