"""The sparse window layer of ``einfty.invariants`` against the dense
reference code in ``window_oracle.py`` and ``massey_oracle.py``."""
import re
from itertools import combinations

import pytest
import window_oracle as oracle
from hypothesis import given, settings
from hypothesis import strategies as st
from massey_oracle import massey_invariant as oracle_massey_invariant
from models import fan_surface, fixture, grid_torus, identity_sdr, nu_columns, relabel

from einfty.chains import ChainComplex, GradedOperator, pruned
from einfty.coalgebra import chain_structure
from einfty.errors import EinftyError, RelationViolation
from einfty.homology import build_sdr
from einfty.intlinalg import IntMatrix, column_span_saturation
from einfty.invariants import (lie_lattice, massey_invariant, perturb, sq_dual_invariant,
                               sq_group, window_from_package)
from einfty.transfer import TransferPackage, transfer

COEFF = st.integers(-2, 2)


@pytest.mark.parametrize("m", range(8))
def test_lie_lattice_spans_match_oracle(m):
    deg2, span = oracle.lie_spans(m)
    lie = lie_lattice(m)
    assert lie.degree2 == deg2
    assert lie.degree3 == column_span_saturation(span)


@pytest.mark.parametrize("m", range(6))
def test_sq_group_matches_oracle(m):
    assert sq_group(m).relations == oracle.sq_group(m).relations


@pytest.mark.parametrize("x", [fixture("torus"), fixture("wedge2"), relabel(grid_torus(3), 7),
                               fan_surface(2)], ids=["torus", "wedge2", "grid3", "genus2"])
def test_window_from_package_matches_oracle_on_transfers(x):
    s = chain_structure(x, 3)
    pkg = transfer(s, build_sdr(s.complex))
    got, want = window_from_package(pkg), oracle.window_from_package(pkg)
    assert (got.comul, got.sq, got.triple) == (want.comul, want.sq, want.triple)


def _column(draw, m, arity, symmetry):
    """A column of the layer m^arity: for arity 2, symmetric (+1) or
    antisymmetric (-1) with one broken pair on some draws."""
    if arity == 3:
        col = [0] * m ** 3
        for i in range(m):
            for j, k in combinations(range(m), 2):
                c = draw(COEFF)
                b = oracle._bracket_with_left(m, i, oracle._bracket2(m, j, k))
                col = [x + c * y for x, y in zip(col, b)]
        if m and draw(st.booleans()):
            col[draw(st.integers(0, m ** 3 - 1))] += draw(COEFF)
        return col
    col = [0] * (m * m)
    for i in range(m):
        for j in range(i if symmetry == 1 else i + 1, m):
            c = draw(COEFF)
            col[i * m + j] = c
            col[j * m + i] = symmetry * c
    if m and draw(st.integers(0, 5)) == 0:
        col[draw(st.integers(0, m * m - 1))] += draw(st.integers(1, 2))
    return col


def _operator(h, arity, degree, cols, m, extra):
    """The homology operator with these window columns, plus ``extra``
    words that have a factor outside H1 and that the window must drop."""
    blocks = {}
    for col, vec in enumerate(cols):
        image = blocks[col] = {}
        for t, v in enumerate(vec):
            word = []
            for _ in range(arity):
                t, i = divmod(t, m)
                word.insert(0, (1, i))
            image[tuple(word)] = v
        for word, v in extra(col):
            image[word] = v
    return GradedOperator._adopt(h, h, arity, degree, pruned({degree: blocks}))


@st.composite
def packages(draw):
    """A homology-level package with a drawn window, m <= 4 and r <= 3;
    comul and sq columns are asymmetric on some draws, triple columns
    leave the bracket lattice on some draws."""
    m, r = draw(st.integers(0, 4)), draw(st.integers(0, 3))
    h = ChainComplex({0: ("p",), 1: [f"a{i}" for i in range(m)],
                      2: [f"s{u}" for u in range(r)]}, {})
    comul = [_column(draw, m, 2, -1) for _ in range(r)]
    sq = [_column(draw, m, 2, 1) for _ in range(m)]
    triple = [_column(draw, m, 3, 0) for _ in range(r)]
    unit = draw(COEFF)
    hat = {"m2_0": _operator(h, 2, 2, comul, m,
                             lambda u: [(((0, 0), (2, u)), unit), (((2, u), (0, 0)), unit)]),
           "m2_1": _operator(h, 2, 1, sq, m, lambda a: []),
           "m3_1": _operator(h, 3, 2, triple, m,
                             lambda u: [(((0, 0), (1, 0), (2, u)), unit)] if m else [])}
    return TransferPackage(None, identity_sdr(h), hat, {})


# the relation each block's symmetry check names, and the sign of the swap
SYMMETRY = {"comul": ("hat m2_0 = sigma hat m2_0", -1), "sq": ("hat m2_1 = -sigma hat m2_1", 1)}


def _oracle_failure(message: str) -> tuple[str, str]:
    """The reference's "comul column 0 is not antisymmetric" as the relation
    and element of a located record."""
    block, col = re.search(r"(comul|sq) column (\d+)", message).groups()
    return SYMMETRY[block][0], f"#{col}"


def _assert_located(w, record):
    # the record's actual image is the failing column, its expected image
    # the column swapped and signed, independently of the reference
    block = "comul" if record["degree"] == 2 else "sq"
    m, sign = w.h1_rank, SYMMETRY[block][1]
    vec = getattr(w, block).column(int(record["element"][1:]))
    pairs = [(i, j) for i in range(m) for j in range(m)]
    assert record["actual"] == [[vec[i * m + j], f"#{i}(x)#{j}"] for i, j in pairs
                                if vec[i * m + j]]
    assert record["expected"] == [[sign * vec[j * m + i], f"#{i}(x)#{j}"] for i, j in pairs
                                  if vec[j * m + i]]


def _same_class(got_fn, want_fn, w):
    try:
        want = want_fn(w)
    except RelationViolation as exc:
        with pytest.raises(RelationViolation) as info:
            got_fn(w)
        got = info.value.payload()
        assert (got["relation"], got["element"]) == _oracle_failure(str(exc))
        _assert_located(w, got)
        return
    except EinftyError as exc:
        with pytest.raises(type(exc)) as info:
            got_fn(w)
        assert str(info.value) == str(exc)
        return
    got = got_fn(w)
    assert got.representative == want.representative
    assert got.group.relations == want.group.relations
    assert got.group.invariants() == want.group.invariants()
    assert got.is_zero() == want.is_zero()


def _sparse(draw, nrows, ncols):
    return IntMatrix(nrows, ncols, {(i, j): draw(COEFF) for i in range(nrows)
                                    for j in range(ncols) if draw(st.integers(0, 3)) == 0})


@settings(max_examples=60, deadline=None)
@given(packages(), st.data())
def test_window_layer_matches_oracle(pkg, data):
    w = window_from_package(pkg)
    want = oracle.window_from_package(pkg)
    assert (w.comul, w.sq, w.triple) == (want.comul, want.sq, want.triple)
    bad = w.validate()
    assert [(r["relation"], r["element"]) for r in bad] == list(map(_oracle_failure,
                                                                    oracle.validate(w)))
    for record in bad:
        _assert_located(w, record)
    _same_class(sq_dual_invariant, oracle.sq_dual_invariant, w)
    _same_class(massey_invariant, oracle_massey_invariant, w)
    m, r = w.h1_rank, w.h2_rank
    nu, gamma = _sparse(data.draw, m * m, m), _sparse(data.draw, m * r, r)
    got, want = perturb(w, nu_columns(m, nu, r, gamma)), oracle.perturb_triple(w, nu, gamma)
    assert (got.comul, got.triple) == (want.comul, want.triple)
    swapped = {((ij % m) * m + ij // m, a): v for (ij, a), v in nu.data.items()}
    assert got.sq == w.sq - nu - IntMatrix(m * m, m, swapped)
