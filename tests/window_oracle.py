"""Reference oracle for the H1/H2 window code of ``einfty.invariants``.

The code below is how the package built the window layer before it was
written sparse: brackets as dense lists (``_bracket2``, ``_bracket_with_left``),
the spans that ``lie_lattice`` saturates, the Sq presentation through dense
symmetric coordinates, the symmetry checks of ``InvariantWindow.validate``
over dense columns, one extraction loop per window block in
``window_from_package``, and, as ``perturb_triple``, the move of the triple
window by (nu, gamma) over dense columns of gamma and comul that the package
had before ``invariants.perturb``.  ``tests/test_window_oracle.py`` requires
the package's versions to give the same messages, matrices and classes.
"""
from __future__ import annotations

from itertools import combinations

from einfty.errors import RelationViolation, ShapeMismatch
from einfty.intlinalg import IntMatrix
from einfty.invariants import (FpAbelianGroup, InvariantClass, InvariantWindow,
                               delta_map)


def _bracket2(m: int, i: int, j: int) -> list[int]:
    v = [0] * (m * m)
    v[i * m + j] += 1
    v[j * m + i] -= 1
    return v


def _bracket_with_left(m: int, i: int, w: list[int]) -> list[int]:
    """[e_i, w] = e_i (x) w - w (x) e_i for w in the square tensor layer."""
    out = [0] * (m ** 3)
    for jk, c in enumerate(w):
        if not c:
            continue
        out[i * m * m + jk] += c
        out[jk * m + i] -= c
    return out


def lie_spans(m: int) -> tuple[IntMatrix, IntMatrix]:
    """The degree-2 basis and the degree-3 span before saturation, as
    ``lie_lattice`` built them."""
    deg2 = IntMatrix.from_columns(
        [_bracket2(m, i, j) for i, j in combinations(range(m), 2)], nrows=m * m)
    spans = []
    for i in range(m):
        for j, k in combinations(range(m), 2):
            spans.append(_bracket_with_left(m, i, _bracket2(m, j, k)))
    span = IntMatrix.from_columns(spans, nrows=m ** 3)
    return deg2, span


def validate(window: InvariantWindow) -> list[str]:
    m = window.h1_rank
    bad = []
    for col, vec in enumerate(window.comul.columns()):
        if any(vec[i * m + j] != -vec[j * m + i] for i in range(m) for j in range(m)):
            bad.append(f"comul column {col} is not antisymmetric")
            break
    for col, vec in enumerate(window.sq.columns()):
        if any(vec[i * m + j] != vec[j * m + i] for i in range(m) for j in range(m)):
            bad.append(f"sq column {col} is not symmetric")
            break
    return bad


def window_from_package(pkg) -> InvariantWindow:
    """Extract the H1/H2 window from a transfer package."""
    h = pkg.homology
    m, r = h.rank(1), h.rank(2)
    comul = IntMatrix(m * m, r)
    for col in range(r):
        for coeff, word in pkg.hat_ops["m2_0"].image_of(2, col):
            if all(e == 1 for e, _ in word):
                (_, i), (_, j) = word
                comul[i * m + j, col] = coeff
    sq = IntMatrix(m * m, m)
    for col in range(m):
        for coeff, word in pkg.hat_ops["m2_1"].image_of(1, col):
            if all(e == 1 for e, _ in word):
                (_, i), (_, j) = word
                sq[i * m + j, col] = coeff
    triple = IntMatrix(m ** 3, r)
    for col in range(r):
        for coeff, word in pkg.hat_ops["m3_1"].image_of(2, col):
            if all(e == 1 for e, _ in word):
                (_, i), (_, j), (_, k) = word
                triple[(i * m + j) * m + k, col] = coeff
    return InvariantWindow(m, r, comul, sq, triple)


def _sym_basis(m: int) -> list[tuple[int, int]]:
    return [(i, i) for i in range(m)] + list(combinations(range(m), 2))


def _sym_coords(m: int, vec: list[int]) -> list[int]:
    coords = []
    for i, j in _sym_basis(m):
        coords.append(vec[i * m + j])
    return coords


def sq_group(m: int) -> FpAbelianGroup:
    """Hom(H1, ker(1 + sigma)) modulo {f - sigma f}, presented explicitly."""
    basis = _sym_basis(m)
    nsym = len(basis)
    ambient = m * nsym
    rel_cols = []
    for a in range(m):
        for i in range(m):
            for j in range(i, m):
                vec = [0] * (m * m)
                vec[i * m + j] += 1
                vec[j * m + i] += 1
                col = [0] * ambient
                sym = _sym_coords(m, vec)
                for t, v in enumerate(sym):
                    col[a * nsym + t] = v
                rel_cols.append(col)
    return FpAbelianGroup(ambient, IntMatrix.from_columns(rel_cols, nrows=ambient))


def sq_dual_invariant(w: InvariantWindow) -> InvariantClass:
    """Class of the degree-1 binary component on H1."""
    m = w.h1_rank
    bad = [msg for msg in validate(w) if msg.startswith("sq")]
    if bad:
        raise RelationViolation("hat m2_1 = -sigma hat m2_1", bad[0])
    basis = _sym_basis(m)
    nsym = len(basis)
    rep = [0] * (m * nsym)
    for a, col in enumerate(w.sq.columns()):
        for t, v in enumerate(_sym_coords(m, col)):
            rep[a * nsym + t] = v
    return InvariantClass(sq_group(m), tuple(rep))


def perturb_triple(window: InvariantWindow, nu: IntMatrix,
                   gamma: IntMatrix) -> InvariantWindow:
    """triple += sum_{gamma} [e_a, comul(s_u)] - delta nu."""
    m, r = window.h1_rank, window.h2_rank
    if nu.shape != (m * m, m) or gamma.shape != (m * r, r):
        raise ShapeMismatch("perturbation shapes inconsistent")
    shift = delta_map(window.comul, nu, m).scale(-1)
    for s in range(r):
        for au, v in enumerate(gamma.column(s)):
            if not v:
                continue
            a, u = divmod(au, r)
            vec = _bracket_with_left(m, a, window.comul.column(u))
            for t, val in enumerate(vec):
                if val:
                    shift[t, s] = shift[t, s] + v * val
    return InvariantWindow(m, r, window.comul, window.sq,
                           window.triple + shift)
