"""Reference oracle for the window layer of ``einfty.invariants`` and
``einfty.transfer``.

The code below is how the package built the Massey presentation and the
normalizing correction before both were written sparse: ``delta_map``
accumulates dense cube columns, ``massey_group`` runs one lattice solve per
basis map H1 -> [H1, H1] and assembles dense relation columns, and
``normalizing_correction`` decodes the comul and triple windows itself,
widens its shift matrix one ``hstack`` at a time and factors it again for
every H2 generator outside the bracket lattice.  ``massey_invariant`` is the
class built from the dense presentation and the dense window checks of
``window_oracle.py``.  ``tests/test_massey_oracle.py`` and
``tests/test_window_oracle.py`` require the package's versions to give the
same matrices, operators and classes.
"""
from __future__ import annotations

from einfty.chains import GradedOperator, pruned
from einfty.errors import NotNormalizable, RelationViolation, ShapeMismatch
from einfty.intlinalg import IntMatrix, column_vector, solve
from einfty.invariants import FpAbelianGroup, InvariantClass, lie_lattice
from window_oracle import _bracket_with_left, validate


def delta_map(comul: IntMatrix, nu: IntMatrix, m: int) -> IntMatrix:
    """delta nu on H2: s -> (nu (x) 1 + 1 (x) nu) comul(s), in cube coords.

    ``nu`` is H1 -> H1 (x) H1 given as an m^2 x m matrix; the plus sign on
    the second term is the Koszul sign of moving the odd nu past an odd
    factor.  Columns of the result land inside the degree-3 bracket lattice
    whenever nu takes bracket values and comul is antisymmetric.
    """
    if nu.shape != (m * m, m) or comul.nrows != m * m:
        raise ShapeMismatch("delta_map shapes inconsistent")
    r = comul.ncols
    out = IntMatrix(m ** 3, r)
    for s in range(r):
        acc = [0] * (m ** 3)
        col = comul.column(s)
        for jk, c in enumerate(col):
            if not c:
                continue
            j, k = divmod(jk, m)
            for ab, v in enumerate(nu.column(j)):
                if v:
                    acc[ab * m + k] += c * v
            for ab, v in enumerate(nu.column(k)):
                if v:
                    acc[j * m * m + ab] += c * v
        for t, v in enumerate(acc):
            if v:
                out[t, s] = v
    return out


def massey_group(m: int, r: int, comul: IntMatrix) -> FpAbelianGroup:
    """Presentation of Hom(H2, L3/[H1, comul(H2)]) / delta Hom(H1, [H1,H1])."""
    lie = lie_lattice(m)
    ambient = r * lie.rank3
    rel_cols: list[list[int]] = []
    # [H1, comul(H2)] in every H2 slot: the denominator brackets against the
    # image of the whole second homology, independently of the slot
    brackets = IntMatrix.from_columns(
        [_bracket_with_left(m, i, comul.column(u)) for u in range(r) for i in range(m)],
        nrows=m ** 3)
    coords = lie.degree3_smith.solve(brackets)
    if coords is None:
        raise AssertionError("bracket with comul image left the lattice")
    for s in range(r):
        for c in coords.columns():
            col = [0] * ambient
            col[s * lie.rank3:(s + 1) * lie.rank3] = c
            if any(col):
                rel_cols.append(col)
    # delta of every basis map H1 -> [H1, H1]
    for a in range(m):
        for w_idx in range(lie.rank2):
            nu = IntMatrix(m * m, m)
            for i, v in enumerate(lie.degree2.column(w_idx)):
                if v:
                    nu[i, a] = v
            coords = lie.degree3_smith.solve(delta_map(comul, nu, m))
            if coords is None:
                raise AssertionError("delta image left the bracket lattice")
            col = [0] * ambient
            for (t, s), v in coords.data.items():
                col[s * lie.rank3 + t] = v
            if any(col):
                rel_cols.append(col)
    relations = IntMatrix.from_columns(rel_cols, nrows=ambient)
    return FpAbelianGroup(ambient, relations)


def massey_invariant(w) -> InvariantClass:
    """Class of the arity-3 window in the displayed quotient group."""
    m, r = w.h1_rank, w.h2_rank
    bad = [msg for msg in validate(w) if msg.startswith("comul")]
    if bad:
        raise RelationViolation("hat m2_0 = sigma hat m2_0", bad[0])
    lie = lie_lattice(m)
    coords = lie.degree3_smith.solve(w.triple)
    if coords is None:
        s = next(s for s in range(r)
                 if lie.degree3_smith.solve(column_vector(w.triple.column(s))) is None)
        raise NotNormalizable(f"H2 generator #{s}")
    rep = [0] * (r * lie.rank3)
    for (t, s), v in coords.data.items():
        rep[s * lie.rank3 + t] = v
    return InvariantClass(massey_group(m, r, w.comul), tuple(rep))


def normalizing_correction(hat: dict[str, GradedOperator]) -> GradedOperator | None:
    """A mixed-component correction pushing the triple window into brackets.

    The freedom used is the one the relation list leaves open: for any nu of
    arity 2 and degree 1 on homology, replacing the binary morphism component
    by (old + nu o f) and the degree-1 coproduct by (old + nu - sigma nu)
    conforms, and shifts the H2 -> H1^3 window by combinations of
    comul(s') (x) x and x (x) comul(s').  Solving integrally for such a
    combination lands the window inside the degree-3 bracket lattice whenever
    possible; None means either nothing to do or no integral solution (the
    class is then honestly not defined for this package).
    """
    h_cx = hat["m2_0"].source
    m, r = h_cx.rank(1), h_cx.rank(2)
    if m == 0 or r == 0:
        return None
    comul_cols = []
    for u in range(r):
        col = [0] * (m * m)
        for coeff, word in hat["m2_0"].image_of(2, u):
            if all(e == 1 for e, _ in word):
                (_, i), (_, j) = word
                col[i * m + j] = coeff
        comul_cols.append(col)
    lie = lie_lattice(m)
    # shift generators: comul(s_u) (x) e_a and e_a (x) comul(s_u)
    shifts = []
    shift_tags = []
    for u in range(r):
        w = comul_cols[u]
        for a in range(m):
            left = [0] * (m ** 3)
            right = [0] * (m ** 3)
            for jk, c in enumerate(w):
                if c:
                    left[jk * m + a] += c
                    right[a * m * m + jk] += c
            shifts.append(left)
            shift_tags.append(("left", u, a))
            shifts.append(right)
            shift_tags.append(("right", u, a))
    if not shifts:
        return None
    basis = lie.degree3
    cols = basis
    for s in shifts:
        cols = cols.hstack(IntMatrix.from_columns([s], nrows=m ** 3))
    nu_entries: dict[tuple[int, int], int] = {}
    needed = False
    for s in range(r):
        mu = [0] * (m ** 3)
        for coeff, word in hat["m3_1"].image_of(2, s):
            if all(e == 1 for e, _ in word):
                (_, i), (_, j), (_, k) = word
                mu[(i * m + j) * m + k] = coeff
        vec = IntMatrix.from_columns([mu], nrows=m ** 3)
        if lie.degree3_smith.solve(vec) is not None:
            continue
        sol = solve(cols, vec)
        if sol is None:
            return None
        needed = True
        for t, tag in enumerate(shift_tags):
            y = sol[basis.ncols + t, 0]
            if not y:
                continue
            side, u, a = tag
            # Delta mu = +comul(s') (x) x on the s'-(x)-x part of nu and
            # -x (x) comul(s') on the x-(x)-s' part; subtract the found
            # combination.
            if side == "left":
                nu_entries[("sx", s, u, a)] = nu_entries.get(("sx", s, u, a), 0) - y
            else:
                nu_entries[("xs", s, u, a)] = nu_entries.get(("xs", s, u, a), 0) + y
    if not needed or not nu_entries:
        return None
    block: dict[int, dict] = {}
    for (kind, s, u, a), val in nu_entries.items():
        word = ((2, u), (1, a)) if kind == "sx" else ((1, a), (2, u))
        col = block.setdefault(s, {})
        col[word] = col.get(word, 0) + val
    return GradedOperator._adopt(h_cx, h_cx, 2, 1, pruned({2: block}))
