"""Invariant classes extracted from a transferred structure.

Everything happens in the window spanned by the first and second homology:
H1 carries odd degree and H2 even degree, and after forgetting the grading
the relevant components become

    comul:  H2 -> [H1, H1]          (antisymmetric by the verified symmetry)
    sq:     H1 -> symmetric tensors (the degree-1 binary component)
    triple: H2 -> H1 (x) H1 (x) H1  (the arity-3 component)

``sq_dual_invariant`` is the class of sq in Hom(H1, Sym) / {f + swap f};
``massey_invariant`` is the class of triple in

    Hom(H2, L3 / [H1, comul(H2)]) / delta Hom(H1, [H1, H1]),

where L3 is the degree-3 bracket lattice (the primitive closure of all
left-normed brackets) and delta nu = (nu (x) 1) comul + (1 (x) nu) comul,
the sign on the second term having been absorbed by the odd degree of H1.
The presentation is written entry by entry into one sparse relation matrix,
and the L3 coordinates of all brackets, then of all delta images, each come
from one multi-column solve against the one factorization of L3.
Quotients, memberships and equality of classes are all decided by Smith
reduction -- nothing is computed modulo a prime.
"""
from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations

from .errors import GroupMismatch, NotNormalizable, RelationViolation, ShapeMismatch
from .intlinalg import (IntMatrix, SmithForm, column_span_saturation, column_vector,
                        smith)


class FpAbelianGroup:
    """Cokernel presentation: Z^ambient_rank modulo the column span."""

    def __init__(self, ambient_rank: int, relations: IntMatrix):
        if relations.nrows != ambient_rank:
            raise ShapeMismatch("relation matrix does not match ambient rank")
        self.ambient_rank = ambient_rank
        self.relations = relations

    @cached_property
    def factored(self) -> SmithForm:
        """Smith factorization of the relations, built once per group and
        read by both ``invariants`` and ``is_zero_class``."""
        return smith(self.relations, ("u", "v"))

    def invariants(self) -> tuple[int, list[int]]:
        return self.factored.cokernel()

    def same_presentation(self, other: "FpAbelianGroup") -> bool:
        return (self.ambient_rank == other.ambient_rank
                and self.relations.data == other.relations.data
                and self.relations.ncols == other.relations.ncols)

    def is_zero_class(self, vec: list[int]) -> bool:
        return self.factored.solve(column_vector(vec)) is not None

    def describe(self) -> dict:
        free, torsion = self.invariants()
        return {"free_rank": free, "torsion": torsion}


class InvariantClass:
    """A class in ``group``, given by the coordinates of a representative."""

    __slots__ = ("group", "representative")

    def __init__(self, group: FpAbelianGroup, representative: tuple[int, ...]):
        self.group = group
        self.representative = representative

    def is_zero(self) -> bool:
        return self.group.is_zero_class(list(self.representative))


def class_equals(x: InvariantClass, y: InvariantClass) -> bool:
    """Equality in the common group, decided by an integer solve."""
    if not x.group.same_presentation(y.group):
        raise GroupMismatch("classes live in different group presentations")
    diff = [a - b for a, b in zip(x.representative, y.representative)]
    return x.group.is_zero_class(diff)


# -- bracket lattices ----------------------------------------------------------

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


class LieLattice:
    """Integral bracket lattices inside the tensor powers of H1, with the
    factorization of ``degree3`` that every coordinate solve reuses."""

    __slots__ = ("h1_rank", "degree2", "degree3", "degree3_smith")

    def __init__(self, h1_rank: int, degree2: IntMatrix, degree3: IntMatrix,
                 degree3_smith: SmithForm):
        self.h1_rank = h1_rank
        self.degree2 = degree2              # m^2 x C(m,2)
        self.degree3 = degree3              # m^3 x (m(m^2-1)/3), primitive
        self.degree3_smith = degree3_smith

    @property
    def rank2(self) -> int:
        return self.degree2.ncols

    @property
    def rank3(self) -> int:
        return self.degree3.ncols


@lru_cache(maxsize=None)
def lie_lattice(m: int) -> LieLattice:
    """Bases of [H1, H1] and of the primitive closure of [H1, [H1, H1]].

    The degree-3 basis is the saturated column span of all left-normed
    brackets; its rank agrees with the classical dimension m(m^2 - 1)/3.
    """
    if m < 0:
        raise ValueError("rank must be nonnegative")
    deg2 = IntMatrix.from_columns(
        [_bracket2(m, i, j) for i, j in combinations(range(m), 2)], nrows=m * m)
    spans = []
    for i in range(m):
        for j, k in combinations(range(m), 2):
            spans.append(_bracket_with_left(m, i, _bracket2(m, j, k)))
    span = IntMatrix.from_columns(spans, nrows=m ** 3)
    deg3 = column_span_saturation(span)
    expected = m * (m * m - 1) // 3
    if deg3.ncols != expected:
        raise AssertionError(
            f"degree-3 bracket lattice rank {deg3.ncols}, expected {expected}")
    return LieLattice(m, deg2, deg3, smith(deg3, ("u", "v")))


# -- the invariant window -------------------------------------------------------

class InvariantWindow:
    """The H1/H2 components that the invariants consume."""

    __slots__ = ("h1_rank", "h2_rank", "comul", "sq", "triple")

    def __init__(self, h1_rank: int, h2_rank: int, comul: IntMatrix, sq: IntMatrix,
                 triple: IntMatrix):
        m, r = h1_rank, h2_rank
        if comul.shape != (m * m, r) or sq.shape != (m * m, m) \
                or triple.shape != (m ** 3, r):
            raise ShapeMismatch("window matrices have inconsistent shapes")
        self.h1_rank = h1_rank
        self.h2_rank = h2_rank
        self.comul = comul      # m^2 x r, antisymmetric columns
        self.sq = sq            # m^2 x m, symmetric columns
        self.triple = triple    # m^3 x r

    def validate(self) -> list[str]:
        m = self.h1_rank
        bad = []
        for col, vec in enumerate(self.comul.columns()):
            if any(vec[i * m + j] != -vec[j * m + i] for i in range(m) for j in range(m)):
                bad.append(f"comul column {col} is not antisymmetric")
                break
        for col, vec in enumerate(self.sq.columns()):
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


def _as_window(p) -> InvariantWindow:
    if isinstance(p, InvariantWindow):
        return p
    return window_from_package(p)


# -- dual Steenrod square class --------------------------------------------------

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


def sq_dual_invariant(p) -> InvariantClass:
    """Class of the degree-1 binary component on H1.

    The verified symmetry of the transferred operator forces a symmetric
    window; a non-symmetric one means the input package does not conform.
    """
    w = _as_window(p)
    m = w.h1_rank
    bad = [msg for msg in w.validate() if msg.startswith("sq")]
    if bad:
        raise RelationViolation("hat m2_1 = -sigma hat m2_1", bad[0])
    basis = _sym_basis(m)
    nsym = len(basis)
    rep = [0] * (m * nsym)
    for a, col in enumerate(w.sq.columns()):
        for t, v in enumerate(_sym_coords(m, col)):
            rep[a * nsym + t] = v
    return InvariantClass(sq_group(m), tuple(rep))


# -- dual triple Massey class ----------------------------------------------------

def delta_map(comul: IntMatrix, nu: IntMatrix, m: int) -> IntMatrix:
    """delta nu on H2: s -> (nu (x) 1 + 1 (x) nu) comul(s), in cube coords.

    ``nu`` is H1 -> H1 (x) H1 given as an m^2 x m matrix; the plus sign on
    the second term is the Koszul sign of moving the odd nu past an odd
    factor.  Columns of the result land inside the degree-3 bracket lattice
    whenever nu takes bracket values and comul is antisymmetric.
    """
    if nu.shape != (m * m, m) or comul.nrows != m * m:
        raise ShapeMismatch("delta_map shapes inconsistent")
    nu_cols = nu.column_entries()
    out: dict[tuple[int, int], int] = {}
    for s, col in comul.column_entries().items():
        for jk, c in col:
            j, k = divmod(jk, m)
            for ab, v in nu_cols.get(j, ()):
                key = (ab * m + k, s)
                out[key] = out.get(key, 0) + c * v
            for ab, v in nu_cols.get(k, ()):
                key = (j * m * m + ab, s)
                out[key] = out.get(key, 0) + c * v
    return IntMatrix(m ** 3, comul.ncols, out)


def massey_group(m: int, r: int, comul: IntMatrix) -> FpAbelianGroup:
    """Presentation of Hom(H2, L3/[H1, comul(H2)]) / delta Hom(H1, [H1,H1]).

    The relation columns are the brackets [e_i, comul(s_u)] in every H2 slot,
    then delta of every basis map H1 -> [H1, H1], each in L3 coordinates and
    with the zero columns dropped.
    """
    lie = lie_lattice(m)
    mm, rank3 = m * m, lie.rank3
    # [e_i, comul(s_u)] = e_i (x) comul(s_u) - comul(s_u) (x) e_i as column u*m + i
    brackets: dict[tuple[int, int], int] = {}
    for u, col in comul.column_entries().items():
        for i in range(m):
            for jk, c in col:
                left, right = (i * mm + jk, u * m + i), (jk * m + i, u * m + i)
                brackets[left] = brackets.get(left, 0) + c
                brackets[right] = brackets.get(right, 0) - c
    coords = lie.degree3_smith.solve(IntMatrix(m ** 3, r * m, brackets))
    if coords is None:
        raise AssertionError("bracket with comul image left the lattice")
    # the denominator brackets against the image of the whole second
    # homology, independently of the slot
    by_bracket = coords.column_entries()
    columns = [[(s * rank3 + t, v) for t, v in by_bracket[q]]
               for s in range(r) for q in sorted(by_bracket)]
    # delta of the basis map e_a -> (bracket w), as columns b*r + s with
    # b = a*rank2 + w, all solved against the one factorization
    deltas: dict[tuple[int, int], int] = {}
    brackets2 = lie.degree2.column_entries()
    for a in range(m):
        for w in range(lie.rank2):
            nu = IntMatrix(mm, m, {(i, a): v for i, v in brackets2[w]})
            b = a * lie.rank2 + w
            for (t, s), v in delta_map(comul, nu, m).data.items():
                deltas[t, b * r + s] = v
    coords = lie.degree3_smith.solve(IntMatrix(m ** 3, m * lie.rank2 * r, deltas))
    if coords is None:
        raise AssertionError("delta image left the bracket lattice")
    by_map: dict[int, list[tuple[int, int]]] = {}
    for (t, bs), v in coords.data.items():
        b, s = divmod(bs, r)
        by_map.setdefault(b, []).append((s * rank3 + t, v))
    columns += (by_map[b] for b in sorted(by_map))
    ambient = r * rank3
    return FpAbelianGroup(ambient, IntMatrix._adopt(
        ambient, len(columns), {(i, j): v for j, col in enumerate(columns) for i, v in col}))


def massey_invariant(p) -> InvariantClass:
    """Class of the arity-3 window in the displayed quotient group.

    Requires each triple-coproduct image to lie in the bracket lattice
    (membership decided by Smith reduction); raises NotNormalizable naming
    the offending generator otherwise.
    """
    w = _as_window(p)
    m, r = w.h1_rank, w.h2_rank
    bad = [msg for msg in w.validate() if msg.startswith("comul")]
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


# -- admissible perturbations (isomorphism freedom) ------------------------------

def perturb_sq(window: InvariantWindow, nu: IntMatrix) -> InvariantWindow:
    """Shift the sq window by nu - sigma nu = nu + swap nu."""
    m = window.h1_rank
    if nu.shape != (m * m, m):
        raise ShapeMismatch("nu must be an m^2 x m matrix")
    swapped = IntMatrix(m * m, m)
    for (ij, a), v in nu.data.items():
        i, j = divmod(ij, m)
        swapped[j * m + i, a] = swapped[j * m + i, a] + v
    return InvariantWindow(m, window.h2_rank, window.comul,
                           window.sq + nu + swapped, window.triple)


def perturb_massey(window: InvariantWindow, nu: IntMatrix,
                   gamma: IntMatrix) -> InvariantWindow:
    """Admissible change of the triple window by a binary morphism component.

    ``nu``: H1 -> H1 (x) H1 (m^2 x m); ``gamma``: H2 -> H1 (x) H2 given as an
    (m r) x r matrix with rows indexed a*r + u.  The induced shift is

        triple += sum_{gamma} [e_a, comul(s_u)]  -  delta nu,

    which lands entirely in the denominator of the quotient group, so the
    class must not move.
    """
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
