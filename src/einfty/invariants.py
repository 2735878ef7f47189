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

Only this module knows the flat layout of the window: e_i (x) e_j is row
i*m + j, and e_i (x) e_j (x) e_k row (i*m + j)*m + k.  The window code reads
sparse entries only, and every bracket [e_i, w] comes from ``_bracket``.

The admissible freedom is one degree-1 binary operator nu on H: adding
nu o f to F(f2_1) and nu - sigma nu to hat m2_1, then running the f3_2 step
again, keeps every relation.  ``perturb`` is the window of that change.  With
nu1 the H1 -> H1 (x) H1 block of nu, comul stays, sq moves by nu1 + swap nu1,
and triple(s) by

    delta nu1 (s) + sum c comul(s_u) (x) e_a - sum c' e_a (x) comul(s_u)

over the words c (s_u, e_a) and c' (e_a, s_u) of nu(s).  The other words of
nu on H1 and H2 have an H0 factor, and neither they nor nu on another degree
reach the window.  The Massey denominator is the part with nu1 taking
bracket values (sq stays) and c = c' (the triple moves by
-c [e_a, comul(s_u)]).  ``normalizing_shift`` is the transfer's normalizing
correction: one solve for a nu on H2 whose ``perturb`` moves the triple
window into L3.
"""
from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations

from .errors import GroupMismatch, NotNormalizable, ShapeMismatch, located, violation
from .intlinalg import (IntMatrix, SmithForm, column_span_saturation, column_vector,
                        smith, solve)


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
        return self.relations == other.relations

    def is_zero_class(self, vec: list[int]) -> bool:
        return self.factored.solve(column_vector(vec)) is not None


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


# -- the flat layout and brackets ----------------------------------------------

def _flat(m: int, word) -> int:
    """Row of the H1 word e_i (x) e_j (x) ... in its layer: i*m + j,
    (i*m + j)*m + k; ``word`` holds (degree, index) pairs."""
    t = 0
    for _, i in word:
        t = t * m + i
    return t


def _swapped(m: int, ij: int) -> int:
    """Row of e_j (x) e_i, given the row of e_i (x) e_j."""
    i, j = divmod(ij, m)
    return j * m + i


def _bracket(m: int, size: int, i: int, w) -> dict[int, int]:
    """[e_i, w] = e_i (x) w - w (x) e_i, for w given as (row, coefficient)
    pairs in the layer of size m^n; the result lies in the next layer."""
    out: dict[int, int] = {}
    for jk, c in w:
        for t, v in ((i * size + jk, c), (jk * m + i, -c)):
            out[t] = out.get(t, 0) + v
    return {t: v for t, v in out.items() if v}


def _columns(nrows: int, cols: list[dict[int, int]]) -> IntMatrix:
    return IntMatrix._adopt(nrows, len(cols), {(t, j): v for j, col in enumerate(cols)
                                               for t, v in col.items()})


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
    pairs = [_bracket(m, m, j, [(k, 1)]) for j, k in combinations(range(m), 2)]
    deg2 = _columns(m * m, pairs)
    deg3 = column_span_saturation(_columns(
        m ** 3, [_bracket(m, m * m, i, b.items()) for i in range(m) for b in pairs]))
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

    def asymmetry(self, name: str) -> dict | None:
        """Block ``comul`` (antisymmetric: hat m2_0 = sigma hat m2_0) or
        ``sq`` (symmetric: hat m2_1 = -sigma hat m2_1), each nonzero entry
        against its swapped entry: the first failing column, ``located``
        with the signed swap of the column as expected, or None.  Generator
        i is spelled ``#i``."""
        relation, degree, sign = (("hat m2_0 = sigma hat m2_0", 2, -1) if name == "comul"
                                  else ("hat m2_1 = -sigma hat m2_1", 1, 1))
        m, mat = self.h1_rank, getattr(self, name)
        col = min((c for (ij, c), v in mat.data.items() if mat[_swapped(m, ij), c] != sign * v),
                  default=None)
        if col is None:
            return None
        entries = {ij: v for (ij, c), v in mat.data.items() if c == col}
        swapped = {_swapped(m, ij): sign * v for ij, v in entries.items()}

        def terms(image: dict[int, int]) -> list[list]:
            return [[v, "#{}(x)#{}".format(*divmod(ij, m))] for ij, v in sorted(image.items())]

        return located(relation, degree, f"#{col}", terms(swapped), terms(entries))

    def validate(self) -> list[dict]:
        """``asymmetry`` of both blocks, the failing ones only."""
        return [bad for bad in map(self.asymmetry, ("comul", "sq")) if bad]


def window_from_package(pkg) -> InvariantWindow:
    """Extract the H1/H2 window from a transfer package: the terms of comul,
    sq and triple whose tensor factors all lie in H1."""
    h = pkg.homology
    m = h.rank(1)
    blocks = []
    for name, degree in (("m2_0", 2), ("m2_1", 1), ("m3_1", 2)):
        op = pkg.hat_ops[name]
        data = {(_flat(m, word), col): coeff
                for col, image in op.cols.get(degree, {}).items()
                for word, coeff in image.items() if all(e == 1 for e, _ in word)}
        blocks.append(IntMatrix(m ** op.arity, h.rank(degree), data))
    return InvariantWindow(m, h.rank(2), *blocks)


# -- dual Steenrod square class --------------------------------------------------

def _sym_slots(m: int) -> dict[tuple[int, int], int]:
    """Coordinates of symmetric tensors: the pairs (i, i), then i < j."""
    basis = [(i, i) for i in range(m)] + list(combinations(range(m), 2))
    return {pair: t for t, pair in enumerate(basis)}


def sq_group(m: int) -> FpAbelianGroup:
    """Hom(H1, ker(1 + sigma)) modulo {f - sigma f}, presented explicitly:
    relation a*nsym + n is e_ij + e_ji in slot a, for the n-th pair i <= j."""
    slots = _sym_slots(m)
    nsym = len(slots)
    ambient = m * nsym
    pairs = [(i, j) for i in range(m) for j in range(i, m)]
    return FpAbelianGroup(ambient, IntMatrix._adopt(ambient, ambient, {
        (a * nsym + slots[i, j], a * nsym + n): 2 if i == j else 1
        for a in range(m) for n, (i, j) in enumerate(pairs)}))


def sq_dual_invariant(w: InvariantWindow) -> InvariantClass:
    """Class of the degree-1 binary component on H1.

    The verified symmetry of the transferred operator forces a symmetric
    window; a non-symmetric one means the input package does not conform.
    """
    m = w.h1_rank
    bad = w.asymmetry("sq")
    if bad:
        raise violation(bad)
    slots = _sym_slots(m)
    nsym = len(slots)
    rep = [0] * (m * nsym)
    for (ij, a), v in w.sq.data.items():
        i, j = divmod(ij, m)
        if i <= j:
            rep[a * nsym + slots[i, j]] = v
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
    # [e_i, comul(s_u)] as column u*m + i
    coords = lie.degree3_smith.solve(IntMatrix._adopt(m ** 3, r * m, {
        (t, u * m + i): v for u, col in comul.column_entries().items()
        for i in range(m) for t, v in _bracket(m, mm, i, col).items()}))
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


def _outside_lattice(lie: LieLattice, triple: dict[int, list]) -> list[int]:
    """The H2 generators whose triple column, given by (row, entry) pairs,
    is not in the degree-3 bracket lattice, in increasing order."""
    cube = lie.h1_rank ** 3
    return [s for s, col in sorted(triple.items()) if lie.degree3_smith.solve(
        IntMatrix._adopt(cube, 1, {(t, 0): v for t, v in col})) is None]


def massey_invariant(w: InvariantWindow) -> InvariantClass:
    """Class of the arity-3 window in the displayed quotient group.

    Requires each triple-coproduct image to lie in the bracket lattice
    (membership decided by Smith reduction); raises NotNormalizable naming
    the offending generator otherwise.
    """
    m, r = w.h1_rank, w.h2_rank
    bad = w.asymmetry("comul")
    if bad:
        raise violation(bad)
    lie = lie_lattice(m)
    coords = lie.degree3_smith.solve(w.triple)
    if coords is None:
        s = _outside_lattice(lie, w.triple.column_entries())[0]
        raise NotNormalizable(f"H2 generator #{s}")
    rep = [0] * (r * lie.rank3)
    for (t, s), v in coords.data.items():
        rep[s * lie.rank3 + t] = v
    return InvariantClass(massey_group(m, r, w.comul), tuple(rep))


# -- the admissible freedom ------------------------------------------------------

def perturb(window: InvariantWindow, nu: dict[int, dict]) -> InvariantWindow:
    """The window after the chain-level change by ``nu`` (module docstring),
    given as the columns of a degree-1 binary operator on H: source degree ->
    index -> {word: coefficient}."""
    m = window.h1_rank
    mm = m * m
    nu1 = IntMatrix(mm, m, {(_flat(m, word), a): c for a, image in nu.get(1, {}).items()
                            for word, c in image.items() if all(e == 1 for e, _ in word)})
    swapped = IntMatrix._adopt(mm, m, {(_swapped(m, ij), a): c
                                       for (ij, a), c in nu1.data.items()})
    shift = delta_map(window.comul, nu1, m)
    comul = window.comul.column_entries()
    for s, image in nu.get(2, {}).items():
        for ((e1, x), (e2, y)), c in image.items():
            if (e1, e2) == (2, 1):      # c (s_x, e_y) adds c comul(s_x) (x) e_y
                for jk, v in comul.get(x, ()):
                    shift[jk * m + y, s] = shift[jk * m + y, s] + c * v
            elif (e1, e2) == (1, 2):    # c (e_x, s_y) adds -c e_x (x) comul(s_y)
                for jk, v in comul.get(y, ()):
                    shift[x * mm + jk, s] = shift[x * mm + jk, s] - c * v
    return InvariantWindow(m, window.h2_rank, window.comul, window.sq + nu1 + swapped,
                           window.triple + shift)


# -- the normalizing correction of the transfer --------------------------------

def normalizing_shift(w: InvariantWindow) -> dict[int, dict] | None:
    """The degree-2 block of a nu whose ``perturb`` moves the triple window
    into the degree-3 bracket lattice, solved integrally against the lattice
    and the shifts comul(s_u) (x) e_a and e_a (x) comul(s_u).  None means
    either nothing to do or no integral solution (the class is then honestly
    not defined for this package).
    """
    m, r = w.h1_rank, w.h2_rank
    if m == 0 or r == 0:
        return None
    lie = lie_lattice(m)
    cube = m ** 3
    triple = w.triple.column_entries()
    outside = _outside_lattice(lie, triple)
    if not outside:
        return None
    # shift generators, column 2(u*m + a) + side: comul(s_u) (x) e_a (side
    # 0) and e_a (x) comul(s_u) (side 1), after the lattice basis
    shifts = {}
    for u, col in w.comul.column_entries().items():
        for a in range(m):
            for jk, c in col:
                shifts[jk * m + a, 2 * (u * m + a)] = c
                shifts[a * m * m + jk, 2 * (u * m + a) + 1] = c
    cols = lie.degree3.hstack(IntMatrix._adopt(cube, 2 * r * m, shifts))
    sol = solve(cols, IntMatrix._adopt(cube, len(outside), {
        (t, n): v for n, s in enumerate(outside) for t, v in triple[s]}))
    if sol is None:
        return None
    block: dict[int, dict] = {}
    for (row, n), y in sol.data.items():
        if row < lie.rank3:
            continue
        ua, side = divmod(row - lie.rank3, 2)
        u, a = divmod(ua, m)
        # the words whose ``perturb`` subtracts the found combination
        word, val = (((2, u), (1, a)), -y) if side == 0 else (((1, a), (2, u)), y)
        block.setdefault(outside[n], {})[word] = val
    return block
