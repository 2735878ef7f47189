"""Bounded complexes of free Z-modules and degree-homogeneous operators.

Sign conventions used throughout the package (all homological):

* differentials have degree -1;
* (f (x) g)(x (x) y) = (-1)^{deg g * deg x} f(x) (x) g(y);
* the bracket with the differential is [d, F] = d o F - (-1)^{deg F} F o d;
* a permutation acts on a tensor by moving the factor at position p to
  position sigma(p), with the Koszul sign of the factor degrees;
* T = the signed swap on two factors, T(x (x) y) = (-1)^{deg x deg y} y (x) x.

Operators K -> L^{(x) n} are stored blockwise: one integer matrix per source
degree, written in the induced tensor basis of the target power.  A basis
word of L^{(x) n} is a tuple of (degree, index) factors, and the words of
one total degree are ordered lexicographically.  Only ``tensor_complex``
lists a tensor basis: elsewhere a word's row is computed from the rank
counts of L by a closed rank/unrank formula, and the differential and the
slot operators are applied word by word to the nonzero entries only.  Row
numbers are stable, so equality of operators is literal equality of sparse
matrices.
"""
from __future__ import annotations

from typing import Sequence

from .intlinalg import IntMatrix

TensorKey = tuple[tuple[int, int], ...]


class ChainComplex:
    """Finitely generated free chain complex with chosen ordered bases."""

    def __init__(self, basis: dict[int, Sequence], boundary: dict[int, IntMatrix],
                 check: bool = True):
        self.basis = {d: tuple(labels) for d, labels in basis.items() if labels}
        self.boundary = {}
        for d, mat in boundary.items():
            if mat.is_zero():
                continue
            self.boundary[d] = mat
        # column index of the boundary: (degree, index) -> [(row, coeff)]
        self._faces: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for d, mat in self.boundary.items():
            for (r, c), v in mat.data.items():
                self._faces.setdefault((d, c), []).append((r, v))
        # _powers[n][t] = rank of (C^{(x) n})_t; the rank polynomial's powers
        self._powers: list[dict[int, int]] = [{0: 1}]
        self._step_cache: dict[tuple[int, int], dict[int, tuple[int, int]]] = {}
        if check:
            self.validate()

    def degrees(self) -> list[int]:
        return sorted(self.basis)

    def rank(self, d: int) -> int:
        return len(self.basis.get(d, ()))

    def total_rank(self) -> int:
        return sum(len(b) for b in self.basis.values())

    def labels(self, d: int) -> tuple:
        return self.basis.get(d, ())

    def boundary_matrix(self, d: int) -> IntMatrix:
        mat = self.boundary.get(d)
        if mat is None:
            return IntMatrix(self.rank(d - 1), self.rank(d))
        return mat

    def validate(self) -> None:
        for d, mat in self.boundary.items():
            if mat.shape != (self.rank(d - 1), self.rank(d)):
                raise ValueError(
                    f"boundary in degree {d} has shape {mat.shape}, "
                    f"expected {(self.rank(d - 1), self.rank(d))}"
                )
        for d in list(self.boundary):
            if d - 1 in self.boundary:
                if not (self.boundary_matrix(d - 1) @ self.boundary_matrix(d)).is_zero():
                    raise ValueError(f"d o d != 0 between degrees {d} and {d - 2}")

    # -- tensor power bookkeeping -------------------------------------------

    def tensor_rank(self, n: int, total_degree: int) -> int:
        """Rank of (C^{(x) n})_total_degree."""
        if n < 0:
            raise ValueError("tensor arity must be nonnegative")
        powers = self._powers
        while len(powers) <= n:
            nxt: dict[int, int] = {}
            for t, count in powers[-1].items():
                for d, labels in self.basis.items():
                    nxt[t + d] = nxt.get(t + d, 0) + count * len(labels)
            powers.append(nxt)
        return powers[n].get(total_degree, 0)

    def _steps(self, left: int, rest: int) -> dict[int, tuple[int, int]]:
        """Row bookkeeping for one slot followed by ``left`` more factors,
        with ``rest`` degrees still to place: factor degree d -> (number of
        words whose factor here has a smaller degree, words per basis
        element of degree d)."""
        steps = self._step_cache.get((left, rest))
        if steps is None:
            steps = {}
            offset = 0
            for d in self.degrees():
                tail = self.tensor_rank(left, rest - d)
                steps[d] = (offset, tail)
                offset += self.rank(d) * tail
            self._step_cache[(left, rest)] = steps
        return steps

    def word_row(self, n: int, total_degree: int, word: TensorKey) -> int:
        """Row of a basis word in (C^{(x) n})_total_degree.

        The words are in lexicographic order, so the row adds up, slot by
        slot, the words that agree with ``word`` before the slot and have a
        smaller factor in it.  A malformed word raises ValueError.
        """
        if len(word) != n:
            raise ValueError(f"word {word!r} does not have {n} factors")
        row = 0
        rest = total_degree
        for slot, (d, i) in enumerate(word):
            if not 0 <= i < self.rank(d):
                raise ValueError(f"word {word!r}: no basis element {i} in degree {d}")
            offset, tail = self._steps(n - slot - 1, rest)[d]
            row += offset + i * tail
            rest -= d
        if rest:
            raise ValueError(f"word {word!r} does not have total degree {total_degree}")
        return row

    def row_word(self, n: int, total_degree: int, row: int) -> TensorKey:
        """The basis word at ``row`` of (C^{(x) n})_total_degree."""
        if not 0 <= row < self.tensor_rank(n, total_degree):
            raise ValueError(f"row {row} out of range for C^{n} in degree {total_degree}")
        word = []
        rest = total_degree
        for slot in range(n):
            for d, (offset, tail) in self._steps(n - slot - 1, rest).items():
                if row < offset + self.rank(d) * tail:
                    i, row = divmod(row - offset, tail)
                    word.append((d, i))
                    rest -= d
                    break
        return tuple(word)

    def word_boundary(self, word: TensorKey) -> list[tuple[int, TensorKey]]:
        """The tensor differential of one basis word, as (coeff, word) terms."""
        out = []
        sign = 1
        for slot, (d, i) in enumerate(word):
            for r, v in self._faces.get((d, i), ()):
                out.append((sign * v, word[:slot] + ((d - 1, r),) + word[slot + 1:]))
            if d & 1:
                sign = -sign
        return out

    def __repr__(self):
        ranks = {d: self.rank(d) for d in self.degrees()}
        return f"ChainComplex(ranks={ranks})"


def unit_complex() -> ChainComplex:
    """The ground ring Z concentrated in degree 0."""
    return ChainComplex({0: ("1",)}, {})


def tensor_complex(c: ChainComplex, n: int) -> ChainComplex:
    """Materialized n-th tensor power with tuple labels (n >= 0)."""
    if n < 0:
        raise ValueError("tensor arity must be nonnegative")
    if n == 1:
        return c
    degs = c.degrees()
    if n == 0 or not degs:
        return unit_complex() if n == 0 else ChainComplex({}, {})
    basis = {}
    boundary = {}
    for total in range(n * degs[0], n * degs[-1] + 1):
        words = [c.row_word(n, total, r) for r in range(c.tensor_rank(n, total))]
        if not words:
            continue
        basis[total] = tuple(tuple(c.labels(d)[i] for (d, i) in word) for word in words)
        data: dict[tuple[int, int], int] = {}
        for col, word in enumerate(words):
            for v, face in c.word_boundary(word):
                key = (c.word_row(n, total - 1, face), col)
                data[key] = data.get(key, 0) + v
        mat = IntMatrix(c.tensor_rank(n, total - 1), len(words), data)
        if not mat.is_zero():
            boundary[total] = mat
    return ChainComplex(basis, boundary)


def perm_sign(perm: Sequence[int], degrees: Sequence[int]) -> int:
    """Koszul sign of moving factor p to position perm[p], for all p."""
    sign = 1
    n = len(perm)
    for p in range(n):
        for q in range(p + 1, n):
            if perm[p] > perm[q] and (degrees[p] & 1) and (degrees[q] & 1):
                sign = -sign
    return sign


class GradedOperator:
    """Degree-homogeneous operator source -> target^{(x) arity}."""

    __slots__ = ("source", "target", "arity", "degree", "blocks", "_images")

    def __init__(self, source: ChainComplex, target: ChainComplex, arity: int,
                 degree: int, blocks: dict[int, IntMatrix] | None = None):
        self.source = source
        self.target = target
        self.arity = arity
        self.degree = degree
        self.blocks = {}
        self._images: dict[int, dict[int, list[tuple[int, TensorKey]]]] = {}
        if blocks:
            for d, mat in blocks.items():
                expected = (target.tensor_rank(arity, d + degree), source.rank(d))
                if mat.shape != expected:
                    raise ValueError(
                        f"block at degree {d} has shape {mat.shape}, expected {expected}"
                    )
                if not mat.is_zero():
                    self.blocks[d] = mat

    def block(self, d: int) -> IntMatrix:
        mat = self.blocks.get(d)
        if mat is None:
            return IntMatrix(self.target.tensor_rank(self.arity, d + self.degree),
                             self.source.rank(d))
        return mat

    def is_zero(self) -> bool:
        return not self.blocks

    def same_shape(self, other: "GradedOperator") -> bool:
        return (self.source is other.source and self.target is other.target
                and self.arity == other.arity and self.degree == other.degree)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedOperator):
            return NotImplemented
        if not (self.source is other.source and self.target is other.target):
            return False
        if (self.arity, self.degree) != (other.arity, other.degree):
            return False
        return self.blocks == other.blocks

    def __hash__(self):
        raise TypeError("GradedOperator is not hashable")

    def __add__(self, other: "GradedOperator") -> "GradedOperator":
        if not self.same_shape(other):
            raise ValueError("operator shape mismatch in +")
        degs = set(self.blocks) | set(other.blocks)
        return GradedOperator(self.source, self.target, self.arity, self.degree,
                              {d: self.block(d) + other.block(d) for d in degs})

    def __sub__(self, other: "GradedOperator") -> "GradedOperator":
        return self + (-other)

    def __neg__(self) -> "GradedOperator":
        return self.scale(-1)

    def scale(self, c: int) -> "GradedOperator":
        return GradedOperator(self.source, self.target, self.arity, self.degree,
                              {d: m.scale(c) for d, m in self.blocks.items()})

    def images(self, d: int) -> dict[int, list[tuple[int, TensorKey]]]:
        """Column index of block d: source index -> its image_of expansion.

        Built once per block; blocks are not modified after construction.
        """
        cols = self._images.get(d)
        if cols is None:
            cols = {}
            mat = self.blocks.get(d)
            if mat is not None:
                t = d + self.degree
                for (r, c), v in sorted(mat.data.items()):
                    cols.setdefault(c, []).append(
                        (v, self.target.row_word(self.arity, t, r)))
            self._images[d] = cols
        return cols

    def image_of(self, d: int, idx: int) -> list[tuple[int, TensorKey]]:
        """Expansion of the image of one source basis element, in word order."""
        return list(self.images(d).get(idx, ()))

    def __repr__(self):
        return (f"GradedOperator(arity={self.arity}, degree={self.degree}, "
                f"blocks@{sorted(self.blocks)})")


def zero_operator(source: ChainComplex, target: ChainComplex, arity: int,
                  degree: int) -> GradedOperator:
    return GradedOperator(source, target, arity, degree, {})


def identity_operator(c: ChainComplex) -> GradedOperator:
    blocks = {d: IntMatrix.identity(c.rank(d)) for d in c.degrees()}
    return GradedOperator(c, c, 1, 0, blocks)


def boundary_operator(c: ChainComplex) -> GradedOperator:
    blocks = {d: c.boundary_matrix(d) for d in c.boundary}
    return GradedOperator(c, c, 1, -1, blocks)


def bracket_d(f: GradedOperator) -> GradedOperator:
    """[d, f] = d_target o f - (-1)^{deg f} f o d_source."""
    out: dict[int, IntMatrix] = {}
    sign = -1 if f.degree & 1 else 1
    tgt = f.target
    src_degrees = set(f.blocks)
    src_degrees.update(d + 1 for d in f.blocks)
    src_degrees.update(f.source.boundary.keys())
    for d in src_degrees:
        if f.source.rank(d) == 0:
            continue
        t = d + f.degree
        left: dict[tuple[int, int], int] = {}
        for col, img in f.images(d).items():
            for v, word in img:
                for s, face in tgt.word_boundary(word):
                    key = (tgt.word_row(f.arity, t - 1, face), col)
                    left[key] = left.get(key, 0) + s * v
        right = f.block(d - 1) @ f.source.boundary_matrix(d)
        mat = IntMatrix(right.nrows, right.ncols, left) - right.scale(sign)
        if not mat.is_zero():
            out[d] = mat
    return GradedOperator(f.source, f.target, f.arity, f.degree - 1, out)


def plain_compose(a: GradedOperator, b: GradedOperator) -> GradedOperator:
    """a o b where b has arity 1 (ordinary composition)."""
    if b.arity != 1:
        raise ValueError("plain_compose needs arity-1 inner operator")
    if a.source is not b.target:
        raise ValueError("source/target mismatch in composition")
    out = {}
    for d in b.blocks:
        mat = a.block(d + b.degree) @ b.block(d)
        if not mat.is_zero():
            out[d] = mat
    return GradedOperator(b.source, a.target, a.arity, a.degree + b.degree, out)


def tensor_compose(ops: Sequence[GradedOperator], b: GradedOperator) -> GradedOperator:
    """(op_1 (x) ... (x) op_n) o b with the Koszul sign convention.

    All ops must share b.target as source and must share a common target
    complex; arbitrary arities (including 0) are allowed per slot.
    """
    n = b.arity
    if len(ops) != n:
        raise ValueError(f"need {n} slot operators, got {len(ops)}")
    for op in ops:
        if op.source is not b.target:
            raise ValueError("slot operator source must equal inner target")
    tgt = None
    for op in ops:
        if op.arity > 0:
            if tgt is None:
                tgt = op.target
            elif op.target is not tgt:
                raise ValueError("slot operators must share one target complex")
    if tgt is None:
        # all slots have arity 0; any carrier works since the result is a
        # functional into the ground ring
        tgt = ops[0].target if ops else unit_complex()
    out_arity = sum(op.arity for op in ops)
    out_degree = b.degree + sum(op.degree for op in ops)
    blocks: dict[int, IntMatrix] = {}
    for d in b.blocks:
        t = d + out_degree
        acc: dict[tuple[int, int], int] = {}
        for col, img in b.images(d).items():
            for coeff, word in img:
                # moving op_j past the earlier inputs costs their degrees
                base_sign = 1
                running = 0
                pieces: list[list[tuple[int, TensorKey]]] = []
                for slot, (e, i) in enumerate(word):
                    op = ops[slot]
                    if (op.degree & 1) and (running & 1):
                        base_sign = -base_sign
                    running += e
                    piece = op.images(e).get(i)
                    if not piece:
                        break
                    pieces.append(piece)
                else:
                    stack = [(base_sign * coeff, ())]
                    for piece in pieces:
                        stack = [(s * v, w + frag) for (s, w) in stack for (v, frag) in piece]
                    for s, w in stack:
                        key = (tgt.word_row(out_arity, t, w), col)
                        acc[key] = acc.get(key, 0) + s
        mat = IntMatrix(tgt.tensor_rank(out_arity, t), b.source.rank(d), acc)
        if not mat.is_zero():
            blocks[d] = mat
    return GradedOperator(b.source, tgt, out_arity, out_degree, blocks)


def compose_slot(a: GradedOperator, b: GradedOperator, i: int) -> GradedOperator:
    """Substitute ``a`` into tensor slot ``i`` (1-based) of b's target."""
    if not 1 <= i <= max(b.arity, 1):
        raise ValueError(f"slot {i} out of range for arity {b.arity}")
    if b.arity == 1:
        return plain_compose(a, b)
    if a.target is not b.target and a.arity != 0:
        raise ValueError("mixed-target slot substitution needs arity-1 inner operator")
    ident = identity_operator(b.target)
    ops = [ident] * b.arity
    ops[i - 1] = a
    return tensor_compose(ops, b)


def sigma_twist(perm: Sequence[int], f: GradedOperator) -> GradedOperator:
    """Post-compose with the signed permutation of target factors.

    ``perm[p]`` is the destination position (0-based) of factor p.
    """
    if len(perm) != f.arity:
        raise ValueError("permutation length must match arity")
    blocks = {}
    for d, mat in f.blocks.items():
        t = d + f.degree
        data: dict[tuple[int, int], int] = {}
        for c, img in f.images(d).items():
            for v, word in img:
                new = [None] * f.arity
                for p, fac in enumerate(word):
                    new[perm[p]] = fac
                sign = perm_sign(perm, [fac[0] for fac in word])
                key = (f.target.word_row(f.arity, t, tuple(new)), c)
                data[key] = data.get(key, 0) + sign * v
        out = IntMatrix(mat.nrows, mat.ncols, data)
        if not out.is_zero():
            blocks[d] = out
    return GradedOperator(f.source, f.target, f.arity, f.degree, blocks)


def transpose_swap(f: GradedOperator) -> GradedOperator:
    """The signed factor swap T applied after an arity-2 operator."""
    if f.arity != 2:
        raise ValueError("transpose_swap needs arity 2")
    return sigma_twist((1, 0), f)
