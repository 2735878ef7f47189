"""The row-keyed operator algebra, kept as a reference for the word-keyed one.

``GradedOperator`` here stores one ``IntMatrix`` block per source degree,
rows in the ranked tensor basis, and unranks a block into word images when
it is read.  ``bracket_d``, ``plain_compose``, ``tensor_compose`` and
``sigma_twist`` are the earlier implementations over those blocks, unchanged.
``tests/test_chains.py`` checks that ``einfty.chains`` gives the same blocks,
entry for entry; ``plain_compose`` is the reference for the one-slot case of
``einfty.chains.tensor_compose``, which has no separate ordinary composition,
and ``combination`` (twists, then block-wise ``IntMatrix`` scale and +) the
reference for ``einfty.chains.combination``.
"""
from __future__ import annotations

from typing import Sequence

from einfty.chains import ChainComplex, TensorKey, perm_sign, unit_complex
from einfty.intlinalg import IntMatrix


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


def combination(terms) -> GradedOperator:
    """The sum of c * sigma_twist(perm, op) over (c, perm, op) triples of one
    shape, ``perm`` None for the identity."""
    first = terms[0][2]
    blocks: dict[int, IntMatrix] = {}
    for c, perm, op in terms:
        twisted = op if perm is None else sigma_twist(perm, op)
        for d, mat in twisted.blocks.items():
            blocks[d] = blocks[d] + mat.scale(c) if d in blocks else mat.scale(c)
    return GradedOperator(first.source, first.target, first.arity, first.degree, blocks)
