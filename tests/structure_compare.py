"""Comparison of two transfer packages over the same homology basis.

Only the tests use it: it checks that two transfers of one structure differ
in the degree-1 binary component by (1 - sigma) of an integral binary
morphism component, and finds that witness.
"""
from __future__ import annotations

from einfty.chains import ChainComplex, GradedOperator
from einfty.errors import ShapeMismatch
from einfty.intlinalg import IntMatrix, solve
from einfty.transfer import TransferPackage


class StructureComparison:
    def __init__(self, differences: dict[str, GradedOperator],
                 witness: GradedOperator | None):
        self.differences = differences
        self.witness = witness

    @property
    def solvable(self) -> bool:
        return self.witness is not None


def _swap_matrix(h_cx: ChainComplex, total: int) -> IntMatrix:
    rank = h_cx.tensor_rank(2, total)
    out = IntMatrix(rank, rank)
    for col in range(rank):
        (e1, i1), (e2, i2) = h_cx.row_word(2, total, col)
        sign = -1 if (e1 % 2) and (e2 % 2) else 1
        out[h_cx.word_row(2, total, ((e2, i2), (e1, i1))), col] = sign
    return out


def compare_structures(p: TransferPackage, q: TransferPackage) -> StructureComparison:
    """Differences of two packages over the same homology basis.

    Requires identical comultiplications; solves for an integral binary
    morphism component witnessing the degree-1 difference relation
    q.m2_1 - p.m2_1 = (1 - sigma) w, reporting None when no integer
    solution exists.
    """
    hp, hq = p.homology, q.homology
    if {d: hp.labels(d) for d in hp.degrees()} != {d: hq.labels(d) for d in hq.degrees()}:
        raise ShapeMismatch("retracts have different homology bases")
    if p.hat_ops["m2_0"].cols != q.hat_ops["m2_0"].cols:
        raise ShapeMismatch("comultiplications disagree; packages not comparable")
    diffs = {}
    for name in ("m2_1", "m2_2", "m3_1"):
        a, b = p.hat_ops[name], q.hat_ops[name]
        # q - p, with q's words read over p's homology basis
        diffs[name] = GradedOperator._adopt(hp, hp, a.arity, a.degree, b.cols) - a
    d1 = diffs["m2_1"]
    witness_blocks: dict[int, IntMatrix] = {}
    ok = True
    for d in hp.degrees():
        rows = hp.tensor_rank(2, d + 1)
        cols = hp.rank(d)
        target = d1.block(d)
        if rows == 0 or cols == 0:
            if not target.is_zero():
                ok = False
                break
            continue
        mat = solve(IntMatrix.identity(rows) - _swap_matrix(hp, d + 1), target)
        if mat is None:
            ok = False
            break
        if not mat.is_zero():
            witness_blocks[d] = mat
    witness = GradedOperator(hp, hp, 2, 1, witness_blocks) if ok else None
    return StructureComparison(diffs, witness)

