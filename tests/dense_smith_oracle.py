"""Reference oracle for the pivot sequence of ``einfty.intlinalg.smith``.

The dense Smith elimination below is the one the package used before its
elimination ran over nonzeros only.  The sparse version promises the same
pivots, the same passes and the same folds, hence the same S and the same
transforms, on every matrix where the dense code never takes its remainder
path; ``tests/test_intlinalg.py`` compares the two.
"""
from __future__ import annotations

from typing import Collection

from einfty.intlinalg import TRANSFORMS, IntMatrix, SmithForm


class RemainderStep(Exception):
    """The dense elimination met an entry its pivot does not divide."""


def dense_smith(m: IntMatrix, transforms: Collection[str] = TRANSFORMS) -> SmithForm:
    """The dense elimination ``einfty.intlinalg.smith`` ran before it went
    sparse, kept as the reference for its pivot sequence.

    Raises ``RemainderStep`` where the dense code took its remainder path
    (subtract, then swap when nonzero); the sparse code takes a gcd step
    there instead, so only eliminations without such a step are compared.
    """
    unknown = set(transforms) - set(TRANSFORMS)
    if unknown:
        raise ValueError(f"unknown Smith transforms {sorted(unknown)}")
    nr, nc = m.nrows, m.ncols
    a = m.to_rows()
    u, v, uinv, vinv = (IntMatrix.identity(n).to_rows() if name in transforms else None
                        for name, n in zip(TRANSFORMS, (nr, nc, nr, nc)))

    # Row op: row_i -= q*row_t mirrored on u; uinv gets the inverse column op.
    def row_sub(i, t, q):
        ai, at = a[i], a[t]
        for j in range(nc):
            ai[j] -= q * at[j]
        if u is not None:
            ui, ut = u[i], u[t]
            for j in range(nr):
                ui[j] -= q * ut[j]
        if uinv is not None:
            for r in range(nr):
                uinv[r][t] += q * uinv[r][i]

    def col_sub(j, t, q):
        for i in range(nr):
            a[i][j] -= q * a[i][t]
        if v is not None:
            for i in range(nc):
                v[i][j] -= q * v[i][t]
        if vinv is not None:
            vt = vinv[t]
            vj = vinv[j]
            for c in range(nc):
                vt[c] += q * vj[c]

    def row_swap(i, t):
        a[i], a[t] = a[t], a[i]
        if u is not None:
            u[i], u[t] = u[t], u[i]
        if uinv is not None:
            for r in range(nr):
                uinv[r][i], uinv[r][t] = uinv[r][t], uinv[r][i]

    def col_swap(j, t):
        for i in range(nr):
            a[i][j], a[i][t] = a[i][t], a[i][j]
        if v is not None:
            for i in range(nc):
                v[i][j], v[i][t] = v[i][t], v[i][j]
        if vinv is not None:
            vinv[j], vinv[t] = vinv[t], vinv[j]

    def row_negate(i):
        a[i] = [-x for x in a[i]]
        if u is not None:
            u[i] = [-x for x in u[i]]
        if uinv is not None:
            for r in range(nr):
                uinv[r][i] = -uinv[r][i]

    def pivot_position(t):
        best = None
        for i in range(t, nr):
            ai = a[i]
            for j in range(t, nc):
                x = ai[j]
                if x:
                    if best is None or abs(x) < best[0]:
                        best = (abs(x), i, j)
                        if best[0] == 1:
                            return best[1], best[2]
        return None if best is None else (best[1], best[2])

    t = 0
    bound = min(nr, nc)
    while t < bound:
        pos = pivot_position(t)
        if pos is None:
            break
        pi, pj = pos
        if pi != t:
            row_swap(pi, t)
        if pj != t:
            col_swap(pj, t)
        while True:
            # Euclid steps until row t and column t are clear off the pivot.
            progress = False
            for i in range(t + 1, nr):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_sub(i, t, q)
                    if a[i][t]:
                        # the dense code swapped rows i and t here
                        raise RemainderStep(f"row {i}, pivot {t}")
            for j in range(t + 1, nc):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_sub(j, t, q)
                    if a[t][j]:
                        # the dense code swapped columns j and t here
                        raise RemainderStep(f"column {j}, pivot {t}")
            if not progress:
                break
        if a[t][t] < 0:
            row_negate(t)
        # Divisibility: pivot must divide every remaining entry; if not, fold
        # the offending row into row t and redo this step.
        offender = None
        p = a[t][t]
        for i in range(t + 1, nr):
            ai = a[i]
            for j in range(t + 1, nc):
                if ai[j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_sub(t, offender, -1)
            continue
        t += 1

    s = IntMatrix(nr, nc, {(i, i): a[i][i] for i in range(bound) if a[i][i]})
    return SmithForm(s, *(None if x is None else IntMatrix.from_rows(x, n)
                          for x, n in zip((u, v, uinv, vinv), (nr, nc, nr, nc))))
