"""Reference oracle for every pivot, pass and fold of ``einfty.intlinalg.smith``.

``sparse_smith`` below is the sparse elimination the package ran before its
pivot search, holder lookup, column swap and divisibility check stopped
walking the remaining rows.  It makes the same choices by plain scans, gcd
steps and folds included, so ``smith`` must give the same S and the same
transforms, entry for entry and in the same entry order, on every matrix;
``tests/test_intlinalg.py`` compares the two.
"""
from __future__ import annotations

from typing import Collection

from einfty.intlinalg import TRANSFORMS, IntMatrix, SmithForm


def _axpy(dst: dict, src: dict, q: int) -> None:
    """``dst += q * src`` on sparse vectors, dropping entries that cancel."""
    for k, x in src.items():
        y = dst.get(k, 0) + q * x
        if y:
            dst[k] = y
        else:
            del dst[k]


def _mix(x: dict, y: dict, a: int, b: int, c: int, d: int) -> tuple[dict, dict]:
    """``(a*x + b*y, c*x + d*y)`` on sparse vectors."""
    nx, ny = {}, {}
    for k in x.keys() | y.keys():
        p, q = x.get(k, 0), y.get(k, 0)
        e, f = a * p + b * q, c * p + d * q
        if e:
            nx[k] = e
        if f:
            ny[k] = f
    return nx, ny


def _xgcd(p: int, x: int) -> tuple[int, int, int]:
    """``(g, s, r)`` with ``s*p + r*x == g == gcd(p, x) > 0``."""
    s0, s1, r0, r1 = 1, 0, 0, 1
    while x:
        q, rem = divmod(p, x)
        p, x = x, rem
        s0, s1 = s1, s0 - q * s1
        r0, r1 = r1, r0 - q * r1
    return (p, s0, r0) if p > 0 else (-p, -s0, -r0)


def sparse_smith(m: IntMatrix, transforms: Collection[str] = TRANSFORMS) -> SmithForm:
    """The row-walking sparse elimination, kept as the reference."""
    unknown = set(transforms) - set(TRANSFORMS)
    if unknown:
        raise ValueError(f"unknown Smith transforms {sorted(unknown)}")
    nr, nc = m.nrows, m.ncols
    a: list[dict[int, int]] = [{} for _ in range(nr)]
    for (i, j), x in m.data.items():
        a[i][j] = x
    # u and vinv only ever see row operations, v and uinv only column
    # operations: keep the first two as row dicts, the last two as column
    # dicts, so that every update is one sparse axpy or a swap of two entries.
    u, v, uinv, vinv = ([{k: 1} for k in range(n)] if name in transforms else None
                        for name, n in zip(TRANSFORMS, (nr, nc, nr, nc)))
    row_side = [x for x in (a, u) if x is not None]

    # A row op acts on a and u; uinv gets the inverse column op.  A column op
    # acts on the columns of a and v; vinv gets the inverse row op.
    def row_add(i, k, q):
        """row_i += q * row_k"""
        for x in row_side:
            _axpy(x[i], x[k], q)
        if uinv is not None:
            _axpy(uinv[k], uinv[i], -q)

    def row_mix(t, i, al, be, ga, de):
        """(row_t, row_i) <- [[al, be], [ga, de]] (row_t, row_i), determinant 1"""
        for x in row_side:
            x[t], x[i] = _mix(x[t], x[i], al, be, ga, de)
        if uinv is not None:
            uinv[t], uinv[i] = _mix(uinv[t], uinv[i], de, -ga, -be, al)

    def row_swap(i, k):
        for x in (a, u, uinv):
            if x is not None:
                x[i], x[k] = x[k], x[i]

    def row_negate(t):
        for x in (a, u, uinv):
            if x is not None:
                x[t] = {k: -y for k, y in x[t].items()}

    def holders(j, start):
        """The rows from ``start`` on with an entry in column j."""
        return [r for r in range(start, nr) if j in a[r]]

    def col_add(j, k, q, rows):
        """col_j += q * col_k, where ``rows`` hold every entry of col_k"""
        for r in rows:
            ar = a[r]
            y = ar.get(j, 0) + q * ar[k]
            if y:
                ar[j] = y
            else:
                ar.pop(j, None)
        if v is not None:
            _axpy(v[j], v[k], q)
        if vinv is not None:
            _axpy(vinv[k], vinv[j], -q)

    def col_mix(t, j, al, be, ga, de, rows):
        """(col_t, col_j) <- (al col_t + be col_j, ga col_t + de col_j),
        where ``rows`` hold every entry of both columns"""
        for r in rows:
            ar = a[r]
            x, y = ar.pop(t, 0), ar.pop(j, 0)
            e, f = al * x + be * y, ga * x + de * y
            if e:
                ar[t] = e
            if f:
                ar[j] = f
        if v is not None:
            v[t], v[j] = _mix(v[t], v[j], al, be, ga, de)
        if vinv is not None:
            vinv[t], vinv[j] = _mix(vinv[t], vinv[j], de, -ga, -be, al)

    def col_swap(j, t):
        for r in range(t, nr):
            ar = a[r]
            x, y = ar.pop(t, 0), ar.pop(j, 0)
            if x:
                ar[j] = x
            if y:
                ar[t] = y
        for x in (v, vinv):
            if x is not None:
                x[j], x[t] = x[t], x[j]

    def pivot_position(t):
        # Rows from t on are zero left of column t.
        best, pos = None, None
        for i in range(t, nr):
            ai = a[i]
            if ai:
                x = min(map(abs, ai.values()))
                if best is None or x < best:
                    best, pos = x, (i, min(j for j, y in ai.items() if abs(y) == x))
                    if x == 1:
                        break
        return pos

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
        at = a[t]
        while True:
            # Clear column t below the pivot, then row t right of it.  Only a
            # column gcd step refills column t, and then the passes repeat.
            for i in holders(t, t + 1):
                p, x = at[t], a[i][t]
                if x % p == 0:
                    row_add(i, t, -(x // p))
                else:
                    g, s, r = _xgcd(p, x)
                    row_mix(t, i, s, r, -x // g, p // g)
                    at = a[t]
            tcol = [t]
            for j in sorted(j for j in at if j != t):
                p, x = at[t], at[j]
                if x % p == 0:
                    col_add(j, t, -(x // p), tcol)
                else:
                    g, s, r = _xgcd(p, x)
                    rows = set(tcol).union(holders(j, t))
                    col_mix(t, j, s, r, -x // g, p // g, rows)
                    tcol = [k for k in rows if t in a[k]]
            if len(tcol) == 1:
                break
        if at[t] < 0:
            row_negate(t)
        # Divisibility: the pivot must divide every remaining entry; if not,
        # fold the first offending row into row t and redo this step.
        p = a[t][t]
        if p != 1:
            offender = next((i for i in range(t + 1, nr)
                             if any(x % p for x in a[i].values())), None)
            if offender is not None:
                row_add(t, offender, 1)
                continue
        t += 1

    def matrix(vecs, as_rows):
        n = len(vecs)
        data = ({(i, j): x for i, vec in enumerate(vecs) for j, x in vec.items()} if as_rows
                else {(i, j): x for j, vec in enumerate(vecs) for i, x in vec.items()})
        return IntMatrix(n, n, dict(sorted(data.items())))

    s = IntMatrix(nr, nc, {(i, i): a[i][i] for i in range(t)})
    return SmithForm(s, *(None if x is None else matrix(x, as_rows)
                          for x, as_rows in zip((u, v, uinv, vinv), (True, False, False, True))))
