"""Exact linear algebra over the integers.

Everything here works with arbitrary-precision Python ints; there are no
floating point or modular shortcuts anywhere.  Matrices are stored sparsely
(dict of (row, col) -> nonzero entry) because chain operators are sparse,
but Smith reduction densifies its working copy -- at desk scale that is the
simpler and faster option.

The Smith normal form routine is the workhorse for everything downstream:
homology, retraction bases, lattice saturation, membership tests and
finitely presented abelian groups.  A factorization is the unit of reuse:
``smith`` builds only the transforms its caller asks for, and a caller that
solves against one matrix many times factors it once and calls
``SmithForm.solve`` for every right-hand side.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Collection, Sequence


class IntMatrix:
    """A sparse matrix with integer entries.

    >>> m = IntMatrix.from_rows([[1, 2], [3, 4]])
    >>> (m @ m).to_rows()
    [[7, 10], [15, 22]]
    >>> m.transpose()[0, 1]
    3
    """

    __slots__ = ("nrows", "ncols", "data")

    def __init__(self, nrows: int, ncols: int, data: dict | None = None):
        if nrows < 0 or ncols < 0:
            raise ValueError("negative matrix dimensions")
        self.nrows = nrows
        self.ncols = ncols
        self.data = {} if data is None else {k: v for k, v in data.items() if v}

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], ncols: int | None = None) -> "IntMatrix":
        nrows = len(rows)
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        data = {}
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                if v:
                    data[(i, j)] = int(v)
        return cls(nrows, ncols, data)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "IntMatrix":
        return cls(nrows, ncols)

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence[int]], nrows: int | None = None) -> "IntMatrix":
        ncols = len(cols)
        if nrows is None:
            nrows = len(cols[0]) if cols else 0
        data = {}
        for j, col in enumerate(cols):
            if len(col) != nrows:
                raise ValueError("ragged columns")
            for i, v in enumerate(col):
                if v:
                    data[(i, j)] = int(v)
        return cls(nrows, ncols, data)

    def __getitem__(self, key) -> int:
        return self.data.get(key, 0)

    def __setitem__(self, key, value: int) -> None:
        i, j = key
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError(key)
        if value:
            self.data[key] = value
        else:
            self.data.pop(key, None)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def copy(self) -> "IntMatrix":
        return IntMatrix(self.nrows, self.ncols, dict(self.data))

    def is_zero(self) -> bool:
        return not self.data

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.shape == other.shape and self.data == other.data

    def __hash__(self):
        raise TypeError("IntMatrix is not hashable")

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        data = dict(self.data)
        for k, v in other.data.items():
            w = data.get(k, 0) + v
            if w:
                data[k] = w
            else:
                data.pop(k, None)
        return IntMatrix(self.nrows, self.ncols, data)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.nrows, self.ncols, {k: -v for k, v in self.data.items()})

    def scale(self, c: int) -> "IntMatrix":
        if c == 0:
            return IntMatrix(self.nrows, self.ncols)
        return IntMatrix(self.nrows, self.ncols, {k: c * v for k, v in self.data.items()})

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        rows_of_other: dict[int, list[tuple[int, int]]] = {}
        for (k, j), v in other.data.items():
            rows_of_other.setdefault(k, []).append((j, v))
        acc: dict[tuple[int, int], int] = {}
        for (i, k), va in self.data.items():
            hits = rows_of_other.get(k)
            if not hits:
                continue
            for j, vb in hits:
                key = (i, j)
                w = acc.get(key, 0) + va * vb
                if w:
                    acc[key] = w
                else:
                    acc.pop(key, None)
        return IntMatrix(self.nrows, other.ncols, acc)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.ncols, self.nrows, {(j, i): v for (i, j), v in self.data.items()})

    def column(self, j: int) -> list[int]:
        col = [0] * self.nrows
        for (i, jj), v in self.data.items():
            if jj == j:
                col[i] = v
        return col

    def columns(self) -> list[list[int]]:
        cols = [[0] * self.nrows for _ in range(self.ncols)]
        for (i, j), v in self.data.items():
            cols[j][i] = v
        return cols

    def to_rows(self) -> list[list[int]]:
        rows = [[0] * self.ncols for _ in range(self.nrows)]
        for (i, j), v in self.data.items():
            rows[i][j] = v
        return rows

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch")
        data = dict(self.data)
        for (i, j), v in other.data.items():
            data[(i, j + self.ncols)] = v
        return IntMatrix(self.nrows, self.ncols + other.ncols, data)

    def vstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.ncols:
            raise ValueError("column count mismatch")
        data = dict(self.data)
        for (i, j), v in other.data.items():
            data[(i + self.nrows, j)] = v
        return IntMatrix(self.nrows + other.nrows, self.ncols, data)

    def submatrix_columns(self, js: Sequence[int]) -> "IntMatrix":
        lookup = {j: pos for pos, j in enumerate(js)}
        data = {}
        for (i, j), v in self.data.items():
            pos = lookup.get(j)
            if pos is not None:
                data[(i, pos)] = v
        return IntMatrix(self.nrows, len(js), data)

    def apply(self, vec: Sequence[int]) -> list[int]:
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        out = [0] * self.nrows
        for (i, j), v in self.data.items():
            c = vec[j]
            if c:
                out[i] += v * c
        return out

    def __repr__(self):
        return f"IntMatrix({self.nrows}x{self.ncols}, nnz={len(self.data)})"


def column_vector(entries: Sequence[int]) -> IntMatrix:
    return IntMatrix(len(entries), 1, {(i, 0): v for i, v in enumerate(entries) if v})


TRANSFORMS = ("u", "v", "uinv", "vinv")


@dataclass
class SmithForm:
    """Decomposition ``U @ M @ V == S`` with S diagonal and U, V unimodular.

    The diagonal of S is nonnegative and each entry divides the next.
    ``uinv`` and ``vinv`` are the exact integer inverses of U and V.  Only
    the transforms asked of ``smith`` are built; the others are None.
    """

    s: IntMatrix
    u: IntMatrix | None = None
    v: IntMatrix | None = None
    uinv: IntMatrix | None = None
    vinv: IntMatrix | None = None

    @property
    def rank(self) -> int:
        return len([1 for (i, j), v in self.s.data.items() if i == j and v])

    def invariant_factors(self) -> list[int]:
        out = []
        for t in range(min(self.s.nrows, self.s.ncols)):
            v = self.s[t, t]
            if v:
                out.append(v)
        return out

    def cokernel(self) -> tuple[int, list[int]]:
        """Free rank and torsion coefficients >= 2 of Z^nrows / col-span(M)."""
        facs = self.invariant_factors()
        return self.s.nrows - len(facs), [f for f in facs if f >= 2]

    def solve(self, rhs: IntMatrix) -> IntMatrix | None:
        """A particular integer X with ``M @ X == rhs``, or None when some
        column of ``rhs`` has no integer solution.  Needs ``u`` and ``v``.

        >>> m = IntMatrix.from_rows([[2, 0], [0, 3]])
        >>> sf = smith(m, ("u", "v"))
        >>> sf.solve(IntMatrix.from_rows([[4, 2], [-9, 3]])).to_rows()
        [[2, 1], [-3, 1]]
        >>> sf.solve(IntMatrix.from_rows([[4, 1], [-9, 0]])) is None
        True
        """
        if self.u is None or self.v is None:
            raise ValueError("solve needs the u and v transforms")
        if rhs.nrows != self.s.nrows:
            raise ValueError("shape mismatch in solve")
        bound = min(self.s.nrows, self.s.ncols)
        c = self.u @ rhs
        y = IntMatrix(self.s.ncols, rhs.ncols)
        for (i, j), val in c.data.items():
            d = self.s[i, i] if i < bound else 0
            if d == 0 or val % d:
                return None
            y[i, j] = val // d
        return self.v @ y


def smith(m: IntMatrix, transforms: Collection[str] = TRANSFORMS) -> SmithForm:
    """Smith normal form of ``m``, with the transforms named in ``transforms``.

    The elimination is the same whatever is asked for, so S and every
    transform built are too; a transform not asked for is None.  Build only
    what is read: ``solve`` needs u and v, a kernel basis v, a saturation
    uinv, and the invariant factors none.  A caller that solves against one
    matrix many times factors it once and reuses the result.

    >>> m = IntMatrix.from_rows([[2, 4], [6, 8]])
    >>> sf = smith(m)
    >>> sf.invariant_factors()
    [2, 4]
    >>> (sf.u @ m @ sf.v) == sf.s
    True
    >>> smith(m, ()).u is None and smith(m, ("v",)).v == sf.v
    True
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
                        row_swap(i, t)
                        progress = True
            for j in range(t + 1, nc):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_sub(j, t, q)
                    if a[t][j]:
                        col_swap(j, t)
                        progress = True
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


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (S, U, V) with ``U @ m @ V == S``.

    >>> s, u, v = smith_normal_form(IntMatrix.identity(3))
    >>> s == IntMatrix.identity(3)
    True
    >>> s, u, v = smith_normal_form(IntMatrix.zero(2, 3))
    >>> s.is_zero() and u == IntMatrix.identity(2) and v == IntMatrix.identity(3)
    True
    """
    sf = smith(m, ("u", "v"))
    return sf.s, sf.u, sf.v


def rank(m: IntMatrix) -> int:
    """Rank over the rationals, computed by fraction-free elimination."""
    a = [row[:] for row in m.to_rows()]
    nr, nc = m.nrows, m.ncols
    r = 0
    for j in range(nc):
        piv = None
        for i in range(r, nr):
            if a[i][j]:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pr = a[r]
        for i in range(r + 1, nr):
            ai = a[i]
            if ai[j]:
                g = gcd(ai[j], pr[j])
                ca, cp = pr[j] // g, ai[j] // g
                for k in range(j, nc):
                    ai[k] = ca * ai[k] - cp * pr[k]
        r += 1
        if r == nr:
            break
    return r


def solve(m: IntMatrix, rhs: IntMatrix) -> IntMatrix | None:
    """A particular integer solution X of ``m @ X == rhs``, or None.

    >>> m = IntMatrix.from_rows([[2, 0], [0, 3]])
    >>> x = solve(m, column_vector([4, -9]))
    >>> x.column(0)
    [2, -3]
    >>> solve(m, column_vector([1, 0])) is None
    True
    """
    if rhs.nrows != m.nrows:
        raise ValueError("shape mismatch in solve")
    return smith(m, ("u", "v")).solve(rhs)


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Columns form a basis of the integer kernel lattice of ``m``.

    The kernel of an integer matrix is a pure sublattice, so the columns
    returned here always extend to a basis of Z^ncols.
    """
    sf = smith(m, ("v",))
    r = sf.rank
    cols = list(range(r, m.ncols))
    return sf.v.submatrix_columns(cols)


def column_span_saturation(m: IntMatrix) -> IntMatrix:
    """Basis of the saturation {x : k*x in col-span(m) for some k != 0}."""
    sf = smith(m, ("uinv",))
    cols = list(range(sf.rank))
    return sf.uinv.submatrix_columns(cols)


def in_column_span(m: IntMatrix, vec: Sequence[int]) -> bool:
    return solve(m, column_vector(list(vec))) is not None


def quotient_invariants(ambient_rank: int, relations: IntMatrix) -> tuple[int, list[int]]:
    """Structure of Z^ambient_rank / col-span(relations).

    Returns (free rank, torsion coefficients >= 2 in divisibility order).

    >>> quotient_invariants(2, IntMatrix.from_rows([[2, 0], [0, 1]]))
    (0, [2])
    >>> quotient_invariants(3, IntMatrix.zero(3, 0))
    (3, [])
    """
    if relations.nrows != ambient_rank:
        raise ValueError("relation matrix has wrong ambient rank")
    return smith(relations, ()).cokernel()
