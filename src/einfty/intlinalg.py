"""Exact linear algebra over the integers.

Everything here works with arbitrary-precision Python ints; there are no
floating point or modular shortcuts anywhere.  Matrices are stored sparsely
(dict of (row, col) -> nonzero entry) because chain operators are sparse,
and the Smith elimination runs over nonzeros only.  Its working copy is a
list of sparse rows, and no step of it walks the entries of the remaining
rows.  A column -> rows index finds the rows holding a column, so a column
swap touches only those rows.  Each row keeps its smallest |entry| and the
gcd of its entries, recomputed only after an operation changed the row, so
the pivot search and the divisibility check scan one cached number per
remaining row at each step.  The pivot order is the contract that keeps the
transforms stable (see ``smith``), so pivots are not reordered for low
fill: another order would give different bases to every caller that reads
the transforms, such as the homology retractions.

The Smith normal form routine is the workhorse for everything downstream:
homology, retraction bases, lattice saturation, membership tests and
finitely presented abelian groups.  A factorization is the unit of reuse:
``smith`` builds only the transforms its caller asks for, and a caller that
solves against one matrix many times factors it once and calls
``SmithForm.solve`` for every right-hand side.
"""
from __future__ import annotations

from math import gcd, inf
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
    def _adopt(cls, nrows: int, ncols: int, data: dict) -> "IntMatrix":
        """Wrap ``data`` without copying it.  The caller has just built it and
        guarantees that it is zero-free and that every key is in range."""
        m = cls.__new__(cls)
        m.nrows, m.ncols, m.data = nrows, ncols, data
        return m

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

    def column_entries(self) -> dict[int, list[tuple[int, int]]]:
        """The (row, entry) pairs of every nonzero column, in one pass."""
        cols: dict[int, list[tuple[int, int]]] = {}
        for (i, j), v in self.data.items():
            cols.setdefault(j, []).append((i, v))
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


class SmithForm:
    """Decomposition ``U @ M @ V == S`` with S diagonal and U, V unimodular.

    The diagonal of S is nonnegative and each entry divides the next.
    ``uinv`` and ``vinv`` are the exact integer inverses of U and V.  Only
    the transforms asked of ``smith`` are built; the others are None.
    """

    __slots__ = ("s",) + TRANSFORMS

    def __init__(self, s: IntMatrix, u: IntMatrix | None = None, v: IntMatrix | None = None,
                 uinv: IntMatrix | None = None, vinv: IntMatrix | None = None):
        self.s, self.u, self.v, self.uinv, self.vinv = s, u, v, uinv, vinv

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


def smith(m: IntMatrix, transforms: Collection[str] = TRANSFORMS) -> SmithForm:
    """Smith normal form of ``m``, with the transforms named in ``transforms``.

    The elimination is the same whatever is asked for, so S and every
    transform built are too; a transform not asked for is None.  Build only
    what is read: ``solve`` needs u and v, a kernel basis v, a saturation
    uinv, and the invariant factors none.  A caller that solves against one
    matrix many times factors it once and reuses the result.

    The pivot sequence is the contract that keeps the transforms stable:
    at step t the pivot is the smallest |entry| of the remaining block, the
    first in row-major order; the rows below it, then the entries right of
    it, are cleared in increasing index order; and when the pivot does not
    divide the rest of the block, the first offending row is folded into
    row t and the step is redone.  An entry the pivot does not divide is
    cleared by one unimodular gcd step (which never occurs on a block whose
    pivots divide their row and column), so coefficients stay bounded.

    None of these choices walks the entries of the remaining rows, but each
    step scans one cached number per remaining row.  Each row keeps its
    smallest |entry| and the gcd of its entries, built when first needed and
    then recomputed only for the rows an operation changed.  The pivot row
    is row t when that holds a unit, and otherwise the first row whose
    minimum is least (``low.index``, ``min(low[t:])``); the first offending
    row is looked for only when ``gcd(*content[t + 1:])`` shows that one
    exists.  A column -> rows index, which operations only add to and whose
    readers skip the rows that no longer hold the column, gives the rows to
    clear below the pivot and the only rows a column swap touches.

    >>> m = IntMatrix.from_rows([[2, 4], [6, 8]])
    >>> sf = smith(m)
    >>> sf.invariant_factors()
    [2, 4]
    >>> (sf.u @ m @ sf.v) == sf.s
    True
    >>> smith(m, ()).u is None and smith(m, ("v",)).v == sf.v
    True
    >>> smith(IntMatrix.from_rows([[2, 3]]), ("v",)).v.to_rows()
    [[-1, -3], [1, 2]]
    """
    unknown = set(transforms) - set(TRANSFORMS)
    if unknown:
        raise ValueError(f"unknown Smith transforms {sorted(unknown)}")
    nr, nc = m.nrows, m.ncols
    a: list[dict[int, int]] = [{} for _ in range(nr)]
    # held[j] lists every row with an entry in column j.  It may list a row
    # twice, or a row whose entry there has since cancelled or moved away:
    # readers keep the distinct rows that hold the column.
    held: list[list[int]] = [[] for _ in range(nc)]
    for (i, j), x in m.data.items():
        a[i][j] = x
        held[j].append(i)
    # per row: its smallest |entry| (inf when empty) and the gcd of its
    # entries.  Each list is built when first read; after that, ``refresh``
    # brings the rows in ``changed`` up to date.
    low: list | None = None
    content: list[int] | None = None
    changed: set[int] = set()
    # u and vinv only ever see row operations, v and uinv only column
    # operations: keep the first two as row dicts, the last two as column
    # dicts, so that every update is one sparse axpy or a swap of two entries.
    u, v, uinv, vinv = ([{k: 1} for k in range(n)] if name in transforms else None
                        for name, n in zip(TRANSFORMS, (nr, nc, nr, nc)))

    # A row op acts on a and u; uinv gets the inverse column op.  A column op
    # acts on the columns of a and v; vinv gets the inverse row op.
    def row_add(i, k, q):
        """row_i += q * row_k"""
        ai = a[i]
        for j, x in a[k].items():
            y = ai.get(j)
            if y is None:
                ai[j] = q * x
                held[j].append(i)
            else:
                y += q * x
                if y:
                    ai[j] = y
                else:
                    del ai[j]
        changed.add(i)
        if u is not None:
            _axpy(u[i], u[k], q)
        if uinv is not None:
            _axpy(uinv[k], uinv[i], -q)

    def row_mix(t, i, al, be, ga, de):
        """(row_t, row_i) <- [[al, be], [ga, de]] (row_t, row_i), determinant 1"""
        a[t], a[i] = _mix(a[t], a[i], al, be, ga, de)
        if u is not None:
            u[t], u[i] = _mix(u[t], u[i], al, be, ga, de)
        if uinv is not None:
            uinv[t], uinv[i] = _mix(uinv[t], uinv[i], de, -ga, -be, al)
        for r in (t, i):
            for j in a[r]:
                held[j].append(r)
            changed.add(r)

    def row_swap(i, k):
        for x in (a, u, uinv):
            if x is not None:
                x[i], x[k] = x[k], x[i]
        for r in (i, k):
            for j in a[r]:
                held[j].append(r)
            changed.add(r)

    def row_negate(t):
        for x in (a, u, uinv):
            if x is not None:
                x[t] = {k: -y for k, y in x[t].items()}

    def holders(j, start):
        """The rows from ``start`` on with an entry in column j, in order."""
        return sorted({r for r in held[j] if r >= start and j in a[r]})

    def col_add(j, k, q, rows):
        """col_j += q * col_k, where ``rows`` hold every entry of col_k"""
        hj = held[j]
        for r in rows:
            ar = a[r]
            x = q * ar[k]
            y = ar.get(j)
            if y is None:
                ar[j] = x
                hj.append(r)
            elif y + x:
                ar[j] = y + x
            else:
                del ar[j]
        changed.update(rows)
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
                held[t].append(r)
            if f:
                ar[j] = f
                held[j].append(r)
        changed.update(rows)
        if v is not None:
            v[t], v[j] = _mix(v[t], v[j], al, be, ga, de)
        if vinv is not None:
            vinv[t], vinv[j] = _mix(vinv[t], vinv[j], de, -ga, -be, al)

    def col_swap(j, t):
        # a row's minimum and content do not change
        for r in {*held[j], *held[t]}:
            ar = a[r]
            x, y = ar.pop(t, None), ar.pop(j, None)
            if x is not None:
                ar[j] = x
            if y is not None:
                ar[t] = y
        held[j], held[t] = held[t], held[j]
        for x in (v, vinv):
            if x is not None:
                x[j], x[t] = x[t], x[j]

    def refresh():
        nonlocal low
        if low is None:
            low = [min(map(abs, r.values())) if r else inf for r in a]
        else:
            for r in changed:
                ar = a[r]
                low[r] = min(map(abs, ar.values())) if ar else inf
                if content is not None:
                    content[r] = gcd(*ar.values())
        changed.clear()

    def pivot_position(t):
        # Rows from t on are zero left of column t.  A unit in row t is the
        # pivot whatever the other rows hold.
        at = a[t]
        if at and min(map(abs, at.values())) == 1:
            return t, min(j for j, y in at.items() if abs(y) == 1)
        refresh()
        try:
            pi, best = low.index(1, t), 1
        except ValueError:
            rest = low[t:]
            best = min(rest)
            if best == inf:
                return None
            pi = t + rest.index(best)
        return pi, min(j for j, y in a[pi].items() if abs(y) == best)

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
            refresh()
            if content is None:
                content = [gcd(*r.values()) for r in a]
            if gcd(*content[t + 1:]) % p:
                row_add(t, next(i for i in range(t + 1, nr) if content[i] % p), 1)
                continue
        held[t] = None  # column t is done: nothing reads or extends its index
        t += 1

    def matrix(vecs, as_rows):
        """The matrix with these rows (or columns), entries in row-major order."""
        n = len(vecs)
        if as_rows:
            return IntMatrix._adopt(n, n, {(i, j): vec[j] for i, vec in enumerate(vecs)
                                           for j in sorted(vec)})
        rows: list[dict[int, int]] = [{} for _ in range(n)]
        for j, vec in enumerate(vecs):
            for i, x in vec.items():
                rows[i][j] = x
        return IntMatrix._adopt(n, n, {(i, j): x for i, row in enumerate(rows)
                                       for j, x in row.items()})

    s = IntMatrix._adopt(nr, nc, {(i, i): a[i][i] for i in range(t)})
    return SmithForm(s, *(None if x is None else matrix(x, as_rows)
                          for x, as_rows in zip((u, v, uinv, vinv), (True, False, False, True))))


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
