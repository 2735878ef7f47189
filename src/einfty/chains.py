"""Bounded complexes of free Z-modules and degree-homogeneous operators.

Sign conventions used throughout the package (all homological):

* differentials have degree -1;
* (f (x) g)(x (x) y) = (-1)^{deg g * deg x} f(x) (x) g(y);
* the bracket with the differential is [d, F] = d o F - (-1)^{deg F} F o d;
* a permutation acts on a tensor by moving the factor at position p to
  position sigma(p), with the Koszul sign of the factor degrees;
* T = the signed swap on two factors, T(x (x) y) = (-1)^{deg x deg y} y (x) x.

Operators K -> L^{(x) n} are stored by column: for each source degree,
each source basis element with a nonzero image maps to its image as a
{word: coefficient} dict.  A basis word of L^{(x) n} is a tuple of
(degree, index) factors.  Composition, the bracket with d, the signed
permutations and sums read and write these words directly, and the
differential is applied word by word to the nonzero entries only.  The
columns hold no zeros and no empty column or degree, so equality of
operators is plain dict equality.

Two kernels build operators.  ``tensor_compose`` is the one composition,
(op_1 (x) ... (x) op_n) o b; a slot given as None is an identity, whose
factor passes through unread, and a o b is ``tensor_compose([a], b)``.
``combination`` forms every signed sum, + and - and ``sigma_twist`` too.

Rows appear only at the linear-algebra boundary.  The words of one total
degree, ordered lexicographically, are the rows of the induced tensor
basis; ``ChainComplex.word_row`` and ``row_word`` convert between the two
by a closed rank/unrank formula from the rank counts of L.  Operators are
built from such matrices (Smith output); no solver reads them back, and
``GradedOperator.blocks`` serves the tests and the benchmark's counters.

An exact identity of operators is a (relation, got, want) triple, and
``failures`` is the one check that locates every failed one, as the
``errors.located`` record that ``violation`` raises.
"""
from __future__ import annotations

from typing import Sequence

from .errors import located, violation
from .intlinalg import IntMatrix

TensorKey = tuple[tuple[int, int], ...]


class ChainComplex:
    """Finitely generated free chain complex with chosen ordered bases."""

    def __init__(self, basis: dict[int, Sequence], boundary: dict[int, IntMatrix]):
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
        self.validate()

    def degrees(self) -> list[int]:
        return sorted(self.basis)

    def rank(self, d: int) -> int:
        return len(self.basis.get(d, ()))

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


def perm_sign(perm: Sequence[int], degrees: Sequence[int]) -> int:
    """Koszul sign of moving factor p to position perm[p], for all p."""
    sign = 1
    n = len(perm)
    for p in range(n):
        for q in range(p + 1, n):
            if perm[p] > perm[q] and (degrees[p] & 1) and (degrees[q] & 1):
                sign = -sign
    return sign


Column = dict[TensorKey, int]      # image of one basis element: word -> coeff
Columns = dict[int, dict[int, Column]]  # source degree -> source index -> column


def pruned(acc: Columns) -> Columns:
    """Drop the zero entries, then the empty columns and degrees."""
    out: Columns = {}
    for d, block in acc.items():
        kept = {}
        for i, col in block.items():
            col = {w: v for w, v in col.items() if v}
            if col:
                kept[i] = col
        if kept:
            out[d] = kept
    return out


class GradedOperator:
    """Degree-homogeneous operator source -> target^{(x) arity}.

    ``cols`` maps a source degree to the nonzero columns of that degree:
    source index -> {target word: coefficient}.  It holds no zero entry, no
    empty column and no empty degree, and it is not modified after
    construction.  ``blocks`` and ``block`` rank the words into matrices.
    """

    __slots__ = ("source", "target", "arity", "degree", "cols")

    def __init__(self, source: ChainComplex, target: ChainComplex, arity: int,
                 degree: int, blocks: dict[int, IntMatrix] | None = None):
        self.source = source
        self.target = target
        self.arity = arity
        self.degree = degree
        self.cols: Columns = {}
        for d, mat in (blocks or {}).items():
            t = d + degree
            expected = (target.tensor_rank(arity, t), source.rank(d))
            if mat.shape != expected:
                raise ValueError(
                    f"block at degree {d} has shape {mat.shape}, expected {expected}"
                )
            block: dict[int, Column] = {}
            for (r, c), v in mat.data.items():
                # row r of an arity-1 block is basis element r of degree t
                word = ((t, r),) if arity == 1 else target.row_word(arity, t, r)
                block.setdefault(c, {})[word] = v
            if block:
                self.cols[d] = block

    @classmethod
    def _adopt(cls, source: ChainComplex, target: ChainComplex, arity: int,
               degree: int, cols: Columns) -> "GradedOperator":
        """Wrap ``cols`` without copying it.  The caller has just built it and
        guarantees that it holds no zero entry, empty column or degree."""
        op = cls.__new__(cls)
        op.source, op.target, op.arity, op.degree, op.cols = (
            source, target, arity, degree, cols)
        return op

    def block(self, d: int) -> IntMatrix:
        """Source degree d as a matrix in the ranked basis of the target power."""
        t = d + self.degree
        row = self.target.word_row
        return IntMatrix._adopt(
            self.target.tensor_rank(self.arity, t), self.source.rank(d),
            {(row(self.arity, t, w), i): v
             for i, col in self.cols.get(d, {}).items() for w, v in col.items()})

    @property
    def blocks(self) -> dict[int, IntMatrix]:
        return {d: self.block(d) for d in self.cols}

    def is_zero(self) -> bool:
        return not self.cols

    def same_shape(self, other: "GradedOperator") -> bool:
        return (self.source is other.source and self.target is other.target
                and self.arity == other.arity and self.degree == other.degree)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedOperator):
            return NotImplemented
        return self.same_shape(other) and self.cols == other.cols

    def __hash__(self):
        raise TypeError("GradedOperator is not hashable")

    def __add__(self, other: "GradedOperator") -> "GradedOperator":
        return combination([(1, None, self), (1, None, other)])

    def __sub__(self, other: "GradedOperator") -> "GradedOperator":
        return combination([(1, None, self), (-1, None, other)])

    def __neg__(self) -> "GradedOperator":
        return self.scale(-1)

    def scale(self, c: int) -> "GradedOperator":
        cols = {d: {i: {w: c * v for w, v in col.items()} for i, col in block.items()}
                for d, block in self.cols.items()} if c else {}
        return GradedOperator._adopt(self.source, self.target, self.arity, self.degree,
                                     cols)

    def image_of(self, d: int, idx: int) -> list[tuple[int, TensorKey]]:
        """Expansion of the image of one source basis element, in word order
        (within one total degree, the row order of ``block``)."""
        return [(v, w) for w, v in sorted(self.cols.get(d, {}).get(idx, {}).items())]

    def __repr__(self):
        return (f"GradedOperator(arity={self.arity}, degree={self.degree}, "
                f"blocks@{sorted(self.cols)})")


def zero_operator(source: ChainComplex, target: ChainComplex, arity: int,
                  degree: int) -> GradedOperator:
    return GradedOperator._adopt(source, target, arity, degree, {})


def identity_operator(c: ChainComplex) -> GradedOperator:
    cols = {d: {i: {((d, i),): 1} for i in range(c.rank(d))} for d in c.degrees()}
    return GradedOperator._adopt(c, c, 1, 0, cols)


def boundary_operator(c: ChainComplex) -> GradedOperator:
    cols: Columns = {}
    for (d, i), faces in c._faces.items():
        cols.setdefault(d, {})[i] = {((d - 1, r),): v for r, v in faces}
    return GradedOperator._adopt(c, c, 1, -1, cols)


def bracket_d(f: GradedOperator) -> GradedOperator:
    """[d, f] = d_target o f - (-1)^{deg f} f o d_source."""
    sign = -1 if f.degree & 1 else 1
    tgt = f.target
    acc: Columns = {}
    for d, block in f.cols.items():
        dst = acc.setdefault(d, {})
        for i, col in block.items():
            out = dst.setdefault(i, {})
            for word, v in col.items():
                for s, face in tgt.word_boundary(word):
                    out[face] = out.get(face, 0) + s * v
    for (d, i), faces in f.source._faces.items():
        below = f.cols.get(d - 1)
        if not below:
            continue
        out = acc.setdefault(d, {}).setdefault(i, {})
        for r, u in faces:
            for word, v in below.get(r, {}).items():
                out[word] = out.get(word, 0) - sign * u * v
    return GradedOperator._adopt(f.source, f.target, f.arity, f.degree - 1, pruned(acc))


def _head_images(slots, head: TensorKey, odd_last: int) -> list[tuple[int, TensorKey]]:
    """The images of the factors ``head`` under the first len(head) slots,
    as (sign, word) pairs: each slot operator pays the Koszul sign of the
    inputs before it, the last slot's included.  Empty when a factor of
    ``head`` has no image.  An identity slot (cols None) passes its factor
    through, and the factor's degree still counts for the later slots."""
    images = [(1, ())]
    running = 0
    for (cols, odd), (e, j) in zip(slots, head):
        piece = {((e, j),): 1} if cols is None else cols.get(e, {}).get(j)
        if not piece:
            return []
        flip = -1 if odd and running & 1 else 1
        running += e
        images = [(flip * s * v, w + frag) for s, w in images for frag, v in piece.items()]
    if odd_last and running & 1:
        images = [(-s, w) for s, w in images]
    return images


def tensor_compose(ops: Sequence[GradedOperator | None], b: GradedOperator) -> GradedOperator:
    """(op_1 (x) ... (x) op_n) o b with the Koszul sign convention.

    All ops must share b.target as source and must share a common target
    complex; arbitrary arities (including 0) are allowed per slot.  A slot
    given as None is the identity of b.target: its factor passes through.
    It is the one composition of operators: ``tensor_compose([a], b)`` is
    a o b, and with no slot to fill (b of arity 0, or identities only) the
    result is b itself.
    """
    n = b.arity
    if len(ops) != n:
        raise ValueError(f"need {n} slot operators, got {len(ops)}")
    given = [op for op in ops if op is not None]
    if not given:
        return b
    if any(op.source is not b.target for op in given):
        raise ValueError("slot operator source must equal inner target")
    # an identity slot maps into b.target; slots of arity 0 alone make a
    # functional into the ground ring
    targets = {op.target for op in given if op.arity}
    if len(given) < n:
        targets.add(b.target)
    if len(targets) > 1:
        raise ValueError("slot operators must share one target complex")
    tgt = targets.pop() if targets else given[0].target
    out_arity = n - len(given) + sum(op.arity for op in given)
    out_degree = b.degree + sum(op.degree for op in given)
    slots = [(None, 0) if op is None else (op.cols, op.degree & 1) for op in ops]
    last_cols, odd_last = slots[-1]
    # the total degrees that words with a nonzero image in every slot can have
    reach = {0}
    for op in ops:
        reach = {r + e for r in reach for e in (b.target.basis if op is None else op.cols)}
    # a word is its head (all factors but the last) and its last factor, whose
    # images go straight into the column; heads recur across the words of b,
    # so each head's images are found once, and with one slot (every head is
    # ()) once per call
    heads: dict[TensorKey, list[tuple[int, TensorKey]]] = {}
    one = _head_images(slots, (), odd_last) if n == 1 else None
    acc: Columns = {}
    for d, block in b.cols.items():
        if d + b.degree not in reach:
            continue
        dst = acc.setdefault(d, {})
        for i, col in block.items():
            out = dst.setdefault(i, {})
            for word, coeff in col.items():
                e, j = word[-1]
                last = {word[-1:]: 1} if last_cols is None else last_cols.get(e, {}).get(j)
                if not last:
                    continue
                images = one or heads.get(head := word[:-1])
                if images is None:
                    images = heads[head] = _head_images(slots, head, odd_last)
                for sign, w in images:
                    c = sign * coeff
                    for frag, v in last.items():
                        key = w + frag
                        out[key] = out.get(key, 0) + c * v
    return GradedOperator._adopt(b.source, tgt, out_arity, out_degree, pruned(acc))


def compose_slot(a: GradedOperator, b: GradedOperator, i: int) -> GradedOperator:
    """Substitute ``a`` into tensor slot ``i`` (1-based) of b's target."""
    if not 1 <= i <= b.arity:
        raise ValueError(f"slot {i} out of range for arity {b.arity}")
    ops: list[GradedOperator | None] = [None] * b.arity
    ops[i - 1] = a
    return tensor_compose(ops, b)


def combination(terms: Sequence[tuple[int, Sequence[int] | None, GradedOperator]]
                ) -> GradedOperator:
    """The signed sum of c * sigma(op) over (c, perm, op) triples.

    Every op has the first one's shape, and ``perm`` acts as in
    ``sigma_twist`` (None for the identity).  It is the one sum of
    operators: the terms go into one column dict, pruned once.
    """
    first = terms[0][2]
    acc: Columns = {}
    for c, perm, op in terms:
        if not op.same_shape(first):
            raise ValueError("operator shape mismatch in +")
        if perm is not None:
            if len(perm) != op.arity:
                raise ValueError("permutation length must match arity")
            if all(p == q for q, p in enumerate(perm)):
                perm = None
            else:
                # the factor that lands at position q came from position inv[q]
                inv = sorted(range(op.arity), key=perm.__getitem__)
        for d, block in op.cols.items():
            dst = acc.setdefault(d, {})
            for i, col in block.items():
                out = dst.setdefault(i, {})
                for w, v in col.items():
                    if perm is not None:
                        v *= perm_sign(perm, [e for e, _ in w])
                        w = tuple([w[p] for p in inv])
                    out[w] = out.get(w, 0) + c * v
    return GradedOperator._adopt(first.source, first.target, first.arity, first.degree,
                                 pruned(acc))


def sigma_twist(perm: Sequence[int], f: GradedOperator) -> GradedOperator:
    """Post-compose with the signed permutation of target factors.

    ``perm[p]`` is the destination position (0-based) of factor p.
    """
    return combination([(1, perm, f)])


def transpose_swap(f: GradedOperator) -> GradedOperator:
    """The signed factor swap T applied after an arity-2 operator."""
    if f.arity != 2:
        raise ValueError("transpose_swap needs arity 2")
    return sigma_twist((1, 0), f)


# -- exact identities ------------------------------------------------------------

def expansion(op: GradedOperator, d: int, idx: int) -> list[list]:
    """One basis image of ``op`` as [coefficient, word] pairs, the words
    spelled in cell labels ("1" for the empty word)."""
    labels = op.target.labels
    return [[v, "(x)".join(str(labels(e)[i]) for e, i in word) or "1"]
            for v, word in op.image_of(d, idx)]


def mismatch(relation: str, got: GradedOperator, want: GradedOperator) -> dict:
    """A failed identity ``got == want``, ``located`` at the first source
    degree and basis element where the two differ, with both images.

    Meant for the failure path only: it walks the images until they differ.
    """
    for d in sorted(set(got.cols) | set(want.cols)):
        have, need = got.cols.get(d, {}), want.cols.get(d, {})
        for idx in sorted(set(have) | set(need)):
            if have.get(idx) != need.get(idx):
                return located(relation, d, str(got.source.labels(d)[idx]),
                               expansion(want, d, idx), expansion(got, d, idx))
    return {"relation": relation, "detail": "operators differ in shape"}


def failures(checks) -> list[dict]:
    """One ``mismatch`` per (relation, got, want) triple of ``checks`` whose
    two sides differ, in order; empty when every identity holds."""
    return [mismatch(relation, got, want) for relation, got, want in checks if got != want]
