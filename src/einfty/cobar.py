"""Truncated cobar construction on a reduced single-vertex structure.

Letters are the positive-dimensional simplices with degree shifted down by
one; words are tensors of letters.  Since the reduced diagonal of a
single-vertex model kills every edge, all degree-0 words are cycles and

    D = (shifted boundary, length-preserving) + (reduced diagonal, length+1)

is the whole differential -- the higher operations act by zero at chain
level, so D is quadratic.  On a letter coming from a simplex x:

    D1(x) = -(dx),    D2(x) = sum (-1)^{dim x'} x' (x) x''

over the reduced diagonal terms of x, extended to words as a derivation.

Word-length graded pieces of H_0 are exact quotients: the degree-0 words of
length l modulo those boundaries D(b) whose lower-length components can be
cancelled by completing b downwards.  Lengths up to N-1 are unaffected by
the truncation at N, which is why only those are reported.

Words are kept as codes: a word's code is the number whose
base-len(alphabet) digits are the positions of its letters in the sorted
alphabet, so codes order words as they are ordered lexicographically.
Letters of one degree occupy a contiguous run of positions, so the codes
of degree e and length l + 1 are, letter by letter in alphabet order, a
letter of degree k <= e put in front of each code of degree e - k and
length l.  Every bucket comes out sorted, no word tuple is built and no
word of degree above 2 is visited; ``TruncatedCobar.word`` decodes a code
when a report names a word.

D is built once and stored by column: ``d_keep`` maps a source (degree,
length) to the same length, ``d_up`` to length + 1, and a block holds one
{target row: coefficient} dict per source word.  The same first-letter
split numbers words and builds D: by the derivation rule, the column of
x (x) w is the column of w one length down with its rows moved by x's
place, plus the few terms of D(x), so most entries are copied by one
dict comprehension per column (``build_cobar``).  Dicts of plain integers
are not tracked by the garbage collector, so the store adds no per-entry
objects for it to scan.  ``gr_h0_ranks`` turns into ``IntMatrix`` only the
degree-1 blocks it factors, those at lengths below ``max_len``.

D o D = 0 is checked exactly, over the integers, on every degree-2 word and
every component the truncation leaves whole (keep.keep, keep.up + up.keep,
up.up).  The check reads the column store as it is: a word's D o D is
summed term by term, through the columns of its D terms, into one dict
keyed by target row, so no product matrix is built.  A failure names the
first word whose D o D is nonzero, with that image.
"""
from __future__ import annotations

from .coalgebra import CoalgebraStructure
from .errors import MultipleVertices
from .intlinalg import IntMatrix, kernel_basis, quotient_invariants

Letter = tuple[int, int]  # (shifted degree, index within that layer)


class ColumnBlock:
    """One block of D by source word: ``cols[j]`` maps the target rows of
    source word j to their coefficients, all nonzero."""

    __slots__ = ("nrows", "cols")

    def __init__(self, nrows: int, cols: list[dict[int, int]]):
        self.nrows = nrows
        self.cols = cols

    @property
    def data(self) -> dict[tuple[int, int], int]:
        """The entries keyed by (row, column), as in ``IntMatrix.data``."""
        return {(r, j): v for j, col in enumerate(self.cols) for r, v in col.items()}

    def matrix(self) -> IntMatrix:
        return IntMatrix._adopt(self.nrows, len(self.cols), self.data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ColumnBlock):
            return NotImplemented
        return self.nrows == other.nrows and self.cols == other.cols


class TruncatedCobar:
    """``words`` maps (degree, length) to the sorted codes of its words;
    ``d_keep`` and ``d_up`` map a source (degree, length) to a
    ``ColumnBlock``, and omit the blocks that are zero."""

    def __init__(self, structure: CoalgebraStructure, max_len: int,
                 words: dict[tuple[int, int], list[int]],
                 d_keep: dict[tuple[int, int], ColumnBlock],
                 d_up: dict[tuple[int, int], ColumnBlock]):
        self.structure = structure
        self.max_len = max_len
        self.words = words
        self.d_keep = d_keep
        self.d_up = d_up

    def word_count(self, degree: int, length: int) -> int:
        return len(self.words.get((degree, length), ()))

    def word(self, degree: int, length: int, index: int) -> tuple[Letter, ...]:
        """The letters of a word, decoded from its code."""
        alphabet = _alphabet(self.structure)
        code = self.words[(degree, length)][index]
        letters = []
        for _ in range(length):
            code, digit = divmod(code, len(alphabet))
            letters.append(alphabet[digit])
        return tuple(reversed(letters))


def _alphabet(structure: CoalgebraStructure) -> list[Letter]:
    """The letters of degree <= 2, sorted: each degree is one run."""
    c = structure.complex
    return [(d - 1, i) for d in c.degrees() if d <= 3 for i in range(c.rank(d))]


def _letter_images(structure: CoalgebraStructure, alphabet: list[Letter]):
    """Per letter position in ``alphabet``: the boundary part of D as
    (coeff, letter) terms and the diagonal part as (coeff, first letter,
    second letter) terms, each letter given by its position."""
    c = structure.complex
    diag = structure.op("m2_0")
    pos = {letter: k for k, letter in enumerate(alphabet)}
    bnd: list[list[tuple[int, int]]] = []
    spl: list[list[tuple[int, int, int]]] = []
    for d in sorted({e + 1 for e, _ in alphabet}):
        faces: dict[int, list[tuple[int, int]]] = {}
        for (r, col), v in c.boundary_matrix(d).data.items():
            faces.setdefault(col, []).append((-v, pos[(d - 2, r)]))
        for i in range(c.rank(d)):
            bnd.append(faces.get(i, []))
            spl.append([])
            for coeff, word in diag.image_of(d, i):
                (e1, i1), (e2, i2) = word
                sign = -1 if e1 % 2 else 1
                spl[-1].append((sign * coeff, pos[(e1 - 1, i1)], pos[(e2 - 1, i2)]))
    return bnd, spl


def _word_codes(alphabet: list[Letter], max_len: int) -> dict[tuple[int, int], list[int]]:
    """(degree, length) -> the sorted codes of the words of that degree <= 2.

    A length-(l + 1) word is a first letter followed by a length-l word, and
    its code is the letter's position times base**l plus the rest's code.
    Taking first letters in alphabet order over sorted rest codes yields
    each bucket sorted.
    """
    runs: dict[int, list[int]] = {}  # letter degree -> its positions, ascending
    for k, (e, _) in enumerate(alphabet):
        runs.setdefault(e, []).append(k)
    base = len(alphabet)
    codes: dict[tuple[int, int], list[int]] = {(0, 0): [0]}
    for length in range(1, max_len + 1):
        place = base ** (length - 1)
        for degree in range(3):
            bucket: list[int] = []
            for e, positions in runs.items():
                rests = codes.get((degree - e, length - 1))
                if rests:
                    for k in positions:
                        bucket.extend(map((k * place).__add__, rests))
            if bucket:
                codes[(degree, length)] = bucket
    return dict(sorted(codes.items()))


def build_cobar(structure: CoalgebraStructure, max_len: int) -> TruncatedCobar:
    """Words of internal degree <= 2 up to the given length, with D blocks.

    A word is its first letter x followed by a shorter word w, and

        D(x (x) w) = D(x) (x) w + (-1)^{|x|} x (x) D(w).

    Within a bucket the words that start with x form one run, numbered as
    their rests w are numbered in w's bucket.  So the column of x (x) w is
    w's column in the block one length down, its rows moved to x's run in
    the target bucket, plus one entry per term y (or y (x) z) of D(x), at
    w's number within the run of words that start with y (or y (x) z).
    """
    if max_len < 1:
        raise ValueError("word length bound must be >= 1")
    if not structure.reduced:
        raise MultipleVertices(structure.complex.rank(0))
    alphabet = _alphabet(structure)
    degs = [e for e, _ in alphabet]
    bnd, spl = _letter_images(structure, alphabet)
    words = _word_codes(alphabet, max_len)
    count = {key: len(codes) for key, codes in words.items()}

    def starts(degree: int, length: int) -> list[int]:
        """Per letter, the number of the first word of (degree, length)
        that starts with it."""
        out, s = [], 0
        for e in degs:
            out.append(s)
            s += count.get((degree - e, length - 1), 0)
        return out

    d_keep: dict[tuple[int, int], ColumnBlock] = {}
    d_up: dict[tuple[int, int], ColumnBlock] = {}
    for degree, length in words:
        if degree == 0:
            continue
        up_fits = length < max_len
        keep_at = starts(degree - 1, length)
        if up_fits:
            up_at = starts(degree - 1, length + 1)
            # after a first letter of degree e, the runs of the second letters
            second_at = {e: starts(degree - 1 - e, length) for e in set(degs)}
        keep_cols: list[dict[int, int]] = []
        up_cols: list[dict[int, int]] = []
        for x, e in enumerate(degs):
            n = count.get((degree - e, length - 1), 0)
            if not n:
                continue
            sign = -1 if e % 2 else 1
            heads = [(coeff, keep_at[y]) for coeff, y in bnd[x]]
            inner = d_keep.get((degree - e, length - 1))
            keep_cols.extend(_shifted(inner, n, keep_at[x], sign, heads))
            if up_fits:
                heads = [(coeff, up_at[y] + second_at[degs[y]][z]) for coeff, y, z in spl[x]]
                inner = d_up.get((degree - e, length - 1))
                up_cols.extend(_shifted(inner, n, up_at[x], sign, heads))
        if any(keep_cols):
            d_keep[(degree, length)] = ColumnBlock(count.get((degree - 1, length), 0), keep_cols)
        if any(up_cols):
            d_up[(degree, length)] = ColumnBlock(count.get((degree - 1, length + 1), 0), up_cols)
    return TruncatedCobar(structure, max_len, words, d_keep, d_up)


def _shifted(inner: ColumnBlock | None, n: int, shift: int, sign: int,
             heads: list[tuple[int, int]]) -> list[dict[int, int]]:
    """The n columns of x (x) w for a first letter x: w's column in
    ``inner`` with its rows shifted by ``shift`` and its coefficients times
    ``sign``, and each (coeff, start) of ``heads`` as ``coeff`` at row
    start + (w's number)."""
    if inner is None:
        cols: list[dict[int, int]] = [{} for _ in range(n)]
    else:
        cols = [{shift + r: sign * v for r, v in col.items()} for col in inner.cols]
    for coeff, start in heads:
        for i, col in enumerate(cols, start):
            col[i] = coeff
    return cols


def _block(t: TruncatedCobar, table: dict, degree: int, length: int) -> IntMatrix:
    """A block of D as an ``IntMatrix``, zero when the store omits it."""
    block = table.get((degree, length))
    if block is not None:
        return block.matrix()
    src = t.word_count(degree, length)
    if table is t.d_keep:
        dst = t.word_count(degree - 1, length)
    else:
        dst = t.word_count(degree - 1, length + 1)
    return IntMatrix(dst, src)


def _completable(keep: list[IntMatrix], up: list[IntMatrix], upto: int) -> dict[int, IntMatrix]:
    """Generators of {b in degree-1 length-j words completable below}.

    b_j qualifies when its length-preserving boundary (``keep[j]``) is
    cancelled by the length-raising boundary (``up[j - 1]``) of some
    completable b_{j-1}; the recursion bottoms out at length 0 where there
    are no degree-1 words.
    """
    out: dict[int, IntMatrix] = {}
    out[0] = IntMatrix(keep[0].ncols, 0)
    for j in range(1, upto + 1):
        nb = keep[j].ncols
        if nb == 0:
            out[j] = IntMatrix(0, 0)
            continue
        d0, lower = keep[j], up[j - 1]
        reach = lower @ out[j - 1] if out[j - 1].ncols else IntMatrix(lower.nrows, 0)
        combined = d0.hstack(reach.scale(-1)) if reach.ncols else d0
        ker = kernel_basis(combined)
        proj = IntMatrix(nb, ker.ncols)
        for (i, jj), v in ker.data.items():
            if i < nb:
                proj[i, jj] = v
        out[j] = proj
    return out


def gr_h0_ranks(t: TruncatedCobar) -> list[dict]:
    """Word-length graded ranks of H_0, lengths 0..max_len-1.

    Each entry carries the free rank and any torsion coefficients of the
    graded piece (torsion empty on all bundled fixtures, but reported
    honestly when present).
    """
    keep = [_block(t, t.d_keep, 1, length) for length in range(t.max_len)]
    up = [_block(t, t.d_up, 1, length) for length in range(t.max_len - 1)]
    # length l reads the completable generators of length l - 1 only
    comp = _completable(keep, up, t.max_len - 2)
    out = []
    for length in range(0, t.max_len):
        gens = keep[length]
        if length >= 1:
            s_prev = comp[length - 1]
            if s_prev.ncols:
                gens = gens.hstack(up[length - 1] @ s_prev)
        free, torsion = quotient_invariants(t.word_count(0, length), gens)
        out.append({"length": length, "rank": free, "torsion": torsion})
    return out


def _first_nonzero_column(products, ncols: int):
    """First source column where sum(outer @ inner) is nonzero, with its image.

    ``products`` holds (outer, inner) pairs of blocks, None for a zero
    block.  One column's image at a time is summed into a dict keyed by
    target row, so terms that cancel cost one dict update each and
    allocate nothing.
    """
    products = [(o.cols, i.cols) for o, i in products if o is not None and i is not None]
    for col in range(ncols):
        image: dict[int, int] = {}
        for outer, inner in products:
            for r, v in inner[col].items():
                for r2, v2 in outer[r].items():
                    image[r2] = image.get(r2, 0) + v * v2
        if any(image.values()):
            return col, {r: v for r, v in image.items() if v}
    return None


def word_label(t: TruncatedCobar, degree: int, length: int, index: int) -> str:
    """A word spelled in the labels of its simplices, "1" when empty."""
    if index >= t.word_count(degree, length):  # a degree-0 source's D has no target words
        return f"#{index} of degree {degree}, length {length}"
    labels = t.structure.complex.labels
    return "(x)".join(str(labels(e + 1)[i]) for e, i in t.word(degree, length, index)) or "1"


def _failure(t: TruncatedCobar, degree: int, length: int, col: int,
             images: list[tuple[tuple[int, int], dict[int, int]]]) -> dict:
    """Report fields naming a failing source word and its nonzero image;
    ``images`` pairs each target (degree, length) with {row: coefficient}."""
    return {
        "length": length,
        "word": word_label(t, degree, length, col),
        "expansion": [[v, word_label(t, *target, r)]
                      for target, image in images for r, v in sorted(image.items())],
    }


def describe_failure(entry: dict) -> str:
    """One line naming a failing check entry's word and its D o D."""
    terms = " ".join(f"{v:+d} {w}" for v, w in entry["expansion"])
    return f"{entry['component']} on {entry['source']}: {entry['word']} -> {terms}"


def check_d_squared_cobar(t: TruncatedCobar) -> list[dict]:
    """D o D = 0 on every truncation-safe component.

    A failing entry also names the first failing source word (``word``, in
    simplex labels), its length and the nonzero terms of its image
    (``expansion``, [coefficient, word] pairs).
    """
    keep, up = t.d_keep, t.d_up
    report = []
    for length in range(0, t.max_len + 1):
        n = t.word_count(2, length)
        if n == 0:
            continue
        keep2, up2 = keep.get((2, length)), up.get((2, length))
        # (label, length added, [(outer, inner)] whose products sum to it)
        checks = [("keep.keep", 0, [(keep.get((1, length)), keep2)])]
        if length + 1 <= t.max_len:
            checks.append(("keep.up + up.keep", 1,
                           [(keep.get((1, length + 1)), up2),
                            (up.get((1, length)), keep2)]))
        if length + 2 <= t.max_len:
            checks.append(("up.up", 2, [(up.get((1, length + 1)), up2)]))
        for label, rise, products in checks:
            entry = {"source": f"degree 2, length {length}", "component": label,
                     "ok": True}
            bad = _first_nonzero_column(products, n)
            if bad is not None:
                col, image = bad
                entry["ok"] = False
                entry.update(_failure(t, 2, length, col, [((0, length + rise), image)]))
            report.append(entry)
    # degree-0 words must be cycles outright
    for length in range(0, t.max_len + 1):
        blocks = [((-1, length + rise), table[(0, length)].cols)
                  for rise, table in ((0, keep), (1, up)) if (0, length) in table]
        if blocks:
            col = min((c for _, cols in blocks for c, entries in enumerate(cols)
                       if entries), default=0)
            images = [(target, dict(cols[col]) if col < len(cols) else {})
                      for target, cols in blocks]
            report.append({"source": f"degree 0, length {length}",
                           "component": "D", "ok": False,
                           **_failure(t, 0, length, col, images)})
    return report
