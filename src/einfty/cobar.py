"""Truncated cobar construction on a reduced single-vertex structure.

Letters are the positive-dimensional simplices with degree shifted down by
one; words are tensors of letters.  Since the reduced diagonal of a
single-vertex model kills every edge, all degree-0 words are cycles and

    D = (shifted boundary, length-preserving) + (reduced diagonal, length+1)

is the whole differential -- the higher operations act by zero at chain
level, so D is quadratic.  On a letter coming from a simplex x:

    D1(x) = -(dx),    D2(x) = sum (-1)^{dim x'} x' (x) x''

over the reduced diagonal terms of x, extended to words as a derivation:

    D(x (x) w) = D(x) (x) w + (-1)^{|x|} x (x) D(w).

Word-length graded pieces of H_0 are exact quotients: the degree-0 words of
length l modulo those boundaries D(b) whose lower-length components can be
cancelled by completing b downwards.  Lengths up to N-1 are unaffected by
the truncation at N, which is why only those are reported.

What is stored.  ``gr_h0_ranks`` reads D on degree-1 words only: the
length-preserving block of each length l < N and the length-raising block
of each l < N - 1.  So the words listed are those of degree <= 1 and length
<= N - 1, and those blocks are the only ones built: ``d_keep`` maps a
source (degree, length) to the same length, ``d_up`` to length + 1, and a
block holds one {target row: coefficient} dict per source word.  By the
derivation rule, the column of x (x) w is the column of w one length down
with its rows moved by x's place, plus the few terms of D(x), so most
entries are copied by one dict comprehension per column (``_columns``).
Dicts of plain integers are not tracked by the garbage collector, so the
store adds no per-entry objects for it to scan.

Words are kept as codes: a word's code is the number whose
base-len(alphabet) digits are the positions of its letters in the sorted
alphabet of letters of degree <= 2, so codes order words as they are
ordered lexicographically.  Letters of one degree occupy a contiguous run of
positions, so the codes of degree e and length l + 1 are, letter by letter
in alphabet order, a letter of degree k <= e put in front of each code of
degree e - k and length l.  Every bucket comes out sorted and no word tuple
is built; ``TruncatedCobar.word`` decodes a code when a report names a word.

Why D o D = 0 needs no enumeration of words.  D is an odd derivation, so

    D^2(x (x) w) = D^2(x) (x) w + x (x) D^2(w),

the two cross terms (-1)^{|x|-1} D(x) (x) D(w) and (-1)^{|x|} D(x) (x) D(w)
cancelling.  Words longer than N form a D-stable ideal, since D never
shortens a word, so the identity holds in the truncation too.  Hence
D^2 = 0 on every word if and only if it vanishes on every letter and the
stored D is the derivation that D on letters determines.
``check_d_squared_cobar`` checks exactly these two things, over the
integers:

* the letter check computes D^2 of each letter of degree <= 2 in full,
  without truncation: its words have length <= 3, split into the
  components keep.keep, keep.up + up.keep and up.up.  It carries d o d = 0,
  the diagonal as a chain map and coassociativity.  On 2-dimensional inputs
  it vanishes for degree reasons; 3-simplices give it content.
* the Leibniz audit checks every stored column against its rest's stored
  column, shifted, plus the terms of D of its first letter (a length-1
  column against D of its letter), and that no degree-0 word has a D.  By
  induction on length, the blocks the ranks read are then D itself.

A failure is an ``errors.located`` record that names the letter or word
(in simplex labels) and its degree, with its expected and actual images.
"""
from __future__ import annotations

from collections.abc import Iterable

from .coalgebra import CoalgebraStructure
from .errors import MultipleVertices, NotReduced, located
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
    """``words`` maps (degree, length), for degree <= 1 and length <
    ``max_len``, to the sorted codes of its words; ``d_keep`` and ``d_up``
    map a source (degree, length) to a ``ColumnBlock``, and omit the blocks
    that are zero."""

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


class _LetterD:
    """D on the letters of ``_alphabet``, each letter given by its position:
    ``degs[k]`` is the degree of letter k, ``bnd[k]`` its boundary part as
    (coeff, letter) terms and ``spl[k]`` its diagonal part as (coeff, first
    letter, second letter) terms."""

    def __init__(self, structure: CoalgebraStructure):
        c = structure.complex
        diag = structure.op("m2_0")
        self.alphabet = _alphabet(structure)
        self.degs = [e for e, _ in self.alphabet]
        pos = {letter: k for k, letter in enumerate(self.alphabet)}
        self.bnd: list[list[tuple[int, int]]] = []
        self.spl: list[list[tuple[int, int, int]]] = []
        for d in sorted({e + 1 for e in self.degs}):
            faces: dict[int, list[tuple[int, int]]] = {}
            for (r, col), v in c.boundary_matrix(d).data.items():
                faces.setdefault(col, []).append((-v, pos[(d - 2, r)]))
            for i in range(c.rank(d)):
                self.bnd.append(faces.get(i, []))
                self.spl.append([])
                for coeff, word in diag.image_of(d, i):
                    (e1, i1), (e2, i2) = word
                    sign = -1 if e1 % 2 else 1
                    self.spl[-1].append((sign * coeff, pos[(e1 - 1, i1)], pos[(e2 - 1, i2)]))

    def of_word(self, word: tuple[int, ...]) -> dict[tuple[int, ...], int]:
        """D of a word of degree <= 1, as letter positions, untruncated.

        In such a word every letter after an odd one has degree 0, and D of
        a degree-0 letter is zero, so the sign (-1)^{|x|} of the derivation
        rule is +1 wherever D acts.
        """
        out: dict[tuple[int, ...], int] = {}
        for i, x in enumerate(word):
            head, tail = word[:i], word[i + 1:]
            for coeff, y in self.bnd[x]:
                w = head + (y,) + tail
                out[w] = out.get(w, 0) + coeff
            for coeff, y, z in self.spl[x]:
                w = head + (y, z) + tail
                out[w] = out.get(w, 0) + coeff
        return out


def _word_codes(alphabet: list[Letter], max_len: int) -> dict[tuple[int, int], list[int]]:
    """(degree, length) -> the sorted codes of the words of degree <= 1 and
    length < max_len.

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
    for length in range(1, max_len):
        place = base ** (length - 1)
        for degree in range(2):
            bucket: list[int] = []
            for e, positions in runs.items():
                rests = codes.get((degree - e, length - 1))
                if rests:
                    for k in positions:
                        bucket.extend(map((k * place).__add__, rests))
            if bucket:
                codes[(degree, length)] = bucket
    return dict(sorted(codes.items()))


def _columns(letters: _LetterD, count: dict[tuple[int, int], int],
             table: dict[tuple[int, int], ColumnBlock], rise: int,
             length: int) -> list[dict[int, int]]:
    """The columns of D from degree-1 words of ``length`` to length + rise
    (0: ``d_keep``, 1: ``d_up``), read off ``table``'s block one length down.

    A word is its first letter x followed by a shorter word w, and

        D(x (x) w) = D(x) (x) w + (-1)^{|x|} x (x) D(w).

    Within a bucket the words that start with x form one run, numbered as
    their rests w are numbered in w's bucket.  So the column of x (x) w is
    w's column in ``table`` one length down, its rows moved to x's run in
    the target bucket, plus one entry per term y (or y (x) z) of D(x), at
    w's number within the run of words that start with y (or y (x) z).  A
    rest of degree 0 contributes nothing, since D of a degree-0 word is
    zero; so only first letters of degree 0 carry a rest's column, and
    their sign (-1)^{|x|} is +1.
    """
    degs = letters.degs

    def starts(length: int) -> list[int]:
        """Per letter, the number of the first degree-0 word of ``length``
        that starts with it."""
        out, s = [], 0
        for e in degs:
            out.append(s)
            s += count.get((-e, length - 1), 0)
        return out

    at = starts(length + rise)
    if rise:
        second_at = starts(length)  # the terms of D2 on degree 1 are degree-0 pairs
    cols: list[dict[int, int]] = []
    for x, e in enumerate(degs):
        n = count.get((1 - e, length - 1), 0)
        if not n:
            continue
        if rise:
            heads = [(coeff, at[y] + second_at[z]) for coeff, y, z in letters.spl[x]]
        else:
            heads = [(coeff, at[y]) for coeff, y in letters.bnd[x]]
        inner = table.get((1, length - 1)) if e == 0 else None
        cols.extend(_shifted(inner, n, at[x], heads))
    return cols


def _shifted(inner: ColumnBlock | None, n: int, shift: int,
             heads: list[tuple[int, int]]) -> list[dict[int, int]]:
    """The n columns of x (x) w for a first letter x: w's column in
    ``inner`` with its rows shifted by ``shift``, and each (coeff, start) of
    ``heads`` as ``coeff`` at row start + (w's number)."""
    if inner is None:
        cols: list[dict[int, int]] = [{} for _ in range(n)]
    else:
        cols = [{shift + r: v for r, v in col.items()} for col in inner.cols]
    for coeff, start in heads:
        for i, col in enumerate(cols, start):
            col[i] = coeff
    return cols


def build_cobar(structure: CoalgebraStructure, max_len: int) -> TruncatedCobar:
    """The words of degree <= 1 and length < max_len, with the blocks of D
    that ``gr_h0_ranks`` reads: ``d_keep[(1, l)]`` for l < max_len and
    ``d_up[(1, l)]`` for l < max_len - 1, each built from the one a length
    down (``_columns``)."""
    if max_len < 1:
        raise ValueError("word length bound must be >= 1")
    if not structure.reduced:
        vertices = structure.complex.rank(0)
        raise MultipleVertices(vertices) if vertices != 1 else NotReduced()
    letters = _LetterD(structure)
    words = _word_codes(letters.alphabet, max_len)
    count = {key: len(codes) for key, codes in words.items()}
    d_keep: dict[tuple[int, int], ColumnBlock] = {}
    d_up: dict[tuple[int, int], ColumnBlock] = {}
    for length in range(1, max_len):
        for table, rise in ((d_keep, 0), (d_up, 1)):
            if length + rise < max_len:
                cols = _columns(letters, count, table, rise, length)
                if any(cols):
                    table[(1, length)] = ColumnBlock(count.get((0, length + rise), 0), cols)
    return TruncatedCobar(structure, max_len, words, d_keep, d_up)


def _block(t: TruncatedCobar, table: dict, length: int, rise: int) -> IntMatrix:
    """D from degree-1 words of ``length`` to length + rise as an
    ``IntMatrix``, zero when the store omits it."""
    block = table.get((1, length))
    if block is not None:
        return block.matrix()
    return IntMatrix(t.word_count(0, length + rise), t.word_count(1, length))


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
    keep = [_block(t, t.d_keep, length, 0) for length in range(t.max_len)]
    up = [_block(t, t.d_up, length, 1) for length in range(t.max_len - 1)]
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


def _spell(structure: CoalgebraStructure, letters: Iterable[Letter]) -> str:
    """Letters (degree, index) spelled in the labels of their simplices,
    "1" for the empty word."""
    labels = structure.complex.labels
    return "(x)".join(str(labels(e + 1)[i]) for e, i in letters) or "1"


def word_label(t: TruncatedCobar, degree: int, length: int, index: int) -> str:
    """A stored word spelled in the labels of its simplices, "1" when empty."""
    if index >= t.word_count(degree, length):  # a degree-0 source's D has no target words
        return f"#{index} of degree {degree}, length {length}"
    return _spell(t.structure, t.word(degree, length, index))


_COMPONENTS = ("keep.keep", "keep.up + up.keep", "up.up")  # D^2 raising length by 0, 1, 2


def _letter_check(t: TruncatedCobar, letters: _LetterD) -> list[dict]:
    """D^2 = 0 on every letter, untruncated: per letter degree and
    component, the first letter where that component is nonzero, with the
    component as its actual expansion."""
    report = []
    for degree in sorted(set(letters.degs)):
        bad: list[tuple[int, list] | None] = [None] * len(_COMPONENTS)
        for x, e in enumerate(letters.degs):
            if e != degree:
                continue
            square: dict[tuple[int, ...], int] = {}
            for w, v in letters.of_word((x,)).items():
                for w2, v2 in letters.of_word(w).items():
                    square[w2] = square.get(w2, 0) + v * v2
            for rise in range(len(_COMPONENTS)):
                terms = sorted((w, v) for w, v in square.items() if v and len(w) == 1 + rise)
                if terms and bad[rise] is None:
                    bad[rise] = (x, terms)
        for component, found in zip(_COMPONENTS, bad):
            if found is not None:
                x, terms = found
                alphabet = letters.alphabet
                report.append(located(
                    f"cobar D o D = 0: letter {component}", degree,
                    _spell(t.structure, [alphabet[x]]), [],
                    [[v, _spell(t.structure, [alphabet[k] for k in w])] for w, v in terms]))
    return report


def _audit(t: TruncatedCobar, letters: _LetterD) -> list[dict]:
    """The Leibniz audit: per block the ranks read, and per stored degree-0
    block, the first column that differs from the one its rest's stored
    column and D of its first letter give."""
    count = {key: len(codes) for key, codes in t.words.items()}
    report = []
    for name, table, rise in (("keep", t.d_keep, 0), ("up", t.d_up, 1)):
        keys = {(1, length) for length in range(1, t.max_len - rise)}
        keys.update(key for key in table if key[0] == 0)
        for degree, length in sorted(keys):
            block = table.get((degree, length))
            actual = block.cols if block is not None else []
            # D of a degree-0 word is zero: it has no target words
            expected = _columns(letters, count, table, rise, length) if degree == 1 else []
            for j in range(max(len(actual), len(expected))):
                got = actual[j] if j < len(actual) else {}
                want = expected[j] if j < len(expected) else {}
                if got != want:
                    target = (degree - 1, length + rise)
                    want_terms, got_terms = ([[v, word_label(t, *target, r)]
                                              for r, v in sorted(col.items()) if v]
                                             for col in (want, got))
                    report.append(located(f"cobar D o D = 0: Leibniz {name}", degree,
                                          word_label(t, degree, length, j),
                                          want_terms, got_terms))
                    break
    return report


def check_d_squared_cobar(t: TruncatedCobar) -> list[dict]:
    """D o D = 0, exactly: the letter check and the Leibniz audit (see the
    module docstring for why the two together prove it on every word).

    The result holds the ``located`` failures only, empty when D o D = 0.
    A letter's record expects 0 and shows the failing component of its D^2;
    an audited word's record expects the column that its rest and its first
    letter give, and shows the stored one.
    """
    letters = _LetterD(t.structure)
    return _letter_check(t, letters) + _audit(t, letters)
