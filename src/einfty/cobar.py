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

D is stored as blocks by source (degree, length): ``d_keep`` maps to the
same length, ``d_up`` to length + 1.  The words of each length come from one
``product`` over the sorted alphabet, bucketed by degree, and each block's
entries are summed in a plain dict before it becomes an ``IntMatrix``.

D o D = 0 is checked exactly, over the integers, on every degree-2 word and
every component the truncation leaves whole (keep.keep, keep.up + up.keep,
up.up).  Each block is grouped by column once; a word's D o D is then summed
term by term into one dict keyed by target row, so no product matrix is
built.  A failure names the first word whose D o D is nonzero, with that
image.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .coalgebra import CoalgebraStructure
from .errors import MultipleVertices
from .intlinalg import IntMatrix, kernel_basis, quotient_invariants

Letter = tuple[int, int]  # (shifted degree, index within that layer)


@dataclass
class TruncatedCobar:
    structure: CoalgebraStructure
    max_len: int
    words: dict[tuple[int, int], list[tuple[Letter, ...]]] = field(repr=False)
    d_keep: dict[tuple[int, int], IntMatrix] = field(repr=False)
    d_up: dict[tuple[int, int], IntMatrix] = field(repr=False)

    def word_count(self, degree: int, length: int) -> int:
        return len(self.words.get((degree, length), ()))


def _letter_images(structure: CoalgebraStructure, alphabet: list[Letter]):
    """Per letter position in ``alphabet``: the boundary part and the
    diagonal part of D, with their letters given by position too (a pair
    of letters by its two-digit code)."""
    c = structure.complex
    diag = structure.op("m2_0")
    pos = {letter: k for k, letter in enumerate(alphabet)}
    base = len(alphabet)
    bnd: list[list[tuple[int, int]]] = []
    spl: list[list[tuple[int, int]]] = []
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
                pair = pos[(e1 - 1, i1)] * base + pos[(e2 - 1, i2)]
                spl[-1].append((sign * coeff, pair))
    return bnd, spl


def _words(alphabet: list[Letter], max_len: int):
    """(degree, length) -> the words of that degree <= 2 in sorted order,
    and their codes.

    ``product`` over the sorted alphabet yields each length's words already
    sorted, so bucketing them by degree keeps every bucket sorted.  A word's
    code is its place in that sequence: the number whose base-len(alphabet)
    digits are the positions of its letters.
    """
    degrees = [e for e, _ in alphabet]
    words: dict[tuple[int, int], list[tuple[Letter, ...]]] = {}
    codes: dict[tuple[int, int], list[int]] = {}
    for length in range(0, max_len + 1):
        level: dict[int, tuple[list, list]] = {0: ([], []), 1: ([], []), 2: ([], [])}
        for code, (w, ds) in enumerate(zip(product(alphabet, repeat=length),
                                           product(degrees, repeat=length))):
            degree = sum(ds)
            if degree <= 2:
                ws, cs = level[degree]
                ws.append(w)
                cs.append(code)
        for degree, (ws, cs) in level.items():
            if ws:
                words[(degree, length)], codes[(degree, length)] = ws, cs
    order = sorted(words)
    return {k: words[k] for k in order}, {k: codes[k] for k in order}


def build_cobar(structure: CoalgebraStructure, max_len: int) -> TruncatedCobar:
    """Words of internal degree <= 2 up to the given length, with D blocks.

    D changes one letter of a word, so the row of each term follows from the
    source word's code by arithmetic on that letter's digit.
    """
    if max_len < 1:
        raise ValueError("word length bound must be >= 1")
    if not structure.reduced:
        raise MultipleVertices(structure.complex.rank(0))
    c = structure.complex
    alphabet = [(d - 1, i) for d in c.degrees() if d <= 3 for i in range(c.rank(d))]
    base = len(alphabet)
    odd = [e % 2 for e, _ in alphabet]
    bnd, spl = _letter_images(structure, alphabet)
    words, codes = _words(alphabet, max_len)
    d_keep: dict[tuple[int, int], IntMatrix] = {}
    d_up: dict[tuple[int, int], IntMatrix] = {}
    for (degree, length), ws in words.items():
        if degree == 0:
            continue
        keep_codes = codes.get((degree - 1, length), [])
        up_codes = codes.get((degree - 1, length + 1), [])
        keep_index = {code: i for i, code in enumerate(keep_codes)}
        up_index = {code: i for i, code in enumerate(up_codes)}
        up_fits = length < max_len
        places = [base ** (length - 1 - t) for t in range(length)]
        keep: dict[tuple[int, int], int] = {}
        up: dict[tuple[int, int], int] = {}
        for col, code in enumerate(codes[(degree, length)]):
            sign = 1
            rest = code  # the code of the letters from position t on
            for p in places:
                digit, tail = divmod(rest, p)
                head = code - rest  # the letters before t, in place
                # every (row, col) is reached once: the changed letter drops
                # in degree, so no two positions or terms give the same row
                for coeff, img in bnd[digit]:
                    keep[keep_index[head + img * p + tail], col] = sign * coeff
                if up_fits:
                    # a pair in place of one letter shifts the head a place up
                    for coeff, pair in spl[digit]:
                        up[up_index[head * base + pair * p + tail], col] = sign * coeff
                if odd[digit]:
                    sign = -sign
                rest = tail
        # every entry was set once to a nonzero product, so the dicts are
        # adopted without a copy
        keep_mat = IntMatrix._adopt(len(keep_codes), len(ws), keep)
        up_mat = IntMatrix._adopt(len(up_codes), len(ws), up)
        if not keep_mat.is_zero():
            d_keep[(degree, length)] = keep_mat
        if not up_mat.is_zero():
            d_up[(degree, length)] = up_mat
    return TruncatedCobar(structure, max_len, words, d_keep, d_up)


def _block(t: TruncatedCobar, table: dict, degree: int, length: int) -> IntMatrix:
    mat = table.get((degree, length))
    if mat is not None:
        return mat
    src = t.word_count(degree, length)
    if table is t.d_keep:
        dst = t.word_count(degree - 1, length)
    else:
        dst = t.word_count(degree - 1, length + 1)
    return IntMatrix(dst, src)


def _completable(t: TruncatedCobar, upto: int) -> dict[int, IntMatrix]:
    """Generators of {b in degree-1 length-j words completable below}.

    b_j qualifies when its length-preserving boundary is cancelled by the
    length-raising boundary of some completable b_{j-1}; the recursion
    bottoms out at length 0 where there are no degree-1 words.
    """
    out: dict[int, IntMatrix] = {}
    out[0] = IntMatrix(t.word_count(1, 0), 0)
    for j in range(1, upto + 1):
        nb = t.word_count(1, j)
        if nb == 0:
            out[j] = IntMatrix(0, 0)
            continue
        d0 = _block(t, t.d_keep, 1, j)
        lower = _block(t, t.d_up, 1, j - 1)
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
    # length l reads the completable generators of length l - 1 only
    comp = _completable(t, t.max_len - 2)
    out = []
    for length in range(0, t.max_len):
        ambient = t.word_count(0, length)
        d0 = _block(t, t.d_keep, 1, length)
        gens = d0
        if length >= 1:
            lift = _block(t, t.d_up, 1, length - 1)
            s_prev = comp[length - 1]
            if s_prev.ncols:
                gens = gens.hstack(lift @ s_prev)
        free, torsion = quotient_invariants(ambient, gens)
        out.append({"length": length, "rank": free, "torsion": torsion})
    return out


def _columns(mat: IntMatrix) -> list[list[tuple[int, int]]]:
    """Per column of a block, its nonzeros as (row, entry) pairs."""
    out: list[list[tuple[int, int]]] = [[] for _ in range(mat.ncols)]
    for (r, c), v in mat.data.items():
        out[c].append((r, v))
    return out


def _first_nonzero_column(products, ncols: int):
    """First source column where sum(outer @ inner) is nonzero, with its image.

    ``products`` holds (outer, inner) pairs of column-grouped blocks, None
    for a zero block.  One column's image at a time is summed into a dict
    keyed by target row, so terms that cancel cost one dict update each and
    allocate nothing.
    """
    products = [(o, i) for o, i in products if o is not None and i is not None]
    for col in range(ncols):
        image: dict[int, int] = {}
        for outer, inner in products:
            for r, v in inner[col]:
                for r2, v2 in outer[r]:
                    image[r2] = image.get(r2, 0) + v * v2
        if any(image.values()):
            return col, {r: v for r, v in image.items() if v}
    return None


def word_label(t: TruncatedCobar, degree: int, length: int, index: int) -> str:
    """A word spelled in the labels of its simplices, "1" when empty."""
    ws = t.words.get((degree, length), [])
    if index >= len(ws):  # a degree-0 source's D has no target words
        return f"#{index} of degree {degree}, length {length}"
    labels = t.structure.complex.labels
    return "(x)".join(str(labels(e + 1)[i]) for e, i in ws[index]) or "1"


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
    keep = {key: _columns(m) for key, m in t.d_keep.items()}
    up = {key: _columns(m) for key, m in t.d_up.items()}
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
        blocks = [((-1, length + rise), table[(0, length)])
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
