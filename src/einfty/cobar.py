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
"""
from __future__ import annotations

from dataclasses import dataclass, field

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

    def word_index(self, degree: int, length: int) -> dict[tuple[Letter, ...], int]:
        return {w: i for i, w in enumerate(self.words.get((degree, length), []))}

    def word_count(self, degree: int, length: int) -> int:
        return len(self.words.get((degree, length), ()))


def _letters(structure: CoalgebraStructure) -> dict[int, list[int]]:
    """Shifted degree -> list of basis indices of the reduced complex."""
    out: dict[int, list[int]] = {}
    for d in structure.complex.degrees():
        out[d - 1] = list(range(structure.complex.rank(d)))
    return out


def _letter_images(structure: CoalgebraStructure):
    """Per letter: the boundary part and the diagonal part of D."""
    c = structure.complex
    diag = structure.op("m2_0")
    bnd: dict[Letter, list[tuple[int, Letter]]] = {}
    spl: dict[Letter, list[tuple[int, Letter, Letter]]] = {}
    for d in c.degrees():
        mat = c.boundary_matrix(d)
        for i in range(c.rank(d)):
            letter = (d - 1, i)
            bnd[letter] = []
            for (r, col), v in mat.data.items():
                if col == i and v:
                    bnd[letter].append((-v, (d - 2, r)))
            spl[letter] = []
            for coeff, word in diag.image_of(d, i):
                (e1, i1), (e2, i2) = word
                sign = -1 if e1 % 2 else 1
                spl[letter].append((sign * coeff, (e1 - 1, i1), (e2 - 1, i2)))
    return bnd, spl


def _gen_words(letters: dict[int, list[int]], degree: int, length: int):
    if length == 0:
        return [()] if degree == 0 else []
    out = []
    for sdeg in sorted(letters):
        if sdeg > degree:
            continue
        for i in letters[sdeg]:
            for rest in _gen_words(letters, degree - sdeg, length - 1):
                out.append(((sdeg, i),) + rest)
    out.sort()
    return out


def build_cobar(structure: CoalgebraStructure, max_len: int) -> TruncatedCobar:
    """Words of internal degree <= 2 up to the given length, with D blocks."""
    if max_len < 1:
        raise ValueError("word length bound must be >= 1")
    if not structure.reduced:
        raise MultipleVertices(structure.complex.rank(0))
    letters = _letters(structure)
    bnd, spl = _letter_images(structure)
    words: dict[tuple[int, int], list] = {}
    for degree in (0, 1, 2):
        for length in range(0, max_len + 1):
            ws = _gen_words(letters, degree, length)
            if ws:
                words[(degree, length)] = ws
    d_keep: dict[tuple[int, int], IntMatrix] = {}
    d_up: dict[tuple[int, int], IntMatrix] = {}
    for (degree, length), ws in words.items():
        if degree == 0:
            continue
        keep_index = {w: i for i, w in enumerate(words.get((degree - 1, length), []))}
        up_index = {w: i for i, w in enumerate(words.get((degree - 1, length + 1), []))}
        keep = IntMatrix(len(keep_index), len(ws))
        up = IntMatrix(len(up_index), len(ws))
        for col, w in enumerate(ws):
            sign = 1
            for t, letter in enumerate(w):
                for coeff, img in bnd[letter]:
                    w2 = w[:t] + (img,) + w[t + 1:]
                    r = keep_index[w2]
                    keep[r, col] = keep[r, col] + sign * coeff
                for coeff, l1, l2 in spl[letter]:
                    w2 = w[:t] + (l1, l2) + w[t + 1:]
                    if len(w2) <= max_len:
                        r = up_index[w2]
                        up[r, col] = up[r, col] + sign * coeff
                if letter[0] % 2:
                    sign = -sign
        if not keep.is_zero():
            d_keep[(degree, length)] = keep
        if not up.is_zero():
            d_up[(degree, length)] = up
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


def check_d_squared_cobar(t: TruncatedCobar) -> list[dict]:
    """D o D = 0 on every truncation-safe component."""
    report = []
    for length in range(0, t.max_len + 1):
        if t.word_count(2, length) == 0:
            continue
        checks = {}
        checks["keep.keep"] = _block(t, t.d_keep, 1, length) @ _block(t, t.d_keep, 2, length)
        if length + 1 <= t.max_len:
            checks["keep.up + up.keep"] = (
                _block(t, t.d_keep, 1, length + 1) @ _block(t, t.d_up, 2, length)
                + _block(t, t.d_up, 1, length) @ _block(t, t.d_keep, 2, length))
        if length + 2 <= t.max_len:
            checks["up.up"] = _block(t, t.d_up, 1, length + 1) @ _block(t, t.d_up, 2, length)
        for label, mat in checks.items():
            report.append({
                "source": f"degree 2, length {length}",
                "component": label,
                "ok": mat.is_zero(),
            })
    # degree-0 words must be cycles outright
    for length in range(0, t.max_len + 1):
        if (0, length) in t.d_keep or (0, length) in t.d_up:
            report.append({"source": f"degree 0, length {length}",
                           "component": "D", "ok": False})
    return report
