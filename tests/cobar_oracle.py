"""Reference oracle for ``einfty.cobar.build_cobar`` and its D o D check.

The code below is the cobar construction the package used before it built
its words from codes and its blocks column by column, and before it proved
D o D = 0 from the letters: every word of degree <= 2 and length <= max_len
as a tuple, by recursion; every block accumulated entry by entry in
``IntMatrix``; and the check as sums of block products over every degree-2
word.  Only at the end are the words encoded and the blocks regrouped into
the package's column store, so that ``tests/test_cobar.py`` can require
equal words and blocks at every key the package stores, and equal pass/fail
verdicts of the two checks.
"""
from __future__ import annotations

from einfty.coalgebra import CoalgebraStructure
from einfty.cobar import ColumnBlock, Letter, TruncatedCobar
from einfty.errors import MultipleVertices
from einfty.intlinalg import IntMatrix


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


def words(structure: CoalgebraStructure, max_len: int) -> dict[tuple[int, int], list]:
    """(degree, length) -> the words of that degree <= 2, as letter tuples."""
    letters = _letters(structure)
    out: dict[tuple[int, int], list] = {}
    for degree in (0, 1, 2):
        for length in range(0, max_len + 1):
            ws = _gen_words(letters, degree, length)
            if ws:
                out[(degree, length)] = ws
    return out


def _code(positions: dict[Letter, int], word: tuple[Letter, ...]) -> int:
    """The word's letter positions read as base-len(positions) digits."""
    code = 0
    for letter in word:
        code = code * len(positions) + positions[letter]
    return code


def _column_block(mat: IntMatrix) -> ColumnBlock:
    cols: list[dict[int, int]] = [{} for _ in range(mat.ncols)]
    for (r, c), v in mat.data.items():
        cols[c][r] = v
    return ColumnBlock(mat.nrows, cols)


def build_cobar(structure: CoalgebraStructure, max_len: int) -> TruncatedCobar:
    """Words of internal degree <= 2 up to the given length, with D blocks."""
    if max_len < 1:
        raise ValueError("word length bound must be >= 1")
    if not structure.reduced:
        raise MultipleVertices(structure.complex.rank(0))
    bnd, spl = _letter_images(structure)
    words_ = words(structure, max_len)
    d_keep: dict[tuple[int, int], IntMatrix] = {}
    d_up: dict[tuple[int, int], IntMatrix] = {}
    for (degree, length), ws in words_.items():
        if degree == 0:
            continue
        keep_index = {w: i for i, w in enumerate(words_.get((degree - 1, length), []))}
        up_index = {w: i for i, w in enumerate(words_.get((degree - 1, length + 1), []))}
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
    # the alphabet: every letter of degree <= 2 is a length-1 word
    letters = sorted(w[0] for (_, length), ws in words_.items() if length == 1 for w in ws)
    positions = {letter: k for k, letter in enumerate(letters)}
    return TruncatedCobar(structure, max_len,
                          {key: [_code(positions, w) for w in ws] for key, ws in words_.items()},
                          {key: _column_block(m) for key, m in d_keep.items()},
                          {key: _column_block(m) for key, m in d_up.items()})


def _block(t: TruncatedCobar, table: dict, degree: int, length: int) -> IntMatrix:
    block = table.get((degree, length))
    if block is not None:
        return IntMatrix(block.nrows, len(block.cols), block.data)
    src = t.word_count(degree, length)
    if table is t.d_keep:
        dst = t.word_count(degree - 1, length)
    else:
        dst = t.word_count(degree - 1, length + 1)
    return IntMatrix(dst, src)



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
