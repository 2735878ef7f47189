"""Finite simplicial sets with explicit degeneracy bookkeeping.

A simplicial set is stored through its nondegenerate simplices only.  Every
(possibly degenerate) simplex is written uniquely as s_{i_1}...s_{i_k} x
with strictly decreasing indices and x nondegenerate; the pair
(word, name) is called a cell here.  Face and degeneracy operators act on
cells through the simplicial identities, so equality of cells is syntactic.

The text format accepted by :func:`parse_sset`::

    # torus, one vertex
    dim 0
    v: []
    dim 1
    a: [v, v]
    dim 2
    U: [b, c, a]          # faces d0, d1, d2
    T: [e, s_0(v), e]     # degenerate faces allowed

Faces are either a bare simplex name (empty degeneracy word) or
``s_{i1}s_{i2}...(name)`` / ``s_i1 s_i2 ... (name)`` with strictly
decreasing indices.  Trailing garbage anywhere is an error.
"""
from __future__ import annotations

import re

from .chains import ChainComplex
from .errors import SSetParseError, SSetValidationError
from .intlinalg import IntMatrix


class FaceRef:
    """Degeneracy word (strictly decreasing) applied to a nondegenerate simplex."""

    __slots__ = ("word", "target")

    def __init__(self, word: tuple[int, ...], target: str):
        if any(a <= b for a, b in zip(word, word[1:])):
            raise ValueError(f"degeneracy word {word} is not strictly decreasing")
        self.word = word
        self.target = target

    def __eq__(self, other):
        if not isinstance(other, FaceRef):
            return NotImplemented
        return self.word == other.word and self.target == other.target

    def __hash__(self):
        return hash((self.word, self.target))

    def __repr__(self):
        return f"FaceRef({self.word!r}, {self.target!r})"

    def is_degenerate(self) -> bool:
        return bool(self.word)

    def render(self) -> str:
        if not self.word:
            return self.target
        return "".join(f"s_{i}" for i in self.word) + f"({self.target})"


Cell = tuple[tuple[int, ...], str]  # normal form (word, nondegenerate name)


class SimplicialSet:
    """Finite simplicial set presented by nondegenerate simplices."""

    def __init__(self, simplices: dict[int, list[str]],
                 faces: dict[str, tuple[FaceRef, ...]]):
        self.simplices = {d: list(names) for d, names in sorted(simplices.items()) if names}
        self.faces = dict(faces)
        self.dim_of: dict[str, int] = {}
        for d, names in self.simplices.items():
            for name in names:
                if name in self.dim_of:
                    raise SSetParseError(f"duplicate simplex name {name!r}")
                self.dim_of[name] = d
        self._vertex_faces: dict[tuple[str, tuple[int, ...]], Cell] = {}
        report = self.validate()
        if report:
            raise SSetValidationError(report)

    @property
    def dimension(self) -> int:
        return max(self.simplices) if self.simplices else -1

    def names(self, d: int) -> list[str]:
        return self.simplices.get(d, [])

    # -- normal-form calculus ------------------------------------------------

    def degeneracy(self, j: int, cell: Cell) -> Cell:
        """Apply s_j to a cell, renormalizing the degeneracy word."""
        word, name = cell
        dim = self.dim_of[name] + len(word)
        if not 0 <= j <= dim:
            raise ValueError(f"s_{j} undefined on a {dim}-cell")
        out = []
        rest = list(word)
        # push s_j rightwards: s_j s_i = s_{i+1} s_j for j <= i
        while rest and rest[0] >= j:
            out.append(rest.pop(0) + 1)
        out.append(j)
        out.extend(rest)
        return (tuple(out), name)

    def face(self, i: int, cell: Cell) -> Cell:
        """Apply d_i to a cell, using the stored faces on nondegenerate simplices."""
        word, name = cell
        dim = self.dim_of[name] + len(word)
        if dim == 0:
            raise ValueError("vertices have no faces")
        if not 0 <= i <= dim:
            raise ValueError(f"d_{i} undefined on a {dim}-cell")
        prefix: list[int] = []
        rest = list(word)
        while rest:
            j = rest[0]
            if i < j:
                prefix.append(j - 1)
                rest.pop(0)
            elif i in (j, j + 1):
                # d_i s_j = id
                rest.pop(0)
                result: Cell = (tuple(rest), name)
                for k in reversed(prefix):
                    result = self.degeneracy(k, result)
                return result
            else:
                prefix.append(j)
                rest.pop(0)
                i -= 1
        ref = self.faces[name][i]
        result = (ref.word, ref.target)
        for k in reversed(prefix):
            result = self.degeneracy(k, result)
        return result

    def face_on_vertices(self, name: str, vertices: tuple[int, ...]) -> Cell:
        """Iterated face keeping only the listed vertex positions (sorted),
        computed once per (name, vertices): the instance is never mutated."""
        key = (name, vertices)
        cell = self._vertex_faces.get(key)
        if cell is None:
            cell = ((), name)
            kept = set(vertices)
            for i in reversed(range(self.dim_of[name] + 1)):
                if i not in kept:
                    cell = self.face(i, cell)
            self._vertex_faces[key] = cell
        return cell

    # -- queries ---------------------------------------------------------------

    def validate(self) -> list[dict]:
        """All invariant violations; empty list means the data is a simplicial set."""
        report: list[dict] = []
        for d, names in self.simplices.items():
            for name in names:
                if d == 0:
                    if self.faces.get(name):
                        report.append({"kind": "vertex-with-faces", "simplex": name})
                    continue
                refs = self.faces.get(name)
                if refs is None or len(refs) != d + 1:
                    report.append({"kind": "face-count", "simplex": name,
                                   "expected": d + 1,
                                   "got": 0 if refs is None else len(refs)})
                    continue
                for i, ref in enumerate(refs):
                    tdim = self.dim_of.get(ref.target)
                    if tdim is None:
                        report.append({"kind": "dangling-face", "simplex": name,
                                       "face": i, "target": ref.target})
                        continue
                    if tdim + len(ref.word) != d - 1:
                        report.append({"kind": "face-dimension", "simplex": name,
                                       "face": i, "target": ref.target,
                                       "expected_dim": d - 1,
                                       "got_dim": tdim + len(ref.word)})
                    if ref.word and ref.word[0] > d - 2:
                        report.append({"kind": "degeneracy-index", "simplex": name,
                                       "face": i, "word": list(ref.word)})
        if report:
            return report
        # simplicial identities d_i d_j = d_{j-1} d_i for i < j, on cells
        for d, names in self.simplices.items():
            if d < 2:
                continue
            for name in names:
                cell: Cell = ((), name)
                for j in range(1, d + 1):
                    for i in range(j):
                        lhs = self.face(i, self.face(j, cell))
                        rhs = self.face(j - 1, self.face(i, cell))
                        if lhs != rhs:
                            report.append({
                                "kind": "simplicial-identity", "simplex": name,
                                "i": i, "j": j,
                                "d_i d_j": render_cell(lhs),
                                "d_{j-1} d_i": render_cell(rhs),
                            })
        return report

    def __eq__(self, other):
        if not isinstance(other, SimplicialSet):
            return NotImplemented
        return self.simplices == other.simplices and self.faces == other.faces

    def __repr__(self):
        counts = {d: len(v) for d, v in self.simplices.items()}
        return f"SimplicialSet(cells={counts})"


def render_cell(cell: Cell) -> str:
    return FaceRef(cell[0], cell[1]).render()


_FACE_RE = re.compile(r"^((?:s_?\d+\s*)+)\(\s*([A-Za-z0-9_.'-]+)\s*\)$")
_NAME_RE = re.compile(r"^[A-Za-z0-9_.'-]+$")
_DIM_RE = re.compile(r"^dim\s+(\d+)$")


def _parse_face(token: str, line_no: int) -> FaceRef:
    token = token.strip()
    m = _FACE_RE.match(token)
    if m:
        indices = tuple(int(x) for x in re.findall(r"\d+", m.group(1)))
        if any(a <= b for a, b in zip(indices, indices[1:])):
            raise SSetParseError(
                f"degeneracy word {list(indices)} not strictly decreasing", line_no)
        return FaceRef(indices, m.group(2))
    if _NAME_RE.match(token):
        return FaceRef((), token)
    raise SSetParseError(f"cannot parse face {token!r}", line_no)


def parse_sset(text: str) -> SimplicialSet:
    """Parse the simplicial-set text format; rejects any trailing garbage."""
    simplices: dict[int, list[str]] = {}
    faces: dict[str, tuple[FaceRef, ...]] = {}
    seen: set[str] = set()
    current_dim: int | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _DIM_RE.match(line)
        if m:
            current_dim = int(m.group(1))
            simplices.setdefault(current_dim, [])
            continue
        if ":" not in line:
            raise SSetParseError(f"expected 'name: [faces]' or 'dim N', got {line!r}",
                                 line_no)
        name, _, rhs = line.partition(":")
        name = name.strip()
        rhs = rhs.strip()
        if current_dim is None:
            raise SSetParseError("simplex entry before any 'dim N' header", line_no)
        if not _NAME_RE.match(name):
            raise SSetParseError(f"bad simplex name {name!r}", line_no)
        if not (rhs.startswith("[") and rhs.endswith("]")):
            raise SSetParseError(f"faces of {name} must be a [...] list", line_no)
        inner = rhs[1:-1].strip()
        tokens = _split_faces(inner, line_no)
        if current_dim == 0:
            if tokens:
                raise SSetParseError(f"vertex {name} must have an empty face list",
                                     line_no)
        elif len(tokens) != current_dim + 1:
            raise SSetParseError(
                f"{name} has {len(tokens)} faces, a {current_dim}-simplex needs "
                f"{current_dim + 1}", line_no)
        if name in seen:
            raise SSetParseError(f"duplicate simplex name {name!r}", line_no)
        seen.add(name)
        simplices[current_dim].append(name)
        if current_dim > 0:
            faces[name] = tuple(_parse_face(t, line_no) for t in tokens)
    return SimplicialSet(simplices, faces)


def _split_faces(inner: str, line_no: int) -> list[str]:
    if not inner:
        return []
    depth = 0
    tokens = []
    cur = []
    for ch in inner:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise SSetParseError("unbalanced parentheses", line_no)
        if ch == "," and depth == 0:
            tokens.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise SSetParseError("unbalanced parentheses", line_no)
    tokens.append("".join(cur))
    return [t.strip() for t in tokens]


def normalized_chains(x: SimplicialSet) -> ChainComplex:
    """Normalized chain complex: free on nondegenerate simplices.

    The boundary is the alternating face sum; faces carrying a nonempty
    degeneracy word contribute zero.
    """
    basis = {d: tuple(names) for d, names in x.simplices.items()}
    boundary: dict[int, IntMatrix] = {}
    for d, names in x.simplices.items():
        if d == 0:
            continue
        below = x.names(d - 1)
        pos = {n: i for i, n in enumerate(below)}
        mat = IntMatrix(len(below), len(names))
        for j, name in enumerate(names):
            for i, ref in enumerate(x.faces[name]):
                if ref.is_degenerate():
                    continue
                r = pos[ref.target]
                mat[r, j] = mat[r, j] + (1 if i % 2 == 0 else -1)
        boundary[d] = mat
    return ChainComplex(basis, boundary)


# -- models ------------------------------------------------------------------
# The bundled models are the .sset files under einfty/fixtures, read through
# formats.fixture_path; Delta^n is the one model built here, for every n.

def standard_simplex(n: int) -> SimplicialSet:
    """Delta^n with subsets of {0..n} as simplex names.

    A name lists the vertices, as "013" for n <= 9 and as "0_1_13" from
    n = 10 on, where run-together digits would be ambiguous.
    """
    simplices: dict[int, list[str]] = {}
    faces: dict[str, tuple[FaceRef, ...]] = {}
    from itertools import combinations
    sep = "_" if n >= 10 else ""

    def label(vs: tuple[int, ...]) -> str:
        return sep.join(str(v) for v in vs)

    for d in range(n + 1):
        simplices[d] = [label(vs) for vs in combinations(range(n + 1), d + 1)]
    for d in range(1, n + 1):
        for vs in combinations(range(n + 1), d + 1):
            refs = tuple(FaceRef((), label(vs[:i] + vs[i + 1:])) for i in range(d + 1))
            faces[label(vs)] = refs
    return SimplicialSet(simplices, faces)
