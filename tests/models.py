"""Shared by the tests: simplicial models (the bundled fixtures, grid tori,
one-vertex simplices, seeded relabellings) and small helpers that the package
itself never calls."""
import random
from math import gcd

from einfty.chains import ChainComplex, GradedOperator, identity_operator, unit_complex
from einfty.formats import SSET_FIXTURES, fixture_path, read_text
from einfty.homology import SDR
from einfty.intlinalg import IntMatrix, column_vector, solve
from einfty.operads import generator, tree_degree
from einfty.simplicial import FaceRef, SimplicialSet, parse_sset, standard_simplex


def fixture(name: str) -> SimplicialSet:
    """A bundled ``.sset`` model, parsed from its fixture file."""
    return parse_sset(read_text(fixture_path(name)))


FIXTURES = {name: fixture(name) for name in SSET_FIXTURES}


def grid_torus(n: int) -> SimplicialSet:
    """n x n grid torus with two ordered triangles per square."""
    def v(i, j):
        return f"v{i % n}_{j % n}"

    simplices = {0: [], 1: [], 2: []}
    faces = {}
    for i in range(n):
        for j in range(n):
            simplices[0].append(v(i, j))
            for kind, end in (("h", v(i + 1, j)), ("u", v(i, j + 1)),
                              ("d", v(i + 1, j + 1))):
                simplices[1].append(f"{kind}{i}_{j}")
                faces[f"{kind}{i}_{j}"] = (FaceRef((), end), FaceRef((), v(i, j)))
            i1, j1 = (i + 1) % n, (j + 1) % n
            simplices[2] += [f"L{i}_{j}", f"U{i}_{j}"]
            faces[f"L{i}_{j}"] = tuple(FaceRef((), e) for e in
                                       (f"u{i1}_{j}", f"d{i}_{j}", f"h{i}_{j}"))
            faces[f"U{i}_{j}"] = tuple(FaceRef((), e) for e in
                                       (f"h{i}_{j1}", f"d{i}_{j}", f"u{i}_{j}"))
    return SimplicialSet(simplices, faces)


def fan_surface(g: int) -> SimplicialSet:
    """Single vertex, 6g - 3 edges, 4g - 2 triangles: the fan triangulation
    of the 4g-gon a1 b1 a1^-1 b1^-1 ... ag bg ag^-1 bg^-1 from its corner P_0.

    Triangle k has corners P_0, P_k, P_{k+1} and the diagonal D_j runs from
    P_0 to P_j, so D_1 = a1 and D_{4g-1} = bg.  A side read backwards puts
    P_{k+1} before P_k in the triangle's vertex order.
    """
    sides = [(f"{x}{i}", sign) for i in range(1, g + 1) for sign in (1, -1)
             for x in "ab"]

    def diagonal(j):
        return {1: "a1", 4 * g - 1: f"b{g}"}.get(j, f"D{j}")

    v = FaceRef((), "v")
    edges = [f"{x}{i}" for i in range(1, g + 1) for x in "ab"]
    edges += [f"D{j}" for j in range(2, 4 * g - 1)]
    faces = {e: (v, v) for e in edges}
    triangles = []
    for k in range(1, 4 * g - 1):
        letter, direction = sides[k]
        ends = (diagonal(k + 1), diagonal(k)) if direction > 0 else (diagonal(k), diagonal(k + 1))
        triangles.append(f"T{k}")
        faces[f"T{k}"] = tuple(FaceRef((), f) for f in (letter,) + ends)
    return SimplicialSet({0: ["v"], 1: edges, 2: triangles}, faces)


def relabel(x: SimplicialSet, seed: int) -> SimplicialSet:
    """The same simplicial set with its cells renamed and reordered."""
    rng = random.Random(seed)
    names = [n for d in sorted(x.simplices) for n in x.names(d)]
    ids = list(range(len(names)))
    rng.shuffle(ids)
    new = {n: f"c{i}" for n, i in zip(names, ids)}
    simplices = {}
    for d in sorted(x.simplices):
        cells = [new[n] for n in x.names(d)]
        rng.shuffle(cells)
        simplices[d] = cells
    faces = {new[n]: tuple(FaceRef(f.word, new[f.target]) for f in refs)
             for n, refs in x.faces.items()}
    return SimplicialSet(simplices, faces)


def one_vertex_simplex(n: int) -> SimplicialSet:
    """Delta^n with its n + 1 vertices identified to one vertex "v"."""
    x = standard_simplex(n)
    simplices = {**x.simplices, 0: ["v"]}
    faces = {name: tuple(FaceRef((), "v") if x.dim_of[f.target] == 0 else f for f in refs)
             for name, refs in x.faces.items()}
    return SimplicialSet(simplices, faces)


def serialize(x: SimplicialSet) -> str:
    """The ``.sset`` text of a simplicial set, which ``parse_sset`` reads back."""
    lines = []
    for d in sorted(x.simplices):
        lines.append(f"dim {d}")
        for name in x.simplices[d]:
            inner = ", ".join(ref.render() for ref in x.faces.get(name, ()))
            lines.append(f"{name}: [{inner}]")
    return "\n".join(lines) + "\n"


def index_of(x: SimplicialSet, name: str) -> int:
    """The index of a simplex within its dimension."""
    return x.simplices[x.dim_of[name]].index(name)


def total_rank(c: ChainComplex) -> int:
    return sum(len(b) for b in c.basis.values())


def vstack(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """``a`` over ``b``."""
    if a.ncols != b.ncols:
        raise ValueError("column count mismatch")
    data = dict(a.data)
    for (i, j), v in b.data.items():
        data[(i + a.nrows, j)] = v
    return IntMatrix(a.nrows + b.nrows, a.ncols, data)


def rank(m: IntMatrix) -> int:
    """Rank over the rationals by fraction-free elimination: the reference
    that ``smith(m).rank`` is checked against."""
    a = m.to_rows()
    nr, nc = m.nrows, m.ncols
    r = 0
    for j in range(nc):
        piv = next((i for i in range(r, nr) if a[i][j]), None)
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


def in_column_span(m: IntMatrix, vec) -> bool:
    return solve(m, column_vector(list(vec))) is not None


def identity_sdr(c: ChainComplex) -> SDR:
    """The trivial retraction of a zero-differential complex onto itself."""
    if c.boundary:
        raise ValueError("identity SDR needs a zero differential")
    ident = identity_operator(c)
    return SDR(ident, ident, GradedOperator(c, c, 1, 1, {}))


def nu_columns(m: int, nu1: IntMatrix, r: int = 0, gamma: IntMatrix | None = None) -> dict:
    """The columns, for ``invariants.perturb``, of the change that
    ``window_oracle.perturb_triple`` writes as (nu1, gamma): -nu1 on H1, and
    the words (e_a, s_u) and (s_u, e_a) of nu(s), each with -gamma[a*r + u, s].
    The triple then moves by sum gamma [e_a, comul(s_u)] - delta nu1, and sq
    by -nu1 - swap nu1."""
    cols: dict = {1: {}, 2: {}}
    for (ij, a), v in nu1.data.items():
        i, j = divmod(ij, m)
        cols[1].setdefault(a, {})[(1, i), (1, j)] = -v
    for (au, s), v in (gamma.data.items() if gamma is not None else ()):
        a, u = divmod(au, r)
        cols[2].setdefault(s, {}).update({((1, a), (2, u)): -v, ((2, u), (1, a)): -v})
    return cols


def tensor_complex(c: ChainComplex, n: int) -> ChainComplex:
    """Materialized n-th tensor power with tuple labels (n >= 0)."""
    if n < 0:
        raise ValueError("tensor arity must be nonnegative")
    if n == 1:
        return c
    degs = c.degrees()
    if n == 0 or not degs:
        return unit_complex() if n == 0 else ChainComplex({}, {})
    basis = {}
    boundary = {}
    for total in range(n * degs[0], n * degs[-1] + 1):
        words = [c.row_word(n, total, r) for r in range(c.tensor_rank(n, total))]
        if not words:
            continue
        basis[total] = tuple(tuple(c.labels(d)[i] for (d, i) in word) for word in words)
        data: dict[tuple[int, int], int] = {}
        for col, word in enumerate(words):
            for v, face in c.word_boundary(word):
                key = (c.word_row(n, total - 1, face), col)
                data[key] = data.get(key, 0) + v
        mat = IntMatrix(c.tensor_rank(n, total - 1), len(words), data)
        if not mat.is_zero():
            boundary[total] = mat
    return ChainComplex(basis, boundary)


def front_back_faces(x: SimplicialSet, name: str, i: int) -> tuple:
    """The front face on vertices [0..i] and back face on [i..dim]."""
    d = x.dim_of[name]
    if not 0 <= i <= d:
        raise ValueError(f"split index {i} out of range for a {d}-simplex")
    front = x.face_on_vertices(name, tuple(range(0, i + 1)))
    back = x.face_on_vertices(name, tuple(range(i, d + 1)))
    return front, back


def one_f_per_path(tree) -> bool:
    """True when every root-to-leaf path crosses exactly one bimodule vertex."""

    def walk(t, seen):
        if t is None:
            return seen == 1
        name, children = t
        seen2 = seen + (1 if generator(name).kind == "bimodule" else 0)
        if seen2 > 1:
            return False
        # an arity-0 vertex caps the branch: no exits below, nothing to check
        return all(walk(c, seen2) for c in children)

    return walk(tree, 0)


def element_arity(a: dict) -> int | None:
    for (tree, labels) in a:
        return len(labels)
    return None


def element_degree(a: dict) -> int | None:
    for (tree, _) in a:
        return tree_degree(tree)
    return None
