"""Seeded input families and the answers the program must give on them.

Every family is built in its canonical form first; the seed only renames
the cells and reorders them within each dimension (simplicial sets), or
permutes and re-signs the bases and picks the free coefficients of a
window.  None of that changes the answer, so each oracle below states one
answer per family and size, independently of the seed and of the program.
"""
from __future__ import annotations

import json
import random
from itertools import combinations

# -- simplicial sets ----------------------------------------------------------
#
# A canonical simplicial set is {dim: [(key, [face keys d_0..d_dim])]}, with
# hashable keys.  Vertices have no faces.


def grid_torus(n: int) -> dict:
    """n x n grid torus: n^2 vertices, 3n^2 edges, 2n^2 triangles."""
    def v(i, j):
        return ("v", i % n, j % n)

    verts, edges, tris = [], [], []
    for i in range(n):
        for j in range(n):
            verts.append((v(i, j), []))
            # horizontal, vertical and diagonal edges out of (i, j): [d0, d1]
            edges.append((("h", i, j), [v(i + 1, j), v(i, j)]))
            edges.append((("u", i, j), [v(i, j + 1), v(i, j)]))
            edges.append((("d", i, j), [v(i + 1, j + 1), v(i, j)]))
            i1, j1 = (i + 1) % n, (j + 1) % n
            # (i,j) < (i+1,j) < (i+1,j+1) and (i,j) < (i,j+1) < (i+1,j+1)
            tris.append((("L", i, j), [("u", i1, j), ("d", i, j), ("h", i, j)]))
            tris.append((("U", i, j), [("h", i, j1), ("d", i, j), ("u", i, j)]))
    return {0: verts, 1: edges, 2: tris}


def simplex(n: int) -> dict:
    """The standard n-simplex; a cell's key is its tuple of vertices."""
    out = {}
    for d in range(n + 1):
        out[d] = [(vs, [vs[:i] + vs[i + 1:] for i in range(d + 1)] if d else [])
                  for vs in combinations(range(n + 1), d + 1)]
    return out


def surface(g: int) -> dict:
    """Single-vertex genus-g surface: fan triangulation of the 4g-gon.

    The boundary word is a1 b1 a1^-1 b1^-1 ... ag bg ag^-1 bg^-1 read from
    corner P_0.  Triangle k has corners P_0, P_k, P_{k+1}; D_j is the edge
    P_0 -> P_j, so D_1 = a1 and D_{4g-1} = bg.  A side read backwards puts
    P_{k+1} before P_k in the triangle's vertex order.  For g = 1 this is
    the bundled minimal torus.
    """
    word = []
    for i in range(1, g + 1):
        word += [(("a", i), 1), (("b", i), 1), (("a", i), -1), (("b", i), -1)]
    sides = 4 * g

    def diag(j):
        if j == 1:
            return ("a", 1)
        if j == sides - 1:
            return ("b", g)
        return ("D", j)

    loops = [("a", i) for i in range(1, g + 1)] + [("b", i) for i in range(1, g + 1)]
    loops += [("D", j) for j in range(2, sides - 1)]
    tris = []
    for k in range(1, sides - 1):
        letter, direction = word[k]
        if direction == 1:
            faces = [letter, diag(k + 1), diag(k)]
        else:
            faces = [letter, diag(k), diag(k + 1)]
        tris.append((("T", k), faces))
    return {0: [("v", [])], 1: [(e, ["v", "v"]) for e in loops], 2: tris}


def render_sset(canon: dict, rng: random.Random) -> tuple[str, dict]:
    """Text of a seeded relabelling; also returns key -> name."""
    total = sum(len(cells) for cells in canon.values())
    ids = list(range(total))
    rng.shuffle(ids)
    names, t = {}, 0
    for d in sorted(canon):
        for key, _ in canon[d]:
            names[key] = f"c{ids[t]}"
            t += 1
    lines = []
    for d in sorted(canon):
        cells = list(canon[d])
        rng.shuffle(cells)
        lines.append(f"dim {d}")
        for key, faces in cells:
            lines.append(f"{names[key]}: [{', '.join(names[f] for f in faces)}]")
    return "\n".join(lines) + "\n", names


# -- homology-level windows -----------------------------------------------------
#
# Coordinates follow the .coalg format: (i, j) -> i*m + j, (i, j, k) ->
# (i*m + j)*m + k.  The window has comul(s_{jk}) = 2 [e_j, e_k] over all
# pairs, so r = C(m, 2).  Then [H1, comul(H2)] = 2 L3 and delta of any
# bracket-valued nu lies in 2 L3 as well, where L3 is the degree-3 bracket
# lattice; L3 is saturated in the cube, so the Massey group is
# (Z/2)^(r * m(m^2-1)/3) and a class is zero exactly when every entry of
# the triple is even.  The Sq group is (Z/2)^(m^2) and a class is zero
# exactly when every diagonal entry of sq is even.


def _bracket(m, u, w):
    """[u, w] = u (x) w - w (x) u for u of length m^a and w of length m^b."""
    out = [0] * (len(u) * len(w))
    for a, x in enumerate(u):
        if x:
            for b, y in enumerate(w):
                if y:
                    out[a * len(w) + b] += x * y
                    out[b * len(u) + a] -= x * y
    return out


def _unit(m, i):
    e = [0] * m
    e[i] = 1
    return e


def window_pair(m: int, rng: random.Random) -> tuple[dict, dict]:
    """A seeded window and an admissible perturbation of it (same classes)."""
    r = m * (m - 1) // 2
    pairs = list(combinations(range(m), 2))
    # seeded relabelling: permute H1, permute and re-sign H2
    pi = list(range(m))
    rng.shuffle(pi)
    order = list(range(r))
    rng.shuffle(order)
    signs = [rng.choice((1, -1)) for _ in range(r)]
    e = [_unit(m, pi[i]) for i in range(m)]
    comul = []
    for s in range(r):
        j, k = pairs[order[s]]
        comul.append([2 * signs[s] * x for x in _bracket(m, e[j], e[k])])
    sq = [[0] * (m * m) for _ in range(m)]
    for a in range(m):
        for i in range(m):
            for j in range(i, m):
                c = rng.randint(-3, 3)
                sq[a][i * m + j] += c
                if i != j:
                    sq[a][j * m + i] += c
    sq[0][0] = 1                     # keeps the Sq class nonzero
    left_normed = [_bracket(m, e[i], _bracket(m, e[j], e[k]))
                   for i in range(m) for j, k in pairs]
    triple = []
    for s in range(r):
        col = [0] * (m ** 3)
        for b in left_normed:
            c = rng.randint(-2, 2)
            col = [x + c * y for x, y in zip(col, b)]
        triple.append(col)
    # column 0 gets one odd bracket, which keeps the Massey class nonzero
    triple[0] = [2 * x + y for x, y in zip(triple[0], left_normed[0])]
    w = {"h1_rank": m, "h2_rank": r, "comul": comul, "sq": sq, "triple": triple}
    return w, _perturb(w, rng, left_normed)


def _perturb(w: dict, rng: random.Random, left_normed: list) -> dict:
    """sq += nu + swap nu; triple += sum gamma [e_a, comul s_u] - delta nu'.

    nu' takes bracket values, so every triple shift lies in 2 L3 and no
    class moves.
    """
    m, r = w["h1_rank"], w["h2_rank"]
    sq = [list(col) for col in w["sq"]]
    for a in range(m):
        for i in range(m):
            for j in range(m):
                c = rng.randint(-2, 2)
                sq[a][i * m + j] += c
                sq[a][j * m + i] += c
    brackets2 = [_bracket(m, _unit(m, i), _unit(m, j)) for i, j in combinations(range(m), 2)]
    nu = []                          # nu(e_a) in [H1, H1]
    for a in range(m):
        v = [0] * (m * m)
        for b in brackets2:
            c = rng.randint(-1, 1)
            v = [x + c * y for x, y in zip(v, b)]
        nu.append(v)
    triple = [list(col) for col in w["triple"]]
    for s in range(r):
        shift = [0] * (m ** 3)
        for a in range(m):
            for u in range(r):
                c = rng.randint(-1, 1)
                if c:
                    shift = [x + c * y for x, y in
                             zip(shift, _bracket(m, _unit(m, a), w["comul"][u]))]
        # delta nu' on comul(s) = sum c_jk e_j (x) e_k
        for jk, c in enumerate(w["comul"][s]):
            if c:
                j, k = divmod(jk, m)
                for ab, x in enumerate(nu[j]):
                    shift[ab * m + k] -= c * x
                for ab, x in enumerate(nu[k]):
                    shift[j * m * m + ab] -= c * x
        triple[s] = [x + y for x, y in zip(triple[s], shift)]
    return {"h1_rank": m, "h2_rank": r, "comul": w["comul"], "sq": sq,
            "triple": triple}


def render_window(w: dict) -> str:
    return json.dumps({"format": "einfty-coalg", **w}) + "\n"


# -- oracles --------------------------------------------------------------------
#
# Each takes the parsed CLI report and returns None when it conforms, else a
# one-line reason.


def _group(free, torsion):
    return {"free_rank": free, "torsion": torsion}


def check_torus_invariant(rep: dict):
    """Any torus model: the bundled minimal torus's answers."""
    res = rep["results"]
    want = {"h1_rank": 2, "h2_rank": 1,
            "sq_group": _group(0, [2, 2, 2, 2]), "sq_zero": False,
            "massey_group": _group(0, []), "massey_zero": True}
    got = {"h1_rank": res["h1_rank"], "h2_rank": res["h2_rank"],
           "sq_group": res["sq_dual"]["group"], "sq_zero": res["sq_dual"]["is_zero"],
           "massey_group": res["massey"]["group"],
           "massey_zero": res["massey"]["is_zero"]}
    return None if got == want else f"torus invariant {got} != {want}"


def check_window_invariant(rep: dict, w: dict):
    m, r = w["h1_rank"], w["h2_rank"]
    rank3 = m * (m * m - 1) // 3
    res = rep["results"]
    want = {"h1_rank": m, "h2_rank": r,
            "sq_group": _group(0, [2] * (m * m)),
            "sq_zero": all(col[i * m + i] % 2 == 0 for col in w["sq"] for i in range(m)),
            "sq_len": m * (m + m * (m - 1) // 2),
            "massey_group": _group(0, [2] * (r * rank3)),
            "massey_zero": all(x % 2 == 0 for col in w["triple"] for x in col),
            "massey_len": r * rank3}
    got = {"h1_rank": res["h1_rank"], "h2_rank": res["h2_rank"],
           "sq_group": res["sq_dual"]["group"], "sq_zero": res["sq_dual"]["is_zero"],
           "sq_len": len(res["sq_dual"]["representative"]),
           "massey_group": res["massey"]["group"],
           "massey_zero": res["massey"]["is_zero"],
           "massey_len": len(res["massey"]["representative"])}
    return None if got == want else f"window invariant {got} != {want}"


def check_window_compare(rep: dict):
    res = rep["results"]
    if res == {"sq_dual_equal": True, "massey_equal": True}:
        return None
    return f"compare of admissibly perturbed windows gave {res}"


def cobar_series(g: int, length: int) -> list[int]:
    """Coefficients of 1 / (1 - 2g t + t^2), the H0 cobar ranks of a surface."""
    out = [1, 2 * g]
    while len(out) < length:
        out.append(2 * g * out[-1] - out[-2])
    return out[:length]


def check_surface_cobar(rep: dict, g: int, max_len: int):
    got = rep["results"]["graded_pieces"]
    want = [{"length": i, "rank": c, "torsion": []}
            for i, c in enumerate(cobar_series(g, max_len))]
    return None if got == want else f"cobar ranks {got} != {want}"


def check_simplex_coalgebra(rep: dict, n: int, names: dict):
    """Relations verified, counit 1 on vertices, and m2_0 the AW diagonal."""
    res = rep["results"]
    if res.get("relations_verified") is not True:
        return "relations_verified is not true"
    ops = res["operators"]
    for vs, name in names.items():
        if len(vs) == 1 and ops["p"].get(name) != "1":
            return f"counit of vertex {name} is {ops['p'].get(name)!r}"
        want = sorted(f"{names[vs[:i + 1]]}(x){names[vs[i:]]}" for i in range(len(vs)))
        got = sorted(ops["m2_0"].get(name, "").split(" + "))
        if got != want:
            return f"m2_0({name}) = {got}, expected the front/back faces {want}"
    return None
