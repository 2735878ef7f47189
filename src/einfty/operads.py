"""Symbolic calculus for the low-arity fragment of the ambient operad.

Basis elements are pairs (t, sigma): t is a planar tree whose vertices carry
generator names and whose leaves are implicitly numbered 1..n left to right,
and sigma routes planar leaf p to input slot sigma(p).  Values live in the
Hom-realization convention

    eval(node(g, c_1..c_k)) = (eval(c_1) (x) ... (x) eval(c_k)) o g,

so the root acts first and Koszul signs are generated whenever a subtree of
odd degree moves past earlier factors.  Concretely, grafting a tree x into
leaf q of y costs (-1)^(deg x * D) where D is the total degree of the
vertices preceding leaf q in post-order; the differential of a monomial is
the Leibniz sum over vertices with the same post-order prefix signs.

``x o_i y`` substitutes x into input slot i of y (the second argument is
the outer operation).  When a bimodule element is substituted into an
operad element, the remaining slots are filled with the degree-0 bimodule
generator of arity 1 -- that padding is what makes mixed expressions such
as the arity-3 bimodule differentials typecheck.

Generator inventory (kind o = operad, b = bimodule):

    p (0, 0, o)      counit
    u (1, 0, o)      unit, never stored as a vertex
    m2_k (2, k, o)   k >= 0
    m3_k (3, k, o)   k >= 1, differentials tabulated through k = 4
    d{n} (n, n-2, o) n >= 4; d2, d3 are aliases for m2_0, m3_1
    f0 (0, 0, b), f1 (1, 0, b)
    f2_k (2, k, b)   k >= 1
    f3_2 (3, 2, b)

The differentials of m3_2, m3_3, m3_4 are not displayed anywhere in closed
form; the frozen table below was produced by tools/derive_arity3.py, which
solves for cycles whose symmetric-group span kills the arity-3 homology of
the fragment degree by degree (the same recursive scheme that produces the
arity-2 tower).  Tests re-verify both d o d = 0 and the homology-killing
property of the frozen values.
"""
from __future__ import annotations

import re
from functools import lru_cache
from itertools import permutations

from .errors import OutsideFragment

Tree = tuple  # (name, (child, ...)); a leaf is None
Monomial = tuple  # (tree, labels)
Element = dict  # Monomial -> int


class Generator:
    __slots__ = ("name", "arity", "degree", "kind")

    def __init__(self, name: str, arity: int, degree: int, kind: str):
        self.name = name
        self.arity = arity
        self.degree = degree
        self.kind = kind  # "operad" | "bimodule"

    def _key(self) -> tuple:
        return (self.name, self.arity, self.degree, self.kind)

    def __eq__(self, other):
        if not isinstance(other, Generator):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "Generator({!r}, {!r}, {!r}, {!r})".format(*self._key())


_ALIASES = {"d2": "m2_0", "d3": "m3_1"}
# name -> (arity, degree, kind): the four generators without an index
_FIXED = {"p": (0, 0, "operad"), "u": (1, 0, "operad"),
          "f0": (0, 0, "bimodule"), "f1": (1, 0, "bimodule")}
# family -> (arity, least index, kind); the index of m2_k .. f3_k is its degree
_FAMILIES = {"m2": (2, 0, "operad"), "m3": (3, 1, "operad"),
             "f2": (2, 1, "bimodule"), "f3": (3, 2, "bimodule")}
_NAME_RE = re.compile(r"(m2|m3|f2|f3)_(\d+)|d(\d+)")


def resolve_name(name: str) -> str:
    return _ALIASES.get(name, name)


@lru_cache(maxsize=None)
def generator(name: str) -> Generator:
    name = resolve_name(name)
    if name in _FIXED:
        return Generator(name, *_FIXED[name])
    m = _NAME_RE.fullmatch(name)
    if m and m[1]:
        arity, least, kind = _FAMILIES[m[1]]
        if (k := int(m[2])) >= least:
            return Generator(name, arity, k, kind)
    elif m and (n := int(m[3])) >= 4:
        return Generator(name, n, n - 2, "operad")
    raise OutsideFragment(name)


# -- trees --------------------------------------------------------------------

@lru_cache(maxsize=None)
def tree_leaf_count(tree) -> int:
    if tree is None:
        return 1
    _, children = tree
    return sum(tree_leaf_count(c) for c in children)


@lru_cache(maxsize=None)
def tree_degree(tree) -> int:
    if tree is None:
        return 0
    name, children = tree
    return generator(name).degree + sum(tree_degree(c) for c in children)


@lru_cache(maxsize=None)
def tree_kind(tree) -> str:
    if tree is None:
        return "operad"
    name, children = tree
    if generator(name).kind == "bimodule":
        return "bimodule"
    for c in children:
        if tree_kind(c) == "bimodule":
            return "bimodule"
    return "operad"


def _prefix_degree(tree, q: int) -> int:
    """Degree of the vertices strictly before leaf q in post-order."""
    if tree is None:
        return 0
    _, children = tree
    acc = 0
    for c in children:
        lc = tree_leaf_count(c)
        if q < lc:
            return acc + _prefix_degree(c, q)
        acc += tree_degree(c)
        q -= lc
    raise IndexError("leaf index out of range")


def _graft_tree(tree, q: int, sub):
    if tree is None:
        return sub
    name, children = tree
    out = list(children)
    for idx, c in enumerate(children):
        lc = tree_leaf_count(c)
        if q < lc:
            out[idx] = _graft_tree(c, q, sub)
            return (name, tuple(out))
        q -= lc
    raise IndexError("leaf index out of range")


def _pad_other_leaves(tree, keep: int):
    """Wrap every leaf except ``keep`` in an f1 vertex (planar numbering)."""
    counter = [0]

    def walk(t):
        if t is None:
            q = counter[0]
            counter[0] += 1
            return None if q == keep else ("f1", (None,))
        name, children = t
        return (name, tuple(walk(c) for c in children))

    return walk(tree)


# -- monomials and elements ---------------------------------------------------

def identity_labels(n: int) -> tuple:
    return tuple(range(1, n + 1))


def single(name: str) -> Element:
    """The generator as an element: one vertex, identity routing."""
    g = generator(resolve_name(name))
    if g.name == "u":
        return {(None, (1,)): 1}
    tree = (g.name, (None,) * g.arity)
    return {(tree, identity_labels(g.arity)): 1}


def unit() -> Element:
    return {(None, (1,)): 1}


def zero() -> Element:
    return {}


def _add_term(out: Element, mono: Monomial, c: int) -> None:
    """out += c * mono, dropping the monomial when its coefficient cancels."""
    w = out.get(mono, 0) + c
    if w:
        out[mono] = w
    else:
        out.pop(mono, None)


def el_add(a: Element, b: Element) -> Element:
    out = dict(a)
    for k, v in b.items():
        _add_term(out, k, v)
    return out


def el_scale(a: Element, c: int) -> Element:
    if c == 0:
        return {}
    return {k: c * v for k, v in a.items()}


def el_sub(a: Element, b: Element) -> Element:
    return el_add(a, el_scale(b, -1))


def _compose_mono(xm: Monomial, ym: Monomial, i: int) -> tuple[Monomial, int]:
    """Raw graft of x into slot i of y (no bimodule padding)."""
    tx, lx = xm
    ty, ly = ym
    m = len(lx)
    n = len(ly)
    if not 1 <= i <= n:
        raise ValueError(f"slot {i} out of range for arity {n}")
    if ty is None:
        return xm, 1
    if tx is None:
        return ym, 1
    q0 = ly.index(i)
    sign = 1
    if (tree_degree(tx) & 1) and (_prefix_degree(ty, q0) & 1):
        sign = -1
    t3 = _graft_tree(ty, q0, tx)
    new_labels = []
    for p, l in enumerate(ly):
        if p == q0:
            new_labels.extend(i - 1 + r for r in lx)
        else:
            new_labels.append(l if l < i else l + m - 1)
    return (t3, tuple(new_labels)), sign


def compose_i(x: Element, y: Element, i: int) -> Element:
    """x o_i y: substitute x into input slot i of the outer element y.

    Bimodule-into-operad substitutions pad the remaining slots of y with f1.
    An element's monomials are all of one kind, operad or bimodule.
    """
    if any(tree_kind(tx) == "bimodule" for tx, _ in x):
        if any(tree_kind(ty) == "bimodule" for ty, _ in y):
            raise ValueError("cannot compose two bimodule elements")
        y = {(ty if ty is None else _pad_other_leaves(ty, ly.index(i)), ly): cy
             for (ty, ly), cy in y.items()}
    return _raw_compose_elements(x, y, i)


def multi_compose(inner: list[Element], outer: Element) -> Element:
    """(x_1, ..., x_n) o y -- substitute into every slot, no padding.

    Folding from the last slot down introduces no extra Koszul signs.
    """
    out = outer
    for slot in range(len(inner), 0, -1):
        out = _raw_compose_elements(inner[slot - 1], out, slot)
    return out


def act(sigma: tuple, x: Element) -> Element:
    """Left action of a permutation; sigma[k-1] is the image of slot k."""
    out: Element = {}
    for (tree, labels), c in x.items():
        if len(sigma) != len(labels):
            raise ValueError("permutation arity mismatch")
        mono = (tree, tuple(sigma[l - 1] for l in labels))
        out[mono] = out.get(mono, 0) + c
    return {k: v for k, v in out.items() if v}


SWAP2 = (2, 1)


# -- differential table -------------------------------------------------------

# Frozen differentials for m3_2..m3_4; see the module docstring and
# tools/derive_arity3.py.  Filled in below after the solver ran once;
# expressed via the public constructors so the table stays readable.

def _d_m2(k: int) -> Element:
    # d m2_{k} = m2_{k-1} - (-1)^{k-1} sigma m2_{k-1}, k >= 1
    prev = single(f"m2_{k - 1}")
    sgn = -1 if (k - 1) % 2 == 0 else 1
    return el_add(prev, el_scale(act(SWAP2, prev), sgn))


def _d_m3_1() -> Element:
    m = single("m2_0")
    return el_sub(compose_i(m, m, 1), compose_i(m, m, 2))


def _d_dn(n: int) -> Element:
    # standard associahedron differential, with d2 -> m2_0 and d3 -> m3_1
    def dgen(k: int) -> Element:
        if k == 2:
            return single("m2_0")
        if k == 3:
            return single("m3_1")
        return single(f"d{k}")

    out: Element = {}
    for k in range(2, n):
        for l in range(1, n - k + 2):
            term = compose_i(dgen(k), dgen(n - k + 1), l)
            sgn = -1 if ((k + 1) * (n - k + l)) % 2 else 1
            out = el_add(out, el_scale(term, sgn))
    return out


def _d_f2(k: int) -> Element:
    # d f2_1 = m2_0 o f1 - (f1, f1) o m2_0
    # d f2_{k+1} adds the symmetrized previous generator
    f1 = single("f1")
    mk = single(f"m2_{k - 1}")
    out = el_sub(multi_compose([mk], f1), multi_compose([f1, f1], mk))
    if k >= 2:
        prev = single(f"f2_{k - 1}")
        sgn = 1 if (k - 1) % 2 == 0 else -1
        out = el_sub(out, el_add(prev, el_scale(act(SWAP2, prev), sgn)))
    return out


def _d_f3_2() -> Element:
    f1 = single("f1")
    m31 = single("m3_1")
    m20 = single("m2_0")
    f21 = single("f2_1")
    out = el_sub(multi_compose([m31], f1), multi_compose([f1, f1, f1], m31))
    out = el_sub(out, compose_i(m20, f21, 1))
    out = el_add(out, compose_i(m20, f21, 2))
    out = el_sub(out, compose_i(f21, m20, 1))
    out = el_add(out, compose_i(f21, m20, 2))
    return out


# (coeff, sigma, "comp", a, i, b) stands for coeff * sigma.(m2_a o_i m2_b);
# (coeff, sigma, "gen", k, 0, 0) for coeff * sigma.(m3_k).
_M3_TABLE_DATA = {
    2: [
        (-1, (1, 3, 2), "comp", 0, 1, 1),
        (1, (2, 3, 1), "comp", 0, 1, 1),
        (-1, (3, 2, 1), "comp", 0, 1, 1),
        (1, (1, 2, 3), "comp", 1, 1, 0),
        (-1, (2, 3, 1), "comp", 1, 1, 0),
        (-1, (1, 2, 3), "gen", 1, 0, 0),
        (1, (1, 3, 2), "gen", 1, 0, 0),
        (1, (2, 1, 3), "gen", 1, 0, 0),
    ],
    3: [
        (1, (1, 2, 3), "comp", 2, 1, 0),
        (-2, (1, 3, 2), "comp", 2, 1, 0),
        (1, (2, 3, 1), "comp", 2, 1, 0),
        (1, (1, 3, 2), "gen", 2, 0, 0),
        (-1, (2, 1, 3), "gen", 2, 0, 0),
        (-1, (2, 3, 1), "gen", 2, 0, 0),
        (1, (3, 1, 2), "gen", 2, 0, 0),
    ],
    4: [
        (1, (1, 2, 3), "comp", 3, 1, 0),
        (1, (2, 3, 1), "comp", 3, 1, 0),
        (1, (1, 2, 3), "gen", 3, 0, 0),
        (1, (1, 3, 2), "gen", 3, 0, 0),
        (1, (2, 1, 3), "gen", 3, 0, 0),
    ],
}


def _frozen_m3_table() -> dict[int, Element]:
    out: dict[int, Element] = {}
    for degree, terms in _M3_TABLE_DATA.items():
        el = zero()
        for coeff, sigma, kind, a, i, b in terms:
            if kind == "comp":
                base = compose_i(single(f"m2_{a}"), single(f"m2_{b}"), i)
            else:
                base = single(f"m3_{a}")
            el = el_add(el, el_scale(act(sigma, base), coeff))
        out[degree] = el
    return out


@lru_cache(maxsize=None)
def generator_differential(name: str) -> Element:
    name = resolve_name(name)
    g = generator(name)
    if name in ("p", "u", "f0", "f1", "m2_0"):
        return {}
    if name.startswith("m2_"):
        return _d_m2(g.degree)
    if name == "m3_1":
        return _d_m3_1()
    if name.startswith("m3_"):
        table = _frozen_m3_table()
        if g.degree not in table:
            raise OutsideFragment(name)
        return table[g.degree]
    if name.startswith("f2_"):
        return _d_f2(g.degree)
    if name == "f3_2":
        return _d_f3_2()
    if name.startswith("f3_"):
        raise OutsideFragment(name)
    if name.startswith("d"):
        return _d_dn(g.arity)
    raise OutsideFragment(name)


def _diff_tree(tree) -> Element:
    """Differential of (tree, identity labels)`."""
    if tree is None:
        return {}
    name, children = tree
    g = generator(name)
    # peel children off as a descending composition chain M_slot =
    # c_slot o_slot M_{slot+1} and apply the Leibniz rule at each step:
    # d(c o_s M) = d(c) o_s M + (-1)^{deg c} c o_s d(M)
    out = dict(generator_differential(name))
    for slot in range(g.arity, 0, -1):
        child = children[slot - 1]
        if child is None:
            continue
        child_mono: Element = {(child, identity_labels(tree_leaf_count(child))): 1}
        d_child = _diff_tree(child)
        chain = _chain_tree(name, children, slot)
        base: Element = {(chain, identity_labels(tree_leaf_count(chain))): 1}
        term1 = _raw_compose_elements(d_child, base, slot)
        term2 = _raw_compose_elements(child_mono, out, slot)
        sgn = -1 if tree_degree(child) % 2 else 1
        out = el_add(term1, el_scale(term2, sgn))
    return out


def _chain_tree(name, children, slot):
    """Tree with children in slots > slot attached, leaves elsewhere."""
    filled = tuple(children[i] if i + 1 > slot else None for i in range(len(children)))
    return (name, filled)


def _raw_compose_elements(x: Element, y: Element, i: int) -> Element:
    out: Element = {}
    for ym, cy in y.items():
        for xm, cx in x.items():
            mono, sign = _compose_mono(xm, ym, i)
            _add_term(out, mono, sign * cx * cy)
    return out


def differential(x: Element) -> Element:
    """Leibniz extension of the generator table to arbitrary elements."""
    out: Element = {}
    for (tree, labels), c in x.items():
        base = _diff_tree(tree)
        for (t2, l2), c2 in base.items():
            _add_term(out, (t2, tuple(labels[l - 1] for l in l2)), c * c2)
    return out


def check_d_squared(max_arity: int = 3, max_degree: int = 4) -> list[dict]:
    """Verify d(d(g)) == 0 for every tabulated generator in range."""
    report = []
    for name in fragment_generators(max_arity, max_degree):
        defect = differential(generator_differential(name))
        report.append({
            "generator": name,
            "ok": not defect,
            "defect": render(defect) if defect else "",
        })
    return report


def fragment_generators(max_arity: int = 3, max_degree: int = 4) -> list[str]:
    """Tabulated generators with arity <= max_arity and degree <= max_degree."""
    names = []
    if max_arity >= 0:
        names += ["p", "f0"]
    if max_arity >= 1:
        names += ["f1"]
    if max_arity >= 2:
        names += [f"m2_{k}" for k in range(0, max_degree + 1)]
        names += [f"f2_{k}" for k in range(1, max_degree + 1)]
    if max_arity >= 3:
        names += [f"m3_{k}" for k in range(1, min(max_degree, 4) + 1)]
        if max_degree >= 2:
            names += ["f3_2"]
    for n in range(4, max_arity + 1):
        if n - 2 <= max_degree:
            names.append(f"d{n}")
    return names


# -- rendering ----------------------------------------------------------------

def _render_tree(tree) -> str:
    if tree is None:
        return "_"
    name, children = tree
    if all(c is None for c in children):
        return name
    # two-vertex trees print in the o_i style used throughout the papers
    non_leaf = [(i, c) for i, c in enumerate(children) if c is not None]
    if len(non_leaf) == 1:
        i, c = non_leaf[0]
        cname, inner = c
        if all(x is None for x in inner):
            return f"{cname} o{i + 1} {name}"
    args = ", ".join(_render_tree(c) for c in children)
    return f"{name}({args})"


def _mono_key(mono: Monomial) -> tuple:
    tree, labels = mono
    return (repr(tree), labels)


def render_monomial(mono: Monomial) -> str:
    tree, labels = mono
    body = _render_tree(tree)
    if labels != identity_labels(len(labels)):
        body = f"s{list(labels)}*({body})"
    return body


def render(x: Element) -> str:
    if not x:
        return "0"
    parts = []
    for mono in sorted(x, key=_mono_key):
        c = x[mono]
        body = render_monomial(mono)
        if c == 1:
            term = body
        elif c == -1:
            term = f"-{body}"
        else:
            term = f"{c}*{body}"
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


def symmetric_group(n: int) -> list[tuple]:
    return [tuple(p) for p in permutations(range(1, n + 1))]
