"""The concrete coalgebra structure on normalized chains.

The binary degree-0 operation is the front/back-face diagonal; the higher
binary operations Delta_k are built from universal per-dimension tables of
interval-cut terms.  A table entry assigns an integer coefficient to a pair
of vertex subsets (S1, S2) of the standard n-simplex; the operator applies
the corresponding iterated faces to every n-simplex, dropping degenerate
factors.  Tables for k >= 1 are found once per (k, n) by solving the ladder

    [d, Delta_{k+1}] = Delta_k - (-1)^k T Delta_k

as an integer linear system on the standard simplex.  Interval-cut terms
are stable under simplicial maps and vanish termwise on degenerate
simplices, so a table solution satisfies the same ladder on every
simplicial set, degenerate faces included.  The ladder, not any particular
closed formula, is the contract tests enforce.

Evaluation of symbolic fragment elements against an operator assignment
lives here too; it is the bridge every structure-relation check goes
through.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations, combinations_with_replacement

from .chains import (ChainComplex, Columns, GradedOperator, TensorKey, pruned,
                     bracket_d, identity_operator, sigma_twist, tensor_compose,
                     unit_complex, zero_operator)
from .errors import MultipleVertices, RelationViolation
from .intlinalg import IntMatrix, solve
from .operads import generator, generator_differential
from .simplicial import SimplicialSet, normalized_chains, standard_simplex

CutTerm = tuple[int, tuple[int, ...], tuple[int, ...]]  # (coeff, S1, S2)


def _interval_cut_pairs(n: int, intervals: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Nondegenerate (S1, S2) pairs from interval cuts of [0..n]."""
    pairs = set()
    for cuts in combinations_with_replacement(range(n + 1), intervals - 1):
        points = [0, *cuts, n]
        segs = []
        ok = True
        for t in range(intervals):
            lo, hi = points[t], points[t + 1]
            segs.append(tuple(range(lo, hi + 1)))
        for parity in (0, 1):
            s = [[], []]
            for t, seg in enumerate(segs):
                s[(t + parity) % 2].extend(seg)
            good = True
            for side in s:
                if any(a == b for a, b in zip(side, side[1:])):
                    good = False
                    break
            if good:
                pairs.add((tuple(s[0]), tuple(s[1])))
    return sorted(pairs)


@lru_cache(maxsize=None)
def _standard_chain(n: int) -> ChainComplex:
    return normalized_chains(standard_simplex(n))


@lru_cache(maxsize=None)
def _subset_index(n: int, d: int) -> dict[tuple[int, ...], int]:
    """Vertex subset -> index among the d-simplices of the standard n-simplex,
    which ``standard_simplex`` lists in ``combinations`` order."""
    return {vs: i for i, vs in enumerate(combinations(range(n + 1), d + 1))}


def _pair_word(n: int, s1: tuple[int, ...], s2: tuple[int, ...]) -> TensorKey:
    """The tensor word of the face pair (S1, S2) of the standard n-simplex."""
    d1, d2 = len(s1) - 1, len(s2) - 1
    return ((d1, _subset_index(n, d1)[s1]), (d2, _subset_index(n, d2)[s2]))


def _pair_vector(c: ChainComplex, n: int, total: int,
                 terms: list[CutTerm]) -> IntMatrix:
    vec = IntMatrix(c.tensor_rank(2, total), 1)
    for coeff, s1, s2 in terms:
        row = c.word_row(2, total, _pair_word(n, s1, s2))
        vec[row, 0] = vec[row, 0] + coeff
    return vec


@lru_cache(maxsize=None)
def cup_table(k: int, n: int) -> tuple[CutTerm, ...]:
    """Coefficients of Delta_k on the standard n-simplex.

    k = 0 is the front/back-face diagonal; higher tables solve the ladder.
    """
    if k < 0:
        raise ValueError("cup index must be nonnegative")
    if k == 0:
        return tuple((1, tuple(range(0, i + 1)), tuple(range(i, n + 1)))
                     for i in range(n + 1))
    if k > n:
        return ()
    prev = k - 1
    c = _standard_chain(n)
    pairs = _interval_cut_pairs(n, k + 2)
    if not pairs:
        raise RelationViolation(f"cup-{k} ladder", f"no candidate terms at dim {n}")
    # right-hand side: R_{k-1}(iota_n) - (-1)^{k-1} Delta_k(d iota_n)
    rk = _pair_vector(c, n, n + prev, list(cup_table(prev, n)))
    rk = rk - _twist_vector(c, n, n + prev, list(cup_table(prev, n))).scale(
        -1 if prev % 2 else 1)
    lower = IntMatrix(c.tensor_rank(2, n + k - 1), 1)
    for i in range(n + 1) if n >= 1 else []:
        facet = tuple(v for v in range(n + 1) if v != i)
        mapped = [(coeff, tuple(facet[a] for a in s1), tuple(facet[b] for b in s2))
                  for coeff, s1, s2 in cup_table(k, n - 1)]
        contrib = _pair_vector(c, n, n - 1 + k, mapped)
        lower = lower + contrib.scale(-1 if i % 2 else 1)
    rhs = rk - lower.scale(-1 if (k - 1) % 2 else 1)
    # unknown coefficients on candidate pairs; columns = d_tensor(pair)
    cols = IntMatrix(c.tensor_rank(2, n + k - 1), len(pairs))
    for j, (s1, s2) in enumerate(pairs):
        for v, face in c.word_boundary(_pair_word(n, s1, s2)):
            row = c.word_row(2, n + k - 1, face)
            cols[row, j] = cols[row, j] + v
    sol = solve(cols, rhs)
    if sol is None:
        raise RelationViolation(f"cup-{k} ladder",
                                f"integer solve failed at dimension {n}")
    out = []
    for j, (s1, s2) in enumerate(pairs):
        coeff = sol[j, 0]
        if coeff:
            out.append((coeff, s1, s2))
    return tuple(out)


def _twist_vector(c: ChainComplex, n: int, total: int,
                  terms: list[CutTerm]) -> IntMatrix:
    """Vector of T applied to a pair combination (signed swap)."""
    swapped = []
    for coeff, s1, s2 in terms:
        d1, d2 = len(s1) - 1, len(s2) - 1
        sign = -1 if (d1 % 2) and (d2 % 2) else 1
        swapped.append((sign * coeff, s2, s1))
    return _pair_vector(c, n, total, swapped)


# -- operators on an actual simplicial set ------------------------------------

def counit(x: SimplicialSet, c: ChainComplex) -> GradedOperator:
    """Arity-0 functional: every vertex goes to 1."""
    cols = {0: {j: {(): 1} for j in range(c.rank(0))}} if c.rank(0) else {}
    return GradedOperator._adopt(c, unit_complex(), 0, 0, cols)


def _table_operator(x: SimplicialSet, c: ChainComplex, k: int) -> GradedOperator:
    index = {name: i for names in x.simplices.values() for i, name in enumerate(names)}
    acc: Columns = {}
    for d in c.degrees():
        table = cup_table(k, d)
        if not table:
            continue
        block = acc[d] = {}
        for i, name in enumerate(x.names(d)):
            col = block[i] = {}
            for coeff, s1, s2 in table:
                cell1 = x.face_on_vertices(name, s1)
                if cell1[0]:
                    continue
                cell2 = x.face_on_vertices(name, s2)
                if cell2[0]:
                    continue
                word = ((len(s1) - 1, index[cell1[1]]), (len(s2) - 1, index[cell2[1]]))
                col[word] = col.get(word, 0) + coeff
    return GradedOperator._adopt(c, c, 2, k, pruned(acc))


def aw_diagonal(x: SimplicialSet, c: ChainComplex | None = None) -> GradedOperator:
    if c is None:
        c = normalized_chains(x)
    return _table_operator(x, c, 0)


def cup_k_coproduct(x: SimplicialSet, k: int, c: ChainComplex | None = None) -> GradedOperator:
    if k < 1:
        raise ValueError("cup index must be >= 1; use aw_diagonal for k = 0")
    if c is None:
        c = normalized_chains(x)
    return _table_operator(x, c, k)


# -- symbolic evaluation -------------------------------------------------------

def evaluate(elem, *, source: ChainComplex, target: ChainComplex, arity: int,
             degree: int, chain_ops: dict[str, GradedOperator],
             module_ops: dict[str, GradedOperator] | None = None,
             homology_ops: dict[str, GradedOperator] | None = None) -> GradedOperator:
    """Realize a fragment element as an operator.

    Vertices below the bimodule vertex act through ``chain_ops``, the
    bimodule vertex through ``module_ops``, everything above it through
    ``homology_ops``.  Pure operad elements only consult ``chain_ops``.
    """

    def pick(name: str, crossed: bool) -> GradedOperator:
        g = generator(name)
        if g.kind == "bimodule":
            if module_ops is None or name not in module_ops:
                raise KeyError(f"no operator assigned to bimodule generator {name}")
            return module_ops[name]
        table = homology_ops if (crossed and homology_ops is not None) else chain_ops
        if name not in table:
            raise KeyError(f"no operator assigned to generator {name}")
        return table[name]

    def eval_tree(tree, crossed: bool) -> GradedOperator:
        if tree is None:
            return identity_operator(target if crossed else source)
        name, children = tree
        vop = pick(name, crossed)
        if all(child is None for child in children):
            return vop  # (id (x) ... (x) id) o vop = vop
        crossed2 = crossed or generator(name).kind == "bimodule"
        child_ops = [eval_tree(child, crossed2) for child in children]
        return tensor_compose(child_ops, vop)

    total = zero_operator(source, target, arity, degree)
    for (tree, labels), coeff in elem.items():
        op = eval_tree(tree, False)
        if op.arity != arity or op.degree != degree:
            raise ValueError(
                f"element realizes as arity {op.arity} degree {op.degree}, "
                f"expected ({arity}, {degree})")
        perm = tuple(l - 1 for l in labels)
        op = sigma_twist(perm, op)
        total = total + op.scale(coeff)
    return total


def _expansion(op: GradedOperator, d: int, idx: int) -> list[list]:
    """One basis image of ``op`` as [coefficient, word] pairs, the words
    spelled in cell labels ("1" for the empty word)."""
    labels = op.target.labels
    return [[v, "(x)".join(str(labels(e)[i]) for e, i in word) or "1"]
            for v, word in op.image_of(d, idx)]


def bracket_mismatch(relation: str, got: GradedOperator, want: GradedOperator) -> dict:
    """A failed identity ``got == want``, named at the first source degree
    and basis element where the two differ, with both images.

    Meant for the failure path only: it walks the images until they differ.
    """
    for d in sorted(set(got.cols) | set(want.cols)):
        have, need = got.cols.get(d, {}), want.cols.get(d, {})
        for idx in sorted(set(have) | set(need)):
            if have.get(idx) != need.get(idx):
                element = str(got.source.labels(d)[idx])
                expected, actual = _expansion(want, d, idx), _expansion(got, d, idx)
                spell = [" ".join(f"{v:+d} {w}" for v, w in terms) or "0"
                         for terms in (expected, actual)]
                return {"relation": relation,
                        "detail": f"degree {d}, {element}: expected {spell[0]}, "
                                  f"got {spell[1]}",
                        "degree": d, "element": element,
                        "expected": expected, "actual": actual}
    return {"relation": relation, "detail": "operators differ in shape"}


def violation(entry: dict) -> RelationViolation:
    """The error for a failed-relation entry of ``verify``-style reports."""
    fields = {k: v for k, v in entry.items() if k not in ("relation", "detail")}
    return RelationViolation(entry["relation"], entry.get("detail", ""), fields)


class CoalgebraStructure:
    """Complex with an operator for each fragment generator in scope."""

    def __init__(self, complex: ChainComplex, ops: dict[str, GradedOperator],
                 reduced: bool = False, max_k: int = 3, check: bool = True):
        self.complex = complex
        self.ops = dict(ops)
        self.reduced = reduced
        self.max_k = max_k
        if check:
            bad = self.verify()
            if bad:
                raise violation(bad[0])

    def op(self, name: str) -> GradedOperator:
        return self.ops[name]

    def scope(self) -> list[str]:
        return sorted(self.ops)

    def verify(self) -> list[dict]:
        """Check every structure relation as an exact identity of operators.

        A failed bracket identity names the first source degree and basis
        element where [d, op] differs from its required value, with both
        image expansions (see ``bracket_mismatch``).
        """
        bad = []
        c = self.complex
        for name in sorted(self.ops):
            g = generator(name)
            want = evaluate(generator_differential(name), source=c,
                            target=self.ops[name].target,
                            arity=g.arity, degree=g.degree - 1,
                            chain_ops=self.ops)
            got = bracket_d(self.ops[name])
            if got != want:
                bad.append(bracket_mismatch(f"[d, {name}]", got, want))
        if not self.reduced:
            delta0 = self.ops["m2_0"]
            ident = identity_operator(c)
            left = tensor_compose([self.ops["p"], ident], delta0)
            right = tensor_compose([ident, self.ops["p"]], delta0)
            if left != ident:
                bad.append({"relation": "(p (x) id) m2_0 = id"})
            if right != ident:
                bad.append({"relation": "(id (x) p) m2_0 = id"})
        return bad


def chain_structure(x: SimplicialSet, max_k: int = 3) -> CoalgebraStructure:
    """Counit, diagonal and cup coproducts on the normalized chains of x.

    The arity-3 generator acts by zero: the diagonal is strictly
    coassociative, so its required bracket identity holds with the zero
    operator.
    """
    c = normalized_chains(x)
    ops: dict[str, GradedOperator] = {"p": counit(x, c), "m2_0": aw_diagonal(x, c)}
    for k in range(1, max_k + 1):
        ops[f"m2_{k}"] = cup_k_coproduct(x, k, c)
    ops["m3_1"] = zero_operator(c, c, 3, 1)
    return CoalgebraStructure(c, ops, reduced=False, max_k=max_k)


def reduce_structure(s: CoalgebraStructure) -> CoalgebraStructure:
    """Restrict to the kernel of the counit of a single-vertex model.

    Realizes the coaugmentation projector (id - iota pi) on every tensor
    factor: words containing a vertex factor are simply dropped.
    """
    if s.reduced:
        raise ValueError("structure is already reduced")
    n0 = s.complex.rank(0)
    if n0 != 1:
        raise MultipleVertices(n0)
    c = s.complex
    basis = {d: c.labels(d) for d in c.degrees() if d >= 1}
    boundary = {}
    for d in c.boundary:
        if d >= 2:
            boundary[d] = c.boundary_matrix(d)
    red = ChainComplex(basis, boundary)
    ops = {}
    for name, op in s.ops.items():
        if name == "p":
            continue
        acc = {d: {i: {w: v for w, v in col.items() if all(e for e, _ in w)}
                   for i, col in block.items()}
               for d, block in op.cols.items() if d >= 1}
        ops[name] = GradedOperator._adopt(red, red, op.arity, op.degree, pruned(acc))
    return CoalgebraStructure(red, ops, reduced=True, max_k=s.max_k)


def operator_dump(s: CoalgebraStructure) -> dict:
    """Per-generator expansion of every basis image, for reports."""
    c = s.complex
    out = {}
    for name in s.scope():
        op = s.ops[name]
        entries = {}
        for d in c.degrees():
            for idx, label in enumerate(c.labels(d)):
                img = op.image_of(d, idx)
                if not img:
                    continue
                terms = []
                for coeff, word in img:
                    factors = "(x)".join(str(c.labels(e)[i]) for (e, i) in word)
                    if not word:
                        factors = "1"
                    if coeff == 1:
                        terms.append(factors)
                    elif coeff == -1:
                        terms.append(f"-{factors}")
                    else:
                        terms.append(f"{coeff}*{factors}")
                entries[str(label)] = " + ".join(terms).replace("+ -", "- ")
        out[name] = entries
    return out
