"""The concrete coalgebra structure on normalized chains.

The binary operations Delta_k come from universal per-dimension tables of
interval-cut terms.  A table entry assigns an integer coefficient to a pair
of vertex subsets (S1, S2) of the standard n-simplex; the operator applies
the corresponding iterated faces to every n-simplex, dropping degenerate
factors.  Every table, the front/back-face diagonal Delta_0 included, is
Steenrod's closed cup-k formula (see ``cup_table``), with its signs fixed
against the ladder

    [d, Delta_{k+1}] = Delta_k - (-1)^k T Delta_k.

Interval-cut terms are stable under simplicial maps and vanish termwise on
degenerate simplices, so the tables satisfy the same ladder on every
simplicial set, degenerate faces included.  The ladder, not the formula,
is the contract: ``CoalgebraStructure.verify`` checks it exactly on every
structure it builds.

Evaluation of symbolic fragment elements against an operator assignment
lives here too; it is the bridge every structure-relation check goes
through.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations

from .chains import (ChainComplex, Columns, GradedOperator, bracket_d, combination,
                     expansion, failures, identity_operator, pruned, tensor_compose,
                     unit_complex, violation, zero_operator)
from .errors import MultipleVertices
from .operads import generator, generator_differential
from .simplicial import SimplicialSet, normalized_chains

CutTerm = tuple[int, tuple[int, ...], tuple[int, ...]]  # (coeff, S1, S2)


@lru_cache(maxsize=None)
def cup_table(k: int, n: int) -> tuple[CutTerm, ...]:
    """Coefficients of Delta_k on the standard n-simplex, sorted by (S1, S2).

    There is one term per cut set C of k + 1 vertices of [0..n], so none
    when k > n.  Number the other vertices u_1 < ... < u_{n-k}; those with
    u_j - j - k even form U0, the rest U1.  The term is the pair
    S1 = [0..n] - U0, S2 = [0..n] - U1, swapped when k is odd, with
    coefficient

        eps * (-1)^(o (o - 1) / 2 + alpha * sum(C)),

    where o counts the odd elements of C, alpha = (n if k is odd else 0)
    + (k + 1) // 2 and eps = (-1)^((k + 3) // 4 + (n if k = 3 mod 4 else 0)).
    For k = 0 this is the front/back-face diagonal.  It is Steenrod's
    cup-k coproduct (Ann. Math. 1947; Medina-Mardones, arXiv:2006.01894)
    with the signs of the ladder in the module docstring.
    """
    if k < 0:
        raise ValueError("cup index must be nonnegative")
    alpha = (n if k % 2 else 0) + (k + 1) // 2
    eps = -1 if ((k + 3) // 4 + (n if k % 4 == 3 else 0)) % 2 else 1
    terms = []
    for cut in combinations(range(n + 1), k + 1):
        rest = [v for v in range(n + 1) if v not in cut]
        u0 = {u for j, u in enumerate(rest, 1) if (u - j - k) % 2 == 0}
        s1 = tuple(v for v in range(n + 1) if v not in u0)
        s2 = tuple(v for v in range(n + 1) if v in cut or v in u0)
        if k % 2:
            s1, s2 = s2, s1
        odd = sum(v % 2 for v in cut)
        flip = (odd * (odd - 1) // 2 + alpha * sum(cut)) % 2
        terms.append((-eps if flip else eps, s1, s2))
    return tuple(sorted(terms, key=lambda term: term[1:]))


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

    def eval_tree(tree, crossed: bool) -> GradedOperator | None:
        if tree is None:
            return None  # a leaf is an identity slot of the vertex above it
        name, children = tree
        vop = pick(name, crossed)
        crossed2 = crossed or generator(name).kind == "bimodule"
        return tensor_compose([eval_tree(child, crossed2) for child in children], vop)

    # the zero operator fixes the shape of the sum, and is the sum of no monomial
    terms = [(1, None, zero_operator(source, target, arity, degree))]
    for (tree, labels), coeff in elem.items():
        if tree is None:
            raise ValueError("the unit element is not a composition of generators")
        op = eval_tree(tree, False)
        if op.arity != arity or op.degree != degree:
            raise ValueError(
                f"element realizes as arity {op.arity} degree {op.degree}, "
                f"expected ({arity}, {degree})")
        terms.append((coeff, tuple(l - 1 for l in labels), op))
    return combination(terms)


def bracket_checks(ops: dict[str, GradedOperator], label: str, **realize):
    """The identities [d, op] = d(name) realized, as (relation, got, want)
    triples for ``chains.failures``: one per named operator in name order,
    the relation named ``label.format(name)``.  ``realize`` holds the
    operator assignments that ``evaluate`` reads."""
    for name in sorted(ops):
        op, g = ops[name], generator(name)
        want = evaluate(generator_differential(name), source=op.source, target=op.target,
                        arity=g.arity, degree=g.degree - 1, **realize)
        yield label.format(name), bracket_d(op), want


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
        """Check every structure relation as an exact identity of operators,
        the brackets and (unreduced) the two counit identities; one located
        ``chains.mismatch`` per failure."""
        checks = bracket_checks(self.ops, "[d, {0}]", chain_ops=self.ops)
        if not self.reduced:
            delta0, p = self.ops["m2_0"], self.ops["p"]
            ident = identity_operator(self.complex)
            checks = chain(checks, [
                ("(p (x) id) m2_0 = id", tensor_compose([p, None], delta0), ident),
                ("(id (x) p) m2_0 = id", tensor_compose([None, p], delta0), ident)])
        return failures(checks)


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
                terms = []
                for coeff, factors in expansion(op, d, idx):
                    if coeff == 1:
                        terms.append(factors)
                    elif coeff == -1:
                        terms.append(f"-{factors}")
                    else:
                        terms.append(f"{coeff}*{factors}")
                if terms:
                    entries[str(label)] = " + ".join(terms).replace("+ -", "- ")
        out[name] = entries
    return out
