"""Transfer of the chain-level structure across a retraction onto homology.

With (f, g, h) a strong deformation retraction of K onto its homology H
(zero differential) and Delta_k the chain-level binary tower, the package
built here is

    hat m2_k   = (f (x) f) Delta_k g
    F1         = f
    F2_{k+1}   = (-1)^{k+1} Q_k h,
        Q_k    = hat m2_k f - (f (x) f) Delta_k - (F2_k + (-1)^k sigma F2_k)
    hat m3_1   = -P g
    F3_2       = (hat m3_1 f + P) h,
        P      = -(hat m2_0 o_1 F2_1) + (hat m2_0 o_2 F2_1)
                 - (F2_1 (x) f) Delta_0 + (f (x) F2_1) Delta_0

The side conditions f h = h g = h h = 0 make every Q_k vanish on cycles,
which is exactly what the h-corrections need; the bracket identities then
hold on the nose and are re-verified as literal equalities of operators by
``verify_relations``.  Any other formula set passing the verifier would be
just as conforming -- the relation list is the contract.
"""
from __future__ import annotations

from .chains import (ChainComplex, GradedOperator, bracket_d, compose_slot,
                     plain_compose, tensor_compose, transpose_swap)
from .coalgebra import CoalgebraStructure, bracket_mismatch, evaluate, violation
from .errors import ShapeMismatch
from .homology import SDR
from .operads import generator, generator_differential


class TransferPackage:
    """hat_ops: m2_0, m2_1, m2_2, m3_1 on homology; morphism_ops: f1, f2_1,
    f2_2, f3_2 connecting the chain level to the homology level."""

    def __init__(self, source: CoalgebraStructure, sdr: SDR,
                 hat_ops: dict[str, GradedOperator],
                 morphism_ops: dict[str, GradedOperator]):
        self.source = source
        self.sdr = sdr
        self.hat_ops = hat_ops
        self.morphism_ops = morphism_ops

    @property
    def homology(self) -> ChainComplex:
        return self.sdr.retract


def transfer(source: CoalgebraStructure, sdr: SDR) -> TransferPackage:
    """Build the homology-level structure and the connecting morphism data."""
    if sdr.total is not source.complex:
        raise ShapeMismatch("retraction does not start at the structure's complex")
    f, g, h = sdr.f, sdr.g, sdr.h
    delta = {k: source.op(f"m2_{k}") for k in range(0, 3)}
    hat: dict[str, GradedOperator] = {}
    morph: dict[str, GradedOperator] = {"f1": f}
    ff = lambda op: tensor_compose([f, f], op)  # noqa: E731

    for k in range(0, 3):
        hat[f"m2_{k}"] = plain_compose(ff(delta[k]), g)
    for k in range(0, 2):
        qk = plain_compose(hat[f"m2_{k}"], f) - ff(delta[k])
        if k >= 1:
            f2k = morph[f"f2_{k}"]
            sym = f2k + transpose_swap(f2k).scale(-1 if k % 2 else 1)
            qk = qk - sym
        sgn = -1 if (k + 1) % 2 else 1
        morph[f"f2_{k + 1}"] = plain_compose(qk, h).scale(sgn)

    def close_arity3(hat_ops, morph_ops):
        f21 = morph_ops["f2_1"]
        m0 = hat_ops["m2_0"]
        p_op = compose_slot(m0, f21, 2) - compose_slot(m0, f21, 1) \
            - tensor_compose([f21, f], delta[0]) + tensor_compose([f, f21], delta[0])
        hat_ops["m3_1"] = plain_compose(p_op, g).scale(-1)
        morph_ops["f3_2"] = plain_compose(
            plain_compose(hat_ops["m3_1"], f) + p_op, h)

    close_arity3(hat, morph)
    pkg = TransferPackage(source, sdr, hat, morph)
    nu = _normalizing_correction(pkg)
    if nu is not None:
        # Shift the binary morphism component by nu o f and compensate the
        # degree-1 coproduct by nu - sigma nu; every relation survives, and
        # the triple window moves into the bracket lattice.
        morph["f2_1"] = morph["f2_1"] + plain_compose(nu, f)
        hat["m2_1"] = hat["m2_1"] + nu - transpose_swap(nu)
        close_arity3(hat, morph)

    bad = verify_relations(pkg)
    if bad:
        raise violation(bad[0])
    return pkg


def _normalizing_correction(pkg: TransferPackage) -> GradedOperator | None:
    """The correction ``invariants.normalizing_shift`` finds for the window
    of ``pkg``, as a degree-1 binary operator on homology, or None."""
    from .invariants import normalizing_shift, window_from_package  # no cycle at module load
    block = normalizing_shift(window_from_package(pkg))
    return None if block is None else GradedOperator._adopt(
        pkg.homology, pkg.homology, 2, 1, {2: block})


def verify_relations(pkg: TransferPackage) -> list[dict]:
    """Exact verification of the full relation list; empty means conforming.

    A failed bracket identity names the first source degree and basis
    element where it fails, with the expected and actual expansions.
    """
    bad: list[dict] = []
    f = pkg.sdr.f
    hat, morph = pkg.hat_ops, pkg.morphism_ops
    k_cx = pkg.source.complex

    if morph.get("f1") != f:
        bad.append({"relation": "F(f1) = f"})
    for k in range(0, 3):
        op = hat.get(f"m2_{k}")
        if op is None:
            bad.append({"relation": f"hat m2_{k} present"})
            continue
        sym = transpose_swap(op).scale(-1 if k % 2 else 1)
        if op != sym:
            bad.append({"relation": f"hat m2_{k} = (-1)^{k} sigma hat m2_{k}"})
    m0 = hat["m2_0"]
    if compose_slot(m0, m0, 1) != compose_slot(m0, m0, 2):
        bad.append({"relation": "hat m2_0 o1 hat m2_0 = hat m2_0 o2 hat m2_0"})

    chain_ops = dict(pkg.source.ops)
    for name in ("f2_1", "f2_2", "f3_2"):
        w = morph.get(name)
        if w is None:
            bad.append({"relation": f"F({name}) present"})
            continue
        gen = generator(name)
        want = evaluate(generator_differential(name), source=k_cx,
                        target=pkg.homology, arity=gen.arity,
                        degree=gen.degree - 1, chain_ops=chain_ops,
                        module_ops=morph, homology_ops=hat)
        got = bracket_d(w)
        if got != want:
            bad.append(bracket_mismatch(f"[d, F({name})] = d{name} realized", got, want))
    return bad
