"""Transfer of the chain-level structure across a retraction onto homology.

Let (f, g, h) be a strong deformation retraction of K onto its homology H,
which has zero differential: f g = id, g f = id + d h + h d and
f h = h g = h h = 0.  Every transferred component comes from one step that
reads the differential table of ``operads``.  For a bimodule generator phi
whose differential holds the term mu o f1 with coefficient +1,

    R_0     = d phi realized on the package built so far, with hat mu = 0
    hat mu  = -R_0 g
    F(phi)  = (-1)^{deg phi} R h,      R = R_0 + hat mu f.

Then R g = 0 because f g = id, and R d = 0 because d o d = 0 in the table,
the lower relations hold on the nose and H has zero differential.  So
R h d = R (g f - id - d h) = -R, and [d, F(phi)] = -(-1)^{deg phi} F(phi) d
= R, which is d phi realized.  The steps run f2_1, f2_2, f2_3 and f3_2 and
give hat m2_0, hat m2_1, hat m2_2 and hat m3_1; F(f2_3) is not kept.  Each
F(f2_k) ends in h and h g = 0, so F(f2_k) g = 0 and hat m2_k is still
(f (x) f) Delta_k g.  Another arity is another step, plus the table entries
of its generators.

``verify_relations`` re-checks the relation list as literal equalities of
operators.  Any other package passing it would be just as conforming -- the
relation list is the contract.
"""
from __future__ import annotations

from itertools import chain

from .chains import (ChainComplex, GradedOperator, failures, tensor_compose,
                     transpose_swap, violation, zero_operator)
from .coalgebra import CoalgebraStructure, bracket_checks, evaluate
from .errors import ShapeMismatch
from .homology import SDR
from .operads import generator, generator_differential

HAT_OPS = ("m2_0", "m2_1", "m2_2", "m3_1")
MAX_CUP = 2  # the highest cup coproduct read: m2_2, by the f2_3 step
MORPHISM_OPS = ("f2_1", "f2_2", "f3_2")


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
    pkg = TransferPackage(source, sdr, {}, {"f1": sdr.f})
    hat, morph = pkg.hat_ops, pkg.morphism_ops
    for name in ("f2_1", "f2_2", "f2_3", "f3_2"):
        morph[name] = transfer_step(pkg, name)
    del morph["f2_3"]  # its step is run for hat m2_2
    from .invariants import normalizing_shift, window_from_package  # not loaded with transfer
    block = normalizing_shift(window_from_package(pkg))
    if block is not None:
        # Shift the binary morphism component by nu o f and compensate the
        # degree-1 coproduct by nu - sigma nu; the f2_2 relation survives,
        # the f3_2 step re-closes the arity-3 part, and the triple window
        # moves into the bracket lattice (``invariants.perturb``).
        nu = GradedOperator._adopt(pkg.homology, pkg.homology, 2, 1, {2: block})
        morph["f2_1"] = morph["f2_1"] + tensor_compose([nu], sdr.f)
        hat["m2_1"] = hat["m2_1"] + nu - transpose_swap(nu)
        morph["f3_2"] = transfer_step(pkg, "f3_2")

    bad = verify_relations(pkg)
    if bad:
        raise violation(bad[0])
    return pkg


def transfer_step(pkg: TransferPackage, name: str) -> GradedOperator:
    """F(name), after setting in ``pkg`` the hat of the mu in its mu o f1 term
    (the step of the module docstring)."""
    gen, d_phi = generator(name), generator_differential(name)
    (mu,) = {tree[1][0][0] for tree, _ in d_phi if tree[0] == "f1"}
    mu_gen, sdr, hat = generator(mu), pkg.sdr, pkg.hat_ops
    hat[mu] = zero_operator(pkg.homology, pkg.homology, mu_gen.arity, mu_gen.degree)
    r = evaluate(d_phi, source=sdr.total, target=pkg.homology, arity=gen.arity,
                 degree=gen.degree - 1, chain_ops=pkg.source.ops,
                 module_ops=pkg.morphism_ops, homology_ops=hat)
    hat[mu] = tensor_compose([r], sdr.g).scale(-1)
    r = r + tensor_compose([hat[mu]], sdr.f)
    return tensor_compose([r], sdr.h).scale(-1 if gen.degree % 2 else 1)


def verify_relations(pkg: TransferPackage) -> list[dict]:
    """Exact verification of the full relation list; empty means conforming.

    Over H the differential is zero, so [d, hat m2_1] = d m2_1 realized is
    the symmetry of hat m2_0, [d, hat m2_2] that of hat m2_1 and
    [d, hat m3_1] the coassociativity of hat m2_0; the symmetry of hat m2_2
    is checked on its own.  ``chains.failures`` locates every failed
    identity; a missing component is reported alone, before any is checked.
    """
    hat, morph = pkg.hat_ops, pkg.morphism_ops
    missing = [{"relation": f"hat {name} present"} for name in HAT_OPS if name not in hat]
    missing += [{"relation": f"F({name}) present"} for name in ("f1", *MORPHISM_OPS)
                if name not in morph]
    if missing:
        return missing
    return failures(chain(
        [("F(f1) = f", morph["f1"], pkg.sdr.f)],
        bracket_checks(hat, "[d, hat {0}]", chain_ops=hat),
        [("hat m2_2 = (-1)^2 sigma hat m2_2", hat["m2_2"], transpose_swap(hat["m2_2"]))],
        bracket_checks({name: morph[name] for name in MORPHISM_OPS},
                       "[d, F({0})] = d{0} realized", chain_ops=pkg.source.ops,
                       module_ops=morph, homology_ops=hat)))
