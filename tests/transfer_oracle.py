"""Reference oracle for ``einfty.transfer.transfer``.

The code below is the transfer the package ran before every component was
read off the differential table: the hand-written formulas Q_k for the
binary components and P for the arity-3 ones, closed by ``close_arity3``,

    hat m2_k   = (f (x) f) Delta_k g
    F2_{k+1}   = (-1)^{k+1} Q_k h,
        Q_k    = hat m2_k f - (f (x) f) Delta_k - (F2_k + (-1)^k sigma F2_k)
    hat m3_1   = -P g
    F3_2       = (hat m3_1 f + P) h,
        P      = -(hat m2_0 o_1 F2_1) + (hat m2_0 o_2 F2_1)
                 - (F2_1 (x) f) Delta_0 + (f (x) F2_1) Delta_0

It calls ``einfty.invariants.normalizing_shift`` through the module, so a spy
sees both transfers' calls.  ``tests/test_transfer.py`` requires equal
hat and morphism operators, the same correction and the same errors.
"""
from __future__ import annotations

from einfty import invariants
from einfty.chains import GradedOperator, compose_slot, tensor_compose, transpose_swap, violation
from einfty.coalgebra import CoalgebraStructure
from einfty.errors import ShapeMismatch
from einfty.homology import SDR
from einfty.transfer import TransferPackage, verify_relations


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
        hat[f"m2_{k}"] = tensor_compose([ff(delta[k])], g)
    for k in range(0, 2):
        qk = tensor_compose([hat[f"m2_{k}"]], f) - ff(delta[k])
        if k >= 1:
            f2k = morph[f"f2_{k}"]
            sym = f2k + transpose_swap(f2k).scale(-1 if k % 2 else 1)
            qk = qk - sym
        sgn = -1 if (k + 1) % 2 else 1
        morph[f"f2_{k + 1}"] = tensor_compose([qk], h).scale(sgn)

    def close_arity3(hat_ops, morph_ops):
        f21 = morph_ops["f2_1"]
        m0 = hat_ops["m2_0"]
        p_op = compose_slot(m0, f21, 2) - compose_slot(m0, f21, 1) \
            - tensor_compose([f21, f], delta[0]) + tensor_compose([f, f21], delta[0])
        hat_ops["m3_1"] = tensor_compose([p_op], g).scale(-1)
        morph_ops["f3_2"] = tensor_compose([tensor_compose([hat_ops["m3_1"]], f) + p_op], h)

    close_arity3(hat, morph)
    pkg = TransferPackage(source, sdr, hat, morph)
    block = invariants.normalizing_shift(invariants.window_from_package(pkg))
    if block is not None:
        nu = GradedOperator._adopt(pkg.homology, pkg.homology, 2, 1, {2: block})
        # Shift the binary morphism component by nu o f and compensate the
        # degree-1 coproduct by nu - sigma nu; every relation survives, and
        # the triple window moves into the bracket lattice.
        morph["f2_1"] = morph["f2_1"] + tensor_compose([nu], f)
        hat["m2_1"] = hat["m2_1"] + nu - transpose_swap(nu)
        close_arity3(hat, morph)

    bad = verify_relations(pkg)
    if bad:
        raise violation(bad[0])
    return pkg
