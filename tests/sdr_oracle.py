"""Reference oracle for ``einfty.homology.build_sdr`` and ``homology``.

The code below is the retraction the package built before it read f and h
off the Smith transforms of the boundaries: the boundary basis in kernel
coordinates by a ``solve`` against the kernel basis, and the projections
onto B and H as rows of the inverse of the splitting P = [B | reps | A],
solved against a dense identity.  ``tests/test_homology.py`` requires equal
f, g and h, equal homology reports, and the same TorsionPresent.
"""
from __future__ import annotations

from einfty.chains import ChainComplex, GradedOperator
from einfty.errors import TorsionPresent
from einfty.homology import SDR, HomologyReport, homology_complex
from einfty.intlinalg import IntMatrix, smith, solve


def _degree_data(c: ChainComplex) -> dict[int, dict]:
    """Per-degree Smith data shared by homology() and build_sdr()."""
    degs = c.degrees()
    if not degs:
        return {}
    out: dict[int, dict] = {}
    sf_cache = {d: smith(c.boundary_matrix(d), ("v", "uinv"))
                for d in range(degs[0], degs[-1] + 2)}
    for d in degs:
        sf_d = sf_cache[d]          # boundary out of degree d
        sf_up = sf_cache[d + 1]     # boundary into degree d
        rho = sf_d.rank
        rho_up = sf_up.rank
        z = c.rank(d) - rho
        kernel = sf_d.v.submatrix_columns(list(range(rho, c.rank(d))))
        bmat = sf_up.uinv.submatrix_columns(list(range(rho_up)))
        pre = sf_up.v.submatrix_columns(list(range(rho_up)))
        # boundary basis in kernel coordinates (always integral: the kernel
        # basis is primitive)
        x = solve(kernel, bmat) if rho_up else IntMatrix(z, 0)
        if x is None:
            raise AssertionError("boundary not inside the cycle lattice")
        sfx = smith(x, ("uinv",))
        reps_kernel = sfx.uinv.submatrix_columns(list(range(rho_up, z)))
        out[d] = {
            "bmat": bmat,
            "pre": pre,
            "torsion": [f for f in sf_up.invariant_factors() if f >= 2],
            "free_rank": z - rho_up,
            "reps": kernel @ reps_kernel,
            "amat": sf_d.v.submatrix_columns(list(range(rho))),
        }
    return out


def homology(c: ChainComplex) -> HomologyReport:
    """Exact integral homology with cycle representatives for free generators."""
    data = _degree_data(c)
    free_rank = {}
    torsion = {}
    reps = {}
    for d, info in data.items():
        if info["free_rank"]:
            free_rank[d] = info["free_rank"]
        if info["torsion"]:
            torsion[d] = info["torsion"]
        reps[d] = info["reps"]
    return HomologyReport(free_rank, torsion, reps)


def build_sdr(c: ChainComplex) -> SDR:
    """Strong deformation retraction of ``c`` onto its homology.

    Requires torsion-free homology in every degree; raises TorsionPresent
    otherwise.  The retract has zero differential and its basis corresponds
    to the representatives reported by :func:`homology`.
    """
    data = _degree_data(c)
    for d, info in data.items():
        if info["torsion"]:
            raise TorsionPresent(d, info["torsion"][0])
    report = HomologyReport(
        {d: i["free_rank"] for d, i in data.items() if i["free_rank"]},
        {}, {d: i["reps"] for d, i in data.items()})
    h_cx = homology_complex(report)

    f_blocks: dict[int, IntMatrix] = {}
    g_blocks: dict[int, IntMatrix] = {}
    h_blocks: dict[int, IntMatrix] = {}
    for d, info in data.items():
        n = c.rank(d)
        bmat, reps, amat, pre = info["bmat"], info["reps"], info["amat"], info["pre"]
        p = bmat.hstack(reps).hstack(amat)
        if p.shape != (n, n):
            raise AssertionError(f"splitting of degree {d} is not square: {p.shape}")
        pinv = solve(p, IntMatrix.identity(n))
        if pinv is None:
            raise AssertionError(f"splitting of degree {d} is not unimodular")
        nb = bmat.ncols
        nh = reps.ncols
        rows_b = list(range(nb))
        rows_h = list(range(nb, nb + nh))
        proj_b = pinv.transpose().submatrix_columns(rows_b).transpose()
        proj_h = pinv.transpose().submatrix_columns(rows_h).transpose()
        if nh:
            f_blocks[d] = proj_h
            g_blocks[d] = reps
        if nb:
            h_blocks[d] = (-pre) @ proj_b
    f = GradedOperator(c, h_cx, 1, 0, f_blocks)
    g = GradedOperator(h_cx, c, 1, 0, g_blocks)
    h = GradedOperator(c, c, 1, 1, h_blocks)
    sdr = SDR(f, g, h)
    bad = sdr.verify()
    if bad:
        raise AssertionError(f"SDR construction violated: {bad}")
    return sdr
