"""Integral homology and strong deformation retractions onto homology.

The retraction is built degreewise from one Smith reduction per boundary
matrix: each C_d splits as B (+) H (+) A where B is spanned by boundaries
with chosen preimages, H by cycle representatives, and the differential
maps A isomorphically onto B one degree down.  With h defined as minus the
preimage map on B and zero elsewhere, all five side conditions hold on the
nose, no post-normalization needed:

    f g = id,   g f = id + d h + h d,   h h = f h = h g = 0.
"""
from __future__ import annotations

from .chains import (ChainComplex, GradedOperator, boundary_operator,
                     identity_operator, plain_compose)
from .errors import TorsionPresent
from .intlinalg import IntMatrix, smith, solve


class HomologyReport:
    def __init__(self, free_rank: dict[int, int], torsion: dict[int, list[int]],
                 representatives: dict[int, IntMatrix]):
        self.free_rank = free_rank
        self.torsion = torsion
        self.representatives = representatives

    def rank(self, d: int) -> int:
        return self.free_rank.get(d, 0)

    def torsion_in(self, d: int) -> list[int]:
        return self.torsion.get(d, [])

    def degrees(self) -> list[int]:
        degs = set(self.free_rank) | set(self.torsion)
        return sorted(d for d in degs if self.free_rank.get(d, 0) or self.torsion.get(d))

    def as_table(self) -> dict:
        return {str(d): {"rank": self.rank(d), "torsion": self.torsion_in(d)}
                for d in self.degrees()}


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


class SDR:
    """Strong deformation retraction (f, g, h) of a complex onto another."""

    def __init__(self, f: GradedOperator, g: GradedOperator, h: GradedOperator):
        self.f = f  # K -> L, arity 1, degree 0
        self.g = g  # L -> K, arity 1, degree 0
        self.h = h  # K -> K, arity 1, degree +1

    @property
    def total(self) -> ChainComplex:
        return self.f.source

    @property
    def retract(self) -> ChainComplex:
        return self.f.target

    def verify(self) -> list[str]:
        """Names of violated identities (empty == valid SDR)."""
        k, l = self.total, self.retract
        bad = []
        fg = plain_compose(self.f, self.g)
        if fg != identity_operator(l):
            bad.append("f g = id_L")
        dk = boundary_operator(k)
        gf = plain_compose(self.g, self.f)
        homotopy = identity_operator(k) + plain_compose(dk, self.h) \
            + plain_compose(self.h, dk)
        if gf != homotopy:
            bad.append("g f = id_K + d h + h d")
        if not plain_compose(self.h, self.h).is_zero():
            bad.append("h h = 0")
        if not plain_compose(self.f, self.h).is_zero():
            bad.append("f h = 0")
        if not plain_compose(self.h, self.g).is_zero():
            bad.append("h g = 0")
        # consequences, cheap to assert
        if plain_compose(fg, self.f) != self.f:
            bad.append("f g f = f")
        if plain_compose(self.g, fg) != self.g:
            bad.append("g f g = g")
        return bad


def homology_complex(c: ChainComplex, report: HomologyReport | None = None) -> ChainComplex:
    """Homology as a complex with zero differential (free part only)."""
    if report is None:
        report = homology(c)
    basis = {d: tuple(f"h{d}_{i}" for i in range(report.rank(d)))
             for d in report.free_rank}
    return ChainComplex(basis, {})


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
    h_cx = homology_complex(c, report)

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


def sdr_variant(sdr: SDR, theta_blocks: dict[int, IntMatrix]) -> SDR:
    """Gauge-twisted retraction onto the same homology basis.

    For any degree-0 map theta: L -> K, the data

        f' = f,   g' = g + d h theta,   h' = h + h theta f

    is again a strong deformation retraction with all side conditions; the
    twist genuinely changes g and h, so downstream transfers differ while
    invariants must not.
    """
    k, l = sdr.total, sdr.retract
    theta = GradedOperator(l, k, 1, 0, theta_blocks)
    dh = plain_compose(boundary_operator(k), sdr.h)
    g2 = sdr.g + plain_compose(dh, theta)
    h2 = sdr.h + plain_compose(plain_compose(sdr.h, theta), sdr.f)
    out = SDR(sdr.f, g2, h2)
    bad = out.verify()
    if bad:
        raise AssertionError(f"gauge twist broke the SDR: {bad}")
    return out
