"""Integral homology and strong deformation retractions onto homology.

All is read off one Smith reduction U ∂ V = S per boundary matrix and one
of X, the boundaries in cycle coordinates, per degree; nothing is inverted.
In degree d, with ρ = rank ∂_d and ρ' = rank ∂_{d+1}, K = V_d[:, ρ:] spans
the cycles and T = V_d⁻¹[ρ:, :] gives their coordinates.  The boundaries
B = U_{d+1}⁻¹[:, :ρ'], with preimages pre = V_{d+1}[:, :ρ'], have X = T B,
and U_x X V_x = S_x gives the torsion and the representatives
reps = K U_x⁻¹[:, ρ':].  Torsion-free, C_d = B (+) H (+) V_d[:, :ρ] with H
spanned by reps, S_x = [I; 0] and [X | U_x⁻¹[:, ρ':]]⁻¹ = diag(V_x, I) U_x.
So f = U_x[ρ':, :] T and h = -pre V_x U_x[:ρ', :] T, minus the preimage
map on B, and all five side conditions hold on the nose:

    f g = id,   g f = id + d h + h d,   h h = f h = h g = 0.
"""
from __future__ import annotations

from .chains import (ChainComplex, GradedOperator, boundary_operator, failures,
                     identity_operator, tensor_compose, violation)
from .errors import TorsionPresent
from .intlinalg import IntMatrix, smith


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


def _row_block(m: IntMatrix, lo: int, hi: int) -> IntMatrix:
    """Rows lo..hi-1 of ``m``."""
    return IntMatrix._adopt(hi - lo, m.ncols, {(i - lo, j): v for (i, j), v in m.data.items()
                                               if lo <= i < hi})


def _degree_data(c: ChainComplex, x_transforms: tuple[str, ...] = ("uinv",)) -> dict[int, dict]:
    """Per-degree Smith data shared by homology() and build_sdr(); X, the
    boundaries in cycle coordinates, is factored with ``x_transforms``."""
    degs = c.degrees()
    if not degs:
        return {}
    out: dict[int, dict] = {}
    sf_cache = {d: smith(c.boundary_matrix(d), ("v", "vinv", "uinv"))
                for d in range(degs[0], degs[-1] + 2)}
    for d in degs:
        sf_d = sf_cache[d]          # boundary out of degree d
        sf_up = sf_cache[d + 1]     # boundary into degree d
        rho, rho_up, n = sf_d.rank, sf_up.rank, c.rank(d)
        kernel = sf_d.v.submatrix_columns(range(rho, n))
        coords = _row_block(sf_d.vinv, rho, n)  # T
        bmat = sf_up.uinv.submatrix_columns(range(rho_up))
        x = coords @ bmat
        if kernel @ x != bmat:
            raise AssertionError("boundary not inside the cycle lattice")
        sfx = smith(x, x_transforms)
        out[d] = {
            "coords": coords,
            "pre": sf_up.v.submatrix_columns(range(rho_up)),
            "torsion": [f for f in sf_up.invariant_factors() if f >= 2],
            "free_rank": n - rho - rho_up,
            "reps": kernel @ sfx.uinv.submatrix_columns(range(rho_up, n - rho)),
            "x": sfx,
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

    def verify(self) -> list[dict]:
        """The five side conditions as exact identities; one located
        ``chains.mismatch`` per failure (empty == valid SDR)."""
        k, l, f, g, h = self.total, self.retract, self.f, self.g, self.h
        dk = boundary_operator(k)
        fg, hh, fh, hg = (tensor_compose([a], b) for a, b in ((f, g), (h, h), (f, h), (h, g)))
        return failures([
            ("f g = id_L", fg, identity_operator(l)),
            ("g f = id_K + d h + h d", tensor_compose([g], f),
             identity_operator(k) + tensor_compose([dk], h) + tensor_compose([h], dk)),
            ("h h = 0", hh, hh.scale(0)),
            ("f h = 0", fh, fh.scale(0)),
            ("h g = 0", hg, hg.scale(0))])


def homology_complex(report: HomologyReport) -> ChainComplex:
    """Homology as a complex with zero differential (free part only)."""
    basis = {d: tuple(f"h{d}_{i}" for i in range(report.rank(d)))
             for d in report.free_rank}
    return ChainComplex(basis, {})


def build_sdr(c: ChainComplex) -> SDR:
    """Strong deformation retraction of ``c`` onto its homology.

    Requires torsion-free homology in every degree; raises TorsionPresent
    otherwise.  The retract has zero differential and its basis corresponds
    to the representatives reported by :func:`homology`.
    """
    data = _degree_data(c, ("u", "v", "uinv"))
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
        coords, sfx, nb = info["coords"], info["x"], info["pre"].ncols
        if info["free_rank"]:
            f_blocks[d] = _row_block(sfx.u, nb, coords.nrows) @ coords
            g_blocks[d] = info["reps"]
        if nb:
            h_blocks[d] = (-info["pre"]) @ (sfx.v @ _row_block(sfx.u, 0, nb) @ coords)
    f = GradedOperator(c, h_cx, 1, 0, f_blocks)
    g = GradedOperator(h_cx, c, 1, 0, g_blocks)
    h = GradedOperator(c, c, 1, 1, h_blocks)
    sdr = SDR(f, g, h)
    bad = sdr.verify()
    if bad:
        raise violation(bad[0])
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
    dh = tensor_compose([boundary_operator(k)], sdr.h)
    g2 = sdr.g + tensor_compose([dh], theta)
    h2 = sdr.h + tensor_compose([tensor_compose([sdr.h], theta)], sdr.f)
    out = SDR(sdr.f, g2, h2)
    bad = out.verify()
    if bad:
        raise violation(bad[0])
    return out
