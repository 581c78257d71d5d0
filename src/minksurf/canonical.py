"""Canonical isotropic parameters.

For a parallel-normal-direction surface the integrability conditions force
f^2 |mu1| to depend on u only and f^2 |mu2| on v only.  Writing
phi(u) = f^2 |mu1| and psi(v) = f^2 |mu2|, the substitution

    ubar = int sqrt(phi) du,   vbar = int sqrt(psi) dv        (general case)
    ubar = int phi du,         vbar = v                       (degenerate)

produces parameters in which the metric function collapses to
f = 1 / sqrt|mu| and the surface is described by the triple
(lambda, mu, nu) alone.  The quadratures start at the lower domain corner
with zero offsets (the additive constants are free).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.interpolate import make_interp_spline

from .analysis import (
    FrameFunctions,
    Immersion,
    frame_functions,
    geometric_frame,
)
from .errors import BothMuZero, NearZeroField, NotSeparable
from .fields import MU_MIN, GridSpec, ScalarField, d_du, d_dv, ln_abs
from .natural import CanonicalTriple, Case, classify_from_frame

# relative |mu2| (vs |mu1|) below which analysis counts as the degenerate case;
# reconstructed degenerate surfaces carry O(h^2) noise in mu2, so this sits
# far above machine precision but well below honest nondegenerate values
DEGENERATE_REL_TOL = 1e-3


def check_separability(f: ScalarField, mu1: ScalarField, mu2: ScalarField) -> tuple[float, float]:
    """Max deviations from the separability laws.

    dev_u = max |d/du ln(f^2 |mu2|)|, dev_v = max |d/dv ln(f^2 |mu1|)|;
    both must be small for canonicalization to make sense.
    """
    ln_fsq_mu2 = ln_abs(f * f * mu2, mu_min=MU_MIN**2)
    ln_fsq_mu1 = ln_abs(f * f * mu1, mu_min=MU_MIN**2)
    dev_u = d_du(ln_fsq_mu2).interior_max_abs()
    dev_v = d_dv(ln_fsq_mu1).interior_max_abs()
    return float(dev_u), float(dev_v)


def classify_functions(funcs: FrameFunctions, degenerate_tol: float = DEGENERATE_REL_TOL):
    """Case decision from analyzed frame functions, FD-noise aware.

    Exact classification thresholds are useless against O(h^2) analysis noise
    in mu2, so a relative floor decides degeneracy; otherwise the sign of
    K - H^2 (interior median of the closed formula) picks the case.
    """
    su, sv = funcs.mu1.grid.interior(2)
    m1 = np.abs(funcs.mu1.values[su, sv])
    m2 = np.abs(funcs.mu2.values[su, sv])
    scale1, scale2 = float(np.max(m1)), float(np.max(m2))
    if max(scale1, scale2) <= degenerate_tol:
        raise BothMuZero("mu1 and mu2 both vanish on the patch")
    swapped = False
    if scale1 < degenerate_tol * (1.0 + scale2) <= scale2:
        swapped = True  # mu1 ~ 0, mu2 carries the data
        m1, m2, scale1, scale2 = m2, m1, scale2, scale1
    if scale2 <= degenerate_tol * (1.0 + scale1):
        return Case.DEGENERATE, 0.0, swapped
    lam1 = float(np.median(funcs.lambda1.values[su, sv]))
    mu1 = float(np.median(funcs.mu1.values[su, sv]))
    lam2 = float(np.median(funcs.lambda2.values[su, sv]))
    mu2 = float(np.median(funcs.mu2.values[su, sv]))
    if swapped:
        lam1, mu1, lam2, mu2 = lam2, mu2, lam1, mu1
    case, km = classify_from_frame(lam1, mu1, lam2, mu2)
    return case, km, swapped


@dataclass
class Reparametrization:
    phi: np.ndarray              # f^2|mu1| averaged over v, per u node
    psi: np.ndarray | None       # f^2|mu2| averaged over u (general case)
    ubar_map: np.ndarray         # ubar at the original u nodes
    vbar_map: np.ndarray         # vbar at the original v nodes
    new_grid: GridSpec
    case: Case

    def to_dict(self) -> dict:
        return {
            "case": self.case.value,
            "phi": self.phi.tolist(),
            "psi": None if self.psi is None else self.psi.tolist(),
            "ubar_map": self.ubar_map.tolist(),
            "vbar_map": self.vbar_map.tolist(),
            "new_grid": self.new_grid.to_dict(),
        }


@dataclass
class CanonicalizationResult:
    immersion: Immersion
    triple: CanonicalTriple
    repar: Reparametrization
    diagnostics: dict


def _sep_tolerance(f: ScalarField, mu1: ScalarField, mu2: ScalarField) -> float:
    scale = max(
        ln_abs(f * f * mu1, mu_min=MU_MIN**2).max_abs(),
        ln_abs(f * f * mu2, mu_min=MU_MIN**2).max_abs(),
    )
    return 1e-3 * (1.0 + scale)


def _monotone_inverse(svals: np.ndarray, nodes: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Given s(nodes) strictly increasing, return nodes at the target s-values."""
    if np.any(np.diff(svals) <= 0):
        raise NotSeparable("reparametrization map is not strictly increasing")
    inv = make_interp_spline(svals, nodes, k=3)
    out = inv(np.clip(targets, svals[0], svals[-1]))
    return np.clip(out, nodes[0], nodes[-1])


def canonicalize(m: Immersion, tol_sep: float | None = None) -> CanonicalizationResult:
    """Resample an isotropic immersion onto canonical parameters.

    Runs the analysis pipeline, checks separability, builds the quadrature
    maps, resamples, re-analyzes, and returns the canonical triple together
    with verification metrics (canonical metric law |f sqrt|mu| - 1| and the
    second-fundamental-form relation between the two null directions).
    """
    frame = geometric_frame(m)
    funcs = frame_functions(m, frame)
    case, _, swapped = classify_functions(funcs)
    if swapped:
        return canonicalize(m.transpose(), tol_sep=tol_sep)

    if case is Case.DEGENERATE:
        return _canonicalize_degenerate(m, funcs, tol_sep)
    return _canonicalize_general(m, funcs, case, tol_sep)


def _phi_psi_samples(funcs: FrameFunctions):
    g = funcs.f.grid
    su, sv = g.interior(2)
    fsq = funcs.f.values**2
    phi = np.mean((fsq * np.abs(funcs.mu1.values))[:, sv], axis=1)
    psi = np.mean((fsq * np.abs(funcs.mu2.values))[su, :], axis=0)
    return phi, psi


def _canonicalize_general(m: Immersion, funcs: FrameFunctions, case: Case, tol_sep):
    g = m.grid
    dev_u, dev_v = check_separability(funcs.f, funcs.mu1, funcs.mu2)
    limit = _sep_tolerance(funcs.f, funcs.mu1, funcs.mu2) if tol_sep is None else tol_sep
    if max(dev_u, dev_v) > limit:
        raise NotSeparable(
            f"separability deviations ({dev_u:.3e}, {dev_v:.3e}) exceed {limit:.3e}"
        )

    phi, psi = _phi_psi_samples(funcs)
    if np.min(phi) <= 0 or np.min(psi) <= 0:
        raise NearZeroField("phi and psi must stay positive")
    ubar = cumulative_simpson(np.sqrt(phi), dx=g.hu, initial=0.0)
    vbar = cumulative_simpson(np.sqrt(psi), dx=g.hv, initial=0.0)

    new_u = np.linspace(0.0, ubar[-1], g.Nu)
    new_v = np.linspace(0.0, vbar[-1], g.Nv)
    src_u = _monotone_inverse(ubar, g.u_nodes, new_u)
    src_v = _monotone_inverse(vbar, g.v_nodes, new_v)
    new_m = m.resample(src_u, src_v)
    # relabel the node coordinates as (ubar, vbar)
    new_grid = GridSpec(0.0, ubar[-1], 0.0, vbar[-1], g.Nu, g.Nv)
    new_m = Immersion(new_grid, new_m.points)

    frame2 = geometric_frame(new_m)
    funcs2 = frame_functions(new_m, frame2)
    su, sv = new_grid.interior(2)
    eps1 = 1.0 if np.median(funcs2.mu1.values[su, sv]) > 0 else -1.0
    root = np.sqrt(np.abs(funcs2.mu1.values) * np.abs(funcs2.mu2.values))
    mu_bar = eps1 * root
    lam_bar = funcs2.lambda1.values * root / np.abs(funcs2.mu1.values)

    triple = CanonicalTriple(
        lam=ScalarField(new_grid, lam_bar),
        mu=ScalarField(new_grid, mu_bar),
        nu=funcs2.nu,
        case=case,
    )
    repar = Reparametrization(
        phi=phi, psi=psi, ubar_map=ubar, vbar_map=vbar, new_grid=new_grid, case=case,
    )
    eps = case.epsilon
    sigma_scale = 1.0 + funcs2.sigma_scale()
    diagnostics = {
        "separability_dev_u": dev_u,
        "separability_dev_v": dev_v,
        "metric_law_max_dev": float(
            np.max(np.abs((funcs2.f.values * np.sqrt(np.abs(mu_bar)))[su, sv] - 1.0))
        ),
        # canonical relation sigma(x,x) = -eps sigma(y,y): lambda2 = -eps lambda1 etc.
        "sigma_relation_max_dev": float(
            max(
                np.max(np.abs((funcs2.lambda2.values + eps * funcs2.lambda1.values)[su, sv])),
                np.max(np.abs((funcs2.mu2.values + eps * funcs2.mu1.values)[su, sv])),
            )
            / sigma_scale
        ),
        "case": case.value,
    }
    return CanonicalizationResult(immersion=new_m, triple=triple, repar=repar, diagnostics=diagnostics)


def _canonicalize_degenerate(m: Immersion, funcs: FrameFunctions, tol_sep):
    g = m.grid
    fsq_mu1 = funcs.f * funcs.f * funcs.mu1.abs()
    dev_v = d_dv(ln_abs(fsq_mu1, mu_min=MU_MIN**2)).interior_max_abs()
    limit = 1e-3 * (1.0 + ln_abs(fsq_mu1, mu_min=MU_MIN**2).max_abs()) if tol_sep is None else tol_sep
    if dev_v > limit:
        raise NotSeparable(f"f^2|mu1| varies along v by {dev_v:.3e} (limit {limit:.3e})")

    su, sv = g.interior(2)
    phi = np.mean(fsq_mu1.values[:, sv], axis=1)
    if np.min(phi) <= 0:
        raise NearZeroField("phi must stay positive")
    ubar = cumulative_simpson(phi, dx=g.hu, initial=0.0)  # degenerate: no square root
    new_u = np.linspace(0.0, ubar[-1], g.Nu)
    src_u = _monotone_inverse(ubar, g.u_nodes, new_u)
    new_m = m.resample(src_u, g.v_nodes)
    new_grid = GridSpec(0.0, ubar[-1], g.v0, g.v1, g.Nu, g.Nv)
    new_m = Immersion(new_grid, new_m.points)

    frame2 = geometric_frame(new_m)
    funcs2 = frame_functions(new_m, frame2)
    # nu depends on u only: project out the v-noise of the recovered samples
    nu_u = np.mean(funcs2.nu.values[:, sv], axis=1)
    nu_proj = np.repeat(nu_u[:, None], g.Nv, axis=1)
    nu_proj_dev = float(np.max(np.abs(funcs2.nu.values - nu_proj)[su, sv]))

    triple = CanonicalTriple(
        lam=funcs2.lambda1,
        mu=funcs2.mu1,
        nu=ScalarField(new_grid, nu_proj),
        case=Case.DEGENERATE,
    )
    repar = Reparametrization(
        phi=phi, psi=None, ubar_map=ubar, vbar_map=g.v_nodes.copy(),
        new_grid=new_grid, case=Case.DEGENERATE,
    )
    diagnostics = {
        "separability_dev_v": float(dev_v),
        "metric_law_max_dev": float(
            np.max(np.abs((funcs2.f.values * np.sqrt(np.abs(funcs2.mu1.values)))[su, sv] - 1.0))
        ),
        "nu_projection_dev": nu_proj_dev,
        "case": Case.DEGENERATE.value,
    }
    return CanonicalizationResult(immersion=new_m, triple=triple, repar=repar, diagnostics=diagnostics)
