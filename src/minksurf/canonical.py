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

`canonicalize` runs one flow for every case: classify, check separability,
integrate the map, resample, re-analyze, build the triple.  The degenerate
case (mu2 = 0) checks f^2 |mu1| only, keeps v, takes (lambda1, mu1, nu) as
the triple with nu projected onto u, and reports that projection where the
general case reports the relation between the two null directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.interpolate import make_interp_spline

from .analysis import FrameFunctions, Immersion, frame_functions, geometric_frame
from .errors import BothMuZero, NotSeparable
from .fields import MU_MIN, GridSpec, ScalarField, diff_values, ln_abs
from .natural import CanonicalTriple, Case, classify_from_frame

# relative |mu2| (vs |mu1|) below which analysis counts as the degenerate case;
# reconstructed degenerate surfaces carry O(h^2) noise in mu2, so this sits
# far above machine precision but well below honest nondegenerate values
DEGENERATE_REL_TOL = 1e-3


def check_separability(phi: ScalarField, psi: ScalarField | None = None) -> tuple[dict, float]:
    """Interior max deviations from the separability laws, in report order, and their log scale.

    phi and psi are the samples of f^2 |mu1| and f^2 |mu2|.
    separability_dev_u = max |d/du ln psi| (skipped when psi is None, the
    degenerate case), separability_dev_v = max |d/dv ln phi|; the scale is
    the largest |ln phi| or |ln psi|.  The ln_abs guards keep phi and psi
    away from zero.
    """
    g = phi.grid
    su, sv = g.interior(2)
    ln_phi = ln_abs(phi, mu_min=MU_MIN**2)
    devs = {"separability_dev_v": float(np.max(np.abs(diff_values(ln_phi.values, g.hv, 1)[su, sv])))}
    scale = ln_phi.max_abs()
    if psi is not None:
        ln_psi = ln_abs(psi, mu_min=MU_MIN**2)
        dev_u = float(np.max(np.abs(diff_values(ln_psi.values, g.hu, 0)[su, sv])))
        devs = {"separability_dev_u": dev_u, **devs}
        scale = max(scale, ln_psi.max_abs())
    return devs, scale


def classify_functions(funcs: FrameFunctions):
    """Case decision from analyzed frame functions, FD-noise aware.

    Exact classification thresholds are useless against O(h^2) analysis noise
    in mu2, so a relative floor decides degeneracy; otherwise the sign of
    K - H^2 (interior median of the closed formula) picks the case.
    """
    su, sv = funcs.mu1.grid.interior(2)
    m1 = np.abs(funcs.mu1.values[su, sv])
    m2 = np.abs(funcs.mu2.values[su, sv])
    scale1, scale2 = float(np.max(m1)), float(np.max(m2))
    if max(scale1, scale2) <= DEGENERATE_REL_TOL:
        raise BothMuZero("mu1 and mu2 both vanish on the patch")
    swapped = False
    if scale1 < DEGENERATE_REL_TOL * (1.0 + scale2) <= scale2:
        swapped = True  # mu1 ~ 0, mu2 carries the data
        m1, m2, scale1, scale2 = m2, m1, scale2, scale1
    if scale2 <= DEGENERATE_REL_TOL * (1.0 + scale1):
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


def _monotone_inverse(svals: np.ndarray, nodes: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Given s(nodes) strictly increasing, return nodes at the target s-values."""
    if np.any(np.diff(svals) <= 0):
        raise NotSeparable("reparametrization map is not strictly increasing")
    inv = make_interp_spline(svals, nodes, k=3)
    out = inv(np.clip(targets, svals[0], svals[-1]))
    return np.clip(out, nodes[0], nodes[-1])


def canonicalize(m: Immersion) -> CanonicalizationResult:
    """Resample an isotropic immersion onto canonical parameters.

    Transposes first when mu2 rather than mu1 carries the data.  Besides
    the per-case entries the diagnostics hold the separability deviations
    and the canonical metric law max |f sqrt|mu| - 1|.  Raises NotSeparable
    when f^2 |mu_i| depends on the wrong parameter.
    """
    funcs = frame_functions(geometric_frame(m))
    case, _, swapped = classify_functions(funcs)
    if swapped:
        return canonicalize(m.transpose())
    degenerate = case is Case.DEGENERATE
    g = m.grid
    su, sv = g.interior(2)

    # phi = f^2|mu1| must not vary along v, nor (general case) psi = f^2|mu2| along u
    fsq = funcs.f.values * funcs.f.values
    phi_uv = ScalarField(g, fsq * np.abs(funcs.mu1.values))
    psi_uv = None if degenerate else ScalarField(g, fsq * np.abs(funcs.mu2.values))
    devs, scale = check_separability(phi_uv, psi_uv)
    limit = 1e-3 * (1.0 + scale)
    if max(devs.values()) > limit:
        listed = ", ".join(f"{k} {v:.3e}" for k, v in devs.items())
        raise NotSeparable(f"separability deviations ({listed}) exceed {limit:.3e}")

    phi = np.mean(phi_uv.values[:, sv], axis=1)
    if degenerate:
        psi = None
        ubar = cumulative_simpson(phi, dx=g.hu, initial=0.0)
        vbar = src_v = g.v_nodes
    else:
        psi = np.mean(psi_uv.values[su, :], axis=0)
        ubar = cumulative_simpson(np.sqrt(phi), dx=g.hu, initial=0.0)
        vbar = cumulative_simpson(np.sqrt(psi), dx=g.hv, initial=0.0)
        src_v = _monotone_inverse(vbar, g.v_nodes, np.linspace(0.0, vbar[-1], g.Nv))
    src_u = _monotone_inverse(ubar, g.u_nodes, np.linspace(0.0, ubar[-1], g.Nu))
    # sample at (src_u, src_v), label the nodes (ubar, vbar)
    new_grid = GridSpec(0.0, ubar[-1], vbar[0], vbar[-1], g.Nu, g.Nv)
    new_m = m.resample(new_grid, src_u, src_v)
    funcs2 = frame_functions(geometric_frame(new_m))

    if degenerate:
        # nu depends on u only: project out the v-noise of the recovered samples
        nu_u = np.mean(funcs2.nu.values[:, sv], axis=1)
        nu_proj = np.repeat(nu_u[:, None], g.Nv, axis=1)
        triple = CanonicalTriple(
            lam=funcs2.lambda1, mu=funcs2.mu1, nu=ScalarField(new_grid, nu_proj), case=case,
        )
        case_diag = {"nu_projection_dev": float(np.max(np.abs(funcs2.nu.values - nu_proj)[su, sv]))}
    else:
        eps1 = 1.0 if np.median(funcs2.mu1.values[su, sv]) > 0 else -1.0
        root = np.sqrt(np.abs(funcs2.mu1.values) * np.abs(funcs2.mu2.values))
        triple = CanonicalTriple(
            lam=ScalarField(new_grid, funcs2.lambda1.values * root / np.abs(funcs2.mu1.values)),
            mu=ScalarField(new_grid, eps1 * root),
            nu=funcs2.nu,
            case=case,
        )
        # canonical relation sigma(x,x) = -eps sigma(y,y): lambda2 = -eps lambda1 etc.
        eps = case.epsilon
        sigma_dev = max(
            np.max(np.abs((funcs2.lambda2.values + eps * funcs2.lambda1.values)[su, sv])),
            np.max(np.abs((funcs2.mu2.values + eps * funcs2.mu1.values)[su, sv])),
        )
        case_diag = {"sigma_relation_max_dev": float(sigma_dev / (1.0 + funcs2.sigma_scale()))}

    repar = Reparametrization(
        phi=phi, psi=psi, ubar_map=ubar, vbar_map=vbar, new_grid=new_grid, case=case,
    )
    metric_law = (funcs2.f.values * np.sqrt(np.abs(triple.mu.values)))[su, sv] - 1.0
    diagnostics = {
        **devs,
        "metric_law_max_dev": float(np.max(np.abs(metric_law))),
        **case_diag,
        "case": case.value,
    }
    return CanonicalizationResult(immersion=new_m, triple=triple, repar=repar, diagnostics=diagnostics)
