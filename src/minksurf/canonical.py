"""Canonical isotropic parameters.

For a parallel-normal-direction surface the integrability conditions force
f^2 |mu1| to depend on u only and f^2 |mu2| on v only.  Writing
phi(u) = f^2 |mu1| and psi(v) = f^2 |mu2|, the substitution

    ubar = int sqrt(phi) du,   vbar = int sqrt(psi) dv        (general case)
    ubar = int sqrt(phi) du,   vbar = v                       (degenerate)

produces parameters in which the metric function collapses to
f = 1 / sqrt|mu| and the surface is described by the triple
(lambda, mu, nu) alone.  Under u = chi(u') both f^2 and mu1 gain a factor
chi', so phi gains chi'^2 and only int sqrt(phi) du is invariant.  The
quadratures start at the lower domain corner with zero offsets (the
additive constants are free).

`canonicalize` reads the immersion's own analysis, `m.functions`, which
`analysis.invariants(m)` shares, and runs one flow for every case: classify,
check separability, integrate the map, resample the immersion, and carry the
triple over by the reparametrization law.  The map
is integrated by `fields.cumulative_simpson` and inverted on the uniform
not-a-knot spline of ubar(u) (`fields.spline_table`, the package's one
spline routine) by a bracketed Newton step per interval, since
ubar' = sqrt(phi) > 0.  Under u = U(ubar), v = V(vbar) with a = U' and
b = V', lambda1 and mu1 gain a/b, lambda2 and mu2 gain b/a, beta1 gains
sqrt(a/b), beta2 sqrt(b/a), f sqrt(ab), and nu is unchanged.  The canonical
map has a = 1/sqrt(phi) and b = 1/sqrt(psi), so the general triple
(lambda1 sqrt|mu1 mu2| / |mu1|, eps1 sqrt|mu1 mu2|, nu) has the same value
at a point in both parameter systems: it is formed at the original nodes
and resampled where the immersion is.  The degenerate case (mu2 = 0)
checks f^2 |mu1| only, keeps v (b = 1), takes
(lambda1 / sqrt(phi), mu1 / sqrt(phi), nu) as the triple with nu projected
onto u, and reports that projection where the general case reports the
relation between the two null directions.  The metric law
f sqrt|mu| = 1 is checked with the f of the resampled immersion itself.  The
degenerate system is invariant under v -> psi(v) with
(lambda, mu, nu) -> (lambda / psi', mu / psi', nu), so keeping v leaves the
degenerate triple unique only up to that gauge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import FD_ORDER, FrameFunctions, Immersion
from .errors import BothMuZero, NotSeparable
from .fields import (MU_MIN, GridSpec, ScalarField, bicubic, cumulative_simpson, diff_values, ln_abs, locate,
                     spline_table, spline_weights)
from .minkowski import lorentz_inner
from .natural import CanonicalTriple, Case, classify_from_frame

# relative |mu2| (vs |mu1|) below which analysis counts as the degenerate case;
# reconstructed degenerate surfaces carry O(h^2) noise in mu2, so this sits
# far above machine precision but well below honest nondegenerate values
DEGENERATE_REL_TOL = 1e-3


def _separability_fields(phi: ScalarField, psi: ScalarField | None) -> tuple[dict, float]:
    """Deviations from the separability laws, two layers in (0 outside), in report order, and their log scale.

    phi and psi are the samples of f^2 |mu1| and f^2 |mu2|.
    separability_dev_u is |d/du ln psi| (skipped when psi is None, the
    degenerate case), separability_dev_v is |d/dv ln phi|; the scale is the
    largest |ln phi| or |ln psi|.  The ln_abs guards keep phi and psi away
    from zero.
    """
    g = phi.grid
    lns = {"separability_dev_v": (ln_abs(phi, mu_min=MU_MIN**2), g.hv, 1)}
    if psi is not None:
        lns = {"separability_dev_u": (ln_abs(psi, mu_min=MU_MIN**2), g.hu, 0), **lns}
    devs = {k: np.zeros((g.Nu, g.Nv)) for k in lns}
    for k, (ln, h, axis) in lns.items():
        devs[k][g.interior(2)] = np.abs(diff_values(ln.values, h, axis)[g.interior(2)])
    return devs, max(ln.max_abs() for ln, _, _ in lns.values())


def classify_functions(funcs: FrameFunctions):
    """Case decision from analyzed frame functions, FD-noise aware.

    Exact classification thresholds are useless against O(h^2) analysis noise
    in mu2, so a relative floor decides degeneracy; otherwise
    `classify_from_frame`'s closed formula for K - H^2, applied to the
    interior medians of lambda1, mu1, lambda2 and mu2, picks the case.
    """
    su, sv = funcs.mu1.grid.interior(2)
    scale1 = float(np.max(np.abs(funcs.mu1.values[su, sv])))
    scale2 = float(np.max(np.abs(funcs.mu2.values[su, sv])))
    if max(scale1, scale2) <= DEGENERATE_REL_TOL:
        raise BothMuZero("mu1 and mu2 both vanish on the whole patch, so no node is named")
    if scale1 < DEGENERATE_REL_TOL * (1.0 + scale2) <= scale2:
        return Case.DEGENERATE, 0.0, True  # mu1 ~ 0, mu2 carries the data
    if scale2 <= DEGENERATE_REL_TOL * (1.0 + scale1):
        return Case.DEGENERATE, 0.0, False
    lam1 = float(np.median(funcs.lambda1.values[su, sv]))
    mu1 = float(np.median(funcs.mu1.values[su, sv]))
    lam2 = float(np.median(funcs.lambda2.values[su, sv]))
    mu2 = float(np.median(funcs.mu2.values[su, sv]))
    case, km = classify_from_frame(lam1, mu1, lam2, mu2)
    return case, km, False


@dataclass
class Reparametrization:
    phi: np.ndarray              # f^2|mu1| averaged over v, per u node
    psi: np.ndarray | None       # f^2|mu2| averaged over u (general case)
    ubar_map: np.ndarray         # ubar at the original u nodes
    vbar_map: np.ndarray         # vbar at the original v nodes

    def to_dict(self) -> dict:
        return {
            "phi": self.phi.tolist(),
            "psi": None if self.psi is None else self.psi.tolist(),
            "ubar_map": self.ubar_map.tolist(),
            "vbar_map": self.vbar_map.tolist(),
        }


@dataclass
class CanonicalizationResult:
    immersion: Immersion
    triple: CanonicalTriple
    repar: Reparametrization
    diagnostics: dict


# `_monotone_inverse` stops once no interval fraction moves by more than NEWTON_TOL (round-off in u:
# the fraction's own rounding noise is about 1e-14); bisection bounds it to NEWTON_STEPS iterations
NEWTON_TOL = 1e-13
NEWTON_STEPS = 60


def _monotone_inverse(svals: np.ndarray, nodes: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Given s(nodes) strictly increasing on uniform nodes, return the nodes' coordinate at the target s-values.

    s is the not-a-knot spline of its node values (`fields.spline_table`),
    inverted in each target's interval [s_k, s_k+1] by Newton's method on
    the interval fraction, kept inside a bracket that bisects whenever a
    step would leave it, until no fraction moves by more than NEWTON_TOL; a
    target at a node value lands on that node exactly.  Else NotSeparable
    with no node: the map is 1-D, of f^2 |mu_i| averaged over the other
    parameter.
    """
    if np.any(np.diff(svals) <= 0):
        raise NotSeparable("reparametrization map is not strictly increasing", None, None)
    s = np.clip(targets, svals[0], svals[-1])
    k, tau = locate(svals, s)  # Newton starts from the chord's root
    rows = spline_table(svals).ravel()  # y_0, d_0, y_1, d_1, ...
    y0, d0, y1, d1 = (rows[2 * k + j] for j in range(4))
    lo, hi = np.zeros_like(tau), np.ones_like(tau)
    for _ in range(NEWTON_STEPS):
        w = spline_weights(tau)
        excess = w[:, 0] * y0 + w[:, 1] * d0 + w[:, 2] * y1 + w[:, 3] * d1 - s
        lo = np.where(excess < 0, tau, lo)
        hi = np.where(excess > 0, tau, hi)
        slope = y1 - y0 + (1 - 3 * (1 - tau) ** 2) * d0 + (3 * tau ** 2 - 1) * d1
        step = tau - excess / slope
        new = np.where(excess == 0, tau, np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi)))
        moved = np.max(np.abs(new - tau))
        tau = new
        if moved <= NEWTON_TOL:
            break
    return np.clip((1 - tau) * nodes[k] + tau * nodes[k + 1], nodes[0], nodes[-1])


def canonicalize(m: Immersion) -> CanonicalizationResult:
    """Resample an isotropic immersion onto canonical parameters.

    Reads m's frame functions, `m.functions`: computed on first access and
    kept on m, so `analysis.invariants(m)` before or after it does not
    analyse m again.  The triple comes from them by the reparametrization law
    (see the module docstring), resampled with the immersion.  Transposes
    first when mu2 rather than mu1 carries the data; the transposed
    immersion is analysed on its own.
    Besides the per-case entries the diagnostics hold the separability
    deviations and the canonical metric law max |f sqrt|mu| - 1|, with f
    read off the canonical immersion.  Raises NotSeparable
    when f^2 |mu_i| depends on the wrong parameter, at the interior node
    where the largest deviation peaks.
    """
    funcs = m.functions
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
    fields, scale = _separability_fields(phi_uv, psi_uv)
    devs = {k: float(np.max(d)) for k, d in fields.items()}
    limit = 1e-3 * (1.0 + scale)
    if max(devs.values()) > limit:
        listed = ", ".join(f"{k} {v:.3e}" for k, v in devs.items())
        raise NotSeparable(f"separability deviations ({listed}) exceed {limit:.3e}, largest", g,
                           g.node(np.argmax(fields[max(devs, key=devs.get)])))

    phi = np.mean(phi_uv.values[:, sv], axis=1)
    ubar = cumulative_simpson(np.sqrt(phi), g.hu)
    if degenerate:
        psi = None
        vbar = src_v = g.v_nodes
    else:
        psi = np.mean(psi_uv.values[su, :], axis=0)
        vbar = cumulative_simpson(np.sqrt(psi), g.hv)
        src_v = _monotone_inverse(vbar, g.v_nodes, np.linspace(0.0, vbar[-1], g.Nv))
    src_u = _monotone_inverse(ubar, g.u_nodes, np.linspace(0.0, ubar[-1], g.Nu))
    # sample at (src_u, src_v), label the nodes (ubar, vbar)
    new_grid = GridSpec(0.0, ubar[-1], vbar[0], vbar[-1], g.Nu, g.Nv)
    new_m = m.resample(new_grid, src_u, src_v)

    # the law at the original nodes, with a = 1/sqrt(phi) and b = 1/sqrt(psi) (1 when v is kept)
    a_over_b = np.sqrt((1.0 if degenerate else psi[None, :]) / phi[:, None])
    lam1, mu1 = funcs.lambda1.values * a_over_b, funcs.mu1.values * a_over_b
    if degenerate:
        fields = (lam1, mu1, funcs.nu.values)
    else:
        lam2, mu2 = funcs.lambda2.values / a_over_b, funcs.mu2.values / a_over_b
        eps1 = 1.0 if np.median(mu1[su, sv]) > 0 else -1.0
        root = np.sqrt(np.abs(mu1) * np.abs(mu2))
        fields = (lam1 * root / np.abs(mu1), eps1 * root, funcs.nu.values)
    lam, mu, nu = np.moveaxis(bicubic(np.stack(fields, axis=-1), g, src_u, src_v), -1, 0)

    if degenerate:
        # nu depends on u only: project out the v-noise of the resampled samples
        nu_proj = np.repeat(np.mean(nu[:, sv], axis=1)[:, None], g.Nv, axis=1)
        case_diag = {"nu_projection_dev": float(np.max(np.abs(nu - nu_proj)[su, sv]))}
        nu = nu_proj
    else:
        # canonical relation sigma(x,x) = -eps sigma(y,y): lambda2 = -eps lambda1 etc.
        eps = case.epsilon
        sigma_dev = max(np.max(np.abs((lam2 + eps * lam1)[su, sv])), np.max(np.abs((mu2 + eps * mu1)[su, sv])))
        sigma_scale = max(np.max(np.abs(a)) for a in (lam1, mu1, lam2, mu2, funcs.nu.values))
        case_diag = {"sigma_relation_max_dev": float(sigma_dev / (1.0 + sigma_scale))}
    triple = CanonicalTriple(lam=ScalarField(new_grid, lam), mu=ScalarField(new_grid, mu),
                             nu=ScalarField(new_grid, nu), case=case)

    # the metric law read off new_m itself, so a faulty inverse map or resample shows
    zu, zv = (diff_values(new_m.points, h, axis, order=FD_ORDER) for h, axis in ((new_grid.hu, 0), (new_grid.hv, 1)))
    f_new = np.sqrt(-lorentz_inner(zu, zv))
    metric_law = (f_new * np.sqrt(np.abs(mu)))[su, sv] - 1.0
    repar = Reparametrization(phi=phi, psi=psi, ubar_map=ubar, vbar_map=vbar)
    diagnostics = {
        **devs,
        "metric_law_max_dev": float(np.max(np.abs(metric_law))),
        **case_diag,
        "case": case.value,
    }
    return CanonicalizationResult(immersion=new_m, triple=triple, repar=repar, diagnostics=diagnostics)
