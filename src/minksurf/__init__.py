"""Timelike surfaces with parallel normalized mean curvature direction in R^4_1.

The package covers both directions of the correspondence between such
surfaces and their three geometric functions (lambda, mu, nu) in canonical
isotropic parameters: residual checks and fixture generation for the natural
PDE systems, moving-frame reconstruction of the surface from a triple, the
inverse analysis of a sampled immersion into frame functions and curvature
invariants, and the change of parameters that brings any isotropic
parametrization to canonical form.
"""

from .analysis import (
    FrameFunctions,
    GeometricFrame,
    Immersion,
    InvariantReport,
    SurfaceClass,
    frame_functions,
    geometric_frame,
    invariants,
)
from .canonical import (
    CanonicalizationResult,
    Reparametrization,
    canonicalize,
)
from .fields import GridSpec, ScalarField, diff_values, ln_abs, sqrt_abs
from .frames import (
    CoefficientMatrices,
    ReconstructionBundle,
    coefficient_matrices,
    compatibility_residual,
    integrate_frame,
    integrate_position,
    reconstruct,
)
from .jets import JetSeed, jet_coefficients, jet_manufacture
from .minkowski import gram_residual, lorentz_inner, minkowski_cross, standard_frame
from .natural import (
    CanonicalTriple,
    Case,
    ResidualReport,
    classify_from_frame,
    residual,
    solve_goursat_degenerate,
    solve_goursat_hyperbolic,
)

__version__ = "0.1.0"
