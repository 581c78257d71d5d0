import numpy as np
import pytest

from minksurf.analysis import Immersion
from minksurf.fields import GridSpec, ScalarField
from minksurf.fixtures import (
    constant_triple,
    cylinder_immersion,
    goursat_degenerate_triple,
    goursat_hyperbolic_triple,
    jet_triple,
)
from minksurf.frames import reconstruct
from minksurf.natural import CanonicalTriple, Case


@pytest.fixture(scope="session")
def constant_bundle():
    return reconstruct(constant_triple(65))


@pytest.fixture(scope="session")
def jet_bundle():
    return reconstruct(jet_triple(Case.POSITIVE_KH, order=6, radius=0.1, nodes=65))


@pytest.fixture(scope="session")
def negative_jet_bundle():
    return reconstruct(jet_triple(Case.NEGATIVE_KH, order=6, radius=0.1, nodes=65))


@pytest.fixture(scope="session")
def hyperbolic_bundle():
    return reconstruct(goursat_hyperbolic_triple(65))


@pytest.fixture(scope="session")
def degenerate_bundle():
    return reconstruct(goursat_degenerate_triple(65))


@pytest.fixture(scope="session")
def cylinder():
    return cylinder_immersion(65)


def graph_surface(nodes: int = 33) -> Immersion:
    """z = (u, v, 0, 2u): E = -3, F = 0, G = 1, timelike but not in null parameters."""
    g = GridSpec(0, 1, 0, 1, nodes, nodes)
    U, V = g.mesh()
    return Immersion(g, np.stack([U, V, np.zeros_like(U), 2 * U], axis=-1))


def degenerate_metric_immersion(nodes: int = 33) -> Immersion:
    """z = (u + v, 0, 0, 0): z_u = z_v, so E = F = G = 1 and EG - F^2 = 0."""
    g = GridSpec(0, 1, 0, 1, nodes, nodes)
    U, V = g.mesh()
    zero = np.zeros_like(U)
    return Immersion(g, np.stack([U + V, zero, zero, zero], axis=-1))


def null_plane(nodes: int = 33) -> Immersion:
    """((u - v)/sqrt2, 0, 0, (u + v)/sqrt2): isotropic with H = 0 at every node."""
    g = GridSpec(0, 1, 0, 1, nodes, nodes)
    U, V = g.mesh()
    s = 1 / np.sqrt(2)
    pts = np.stack([(U - V) * s, np.zeros_like(U), np.zeros_like(U), (U + V) * s], axis=-1)
    return Immersion(g, pts)


def immersion_of(bundle) -> Immersion:
    return Immersion(bundle.grid, bundle.points)


def interior_max(values: np.ndarray, grid, layers: int = 2) -> float:
    su, sv = grid.interior(layers)
    return float(np.max(np.abs(values[su, sv])))


def unstable_triple() -> CanonicalTriple:
    """Huge constant coefficients: the frames grow along u, then blow up along v."""
    g = GridSpec(0, 40.0, 0, 1, 33, 33)
    return CanonicalTriple(
        lam=ScalarField.constant(g, 60.0),
        mu=ScalarField.constant(g, 1.0),
        nu=ScalarField.constant(g, 0.0),
        case=Case.POSITIVE_KH,
    )
