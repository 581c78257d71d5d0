"""Exception hierarchy.

Two families matter for the CLI exit codes: ValidationError (bad inputs or
configuration, exit 1) and NumericalError (a computation failed or exceeded
a tolerance, exit 2).  I/O problems surface as ordinary OSError (exit 3).
"""


class MinksurfError(Exception):
    """Base class for all library errors."""


class ValidationError(MinksurfError, ValueError):
    """Input data or configuration violates a precondition (also a ValueError)."""


class NumericalError(MinksurfError):
    """A numerical computation failed or left tolerance."""


class GridTooSmall(ValidationError):
    """Grid has fewer than 5 nodes along an axis."""


class ConfigError(ValidationError):
    """Malformed job configuration (unknown keys, bad values)."""


class LocatedError(NumericalError):
    """A numerical failure at grid node `node` = (i, j), at (u, v) = `uv` (None when unknown).

    A gate checked at every node also gives `failing`, the number of nodes that fail it.
    """

    def __init__(self, message: str, node=None, uv=None, failing=None):
        self.node, self.uv, self.failing = node, uv, failing
        super().__init__(message)


class NearZeroField(LocatedError):
    """A field that must stay away from zero came too close (or changed sign)."""


class BlowUp(LocatedError):
    """Marched quantity left the trust region (|ln mu| > 50)."""


class NoConvergence(NumericalError):
    """Iterative sweep failed to converge within the sweep budget.

    `deltas` holds the sweep-to-sweep change of every sweep, in order.
    """

    def __init__(self, message: str, deltas=()):
        self.deltas = tuple(float(d) for d in deltas)
        super().__init__(message)


class BothMuZero(NumericalError):
    """mu1 and mu2 both vanish: inflection configuration, surface lies in a 3-space."""


class ResidualTooLarge(LocatedError):
    """Natural-system residual `measured` exceeds the build tolerance `tol`, worst at `node`, `uv`."""

    def __init__(self, message: str, measured: float, tol: float, node=None, uv=None):
        self.measured, self.tol = measured, tol
        super().__init__(message, node, uv)


class StepUnstable(LocatedError):
    """Frame entries exceeded 1e8 at `s` in `sweep`, before grid node `node` at (u, v) = `uv`."""

    def __init__(self, message: str, sweep=None, s=None, node=None, uv=None):
        self.sweep, self.s = sweep, s
        super().__init__(message, node, uv)


class DegenerateMetric(LocatedError):
    """|EG - F^2| is numerically zero: the induced metric is degenerate (least at `node`, `uv`; `failing` nodes)."""


class MinimalOrTotallyGeodesic(LocatedError):
    """Mean curvature vector numerically vanishes (least at `node`, `uv`; `failing` nodes): no geometric frame."""


class NotIsotropic(ValidationError):
    """Immersion is not given in isotropic (null) parameters, as seen at grid node `node`, (u, v) = `uv`.

    Constructing isotropic coordinates from a generic timelike parametrization
    is out of scope; re-parametrize before analysis.
    """

    def __init__(self, message: str, node=None, uv=None):
        self.node, self.uv = node, uv
        super().__init__(message)


class NotSeparable(NumericalError):
    """f^2|mu_i| does not separate into phi(u), psi(v) within tolerance."""
