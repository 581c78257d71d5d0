"""Exception hierarchy.

Two families matter for the CLI exit codes: ValidationError (bad inputs or
configuration, exit 1) and NumericalError (a computation failed or exceeded
a tolerance, exit 2).  I/O problems surface as ordinary OSError (exit 3).

A LocatedError is built from the grid and the failing node (i, j): it sets
`node` and `uv = grid.uv(node)` and ends its message with
" at node (i, j), (u, v) = (u, v)".  `node=None` marks a verdict with no
node; then `uv` is None and nothing is appended.  The CLI's JSON error
report writes an error's own fields in the order they were set, skipping None.
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


class LocatedError(MinksurfError):
    """A failure at grid node `node` = (i, j), at (u, v) = `uv`; mixed into a NumericalError or ValidationError.

    A gate checked at every node also gives `failing`, the number of nodes that fail it.
    """

    def __init__(self, message: str, grid, node, failing=None):
        self.node, self.uv, self.failing = node, None if node is None else grid.uv(node), failing
        super().__init__(message if node is None else f"{message} at node {node}, (u, v) = {self.uv}")


class NearZeroField(LocatedError, NumericalError):
    """A field that must stay away from zero came too close."""


class SignChange(LocatedError, ValidationError):
    """A field that must keep one sign changes sign between nodes: bad input, since every generator keeps it."""


class BlowUp(LocatedError, NumericalError):
    """Marched quantity left the trust region (|ln mu| > 50)."""


class NoConvergence(NumericalError):
    """Iterative sweep failed to converge within the sweep budget.

    `deltas` holds the sweep-to-sweep change of every sweep, in order.
    """

    def __init__(self, message: str, deltas=()):
        self.deltas = tuple(float(d) for d in deltas)
        super().__init__(message)


class BothMuZero(NumericalError):
    """mu1 and mu2 both vanish on the whole patch (inflection configuration, a 3-space): no node."""


class ResidualTooLarge(LocatedError, NumericalError):
    """Natural-system residual `measured` exceeds the build tolerance `tol`, worst at `node`, `uv`."""

    def __init__(self, message: str, measured: float, tol: float, grid, node):
        super().__init__(message, grid, node)
        self.measured, self.tol = measured, tol


class StepUnstable(LocatedError, NumericalError):
    """Frame entries exceeded 1e8 at `s` in `sweep`, before grid node `node` at (u, v) = `uv`."""

    def __init__(self, message: str, sweep, s, grid, node):
        self.sweep, self.s = sweep, s
        super().__init__(message, grid, node)


class DegenerateMetric(LocatedError, NumericalError):
    """|EG - F^2| is numerically zero: the induced metric is degenerate (least at `node`, `uv`; `failing` nodes)."""


class MinimalOrTotallyGeodesic(LocatedError, NumericalError):
    """Mean curvature vector numerically vanishes (least at `node`, `uv`; `failing` nodes): no geometric frame."""


class NotIsotropic(LocatedError, ValidationError):
    """Immersion is not given in isotropic (null) parameters, as seen at grid node `node`, (u, v) = `uv`.

    Constructing isotropic coordinates from a generic timelike parametrization
    is out of scope; re-parametrize before analysis.
    """


class NotSeparable(LocatedError, NumericalError):
    """f^2|mu_i| does not separate into phi(u), psi(v) within tolerance, worst at `node`, `uv`."""
