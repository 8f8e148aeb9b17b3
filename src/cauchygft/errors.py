"""Exception types shared across the package."""


class CauchyGftError(Exception):
    """Base class for all library errors."""


class InvalidParams(CauchyGftError, ValueError):
    """A generator or operation was called with out-of-range parameters."""


class ZeroDegreeNode(CauchyGftError):
    """Normalized Laplacian requested on a graph with an isolated node."""

    def __init__(self, node: int):
        super().__init__(f"node {node} has zero degree; normalized Laplacian undefined")
        self.node = node


class ParseError(CauchyGftError):
    """Malformed graph file; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ConvergenceFailure(CauchyGftError):
    """An eigensolver did not converge: dense eigh, or a Fiedler LOBPCG past the dense fallback."""


class BracketFailure(CauchyGftError):
    """A secular root could not be certified inside its interleaving bracket.

    Usually indicates insufficient deflation upstream (near-zero z entry or
    near-degenerate eigenvalue pair that survived the deflation tolerances).
    """


class DimensionMismatch(CauchyGftError, ValueError):
    """Vector/matrix shapes do not match the operator's declared size."""


class PlanMismatch(CauchyGftError):
    """A merge plan does not cover the graph it is applied to."""


class Disconnected(CauchyGftError):
    """Operation requires a connected graph."""


class SolverNotConverged(CauchyGftError):
    """An iterative linear solver failed to reach its tolerance."""


class EmptyInterface(CauchyGftError, ValueError):
    """Sparsification was asked to sample from an empty edge set."""


class TooLarge(CauchyGftError):
    """Dense materialization refused beyond the configured size limit."""


class ConfigMismatch(CauchyGftError):
    """A filter-layer configuration is malformed or does not fit the factorization's tree."""


class DomainError(CauchyGftError, ValueError):
    """Eigenvalues fall outside a filter bank's declared spectral domain."""
