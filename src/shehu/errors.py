"""Exception hierarchy shared by all shehu modules."""


class ShehuError(Exception):
    """Base class for every package-specific error."""


class PoleError(ShehuError):
    """Gamma evaluated within tolerance of a nonpositive integer."""


class ConvergenceError(ShehuError):
    """No evaluation regime reaches the requested accuracy."""


class DivergenceError(ShehuError):
    """Series or integral provably diverges for the given input."""


class QuadratureError(ShehuError):
    """Adaptive quadrature exhausted its budget before converging."""


class MissingDerivative(ShehuError):
    """A callable field cannot supply a required derivative."""


class DomainError(ShehuError):
    """Input violates a closed-form validity constraint."""


class ContourError(ShehuError):
    """Inversion contour evaluation produced non-finite values."""


class CostBudgetError(ShehuError):
    """Requested computation exceeds the configured evaluation budget."""


class MissingBoundary(ShehuError):
    """A boundary-transform entry required by an operational rule is absent."""


class UnknownSuite(ShehuError):
    """Verification suite id is not recognised."""


class SingularDenominator(ShehuError):
    """Transform-domain expression evaluated on (or too near) a singular locus."""


class StabilityError(ShehuError):
    """Explicit scheme grid violates its stability bound."""


class ConfigError(ShehuError):
    """Run configuration contains unknown or invalid entries."""
