"""Numerical toolkit for ratio-based exponential transforms on [0, inf)^3,
Caputo fractional operational calculus, and the worked fractional heat and
telegraph examples, with every closed-form rule checked against
independent quadrature.
"""

from .errors import (
    ConfigError,
    ContourError,
    ConvergenceError,
    CostBudgetError,
    DivergenceError,
    DomainError,
    MissingBoundary,
    MissingDerivative,
    PoleError,
    QuadratureError,
    ShehuError,
    SingularDenominator,
    StabilityError,
    UnknownSuite,
)
from .fd_oracle import FDGrid, classical_telegraph_solve, l1_heat_solve
from .forward import (
    ExpOrderFn,
    QuadratureConfig,
    RatioPoint,
    analytic_transform,
    shehu_1d,
    shehu_2d,
    shehu_3d,
)
from .fpde import (
    Grid3Field,
    HeatSpec,
    TelegraphSpec,
    TransformSolution,
    reconstruct,
    series_solution,
    transform_residual,
    transform_solution,
)
from .fracops import (
    AXES,
    FracOrder,
    SmoothFn,
    caputo_derivative,
    rl_integral,
)
from .inverse import InversionConfig, invert_1d, invert_1d_complex, invert_3d
from .opcalc import (
    SUITE_IDS,
    BoundaryTransforms,
    VerificationReport,
    VerificationRow,
    boundary_from_quadrature,
    caputo_rule,
    convolve_3d,
    integral_rule,
    verify_suite,
)
from .specfun import (
    GuardedSeriesResult,
    MLParams,
    WrightSeriesSpec,
    mittag_leffler,
    mittag_leffler_array,
    wright_series,
)

__version__ = "0.1.0"
