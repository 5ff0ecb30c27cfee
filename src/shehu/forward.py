"""Forward transforms over [0, inf) axes by adaptive quadrature.

The transform of f along one axis with variable pair (a, h) is

    H[f](a, h) = int_0^inf exp(-(a/h) u) f(..u..) du,

so the value depends on (a, h) only through the ratio a/h.  Double and
triple transforms iterate the single-axis integral; every level truncates
its semi-infinite range using the integrand's exponential-order
certificate and adds the analytic tail bound to its error budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from scipy.integrate import quad

from .errors import DivergenceError, DomainError, QuadratureError
from .fracops import AXES
from .specfun import MLParams

__all__ = [
    "RatioPoint",
    "ExpOrderFn",
    "QuadratureConfig",
    "shehu_1d",
    "shehu_2d",
    "shehu_3d",
    "analytic_transform",
]


@dataclass(frozen=True)
class RatioPoint:
    """Per-axis transform variable pairs (a, h), (b, k), (c, l).

    Forward quadrature uses real positive pairs; inversion callables may
    carry complex entries.  All transform values depend on the pairs only
    through the ratios a/h, b/k, c/l.
    """

    x: tuple[complex, complex] = (1.0, 1.0)
    y: tuple[complex, complex] = (1.0, 1.0)
    t: tuple[complex, complex] = (1.0, 1.0)

    def __post_init__(self) -> None:
        for axis in AXES:
            pair = getattr(self, axis)
            if len(pair) != 2:
                raise ValueError(f"axis {axis!r} needs a pair (numerator, denominator)")
            if pair[1] == 0:
                raise ValueError(f"axis {axis!r} divisor must be nonzero")

    @classmethod
    def from_ratios(cls, p: complex = 1.0, q: complex = 1.0, s: complex = 1.0):
        return cls(x=(p, 1.0), y=(q, 1.0), t=(s, 1.0))

    def ratio(self, axis: str) -> complex:
        a, h = getattr(self, axis)
        r = a / h
        if isinstance(r, complex) and r.imag == 0.0:
            return r.real
        return r

    def ratios(self) -> tuple[complex, complex, complex]:
        return tuple(self.ratio(ax) for ax in AXES)


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and budget for the semi-infinite adaptive quadrature."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_subdivisions: int = 200
    tail_cut_tol: float = 1e-14

    def __post_init__(self) -> None:
        if min(self.rel_tol, self.abs_tol, self.tail_cut_tol) <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


DEFAULT_QUADRATURE = QuadratureConfig()


@dataclass(frozen=True)
class ExpOrderFn:
    """A callable field carrying an exponential-order certificate.

    The certificate asserts |fn(x, y, t)| <= bound * exp(rates . (x, y, t));
    it drives the truncation of every semi-infinite integral.  ``vec`` is
    an optional numpy-broadcastable evaluator used by batch consumers.
    """

    fn: Callable[[float, float, float], float]
    bound: float
    rates: tuple[float, float, float] = (0.0, 0.0, 0.0)
    vec: Callable | None = None

    def __call__(self, x: float, y: float, t: float) -> float:
        return self.fn(x, y, t)

    def rate(self, axis: str) -> float:
        return self.rates[AXES.index(axis)]

    def certificate_holds(
        self, points: Sequence[tuple[float, float, float]], slack: float = 1e-12
    ) -> bool:
        m = self.bound
        sx, sy, st = self.rates
        return all(
            abs(self.fn(x, y, t)) <= m * math.exp(sx * x + sy * y + st * t) + slack
            for x, y, t in points
        )


def _frozen_point(axis: str, u: float, frozen: Mapping[str, float]):
    vals = {"x": 0.0, "y": 0.0, "t": 0.0}
    vals.update(frozen)
    vals[axis] = u
    return vals["x"], vals["y"], vals["t"]


def _truncation_limit(
    bound: float, rate: float, ratio: float, cfg: QuadratureConfig
) -> float:
    """U such that the tail of bound*exp(-(ratio-rate) u) is below tail_cut_tol."""
    gap = ratio - rate
    tail_scale = max(bound, 1e-3) / gap
    u = math.log(max(tail_scale / cfg.tail_cut_tol, 10.0)) / gap
    return max(u, 4.0 / gap)


def _quad_finite(integrand, lo: float, hi: float, cfg: QuadratureConfig, what: str):
    out = quad(
        integrand, lo, hi,
        epsabs=cfg.abs_tol, epsrel=cfg.rel_tol,
        limit=cfg.max_subdivisions, full_output=1,
    )
    if len(out) > 3:
        raise QuadratureError(f"{what}: {out[3]}")
    if not math.isfinite(out[0]):
        raise QuadratureError(f"{what}: non-finite quadrature result")
    return out[0]


def _axis_bound_factor(f: ExpOrderFn, axes_done: Sequence[str], vars: RatioPoint) -> float:
    """Bound multiplier 1/(ratio - rate) accumulated by inner transforms."""
    fac = 1.0
    for ax in axes_done:
        fac /= float(vars.ratio(ax)) - f.rate(ax)
    return fac


def _shehu_nested(
    f: ExpOrderFn,
    axes: Sequence[str],
    vars: RatioPoint,
    cfg: QuadratureConfig,
    frozen: Mapping[str, float],
) -> float:
    axis = axes[0]
    ratio = vars.ratio(axis)
    if isinstance(ratio, complex):
        raise DomainError("forward quadrature requires real ratio variables")
    rate = f.rate(axis)
    if ratio <= rate:
        raise DivergenceError(
            f"ratio {ratio} on axis {axis!r} does not exceed the certified "
            f"exponential-order rate {rate}"
        )
    # Frozen coordinates scale the certificate bound exactly; inner transforms
    # contribute their own 1/(ratio - rate) factors.
    bound = f.bound
    for ax, val in frozen.items():
        bound *= math.exp(f.rate(ax) * val)
    inner_axes = axes[1:]
    bound *= _axis_bound_factor(f, inner_axes, vars)
    upper = _truncation_limit(abs(bound), rate, ratio, cfg)

    if inner_axes:
        def integrand(u: float) -> float:
            inner = dict(frozen)
            inner[axis] = u
            return math.exp(-ratio * u) * _shehu_nested(f, inner_axes, vars, cfg, inner)
    else:
        def integrand(u: float) -> float:
            return math.exp(-ratio * u) * f.fn(*_frozen_point(axis, u, frozen))

    return _quad_finite(
        integrand, 0.0, upper, cfg, f"transform along {axis!r} (ratio {ratio})"
    )


def shehu_1d(
    f: ExpOrderFn,
    axis: str,
    vars: RatioPoint,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
    frozen: Mapping[str, float] | None = None,
) -> float:
    """Single-axis transform; remaining coordinates held at ``frozen`` (default 0).

    Raises:
        DivergenceError: when the axis ratio does not exceed the certified rate.
        QuadratureError: when adaptive quadrature exhausts its budget.
    """
    if axis not in AXES:
        raise ValueError(f"unknown axis {axis!r}")
    return _shehu_nested(f, (axis,), vars, cfg, dict(frozen or {}))


def shehu_2d(
    f: ExpOrderFn,
    axes: tuple[str, str],
    vars: RatioPoint,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
    frozen: Mapping[str, float] | None = None,
) -> float:
    """Double transform over ``axes`` (iterated single transforms)."""
    if len(set(axes)) != 2 or any(a not in AXES for a in axes):
        raise ValueError(f"need two distinct axes, got {axes!r}")
    return _shehu_nested(f, tuple(axes), vars, cfg, dict(frozen or {}))


def shehu_3d(
    f: ExpOrderFn,
    vars: RatioPoint,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
    axis_order: tuple[str, str, str] = ("x", "y", "t"),
) -> float:
    """Triple transform as nested adaptive 1-D quadratures.

    ``axis_order`` selects the nesting (outermost first); all orderings
    agree within tolerance for certified integrands.
    """
    if sorted(axis_order) != sorted(AXES):
        raise ValueError(f"axis_order must permute {AXES}, got {axis_order!r}")
    return _shehu_nested(f, tuple(axis_order), vars, cfg, {})


def analytic_transform(kind: str, ratio: complex | float, **params) -> complex | float:
    """Closed-form single-axis transform values for primitive functions.

    Kinds and parameters:
      - "power", nu:     u^nu        -> Gamma(nu+1) / ratio^(nu+1),  nu > -1
      - "exp", rate:     exp(rate*u) -> 1 / (ratio - rate)
      - "sin", omega:    sin(omega u)-> omega / (ratio^2 + omega^2)
      - "cos", omega:    cos(omega u)-> ratio / (ratio^2 + omega^2)
      - "ml_kernel", gamma, beta, c:
            u^(beta-1) E_{gamma,beta}(c u^gamma) -> ratio^(gamma-beta) / (ratio^gamma - c)
        valid only where |c| < |ratio^gamma|.

    Raises:
        DomainError: on parameter-domain violations (including the
            |c| < |ratio^gamma| constraint of the ML kernel pair).
    """
    if kind == "power":
        nu = float(params["nu"])
        if nu <= -1.0:
            raise DomainError(f"power transform needs nu > -1, got {nu}")
        return math.gamma(nu + 1.0) / ratio ** (nu + 1.0)
    if kind == "exp":
        lam = float(params["rate"])
        if not isinstance(ratio, complex) and ratio <= lam:
            raise DomainError(f"exp transform needs ratio > rate, got {ratio} <= {lam}")
        return 1.0 / (ratio - lam)
    if kind == "sin":
        omega = float(params["omega"])
        return omega / (ratio * ratio + omega * omega)
    if kind == "cos":
        omega = float(params["omega"])
        return ratio / (ratio * ratio + omega * omega)
    if kind == "ml_kernel":
        g = float(params["gamma"])
        b = float(params["beta"])
        c = complex(params["c"])
        if c.imag == 0.0:
            c = c.real
        MLParams(g, b)  # validate orders
        rg = ratio ** g
        # Validity region |c| < |ratio^gamma|: reject strict violations and
        # the vanishing denominator; the boundary case with c on the far
        # side of the disc (e.g. c = -1 at ratio 1) is a convergent pair.
        if abs(c) > abs(rg) or abs(rg - c) <= 1e-12 * (abs(rg) + abs(c)):
            raise DomainError(
                f"ML kernel transform needs |c| < |ratio^gamma|: "
                f"got c={c}, ratio^gamma={rg}"
            )
        return ratio ** (g - b) / (rg - c)
    raise DomainError(f"unknown analytic transform kind {kind!r}")

