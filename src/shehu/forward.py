"""Forward transforms over [0, inf) axes by a tensor tanh-sinh rule.

The transform of f along one axis with variable pair (a, h) is

    H[f](a, h) = int_0^inf exp(-(a/h) u) f(..u..) du,

so the value depends on (a, h) only through the ratio a/h.  Single,
double and triple transforms share one rule.  The integrand's
exponential-order certificate truncates each axis to [0, U], where the
tail beyond U, integrated over the other axes, is below ``tail_cut_tol``
divided by the number of axes, so the truncated mass stays below it;
the box is integrated by the tensor product of the order-1 tanh-sinh
nodes of ``fracops._ts_rule``, scaled to each U and weighted by
exp(-ratio u).  The double-exponential clustering of those nodes at both
ends of each axis absorbs an integrable singularity of f at u = 0.  Each
level halves the step and evaluates only the grid points it adds, by one
``ExpOrderFn.array`` call per block of at most 2^16 values; the transform
is the first level that agrees with the one before it to
max(abs_tol, rel_tol |I|), and ``QuadratureError`` is raised when no
level does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import DivergenceError, DomainError, QuadratureError
from .fracops import _BLOCK, _H0, _MAX_LEVEL, AXES, _ts_rule, _values
from .specfun import MLParams
quad = None  # nothing here calls it; perfbench's tracer patches this name

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


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances of the forward rule: level agreement and truncated tail mass."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    tail_cut_tol: float = 1e-14

    def __post_init__(self) -> None:
        for name in ("rel_tol", "abs_tol", "tail_cut_tol"):
            v = getattr(self, name)
            if not 0.0 < v < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {v!r}")


DEFAULT_QUADRATURE = QuadratureConfig()


@dataclass(frozen=True)
class ExpOrderFn:
    """A field carrying an exponential-order certificate.

    The certificate asserts |fn(x, y, t)| <= bound * exp(rates . (x, y, t));
    it drives the truncation of every semi-infinite integral.  ``array``
    evaluates ``fn``, a field as in ``fracops`` on broadcast numpy arrays.
    """

    fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    bound: float
    rates: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def array(self, x, y, t) -> np.ndarray:
        """Float values at the broadcast shape; DomainError if they do not broadcast."""
        return _values(self.fn, x, y, t)

    def rate(self, axis: str) -> float:
        return self.rates[AXES.index(axis)]

    def certificate_holds(self, points: Sequence[tuple[float, float, float]]) -> bool:
        """Whether |fn| <= bound * exp(rates . point) + 1e-12 at every point."""
        x, y, t = np.asarray(points, dtype=float).reshape(-1, 3).T
        sx, sy, st = self.rates
        envelope = self.bound * np.exp(sx * x + sy * y + st * t) + 1e-12
        return bool(np.all(np.abs(self.array(x, y, t)) <= envelope))


# Largest tensor grid a transform may reach: level 3 in three dimensions
# (601^3 points), level 7 in one and two.
_MAX_VALUES = 2 ** 28


def _truncation_limit(bound: float, rate: float, ratio: float, tol: float) -> float:
    """U such that the tail of bound*exp(-(ratio-rate) u) is below ``tol``."""
    gap = ratio - rate
    tail_scale = max(bound, 1e-3) / gap
    u = math.log(max(tail_scale / tol, 10.0)) / gap
    return max(u, 4.0 / gap)


def _boxes(sizes: tuple[int, ...], cap: int):
    """Slices that tile the grid ``sizes`` in boxes of at most ``cap`` points."""
    if not sizes:
        yield ()
        return
    step = max(1, cap // math.prod(sizes[1:]))
    for lo in range(0, sizes[0], step):
        n = min(step, sizes[0] - lo)
        for rest in _boxes(sizes[1:], cap // n):
            yield (slice(lo, lo + n),) + rest


def _grid_sum(f: ExpOrderFn, axes, point, nodes, weights) -> float:
    """Sum of f times the product weights over the grid nodes[0] x nodes[1] x ...

    ``point`` holds the coordinates of the axes that are not transformed.
    """
    total = 0.0
    for box in _boxes(tuple(u.size for u in nodes), _BLOCK):
        coords = list(point)
        for k, (axis, u, sl) in enumerate(zip(axes, nodes, box)):
            shape = [1] * len(axes)
            shape[k] = -1
            coords[AXES.index(axis)] = u[sl].reshape(shape)
        vals = f.array(*coords)
        for w, sl in zip(weights[::-1], box[::-1]):
            vals = vals @ w[sl]
        total += float(vals)
    return total


def _shehu_tensor(
    f: ExpOrderFn,
    axes: Sequence[str],
    vars: RatioPoint,
    cfg: QuadratureConfig,
    frozen: Mapping[str, float],
) -> float:
    ratios = []
    for axis in axes:
        ratio = vars.ratio(axis)
        if isinstance(ratio, complex):
            raise DomainError("forward quadrature requires real ratio variables")
        if not math.isfinite(ratio):
            raise ValueError(f"ratio {ratio} on axis {axis!r} must be finite")
        if ratio <= f.rate(axis):
            raise DivergenceError(
                f"ratio {ratio} on axis {axis!r} does not exceed the certified "
                f"exponential-order rate {f.rate(axis)}"
            )
        ratios.append(ratio)
    # Frozen coordinates scale the certificate bound exactly; integrating the
    # bound over every other transformed axis contributes 1/(ratio - rate).
    # Each axis gets an equal share of the tail budget.
    bound = f.bound
    for ax, val in frozen.items():
        bound *= math.exp(f.rate(ax) * val)
    tol = cfg.tail_cut_tol / len(axes)
    uppers = []
    for k, axis in enumerate(axes):
        others = bound
        for j, ax in enumerate(axes):
            if j != k:
                others /= ratios[j] - f.rate(ax)
        uppers.append(_truncation_limit(abs(others), f.rate(axis), ratios[k], tol))

    point = [frozen.get(ax, 0.0) for ax in AXES]
    d = len(axes)
    full_u = [np.empty(0)] * d
    full_w = [np.empty(0)] * d
    raw = 0.0
    what = f"transform along {tuple(axes)} (ratios {tuple(ratios)})"
    for level in range(_MAX_LEVEL + 1):
        s, w = _ts_rule(level, 1.0)
        new_u = [upper * s for upper in uppers]
        new_w = [upper * w * np.exp(-ratio * u)
                 for upper, ratio, u in zip(uppers, ratios, new_u)]
        old_u, old_w = full_u, full_w
        full_u = [np.concatenate(p) for p in zip(old_u, new_u)]
        full_w = [np.concatenate(p) for p in zip(old_w, new_w)]
        if math.prod(u.size for u in full_u) > _MAX_VALUES:
            raise QuadratureError(f"{what}: not converged within {_MAX_VALUES} points")
        # The points this level adds, in d disjoint pieces: piece k takes the
        # new nodes on axis k, the previous level's on the axes before it and
        # this level's on the axes after it.
        for k in range(d):
            nodes = old_u[:k] + [new_u[k]] + full_u[k + 1:]
            if all(u.size for u in nodes):
                weights = old_w[:k] + [new_w[k]] + full_w[k + 1:]
                raw += _grid_sum(f, axes, point, nodes, weights)
        value = (_H0 / 2 ** level) ** d * raw
        if not math.isfinite(value):
            raise QuadratureError(f"{what}: non-finite quadrature result")
        if level and abs(value - previous) <= max(cfg.abs_tol, cfg.rel_tol * abs(value)):
            return value
        previous = value
    raise QuadratureError(f"{what}: not converged at step h = {_H0 / 2 ** _MAX_LEVEL}")


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
        DomainError: when the values of ``f`` do not broadcast to a block.
        QuadratureError: when no level of the rule converges, or the
            integrand is not finite.
    """
    if axis not in AXES:
        raise ValueError(f"unknown axis {axis!r}")
    return _shehu_tensor(f, (axis,), vars, cfg, dict(frozen or {}))


def shehu_2d(
    f: ExpOrderFn,
    axes: tuple[str, str],
    vars: RatioPoint,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
    frozen: Mapping[str, float] | None = None,
) -> float:
    """Double transform over ``axes``, the third coordinate held at ``frozen``."""
    if len(set(axes)) != 2 or any(a not in AXES for a in axes):
        raise ValueError(f"need two distinct axes, got {axes!r}")
    return _shehu_tensor(f, tuple(axes), vars, cfg, dict(frozen or {}))


def shehu_3d(
    f: ExpOrderFn,
    vars: RatioPoint,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> float:
    """Triple transform by the tensor rule on the truncated box, with the grid
    axes x, y, t outermost first."""
    return _shehu_tensor(f, AXES, vars, cfg, {})


def analytic_transform(kind: str, ratio: complex | float, **params) -> complex | float:
    """Closed-form single-axis transforms of the power, sine and ML-kernel primitives.

    Kinds and parameters:
      - "power", nu:     u^nu        -> Gamma(nu+1) / ratio^(nu+1),  nu > -1
      - "sin", omega:    sin(omega u)-> omega / (ratio^2 + omega^2)
      - "ml_kernel", gamma, beta, c:
            u^(beta-1) E_{gamma,beta}(c u^gamma) -> ratio^(gamma-beta) / (ratio^gamma - c)
        valid only where |c| < |ratio^gamma|.

    Raises:
        DomainError: on an unknown kind and on parameter-domain violations
            (including the |c| < |ratio^gamma| constraint of the ML kernel pair).
    """
    if kind == "power":
        nu = float(params["nu"])
        if nu <= -1.0:
            raise DomainError(f"power transform needs nu > -1, got {nu}")
        return math.gamma(nu + 1.0) / ratio ** (nu + 1.0)
    if kind == "sin":
        omega = float(params["omega"])
        return omega / (ratio * ratio + omega * omega)
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

