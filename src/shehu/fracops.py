"""Fractional integrals and derivatives of callable fields.

All operators act along one axis of a function f(x, y, t) on [0, inf)^3,
from the origin to the evaluation point:

    integral of order g:    (1/Gamma(g)) * int_0^p (p - u)^(g-1) f(..u..) du
    Caputo derivative:      order (n - g) integral of the n-th partial
    classical derivative:   dispatched directly when the order is integer

The weakly singular endpoint factor (p - u)^(g-1) is removed by the
substitution v = (p - u)^g, after which the integrand is smooth enough
for standard adaptive quadrature.  Integrals need only values of f, so
any callable works; derivatives need a ``SmoothFn``, the package's one
field representation: a sum of products of single-axis atoms whose
partials are again term lists.  Atoms carry values and integer-order
derivatives only, so every fractional value here comes from quadrature
of the defining integral, never from a closed-form image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np
from scipy.integrate import quad

from .errors import DomainError, MissingDerivative, QuadratureError

__all__ = [
    "AXES",
    "FracOrder",
    "SmoothFn",
    "rl_integral",
    "rl_derivative",
    "caputo_derivative",
    "power_rule_integral",
]

AXES = ("x", "y", "t")

_INTEGER_TOL = 1e-12


@dataclass(frozen=True)
class FracOrder:
    """A fractional order g > 0 with its integer ceiling n, n-1 < g <= n."""

    value: float

    def __post_init__(self) -> None:
        if not self.value > 0.0:
            raise ValueError(f"fractional order must be positive, got {self.value}")

    @property
    def ceil(self) -> int:
        n = math.ceil(self.value - _INTEGER_TOL)
        return max(n, 1)

    @property
    def is_integer(self) -> bool:
        return abs(self.value - round(self.value)) <= _INTEGER_TOL


def _as_order(order: FracOrder | float) -> FracOrder:
    return order if isinstance(order, FracOrder) else FracOrder(float(order))


class SmoothFn:
    """A separable field on [0, inf)^3: a sum of terms c * a_1 * ... * a_k.

    Each term is a coefficient and a tuple of single-axis atoms (power,
    exp, sin, cos, Mittag-Leffler kernel; see ``funclib``).  An atom has an
    axis index ``i``, float values ``fn(u)``, array values ``array(u)``
    and a closed-form first derivative ``derivative()``, returned as
    ``(coef, atom)`` (atom None when the factor becomes 1) or raising
    ``MissingDerivative``.  Partials apply the product rule atom by atom,
    so any order and mix of them stays a term list.  Instances are
    immutable and safe for concurrent evaluation.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[float, tuple]] = ()) -> None:
        self.terms = tuple((float(c), tuple(atoms)) for c, atoms in terms if c != 0.0)

    def fn(self, x: float, y: float, t: float) -> float:
        """Scalar value; atoms evaluate floats with ``math`` only."""
        p = (x, y, t)
        total = 0.0
        for c, atoms in self.terms:
            for a in atoms:
                c *= a.fn(p[a.i])
            total += c
        return total

    __call__ = fn

    def array(self, x, y, t) -> np.ndarray:
        """Values on broadcast arrays, returned at the full broadcast shape."""
        p = (x, y, t)
        out = np.zeros(np.broadcast(x, y, t).shape)
        for c, atoms in self.terms:
            v = c
            for a in atoms:
                v = v * a.array(p[a.i])
            out += v
        return out

    def partial(self, axis: str) -> "SmoothFn":
        if axis not in AXES:
            raise ValueError(f"unknown axis {axis!r}")
        i = AXES.index(axis)
        out = []
        for c, atoms in self.terms:
            for k, a in enumerate(atoms):
                if a.i == i:
                    dc, da = a.derivative()
                    mid = () if da is None else (da,)
                    out.append((c * dc, atoms[:k] + mid + atoms[k + 1:]))
        return SmoothFn(out)

    def partial_n(self, axis: str, n: int) -> "SmoothFn":
        g = self
        for _ in range(n):
            g = g.partial(axis)
        return g

    def __add__(self, other: "SmoothFn") -> "SmoothFn":
        return SmoothFn(self.terms + other.terms)

    def __mul__(self, other: "SmoothFn | float") -> "SmoothFn":
        if isinstance(other, (int, float)):
            return SmoothFn((c * other, atoms) for c, atoms in self.terms)
        return SmoothFn(
            (c1 * c2, a1 + a2) for c1, a1 in self.terms for c2, a2 in other.terms
        )

    __rmul__ = __mul__


def _at(point: tuple[float, float, float], axis: str, value: float):
    x, y, t = point
    if axis == "x":
        return value, y, t
    if axis == "y":
        return x, value, t
    return x, y, value


def _weak_singular_integral(
    fn: Callable[[float, float, float], float],
    axis: str,
    g: float,
    point: tuple[float, float, float],
    rel_tol: float,
    abs_tol: float,
    limit: int,
) -> float:
    """(1/Gamma(g)) int_0^p (p-u)^(g-1) fn(..u..) du.

    For g < 1 the weakly singular endpoint is removed by the substitution
    v = (p-u)^g; for g >= 1 the kernel is continuous and the defining form
    is integrated directly.
    """
    p = point[AXES.index(axis)]
    if p == 0.0:
        return 0.0

    if g < 1.0:
        inv_g = 1.0 / g

        def integrand(v: float) -> float:
            u = p - v ** inv_g
            if u < 0.0:  # guard rounding at the upper limit
                u = 0.0
            return fn(*_at(point, axis, u))

        upper = p ** g
        normal = math.gamma(g) * g
    else:

        def integrand(u: float) -> float:
            base = p - u
            if base < 0.0:
                base = 0.0
            return base ** (g - 1.0) * fn(*_at(point, axis, u))

        upper = p
        normal = math.gamma(g)

    val = _quad_with_retry(integrand, upper, rel_tol, abs_tol, limit, axis, p)
    return val / normal


def _quad_with_retry(
    integrand, upper: float, rel_tol: float, abs_tol: float, limit: int,
    axis: str, p: float,
) -> float:
    out = quad(
        integrand, 0.0, upper,
        epsabs=abs_tol, epsrel=rel_tol, limit=limit, full_output=1,
    )
    if len(out) > 3:
        # tolerances can sit below what roundoff permits for tiny
        # integrands; one retry at a relaxed target keeps small values usable
        out = quad(
            integrand, 0.0, upper,
            epsabs=max(abs_tol, 1e-12), epsrel=max(rel_tol, 1e-8),
            limit=limit, full_output=1,
        )
        if len(out) > 3:
            raise QuadratureError(
                f"fractional quadrature failed along {axis!r} at p={p}: {out[3]}"
            )
    if not math.isfinite(out[0]):
        raise QuadratureError(f"fractional quadrature non-finite along {axis!r}")
    return out[0]


def _partial_n(f, axis: str, n: int) -> SmoothFn:
    if not isinstance(f, SmoothFn):
        raise MissingDerivative(
            f"derivatives along {axis!r} need a SmoothFn, got a bare callable"
        )
    return f.partial_n(axis, n)


def rl_integral(
    f: SmoothFn | Callable[[float, float, float], float],
    axis: str,
    order: FracOrder | float,
    point: tuple[float, float, float],
    rel_tol: float = 1e-11,
    abs_tol: float = 1e-13,
    limit: int = 200,
) -> float:
    """Fractional integral of ``f`` along ``axis`` at ``point``.

    Only values of ``f`` are needed.  Relative accuracy ~1e-8 for smooth
    integrands; the point component on ``axis`` equal to zero returns 0.
    """
    if axis not in AXES:
        raise ValueError(f"unknown axis {axis!r}")
    order = _as_order(order)
    fn = f.fn if isinstance(f, SmoothFn) else f
    return _weak_singular_integral(
        fn, axis, order.value, tuple(point), rel_tol, abs_tol, limit
    )


def caputo_derivative(
    f: SmoothFn,
    axis: str,
    order: FracOrder | float,
    point: tuple[float, float, float],
    rel_tol: float = 1e-11,
    abs_tol: float = 1e-13,
    limit: int = 200,
) -> float:
    """Caputo fractional derivative of ``f`` along ``axis`` at ``point``.

    Computed as the (n - g)-order fractional integral of the n-th classical
    partial, n = ceil(g); integer g dispatches to the classical partial
    itself.  Requires ``f`` to supply derivatives along ``axis`` up to n.

    Raises:
        MissingDerivative: when ``f`` is a bare callable or has an atom
            without a derivative (the ML kernel) along ``axis``.
    """
    if axis not in AXES:
        raise ValueError(f"unknown axis {axis!r}")
    order = _as_order(order)
    n = order.ceil
    if order.is_integer:
        return _partial_n(f, axis, int(round(order.value)))(*point)
    g = _partial_n(f, axis, n)
    return _weak_singular_integral(
        g.fn, axis, n - order.value, tuple(point), rel_tol, abs_tol, limit
    )


def rl_derivative(
    f: SmoothFn | Callable[[float, float, float], float],
    axis: str,
    order: FracOrder | float,
    point: tuple[float, float, float],
    rel_tol: float = 1e-11,
    abs_tol: float = 1e-13,
    limit: int = 200,
) -> float:
    """Riemann-Liouville derivative: n-th derivative of the (n-g) integral.

    The outer derivative is taken numerically by central differences with
    step h = 1e-5 * max(1, p) (5e-4 * max(1, p) for second differences),
    capped at p/2 so that no node leaves the domain; only values of ``f``
    enter the inner integral.  Integer g dispatches to the classical
    partial and then requires a SmoothFn.

    Raises:
        DomainError: for a non-integer order at p <= 0, where the
            derivative is not defined by a difference inside the domain.
    """
    if axis not in AXES:
        raise ValueError(f"unknown axis {axis!r}")
    order = _as_order(order)
    if order.is_integer:
        return _partial_n(f, axis, int(round(order.value)))(*point)

    n = order.ceil
    delta = n - order.value
    fn = f.fn if isinstance(f, SmoothFn) else f
    p = tuple(point)[AXES.index(axis)]
    if not p > 0.0:
        raise DomainError(
            f"RL derivative of order {order.value} needs {axis} > 0, got {p}"
        )
    h = min(1e-5 * max(1.0, p), p / 2.0)

    def rl_at(q: float) -> float:
        return _weak_singular_integral(
            fn, axis, delta, _at(tuple(point), axis, q), rel_tol, abs_tol, limit
        )

    if n == 1:
        return (rl_at(p + h) - rl_at(p - h)) / (2.0 * h)
    if n == 2:
        # wider step: second differences amplify quadrature noise by 1/h^2
        h = min(max(h, 5e-4 * max(1.0, p)), p / 2.0)
        return (rl_at(p + h) - 2.0 * rl_at(p) + rl_at(p - h)) / (h * h)
    raise QuadratureError(
        f"RL derivative implemented for ceilings 1 and 2, got n={n}"
    )


def power_rule_integral(exponent: float, order: float, p: float) -> float:
    """Closed form of the fractional integral of u^m along one axis.

    I^g[u^m](p) = Gamma(m+1)/Gamma(m+1+g) * p^(m+g); the standard oracle
    for quadrature checks.
    """
    return math.gamma(exponent + 1.0) / math.gamma(exponent + 1.0 + order) * p ** (
        exponent + order
    )
