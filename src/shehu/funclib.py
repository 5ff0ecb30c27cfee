"""Catalog of certified test fields shared by suites, tests, and the CLI.

Every field is a ``SmoothFn``: a sum of terms, each a coefficient times
single-axis atoms.  The atoms are defined here -- power, exp, sin and cos
with closed-form first derivatives, and the values-only Mittag-Leffler
kernel -- and each evaluates floats with ``math`` and arrays with numpy
ufuncs.  A catalog entry bundles its field with an exponential-order
certificate for transform truncation; ``FieldFn.exp_order`` hands both
evaluators to the transforms.  The same atoms feed opcalc's separable
verification path, so the catalog exists once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MissingDerivative
from .forward import ExpOrderFn
from .fracops import AXES, SmoothFn
from .specfun import MLParams, mittag_leffler

__all__ = [
    "FieldFn",
    "const_fn",
    "axis_power",
    "axis_exp",
    "axis_sin",
    "axis_cos",
    "catalog",
    "get_field",
    "field_names",
    "ml_kernel_field",
    "power_field",
]


@dataclass(frozen=True)
class FieldFn:
    """A named SmoothFn with an exponential-order certificate."""

    name: str
    smooth: SmoothFn
    bound: float
    rates: tuple[float, float, float]

    def __call__(self, x: float, y: float, t: float) -> float:
        return self.smooth(x, y, t)

    def exp_order(self, bound_factor: float = 1.0) -> ExpOrderFn:
        return self.trace_exp_order(self.smooth, bound_factor)

    def trace_exp_order(self, smooth: SmoothFn, bound_factor: float = 4.0) -> ExpOrderFn:
        """Certificate reused for derivative traces of this field.

        Derivatives of the catalog atoms obey the same exponential order
        with a moderately larger constant; the factor only lengthens the
        truncated range.
        """
        return ExpOrderFn(
            fn=smooth.fn, bound=self.bound * bound_factor, rates=self.rates,
            vec=smooth.array,
        )


# -- single-axis atoms (the interface is documented on SmoothFn) --------------


class _Atom:
    __slots__ = ("i", "par")

    def __init__(self, axis: str, par: float) -> None:
        self.i = AXES.index(axis)
        self.par = float(par)

    @property
    def axis(self) -> str:
        return AXES[self.i]


class _Power(_Atom):
    """u^par; infinite at u = 0 for par < 0."""

    def fn(self, u: float) -> float:
        if u == 0.0 and self.par < 0.0:
            return math.inf
        return u ** self.par

    def array(self, u: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.power(u, self.par)

    def derivative(self):
        if self.par == 1.0:
            return 1.0, None
        return self.par, _Power(self.axis, self.par - 1.0)


class _Scaled(_Atom):
    """f(par * u) for f = ``math_f`` on floats and ``np_f`` on arrays."""

    def fn(self, u: float) -> float:
        return self.math_f(self.par * u)

    def array(self, u: np.ndarray) -> np.ndarray:
        return self.np_f(self.par * u)


class _Exp(_Scaled):
    math_f, np_f = math.exp, np.exp

    def derivative(self):
        return self.par, self


class _Sin(_Scaled):
    math_f, np_f = math.sin, np.sin

    def derivative(self):
        return self.par, _Cos(self.axis, self.par)


class _Cos(_Scaled):
    math_f, np_f = math.cos, np.cos

    def derivative(self):
        return -self.par, _Sin(self.axis, self.par)


class _MLKernel(_Atom):
    """u^(beta-1) E_{gamma,beta}(c u^gamma); values only."""

    __slots__ = ("ml", "c")

    def __init__(self, axis: str, gamma: float, beta: float, c: float) -> None:
        super().__init__(axis, beta)
        self.ml = MLParams(gamma, beta)
        self.c = float(c)

    def fn(self, u: float) -> float:
        beta = self.par
        if u == 0.0:
            if beta == 1.0:
                return 1.0
            return 0.0 if beta > 1.0 else math.inf
        return u ** (beta - 1.0) * mittag_leffler(self.ml, self.c * u ** self.ml.gamma)

    def array(self, u: np.ndarray) -> np.ndarray:
        return np.vectorize(self.fn, otypes=[float])(u)

    def derivative(self):
        raise MissingDerivative(f"no derivative available along {self.axis!r}")


def const_fn(c: float) -> SmoothFn:
    return SmoothFn([(c, ())])


def _atom_fn(atom: _Atom) -> SmoothFn:
    return SmoothFn([(1.0, (atom,))])


def axis_power(axis: str, nu: float) -> SmoothFn:
    """coord^nu along one axis; derivative chain nu * coord^(nu-1)."""
    if nu == 0.0:
        return const_fn(1.0)
    return _atom_fn(_Power(axis, nu))


def axis_exp(axis: str, lam: float) -> SmoothFn:
    """exp(lam * coord) along one axis; closed under differentiation."""
    return _atom_fn(_Exp(axis, lam))


def axis_sin(axis: str, omega: float) -> SmoothFn:
    return _atom_fn(_Sin(axis, omega))


def axis_cos(axis: str, omega: float) -> SmoothFn:
    return _atom_fn(_Cos(axis, omega))


# -- catalog -----------------------------------------------------------------


def _exp3(cx: float, cy: float, ct: float) -> SmoothFn:
    return axis_exp("x", cx) * axis_exp("y", cy) * axis_exp("t", ct)


def _catalog() -> dict[str, FieldFn]:
    pi = math.pi
    entries = [
        FieldFn("const", const_fn(1.0), 1.0, (0.0, 0.0, 0.0)),
        FieldFn("t", axis_power("t", 1.0), 1.0, (0.0, 0.0, 0.5)),
        FieldFn("t-squared", axis_power("t", 2.0), 2.5, (0.0, 0.0, 0.5)),
        FieldFn("sqrt-t", axis_power("t", 0.5), 1.0, (0.0, 0.0, 0.5)),
        FieldFn("xt", axis_power("x", 1.0) * axis_power("t", 1.0), 1.0, (0.5, 0.0, 0.5)),
        FieldFn(
            "xyt", axis_power("x", 1.0) * axis_power("y", 1.0) * axis_power("t", 1.0),
            1.0, (0.5, 0.5, 0.5),
        ),
        FieldFn("exp-xyt", _exp3(-1.0, -1.0, -1.0), 1.0, (-1.0, -1.0, -1.0)),
        FieldFn("exp-2xyt", _exp3(-2.0, -2.0, -2.0), 1.0, (-2.0, -2.0, -2.0)),
        FieldFn("exp-y", axis_exp("y", -1.0), 1.0, (0.0, -1.0, 0.0)),
        FieldFn("exp-t", axis_exp("t", -1.0), 1.0, (0.0, 0.0, -1.0)),
        FieldFn("sine-product", axis_sin("x", pi) * axis_sin("y", pi), 1.0, (0.0, 0.0, 0.0)),
        FieldFn("sin-pit", axis_sin("t", pi), 1.0, (0.0, 0.0, 0.0)),
        FieldFn("sinpix-expt", axis_sin("x", pi) * axis_exp("t", -1.0), 1.0, (0.0, 0.0, -1.0)),
    ]
    return {e.name: e for e in entries}


_CATALOG = _catalog()

_ALIASES = {
    "one": "const",
    "product-exponential": "exp-xyt",
}


def catalog() -> dict[str, FieldFn]:
    return dict(_CATALOG)


def field_names() -> tuple[str, ...]:
    return tuple(sorted(_CATALOG))


def get_field(name: str) -> FieldFn:
    key = _ALIASES.get(name, name)
    try:
        return _CATALOG[key]
    except KeyError:
        raise KeyError(
            f"unknown field {name!r}; known: {', '.join(field_names())}"
        ) from None


def power_field(nu: float, axis: str = "t") -> FieldFn:
    """coord^nu test field with a generic certificate (nu > -1)."""
    bound = max(2.0, math.gamma(nu + 1.0) * 4.0) if nu < 20 else math.inf
    return FieldFn(
        f"power-{nu:g}",
        axis_power(axis, nu),
        bound,
        tuple(0.5 if ax == axis else 0.0 for ax in AXES),
    )


def ml_kernel_field(gamma: float, beta: float, c: float, axis: str = "y") -> FieldFn:
    """u^(beta-1) E_{gamma,beta}(c u^gamma) along ``axis`` (values only).

    For c > 0 the kernel grows like exp(c^(1/gamma) u); the certificate
    rate reflects that, so forward quadrature demands ratio > c^(1/gamma).
    """
    kernel = _atom_fn(_MLKernel(axis, gamma, beta, c))
    rate = c ** (1.0 / gamma) if c > 0.0 else 0.0
    bound = 4.0 * (1.0 + 1.0 / gamma) * (1.0 + abs(c))
    return FieldFn(
        f"ml-kernel-{gamma:g}-{beta:g}-{c:g}",
        kernel,
        bound,
        tuple(rate if ax == axis else 0.0 for ax in AXES),
    )
