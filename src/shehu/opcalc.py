"""Operational calculus: closed-form transform rules and their verifier.

The rules map fractional integrals and Caputo derivatives to algebra in
the ratio variables:

    integral of order g along an axis:   multiply by ratio^(-g)
    Caputo derivative of order g, ceiling n:
        ratio^g * F - sum_{i<n} ratio^(g-1-i) * (boundary transform of
        the i-th derivative trace at axis = 0)

Multi-axis Caputo rules are the exact iterated composition of the
single-axis rule; with three differentiated axes that expansion carries
face (one axis at zero), edge (two axes at zero), and corner (all three)
boundary groups with alternating signs.

``verify_suite`` replaces proofs with numbers: each rule instance is
evaluated on both sides with independent machinery (forward's tensor
tanh-sinh rule; numpy's Gauss-Legendre nodes in adaptive panels over
per-axis atom products on the separable path and, with its Gauss-Laguerre
nodes, in fixed rules for the convolution law; fracops' tanh-sinh rule on
the defining integrals of fractional operators) and reported row by row.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Mapping, Sequence

import numpy as np
from numpy.polynomial.laguerre import laggauss
from numpy.polynomial.legendre import leggauss

from .errors import MissingBoundary, QuadratureError, UnknownSuite
from .forward import (
    DEFAULT_QUADRATURE,
    ExpOrderFn,
    QuadratureConfig,
    RatioPoint,
    analytic_transform,
    shehu_1d,
    shehu_2d,
    shehu_3d,
)
from .fracops import AXES, FracOrder, SmoothFn, caputo_derivative, rl_integral
from .funclib import FieldFn, get_field, ml_kernel_field
from .inverse import DEFAULT_INVERSION, invert_1d, invert_3d
from .specfun import MLParams, mittag_leffler
quad = None  # nothing here calls it; perfbench's tracer patches this name

__all__ = [
    "BoundaryTransforms",
    "VerificationRow",
    "VerificationReport",
    "integral_rule",
    "caputo_rule",
    "boundary_from_quadrature",
    "convolve_3d",
    "convolved_exp_order",
    "verify_suite",
    "SUITE_IDS",
]


def _as_order_map(orders: Mapping[str, FracOrder | float]) -> dict[str, FracOrder]:
    out: dict[str, FracOrder] = {}
    for ax, g in orders.items():
        if ax not in AXES:
            raise ValueError(f"unknown axis {ax!r}")
        if isinstance(g, FracOrder):
            out[ax] = g
        elif float(g) != 0.0:
            out[ax] = FracOrder(float(g))
    return out


def integral_rule(
    Fhat: complex | float,
    vars: RatioPoint,
    orders: Mapping[str, FracOrder | float],
) -> complex | float:
    """Transform of the per-axis fractional integrals: scale by ratio^(-g).

    Axes missing from ``orders`` (or with order 0) pass through unchanged.
    """
    out = Fhat
    for ax, order in _as_order_map(orders).items():
        out = out * vars.ratio(ax) ** (-order.value)
    return out


@dataclass
class BoundaryTransforms:
    """Boundary data demanded by the Caputo rules.

    Entries are keyed by the tuple of axes held at zero (sorted in axis
    order) and the derivative multi-index aligned with those axes.  The
    value is the transform of that derivative trace over the remaining
    transformed axes (a plain trace value when no transformed axis
    remains).
    """

    entries: dict[tuple[tuple[str, ...], tuple[int, ...]], complex] = field(
        default_factory=dict
    )

    @staticmethod
    def _key(axes: Sequence[str], idx: Sequence[int]):
        pairs = sorted(zip(axes, idx), key=lambda p: AXES.index(p[0]))
        return tuple(a for a, _ in pairs), tuple(i for _, i in pairs)

    def put(self, axes: Sequence[str], idx: Sequence[int], value: complex) -> None:
        self.entries[self._key(axes, idx)] = value

    def get(self, axes: Sequence[str], idx: Sequence[int]) -> complex:
        try:
            return self.entries[self._key(axes, idx)]
        except KeyError:
            raise MissingBoundary(
                f"boundary transform for axes {tuple(axes)} derivative "
                f"index {tuple(idx)} is missing"
            ) from None


def caputo_rule(
    Fhat: complex | float,
    vars: RatioPoint,
    orders: Mapping[str, FracOrder | float],
    boundary: BoundaryTransforms,
    transform_axes: Sequence[str] = AXES,
) -> complex | float:
    """Transform of iterated Caputo derivatives along ``orders`` axes.

    ``transform_axes`` names the axes of the transform ``Fhat`` (all three
    by default; pass two for double-transform rules).  The expansion runs
    over every nonempty subset S of differentiated axes with sign
    (-1)^|S|, weight prod_{ax in S} ratio^(g-1-i_ax), leading factor
    prod_{ax not in S} ratio^g, and the boundary entry for (S, index).

    Raises:
        MissingBoundary: when a demanded boundary entry is absent.
    """
    order_map = _as_order_map(orders)
    for ax in order_map:
        if ax not in transform_axes:
            raise ValueError(
                f"axis {ax!r} is differentiated but not transformed"
            )
    diff_axes = [ax for ax in AXES if ax in order_map]

    total = Fhat
    for ax in diff_axes:
        total = total * vars.ratio(ax) ** order_map[ax].value

    for r in range(1, len(diff_axes) + 1):
        for subset in itertools.combinations(diff_axes, r):
            sign = (-1.0) ** r
            lead = 1.0 + 0.0j if isinstance(Fhat, complex) else 1.0
            for ax in diff_axes:
                if ax not in subset:
                    lead = lead * vars.ratio(ax) ** order_map[ax].value
            ranges = [range(order_map[ax].ceil) for ax in subset]
            for idx in itertools.product(*ranges):
                coef = sign * lead
                for ax, i in zip(subset, idx):
                    coef = coef * vars.ratio(ax) ** (order_map[ax].value - 1.0 - i)
                total = total + coef * boundary.get(subset, idx)
    return total


def boundary_from_quadrature(
    fld: FieldFn,
    vars: RatioPoint,
    orders: Mapping[str, FracOrder | float],
    transform_axes: Sequence[str] = AXES,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> BoundaryTransforms:
    """Compute every boundary entry the rule will demand, by quadrature.

    Derivative traces come from the field's derivative chains; each trace
    is transformed over the remaining transformed axes with the trace
    certificate of ``fld``.
    """
    order_map = _as_order_map(orders)
    diff_axes = [ax for ax in AXES if ax in order_map]
    out = BoundaryTransforms()
    for r in range(1, len(diff_axes) + 1):
        for subset in itertools.combinations(diff_axes, r):
            ranges = [range(order_map[ax].ceil) for ax in subset]
            for idx in itertools.product(*ranges):
                trace = fld.smooth
                for ax, i in zip(subset, idx):
                    trace = trace.partial_n(ax, i)
                frozen = {ax: 0.0 for ax in subset}
                rest = [ax for ax in transform_axes if ax not in subset]
                if not rest:
                    value = trace(*_point_from(frozen))
                else:
                    eo = fld.trace_exp_order(trace)
                    value = _transform_over(eo, rest, vars, cfg, frozen)
                out.put(subset, idx, value)
    return out


def _point_from(frozen: Mapping[str, float]):
    return tuple(frozen.get(ax, 0.0) for ax in AXES)


def _transform_over(f: ExpOrderFn, axes: Sequence[str], vars, cfg, frozen):
    if len(axes) == 1:
        return shehu_1d(f, axes[0], vars, cfg, frozen)
    if len(axes) == 2:
        return shehu_2d(f, tuple(axes), vars, cfg, frozen)
    return shehu_3d(f, vars, cfg)


# -- convolution -------------------------------------------------------------


@lru_cache(maxsize=64)
def _gauss_rule(family: Callable, *args):
    """(nodes, weights) of a numpy Gauss rule, cached and read-only: callers share them."""
    rule = family(*args)
    for arr in rule:
        arr.flags.writeable = False
    return rule


def _legendre_axis(n: int, length: float):
    xi, wi = _gauss_rule(leggauss, n)
    return 0.5 * length * (xi + 1.0), 0.5 * length * wi


def convolve_3d(
    f: ExpOrderFn,
    g: ExpOrderFn,
    point: tuple[float, float, float],
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> float:
    """Triple convolution integral of f and g over [0,x] x [0,y] x [0,t].

    Tensor Gauss-Legendre quadrature with node-count refinement as the
    error estimate; integrands are smooth, so a single panel per axis with
    order scaled to the box size converges spectrally.

    Raises:
        QuadratureError: when refinement fails to stabilize the value.
    """
    x, y, t = point
    if min(x, y, t) < 0.0:
        raise ValueError("convolution point must be componentwise nonnegative")
    if min(x, y, t) == 0.0:
        return 0.0

    def tensor(n: int) -> float:
        n_eff = [max(8, min(48, n + int(0.8 * l))) for l in (x, y, t)]
        (z1, w1), (z2, w2), (z3, w3) = (
            _legendre_axis(n_eff[0], x),
            _legendre_axis(n_eff[1], y),
            _legendre_axis(n_eff[2], t),
        )
        Z1, Z2, Z3 = np.meshgrid(z1, z2, z3, indexing="ij", sparse=True)
        vals = f.array(x - Z1, y - Z2, t - Z3) * g.array(Z1, Z2, Z3)
        return float(np.einsum("i,j,k,ijk->", w1, w2, w3, vals))

    v_prev = tensor(12)
    for n in (18, 26, 38):
        v = tensor(n)
        if abs(v - v_prev) <= 10.0 * max(cfg.abs_tol, cfg.rel_tol * abs(v)):
            return v
        v_prev = v
    raise QuadratureError(
        f"convolution quadrature failed to stabilize at point {point}"
    )


def convolved_exp_order(
    f: ExpOrderFn,
    g: ExpOrderFn,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
    rate_pad: float = 0.5,
) -> ExpOrderFn:
    """Wrap the convolution of f and g as a certified field.

    |f***g| <= M_f M_g * xyt * exp(max-rate . point); the polynomial factor
    is absorbed into the rate pad, with the bound constant adjusted by
    (1/(e*pad))^3 = max of u*exp(-pad*u) per axis.
    """
    rates = tuple(
        max(rf, rg) + rate_pad for rf, rg in zip(f.rates, g.rates)
    )
    bound = f.bound * g.bound * (1.0 / (math.e * rate_pad)) ** 3

    def fn(x: float, y: float, t: float) -> float:
        return convolve_3d(f, g, (x, y, t), cfg)

    return ExpOrderFn(fn=fn, bound=bound, rates=rates)


# -- separable quadrature (verification side) ---------------------------------
#
# Every field is a sum of terms c * (atoms on x) * (atoms on y) * (atoms on t),
# so the quadrature side of each identity factorizes into 1-D integrals over
# the atoms of one axis.  The fractional operators are still evaluated
# numerically from their defining integrals (``rl_integral`` on the atom
# values, after integer-order derivatives), keeping both sides of every row
# independent of the closed-form rules under test.


def _on_axis(atoms, axis: str) -> tuple:
    i = AXES.index(axis)
    return tuple(a for a in atoms if a.i == i)


def _atoms_array(atoms, u: np.ndarray) -> np.ndarray:
    out = np.ones_like(u)
    for a in atoms:
        out = out * a.array(u)
    return out


def _panel_transform(integrand, rate: float, rho: float, pad: float, epsrel: float) -> float:
    """int_0^U exp(-rho u) integrand(u) du, U = pad / (rho - max(rate, 0)).

    QUADPACK's QAG scheme on arrays: each panel's 15-point Gauss-Legendre
    value is checked against its 7-point value; each sweep bisects every
    panel whose error exceeds an equal share of the budget and passes all
    new nodes to ``integrand`` in one array call, until the errors sum to
    at most max(1e-15, epsrel |I|).  A singular u^a at u = 0 costs one
    split per factor 2^-(1+a) of error, so the 300-panel cap refuses a
    below about -0.81 at epsrel 1e-13 and -0.87 at 1e-10 (no catalog field
    or suite row has such a factor).

    Raises:
        QuadratureError: when rho <= max(rate, 0), the sum is not finite,
            or more than 300 panels, or a split below rounding, are needed.
    """
    gap = rho - max(rate, 0.0)
    if gap <= 0.0:
        raise QuadratureError(f"ratio {rho} inside growth rate {rate}")
    upper = pad / gap
    x15, w15 = _gauss_rule(leggauss, 15)
    x7, w7 = _gauss_rule(leggauss, 7)
    nodes = np.concatenate([x15, x7]) + 1.0
    lo, hi = np.array([0.0]), np.array([upper])
    val = err = np.empty(0)
    while True:
        half = 0.5 * (hi[val.size:] - lo[val.size:])
        u = lo[val.size:, None] + half[:, None] * nodes
        f = np.exp(-rho * u) * integrand(u)
        g15, g7 = half * (f[:, :15] @ w15), half * (f[:, 15:] @ w7)
        val, err = np.append(val, g15), np.append(err, np.abs(g15 - g7))
        total, errsum = float(val.sum()), float(err.sum())
        if not math.isfinite(total + errsum):
            raise QuadratureError(f"transform integrand is not finite on [0, {upper}]")
        budget = max(1e-15, epsrel * abs(total))
        if errsum <= budget:
            return total
        split = err > budget / err.size
        keep = ~split
        mid = 0.5 * (lo[split] + hi[split])
        if err.size + mid.size > 300:
            raise QuadratureError(f"transform needs more than 300 panels on [0, {upper}]")
        if not np.all(lo[split] < mid):
            raise QuadratureError(f"transform panel too narrow to split on [0, {upper}]")
        lo = np.concatenate([lo[keep], lo[split], mid])
        hi = np.concatenate([hi[keep], mid, hi[split]])
        val, err = val[keep], err[keep]


def _axis_transform(
    atoms,
    axis: str,
    rate: float,
    rho: float,
    order: float | None = None,
) -> float:
    """1-D transform of a product of atoms on ``axis``, or of its fractional integral.

    ``rate`` is the field's certified exponential rate on this axis; the
    integral of ``order`` is computed numerically from its definition by
    ``rl_integral``, once over each sweep's nodes.
    """
    if order is None:
        integrand = partial(_atoms_array, atoms)
    else:
        term = SmoothFn([(1.0, atoms)])

        def integrand(u: np.ndarray) -> np.ndarray:
            point = tuple(u if ax == axis else 0.0 for ax in AXES)
            return rl_integral(term, axis, order, point)

    return _panel_transform(integrand, rate, rho, 40.0, 1e-13)


def _sep_transform(
    fld: FieldFn,
    vars: RatioPoint,
    ops: Mapping[str, tuple[str, float]] | None = None,
) -> float:
    """Triple transform of ``fld``, or of its fractional image, term by term.

    ``ops`` maps an axis to ("integral", g) or ("caputo", g).  A Caputo op
    takes the ceil(g)-th partial through the atoms' derivatives and leaves
    the remaining integral of order ceil(g) - g to quadrature.
    """
    smooth, frac = fld.smooth, {}
    for ax, (kind, g) in (ops or {}).items():
        if kind == "caputo":
            order = FracOrder(g)
            smooth = smooth.partial_n(ax, order.ceil)
            if order.is_integer:
                continue
            g = order.ceil - order.value
        frac[ax] = g
    total = 0.0
    for c, atoms in smooth.terms:
        for ax, rate in zip(AXES, fld.rates):
            c *= _axis_transform(
                _on_axis(atoms, ax), ax, rate, float(vars.ratio(ax)), frac.get(ax)
            )
        total += c
    return total


def _rel_err(lhs: float, rhs: float) -> float:
    scale = max(abs(lhs), abs(rhs))
    if scale < 1e-10:
        return abs(lhs - rhs)
    return abs(lhs - rhs) / scale


@dataclass
class VerificationRow:
    id: str
    lhs: float
    rhs: float
    rel_err: float
    passed: bool


@dataclass
class VerificationReport:
    """Per-identity numeric check results for one suite run."""

    suite: str
    tolerance: float
    seed: int
    rows: list[VerificationRow] = field(default_factory=list)

    def add(self, row_id: str, lhs: complex | float, rhs: complex | float) -> None:
        lhs_f, rhs_f = complex(lhs).real, complex(rhs).real
        err = _rel_err(lhs_f, rhs_f)
        self.rows.append(
            VerificationRow(row_id, lhs_f, rhs_f, err, err <= self.tolerance)
        )

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    @property
    def n_passed(self) -> int:
        return sum(r.passed for r in self.rows)

    def to_lines(self) -> list[str]:
        return [
            json.dumps(
                {
                    "id": r.id,
                    "lhs": r.lhs,
                    "rhs": r.rhs,
                    "rel_err": r.rel_err,
                    "pass": r.passed,
                }
            )
            for r in sorted(self.rows, key=lambda r: r.id)
        ]

    def __str__(self) -> str:
        return "\n".join(self.to_lines())


SUITE_IDS = (
    "operational-integrals",
    "operational-derivatives",
    "convolution",
    "ml-kernel",
    "roundtrip",
)


def _seeded_ratio_points(
    rng: np.random.Generator,
    count: int,
    min_gap_rates: tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> list[RatioPoint]:
    """Ratio draws in [0.5, 3], redrawn until each exceeds its rate + 0.5."""
    points = []
    for _ in range(count):
        ratios = []
        for rate in min_gap_rates:
            r = float(rng.uniform(0.5, 3.0))
            while r < rate + 0.5:
                r = float(rng.uniform(0.5, 3.0))
            ratios.append(r)
        points.append(RatioPoint.from_ratios(*ratios))
    return points



def _fractional_image_rates(fld: FieldFn, axis: str) -> tuple[float, float, float]:
    """Certificate rates for a fractional image of ``fld`` along ``axis``.

    Fractional integration/differentiation of an exponentially decaying
    factor leaves only an algebraic envelope, so the axis rate floors at a
    small positive pad instead of inheriting the decay rate.
    """
    return tuple(
        (max(r, 0.0) + 0.3) if ax == axis else r
        for ax, r in zip(AXES, fld.rates)
    )


def _suite_operational_integrals(report: VerificationReport, rng) -> None:
    cfg = QuadratureConfig(rel_tol=1e-9, abs_tol=1e-13, tail_cut_tol=1e-12)

    # Single-axis rule through forward's tensor rule (2-var instances,
    # x and t frozen): transform of rl_integral vs scaled transform.
    for fname, x0 in (("exp-y", 0.4), ("sine-product", 0.3), ("xyt", 0.7)):
        fld = get_field(fname)
        rates = _fractional_image_rates(fld, "y")
        pts = _seeded_ratio_points(rng, 2, rates)
        for gi, gval in enumerate((0.5, 1.5)):
            vars = pts[gi]
            frozen = {"x": x0, "t": 0.8}

            def integ(x, y, t, _f=fld, _g=gval):
                return rl_integral(_f.smooth, "y", _g, (x, y, t))

            lhs = shehu_1d(
                ExpOrderFn(integ, fld.bound * 8.0, rates, vec=integ),
                "y", vars, cfg, frozen,
            )
            rhs = integral_rule(
                shehu_1d(fld.exp_order(), "y", vars, cfg, frozen), vars, {"y": gval}
            )
            report.add(f"int-1d/{fname}/g{gval}", lhs, rhs)

    # Double-transform rules through forward's tensor rule on the decaying field.
    fld = get_field("exp-xyt")
    for tag, ax_orders in (("int-2d/y", {"y": 0.3}), ("int-2d/x", {"x": 0.5})):
        axis, gval = next(iter(ax_orders.items()))
        rates = _fractional_image_rates(fld, axis)
        vars = _seeded_ratio_points(rng, 1, rates)[0]
        frozen = {"t": 0.5}

        def integ(x, y, t, _ax=axis, _g=gval):
            return rl_integral(fld.smooth, _ax, _g, (x, y, t))

        lhs = shehu_2d(
            ExpOrderFn(integ, fld.bound * 8.0, rates, vec=integ),
            ("x", "y"), vars, cfg, frozen,
        )
        rhs = integral_rule(
            shehu_2d(fld.exp_order(), ("x", "y"), vars, cfg, frozen), vars, ax_orders
        )
        report.add(f"{tag}/exp-xyt/adaptive", lhs, rhs)

    # Remaining double and triple instances ride the separable path;
    # fractional integrals stay numeric (rl_integral on the definition).
    sep_cases = [
        ("int-2d/y", "sine-product", {"y": ("integral", 0.5)}),
        ("int-2d/x", "sine-product", {"x": ("integral", 1.5)}),
        ("int-2d/xy", "exp-xyt", {"x": ("integral", 0.5), "y": ("integral", 1.5)}),
        ("int-2d/xy", "sine-product", {"x": ("integral", 0.3), "y": ("integral", 0.5)}),
        ("int-3d", "exp-xyt", {"t": ("integral", 0.5)}),
        ("int-3d", "sinpix-expt", {"t": ("integral", 0.3)}),
        ("int-3d", "xt", {"t": ("integral", 1.0)}),
        ("int-3d", "const", {"t": ("integral", 0.5)}),
        ("int-3d", "exp-xyt", {"y": ("integral", 0.3)}),
        ("int-3d", "xt", {"y": ("integral", 0.5)}),
        ("int-3d", "sine-product", {"y": ("integral", 1.5)}),
        ("int-3d", "exp-xyt", {"x": ("integral", 0.5)}),
        ("int-3d", "sinpix-expt", {"x": ("integral", 1.5)}),
        ("int-3d", "xt", {"x": ("integral", 0.3)}),
        ("int-3d", "exp-xyt",
         {"x": ("integral", 0.5), "y": ("integral", 0.3), "t": ("integral", 1.0)}),
        ("int-3d", "xyt",
         {"x": ("integral", 1.5), "y": ("integral", 0.5), "t": ("integral", 0.3)}),
        ("int-3d", "const",
         {"x": ("integral", 0.3), "y": ("integral", 1.0), "t": ("integral", 0.5)}),
        ("int-3d", "sinpix-expt",
         {"x": ("integral", 0.5), "y": ("integral", 0.5), "t": ("integral", 0.5)}),
    ]
    for tag, fname, ops in sep_cases:
        fld = get_field(fname)
        vars = _seeded_ratio_points(rng, 1, fld.rates)[0]
        lhs = _sep_transform(fld, vars, ops)
        orders = {ax: spec[1] for ax, spec in ops.items()}
        rhs = integral_rule(_sep_transform(fld, vars), vars, orders)
        order_tag = "-".join(f"{ax}{g:g}" for ax, (_, g) in sorted(ops.items()))
        report.add(f"{tag}/{fname}/{order_tag}", lhs, rhs)


def _suite_operational_derivatives(report: VerificationReport, rng) -> None:
    cfg = QuadratureConfig(rel_tol=1e-9, abs_tol=1e-13, tail_cut_tol=1e-12)

    # Single transform over y of a Caputo derivative in y, forward's tensor rule.
    for fname, gval in (
        ("exp-y", 0.5),
        ("exp-y", 1.5),
        ("sine-product", 0.5),
        ("xyt", 0.7),
    ):
        fld = get_field(fname)
        rates = _fractional_image_rates(fld, "y")
        vars = _seeded_ratio_points(rng, 1, rates)[0]
        frozen = {"x": 0.6, "t": 0.9}

        def deriv(x, y, t, _f=fld, _g=gval):
            return caputo_derivative(_f.smooth, "y", _g, (x, y, t))

        lhs = shehu_1d(
            ExpOrderFn(deriv, fld.bound * 8.0, rates, vec=deriv),
            "y", vars, cfg, frozen,
        )
        order = FracOrder(gval)
        bnd = BoundaryTransforms()
        trace = fld.smooth
        for i in range(order.ceil):
            bnd.put(("y",), (i,), trace.partial_n("y", i)(frozen["x"], 0.0, frozen["t"]))
        rhs = caputo_rule(
            shehu_1d(fld.exp_order(), "y", vars, cfg, frozen),
            vars, {"y": order}, bnd, transform_axes=("y",),
        )
        report.add(f"cap-1d/{fname}/g{gval}", lhs, rhs)

    # Double transform over (x, y), one Caputo axis, forward's tensor rule.
    for fname, axis, gval, tag in (
        ("exp-xyt", "y", 0.5, "cap-2d"),
        ("sine-product", "y", 1.5, "cap-2d"),
        ("exp-xyt", "x", 0.7, "cap-2d"),
        ("sine-product", "x", 1.2, "cap-2d"),
    ):
        fld = get_field(fname)
        rates = _fractional_image_rates(fld, axis)
        vars = _seeded_ratio_points(rng, 1, rates)[0]
        frozen = {"t": 0.5}

        def deriv(x, y, t, _f=fld, _ax=axis, _g=gval):
            return caputo_derivative(_f.smooth, _ax, _g, (x, y, t))

        lhs = shehu_2d(
            ExpOrderFn(deriv, fld.bound * 8.0, rates, vec=deriv),
            ("x", "y"), vars, cfg, frozen,
        )
        order = FracOrder(gval)
        bnd = BoundaryTransforms()
        other = "y" if axis == "x" else "x"
        for i in range(order.ceil):
            trace = fld.smooth.partial_n(axis, i)
            val = shehu_1d(
                fld.trace_exp_order(trace), other, vars, cfg,
                frozen={axis: 0.0, "t": frozen["t"]},
            )
            bnd.put((axis,), (i,), val)
        rhs = caputo_rule(
            shehu_2d(fld.exp_order(), ("x", "y"), vars, cfg, frozen),
            vars, {axis: order}, bnd, transform_axes=("x", "y"),
        )
        report.add(f"{tag}/{fname}/{axis}/g{gval}", lhs, rhs)

    # Triple-transform single-axis Caputo rules on the separable path;
    # boundary transforms by forward's tensor rule.
    sep_cases = [
        ("cap-3d", "t", "t", 0.5),
        ("cap-3d", "t-squared", "t", 1.5),
        ("cap-3d", "exp-t", "t", 0.7),
        ("cap-3d", "exp-t", "t", 1.0),
        ("cap-3d", "xt", "x", 0.5),
        ("cap-3d", "exp-xyt", "x", 1.5),
        ("cap-3d", "xt", "y", 0.5),
        ("cap-3d", "exp-xyt", "y", 0.3),
    ]
    for tag, fname, axis, gval in sep_cases:
        fld = get_field(fname)
        vars = _seeded_ratio_points(rng, 1, fld.rates)[0]
        lhs = _sep_transform(fld, vars, {axis: ("caputo", gval)})
        bnd = boundary_from_quadrature(fld, vars, {axis: gval}, AXES, cfg)
        rhs = caputo_rule(
            _sep_transform(fld, vars), vars, {axis: gval}, bnd, transform_axes=AXES
        )
        report.add(f"{tag}/{fname}/{axis}/g{gval}", lhs, rhs)

    # Full triple-axis rule (consistent-exponent form), orders in (0, 1).
    for fname in ("xyt", "exp-xyt"):
        fld = get_field(fname)
        vars = _seeded_ratio_points(rng, 1, fld.rates)[0]
        orders3 = {"x": 0.4, "y": 0.6, "t": 0.8}
        ops = {ax: ("caputo", g) for ax, g in orders3.items()}
        lhs = _sep_transform(fld, vars, ops)
        bnd = boundary_from_quadrature(fld, vars, orders3, AXES, cfg)
        rhs = caputo_rule(
            _sep_transform(fld, vars), vars, orders3, bnd, transform_axes=AXES
        )
        report.add(f"cap-3d-all/{fname}", lhs, rhs)


def _tensor_transform(fn, vars: RatioPoint, n: int = 20) -> float:
    """Fixed Gauss-Laguerre tensor rule for the triple transform of ``fn``."""
    xi, wi = _gauss_rule(laggauss, n)
    rho = [float(vars.ratio(ax)) for ax in AXES]
    acc = 0.0
    for i in range(n):
        x = xi[i] / rho[0]
        for j in range(n):
            y = xi[j] / rho[1]
            wij = wi[i] * wi[j]
            for k in range(n):
                acc += wij * wi[k] * fn(x, y, xi[k] / rho[2])
    return acc / (rho[0] * rho[1] * rho[2])


def _conv1d_transform(atoms_f, atoms_g, rate: float, rho: float) -> float:
    """Transform of the 1-D numeric convolution of two products of atoms."""
    xi, wi = _gauss_rule(leggauss, 24)

    def conv1d(u: np.ndarray) -> np.ndarray:
        v = 0.5 * u[..., None] * (xi + 1.0)
        vals = _atoms_array(atoms_f, u[..., None] - v) * _atoms_array(atoms_g, v)
        return 0.5 * u * (vals @ wi)

    return _panel_transform(conv1d, rate, rho, 45.0, 1e-10)


def _suite_convolution(report: VerificationReport, rng) -> None:
    cfg = QuadratureConfig(rel_tol=1e-9, abs_tol=1e-13, tail_cut_tol=1e-11)
    pairs = (("exp-xyt", "exp-xyt"), ("exp-xyt", "exp-2xyt"))
    for fname, gname in pairs:
        fld_f, fld_g = get_field(fname), get_field(gname)
        f, g = fld_f.exp_order(), fld_g.exp_order()
        for k in range(3):
            ratios = tuple(float(rng.uniform(1.5, 3.0)) for _ in range(3))
            vars = RatioPoint.from_ratios(*ratios)
            rhs = shehu_3d(f, vars, cfg) * shehu_3d(g, vars, cfg)
            if k == 0:
                # full box convolution under a fixed tensor-rule transform
                conv = convolved_exp_order(f, g, cfg)
                lhs = _tensor_transform(conv.fn, vars)
                tag = "box"
            else:
                # per-axis numeric convolutions, term by term
                lhs = 0.0
                for cf, af in fld_f.smooth.terms:
                    for cg, ag in fld_g.smooth.terms:
                        term = cf * cg
                        for ax, rf, rg in zip(AXES, fld_f.rates, fld_g.rates):
                            term *= _conv1d_transform(
                                _on_axis(af, ax), _on_axis(ag, ax), max(rf, rg),
                                float(vars.ratio(ax)),
                            )
                        lhs += term
                tag = "peraxis"
            report.add(f"product-law/{fname}*{gname}/{tag}{k}", lhs, rhs)


def _suite_ml_kernel(report: VerificationReport, rng) -> None:
    cfg = QuadratureConfig(rel_tol=1e-10, abs_tol=1e-14, tail_cut_tol=1e-12)
    for g, b, c in ((0.5, 1.0, -1.0), (0.8, 1.2, -0.5), (1.0, 1.0, -1.0)):
        fld = ml_kernel_field(g, b, c, axis="y")
        for k in range(2):
            ratio = float(rng.uniform(max(0.6, abs(c) ** (1.0 / g) + 0.2), 2.5))
            vars = RatioPoint.from_ratios(q=ratio)
            lhs = shehu_1d(fld.exp_order(), "y", vars, cfg)
            rhs = analytic_transform("ml_kernel", ratio, gamma=g, beta=b, c=c)
            report.add(f"ml-pair/g{g}b{b}c{c}/pt{k}", lhs, rhs)


def _suite_roundtrip(report: VerificationReport, rng) -> None:
    cfg = DEFAULT_INVERSION
    pairs = [
        ("t", lambda s: 1.0 / (s * s), lambda u: u),
        ("exp-t", lambda s: 1.0 / (s + 1.0), lambda u: math.exp(-u)),
        (
            "ml-half",
            lambda s: s ** -0.5 / (s ** 0.5 + 1.0),
            lambda u: mittag_leffler(MLParams(0.5, 1.0), -math.sqrt(u)),
        ),
    ]
    for name, F, f in pairs:
        for k in range(5):
            u = float(rng.uniform(0.3, 3.0))
            report.add(f"invert1d/{name}/pt{k}", invert_1d(F, u, cfg), f(u))
    F3 = lambda p, q, s: 1.0 / ((p + 1.0) * (q + 1.0) * (s + 1.0))
    for k in range(4):
        pt = tuple(float(rng.uniform(0.4, 1.5)) for _ in range(3))
        lhs = invert_3d(F3, pt, cfg)
        report.add(f"invert3d/exp/pt{k}", lhs, math.exp(-sum(pt)))


_SUITES = {
    "operational-integrals": _suite_operational_integrals,
    "operational-derivatives": _suite_operational_derivatives,
    "convolution": _suite_convolution,
    "ml-kernel": _suite_ml_kernel,
    "roundtrip": _suite_roundtrip,
}


def verify_suite(suite_id: str, tolerance: float, seed: int) -> VerificationReport:
    """Run one named identity suite and return its row-by-row report.

    Instances (test functions, orders, ratio points) are drawn
    deterministically from ``seed``; a suite passes iff every row's
    relative error meets ``tolerance``.  Relative error uses the larger of
    the two side magnitudes as scale, falling back to absolute difference
    below 1e-10.

    Raises:
        UnknownSuite: for unrecognised ``suite_id``.
    """
    try:
        builder = _SUITES[suite_id]
    except KeyError:
        raise UnknownSuite(
            f"unknown suite {suite_id!r}; known: {', '.join(SUITE_IDS)}"
        ) from None
    report = VerificationReport(suite=suite_id, tolerance=tolerance, seed=seed)
    rng = np.random.default_rng(seed)
    builder(report, rng)
    return report
