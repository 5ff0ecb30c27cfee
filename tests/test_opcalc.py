import itertools
import json
import math

import numpy as np
import pytest
from numpy.polynomial.laguerre import laggauss
from numpy.polynomial.legendre import leggauss
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import roots_laguerre

from shehu import forward, fracops, opcalc
from shehu.errors import DomainError, MissingBoundary, QuadratureError, UnknownSuite
from shehu.forward import ExpOrderFn, QuadratureConfig, RatioPoint, shehu_3d
from shehu.fracops import AXES, FracOrder, SmoothFn, caputo_derivative, rl_integral
from shehu.funclib import FieldFn, catalog, get_field
from shehu.opcalc import (
    _CAPUTO_ROWS,
    _RULE_CONFIG,
    BoundaryTransforms,
    _axis_transform,
    _conv1d_transform,
    _fractional_image_rates,
    _gauss_rule,
    _on_axis,
    _panel_transform,
    _sep_transform,
    boundary_from_quadrature,
    caputo_rule,
    convolve_3d,
    integral_rule,
    verify_suite,
)

UNIT = RatioPoint.from_ratios(1.0, 1.0, 1.0)


def _bits(bnd: BoundaryTransforms) -> dict:
    return {key: float(value).hex() for key, value in bnd.entries.items()}


class TestIntegralRule:
    def test_identity_on_zero_orders(self):
        assert integral_rule(3.7, UNIT, {}) == 3.7
        assert integral_rule(3.7, UNIT, {"t": 0.0}) == 3.7

    def test_order_one_unit_ratio(self):
        """Triple transform of the order-1 time integral of 1 at unit ratios."""
        # transform of 1 is 1/(pqs) = 1; the rule leaves it at 1; the
        # integral of 1 is t whose transform is 1/(p q s^2) = 1 as well
        fhat = shehu_3d(get_field("const").exp_order(), UNIT)
        ruled = integral_rule(fhat, UNIT, {"t": 1.0})
        direct = shehu_3d(get_field("t").exp_order(), UNIT)
        assert_allclose(ruled, direct, rtol=1e-8)

    def test_half_order_exponential(self):
        """Rule vs quadrature of the fractional integral, both sides honest."""
        fld = get_field("exp-xyt")
        cfg = QuadratureConfig(rel_tol=1e-9, abs_tol=1e-12, tail_cut_tol=1e-11)
        fhat = shehu_3d(fld.exp_order(), UNIT, cfg)
        ruled = integral_rule(fhat, UNIT, {"t": 0.5})
        assert_allclose(ruled, 0.125, rtol=1e-6)

    @pytest.mark.parametrize("name", sorted(catalog()))
    def test_separable_transform_covers_catalog(self, name):
        """The verification side's per-axis Gauss-Legendre panels agree, on
        every catalog field, with forward's tensor tanh-sinh rule."""
        fld = get_field(name)
        vars = RatioPoint.from_ratios(1.9, 2.3, 2.7)
        cfg = QuadratureConfig(rel_tol=1e-7, abs_tol=1e-11, tail_cut_tol=1e-9)
        assert_allclose(_sep_transform(fld, vars), shehu_3d(fld.exp_order(), vars, cfg),
                        rtol=1e-6)

    def test_scaling_value(self):
        vars = RatioPoint.from_ratios(2.0, 3.0, 4.0)
        got = integral_rule(1.0, vars, {"x": 1.0, "y": 2.0, "t": 0.5})
        assert_allclose(got, 2.0 ** -1 * 3.0 ** -2 * 4.0 ** -0.5, rtol=1e-13)


class TestCaputoRule:
    def test_linear_field_half_order(self):
        """f = t: rule value 1 at unit ratios equals the transform of D^0.5 t."""
        fld = get_field("t")
        fhat = shehu_3d(fld.exp_order(), UNIT)  # 1/(p q s^2) = 1
        bnd = BoundaryTransforms()
        bnd.put(("t",), (0,), 0.0)  # f(x, y, 0) = 0
        got = caputo_rule(fhat, UNIT, {"t": 0.5}, bnd)
        assert_allclose(got, 1.0, rtol=1e-8)
        # independent quadrature of the transform of t^(1/2)/Gamma(3/2)
        direct = shehu_3d(
            get_field("sqrt-t").exp_order(), UNIT
        ) / math.gamma(1.5)
        assert_allclose(got, direct, rtol=1e-7)

    def test_constant_annihilated(self):
        """f = 1: s^g/s - s^(g-1) * 1 = 0 for any g in (0, 1)."""
        for s in (1.0, 2.5):
            vars = RatioPoint.from_ratios(1.0, 1.0, s)
            bnd = BoundaryTransforms()
            bnd.put(("t",), (0,), 1.0 / (1.0 * 1.0))  # 2-D transform of 1
            got = caputo_rule(1.0 / s, vars, {"t": 0.7}, bnd)
            assert abs(got) <= 1e-12

    def test_order_one_reduces_to_classical(self):
        s = 1.7
        vars = RatioPoint.from_ratios(1.0, 1.0, s)
        fhat = 0.123
        bnd = BoundaryTransforms()
        bnd.put(("t",), (0,), 0.456)
        got = caputo_rule(fhat, vars, {"t": 1.0}, bnd)
        assert_allclose(got, s * fhat - 0.456, rtol=1e-13)

    def test_missing_boundary(self):
        with pytest.raises(MissingBoundary):
            caputo_rule(1.0, UNIT, {"t": 1.5}, BoundaryTransforms())

    def test_boundary_builder_covers_triple_rule(self):
        fld = get_field("exp-xyt")
        orders = {"x": 0.4, "y": 0.6, "t": 0.8}
        bnd = boundary_from_quadrature(fld, UNIT, orders)
        # faces, edges, corner: 3 + 3 + 1 entries at ceiling 1 each
        assert len(bnd.entries) == 7
        got = caputo_rule(0.125, UNIT, orders, bnd)
        assert math.isfinite(complex(got).real)

    def test_boundary_with_frozen_axes_matches_hand_built(self):
        """``frozen`` holds the untransformed axes where the rule's transform
        holds them: trace values for a 1-D rule, 1-D trace transforms for a
        2-D one, equal bit for bit to the entries built by hand."""
        cfg = QuadratureConfig(rel_tol=1e-9, abs_tol=1e-13, tail_cut_tol=1e-12)
        vars = RatioPoint.from_ratios(1.9, 2.3, 2.7)
        for fname in ("exp-y", "sine-product", "xyt"):
            fld = get_field(fname)
            frozen = {"x": 0.6, "t": 0.9}
            hand = BoundaryTransforms()
            for i in range(2):
                hand.put(("y",), (i,), fld.smooth.partial_n("y", i)(0.6, 0.0, 0.9))
            got = boundary_from_quadrature(fld, vars, {"y": 1.5}, ("y",), cfg, frozen)
            assert _bits(got) == _bits(hand)
        for fname, axis, other in (("exp-xyt", "y", "x"), ("sine-product", "x", "y")):
            fld = get_field(fname)
            hand = BoundaryTransforms()
            for i in range(2):
                trace = fld.smooth.partial_n(axis, i)
                hand.put((axis,), (i,), forward.shehu_1d(
                    fld.trace_exp_order(trace), other, vars, cfg,
                    frozen={axis: 0.0, "t": 0.5}))
            got = boundary_from_quadrature(fld, vars, {axis: 1.2}, ("x", "y"), cfg,
                                           {"t": 0.5})
            assert _bits(got) == _bits(hand)

    def test_boundary_without_frozen_axes_unchanged(self):
        """``frozen=None`` holds only the boundary axes, at zero."""
        fld = get_field("exp-xyt")
        orders = {"x": 0.4, "y": 0.6, "t": 0.8}
        vars = RatioPoint.from_ratios(1.9, 2.3, 2.7)
        hand = BoundaryTransforms()
        for r in (1, 2, 3):
            for subset in itertools.combinations(AXES, r):
                held = {ax: 0.0 for ax in subset}
                rest = [ax for ax in AXES if ax not in subset]
                eo = fld.trace_exp_order(fld.smooth)
                if len(rest) == 2:
                    value = forward.shehu_2d(eo, tuple(rest), vars, frozen=held)
                elif len(rest) == 1:
                    value = forward.shehu_1d(eo, rest[0], vars, frozen=held)
                else:
                    value = fld.smooth(0.0, 0.0, 0.0)
                hand.put(subset, (0,) * r, value)
        assert _bits(boundary_from_quadrature(fld, vars, orders)) == _bits(hand)
        got = boundary_from_quadrature(fld, vars, orders, AXES, forward.DEFAULT_QUADRATURE,
                                       None)
        assert _bits(got) == _bits(hand)

    def test_diff_axis_must_be_transformed(self):
        with pytest.raises(ValueError):
            caputo_rule(1.0, UNIT, {"t": 0.5}, BoundaryTransforms(),
                        transform_axes=("x", "y"))


class TestConvolve:
    def test_unit_cube(self):
        f = get_field("const").exp_order()
        assert_allclose(convolve_3d(f, f, (1.0, 1.0, 1.0)), 1.0, rtol=1e-10)

    def test_volume_scaling(self):
        f = get_field("const").exp_order()
        assert_allclose(convolve_3d(f, f, (0.5, 2.0, 1.5)), 1.5, rtol=1e-10)

    def test_symmetry(self):
        """f *** g = g *** f on mixed exponential factors."""
        f = get_field("exp-xyt").exp_order()
        g = get_field("exp-2xyt").exp_order()
        a = convolve_3d(f, g, (1.0, 1.0, 1.0))
        b = convolve_3d(g, f, (1.0, 1.0, 1.0))
        assert_allclose(a, b, rtol=1e-9)

    def test_exponential_closed_form(self):
        """(e^-u * e^-u)(u) = u e^-u per axis."""
        f = get_field("exp-xyt").exp_order()
        pt = (1.0, 2.0, 0.5)
        ref = math.prod(u * math.exp(-u) for u in pt)
        assert_allclose(convolve_3d(f, f, pt), ref, rtol=1e-10)

    def test_zero_face(self):
        f = get_field("exp-xyt").exp_order()
        assert convolve_3d(f, f, (0.0, 1.0, 1.0)) == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_point_outside_domain_is_refused(self, bad):
        f = get_field("exp-xyt").exp_order()
        with pytest.raises(DomainError):
            convolve_3d(f, f, (1.0, bad, 0.5))

    def test_unresolved_oscillation_is_refused(self):
        """sin(200 u) on [0, 1] is not resolved by 38 Gauss nodes per axis."""
        f = ExpOrderFn(lambda x, y, t: np.sin(200.0 * x), 1.0)
        g = get_field("const").exp_order()
        with pytest.raises(QuadratureError, match="failed to stabilize"):
            convolve_3d(f, g, (1.0, 1.0, 1.0))

    def test_product_law_at_unit_ratios(self):
        """Transform of f***f at unit ratios equals (transform of f)^2 = 0.125^2."""
        cfg = QuadratureConfig(rel_tol=1e-8, abs_tol=1e-12, tail_cut_tol=1e-10)
        f = get_field("exp-xyt").exp_order()
        conv = np.vectorize(lambda x, y, t: convolve_3d(f, f, (x, y, t), cfg),
                            otypes=[float])
        # fixed tensor rule on the convolution side (adaptive nesting over
        # a triple-quadrature integrand is far outside test budgets)
        from shehu.opcalc import _tensor_transform

        lhs = _tensor_transform(conv, UNIT, n=16)
        assert_allclose(lhs, 0.015625, rtol=1e-6)
        vars = RatioPoint.from_ratios(2.0, 2.0, 2.0)
        lhs2 = _tensor_transform(conv, vars)
        rhs2 = shehu_3d(f, vars, cfg) ** 2
        assert_allclose(lhs2, rhs2, rtol=1e-6)


def test_caputo_boundary_traces_obey_their_certificates(monkeypatch):
    """Every derivative trace that ``boundary_from_quadrature`` transforms for
    the Caputo rule rows is bounded by its trace certificate."""
    built = []
    trace_exp_order = FieldFn.trace_exp_order

    def spy(fld, smooth):
        eo = trace_exp_order(fld, smooth)
        built.append((fld.name, eo))
        return eo

    monkeypatch.setattr(FieldFn, "trace_exp_order", spy)
    vars = RatioPoint.from_ratios(2.0, 2.0, 2.0)
    for _, fname, orders, frozen in _CAPUTO_ROWS:
        axes = tuple(ax for ax in AXES if ax not in (frozen or {}))
        boundary_from_quadrature(get_field(fname), vars, orders, axes, _RULE_CONFIG, frozen)
    pts = np.random.default_rng(17).uniform(0.0, 4.0, size=(200, 3))
    assert len(built) > len(_CAPUTO_ROWS)
    for name, eo in built:
        assert eo.certificate_holds(pts), name


class TestGaussRules:
    @pytest.mark.parametrize("n", [7, 15, 24])
    def test_legendre_integrates_degree_2n_minus_1(self, n):
        """int_-1^1 x^k dx = 2/(k+1) for even k, 0 for odd k, for every k <= 2n-1."""
        x, w = _gauss_rule(leggauss, n)
        for k in range(2 * n):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(float(w @ x ** k) - exact) <= 1e-14, k

    def test_laguerre_moments(self):
        """int_0^inf x^k e^-x dx = k! for k <= 20."""
        x, w = _gauss_rule(laggauss, 20)
        for k in range(21):
            assert_allclose(float(w @ x ** k), math.factorial(k), rtol=1e-13)

    def test_laguerre_matches_scipy(self):
        x, w = _gauss_rule(laggauss, 20)
        xs, ws = roots_laguerre(20)
        assert_allclose(x, xs, rtol=2e-13, atol=0.0)
        assert_allclose(w, ws, rtol=2e-13, atol=0.0)


class TestPanelTransform:
    @pytest.mark.parametrize("a", [0.3, -0.5, -0.8])
    def test_power_closed_form(self, a):
        """int_0^inf e^(-rho u) u^a du = Gamma(1+a) / rho^(1+a), singular a included."""
        rho = 1.3
        got = _panel_transform(lambda u: u ** a, 0.0, rho, 40.0, 1e-13)
        assert_allclose(got, math.gamma(1.0 + a) / rho ** (1.0 + a), rtol=1e-12)

    def test_corner_panel_is_split_geometrically(self):
        """u^0.3 takes at most 6 sweeps, one integrand call each: the panel at
        u = 0 is cut at hi 2^-8, ..., hi/2 at once, not bisected sweep by sweep."""
        rho, calls = 1.3, []

        def integrand(u):
            calls.append(u.shape)
            return u ** 0.3

        got = _panel_transform(integrand, 0.0, rho, 40.0, 1e-13)
        assert len(calls) <= 6
        assert_allclose(got, math.gamma(1.3) / rho ** 1.3, rtol=1e-13)

    def test_long_oscillatory_range(self):
        """sin(pi u) at rho = 0.55, where the cut U = 40 / rho is about 73."""
        rho = 0.55
        got = _panel_transform(lambda u: np.sin(np.pi * u), 0.0, rho, 40.0, 1e-13)
        assert_allclose(got, math.pi / (rho ** 2 + math.pi ** 2), rtol=1e-14)

    @pytest.mark.parametrize(
        "integrand, rate, rho",
        [
            (lambda u: u ** -0.95, 0.0, 1.3),  # corner panel needs over 300 bisections
            (lambda u: np.sin(1e4 * u), 0.0, 1.3),
            (lambda u: np.full_like(u, math.nan), 0.0, 1.3),
            (lambda u: u, 1.3, 1.3),
        ],
        ids=["power-cap", "oscillation", "nan", "rho-inside-rate"],
    )
    def test_refusals_are_typed(self, integrand, rate, rho):
        with pytest.raises(QuadratureError):
            _panel_transform(integrand, rate, rho, 40.0, 1e-13)

    @pytest.mark.parametrize("order", [0.3, 0.5, 1.5])
    @pytest.mark.parametrize(
        "fname, axis, rho",
        [("sine-product", "y", 0.55), ("sinpix-expt", "x", 0.9),
         ("exp-xyt", "t", 0.7), ("xyt", "t", 1.2)],
    )
    def test_axis_transform_matches_quadpack(self, fname, axis, rho, order):
        """Fractional-image transforms against QUADPACK over scalar rl_integral calls."""
        fld = get_field(fname)
        atoms = _on_axis(fld.smooth.terms[0][1], axis)
        rate = fld.rates[AXES.index(axis)]
        term = SmoothFn([(1.0, atoms)])

        def integrand(u):
            point = tuple(u if ax == axis else 0.0 for ax in AXES)
            return math.exp(-rho * u) * rl_integral(term, axis, order, point)

        gap = rho - max(rate, 0.0)
        ref = quad(integrand, 0.0, 40.0 / gap, epsabs=1e-14, epsrel=1e-11, limit=300)[0]
        assert_allclose(_axis_transform(atoms, axis, rate, rho, order), ref, rtol=1e-12)


@pytest.mark.parametrize("fname, ops", [
    ("exp-xyt", {"y": ("integral", 0.3)}),
    ("sinpix-expt", {"x": ("caputo", 1.5)}),
    ("sine-product", {"x": ("integral", 0.3), "y": ("integral", 0.5)}),
])
def test_axis_factors_are_computed_once_per_row(fname, ops, monkeypatch):
    """A rule row's image and field transforms share each axis factor, and
    the values are those of two separate calls, bit for bit."""
    fld, vars = get_field(fname), RatioPoint.from_ratios(1.9, 2.3, 2.7)
    alone = (_sep_transform(fld, vars, ops), _sep_transform(fld, vars))
    calls = []
    axis_transform = opcalc._axis_transform

    def counted(atoms, axis, *args):
        calls.append((axis, atoms) + args)
        return axis_transform(atoms, axis, *args)

    monkeypatch.setattr(opcalc, "_axis_transform", counted)
    factors = {}
    shared = (_sep_transform(fld, vars, ops, factors), _sep_transform(fld, vars, None, factors))
    assert [v.hex() for v in shared] == [v.hex() for v in alone]
    assert len(calls) == len(set(calls)) == 3 + len(ops)


def test_verification_runs_without_quadpack(monkeypatch):
    """No QUADPACK call is left at run time on the operational or convolution paths."""

    def refuse(*args, **kwargs):
        raise AssertionError("QUADPACK called")

    for mod in (forward, fracops, opcalc):
        monkeypatch.setattr(mod, "quad", refuse)
    for suite, tol in (("operational-integrals", 1e-6), ("operational-derivatives", 1e-5)):
        rep = verify_suite(suite, tol, 42)
        assert rep.passed, [r for r in rep.rows if not r.passed]
    # (e^-u * e^-2u) transforms to 1 / ((rho + 1)(rho + 2))
    f_atoms = _on_axis(get_field("exp-xyt").smooth.terms[0][1], "x")
    g_atoms = _on_axis(get_field("exp-2xyt").smooth.terms[0][1], "x")
    rho = 1.7
    got = _conv1d_transform(f_atoms, g_atoms, -1.0, rho)
    assert_allclose(got, 1.0 / ((rho + 1.0) * (rho + 2.0)), rtol=1e-10)


class TestVerifySuites:
    def test_unknown_suite(self):
        with pytest.raises(UnknownSuite):
            verify_suite("bogus", 1e-6, 1)

    def test_roundtrip_suite_passes(self):
        rep = verify_suite("roundtrip", 1e-6, 42)
        assert rep.passed and len(rep.rows) >= 19

    def test_ml_kernel_suite_passes(self):
        rep = verify_suite("ml-kernel", 1e-6, 42)
        assert rep.passed and len(rep.rows) >= 6

    def test_impossible_tolerance_fails(self):
        rep = verify_suite("roundtrip", 1e-30, 42)
        assert not rep.passed
        assert any(not r.passed for r in rep.rows)

    def test_report_serialization(self):
        rep = verify_suite("ml-kernel", 1e-6, 7)
        lines = rep.to_lines()
        assert len(lines) == len(rep.rows)
        for line in lines:
            row = json.loads(line)
            assert set(row) == {"id", "lhs", "rhs", "rel_err", "pass"}
        # sorted by id and deterministic across runs
        assert lines == sorted(lines, key=lambda l: json.loads(l)["id"])
        rep2 = verify_suite("ml-kernel", 1e-6, 7)
        assert rep2.to_lines() == lines

    def test_operational_integrals_pass(self):
        rep = verify_suite("operational-integrals", 1e-6, 42)
        assert rep.passed, [r for r in rep.rows if not r.passed]
        assert len(rep.rows) >= 24

    def test_operational_derivatives_pass(self):
        rep = verify_suite("operational-derivatives", 1e-5, 42)
        assert rep.passed, [r for r in rep.rows if not r.passed]
        assert len(rep.rows) >= 16

    def test_convolution_suite_passes(self):
        rep = verify_suite("convolution", 1e-5, 42)
        assert rep.passed, [r for r in rep.rows if not r.passed]
        assert len(rep.rows) == 6


# -- reference: the two rule suites as hand-written loops -----------------------
#
# A literal copy of the loops the row tables replaced, kept as the reference
# that pins every row's id and both sides bit for bit.


def _ref_seeded_ratio_points(rng, count, min_gap_rates=(0.0, 0.0, 0.0)):
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


def _ref_suite_operational_integrals(report, rng):
    cfg = QuadratureConfig(rel_tol=1e-9, abs_tol=1e-13, tail_cut_tol=1e-12)

    for fname, x0 in (("exp-y", 0.4), ("sine-product", 0.3), ("xyt", 0.7)):
        fld = get_field(fname)
        rates = _fractional_image_rates(fld, "y")
        pts = _ref_seeded_ratio_points(rng, 2, rates)
        for gi, gval in enumerate((0.5, 1.5)):
            vars = pts[gi]
            frozen = {"x": x0, "t": 0.8}

            def integ(x, y, t, _f=fld, _g=gval):
                return rl_integral(_f.smooth, "y", _g, (x, y, t))

            lhs = forward.shehu_1d(
                ExpOrderFn(integ, fld.bound * 8.0, rates),
                "y", vars, cfg, frozen,
            )
            rhs = integral_rule(
                forward.shehu_1d(fld.exp_order(), "y", vars, cfg, frozen), vars, {"y": gval}
            )
            report.add(f"int-1d/{fname}/g{gval}", lhs, rhs)

    fld = get_field("exp-xyt")
    for tag, ax_orders in (("int-2d/y", {"y": 0.3}), ("int-2d/x", {"x": 0.5})):
        axis, gval = next(iter(ax_orders.items()))
        rates = _fractional_image_rates(fld, axis)
        vars = _ref_seeded_ratio_points(rng, 1, rates)[0]
        frozen = {"t": 0.5}

        def integ(x, y, t, _ax=axis, _g=gval):
            return rl_integral(fld.smooth, _ax, _g, (x, y, t))

        lhs = forward.shehu_2d(
            ExpOrderFn(integ, fld.bound * 8.0, rates),
            ("x", "y"), vars, cfg, frozen,
        )
        rhs = integral_rule(
            forward.shehu_2d(fld.exp_order(), ("x", "y"), vars, cfg, frozen), vars, ax_orders
        )
        report.add(f"{tag}/exp-xyt/adaptive", lhs, rhs)

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
        vars = _ref_seeded_ratio_points(rng, 1, fld.rates)[0]
        lhs = _sep_transform(fld, vars, ops)
        orders = {ax: spec[1] for ax, spec in ops.items()}
        rhs = integral_rule(_sep_transform(fld, vars), vars, orders)
        order_tag = "-".join(f"{ax}{g:g}" for ax, (_, g) in sorted(ops.items()))
        report.add(f"{tag}/{fname}/{order_tag}", lhs, rhs)


def _ref_suite_operational_derivatives(report, rng):
    cfg = QuadratureConfig(rel_tol=1e-9, abs_tol=1e-13, tail_cut_tol=1e-12)

    for fname, gval in (
        ("exp-y", 0.5),
        ("exp-y", 1.5),
        ("sine-product", 0.5),
        ("xyt", 0.7),
    ):
        fld = get_field(fname)
        rates = _fractional_image_rates(fld, "y")
        vars = _ref_seeded_ratio_points(rng, 1, rates)[0]
        frozen = {"x": 0.6, "t": 0.9}

        def deriv(x, y, t, _f=fld, _g=gval):
            return caputo_derivative(_f.smooth, "y", _g, (x, y, t))

        lhs = forward.shehu_1d(
            ExpOrderFn(deriv, fld.bound * 8.0, rates),
            "y", vars, cfg, frozen,
        )
        order = FracOrder(gval)
        bnd = BoundaryTransforms()
        trace = fld.smooth
        for i in range(order.ceil):
            bnd.put(("y",), (i,), trace.partial_n("y", i)(frozen["x"], 0.0, frozen["t"]))
        rhs = caputo_rule(
            forward.shehu_1d(fld.exp_order(), "y", vars, cfg, frozen),
            vars, {"y": order}, bnd, transform_axes=("y",),
        )
        report.add(f"cap-1d/{fname}/g{gval}", lhs, rhs)

    for fname, axis, gval, tag in (
        ("exp-xyt", "y", 0.5, "cap-2d"),
        ("sine-product", "y", 1.5, "cap-2d"),
        ("exp-xyt", "x", 0.7, "cap-2d"),
        ("sine-product", "x", 1.2, "cap-2d"),
    ):
        fld = get_field(fname)
        rates = _fractional_image_rates(fld, axis)
        vars = _ref_seeded_ratio_points(rng, 1, rates)[0]
        frozen = {"t": 0.5}

        def deriv(x, y, t, _f=fld, _ax=axis, _g=gval):
            return caputo_derivative(_f.smooth, _ax, _g, (x, y, t))

        lhs = forward.shehu_2d(
            ExpOrderFn(deriv, fld.bound * 8.0, rates),
            ("x", "y"), vars, cfg, frozen,
        )
        order = FracOrder(gval)
        bnd = BoundaryTransforms()
        other = "y" if axis == "x" else "x"
        for i in range(order.ceil):
            trace = fld.smooth.partial_n(axis, i)
            val = forward.shehu_1d(
                fld.trace_exp_order(trace), other, vars, cfg,
                frozen={axis: 0.0, "t": frozen["t"]},
            )
            bnd.put((axis,), (i,), val)
        rhs = caputo_rule(
            forward.shehu_2d(fld.exp_order(), ("x", "y"), vars, cfg, frozen),
            vars, {axis: order}, bnd, transform_axes=("x", "y"),
        )
        report.add(f"{tag}/{fname}/{axis}/g{gval}", lhs, rhs)

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
        vars = _ref_seeded_ratio_points(rng, 1, fld.rates)[0]
        lhs = _sep_transform(fld, vars, {axis: ("caputo", gval)})
        bnd = boundary_from_quadrature(fld, vars, {axis: gval}, AXES, cfg)
        rhs = caputo_rule(
            _sep_transform(fld, vars), vars, {axis: gval}, bnd, transform_axes=AXES
        )
        report.add(f"{tag}/{fname}/{axis}/g{gval}", lhs, rhs)

    for fname in ("xyt", "exp-xyt"):
        fld = get_field(fname)
        vars = _ref_seeded_ratio_points(rng, 1, fld.rates)[0]
        orders3 = {"x": 0.4, "y": 0.6, "t": 0.8}
        ops = {ax: ("caputo", g) for ax, g in orders3.items()}
        lhs = _sep_transform(fld, vars, ops)
        bnd = boundary_from_quadrature(fld, vars, orders3, AXES, cfg)
        rhs = caputo_rule(
            _sep_transform(fld, vars), vars, orders3, bnd, transform_axes=AXES
        )
        report.add(f"cap-3d-all/{fname}", lhs, rhs)


RULE_ROW_IDS = {
    "operational-integrals": [
        "int-1d/exp-y/g0.5", "int-1d/exp-y/g1.5", "int-1d/sine-product/g0.5",
        "int-1d/sine-product/g1.5", "int-1d/xyt/g0.5", "int-1d/xyt/g1.5",
        "int-2d/y/exp-xyt/adaptive", "int-2d/x/exp-xyt/adaptive",
        "int-2d/y/sine-product/y0.5", "int-2d/x/sine-product/x1.5",
        "int-2d/xy/exp-xyt/x0.5-y1.5", "int-2d/xy/sine-product/x0.3-y0.5",
        "int-3d/exp-xyt/t0.5", "int-3d/sinpix-expt/t0.3", "int-3d/xt/t1",
        "int-3d/const/t0.5", "int-3d/exp-xyt/y0.3", "int-3d/xt/y0.5",
        "int-3d/sine-product/y1.5", "int-3d/exp-xyt/x0.5", "int-3d/sinpix-expt/x1.5",
        "int-3d/xt/x0.3", "int-3d/exp-xyt/t1-x0.5-y0.3", "int-3d/xyt/t0.3-x1.5-y0.5",
        "int-3d/const/t0.5-x0.3-y1", "int-3d/sinpix-expt/t0.5-x0.5-y0.5",
    ],
    "operational-derivatives": [
        "cap-1d/exp-y/g0.5", "cap-1d/exp-y/g1.5", "cap-1d/sine-product/g0.5",
        "cap-1d/xyt/g0.7", "cap-2d/exp-xyt/y/g0.5", "cap-2d/sine-product/y/g1.5",
        "cap-2d/exp-xyt/x/g0.7", "cap-2d/sine-product/x/g1.2", "cap-3d/t/t/g0.5",
        "cap-3d/t-squared/t/g1.5", "cap-3d/exp-t/t/g0.7", "cap-3d/exp-t/t/g1.0",
        "cap-3d/xt/x/g0.5", "cap-3d/exp-xyt/x/g1.5", "cap-3d/xt/y/g0.5",
        "cap-3d/exp-xyt/y/g0.3", "cap-3d-all/xyt", "cap-3d-all/exp-xyt",
    ],
}


@pytest.mark.parametrize("suite", sorted(RULE_ROW_IDS))
def test_rule_rows_match_hand_written_loops(suite):
    """The row tables and their one recipe reproduce the hand-written loops:
    same ids in the same order, and both sides of every row equal."""
    got = verify_suite(suite, 1e-5, 42)
    ref = opcalc.VerificationReport(suite, 1e-5, 42)
    reference = {"operational-integrals": _ref_suite_operational_integrals,
                 "operational-derivatives": _ref_suite_operational_derivatives}[suite]
    reference(ref, np.random.default_rng(42))
    assert [r.id for r in got.rows] == RULE_ROW_IDS[suite]
    assert [(r.id, r.lhs, r.rhs) for r in got.rows] == [
        (r.id, r.lhs, r.rhs) for r in ref.rows]
