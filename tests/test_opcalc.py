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
from shehu.errors import MissingBoundary, QuadratureError, UnknownSuite
from shehu.forward import QuadratureConfig, RatioPoint, shehu_3d
from shehu.fracops import AXES, SmoothFn, rl_integral
from shehu.funclib import catalog, get_field
from shehu.opcalc import (
    BoundaryTransforms,
    _axis_transform,
    _conv1d_transform,
    _gauss_rule,
    _on_axis,
    _panel_transform,
    _sep_transform,
    boundary_from_quadrature,
    caputo_rule,
    convolve_3d,
    convolved_exp_order,
    integral_rule,
    verify_suite,
)

UNIT = RatioPoint.from_ratios(1.0, 1.0, 1.0)


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

    def test_product_law_at_unit_ratios(self):
        """Transform of f***f at unit ratios equals (transform of f)^2 = 0.125^2."""
        cfg = QuadratureConfig(rel_tol=1e-8, abs_tol=1e-12, tail_cut_tol=1e-10)
        f = get_field("exp-xyt").exp_order()
        conv = convolved_exp_order(f, f, cfg)
        # fixed tensor rule on the convolution side (adaptive nesting over
        # a triple-quadrature integrand is far outside test budgets)
        from shehu.opcalc import _tensor_transform

        lhs = _tensor_transform(conv.fn, UNIT, n=16)
        assert_allclose(lhs, 0.015625, rtol=1e-6)
        vars = RatioPoint.from_ratios(2.0, 2.0, 2.0)
        lhs2 = _tensor_transform(conv.fn, vars)
        rhs2 = shehu_3d(f, vars, cfg) ** 2
        assert_allclose(lhs2, rhs2, rtol=1e-6)


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
