import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from shehu.errors import DivergenceError, DomainError, QuadratureError
from shehu.forward import (
    ExpOrderFn,
    QuadratureConfig,
    RatioPoint,
    analytic_transform,
    shehu_1d,
    shehu_2d,
    shehu_3d,
)
from shehu.fracops import caputo_derivative
from shehu.funclib import catalog, get_field, ml_kernel_field, power_field

UNIT = RatioPoint.from_ratios(1.0, 1.0, 1.0)
PI = math.pi


class TestRatioPoint:
    def test_ratio_only_dependence(self):
        a = RatioPoint(t=(2.0, 1.0))
        b = RatioPoint(t=(4.0, 2.0))
        assert a.ratio("t") == b.ratio("t") == 2.0

    def test_zero_divisor_rejected(self):
        with pytest.raises(ValueError):
            RatioPoint(x=(1.0, 0.0))

    def test_from_ratios(self):
        v = RatioPoint.from_ratios(1.5, 2.5, 3.5)
        assert tuple(v.ratio(ax) for ax in "xyt") == (1.5, 2.5, 3.5)


class TestQuadratureConfig:
    def test_defaults(self):
        cfg = QuadratureConfig()
        assert cfg.rel_tol == 1e-10
        assert cfg.abs_tol == 1e-14

    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("name", ["rel_tol", "abs_tol", "tail_cut_tol"])
    def test_tolerance_outside_zero_to_inf_refused(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite and positive"):
            QuadratureConfig(**{name: value})


class TestCertificate:
    def test_certificate_holds_on_catalog(self):
        rng = np.random.default_rng(5)
        pts = [tuple(rng.uniform(0.0, 4.0, size=3)) for _ in range(50)]
        for name in ("const", "t", "xt", "xyt", "exp-xyt", "exp-y",
                     "sine-product", "sinpix-expt", "t-squared", "sqrt-t"):
            assert get_field(name).exp_order().certificate_holds(pts), name

    def test_certificate_fails_when_the_bound_is_too_small(self):
        """t <= e^(t/2) holds everywhere, 0.5 t <= e^(t/2) fails near t = 2."""
        rng = np.random.default_rng(5)
        pts = [tuple(rng.uniform(0.0, 4.0, size=3)) for _ in range(50)]
        fld = get_field("t")
        assert ExpOrderFn(fld.smooth, 1.0, fld.rates).certificate_holds(pts)
        assert not ExpOrderFn(fld.smooth, 0.5, fld.rates).certificate_holds(pts)


class TestSingleAxis:
    def test_constant(self):
        f = get_field("const").exp_order()
        got = shehu_1d(f, "t", RatioPoint(t=(2.0, 1.0)))
        assert_allclose(got, 0.5, rtol=1e-10)

    def test_linear(self):
        got = shehu_1d(get_field("t").exp_order(), "t", UNIT)
        assert_allclose(got, 1.0, rtol=1e-10)

    def test_sine(self):
        got = shehu_1d(get_field("sin-pit").exp_order(), "t", UNIT)
        assert_allclose(got, PI / (1.0 + PI * PI), rtol=1e-9)

    def test_divergence_when_ratio_below_rate(self):
        with pytest.raises(DivergenceError):
            shehu_1d(get_field("t").exp_order(), "t", RatioPoint(t=(0.4, 1.0)))

    @pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
    def test_scale_invariance(self, lam):
        f = get_field("exp-t").exp_order()
        base = shehu_1d(f, "t", RatioPoint(t=(1.7, 1.0)))
        scaled = shehu_1d(f, "t", RatioPoint(t=(1.7 * lam, lam)))
        assert_allclose(scaled, base, rtol=1e-10)

    def test_linearity(self):
        f = get_field("exp-t").exp_order()
        g = get_field("sin-pit").exp_order()
        combo = ExpOrderFn(
            fn=lambda x, y, t: 2.0 * f.fn(x, y, t) - 3.0 * g.fn(x, y, t),
            bound=5.0,
            rates=(0.0, 0.0, 0.0),
        )
        vars = RatioPoint(t=(1.3, 1.0))
        lhs = shehu_1d(combo, "t", vars)
        rhs = 2.0 * shehu_1d(f, "t", vars) - 3.0 * shehu_1d(g, "t", vars)
        assert_allclose(lhs, rhs, rtol=1e-10)


class TestMultiAxis:
    def test_2d_constant(self):
        got = shehu_2d(get_field("const").exp_order(), ("x", "y"), UNIT)
        assert_allclose(got, 1.0, rtol=1e-9)

    def test_2d_sine_product(self):
        """Initial-plane transform: pi^2 / ((p^2+pi^2)(q^2+pi^2)) at p=q=1."""
        got = shehu_2d(get_field("sine-product").exp_order(), ("x", "y"), UNIT)
        assert_allclose(got, PI * PI / (1.0 + PI * PI) ** 2, rtol=1e-9)

    def test_2d_exp_y(self):
        """Initial-plane transform 1/(p(q+1)) = 0.5 at unit ratios."""
        got = shehu_2d(get_field("exp-y").exp_order(), ("x", "y"), UNIT)
        assert_allclose(got, 0.5, rtol=1e-9)

    def test_3d_product_exponential(self):
        got = shehu_3d(get_field("exp-xyt").exp_order(), UNIT)
        assert_allclose(got, 0.125, rtol=1e-9)

    def test_3d_ratio_only(self):
        got = shehu_3d(
            get_field("exp-xyt").exp_order(), RatioPoint(x=(4.0, 2.0))
        )
        assert_allclose(got, (1.0 / 3.0) * 0.25, rtol=1e-9)

    def test_3d_xyt(self):
        got = shehu_3d(get_field("xyt").exp_order(), UNIT)
        assert_allclose(got, 1.0, rtol=1e-8)


# Each catalog field written out from its definition with ``math``, one
# float call per point: a reference that shares no code with funclib.
_CLOSED_FORMS = {
    "const": lambda x, y, t: 1.0,
    "t": lambda x, y, t: t,
    "t-squared": lambda x, y, t: t * t,
    "sqrt-t": lambda x, y, t: math.sqrt(t),
    "xt": lambda x, y, t: x * t,
    "xyt": lambda x, y, t: x * y * t,
    "exp-xyt": lambda x, y, t: math.exp(-x) * math.exp(-y) * math.exp(-t),
    "exp-2xyt": lambda x, y, t: math.exp(-2.0 * x) * math.exp(-2.0 * y) * math.exp(-2.0 * t),
    "exp-y": lambda x, y, t: math.exp(-y),
    "exp-t": lambda x, y, t: math.exp(-t),
    "sine-product": lambda x, y, t: math.sin(PI * x) * math.sin(PI * y),
    "sin-pit": lambda x, y, t: math.sin(PI * t),
    "sinpix-expt": lambda x, y, t: math.sin(PI * x) * math.exp(-t),
}


def _looped(name: str) -> ExpOrderFn:
    """The catalog field ``name`` as its closed form, evaluated point by point."""
    f = get_field(name)
    return ExpOrderFn(np.frompyfunc(_CLOSED_FORMS[name], 3, 1), f.bound, f.rates)


class TestTensorRule:
    @pytest.mark.parametrize(
        "fld, ref",
        [
            (power_field(-0.5), analytic_transform("power", 1.3, nu=-0.5)),
            (power_field(-0.9), analytic_transform("power", 1.3, nu=-0.9)),
            (ml_kernel_field(0.5, 0.5, -1.0, axis="t"),
             analytic_transform("ml_kernel", 1.3, gamma=0.5, beta=0.5, c=-1.0)),
        ],
        ids=["power-0.5", "power-0.9", "ml-kernel-0.5-0.5"],
    )
    def test_singular_at_origin(self, fld, ref):
        got = shehu_1d(fld.exp_order(), "t", RatioPoint(t=(1.3, 1.0)))
        assert_allclose(got, ref, rtol=1e-12)

    @pytest.mark.parametrize("name", sorted(catalog()))
    def test_array_evaluator_matches_scalar_loop(self, name):
        """1-D and 2-D transforms of each catalog field agree with those of
        its closed form looped point by point; in 3-D the two agree on a
        grid of the rule's nodes."""
        f, ref = get_field(name).exp_order(), _looped(name)
        vars = RatioPoint.from_ratios(1.9, 2.3, 2.7)
        got = shehu_1d(f, "t", vars, frozen={"x": 0.4, "y": 0.7})
        assert_allclose(got, shehu_1d(ref, "t", vars, frozen={"x": 0.4, "y": 0.7}),
                        rtol=1e-13, atol=0.0)
        got = shehu_2d(f, ("x", "y"), vars, frozen={"t": 0.6})
        assert_allclose(got, shehu_2d(ref, ("x", "y"), vars, frozen={"t": 0.6}),
                        rtol=1e-13, atol=0.0)
        u = np.linspace(0.0, 6.0, 13)
        grid = (u[:, None, None], u[None, :, None], u[None, None, :])
        assert_allclose(f.array(*grid), ref.array(*grid), rtol=1e-13, atol=1e-300)

    def test_unresolved_oscillation_is_refused(self):
        """sin(1e4 u) over a box of length 32 needs a finer step than level 7."""
        f = ExpOrderFn(fn=lambda x, y, t: np.sin(1e4 * t), bound=1.0)
        with pytest.raises(QuadratureError):
            shehu_1d(f, "t", UNIT)

    def test_nonfinite_integrand_is_refused(self):
        """A NaN stops the rule at its first level, not after the last."""
        f = ExpOrderFn(fn=lambda x, y, t: np.where(t > 1.0, math.nan, 1.0), bound=1.0)
        with pytest.raises(QuadratureError, match="non-finite quadrature result"):
            shehu_1d(f, "t", UNIT)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("dims", [1, 2, 3])
    def test_nonfinite_ratio_refused_before_any_evaluation(self, dims, bad):
        calls = []

        def spy(x, y, t):
            calls.append(1)
            return np.ones(np.broadcast(x, y, t).shape)

        f = ExpOrderFn(fn=spy, bound=1.0)
        vars = RatioPoint.from_ratios(*[2.0] * (dims - 1), bad)
        axis = "xyt"[dims - 1]
        transform = {1: lambda: shehu_1d(f, "x", vars),
                     2: lambda: shehu_2d(f, ("x", "y"), vars),
                     3: lambda: shehu_3d(f, vars)}[dims]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match=f"^ratio {bad} on axis '{axis}' must be finite$"):
                transform()
        assert calls == []

    def test_evaluation_blocks_are_capped(self):
        sizes = []
        base = get_field("exp-xyt").exp_order()

        def spy(x, y, t):
            sizes.append(np.broadcast(x, y, t).size)
            return base.fn(x, y, t)

        f = ExpOrderFn(fn=spy, bound=base.bound, rates=base.rates)
        assert_allclose(shehu_3d(f, UNIT), 0.125, rtol=1e-12)
        assert len(sizes) > 1 and max(sizes) <= 2 ** 16


class TestBroadcastContract:
    """A field is a callable on broadcast arrays, called once per block."""

    def test_broadcasting_caputo_field_is_called_per_block(self):
        """A Caputo derivative under a 1-D transform, as the benchmark's
        cap-1d rows build it: one call per level's block of nodes, values
        equal to per-node calls."""
        smooth = get_field("sine-product").smooth
        sizes = []

        def deriv(x, y, t):
            sizes.append(np.broadcast(x, y, t).size)
            return caputo_derivative(smooth, "y", 0.5, (x, y, t))

        f = ExpOrderFn(deriv, 8.0, (0.0, 0.3, 0.0))
        vars, frozen = RatioPoint.from_ratios(q=1.7), {"x": 0.6, "t": 0.9}
        got = shehu_1d(f, "y", vars, frozen=frozen)
        assert 2 <= len(sizes) <= 8 and min(sizes) > 1
        looped = ExpOrderFn(np.frompyfunc(deriv, 3, 1), f.bound, f.rates)
        assert_allclose(got, shehu_1d(looped, "y", vars, frozen=frozen), rtol=1e-13, atol=0.0)
        u = np.linspace(0.0, 5.0, 11)
        expect = [caputo_derivative(smooth, "y", 0.5, (0.6, v, 0.9)) for v in u.tolist()]
        assert_allclose(f.array(0.6, u, 0.9), expect, rtol=1e-13, atol=0.0)

    def test_scalar_only_callable_wrapped_with_frompyfunc(self):
        """math functions refuse arrays; frompyfunc evaluates them node by node."""
        f = ExpOrderFn(np.frompyfunc(lambda x, y, t: math.sin(PI * x) * math.exp(-t), 3, 1),
                       1.0, (0.0, 0.0, -1.0))
        vars = RatioPoint.from_ratios(1.3, 1.0, 0.8)
        got = shehu_1d(f, "t", vars, frozen={"x": 0.5})
        assert_allclose(got, 1.0 / 1.8, rtol=1e-10)
        got = shehu_2d(f, ("x", "t"), vars)
        assert_allclose(got, PI / (1.3 ** 2 + PI ** 2) / 1.8, rtol=1e-10)

    def test_result_that_does_not_broadcast_is_refused(self):
        f = ExpOrderFn(lambda x, y, t: np.ones(3), 1.0)
        with pytest.raises(DomainError):
            shehu_1d(f, "t", UNIT)
        with pytest.raises(DomainError):
            f.certificate_holds([(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)])


class TestAnalyticTransform:
    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.5])
    def test_power_matches_quadrature(self, nu):
        ref = analytic_transform("power", 1.0, nu=nu)
        got = shehu_1d(power_field(nu).exp_order(), "t", UNIT)
        assert_allclose(got, ref, rtol=1e-8)

    def test_power_value(self):
        assert_allclose(
            analytic_transform("power", 1.0, nu=0.5), math.gamma(1.5), rtol=1e-13
        )

    def test_power_domain(self):
        with pytest.raises(DomainError):
            analytic_transform("power", 1.0, nu=-1.0)

    def test_sin_cos_exp(self):
        """sin has its closed form; cos and exp are not kinds of this table."""
        assert_allclose(analytic_transform("sin", 1.0, omega=PI),
                        PI / (1 + PI * PI), rtol=1e-13)
        for kind, params in (("cos", {"omega": 1.0}), ("exp", {"rate": -1.0})):
            with pytest.raises(DomainError, match=f"unknown analytic transform kind '{kind}'"):
                analytic_transform(kind, 2.0, **params)

    def test_ml_kernel_classical_case(self):
        """Order (1, 1) with c = -1 collapses to the exponential pair."""
        got = analytic_transform("ml_kernel", 1.0, gamma=1.0, beta=1.0, c=-1.0)
        assert_allclose(got, 0.5, rtol=1e-13)

    def test_ml_kernel_constraint(self):
        with pytest.raises(DomainError):
            analytic_transform("ml_kernel", 1.0, gamma=0.5, beta=1.0, c=2.0)
        with pytest.raises(DomainError):  # vanishing denominator
            analytic_transform("ml_kernel", 1.0, gamma=0.5, beta=1.0, c=1.0)

    @pytest.mark.parametrize(
        "g, b, c", [(0.5, 1.0, -1.0), (0.8, 1.2, -0.5), (1.0, 1.0, -1.0)]
    )
    def test_ml_kernel_pair_against_quadrature(self, g, b, c):
        """Transform of u^(b-1) E_{g,b}(c u^g) equals r^(g-b)/(r^g - c)."""
        for ratio in (1.0, 1.6):
            fld = ml_kernel_field(g, b, c, axis="y")
            got = shehu_1d(fld.exp_order(), "y", RatioPoint.from_ratios(q=ratio))
            ref = analytic_transform("ml_kernel", ratio, gamma=g, beta=b, c=c)
            assert_allclose(got, ref, rtol=1e-6)
