import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import expit, log_expit

from shehu import funclib
from shehu.errors import DomainError, MissingDerivative, QuadratureError
from shehu.fracops import (
    _H0,
    _KERNEL_CUT,
    _T_LEFT,
    _T_RIGHT,
    AXES,
    FracOrder,
    SmoothFn,
    _ts_rule,
    caputo_derivative,
    power_rule_integral,
    rl_integral,
)
from shehu.funclib import (
    axis_exp,
    axis_power,
    axis_sin,
    catalog,
    const_fn,
    get_field,
    ml_kernel_field,
    power_field,
)
from shehu.specfun import MLParams, mittag_leffler, mittag_leffler_array


def poly_t(coeffs):
    """Polynomial in t: sum c_k t^k with full derivative chain."""
    f = const_fn(coeffs[0])
    for k, c in enumerate(coeffs[1:], start=1):
        if c != 0.0:
            f = f + axis_power("t", float(k)) * c
    return f


class TestFracOrder:
    @pytest.mark.parametrize(
        "value, ceil", [(0.3, 1), (1.0, 1), (1.5, 2), (2.0, 2), (2.7, 3)]
    )
    def test_ceiling(self, value, ceil):
        assert FracOrder(value).ceil == ceil

    def test_positive_required(self):
        with pytest.raises(ValueError):
            FracOrder(0.0)

    def test_integer_detection(self):
        assert FracOrder(2.0).is_integer
        assert not FracOrder(1.5).is_integer


class TestSmoothFn:
    def test_derivative_chains_match_finite_differences(self):
        """First and second (also mixed) partials of every catalog field
        agree with central differences of the order below to 1e-5."""
        h = 1e-6
        pts = [(0.5, 0.7, 0.9), (1.1, 0.4, 1.4)]

        def check(name, f, d, axis):
            i = AXES.index(axis)
            for pt in pts:
                up, dn = list(pt), list(pt)
                up[i] += h
                dn[i] -= h
                fd = (f(*up) - f(*dn)) / (2 * h)
                assert abs(d(*pt) - fd) <= 1e-5 * max(1.0, abs(fd)), (name, axis, pt)

        for name, fld in catalog().items():
            for a in AXES:
                d = fld.smooth.partial(a)
                check(name, fld.smooth, d, a)
                for b in AXES:
                    check(name, d, d.partial(b), b)

    @pytest.mark.parametrize(
        "fld",
        list(catalog().values()) + [power_field(0.5), ml_kernel_field(0.5, 1.0, -1.0)],
        ids=lambda fld: fld.name,
    )
    def test_array_evaluator_matches_scalar(self, fld):
        """A broadcast evaluation equals scalar calls, which return floats."""
        assert type(fld.smooth(0.3, 0.45, 0.8)) is float
        x = np.array([0.0, 0.3, 1.7])[:, None, None]
        y = np.array([0.0, 0.45, 2.2])[None, :, None]
        t = np.array([0.0, 0.8, 3.1])
        got = fld.smooth.array(x, y, t)
        assert got.shape == (3, 3, 3)
        ref = [[[fld.smooth(xi, yj, tk) for tk in t] for yj in y.ravel()] for xi in x.ravel()]
        assert_allclose(got, ref, rtol=1e-14, atol=0.0)

    def test_unknown_field_names_the_known_ones(self):
        with pytest.raises(KeyError) as exc:
            get_field("nosuch")
        known = ", ".join(sorted(catalog()))
        assert exc.value.args == (f"unknown field 'nosuch'; known: {known}",)

    def test_missing_derivative(self):
        kernel = ml_kernel_field(0.5, 1.0, -1.0, axis="y").smooth
        with pytest.raises(MissingDerivative):
            kernel.partial("y")

    @pytest.mark.parametrize("g, b, c", [(0.5, 1.0, -1.0), (0.8, 1.2, -0.5), (1.0, 0.5, -1.0)])
    def test_ml_kernel_is_one_array_call(self, g, b, c, monkeypatch):
        """The kernel takes a node array in one array call and equals
        u^(b-1) E(c u^g) from scalar calls; u = 0 gives the limit."""
        shapes = []

        def spy(p, z):
            shapes.append(np.shape(z))
            return mittag_leffler_array(p, z)

        monkeypatch.setattr(funclib, "mittag_leffler_array", spy)
        u = np.array([0.0, 0.01, 0.7, 3.0, 12.0, 60.0, 400.0])
        got = ml_kernel_field(g, b, c, axis="y").smooth.array(0.0, u, 0.0)
        assert shapes == [u.shape]
        z = c * np.power(u[1:], g)
        ref = np.power(u[1:], b - 1.0) * [mittag_leffler(MLParams(g, b), v) for v in z.tolist()]
        assert_allclose(got[1:], ref, rtol=1e-12, atol=0.0)
        assert got[0] == (1.0 if b == 1.0 else (0.0 if b > 1.0 else math.inf))

    def test_algebra_product_rule(self):
        f = axis_power("t", 2.0) * axis_exp("t", -1.0)
        d = f.partial("t")
        t = 1.3
        expect = (2 * t - t * t) * math.exp(-t)
        assert_allclose(d(0.0, 0.0, t), expect, rtol=1e-12)


class TestRLIntegral:
    def test_constant_order_one(self):
        assert_allclose(
            rl_integral(const_fn(1.0), "t", 1.0, (0.0, 0.0, 2.0)), 2.0, rtol=1e-9
        )

    def test_constant_half_order(self):
        got = rl_integral(const_fn(1.0), "t", 0.5, (0.0, 0.0, 1.0))
        assert_allclose(got, 2.0 / math.sqrt(math.pi), rtol=1e-9)
        assert_allclose(got, power_rule_integral(0.0, 0.5, 1.0), rtol=1e-9)

    def test_zero_range(self):
        assert rl_integral(get_field("exp-xyt").smooth, "t", 0.7, (1.0, 1.0, 0.0)) == 0.0

    @pytest.mark.parametrize("g", [0.3, 0.5, 1.0, 1.5, 2.5])
    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_power_rule(self, g, m):
        """I^g t^m = Gamma(m+1)/Gamma(m+1+g) t^(m+g) (independent oracle)."""
        p = 1.7
        got = rl_integral(axis_power("t", float(m)), "t", g, (0.0, 0.0, p))
        assert_allclose(got, power_rule_integral(float(m), g, p), rtol=1e-12)

    @pytest.mark.parametrize("g", [0.3, 0.5, 1.5])
    @pytest.mark.parametrize("lam, p", [(-1.0, 0.3), (-1.0, 60.0), (1.0, 5.0)])
    def test_exponential_against_mittag_leffler(self, g, lam, p):
        """I^g[e^(lam u)](p) = p^g E_{1,1+g}(lam p): decay over a long range, growth."""
        got = rl_integral(axis_exp("t", lam), "t", g, (0.0, 0.0, p))
        expect = p ** g * mittag_leffler(MLParams(1.0, 1.0 + g), lam * p)
        assert_allclose(got, expect, rtol=1e-11)

    @pytest.mark.parametrize("g", [0.3, 0.5, 1.5])
    @pytest.mark.parametrize("p", [2.0, 20.0])
    def test_sine_against_mittag_leffler(self, g, p):
        """I^g[sin(pi u)](p) = Im p^g E_{1,1+g}(i pi p): ten periods at p = 20."""
        got = rl_integral(axis_sin("t", math.pi), "t", g, (0.0, 0.0, p))
        z = complex(0.0, math.pi * p)
        expect = (p ** g * mittag_leffler(MLParams(1.0, 1.0 + g), z)).imag
        assert_allclose(got, expect, rtol=1e-11)

    @pytest.mark.parametrize("g", [0.15, 0.5, 0.85])
    @pytest.mark.parametrize("form", ["atom", "callable"])
    def test_singular_at_both_ends(self, g, form):
        """I^(1-g)[g u^(g-1)] = Gamma(g+1): f singular at u = 0, kernel at u = p."""
        f = axis_power("t", g - 1.0) * g
        if form == "callable":
            f = lambda x, y, t: g * t ** (g - 1.0)
        got = rl_integral(f, "t", 1.0 - g, (0.0, 0.0, 1.3))
        assert_allclose(got, math.gamma(g + 1.0), rtol=1e-12)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_integrand_is_refused(self, value):
        with pytest.raises(QuadratureError):
            rl_integral(lambda x, y, t: np.full(np.broadcast(x, y, t).shape, value),
                        "t", 0.5, (0.0, 0.0, 1.0))

    def test_values_that_do_not_broadcast_are_refused(self):
        with pytest.raises(DomainError):
            rl_integral(lambda x, y, t: np.ones(3), "t", 0.5, (0.0, 0.0, 1.0))

    def test_unresolved_oscillation_is_refused(self):
        """sin(1e4 u) on [0, 50] needs a finer step than the rule's last level."""
        with pytest.raises(QuadratureError):
            rl_integral(axis_sin("t", 1e4), "t", 0.5, (0.0, 0.0, 50.0))

    def test_semigroup_on_polynomials(self):
        """I^g I^d f = I^(g+d) f on polynomials, seeded orders in (0, 1)."""
        rng = np.random.default_rng(3)
        f = poly_t([0.5, -1.0, 2.0, 0.25])
        for _ in range(4):
            g, d = rng.uniform(0.1, 0.9, size=2)
            p = float(rng.uniform(0.4, 1.6))

            def inner(x, y, t, _d=float(d)):
                return rl_integral(f, "t", _d, (x, y, t))

            lhs = rl_integral(inner, "t", float(g), (0.0, 0.0, p))
            rhs = rl_integral(f, "t", float(g + d), (0.0, 0.0, p))
            assert_allclose(lhs, rhs, rtol=1e-6, atol=1e-9)

    def test_mixed_axis_composition(self):
        """Nested t/x integrals equal the closed double form on f = x^2 t^2."""
        f = axis_power("x", 2.0) * axis_power("t", 2.0)
        g, b = 0.6, 0.8
        x, t = 1.2, 0.9

        def inner(xx, yy, tt):
            return rl_integral(f, "x", b, (xx, yy, tt))

        lhs = rl_integral(inner, "t", g, (x, 0.0, t))
        rhs = power_rule_integral(2.0, b, x) * power_rule_integral(2.0, g, t)
        assert_allclose(lhs, rhs, rtol=1e-6)


@pytest.mark.parametrize("op", [rl_integral, caputo_derivative])
@pytest.mark.parametrize("g", [0.5, 1.5])
@pytest.mark.parametrize("p", [-1.0, math.inf, math.nan])
def test_coordinate_outside_domain_is_refused(op, g, p):
    with pytest.raises(DomainError):
        op(axis_power("t", 2.0), "t", g, (0.0, 0.0, p))


_GRID_X = np.array([0.0, 0.3, 1.7])[:, None]
_GRID_Y = np.array([0.0, 0.5, 2.0, 3.1])[None, :]


@pytest.mark.parametrize(
    "op, fname, axis, g, form",
    [
        (rl_integral, "exp-xyt", "x", 0.5, "atom"),
        (rl_integral, "sine-product", "y", 1.5, "atom"),
        (rl_integral, "xyt", "x", 0.3, "callable"),
        (caputo_derivative, "exp-xyt", "y", 0.5, "atom"),
        (caputo_derivative, "sine-product", "x", 1.2, "atom"),
        (caputo_derivative, "xyt", "y", 1.0, "atom"),
    ],
)
def test_coordinate_arrays_match_scalar_calls(op, fname, axis, g, form):
    """A 2-D broadcast of points, zeros on the axis included, equals scalar calls."""
    f = get_field(fname).smooth
    if form == "callable":
        f = lambda x, y, t: x * y * t
    got = op(f, axis, g, (_GRID_X, _GRID_Y, 0.8))
    assert got.shape == (3, 4)
    expect = [[op(f, axis, g, (x, y, 0.8)) for y in _GRID_Y.ravel().tolist()]
              for x in _GRID_X.ravel().tolist()]
    assert_allclose(got, expect, rtol=1e-13, atol=0.0)


def test_each_point_converges_on_its_own_scale():
    """A point whose sum is 1e14 times smaller is not settled by the larger one's."""
    f = axis_exp("t", 2.0) * axis_sin("t", 30.0)
    ps = np.array([3.0, 20.0])
    got = rl_integral(f, "t", 0.5, (0.0, 0.0, ps))
    expect = [rl_integral(f, "t", 0.5, (0.0, 0.0, p)) for p in ps.tolist()]
    assert_allclose(got, expect, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("op", [rl_integral, caputo_derivative])
@pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
def test_any_bad_array_coordinate_is_refused(op, bad):
    with pytest.raises(DomainError):
        op(axis_power("x", 2.0), "x", 0.5, (np.array([[0.5, 0.0], [bad, 1.0]]), 0.3, 0.2))


def _full_grid(f):
    """``f`` as a bare callable, which ``rl_integral`` integrates at every grid point."""
    return lambda x, y, t: f.array(x, y, t)


def _grid_point(axis: str, n: int = 4, m: int = 5):
    """A (1, m) coordinate on ``axis``, zero included, an (n, 1) one on the next axis."""
    point = [0.8, 0.8, 0.8]
    i = AXES.index(axis)
    point[i] = np.linspace(0.0, 2.9, m)[None, :]
    point[(i + 1) % 3] = np.linspace(0.0, 2.2, n)[:, None]
    return tuple(point)


def _assert_engines_agree(got, expect):
    """Within 1e-14 relative, the scale being the grid's largest value: where the
    integrand changes sign the value cancels and carries rounding of that scale."""
    assert got.shape == expect.shape
    assert_allclose(got, expect, rtol=1e-14, atol=1e-14 * np.abs(expect).max())


_MIXED = (get_field("sine-product").smooth + get_field("xyt").smooth * 0.5
          + get_field("exp-xyt").smooth * -2.0)


@pytest.mark.parametrize("fname", sorted(catalog()) + ["mixed"])
def test_term_by_term_integral_matches_full_grid_engine(fname):
    """A SmoothFn, integrated term by term on the unbroadcast axis, gives the
    values of the full-grid rule that a bare callable of the same field takes."""
    f = _MIXED if fname == "mixed" else get_field(fname).smooth
    for axis in AXES:
        point = _grid_point(axis)
        for g in (0.3, 0.5, 1.5):
            _assert_engines_agree(rl_integral(f, axis, g, point),
                                  rl_integral(_full_grid(f), axis, g, point))


@pytest.mark.parametrize("fname", ["sine-product", "xyt", "exp-xyt", "sinpix-expt",
                                   "t-squared", "mixed"])
def test_term_by_term_caputo_matches_full_grid_engine(fname):
    """The Caputo value is the full-grid rule's integral of the n-th partial,
    multi-term partials included."""
    f = _MIXED if fname == "mixed" else get_field(fname).smooth
    for axis in AXES:
        point = _grid_point(axis)
        for g in (0.3, 0.5, 1.5):
            n = FracOrder(g).ceil
            expect = rl_integral(_full_grid(f.partial_n(axis, n)), axis, n - g, point)
            _assert_engines_agree(caputo_derivative(f, axis, g, point), expect)


class _Counted:
    """An atom that records how many values it evaluates."""

    def __init__(self, atom, seen: list) -> None:
        self.atom, self.i, self.seen = atom, atom.i, seen

    def array(self, u):
        self.seen.append(np.size(u))
        return self.atom.array(u)


@pytest.mark.parametrize("fname, axis", [("exp-xyt", "y"), ("sine-product", "x")])
def test_rule_runs_on_the_unbroadcast_axis(fname, axis):
    """On a 64 x 64 grid the atoms evaluate at most 1/32 of the values that the
    full-grid rule makes them evaluate."""
    seen = []
    f = SmoothFn((c, tuple(_Counted(a, seen) for a in atoms))
                 for c, atoms in get_field(fname).smooth.terms)
    point = _grid_point(axis, 64, 64)
    got = rl_integral(f, axis, 0.5, point)
    term_by_term, seen[:] = sum(seen), []
    expect = rl_integral(_full_grid(f), axis, 0.5, point)
    assert 32 * term_by_term <= sum(seen)
    _assert_engines_agree(got, expect)


def test_overflowing_power_is_refused_without_a_warning():
    """sqrt-t's order-1.5 Caputo derivative along t integrates t^-1.5, which
    overflows at the rule's first nodes: a typed refusal, with tier-1's
    RuntimeWarning filter left in force."""
    with pytest.raises(QuadratureError, match="not finite"):
        caputo_derivative(get_field("sqrt-t").smooth, "t", 1.5, (0.2, 0.3, 1.0))


@pytest.mark.parametrize("op, g", [(rl_integral, 0.5), (caputo_derivative, 0.5),
                                   (caputo_derivative, 1.5)])
@pytest.mark.parametrize("x", [0.0, math.nan], ids=["power-at-zero", "nan"])
def test_non_finite_off_axis_factor_is_refused(op, g, x):
    """A factor off the operated axis that is not finite (x^-0.5 at x = 0, or any
    atom at a NaN coordinate) is refused as the full-grid rule refuses it; where
    the operated coordinate is 0 the value is 0, as there."""
    f = axis_power("x", -0.5) * axis_sin("y", 2.0) + axis_exp("y", -1.0)
    point = (np.array([[1.0], [x]]), np.array([[0.5, 2.0]]), 0.3)
    with pytest.raises(QuadratureError, match="not finite"):
        op(f, "y", g, point)
    with pytest.raises(QuadratureError, match="not finite"):
        rl_integral(_full_grid(f), "y", g, point)  # +inf and -inf in one row
    assert op(f, "y", g, (x, 0.0, 0.3)) == 0.0


@pytest.mark.parametrize("level", range(8))
@pytest.mark.parametrize("g", [1e-3, 0.3, 0.5, 1.0, 1.5])
def test_ts_rule_matches_expit_form(level, g):
    """Nodes and kernel weights agree with SciPy's expit/log_expit form of the rule."""
    h = _H0 / 2 ** level
    t_right = min(math.asinh(_KERNEL_CUT / (g * math.pi)), _T_RIGHT)
    start, step = (-_T_LEFT, h) if level == 0 else (-_T_LEFT + h, 2.0 * h)
    t = np.arange(start, t_right, step)
    y = math.pi * np.sinh(t)
    s_ref = expit(y)
    w_ref = math.pi * np.cosh(t) * s_ref * np.exp(g * log_expit(-y))
    s, w = _ts_rule(level, g)
    assert_allclose(s, s_ref, rtol=1e-15, atol=0.0)
    assert_allclose(w, w_ref, rtol=1e-15, atol=0.0)


class TestCaputo:
    def test_linear_half_derivative(self):
        got = caputo_derivative(axis_power("t", 1.0), "t", 0.5, (0.0, 0.0, 1.0))
        assert_allclose(got, 1.0 / math.gamma(1.5), rtol=1e-9)
        assert_allclose(got, 2.0 / math.sqrt(math.pi), rtol=1e-9)

    def test_quadratic_half_derivative(self):
        got = caputo_derivative(axis_power("t", 2.0), "t", 0.5, (0.0, 0.0, 1.0))
        assert_allclose(got, math.gamma(3.0) / math.gamma(2.5), rtol=1e-8)

    @pytest.mark.parametrize("g", [0.2, 0.5, 0.8])
    def test_annihilates_constants(self, g):
        got = caputo_derivative(const_fn(3.0), "t", g, (0.0, 0.0, 1.3))
        assert abs(got) <= 1e-12

    def test_integer_order_dispatch(self):
        got = caputo_derivative(axis_power("t", 2.0), "t", 1.0, (0.0, 0.0, 3.0))
        assert_allclose(got, 6.0, rtol=1e-13)

    def test_missing_derivative_chain(self):
        with pytest.raises(MissingDerivative):
            caputo_derivative(lambda x, y, t: t * t, "t", 0.5, (0.0, 0.0, 1.0))

    def test_inverse_pairing_derivative_of_integral(self):
        """D^g I^g f = f on polynomials (composition identity, orders < 1)."""
        rng = np.random.default_rng(11)
        coeffs = [1.0, -0.5, 0.75, 0.0, 0.2]
        f = poly_t(coeffs)
        for _ in range(3):
            g = float(rng.uniform(0.15, 0.85))
            p = float(rng.uniform(0.5, 1.5))
            # closed-form fractional integral via the power rule, as a sum
            # of non-integer power atoms, keeps the outer Caputo quadrature
            # independent of rl_integral
            int_f = const_fn(0.0)
            for k, c in enumerate(coeffs):
                if c != 0.0:
                    coef = c * power_rule_integral(float(k), g, 1.0)
                    int_f = int_f + axis_power("t", k + g) * coef
            got = caputo_derivative(int_f, "t", g, (0.0, 0.0, p))
            assert_allclose(got, f(0.0, 0.0, p), rtol=1e-6)

    @pytest.mark.parametrize("g", [0.4, 0.7, 1.3, 1.8])
    def test_integral_of_derivative_leaves_taylor_tail(self, g):
        """I^g D^g f = f - sum_{i<n} f^(i)(0) t^i / i! on polynomials."""
        f = poly_t([1.0, 2.0, -0.5, 0.25, 0.1])
        n = FracOrder(g).ceil
        p = 1.2

        def deriv(x, y, t):
            return caputo_derivative(f, "t", g, (x, y, t))

        lhs = rl_integral(deriv, "t", g, (0.0, 0.0, p))
        taylor = sum(
            f.partial_n("t", i)(0.0, 0.0, 0.0) * p ** i / math.factorial(i)
            for i in range(n)
        )
        assert_allclose(lhs, f(0.0, 0.0, p) - taylor, rtol=1e-6, atol=1e-8)

