import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import erfcx

from shehu import specfun
from shehu.errors import ConvergenceError, DivergenceError, DomainError, PoleError, ShehuError
from shehu.specfun import (
    MLParams,
    WrightSeriesSpec,
    mittag_leffler,
    mittag_leffler_array,
    wright_series,
)

# frozen: 200-term extended-precision summation of the defining series,
# cross-checked against exp(1) * erfc(1)
E_HALF_AT_MINUS_1 = 0.4275835761558073


def ml_closed_form(g: float, z: complex) -> complex:
    """E_{g,1}(z) for g in {1/2, 1, 2}: erfcx(-z), exp(z), cosh(sqrt z)."""
    if g == 0.5:
        return complex(erfcx(-complex(z)))
    if g == 1.0:
        return cmath.exp(z)
    return cmath.cosh(cmath.sqrt(z))


def ml_reference(g: float, b: float, z: complex) -> complex:
    """E_{g,b}(z) from the defining series in mpmath, to about 1e-30 absolute.

    Working digits are sized from the peak term, so cancellation cannot eat
    the result, and the gamma arguments g*r + b are formed in working
    precision: rounding them to doubles moves the large terms by more than
    the result (off by up to 100% at (0.9, 1, -12)).
    """
    z = complex(z)
    log10_z = math.log10(abs(z))
    peak, r = 0.0, 0
    while True:
        term = r * log10_z - math.lgamma(g * r + b) / math.log(10.0)
        peak = max(peak, term)
        if term < min(peak, 0.0) - 30.0:
            break
        r += 1
    with mpmath.workdps(int(peak) + 40):
        mg, mb, mz = mpmath.mpf(g), mpmath.mpf(b), mpmath.mpc(z)
        return complex(mpmath.fsum(mz ** k * mpmath.rgamma(mg * k + mb) for k in range(r + 1)))


def assert_ml_close(got, ref, floor: float = 1e-3):
    """The documented accuracy: 1e-11 relative, absolute below |E| = floor."""
    assert abs(got - ref) <= 1e-11 * max(abs(ref), floor), (got, ref)


class TestGamma:
    @pytest.mark.parametrize("z", [0.0, -1.0, -3.0, -7 + 1e-13])
    def test_pole_error(self, z):
        """A pole is detected, refused by ``gamma_sign`` and guarded by the
        gamma-ratio term on either side of the ratio."""
        assert specfun.is_gamma_pole(z)
        with pytest.raises(PoleError):
            specfun.gamma_sign(z)
        assert specfun._gamma_ratio_term((z,), ()) is None
        assert specfun._gamma_ratio_term((2.5,), (z,)) is None


class TestMittagLeffler:
    def test_exponential_case(self):
        assert_allclose(mittag_leffler(MLParams(1.0, 1.0), 1.0), math.e, rtol=1e-12)

    def test_zero_argument(self):
        p = MLParams(0.7, 1.3)
        assert_allclose(mittag_leffler(p, 0.0), 1.0 / math.gamma(1.3), rtol=1e-13)

    def test_negative_half_order(self):
        got = mittag_leffler(MLParams(0.5, 1.0), -1.0)
        assert_allclose(got, E_HALF_AT_MINUS_1, rtol=1e-10)
        assert_allclose(got, math.exp(1.0) * math.erfc(1.0), rtol=1e-10)

    @pytest.mark.parametrize("x", np.linspace(-5.0, 5.0, 11))
    def test_order_one_is_exp(self, x):
        assert_allclose(mittag_leffler(MLParams(1.0, 1.0), x), math.exp(x),
                        rtol=1e-10)

    @pytest.mark.parametrize("x", np.linspace(0.0, 9.0, 7))
    def test_order_two_is_cosh_sqrt(self, x):
        assert_allclose(
            mittag_leffler(MLParams(2.0, 1.0), x), math.cosh(math.sqrt(x)),
            rtol=1e-10,
        )

    @pytest.mark.parametrize("z", [-12.0, -20.0, -26.0])
    def test_far_negative_axis(self, z):
        """The contour agrees with E_{1/2}(z) = exp(z^2) erfc(-z)."""
        ref = math.exp(z * z) * math.erfc(-z)
        assert_allclose(mittag_leffler(MLParams(0.5, 1.0), z), ref, rtol=1e-10)

    def test_deep_negative_order_one(self):
        # exp(z^2)*erfc(-z) overflows here; order one still has a closed form
        assert_allclose(
            mittag_leffler(MLParams(1.0, 1.0), -50.0), math.exp(-50.0), rtol=1e-10
        )

    @given(
        st.floats(min_value=0.25, max_value=1.0),
        st.floats(min_value=0.2, max_value=2.0),
        st.floats(min_value=-30.0, max_value=30.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_shift_recurrence(self, g, b, z):
        """E_{g,b}(z) = z E_{g,b+g}(z) + 1/Gamma(b), series and contour alike."""
        lhs = mittag_leffler(MLParams(g, b), z)
        rhs = z * mittag_leffler(MLParams(g, b + g), z) + 1.0 / math.gamma(b)
        assume(math.isfinite(lhs) and math.isfinite(rhs))  # small g overflows for z > 0
        assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-9)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            MLParams(0.0, 1.0)
        with pytest.raises(ValueError):
            MLParams(0.5, -1.0)

    def test_far_complex_value(self):
        z = complex(0.0, 200.0)
        assert_ml_close(mittag_leffler(MLParams(0.5, 1.0), z), ml_closed_form(0.5, z))

    @pytest.mark.parametrize(
        "g, z",
        [(1.0, -85.0), (1.0, -100.0), (0.5, -60.0), (0.5, -100.0), (0.5, -150.0),
         (0.5, complex(-300.0, 50.0))],
    )
    def test_former_refusals_closed_form(self, g, z):
        """Points the extended-precision series used to refuse."""
        assert_ml_close(mittag_leffler(MLParams(g, 1.0), z), ml_closed_form(g, z), floor=0.0)

    @pytest.mark.parametrize("g, z", [(0.8, -150.0), (0.25, 3.0), (0.3, 4.0)])
    def test_former_failures_against_series(self, g, z):
        """E_{0.8,1}(-150) used to refuse; E_{0.25,1}(3) and E_{0.3,1}(4)
        came out inf where the float series ran out of terms."""
        got = mittag_leffler(MLParams(g, 1.0), z)
        assert_ml_close(got, ml_reference(g, 1.0, z), floor=0.0)

    def test_order_one_is_exp_exactly(self):
        """For gamma = beta = 1 the pole-subtracted integrand vanishes."""
        for x in (-85.0, -100.0, -30.0):
            assert mittag_leffler(MLParams(1.0, 1.0), x) == math.exp(x)

    @pytest.mark.parametrize("z", [math.nan, complex(1.0, math.nan), complex(math.nan, 0.0)])
    def test_nan_is_refused_before_evaluation(self, z):
        with pytest.raises(DomainError, match="NaN"):
            mittag_leffler(MLParams(0.5, 1.0), z)

    def test_positive_axis_overflow_is_inf(self):
        assert mittag_leffler(MLParams(0.5, 1.0), 30.0) == math.inf

    @pytest.mark.parametrize(
        "g, b, z",
        [(0.5, 1.0, complex(50.0, 10.0)),  # the value is beyond the double range
         (2.8, 1.8, complex(3.6, 10.3))],  # no contour within 200 nodes
    )
    def test_refusal(self, g, b, z):
        with pytest.raises(ConvergenceError):
            mittag_leffler(MLParams(g, b), z)

    @given(
        st.sampled_from([0.5, 1.0, 2.0]),
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=-math.pi, max_value=math.pi),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_closed_forms_property(self, g, r, theta, on_negative_axis):
        """Negative axis and complex plane to |z| = 100 against closed forms.

        cosh(sqrt z) has zeros, so gamma = 2 is checked on an absolute floor
        of 1; values past the double range are left out.
        """
        z = -r if on_negative_axis else cmath.rect(r, theta)
        ref = ml_closed_form(g, z)
        assume(abs(ref) < 1e300)
        got = mittag_leffler(MLParams(g, 1.0), z)
        assert_ml_close(got, ref, floor=1.0 if g == 2.0 else 0.0)

    @given(
        st.floats(min_value=0.5, max_value=2.0),
        st.floats(min_value=0.2, max_value=2.0),
        st.floats(min_value=5.0, max_value=15.0, exclude_min=True),
        st.floats(min_value=-math.pi, max_value=math.pi),
    )
    @settings(max_examples=60, deadline=None)
    def test_general_orders_against_series(self, g, b, r, theta):
        z = cmath.rect(r, theta)
        assert_ml_close(mittag_leffler(MLParams(g, b), z), ml_reference(g, b, z))

    @pytest.mark.parametrize("b", [0.3, 1.0, 1.7])
    @pytest.mark.parametrize("r", [6.0, 8.0, 10.0])
    @pytest.mark.parametrize("g", [1.0, 1.5, 2.0])
    def test_arg_sweep(self, g, r, b):
        """arg z sweeps the poles across every level; (g - 2k) pi puts one on the cut."""
        thetas = np.linspace(-math.pi, math.pi, 73)
        thetas = np.append(thetas, [(g - 2 * k) * math.pi for k in range(2)])
        for theta in thetas:
            z = cmath.rect(r, theta)
            assert_ml_close(mittag_leffler(MLParams(g, b), z), ml_reference(g, b, z))


def ml_series_to_completion(g: float, b: float, z: complex):
    """The double-precision series without early rejection: (value, estimate)."""
    log_abs_z, phase = math.log(abs(z)), cmath.phase(z)
    total, max_mag, arg_at_max = 0.0 + 0.0j, 0.0, b
    for r in range(600):
        arg = g * r + b
        log_mag = r * log_abs_z - math.lgamma(arg)
        if log_mag > 700.0:
            return total, math.inf
        term_mag = math.exp(log_mag)
        total += term_mag * cmath.exp(1j * r * phase)
        if term_mag > max_mag:
            max_mag, arg_at_max = term_mag, arg
        if r > 4 and term_mag < max_mag and term_mag <= 1e-18 * max(abs(total), 1e-300):
            break
    else:
        return total, math.inf
    ulp_factor = 1.0 + arg_at_max * math.log(max(arg_at_max, 2.0))
    return total, (max_mag * 1e-16 * ulp_factor + term_mag) / max(abs(total), 1e-300)


ARRAY_ELEMENTS = st.one_of(
    st.floats(min_value=-100.0, max_value=0.0),
    st.builds(cmath.rect, st.floats(min_value=0.0, max_value=10.0),
              st.floats(min_value=-math.pi, max_value=math.pi)),
    st.floats(min_value=0.0, max_value=30.0),
    st.just(0.0),
)
# Where the mpmath series reference stays cheap at every order down to 1/2.
SMALL_ELEMENTS = st.one_of(
    st.floats(min_value=-10.0, max_value=10.0),
    st.builds(cmath.rect, st.floats(min_value=0.0, max_value=10.0),
              st.floats(min_value=-math.pi, max_value=math.pi)),
    st.just(0.0),
)


def real_and_complex_arrays(zs):
    """The real elements of ``zs`` (or a zero) as a float array, and all as complex."""
    reals = [z for z in zs if not isinstance(z, complex)] or [0.0]
    return np.array(reals), np.array(zs, dtype=complex)


def test_unbounded_parabola_is_pulled_back():
    """Garrappa's mu at the 1e-14 target is at least 4 pi / 3, above _ML_MU_MAX, so
    right of each level below _ML_MU_MAX the parabola has mu = _ML_MU_MAX or none."""
    found = 0
    for p in (0.0, 0.4, 1.0, 2.0, 3.0):
        for lo in np.linspace(0.0, specfun._ML_MU_MAX, 400, endpoint=False).tolist():
            parabola = specfun._ml_unbounded_parabola(lo, p)
            assert parabola is None or parabola[0] == specfun._ML_MU_MAX, (lo, p)
            found += parabola is not None
    assert found > 400


class TestMittagLefflerArray:
    @given(
        st.sampled_from([0.5, 1.0, 2.0]),
        st.lists(ARRAY_ELEMENTS, min_size=1, max_size=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_closed_forms(self, g, zs):
        """Zeros, the series, the contour to |z| = 100 and positive overflow,
        mixed in one array, real and complex, at the documented accuracy
        (gamma = 2 on an absolute floor of 1, as cosh(sqrt z) has zeros)."""
        for arr in real_and_complex_arrays(zs):
            got = mittag_leffler_array(MLParams(g, 1.0), arr)
            assert got.shape == arr.shape and got.dtype == arr.dtype
            for a, z in zip(got.tolist(), arr.tolist()):
                ref = ml_closed_form(g, z)
                if ref == math.inf:
                    assert a == math.inf
                else:
                    assert_ml_close(a, ref, floor=1.0 if g == 2.0 else 1e-3)

    @given(
        st.floats(min_value=0.5, max_value=2.0),
        st.floats(min_value=0.2, max_value=2.0),
        st.lists(SMALL_ELEMENTS, min_size=1, max_size=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_the_series_reference(self, g, b, zs):
        """General orders, elements on both paths, against mpmath; each
        element's bits are its own one-element call's."""
        p = MLParams(g, b)
        for arr in real_and_complex_arrays(zs):
            got = mittag_leffler_array(p, arr)
            assert got.shape == arr.shape and got.dtype == arr.dtype
            for i, z in enumerate(arr.tolist()):
                ref = ml_reference(g, b, z) if z != 0 else 1.0 / math.gamma(b)
                assert_ml_close(got[i], ref)
                alone = mittag_leffler_array(p, arr[i:i + 1])
                assert alone.tobytes() == got[i:i + 1].tobytes()

    def test_scalar_return_types(self):
        """A float for real z and for complex z with a zero imaginary part,
        on every path; a complex otherwise; NaN refused."""
        p = MLParams(0.5, 1.0)
        for z in (0.0, -2.0, -12.0, 30.0, np.float64(-2.0), 3):
            assert type(mittag_leffler(p, z)) is float, z
        for x in (-2.0, -12.0, 4.0):
            got = mittag_leffler(p, complex(x, 0.0))
            assert type(got) is float and got == mittag_leffler(p, x)
        for z in (complex(1.0, 2.0), complex(-3.0, 9.0)):
            got = mittag_leffler(p, z)
            assert type(got) is complex
            assert got == complex(mittag_leffler_array(p, np.array([z]))[0])
        with pytest.raises(DomainError, match="NaN"):
            mittag_leffler(p, math.nan)

    @pytest.mark.parametrize("g, b", [(0.5, 1.0), (0.8, 1.2), (1.0, 1.0), (1.5, 0.7),
                                      (2.0, 1.0), (0.6, 2.0)])
    def test_batch_invariance(self, g, b):
        """Each element's bits are the same alone, shuffled and in a 2-D shape."""
        rng = np.random.default_rng(11)
        z = np.concatenate([-rng.uniform(0.0, 30.0, 14), rng.uniform(0.0, 9.0, 6),
                            [0.0, -4.0, 5.0]])
        zc = np.concatenate([z, 8.0 * np.exp(1j * rng.uniform(-math.pi, math.pi, 9))])
        p = MLParams(g, b)
        for arr in (z, zc):
            got = mittag_leffler_array(p, arr)
            perm = rng.permutation(arr.size)
            assert mittag_leffler_array(p, arr[perm]).tobytes() == got[perm].tobytes()
            alone = [mittag_leffler_array(p, arr[i:i + 1]).tobytes() for i in range(arr.size)]
            assert alone == [got[i:i + 1].tobytes() for i in range(arr.size)]
            if arr.size % 2 == 0:
                grid = mittag_leffler_array(p, arr.reshape(2, -1))
                assert grid.shape == (2, arr.size // 2)
                assert grid.tobytes() == got.tobytes()
            assert mittag_leffler_array(p, arr[:1].reshape(())).shape == ()

    def test_refusal_inside_an_array(self):
        arr = np.array([1.0, complex(3.6, 10.3), -2.0])
        with pytest.raises(ConvergenceError, match="within 200 nodes"):
            mittag_leffler_array(MLParams(2.8, 1.8), arr)

    def test_nan_names_its_index(self):
        arr = np.array([[0.1, 0.2], [math.nan, 1.0]])
        with pytest.raises(DomainError, match=r"index \(1, 0\)"):
            mittag_leffler_array(MLParams(0.5, 1.0), arr)

    def test_empty(self):
        assert mittag_leffler_array(MLParams(0.5, 1.0), np.zeros((0, 3))).shape == (0, 3)


class TestSeriesEarlyRejection:
    def test_doomed_series_stops_early(self):
        """E_{1/2,1}(-3): the finished series would be rejected too."""
        val, ok = specfun._ml_series_rows(0.5, 1.0, np.array([-3.0 + 0j]))
        full, full_err = ml_series_to_completion(0.5, 1.0, -3.0 + 0j)
        assert not ok[0] and 1e-12 < full_err < math.inf
        assert val[0] != full

    @pytest.mark.parametrize("g, b", [(0.5, 1.0), (0.5, 0.3), (0.8, 1.2), (1.0, 1.0),
                                      (1.5, 0.7), (2.0, 1.8)])
    def test_same_decisions_and_bits_as_the_finished_series(self, g, b):
        """The series at one element is accepted exactly where the finished
        series' estimate is within 1e-12, and then has its bits."""
        zs = [complex(x) for x in np.linspace(-5.0, 5.0, 81)]
        zs += [cmath.rect(r, t) for r in (2.0, 4.0, 5.0) for t in np.linspace(-3.1, 3.1, 13)]
        for z in zs:
            if z == 0:
                continue
            val, ok = specfun._ml_series_rows(g, b, np.array([z]))
            ref, ref_err = ml_series_to_completion(g, b, z)
            assert ok[0] == (ref_err <= 1e-12), z
            if ok[0]:
                assert complex(val[0]) == ref, z


class TestWrightSeries:
    def test_exponential_reduction(self):
        """upper=(1,1), lower=(1,1): terms collapse to 1/s!."""
        res = wright_series(WrightSeriesSpec(upper=((1, 1),), lower=((1, 1),)), 1.0)
        assert_allclose(res.value.real, math.e, rtol=1e-12)
        assert res.guarded_count == 0

    @pytest.mark.parametrize("sigma", [-2.0, -0.5, 0.5, 1.0, 2.0])
    def test_ml_reduction(self, sigma):
        """upper=(1,1), lower=(beta, gamma) reproduces E_{gamma,beta}."""
        g, b = 0.8, 1.0
        res = wright_series(
            WrightSeriesSpec(upper=((1, 1),), lower=((b, g),)), sigma
        )
        ref = mittag_leffler(MLParams(g, b), sigma)
        assert_allclose(res.value.real, ref, rtol=1e-10)

    @given(
        st.floats(min_value=0.3, max_value=1.0),
        st.floats(min_value=0.4, max_value=2.0),
        st.floats(min_value=-2.0, max_value=2.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_ml_reduction_property(self, g, b, sigma):
        res = wright_series(
            WrightSeriesSpec(upper=((1, 1),), lower=((b, g),)), sigma
        )
        ref = mittag_leffler(MLParams(g, b), sigma)
        assert_allclose(res.value.real, ref, rtol=1e-10, atol=1e-12)

    def test_forced_pole_guards_every_term(self):
        spec = WrightSeriesSpec(upper=((1, 1),), lower=((-1.0, 0.0),))
        res = wright_series(spec, 1.0, max_terms=50)
        assert res.guarded_count == 50
        assert res.terms_used == 0
        assert res.value == 0.0

    def test_divergence_detected(self):
        spec = WrightSeriesSpec(upper=((1, 1), (1, 1), (1, 1)), lower=((1, 0.1),))
        with pytest.raises(DivergenceError):
            wright_series(spec, 5.0)

    @pytest.mark.parametrize("sigma", [-4.0, -8.0, -15.0, -30.0])
    @pytest.mark.parametrize("g, b", [(0.5, 1.0), (0.8, 1.2), (1.0, 1.0)])
    def test_large_negative_sigma_right_or_raises(self, monkeypatch, g, b, sigma):
        """Each value matches E_{g,b} or raises: none comes back wrong.

        At sigma = -4 cancellation sends every pair to the extended-precision
        re-sum, which must then deliver the value."""
        resummed = []
        resum = specfun._wright_sum_mp

        def spy(*args):
            resummed.append(args)
            return resum(*args)

        monkeypatch.setattr(specfun, "_wright_sum_mp", spy)
        spec = WrightSeriesSpec(upper=((1, 1),), lower=((b, g),))
        ref = mittag_leffler(MLParams(g, b), sigma)
        try:
            res = wright_series(spec, sigma)
        except ShehuError:
            assert sigma != -4.0
            return
        assert_allclose(res.value.real, ref, rtol=1e-10)
        if sigma == -4.0:
            assert resummed

    def test_exhausted_terms_raise(self):
        """E_{1/2,1}(-8): 200 terms were summing to -2.47e22, not 0.0700."""
        spec = WrightSeriesSpec(upper=((1, 1),), lower=((1.0, 0.5),))
        with pytest.raises(ConvergenceError, match="after 200 terms"):
            wright_series(spec, -8.0)

    def test_cancelled_stop_test_raises(self):
        """E_{1,1}(-30): the stop test met on the spoiled double sum left
        the re-sum 5.6e-7 short of exp(-30)."""
        spec = WrightSeriesSpec(upper=((1, 1),), lower=((1.0, 1.0),))
        with pytest.raises(ConvergenceError, match="cancellation stopped the series early"):
            wright_series(spec, -30.0)

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            WrightSeriesSpec(upper=((1.0, -0.5),), lower=((1.0, 1.0),))
