import cmath
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from shehu import inverse
from shehu.errors import ContourError, CostBudgetError, DomainError
from shehu.forward import RatioPoint, shehu_3d
from shehu.fpde import (
    HeatSpec,
    TelegraphSpec,
    heat_transform_solution,
    telegraph_transform_solution,
)
from shehu.fracops import _BLOCK
from shehu.funclib import get_field
from shehu.inverse import (
    InversionConfig,
    _eval_grid,
    _stehfest_weights,
    _talbot_nodes,
    invert_1d,
    invert_1d_complex,
    invert_3d,
)
from shehu.specfun import MLParams, mittag_leffler

CFG = InversionConfig()

RATIONAL_PAIRS = [
    ("t", lambda s: 1.0 / (s * s), lambda t: t),
    ("one", lambda s: 1.0 / s, lambda t: 1.0),
    ("exp", lambda s: 1.0 / (s + 1.0), lambda t: math.exp(-t)),
    ("sin", lambda s: 1.0 / (s * s + 1.0), lambda t: math.sin(t)),
]
ML_PAIR = ("ml", lambda s: s ** -0.5 / (s ** 0.5 + 1.0),
           lambda t: mittag_leffler(MLParams(0.5, 1.0), -math.sqrt(t)))


def _scalar_talbot(F, u, m):
    """The scalar contour loop that preceded the array engine (reference)."""
    total = 0.0 + 0.0j
    for s, w in zip(*_talbot_nodes(u, m, 1.0)):
        total += w * cmath.exp(s * u) * complex(F(s))
    return total


def _scalar_stehfest(F, u, n):
    """The scalar real-node loop that preceded the array engine (reference),
    and the sum of its terms' magnitudes."""
    w, ln2 = _stehfest_weights(n), math.log(2.0)
    total = size = 0.0
    for k in range(1, n + 1):
        term = w[k - 1] * complex(F(k * ln2 / u)).real
        total += term
        size += abs(term)
    return ln2 / u * total, ln2 / u * size


class TestConfig:
    def test_defaults(self):
        assert CFG.method == "talbot"
        assert CFG.nodes == 32

    def test_validation(self):
        with pytest.raises(ValueError):
            InversionConfig(nodes=4)
        with pytest.raises(ValueError):
            InversionConfig(method="bromwich")

    def test_method_aliases(self):
        assert InversionConfig(method="deformed-contour").method == "talbot"
        assert InversionConfig(method="real-node-weights").method == "stehfest"


class TestInvert1D:
    def test_linear_pair(self):
        assert_allclose(invert_1d(lambda s: 1.0 / (s * s), 1.0), 1.0, rtol=1e-8)

    def test_exponential_pair(self):
        got = invert_1d(lambda s: 1.0 / (s + 1.0), 1.0)
        assert_allclose(got, math.exp(-1.0), rtol=1e-8)

    def test_ml_pair(self):
        """s^(g-1)/(s^g + 1) inverts to E_g(-t^g) at g = 1/2."""
        got = invert_1d(lambda s: s ** -0.5 / (s ** 0.5 + 1.0), 1.0)
        ref = mittag_leffler(MLParams(0.5, 1.0), -1.0)
        assert_allclose(got, ref, rtol=1e-8)

    @pytest.mark.parametrize("name, F, f", RATIONAL_PAIRS)
    def test_round_trips(self, name, F, f):
        for t in (0.3, 0.8, 1.0, 2.2, 4.0):
            assert_allclose(invert_1d(F, t), f(t), rtol=1e-6, atol=1e-9)

    def test_branch_consistency(self):
        """Principal branch keeps the contour sum essentially real."""
        z = invert_1d_complex(lambda s: s ** -0.5 / (s ** 0.5 + 1.0), 1.0)
        assert abs(z.imag) <= 1e-9

    def test_node_count_convergence(self):
        """Refining 24 -> 48 nodes does not lose accuracy on rational pairs."""
        for name, F, f in RATIONAL_PAIRS:
            errs = {}
            for nodes in (24, 48):
                cfg = InversionConfig(nodes=nodes)
                errs[nodes] = max(
                    abs(invert_1d(F, t, cfg) - f(t)) / max(abs(f(t)), 1e-12)
                    for t in (0.3, 0.8, 1.0, 2.2, 4.0)
                )
            assert errs[48] <= errs[24], (name, errs)

    def test_contour_error_on_nonfinite(self):
        with pytest.raises(ContourError):
            invert_1d(lambda s: float("nan"), 1.0)

    def test_stehfest_fallback(self):
        # the real-node method trades accuracy for real-axis-only evaluation
        cfg = InversionConfig(method="stehfest", nodes=14)
        got = invert_1d(lambda s: 1.0 / (s * s), 2.0, cfg)
        assert_allclose(got, 2.0, rtol=1e-5)

    def test_positive_point_required(self):
        for point in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="finite and positive"):
                invert_1d(lambda s: 1.0 / s, point)

    @pytest.mark.parametrize("method, n, dtype", [("talbot", 48, complex),
                                                  ("stehfest", 14, float)])
    def test_one_call_on_the_node_array(self, method, n, dtype):
        calls = []

        def F(s):
            calls.append((s.shape, s.dtype))
            return 1.0 / (s + 1.0)

        cfg = InversionConfig(method=method, nodes=24 if method == "talbot" else n)
        z = invert_1d_complex(F, 1.0, cfg)
        assert calls == [((n,), np.dtype(dtype))]
        assert_allclose(z.real, math.exp(-1.0), rtol=1e-5)
        if method == "stehfest":
            assert z.imag == 0.0

    def test_wrong_shape_is_refused(self):
        for G in (lambda s: 1.0 + 0.0 * s.sum(), lambda s: 1.0 / s[:-1],
                  lambda s: np.outer(s, s)):
            with pytest.raises(DomainError, match="shape"):
                invert_1d(G, 1.0)

    def test_frompyfunc_wrapper(self):
        def F(s):
            if np.ndim(s):
                raise TypeError("scalar only")
            return s ** -0.5 / (s ** 0.5 + 1.0)

        with pytest.raises(TypeError, match="scalar only"):
            invert_1d(F, 1.0)
        got = invert_1d(np.frompyfunc(F, 1, 1), 1.0)
        assert_allclose(got, ML_PAIR[2](1.0), rtol=1e-8)

    @pytest.mark.parametrize("name, F, f", RATIONAL_PAIRS + [ML_PAIR])
    def test_engine_matches_scalar_loops(self, name, F, f):
        """The engine reproduces the scalar loops it replaced.

        Talbot terms reach about 1e2, and numpy's array complex products
        may round the weights differently from Python's scalar ones, so
        the sums agree at the rounding floor, not bit for bit.  Stehfest's
        alternating terms reach about 1e7 and are summed in another order:
        the two sums agree within one rounding unit of the terms' total
        magnitude, an absolute bound, as the cancellation is.
        """
        for t in (0.3, 0.8, 1.0, 2.2, 4.0):
            for m in (16, 32, 48):
                got = invert_1d_complex(F, t, InversionConfig(nodes=m))
                ref = _scalar_talbot(F, t, m)
                assert abs(got.real - ref.real) <= 1e-13, (t, m)
                assert abs(got.imag - ref.imag) <= 1e-13, (t, m)
            got = invert_1d(F, t, InversionConfig(method="stehfest", nodes=14))
            ref, size = _scalar_stehfest(F, t, 14)
            assert abs(got - ref) <= np.finfo(float).eps * size, t


class TestInvert3D:
    def test_separable_exponential(self):
        F = lambda p, q, s: 1.0 / ((p + 1.0) * (q + 1.0) * (s + 1.0))
        got = invert_3d(F, (1.0, 1.0, 1.0), CFG)
        assert_allclose(got, math.exp(-3.0), rtol=1e-6)

    def test_constant_pair(self):
        F = lambda p, q, s: 1.0 / (p * q * s)
        got = invert_3d(F, (0.7, 2.0, 1.3), CFG)
        assert_allclose(got, 1.0, rtol=1e-6)

    def test_round_trip_against_forward_quadrature(self):
        """Real-node inversion of the numerically computed triple transform.

        Forward quadrature only evaluates real ratios, which is the use
        case the real-node weighted-sum method exists for; the deformed
        contour needs complex nodes and gets the closed-form pair tests.
        ``shehu_3d`` takes one ratio point per call, so the callable is
        wrapped to evaluate node by node.
        """
        from shehu.forward import QuadratureConfig

        f = get_field("exp-xyt").exp_order()
        cfg_fwd = QuadratureConfig(rel_tol=1e-8, abs_tol=1e-11, tail_cut_tol=1e-9)

        def F(p, q, s):
            return shehu_3d(
                f, RatioPoint(x=(p, 1.0), y=(q, 1.0), t=(s, 1.0)), cfg_fwd
            )

        got = invert_3d(np.frompyfunc(F, 3, 1), (0.5, 0.5, 0.5),
                        InversionConfig(method="stehfest", nodes=8))
        assert_allclose(got, math.exp(-1.5), rtol=1e-2)

    def test_non_broadcasting_callable_is_refused(self):
        """No scalar fallback: F is called on the first slab's node arrays."""
        calls = []

        def F(p, q, s):
            calls.append(np.shape(p))
            if np.shape(p) != ():
                raise TypeError("scalar only")
            return 1.0 / ((p + 1.0) * (q + 1.0) * (s + 1.0))

        cfg = InversionConfig(nodes=16)
        with pytest.raises(TypeError, match="scalar only"):
            invert_3d(F, (1.0, 1.0, 1.0), cfg)
        assert calls == [(min(32, _BLOCK // 32 ** 2), 1, 1)]
        for G in (lambda p, q, s: 1.0 + 0.0 * p.sum(),
                  lambda p, q, s: 1.0 / (p * q)):
            with pytest.raises(DomainError, match="shape"):
                invert_3d(G, (1.0, 1.0, 1.0), cfg)
        got = invert_3d(np.frompyfunc(F, 3, 1), (1.0, 1.0, 1.0), cfg)
        assert_allclose(got, math.exp(-3.0), rtol=1e-6)

    @pytest.mark.parametrize("m", [24, 32])
    @pytest.mark.parametrize("name", ["heat", "telegraph", "separable"])
    def test_slabs_equal_one_full_grid_call(self, name, m, monkeypatch):
        """Slab-by-slab evaluation is bit-identical to one (2m)^3 call.

        At m = 24 the default slab of _BLOCK // 48^2 = 28 x-nodes does not
        divide the 48 nodes; the 5-node slabs leave a remainder at both m.
        """
        F = {
            "heat": heat_transform_solution(HeatSpec(gamma=0.7)).evaluator,
            "telegraph": telegraph_transform_solution(
                TelegraphSpec(gamma=0.9, alpha=0.5, beta=1.0)).evaluator,
            "separable": lambda p, q, s: 1.0 / ((p + 0.5) * (q + 1.5) * (s + 1.0)),
        }[name]
        cfg = InversionConfig(nodes=m)
        n = 2 * m
        if m == 24:
            assert n % (_BLOCK // n ** 2) != 0
        points = [(0.75, 0.5, 1.0), (0.25, 1.0, 0.5)]
        px, qy, st = (_talbot_nodes(u, m, 1.0)[0] for u in points[0])
        full = F(px[:, None, None], qy[None, :, None], st[None, None, :])
        assert np.all(np.isfinite(full))
        assert np.array_equal(_eval_grid(F, (px, qy, st)), full)
        sliced = [invert_3d(F, pt, cfg) for pt in points]
        monkeypatch.setattr(inverse, "_BLOCK", 5 * n * n)
        assert np.array_equal(_eval_grid(F, (px, qy, st)), full)
        assert [invert_3d(F, pt, cfg) for pt in points] == sliced
        monkeypatch.setattr(inverse, "_BLOCK", n ** 3)
        assert [invert_3d(F, pt, cfg) for pt in points] == sliced

    def test_talbot_nodes_are_cached_and_read_only(self):
        nodes, weights = _talbot_nodes(0.7, 24, 1.0)
        again = _talbot_nodes(0.7, 24, 1.0)
        assert again[0] is nodes and again[1] is weights
        real_weights = _stehfest_weights(8)
        assert _stehfest_weights(8) is real_weights
        assert_allclose(real_weights, [-1 / 3, 145 / 3, -906, 16394 / 3,
                                       -43130 / 3, 18730, -35840 / 3, 8960 / 3],
                        rtol=1e-15)
        for arr in (nodes, weights, real_weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_point_must_be_finite_and_positive(self):
        F = lambda p, q, s: 1.0 / (p * q * s)
        for point in ((math.inf, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, 1.0, 0.0)):
            for method in ("talbot", "stehfest"):
                with pytest.raises(ValueError, match="finite and positive"):
                    invert_3d(F, point, InversionConfig(method=method))

    def test_budget_guard(self):
        F = lambda p, q, s: 1.0 / (p * q * s)
        with pytest.raises(CostBudgetError):
            invert_3d(F, (1.0, 1.0, 1.0), InversionConfig(nodes=64, eval_budget=10**5))

    def test_stehfest_3d(self):
        # per-axis node count is capped at 8: tensor weights cube the
        # 1-D cancellation and more nodes only amplify roundoff
        F = lambda p, q, s: 1.0 / (p * q * s)
        got = invert_3d(F, (1.0, 1.0, 1.0), InversionConfig(method="stehfest", nodes=12))
        assert_allclose(got, 1.0, rtol=1e-4)
