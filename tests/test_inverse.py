import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from shehu import inverse
from shehu.errors import ContourError, CostBudgetError, DomainError
from shehu.forward import RatioPoint, shehu_3d
from shehu.fpde import (
    HeatSpec,
    TelegraphSpec,
    transform_solution,
)
from shehu.funclib import get_field
from shehu.inverse import (
    _SLAB,
    InversionConfig,
    _axis_rule,
    _row_sums,
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


def _scalar_sum(weights, rows):
    """sum_i c_i r_i in node order on Python complex numbers, one term at a
    time (``sum()`` compensates float sums from Python 3.12)."""
    total = 0j
    for c, r in zip(weights.tolist(), rows.tolist()):
        total += c * r
    return total


def _rounding_bound(weights, vals):
    """Bound on the rounding error of contracting ``vals`` with ``weights``,
    last axis first, in any summation order, plus that of a reference
    contraction: each weight product and axis sum of n terms errs by at
    most (n + 2) u of its terms' magnitudes (first order), so two
    contractions differ by at most d (n + 2) eps times the contraction of
    the magnitudes over the d weighted axes."""
    mag = np.abs(vals)
    for w in reversed(weights):
        mag = (mag * np.abs(w)).sum(axis=-1)
    return len(weights) * (len(weights[0]) + 2) * np.finfo(float).eps * mag


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

    @pytest.mark.parametrize("field, value", [
        ("contour_scale", math.nan), ("contour_scale", math.inf),
        ("contour_scale", 0.0), ("nodes", 24.5), ("nodes", 24.0),
    ])
    def test_nonfinite_scale_and_fractional_nodes_refused(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            InversionConfig(**{field: value})


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
        assert calls == [(min(16, _SLAB // 32 ** 2), 1, 1)]
        for G in (lambda p, q, s: 1.0 + 0.0 * p.sum(),
                  lambda p, q, s: 1.0 / (p * q)):
            with pytest.raises(DomainError, match="shape"):
                invert_3d(G, (1.0, 1.0, 1.0), cfg)
        got = invert_3d(np.frompyfunc(F, 3, 1), (1.0, 1.0, 1.0), cfg)
        assert_allclose(got, math.exp(-3.0), rtol=1e-6)

    @pytest.mark.parametrize("m", [24, 32])
    @pytest.mark.parametrize("name", ["heat", "telegraph", "separable"])
    def test_slabs_equal_one_full_grid_call(self, name, m, monkeypatch):
        """Slab-by-slab row sums are bit-identical to those of one (2m)^3 call.

        Each row r_i = sum_j cy_j sum_k ct_k F_ijk is reduced on its own, so
        neither the default slab, nor slabs of one, five or all 2m x-nodes,
        change a bit of r or of ``invert_3d``.  At m = 24 the default slab of
        _SLAB // 48^2 = 7 x-nodes does not divide the 48 nodes; the 5-node
        slabs leave a remainder at both m.
        """
        F = {
            "heat": transform_solution(HeatSpec(gamma=0.7)).evaluator,
            "telegraph": transform_solution(
                TelegraphSpec(gamma=0.9, alpha=0.5, beta=1.0)).evaluator,
            "separable": lambda p, q, s: 1.0 / ((p + 0.5) * (q + 1.5) * (s + 1.0)),
        }[name]
        cfg = InversionConfig(nodes=m)
        n = 2 * m
        if m == 24:
            assert n % (_SLAB // n ** 2) != 0
        points = [(0.75, 0.5, 1.0), (0.25, 1.0, 0.5)]
        (px, _), (qy, cy), (st, ct) = (_axis_rule(u, n, cfg) for u in points[0])
        full = F(px[:, None, None], qy[None, :, None], st[None, None, :])
        assert np.all(np.isfinite(full))
        rows = ((full * ct).sum(axis=-1) * cy).sum(axis=-1)
        sliced = [invert_3d(F, pt, cfg) for pt in points]
        for slab in (_SLAB, n * n, 5 * n * n, n ** 3):
            monkeypatch.setattr(inverse, "_SLAB", slab)
            assert np.array_equal(_row_sums(F, (px, qy, st), (cy, ct), False, False), rows)
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

    @pytest.mark.parametrize("invert, point, cfg, points", [
        (invert_3d, (1.0, 0.5, 0.8), InversionConfig(nodes=32), 33 * 64 * 64),
        (invert_3d, (1.0, 0.5, 0.8), InversionConfig(method="stehfest"), 8 ** 3),
        (invert_1d, 0.8, InversionConfig(nodes=32), 33),
        (invert_1d_complex, 0.8, InversionConfig(nodes=32), 64),
        (invert_1d, 0.8, InversionConfig(method="stehfest", nodes=14), 14),
    ])
    def test_budget_is_charged_for_the_points_evaluated(self, invert, point, cfg, points):
        """A mirrored contour evaluates half the first axis plus one check
        node: ``invert_3d`` at 32 nodes evaluates 33 * 64 * 64 = 135,168
        points, not (2 * 32)^3, and fits a budget of 200,000."""
        shapes = []

        def F(*args):
            shapes.append(np.broadcast_shapes(*(np.shape(a) for a in args)))
            return 1.0 / math.prod(a + 1.0 for a in args)

        invert(F, point, dataclasses.replace(cfg, eval_budget=points))
        assert sum(math.prod(shape) for shape in shapes) == points
        with pytest.raises(CostBudgetError,
                           match=f"^{points} transform evaluations exceed budget {points - 1}$"):
            invert(F, point, dataclasses.replace(cfg, eval_budget=points - 1))

    def test_stehfest_3d(self):
        # per-axis node count is capped at 8: tensor weights cube the
        # 1-D cancellation and more nodes only amplify roundoff
        F = lambda p, q, s: 1.0 / (p * q * s)
        got = invert_3d(F, (1.0, 1.0, 1.0), InversionConfig(method="stehfest", nodes=12))
        assert_allclose(got, 1.0, rtol=1e-4)


MIRRORED_3D = {
    **{f"heat-{g}": transform_solution(HeatSpec(gamma=g)).evaluator
       for g in (0.35, 0.7, 1.0)},
    "telegraph-0.9": transform_solution(
        TelegraphSpec(gamma=0.9, alpha=0.5, beta=1.0)).evaluator,
    "telegraph-0.4": transform_solution(
        TelegraphSpec(gamma=0.4, alpha=1.3, beta=1.8)).evaluator,
    "separable": lambda p, q, s: 1.0 / ((p + 0.5) * (q + 1.5) * (s + 1.0)),
}


class TestMirroredHalfGrid:
    """A real original's transform is evaluated on half of the contour grid."""

    @pytest.mark.parametrize("scale", [1.0, 0.6, 2.5])
    @pytest.mark.parametrize("m", [8, 16, 24, 32])
    @pytest.mark.parametrize("u", [0.2, 0.8, 1.7, 4.0])
    def test_nodes_and_weights_are_exact_conjugate_mirrors(self, u, m, scale):
        nodes, weights = _talbot_nodes(u, m, scale)
        rule = _axis_rule(u, 2 * m, InversionConfig(nodes=m, contour_scale=scale))
        assert len(nodes) == 2 * m
        for arr in (nodes, weights) + rule:
            assert np.array_equal(arr[::-1], np.conjugate(arr))
        assert np.all(nodes[:m].imag < 0.0)

    @pytest.mark.parametrize("m", [24, 32])
    @pytest.mark.parametrize("name", list(MIRRORED_3D))
    def test_half_grid_equals_one_full_grid_call(self, name, m, monkeypatch):
        """The mirrored rows reproduce one full-grid evaluation's rows.

        F is called on the first m x-nodes in slabs and on the last x-node
        once.  The full grid of F values is conjugate-symmetric bit for bit,
        so filling by conjugation gives the values F takes there.  The first
        m row sums equal those of a full evaluation bit for bit; the other m,
        their reversed conjugates, are the full evaluation's rows summed in
        reversed order, equal to rounding.  ``invert_3d`` returns the real
        part of sum_i c_i r_i, summed in node order.
        """
        F = MIRRORED_3D[name]
        n = 2 * m
        point = (0.75, 0.5, 1.0)
        (px, cx), (qy, cy), (st, ct) = (_axis_rule(u, n, InversionConfig(nodes=m))
                                        for u in point)
        calls = []

        def counted(p, q, s):
            calls.append(p[:, 0, 0])
            return F(p, q, s)

        half = _row_sums(counted, (px, qy, st), (cy, ct), True, False)
        assert np.array_equal(np.concatenate(calls), np.r_[px[:m], px[-1]])
        got = invert_3d(F, point, InversionConfig(nodes=m))
        grid = F(px[:, None, None], qy[None, :, None], st[None, None, :])
        assert np.array_equal(grid[m:], np.conjugate(grid[:m][::-1, ::-1, ::-1]))
        monkeypatch.setattr(inverse, "_SLAB", n ** 3)
        full = _row_sums(F, (px, qy, st), (cy, ct), False, False)
        assert np.all(np.isfinite(full))
        assert np.array_equal(half[:m], full[:m])
        assert np.array_equal(half[m:], np.conjugate(half[:m][::-1]))
        bound = _rounding_bound((cy, ct), grid[m:])
        assert np.all(np.abs(half[m:] - full[m:]) <= bound)
        assert got == _scalar_sum(cx, half).real

    @pytest.mark.parametrize("m", [24, 32])
    def test_half_grid_equals_full_grid_in_1d(self, m):
        """The 1-D ML pair, half-evaluated, against its full evaluation."""
        F = ML_PAIR[1]
        for t in (0.3, 1.0, 4.0):
            nodes, weights = _axis_rule(t, 2 * m, InversionConfig(nodes=m))
            half = _row_sums(F, (nodes,), (), True, False)
            full = F(nodes)
            assert np.array_equal(full[m:], np.conjugate(full[:m][::-1]))
            assert np.array_equal(half, full)
            assert invert_1d(F, t, InversionConfig(nodes=m)) == _scalar_sum(weights, half).real


class TestConjugateSymmetryCheck:
    """An F without F(conj s) = conj F(s) fails fast instead of half-summed."""

    def test_complex_original_is_refused_in_3d(self):
        F = lambda p, q, s: 1.0 / ((p - 1j) * (q + 1.0) * (s + 1.0))
        with pytest.raises(ContourError, match="not conjugate-symmetric"):
            invert_3d(F, (1.0, 0.5, 0.8))

    def test_complex_original_is_refused_in_1d(self):
        with pytest.raises(ContourError, match="not conjugate-symmetric"):
            invert_1d(lambda s: 1.0 / (s - 1j), 1.0)

    def test_complex_sum_still_evaluates_every_node(self):
        """e^(it) <-> 1/(s - i): the imaginary part needs the full contour."""
        calls = []

        def F(s):
            calls.append(len(s))
            return 1.0 / (s - 1j)

        for t in (0.3, 1.0, 2.2):
            assert abs(invert_1d_complex(F, t) - cmath.exp(1j * t)) <= 1e-10
        assert calls == [2 * CFG.nodes] * 3

    @pytest.mark.parametrize("departure, refused", [(1e-15, False), (1e-9, True)])
    def test_tolerance_is_relative_to_the_checked_values(self, departure, refused):
        """Rounding-sized asymmetry passes; a larger one is refused."""
        def F(s):
            return (1.0 + departure * 1j * (s.imag > 0)) / (s + 1.0)

        if refused:
            with pytest.raises(ContourError, match="not conjugate-symmetric"):
                invert_1d(F, 1.0)
        else:
            assert_allclose(invert_1d(F, 1.0), math.exp(-1.0), rtol=1e-10)


A8_POINTS = [(x, y, t) for x in (0.2, 0.4, 0.6, 0.8) for y in (0.2, 0.4, 0.6, 0.8)
             for t in (0.25, 0.5, 0.75, 1.0)]
SEPARABLE_POINTS = [(x, y, t) for x in (0.3, 0.7, 1.1, 1.6) for y in (0.5, 1.0, 2.0)
                    for t in (0.25, 0.6, 1.0)]


def _extended_sum(weights, vals):
    """The contour sum of float64 values, contracted in np.clongdouble."""
    total = vals.astype(np.clongdouble)
    for w in reversed(weights):
        total = (total * w.astype(np.clongdouble)).sum(axis=-1)
    return total


class TestRowSumAccuracy:
    """``invert_3d`` and ``invert_1d`` are as close to an ``np.clongdouble``
    contraction of the same F values as rounding allows: within
    ``_rounding_bound``, which holds for any summation order, point set or
    platform (also where long double is double)."""

    @pytest.mark.parametrize("name, m", [("a8", 24), ("separable", 24), ("separable", 32)])
    def test_3d(self, name, m):
        F, points = {
            "a8": (transform_solution(HeatSpec(gamma=1.0)).evaluator, A8_POINTS),
            "separable": (lambda p, q, s: 1.0 / ((p + 0.5) * (q + 1.5) * (s + 1.0)),
                          SEPARABLE_POINTS),
        }[name]
        cfg = InversionConfig(nodes=m)
        for point in points:
            (px, cx), (qy, cy), (st, ct) = (_axis_rule(u, 2 * m, cfg) for u in point)
            full = F(px[:, None, None], qy[None, :, None], st[None, None, :])
            gap = abs(invert_3d(F, point, cfg) - _extended_sum((cx, cy, ct), full).real)
            assert gap <= _rounding_bound((cx, cy, ct), full), point

    @pytest.mark.parametrize("name, F, f", RATIONAL_PAIRS + [ML_PAIR])
    def test_1d(self, name, F, f):
        for t in (0.3, 0.8, 1.0, 2.2, 4.0):
            for m in (16, 32, 48):
                cfg = InversionConfig(nodes=m)
                nodes, weights = _axis_rule(t, 2 * m, cfg)
                full = F(nodes)
                gap = abs(invert_1d(F, t, cfg) - _extended_sum((weights,), full).real)
                assert gap <= _rounding_bound((weights,), full), (t, m)

    def test_peak_memory_of_one_node(self):
        """No (2m)^3 value grid is kept: at m = 32 it alone took
        64^3 * 16 B = 4.2 MB, while one node now peaks under 2 MB."""
        F = transform_solution(HeatSpec(gamma=0.7)).evaluator
        cfg = InversionConfig(nodes=32)
        invert_3d(F, (0.75, 0.5, 1.0), cfg)
        tracemalloc.start()
        try:
            invert_3d(F, (0.75, 0.5, 1.0), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
