import contextvars
import itertools
import math
import os
import re
import sys
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose

from shehu import fpde, specfun
from shehu.errors import (
    ContourError,
    CostBudgetError,
    SingularDenominator,
)
from shehu.fpde import (
    Grid3Field,
    HeatSpec,
    TelegraphSpec,
    TransformSolution,
    _eval_guarded,
    _series_groups,
    _TermSpec,
    reconstruct,
    series_solution,
    transform_residual,
    transform_solution,
)
from shehu.inverse import _SLAB, InversionConfig, _talbot_nodes, invert_3d

PI = math.pi
PI2 = PI * PI


class TestHeatSolution:
    def test_golden_point(self):
        """Direct arithmetic of the three-term expression at (2, 1, 1), g=1."""
        F = transform_solution(HeatSpec(gamma=1.0))
        dd = PI2 - 4.0 - 1.0
        term1 = PI ** 4 / ((4.0 + PI2) * (1.0 + PI2) * dd)
        term2 = PI * 2.0 / (1.0 * 2.0 * dd)
        term3 = PI * 1.0 / (1.0 * (1.0 - 2.0) * dd)
        expect = term1 - term2 - term3
        assert_allclose(complex(F(2.0, 1.0, 1.0)).real, expect, rtol=1e-13)
        assert_allclose(expect, 0.132687, atol=5e-7)
        assert_allclose(term1, 0.132687, atol=5e-7)
        assert_allclose(-term2, -0.645143, atol=5e-7)
        assert_allclose(-term3, 0.645143, atol=5e-7)

    def test_singular_locus_unit_p(self):
        F = transform_solution(HeatSpec(gamma=1.0))
        with pytest.raises(SingularDenominator):
            F(1.0, 1.0, 1.0)

    def test_singular_locus_main_denominator(self):
        F = transform_solution(HeatSpec(gamma=1.0))
        with pytest.raises(SingularDenominator):
            F(1.0 + 1e-15, 1.0, 2.0 / PI2 * (1.0 + 1e-15))

    def test_gamma_range(self):
        with pytest.raises(ValueError):
            HeatSpec(gamma=1.5)

    def test_strict_relation_refused(self):
        spec = HeatSpec(gamma=0.7)
        with pytest.raises(ValueError, match="no residual mode 'strict' for HeatSpec"):
            transform_residual(spec, transform_solution(spec), (2.0, 1.0, 1.0),
                               mode="strict")

    @pytest.mark.parametrize("g", [0.3, 0.5, 0.7, 1.0])
    def test_residual_vanishes(self, g):
        spec = HeatSpec(gamma=g)
        F = transform_solution(spec)
        rng = np.random.default_rng(17)
        for _ in range(20):
            p, q, s = rng.uniform(1.2, 3.0, size=3)
            if abs(p - 1.0) < 0.05:
                continue
            assert transform_residual(spec, F, (p, q, s)) <= 1e-10

    def test_perturbed_solution_fails_relation(self):
        spec = HeatSpec(gamma=0.7)
        F = transform_solution(spec)
        F_bad = TransformSolution(
            evaluator=lambda p, q, s: 1.01 * F(p, q, s),
            singular_loci=F.singular_loci,
        )
        assert transform_residual(spec, F_bad, (2.0, 1.0, 1.0)) > 1e-4


class TestTelegraphSolution:
    def test_golden_point(self):
        """Terms at (2, 2, 1) with g=1, a=1/2, b=1: D = -5."""
        spec = TelegraphSpec(gamma=1.0, alpha=0.5, beta=1.0)
        F = transform_solution(spec)
        dd = 2.0 + 1.0 - 4.0 - 4.0
        assert dd == -5.0
        term1 = 2.0 / (2.0 * 3.0 * dd)
        term2 = PI * 2.0 / (1.0 * 3.0 * dd)
        term3 = PI * 2.0 / (1.0 * 1.0 * dd)
        expect = term1 - term2 - term3
        assert_allclose(complex(F(2.0, 2.0, 1.0)).real, expect, rtol=1e-13)
        assert_allclose(term1, -0.066667, atol=5e-7)
        assert_allclose(-term2, 0.418879, atol=5e-7)
        assert_allclose(expect, 1.608849, atol=5e-7)

    def test_singular_loci(self):
        spec = TelegraphSpec(gamma=1.0, alpha=0.5, beta=1.0)
        F = transform_solution(spec)
        with pytest.raises(SingularDenominator):
            F(1.0, 2.0, 1.0)  # p^g = 1
        with pytest.raises(SingularDenominator):
            F(1.0 + 1e-15, 1.0, 0.5)  # (1+2a) s + b^2 = p^2 + q^2

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            TelegraphSpec(gamma=0.5, alpha=0.0, beta=1.0)
        with pytest.raises(ValueError):
            TelegraphSpec(gamma=0.5, alpha=0.5, beta=-1.0)

    @pytest.mark.parametrize("g", [0.5, 0.9, 1.0])
    @pytest.mark.parametrize("ab", [(0.5, 1.0), (1.0, 2.0)])
    def test_residual_vanishes_printed_mode(self, g, ab):
        spec = TelegraphSpec(gamma=g, alpha=ab[0], beta=ab[1])
        F = transform_solution(spec)
        rng = np.random.default_rng(23)
        for _ in range(20):
            p, q, s = rng.uniform(1.2, 3.0, size=3)
            if abs(p - 1.0) < 0.05:
                continue
            assert transform_residual(spec, F, (p, q, s)) <= 1e-10

    def test_perturbed_solution_fails_relation(self):
        spec = TelegraphSpec(gamma=0.9, alpha=0.5, beta=1.0)
        F = transform_solution(spec)
        F_bad = TransformSolution(
            evaluator=lambda p, q, s: 1.01 * F(p, q, s),
            singular_loci=F.singular_loci,
        )
        assert transform_residual(spec, F_bad, (2.0, 2.0, 1.0)) > 1e-4

    def test_strict_mode_differs_from_printed(self):
        """The uncollapsed time operator does not vanish on the printed F.

        Reported for information: the printed relation collapses
        s^(2g) + 2a s^g into (1+2a) s^g, which only coincides at s = 1.
        """
        spec = TelegraphSpec(gamma=0.5, alpha=0.5, beta=1.0)
        F = transform_solution(spec)
        pt = (2.0, 2.0, 2.0)
        printed = transform_residual(spec, F, pt, mode="printed")
        strict = transform_residual(spec, F, pt, mode="strict")
        assert printed <= 1e-12
        assert strict > 1e-3


class TestGuardedSeries:
    def test_heat_fully_guarded(self):
        """Every printed term carries gamma-pole factors; value stays finite."""
        res = series_solution(HeatSpec(gamma=0.7), (0.5, 0.5, 0.5), truncation=6)
        assert res.guarded_count > 0
        assert res.terms_used == 0
        assert math.isfinite(res.value)
        assert res.value == 0.0

    def test_one_result_type_with_wright_series(self):
        spec = specfun.WrightSeriesSpec(upper=((1, 1),), lower=((1, 1),))
        res = series_solution(HeatSpec(gamma=0.7), (0.5, 0.5, 0.5), truncation=2)
        assert type(res) is fpde.GuardedSeriesResult is specfun.GuardedSeriesResult
        assert type(specfun.wright_series(spec, 1.0)) is fpde.GuardedSeriesResult
        assert res.last_term_magnitude == 0.0

    def test_telegraph_fully_guarded(self):
        res = series_solution(
            TelegraphSpec(gamma=0.5, alpha=0.5, beta=1.0), (0.4, 0.6, 0.8), truncation=4
        )
        assert res.guarded_count > 0
        assert res.terms_used == 0
        assert math.isfinite(res.value)

    @pytest.mark.parametrize("gamma", [1.5, -0.3, 0.0])
    def test_heat_gamma_validated(self, gamma):
        with pytest.raises(ValueError, match=r"gamma must lie in \(0, 1\]"):
            series_solution(HeatSpec(gamma=gamma), (0.5, 0.5, 0.5), truncation=4)

    @pytest.mark.parametrize("truncation", [0, -3, 2.0])
    @pytest.mark.parametrize("spec", [
        pytest.param(HeatSpec(gamma=0.5), id="series_solution_heat"),
        pytest.param(TelegraphSpec(gamma=0.5), id="series_solution_telegraph"),
    ])
    def test_truncation_below_one_refused(self, spec, truncation):
        with pytest.raises(ValueError, match="truncation must be an integer >= 1"):
            series_solution(spec, (0.5, 0.5, 0.5), truncation=truncation)

    @pytest.mark.parametrize("override", [False, True], ids=["literal", "override"])
    @pytest.mark.parametrize("truncation", [3, 4])
    @pytest.mark.parametrize("spec", [
        pytest.param(HeatSpec(gamma=0.7), id="series_solution_heat"),
        pytest.param(TelegraphSpec(gamma=0.7, alpha=0.5, beta=1.3), id="series_solution_telegraph"),
    ])
    def test_pole_groups_match_the_term_loop(self, spec, truncation, override):
        """A group whose index-free G(-1) factors sit on a pole is counted
        without building its terms; the result equals the term-by-term
        loop's bit for bit, and an override still reaches every index."""

        def one_term(group, idx):
            return 2.5 if group.endswith("3") and idx[-2:] == (1, 2) else None

        fn = one_term if override else None
        point = (0.5, 0.7, 0.9)
        got = series_solution(spec, point, truncation, fn)
        looped = [(gid, n, term, ()) for gid, n, term, _ in _series_groups(spec)]
        ref = _eval_guarded(looped, truncation, point, fn)
        assert (got.value.hex(), got.guarded_count, got.terms_used) == (
            ref.value.hex(), ref.guarded_count, ref.terms_used)
        assert (got.terms_used > 0) == override

    def test_default_truncation_builds_no_term(self, monkeypatch):
        """The telegraph's 299,008 printed terms at truncation 8 are counted."""

        def built(*args):
            raise AssertionError("a term was built")

        monkeypatch.setattr(fpde, "_TermSpec", built)
        res = series_solution(TelegraphSpec(gamma=0.7), (0.5, 0.5, 0.5))
        assert (res.value, res.guarded_count, res.terms_used) == (0.0, 299008, 0)

    def test_deterministic(self):
        a = series_solution(HeatSpec(gamma=0.6), (0.5, 0.5, 0.5), truncation=5)
        b = series_solution(HeatSpec(gamma=0.6), (0.5, 0.5, 0.5), truncation=5)
        assert (a.value, a.guarded_count, a.terms_used) == (
            b.value, b.guarded_count, b.terms_used,
        )

    def test_truncation_growth_keeps_classification(self):
        """Doubling truncation never un-guards an existing term."""
        small = series_solution(HeatSpec(gamma=0.6), (0.5, 0.5, 0.5), truncation=4)
        large = series_solution(HeatSpec(gamma=0.6), (0.5, 0.5, 0.5), truncation=8)
        assert small.terms_used == large.terms_used == 0
        assert large.guarded_count > small.guarded_count

    def test_override_single_term(self):
        """A pole-free coefficient override turns exactly one term on."""

        def override(group, idx):
            if group == "heat3" and idx == (1, 2):
                return 2.5
            return None

        x, y, t = 0.5, 0.7, 0.9
        g = 0.5
        res = series_solution(HeatSpec(gamma=g), (x, y, t), truncation=4,
                              coefficient_override=override)
        # group-3 monomial: x^(2m-2u-g) y^(-2m-2) t^(g u + g - 1), u=1, m=2
        expect = 2.5 * x ** (4 - 2 - g) * y ** -6.0 * t ** (2 * g - 1.0)
        assert res.terms_used == 1
        assert_allclose(res.value, expect, rtol=1e-14)

    def test_pole_free_terms_are_summed(self):
        """No printed term reaches the evaluation path, so a synthetic group
        does: gamma factors below zero carry their sign, and a term beyond
        exp(700) is guarded instead of overflowing."""

        def term(idx):
            (k,) = idx
            return _TermSpec(num_gammas=(k + 0.5, -1.5), den_gammas=(-0.5,),
                             factorial_index=k, sign=-1.0, log_prefactor=0.3,
                             powers=(1.0, 2.0, 0.5 * k))

        def huge(idx):
            return _TermSpec((1.0,), (), 0, 1.0, 701.0, (0.0, 0.0, 0.0))

        x, y, t = 0.5, 0.7, 0.9
        res = _eval_guarded([("syn", 1, term, ()), ("huge", 1, huge, ())], 5, (x, y, t), None)
        expect = sum(
            -math.exp(0.3) * math.gamma(k + 0.5) * math.gamma(-1.5)
            / (math.gamma(-0.5) * math.factorial(k)) * x * y * y * t ** (0.5 * k)
            for k in range(5)
        )
        assert (res.terms_used, res.guarded_count) == (5, 5)
        assert_allclose(res.value, expect, rtol=1e-13)


class TestReconstructAndGrid:
    def test_constant_pair(self):
        F = TransformSolution(lambda p, q, s: 1.0 / (p * q * s), ())
        fld = reconstruct(F, (0.5, 1.0), (0.5, 1.0), (0.5, 1.0))
        assert fld.nonfinite_count == 0
        assert np.max(np.abs(fld.values - 1.0)) <= 1e-6

    def test_separable_pair(self):
        F = TransformSolution(
            lambda p, q, s: 1.0 / ((p + 1.0) * (q + 1.0) * (s + 1.0)), ()
        )
        xs = (0.4, 0.9)
        fld = reconstruct(F, xs, xs, xs)
        for i, x in enumerate(xs):
            for j, y in enumerate(xs):
                for k, t in enumerate(xs):
                    assert abs(fld.at(i, j, k) - math.exp(-(x + y + t))) <= 1e-6

    def test_singular_node_becomes_nan_without_pointwise_retry(self):
        """A SingularDenominator from a slab call marks the node NaN.

        Talbot nodes for x reach real part 9/x, so only x = 0.5 touches the
        fake singular locus Re p > 12.  Points may run on different
        threads, so the recorded slabs are grouped by contour: each point
        sees contiguous slabs of its x-nodes in contour order, no x-node is
        evaluated twice, x = 0.5 stops at its first singular slab, and
        x = 1.0 covers the first half of its 64 rows, the half that the
        conjugate fill mirrors, then the last row, which checks the fill.
        The node records why it is NaN.
        """
        slabs = []

        def evaluator(p, q, s):
            slabs.append(np.array(p[:, 0, 0]))
            if np.max(np.real(p)) > 12.0:
                raise SingularDenominator("evaluation on singular locus: test")
            return 1.0 / (p * q * s)

        fld = reconstruct(TransformSolution(evaluator, ("Re p > 12",)),
                          (0.5, 1.0), (1.0,), (1.0,))
        assert np.isnan(fld.at(0, 0, 0))
        assert abs(fld.at(1, 0, 0) - 1.0) <= 1e-6
        assert fld.nonfinite_count == 1
        assert fld.nan_reasons == {
            (0, 0, 0): "SingularDenominator: evaluation on singular locus: test"}

        rows = _SLAB // 64 ** 2
        assert all(0 < len(p) <= rows for p in slabs)
        half, one = _talbot_nodes(0.5, 32, 1.0)[0], _talbot_nodes(1.0, 32, 1.0)[0]
        of_half = [p for p in slabs if np.isin(p[0], half)]
        of_one = [p for p in slabs if np.isin(p[0], one)]
        assert len(of_half) + len(of_one) == len(slabs)
        assert np.array_equal(np.concatenate(of_one), np.r_[one[:32], one[-1]])
        assert len(of_one[-1]) == 1
        seen = np.concatenate(of_half)
        k = len(seen)  # x-nodes evaluated for x = 0.5 before it failed
        assert 0 < k < 64
        assert np.array_equal(seen, half[:k])
        assert [np.max(np.real(p)) > 12.0 for p in of_half] == (
            [False] * (len(of_half) - 1) + [True])

    def test_complex_original_becomes_nan_with_its_reason(self):
        """The conjugate-symmetry check fails every node of 1/((p-i)(q+1)(s+1))."""
        F = TransformSolution(lambda p, q, s: 1.0 / ((p - 1j) * (q + 1.0) * (s + 1.0)), ())
        fld = reconstruct(F, (0.5, 1.0), (0.8,), (0.4, 1.2), InversionConfig(nodes=16))
        assert fld.nonfinite_count == 4
        assert list(fld.nan_reasons) == [(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1)]
        assert all(r.startswith("ContourError: transform is not conjugate-symmetric")
                   for r in fld.nan_reasons.values())

    def test_positive_grid_required(self):
        F = TransformSolution(lambda p, q, s: 1.0 / (p * q * s), ())
        with pytest.raises(ValueError):
            reconstruct(F, (0.0, 1.0), (0.5,), (0.5,))

    @pytest.mark.parametrize("axes, message", [
        (((), (0.5,), (0.5,)), "axis x is empty"),
        (((0.5,), (0.0, 1.0), (0.5,)), "axis y must be finite and positive"),
        (((0.5,), (0.5,), (0.5, math.nan)), "axis t must be finite and positive"),
        (((0.5,), (0.5,), (math.inf,)), "axis t must be finite and positive"),
        (((1.0, 0.5), (0.5,), (0.5,)), "axis x must be strictly increasing"),
        (((0.5,), (0.5, 0.5), (0.5,)), "axis y must be strictly increasing"),
    ])
    def test_grid_checked_before_any_inversion(self, axes, message):
        calls = []

        def evaluator(p, q, s):
            calls.append(p.shape)
            return 1.0 / (p * q * s)

        # the whole message: a refused non-empty axis is listed after "got"
        nodes = list(axes["xyt".index(message.split()[1])])
        whole = f"grid {message}" + (f", got {nodes}" if nodes else "")
        with pytest.raises(ValueError, match=f"^{re.escape(whole)}$"):
            reconstruct(TransformSolution(evaluator, ()), *axes)
        assert calls == []

    def test_grid_serialization(self):
        fld = Grid3Field((0.5,), (1.0,), (1.5,), np.array([[[2.0]]]))
        lines = fld.to_table_lines()
        assert lines[0] == "x,y,t,f"
        assert lines[1] == "0.5,1,1.5,2"
        assert len(lines) == 2

    def test_grid_shape_validation(self):
        with pytest.raises(ValueError):
            Grid3Field((0.5,), (1.0,), (1.5,), np.zeros((2, 1, 1)))
        with pytest.raises(ValueError):
            Grid3Field((1.0, 0.5), (1.0,), (1.5,), np.zeros((2, 1, 1)))
        for xs, message in [
            ((), "grid axis x is empty"),
            ((0.0,), "grid axis x must be finite and positive"),
            ((math.nan,), "grid axis x must be finite and positive"),
            ((math.inf,), "grid axis x must be finite and positive"),
            ((0.5, 0.5), "grid axis x must be strictly increasing"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}"):
                Grid3Field(xs, (1.0,), (1.5,), np.zeros((len(xs), 1, 1)))


def _serial_reconstruct(F, xs, ys, ts, cfg):
    """The node loop ``reconstruct`` ran before it spread nodes over threads."""
    values = np.empty((len(xs), len(ys), len(ts)))
    reasons = {}
    for ix, x in enumerate(xs):
        for iy, y in enumerate(ys):
            for it, t in enumerate(ts):
                try:
                    values[ix, iy, it] = invert_3d(F.evaluator, (x, y, t), cfg)
                except (ContourError, SingularDenominator) as exc:
                    values[ix, iy, it] = math.nan
                    reasons[ix, iy, it] = f"{type(exc).__name__}: {exc}"
    return values, reasons


def _separable(p, q, s):
    return 1.0 / ((p + 0.5) * (q + 1.5) * (s + 1.0))


def _fake_singular(p, q, s):
    """Singular for x < 0.75 (Re p > 12), non-finite for t < 0.45 (Re s > 20)."""
    if np.max(np.real(p)) > 12.0:
        raise SingularDenominator("evaluation on singular locus: test")
    return np.where(np.real(s) > 20.0, np.nan, _separable(p, q, s))


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


class TestReconstructThreads:
    """Nodes run on one thread per CPU with the results of a serial loop."""

    XS, YS, TS = (0.3, 0.75, 1.2), (0.5, 1.0), (0.4, 0.9, 1.5)

    @pytest.mark.parametrize("m", [16, 24])
    @pytest.mark.parametrize("name", ["heat", "telegraph", "separable", "singular"])
    def test_matches_serial_loop(self, name, m, monkeypatch):
        F = {
            "heat": transform_solution(HeatSpec(gamma=0.7)),
            "telegraph": transform_solution(
                TelegraphSpec(gamma=0.9, alpha=0.5, beta=1.0)),
            "separable": TransformSolution(_separable, ()),
            "singular": TransformSolution(_fake_singular, ("Re p > 12",)),
        }[name]
        cfg = InversionConfig(nodes=m)
        _cpus(monkeypatch, 4)
        fld = reconstruct(F, self.XS, self.YS, self.TS, cfg)
        values, reasons = _serial_reconstruct(F, self.XS, self.YS, self.TS, cfg)
        assert np.array_equal(fld.values, values, equal_nan=True)
        assert fld.nonfinite_count == np.count_nonzero(~np.isfinite(values))
        assert list(fld.nan_reasons.items()) == list(reasons.items())
        if name == "singular":
            assert {r.split(":")[0] for r in reasons.values()} == {
                "SingularDenominator", "ContourError"}
            assert 0 < len(reasons) < values.size

    def test_every_node_evaluated_once_under_fast_switching(self, monkeypatch):
        """Eight threads on a 120-node grid, switching every microsecond.

        At 8 nodes a point evaluates the first 8 x-nodes of its 16^3
        contour grid in one slab and the last x-node in one check slab, so
        the first node of each axis contour (the last one for the check
        slab's x) names the point an evaluator call belongs to.
        """
        xs, ys, ts = (0.3, 0.5, 0.7, 0.9, 1.1, 1.3), (0.4, 0.8, 1.2, 1.6, 2.0), (
            0.5, 1.0, 1.5, 2.0)
        cfg = InversionConfig(nodes=8)
        first = [{_talbot_nodes(u, 8, 1.0)[0][k]: u for u in axis for k in (0, -1)}
                 for axis in (xs, ys, ts)]
        seen = []

        def evaluator(p, q, s):
            point = tuple(f[a.flat[0]] for f, a in zip(first, (p, q, s)))
            seen.append((point, p.size))
            return _separable(p, q, s)

        F = TransformSolution(evaluator, ())
        _cpus(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            fld = reconstruct(F, xs, ys, ts, cfg)
        finally:
            sys.setswitchinterval(interval)
        points = list(itertools.product(xs, ys, ts))
        assert sorted(seen) == sorted([(pt, 8) for pt in points]
                                      + [(pt, 1) for pt in points])
        values, _ = _serial_reconstruct(TransformSolution(_separable, ()), xs, ys, ts, cfg)
        assert np.array_equal(fld.values, values)

    def test_error_at_lowest_node_is_raised_after_join(self, monkeypatch):
        """Every node with x >= 0.75 raises; the caller gets node (1, 0, 0)'s.

        At 8 nodes a point is one half-grid slab and one check slab, named
        by its first contour nodes (the last x-node for the check slab).
        """
        first_x = {_talbot_nodes(x, 8, 1.0)[0][k]: x for x in self.XS for k in (0, -1)}
        first_t = {_talbot_nodes(t, 8, 1.0)[0][0]: t for t in self.TS}

        def evaluator(p, q, s):
            x, t = first_x[p.flat[0]], first_t[s.flat[0]]
            if x >= 0.75:
                raise RuntimeError(f"evaluator broke at x={x}, t={t}")
            return 1.0 / (p * q * s)

        _cpus(monkeypatch, 4)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=r"^evaluator broke at x=0.75, t=0.4$"):
            reconstruct(TransformSolution(evaluator, ()), self.XS, self.YS, self.TS,
                        InversionConfig(nodes=8))
        assert threading.active_count() == before

    def test_budget_error_is_raised_after_join(self, monkeypatch):
        F = TransformSolution(lambda p, q, s: 1.0 / (p * q * s), ())
        _cpus(monkeypatch, 4)
        before = threading.active_count()
        with pytest.raises(CostBudgetError):
            reconstruct(F, self.XS, self.YS, self.TS,
                        InversionConfig(nodes=16, eval_budget=1000))
        assert threading.active_count() == before

    def test_interrupt_in_caller_joins_helpers(self, monkeypatch):
        """Helpers hold their first node until the caller is interrupted."""
        caller = threading.get_ident()
        interrupted = threading.Event()

        def evaluator(p, q, s):
            if threading.get_ident() == caller:
                interrupted.set()
                raise KeyboardInterrupt
            assert interrupted.wait(timeout=30)
            return 1.0 / (p * q * s)

        _cpus(monkeypatch, 4)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            reconstruct(TransformSolution(evaluator, ()), self.XS, self.YS, self.TS,
                        InversionConfig(nodes=8))
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus", [1, None])
    def test_one_cpu_starts_no_thread(self, cpus, monkeypatch):
        """One CPU, or no affinity call (macOS, Windows): the caller does all."""
        def refuse(self):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity")
        else:
            _cpus(monkeypatch, cpus)
        idents = []

        def evaluator(p, q, s):
            idents.append(threading.get_ident())
            return 1.0 / (p * q * s)

        fld = reconstruct(TransformSolution(evaluator, ()), self.XS, self.YS, self.TS,
                          InversionConfig(nodes=8))
        assert fld.nonfinite_count == 0
        assert set(idents) == {threading.get_ident()}

    def test_caller_context_is_visible_at_every_node(self, monkeypatch):
        var = contextvars.ContextVar("var")
        token = var.set("caller")
        seen = []

        def evaluator(p, q, s):
            seen.append(var.get(None))
            return 1.0 / (p * q * s)

        _cpus(monkeypatch, 4)
        try:
            reconstruct(TransformSolution(evaluator, ()), self.XS, self.YS, self.TS,
                        InversionConfig(nodes=8))
        finally:
            var.reset(token)
        # each node makes one half-grid call and one check call
        assert seen == ["caller"] * (2 * len(self.XS) * len(self.YS) * len(self.TS))


def _reference_guard(name, den, scale):
    if np.any(np.abs(den) <= 1e-12 * np.asarray(scale)):
        raise SingularDenominator(f"evaluation on singular locus: {name}")


def _reference_heat(g):
    """The separate printed heat evaluator that the one builder replaced."""
    def evaluator(p, q, s):
        p, q, s = np.asarray(p), np.asarray(q), np.asarray(s)
        pg, qg, sg = p ** g, q ** g, s ** g
        dd = PI2 * sg - p * p - q * q
        _reference_guard(
            "pi^2 s^g = p^2 + q^2", dd,
            PI2 * np.abs(sg) + np.abs(p) ** 2 + np.abs(q) ** 2 + 1.0,
        )
        _reference_guard("p^g = 1", 1.0 - pg, 1.0 + np.abs(pg))
        _reference_guard("s = 0", s, 1.0)
        term1 = math.pi ** 4 * sg / s / ((p * p + PI2) * (q * q + PI2) * dd)
        term2 = math.pi * p * qg / q / (s * (1.0 + qg) * dd)
        term3 = math.pi * q * pg / p / (s * (1.0 - pg) * dd)
        out = term1 - term2 - term3
        return complex(out) if out.ndim == 0 else out

    return TransformSolution(evaluator, ("pi^2 s^g = p^2 + q^2", "p^g = 1", "s = 0"))


def _reference_telegraph(g, a, b):
    """The separate printed telegraph evaluator that the one builder replaced."""
    def evaluator(p, q, s):
        p, q, s = np.asarray(p), np.asarray(q), np.asarray(s)
        pg, qg, sg = p ** g, q ** g, s ** g
        dd = (1.0 + 2.0 * a) * sg + b * b - p * p - q * q
        _reference_guard(
            "(1+2a) s^g + b^2 = p^2 + q^2", dd,
            (1.0 + 2.0 * a) * np.abs(sg) + b * b + np.abs(p) ** 2 + np.abs(q) ** 2,
        )
        _reference_guard("p^g = 1", pg - 1.0, 1.0 + np.abs(pg))
        _reference_guard("s = 0", s, 1.0)
        term1 = (1.0 + 2.0 * a) * sg / s / (p * (q + 1.0) * dd)
        term2 = math.pi * p * qg / q / (s * (1.0 + qg) * dd)
        term3 = math.pi * q * pg / p / (s * (pg - 1.0) * dd)
        out = term1 - term2 - term3
        return complex(out) if out.ndim == 0 else out

    return TransformSolution(
        evaluator, ("(1+2a) s^g + b^2 = p^2 + q^2", "p^g = 1", "s = 0"))


ONE_BUILDER_SPECS = {
    "heat-0.5": (HeatSpec(gamma=0.5), _reference_heat(0.5)),
    "heat-1": (HeatSpec(gamma=1.0), _reference_heat(1.0)),
    "telegraph-0.9": (TelegraphSpec(gamma=0.9, alpha=0.5, beta=1.0),
                      _reference_telegraph(0.9, 0.5, 1.0)),
    "telegraph-0.4": (TelegraphSpec(gamma=0.4, alpha=1.3, beta=1.8),
                      _reference_telegraph(0.4, 1.3, 1.8)),
}


@pytest.mark.parametrize("name", list(ONE_BUILDER_SPECS))
class TestOneBuilder:
    """One builder and one residual serve heat and telegraph alike."""

    def test_values_equal_the_separate_evaluators_bit_for_bit(self, name):
        """Talbot grids at A8's node and the thread tests' grid, m = 16 and 24."""
        spec, ref = ONE_BUILDER_SPECS[name]
        F = transform_solution(spec)
        T = TestReconstructThreads
        points = [(0.8, 0.8, 0.25), *itertools.product(T.XS, T.YS, T.TS)]
        for m in (16, 24):
            for point in points:
                px, qy, st = (_talbot_nodes(u, m, 1.0)[0] for u in point)
                grid = (px[:, None, None], qy[None, :, None], st[None, None, :])
                assert F(*grid).tobytes() == ref(*grid).tobytes()

    def test_loci_and_guard_messages_unchanged(self, name):
        spec, ref = ONE_BUILDER_SPECS[name]
        F = transform_solution(spec)
        assert F.singular_loci == ref.singular_loci
        g = spec.gamma.value
        c, b2 = (PI2, 0.0) if isinstance(spec, HeatSpec) else (
            1.0 + 2.0 * spec.alpha, spec.beta ** 2)
        hits = [(2.0, 1.0, ((5.0 - b2) / c) ** (1.0 / g)), (1.0, 2.0, 1.5),
                (2.0, 1.0, 0.0)]
        for point, locus in zip(hits, ref.singular_loci):
            for fn in (F, ref):
                with pytest.raises(SingularDenominator,
                                   match=re.escape(f"singular locus: {locus}") + "$"):
                    fn(*point)

    def test_residual_is_the_unnormalised_relation(self, name):
        """For 1.01 F the residual is 0.01 |D F|, with D = c s^g + b^2 - p^2 - q^2."""
        spec, _ = ONE_BUILDER_SPECS[name]
        F = transform_solution(spec)
        F_bad = TransformSolution(lambda p, q, s: 1.01 * F(p, q, s), F.singular_loci)
        p, q, s = 2.0, 1.5, 1.2
        dd = spec.c * s ** spec.gamma.value + spec.b2 - p * p - q * q
        assert transform_residual(spec, F, (p, q, s)) <= 1e-13 * abs(dd * F(p, q, s))
        assert_allclose(transform_residual(spec, F_bad, (p, q, s)),
                        0.01 * abs(dd * F(p, q, s)), rtol=1e-10)
