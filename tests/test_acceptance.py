"""Acceptance criteria A1-A11.

Each test enforces its stated tolerance and wall-clock budget and prints
one ``A<n> PASS/FAIL`` line (visible with ``pytest -s`` or in captured
output).  A8 writes its node-by-node deviation report under pytest's
``tmp_path`` and checks it against the committed reference report in
``tests/_artifacts/``.
"""

import math
import os
import time

import numpy as np
from numpy.testing import assert_allclose

from shehu.fd_oracle import FDGrid, l1_heat_solve
from shehu.forward import (
    QuadratureConfig,
    RatioPoint,
    analytic_transform,
    shehu_1d,
    shehu_2d,
    shehu_3d,
)
from shehu.fpde import (
    HeatSpec,
    TelegraphSpec,
    reconstruct,
    series_solution,
    transform_residual,
    transform_solution,
)
from shehu.funclib import get_field, ml_kernel_field, power_field
from shehu.inverse import InversionConfig, invert_1d, invert_3d
from shehu.opcalc import verify_suite
from shehu.specfun import (
    MLParams,
    WrightSeriesSpec,
    mittag_leffler,
    wright_series,
)

A8_REFERENCE = os.path.join(
    os.path.dirname(__file__), "_artifacts", "a8_deviation_report.csv"
)
# Reconstructed values differ between platforms by rounding in the contour
# sums, which reach 1.7e8 on this grid: two hosts' copies of the report
# differ by at most 7e-7 absolute, which is 1.8e-8 relative at a node whose
# value is 0.1 (median 3e-13).
A8_REPORT_RTOL = 1e-7


class _Gate:
    """Times a criterion, prints its pass/fail line, enforces the budget."""

    def __init__(self, name: str, budget_s: float):
        self.name = name
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None and elapsed <= self.budget else "FAIL"
        print(f"{self.name} {status} elapsed={elapsed:.2f}s budget={self.budget:g}s")
        if exc_type is None:
            assert elapsed <= self.budget, (
                f"{self.name} exceeded budget: {elapsed:.2f}s > {self.budget}s"
            )
        return False


def test_a1_transform_quadrature_vs_closed_forms():
    """A1: 1-D/2-D/3-D transforms match analytic values, rel <= 1e-8."""
    with _Gate("A1", 10.0):
        cfg = QuadratureConfig(rel_tol=1e-10, abs_tol=1e-13, tail_cut_tol=1e-12)
        rng = np.random.default_rng(101)
        ratios = rng.uniform(0.8, 3.0, size=5)

        cases_1d = [
            (get_field("const"), lambda r: 1.0 / r),
            (get_field("t"), lambda r: 1.0 / (r * r)),
            (power_field(0.5), lambda r: analytic_transform("power", r, nu=0.5)),
            (get_field("exp-t"), lambda r: 1.0 / (r + 1.0)),
            (get_field("sin-pit"), lambda r: analytic_transform("sin", r, omega=math.pi)),
        ]
        for fld, ref in cases_1d:
            for r in ratios:
                got = shehu_1d(fld.exp_order(), "t", RatioPoint(t=(r, 1.0)), cfg)
                assert_allclose(got, ref(r), rtol=1e-8)

        for r2 in rng.uniform(0.8, 3.0, size=(5, 2)):
            p, q = r2
            got = shehu_2d(
                get_field("sine-product").exp_order(), ("x", "y"),
                RatioPoint.from_ratios(p, q), cfg,
            )
            ref = (math.pi / (p * p + math.pi ** 2)) * (
                math.pi / (q * q + math.pi ** 2)
            )
            assert_allclose(got, ref, rtol=1e-8)

        for r3 in rng.uniform(0.8, 3.0, size=(5, 3)):
            got = shehu_3d(
                get_field("exp-xyt").exp_order(), RatioPoint.from_ratios(*r3), cfg
            )
            ref = math.prod(1.0 / (r + 1.0) for r in r3)
            assert_allclose(got, ref, rtol=1e-8)


def test_a2_ml_kernel_pairs():
    """A2: quadrature of the ML kernel matches its closed-form transform."""
    with _Gate("A2", 30.0):
        rng = np.random.default_rng(103)
        for g, b, c in ((0.5, 1.0, -1.0), (0.8, 1.2, -0.5), (1.0, 1.0, -1.0)):
            fld = ml_kernel_field(g, b, c, axis="y")
            lo = max(0.7, abs(c) ** (1.0 / g) + 0.2)
            for ratio in rng.uniform(lo, 2.5, size=3):
                got = shehu_1d(
                    fld.exp_order(), "y", RatioPoint.from_ratios(q=float(ratio))
                )
                ref = analytic_transform("ml_kernel", float(ratio),
                                         gamma=g, beta=b, c=c)
                assert_allclose(got, ref, rtol=1e-6)


def test_a3_operational_integral_rules():
    """A3: integral rules verified over >= 24 independent instances."""
    with _Gate("A3", 120.0):
        rep = verify_suite("operational-integrals", 1e-6, 31)
        assert len(rep.rows) >= 24
        assert rep.passed, [r for r in rep.rows if not r.passed]


def test_a4_operational_caputo_rules():
    """A4: Caputo rules (consistent-exponent form) over >= 16 instances."""
    with _Gate("A4", 120.0):
        rep = verify_suite("operational-derivatives", 1e-5, 37)
        assert len(rep.rows) >= 16
        assert rep.passed, [r for r in rep.rows if not r.passed]


def test_a5_convolution_product_law():
    """A5: transform of the numeric convolution equals the product of transforms."""
    with _Gate("A5", 120.0):
        rep = verify_suite("convolution", 1e-5, 41)
        assert len(rep.rows) == 6
        assert rep.passed, [r for r in rep.rows if not r.passed]


def test_a6_inversion_round_trip():
    """A6: per-axis inversion recovers originals; triple inversion recovers
    the separable exponential."""
    with _Gate("A6", 60.0):
        cfg = InversionConfig()
        pairs = [
            (lambda s: 1.0 / (s * s), lambda t: t),
            (lambda s: 1.0 / (s + 1.0), lambda t: math.exp(-t)),
            (
                lambda s: s ** -0.5 / (s ** 0.5 + 1.0),
                lambda t: mittag_leffler(MLParams(0.5, 1.0), -math.sqrt(t)),
            ),
        ]
        for F, f in pairs:
            for t in (0.4, 0.8, 1.2, 2.0, 3.0):
                got = invert_1d(F, t, cfg)
                assert abs(got - f(t)) <= 1e-6 * max(abs(f(t)), 1.0)
        F3 = lambda p, q, s: 1.0 / ((p + 1.0) * (q + 1.0) * (s + 1.0))
        for pt in ((0.5, 0.5, 0.5), (1.0, 1.0, 1.0), (0.4, 1.1, 0.7),
                   (1.5, 0.6, 1.2)):
            got = invert_3d(F3, pt, cfg)
            ref = math.exp(-sum(pt))
            assert abs(got - ref) <= 1e-6 * max(abs(ref), 1.0)


def test_a7_transform_domain_solutions():
    """A7: both worked solutions satisfy their defining relations, <= 1e-10."""
    with _Gate("A7", 5.0):
        rng = np.random.default_rng(107)

        def points(n=20):
            out = []
            while len(out) < n:
                p, q, s = rng.uniform(1.2, 3.0, size=3)
                if abs(p - 1.0) > 0.05:
                    out.append((float(p), float(q), float(s)))
            return out

        for g in (0.3, 0.5, 0.7, 1.0):
            spec = HeatSpec(gamma=g)
            F = transform_solution(spec)
            for pt in points():
                assert transform_residual(spec, F, pt) <= 1e-10
        for g in (0.5, 0.9, 1.0):
            for a, b in ((0.5, 1.0), (1.0, 2.0)):
                spec = TelegraphSpec(gamma=g, alpha=a, beta=b)
                F = transform_solution(spec)
                for pt in points():
                    assert transform_residual(spec, F, pt) <= 1e-10


def test_a8_reconstruction_vs_fd_oracle(tmp_path):
    """A8: reconstruction completes finite everywhere; the node-by-node
    deviation report against the independent scheme matches the committed
    reference report to A8_REPORT_RTOL.

    The source boundary data are inconsistent with the stated initial
    plane (a documented defect), so full agreement is a flag, not an
    assertion: deviations <= 5 percent would additionally mark agreement.
    """
    with _Gate("A8", 600.0):
        xs = (0.2, 0.4, 0.6, 0.8)
        ts = (0.25, 0.5, 0.75, 1.0)
        F = transform_solution(HeatSpec(gamma=1.0))
        field = reconstruct(F, xs, xs, ts, InversionConfig(nodes=24))
        assert field.nonfinite_count == 0

        grid = FDGrid(nx=19, ny=19, nt=64, dt=1.0 / 64)
        oracle = l1_heat_solve(
            1.0, lambda x, y: math.sin(math.pi * x) * math.sin(math.pi * y), grid
        )
        def nearest(nodes, v):
            i = int(np.argmin(np.abs(np.asarray(nodes) - v)))
            assert abs(nodes[i] - v) < 1e-9
            return i

        ix = [nearest(grid.xs, v) for v in xs]
        it = [nearest(grid.ts, v) for v in ts]

        report_path = tmp_path / "a8_deviation_report.csv"
        max_abs = max_rel = 0.0
        with open(report_path, "w") as fh:
            fh.write("x,y,t,reconstructed,oracle,abs_dev,rel_dev\n")
            for i, x in enumerate(xs):
                for j, y in enumerate(xs):
                    for k, t in enumerate(ts):
                        rec = field.at(i, j, k)
                        orc = oracle.at(ix[i], ix[j], it[k])
                        adev = abs(rec - orc)
                        rdev = adev / max(abs(orc), 1e-12)
                        max_abs = max(max_abs, adev)
                        max_rel = max(max_rel, rdev)
                        fh.write(
                            f"{x:.17g},{y:.17g},{t:.17g},{rec:.17g},"
                            f"{orc:.17g},{adev:.17g},{rdev:.17g}\n"
                        )
        got = np.loadtxt(report_path, delimiter=",", skiprows=1)
        ref = np.loadtxt(A8_REFERENCE, delimiter=",", skiprows=1)
        assert_allclose(got[:, :3], ref[:, :3], rtol=0.0, atol=0.0)
        # reconstructed and oracle columns
        assert_allclose(got[:, 3:5], ref[:, 3:5], rtol=A8_REPORT_RTOL, atol=0.0)
        agreement = "full-agreement" if max_rel <= 0.05 else "documented-deviation"
        print(f"A8 report: max_abs={max_abs:.3e} max_rel={max_rel:.3e} "
              f"[{agreement}] -> {report_path}")


def test_a9_special_functions():
    """A9: exponential and cosh reductions plus the series-family identity."""
    with _Gate("A9", 5.0):
        for x in np.linspace(-5.0, 5.0, 21):
            assert_allclose(
                mittag_leffler(MLParams(1.0, 1.0), float(x)), math.exp(x),
                rtol=1e-10,
            )
        for x in np.linspace(0.0, 9.0, 19):
            assert_allclose(
                mittag_leffler(MLParams(2.0, 1.0), float(x)),
                math.cosh(math.sqrt(x)),
                rtol=1e-10,
            )
        for sigma in (-2.0, -1.0, -0.25, 0.5, 1.5, 2.0):
            for g, b in ((0.5, 1.0), (0.8, 1.2), (1.0, 1.0)):
                res = wright_series(
                    WrightSeriesSpec(upper=((1, 1),), lower=((b, g),)), sigma
                )
                ref = mittag_leffler(MLParams(g, b), sigma)
                assert_allclose(res.value.real, ref, rtol=1e-10, atol=1e-13)


def test_a10_series_guard_behavior():
    """A10: printed series coefficients are fully guarded, finite, stable."""
    with _Gate("A10", 5.0):
        runs = [
            series_solution(HeatSpec(gamma=0.7), (0.5, 0.5, 0.5), truncation=6)
            for _ in range(2)
        ]
        assert runs[0].guarded_count > 0
        assert all(math.isfinite(r.value) for r in runs)
        assert runs[0] == runs[1]

        runs_t = [
            series_solution(
                TelegraphSpec(gamma=0.5, alpha=0.5, beta=1.0), (0.4, 0.6, 0.8),
                truncation=4,
            )
            for _ in range(2)
        ]
        assert runs_t[0].guarded_count > 0
        assert all(math.isfinite(r.value) for r in runs_t)
        assert runs_t[0] == runs_t[1]


def test_a11_l1_oracle_self_check():
    """A11: the time-stepping oracle matches separable solutions to 2%."""
    with _Gate("A11", 120.0):
        ic = lambda x, y: math.sin(math.pi * x) * math.sin(math.pi * y)
        grid = FDGrid(nx=31, ny=31, nt=64, dt=0.25 / 64)
        c = grid.xs.index(0.5)

        fld = l1_heat_solve(1.0, ic, grid)
        ref = math.exp(-2.0 * 0.25)
        assert abs(fld.at(c, c, grid.nt - 1) - ref) <= 0.02 * abs(ref)

        fld = l1_heat_solve(0.5, ic, grid)
        ref = mittag_leffler(MLParams(0.5, 1.0), -2.0 * math.sqrt(0.25))
        assert abs(fld.at(c, c, grid.nt - 1) - ref) <= 0.02 * abs(ref)
