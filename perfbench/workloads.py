"""The benchmark's request sets and the two workloads built from them.

Each workload is a closed loop with one client: a pass is a list of
requests built from a pass seed, run one after another, and every answer
is checked against a reference that does not come from the code path
under test.  The `verify` and `transforms` request sets run together as
the `verify-transforms` workload; `reconstruct` is the other workload.

Layer shares quoted below are self times from the traced baseline on a
2-vCPU machine (see README.md); they say which layers an optimisation of
the ROADMAP can move on which workload.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np
from scipy.special import erfcx

from shehu import (cli, errors, fd_oracle, forward, fpde, fracops, funclib, inverse,
                   opcalc, specfun)
from shehu.forward import ExpOrderFn, QuadratureConfig, RatioPoint
from shehu.inverse import InversionConfig
from shehu.specfun import MLParams


@dataclass
class Result:
    """One checked request.

    ``status`` is "ok", "refused" (a typed ``ShehuError`` the request
    documents as today's contract) or "failed" (raised otherwise, or
    missed its tolerance; ``reason`` says which).  ``value`` is an exact
    text form of the answer for the traced/untraced comparison; ``err`` is
    on the scale named by the request; ``tags`` name the layers whose
    accuracy the check measures.
    """

    id: str
    latency_s: float
    value: str
    status: str = "ok"
    reason: str = ""
    err: float = 0.0
    tags: tuple[str, ...] = ()


def exact(v) -> str:
    """Bit-exact text of a number, array or string."""
    if isinstance(v, str):
        return v
    if isinstance(v, np.ndarray):
        return v.tobytes().hex()
    c = complex(v)
    return f"{c.real.hex()},{c.imag.hex()}"


def checked(rid: str, compute: Callable, reference, tol: float, scale_floor: float = 0.0,
            tags: tuple[str, ...] = (), refusals: tuple[type, ...] = ()) -> Result:
    """Time ``compute()``, then compare it with ``reference``.

    The error is |got - ref| / max(|ref|, scale_floor); a relative error
    when ``scale_floor`` is 0.  Exceptions listed in ``refusals`` are
    today's documented behaviour and count as refused, not failed.
    """
    t0 = perf_counter()
    try:
        got = compute()
    except refusals as exc:
        return Result(rid, perf_counter() - t0, type(exc).__name__, "refused",
                      f"{type(exc).__name__}: {exc}", tags=tags)
    except Exception as exc:  # any other raise is a failed request
        return Result(rid, perf_counter() - t0, type(exc).__name__, "failed",
                      f"{type(exc).__name__}: {exc}", tags=tags)
    latency = perf_counter() - t0
    ref = reference() if callable(reference) else reference
    err = abs(complex(got) - complex(ref)) / max(abs(complex(ref)), scale_floor, 1e-300)
    ok = err <= tol
    return Result(rid, latency, exact(got), "ok" if ok else "failed",
                  "" if ok else f"error {err:.3e} > tolerance {tol:g}", err, tags)


@dataclass
class Pass:
    """The results of one pass and its wall time."""

    results: list[Result] = field(default_factory=list)
    artifacts: list[tuple[str, str]] = field(default_factory=list)
    seconds: float = 0.0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------
#
# Why: checking every operational rule numerically is the paper's reason to
# exist, and `shehu verify` is how users run those checks.  A request is one
# verification row, clocked when ``VerificationReport.add`` returns.
#
# What runs: the `operational-integrals` (A3 tolerance 1e-6), `ml-kernel`
# and `roundtrip` suites (CLI default 1e-6) through `shehu.cli.main`
# in-process, each with a seed drawn from the pass seed, plus rows the
# benchmark builds from public functions for the Caputo rules
# (`caputo_derivative` under `shehu_1d` against `caputo_rule`), for
# `boundary_from_quadrature` and for `convolve_3d` (A4/A5 tolerance 1e-5),
# the last two against closed forms.
#
# Left out: the `operational-derivatives` and `convolution` suites.  One
# run of either takes 20-116 s on 2 vCPU (the `cap-2d/sine-product` rows
# alone take 13-66 s, each `box` row 9-15 s), longer than a whole
# benchmark run may last.  They join in a separate benchmark change once
# ROADMAP items 2-3 make them affordable; until then the benchmark-built
# rows above keep `fracops.caputo_derivative`,
# `opcalc.boundary_from_quadrature` and `opcalc.convolve_3d` measured.
#
# Layers (self time per pass, traced baseline): fracops 79% (the
# `rl_integral` integrands of the adaptive rows), specfun 11% (ML-kernel
# integrands at |z| <= 5), forward 4%, opcalc 4%, inverse 1%, cli 0.1%;
# fpde and fd_oracle idle.

VERIFY_SUITES = (
    ("operational-integrals", 1e-6),
    ("ml-kernel", 1e-6),
    ("roundtrip", 1e-6),
)
RULE_TOL = 1e-5


@contextlib.contextmanager
def _row_clock(rows: list):
    """Record (row, seconds since the previous row) at each report row."""
    add = opcalc.VerificationReport.add
    last = [perf_counter()]

    def clocked(self, row_id, lhs, rhs):
        add(self, row_id, lhs, rhs)
        now = perf_counter()
        rows.append((self.suite, self.rows[-1], now - last[0]))
        last[0] = now

    opcalc.VerificationReport.add = clocked
    try:
        yield last
    finally:
        opcalc.VerificationReport.add = add


def _row_result(suite: str, row, latency: float) -> Result:
    tags = ("opcalc", "inverse") if row.id.startswith("invert") else ("opcalc",)
    ok = row.passed
    return Result(f"{suite}/{row.id}", latency,
                  ",".join(exact(v) for v in (row.lhs, row.rhs, row.rel_err)),
                  "ok" if ok else "failed",
                  "" if ok else f"row error {row.rel_err:.3e} > tolerance",
                  row.rel_err, tags)


def _suite_job(out: Pass, suite: str, tol: float, seed: int, tmp: Path) -> None:
    rows: list = []
    report = tmp / f"{suite}.txt"
    report.unlink(missing_ok=True)
    stderr = io.StringIO()
    with _row_clock(rows) as last, contextlib.redirect_stderr(stderr):
        last[0] = perf_counter()
        code = cli.main(["verify", "--suite", suite, "--tol", repr(tol),
                         "--seed", str(seed), "--report", str(report)])
    results = [_row_result(suite, row, dt) for _, row, dt in rows]
    if code != 0 and all(r.status == "ok" for r in results):
        # the suite raised before writing its report
        results.append(Result(f"{suite}/exit", perf_counter() - last[0], str(code),
                              "failed", f"exit code {code}: {stderr.getvalue().strip()}"))
    out.results += results
    if report.exists():
        out.artifacts.append((f"{suite}/report", report.read_text()))


def _image_rates(fld, axis: str):
    """Certificate rates of a fractional image along ``axis`` (as in opcalc)."""
    return tuple((max(r, 0.0) + 0.3) if ax == axis else r
                 for ax, r in zip(fracops.AXES, fld.rates))


RULE_CONFIG = QuadratureConfig(rel_tol=1e-9, abs_tol=1e-13, tail_cut_tol=1e-12)


def _caputo_1d_row(rng, fname: str, g: float):
    """Caputo rule along y: numeric derivative under the 1-D transform."""
    fld = funclib.get_field(fname)
    rates = _image_rates(fld, "y")
    vars = RatioPoint.from_ratios(q=float(rng.uniform(max(0.5, rates[1] + 0.5), 3.0)))
    frozen = {"x": 0.6, "t": 0.9}

    def deriv(x, y, t):
        return fracops.caputo_derivative(fld.smooth, "y", g, (x, y, t))

    lhs = forward.shehu_1d(ExpOrderFn(deriv, fld.bound * 8.0, rates), "y", vars,
                           RULE_CONFIG, frozen)
    order = fracops.FracOrder(g)
    bnd = opcalc.BoundaryTransforms()
    for i in range(order.ceil):
        bnd.put(("y",), (i,), fld.smooth.partial_n("y", i)(frozen["x"], 0.0, frozen["t"]))
    rhs = opcalc.caputo_rule(
        forward.shehu_1d(fld.exp_order(), "y", vars, RULE_CONFIG, frozen),
        vars, {"y": order}, bnd, transform_axes=("y",))
    return lhs, rhs


def _boundary_row(rng):
    """Triple Caputo rule of order 1.5 along x with quadrature boundary
    terms, against the closed-form image x^0.5 E_{1,1.5}(-x) e^{-y-t}."""
    fld = funclib.get_field("exp-xyt")
    p = float(rng.uniform(1.2, 3.0))  # the closed form needs p > |c| = 1
    q, s = (float(v) for v in rng.uniform(0.8, 3.0, size=2))
    vars = RatioPoint.from_ratios(p, q, s)
    tail = 1.0 / ((q + 1.0) * (s + 1.0))
    bnd = opcalc.boundary_from_quadrature(fld, vars, {"x": 1.5}, fracops.AXES, RULE_CONFIG)
    rhs = opcalc.caputo_rule(tail / (p + 1.0), vars, {"x": 1.5}, bnd)
    lhs = forward.analytic_transform("ml_kernel", p, gamma=1.0, beta=1.5, c=-1.0) * tail
    return lhs, rhs


def _convolution_row(rng, gname: str, k: float):
    """Triple convolution of exp-xyt with exp-(k xyt) against its closed
    form, per axis (e^{-u} - e^{-k u}) / (k - 1), or u e^{-u} at k = 1."""
    f = funclib.get_field("exp-xyt").exp_order()
    g = funclib.get_field(gname).exp_order()
    pt = tuple(float(v) for v in rng.uniform(0.2, 2.0, size=3))
    lhs = opcalc.convolve_3d(f, g, pt, RULE_CONFIG)
    rhs = math.prod(u * math.exp(-u) if k == 1.0
                    else (math.exp(-u) - math.exp(-k * u)) / (k - 1.0) for u in pt)
    return lhs, rhs


def _rule_rows_job(out: Pass, rng) -> None:
    rows_spec = [(f"cap-1d/{f}/g{g}", _caputo_1d_row, (f, g)) for f, g in
                 (("exp-y", 0.5), ("exp-y", 1.5), ("sine-product", 0.5), ("xyt", 0.7))]
    rows_spec += [("cap-3d/exp-xyt/x/g1.5/boundary", _boundary_row, ()),
                  ("conv-3d/exp-xyt*exp-xyt", _convolution_row, ("exp-xyt", 1.0)),
                  ("conv-3d/exp-xyt*exp-2xyt", _convolution_row, ("exp-2xyt", 2.0))]
    report = opcalc.VerificationReport("bench-rules", RULE_TOL, 0)
    rows: list = []
    with _row_clock(rows) as last:
        for rid, build, params in rows_spec:
            last[0] = perf_counter()
            try:
                report.add(rid, *build(rng, *params))
            except Exception as exc:  # any raise is a failed request
                out.results.append(Result(
                    f"bench-rules/{rid}", perf_counter() - last[0], type(exc).__name__,
                    "failed", f"{type(exc).__name__}: {exc}", tags=("opcalc",)))
    out.results += [_row_result(suite, row, dt) for suite, row, dt in rows]


def verify_pass(seed: int, tmp: Path) -> Pass:
    rng = np.random.default_rng(seed)
    out = Pass()
    t0 = perf_counter()
    for suite, tol in VERIFY_SUITES:
        _suite_job(out, suite, tol, int(rng.integers(2**31)), tmp)
    _rule_rows_job(out, rng)
    out.seconds = perf_counter() - t0
    return out


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------
#
# Why: `shehu transform` and `shehu invert` are the toolkit's direct use,
# and these requests load `forward` and `specfun` where `verify` barely
# does: 3-D nested quadrature at the CLI's default `QuadratureConfig`, and
# Mittag-Leffler at large |z| rather than at the small |z| of integrands.
# `inverse` runs here as scalar 1-D contour sums, not as 3-D grids.
#
# Requests per pass (seeded parameters, fixed structure so that a pass
# costs about the same at every seed):
#   * 1-D transforms of five catalog fields, 2-D `sine-product`, at the A1
#     config, against closed forms (A1 tolerance 1e-8);
#   * one 3-D `exp-xyt` transform through `shehu.cli.main(["transform",
#     ...])` at the CLI's default config, against the product closed form;
#   * ML-kernel transforms against `analytic_transform` (A2, 1e-6);
#   * `mittag_leffler` against erfcx (gamma 1/2), exp (gamma 1) and
#     cosh(sqrt z) (gamma 2) on the negative axis |z| <= 30, one draw per
#     cost band, and in the complex disc |z| <= 10 (A9, 1e-10);
#   * `invert_1d` of s^(g-b)/(s^g + lam) against t^(b-1) E_{g,b}(-lam t^g)
#     (A6, 1e-6 on max(|ref|, 1));
#   * the four points ROADMAP item 4 lists as failing today:
#     E_{1,1}(-85), E_{1,1}(-100), E_{1/2,1}(-60), E_{1/2,1}(-100).  A value
#     within 1e-10 or a `ConvergenceError` (the documented refusal) passes;
#     a refusal is counted as such and shows in `fail_frac`.
#
# Layers (self time per pass, traced baseline): specfun 73% (2.4 s of it
# the single E_{1/2,1} call near -30), forward 27% (1.2 s of it the 3-D
# transform); inverse and cli below 0.1%; fracops, opcalc, fpde and
# fd_oracle idle.
#
# Why |z| <= 30: E_{1/2,1} costs 2.4 s at -30 today, 13 s at -40 and 72 s
# at -50, so one call beyond 30 would outweigh the pass.  The band
# 30 < |z| <= 50 joins in a separate benchmark change once ROADMAP item 4
# makes it affordable.

A1_CONFIG = QuadratureConfig(rel_tol=1e-10, abs_tol=1e-13, tail_cut_tol=1e-12)
ML_BANDS_HALF = ((0.5, 5.0), (5.0, 12.0), (12.0, 20.0), (29.5, 30.0))
KNOWN_ML_FAILURES = ((1.0, -85.0), (1.0, -100.0), (0.5, -60.0), (0.5, -100.0))
ML_KERNELS = ((0.5, 1.0, -1.0), (0.8, 1.2, -0.5), (1.0, 1.0, -1.0))
INVERT_PAIRS = ((0.5, 1.0), (0.8, 1.0), (0.8, 1.2), (1.0, 1.0))


def _strata(rng, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw from each of n equal slices of [lo, hi].

    Stratified draws keep the cost of a pass nearly the same at every
    seed while still covering the whole range.
    """
    return [float(v) for v in lo + (hi - lo) * (np.arange(n) + rng.uniform(size=n)) / n]


def _ml_reference(g: float, z: complex) -> complex:
    if g == 0.5:
        return complex(erfcx(-complex(z)))
    if g == 1.0:
        return complex(np.exp(complex(z)))
    return complex(np.cosh(np.sqrt(complex(z))))


def _ml_request(rid: str, g: float, z, refusals=()) -> Result:
    ref = _ml_reference(g, z)
    floor = 1.0 if g == 2.0 else 0.0  # cosh(sqrt z) has zeros for z < 0
    return checked(rid, lambda: specfun.mittag_leffler(MLParams(g, 1.0), z),
                   ref, 1e-10, floor, ("specfun",), refusals)


def _cli_transform_3d(ratios, tmp: Path) -> float:
    path = tmp / "transform.csv"
    code = cli.main(["transform", "--dims", "3", "--func", "exp-xyt",
                     "--ratios", ",".join(repr(r) for r in ratios),
                     "--output", str(path)])
    if code != 0:
        raise RuntimeError(f"shehu transform exited with {code}")
    return float(path.read_text().strip().split(",")[-1])


def transforms_pass(seed: int, tmp: Path) -> Pass:
    rng = np.random.default_rng(seed)
    out = Pass()
    res = out.results
    t0 = perf_counter()
    cases_1d = (
        ("const", funclib.get_field("const"), lambda r: 1.0 / r),
        ("t", funclib.get_field("t"), lambda r: 1.0 / (r * r)),
        ("power-0.5", funclib.power_field(0.5),
         lambda r: forward.analytic_transform("power", r, nu=0.5)),
        ("exp-t", funclib.get_field("exp-t"), lambda r: 1.0 / (r + 1.0)),
        ("sin-pit", funclib.get_field("sin-pit"),
         lambda r: forward.analytic_transform("sin", r, omega=math.pi)),
    )
    for name, fld, ref in cases_1d:
        for r in _strata(rng, 0.8, 3.0, 4):
            res.append(checked(
                f"t1d/{name}", lambda: forward.shehu_1d(
                    fld.exp_order(), "t", RatioPoint(t=(r, 1.0)), A1_CONFIG),
                ref(r), 1e-8, tags=("forward",)))
    for p, q in zip(_strata(rng, 0.8, 3.0, 2), _strata(rng, 0.8, 3.0, 2)[::-1]):
        res.append(checked(
            "t2d/sine-product", lambda: forward.shehu_2d(
                funclib.get_field("sine-product").exp_order(), ("x", "y"),
                RatioPoint.from_ratios(p, q), A1_CONFIG),
            math.pi ** 2 / ((p * p + math.pi ** 2) * (q * q + math.pi ** 2)),
            1e-8, tags=("forward",)))
    ratios = tuple(float(v) for v in rng.uniform(0.8, 3.0, size=3))
    res.append(checked(
        "t3d/exp-xyt/cli", lambda: _cli_transform_3d(ratios, tmp),
        math.prod(1.0 / (r + 1.0) for r in ratios), 1e-8, tags=("forward",)))
    for g, b, c in ML_KERNELS:
        lo = max(0.7, abs(c) ** (1.0 / g) + 0.2)
        fld = funclib.ml_kernel_field(g, b, c, axis="y")
        for r in _strata(rng, lo, 2.5, 3):
            res.append(checked(
                f"ml-pair/g{g}b{b}c{c}", lambda: forward.shehu_1d(
                    fld.exp_order(), "y", RatioPoint.from_ratios(q=r)),
                forward.analytic_transform("ml_kernel", r, gamma=g, beta=b, c=c),
                1e-6, tags=("forward", "specfun")))

    for lo, hi in ML_BANDS_HALF:
        res.append(_ml_request(f"ml/g0.5/neg{hi:g}", 0.5, -float(rng.uniform(lo, hi))))
    for z in _strata(rng, -30.0, 0.0, 2):
        res.append(_ml_request("ml/g1/neg30", 1.0, z))
    res.append(_ml_request("ml/g2/neg30", 2.0, -float(rng.uniform(0.0, 30.0))))
    res.append(_ml_request("ml/g2/pos9", 2.0, float(rng.uniform(0.0, 9.0))))
    for g in (0.5, 1.0, 2.0):
        rad, phase = rng.uniform(0.5, 10.0), rng.uniform(-math.pi, math.pi)
        res.append(_ml_request(f"ml/g{g:g}/disc10", g, complex(rad * np.exp(1j * phase))))
    for g, z in KNOWN_ML_FAILURES:
        res.append(_ml_request(f"ml/g{g:g}/known{z:g}", g, z,
                               refusals=(errors.ConvergenceError,)))

    for g, b in INVERT_PAIRS:
        lam, t = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.3, 3.0))
        ref = t ** (b - 1.0) * specfun.mittag_leffler(MLParams(g, b), -lam * t ** g)
        res.append(checked(
            f"invert1d/ml/g{g}b{b}",
            lambda: inverse.invert_1d(lambda s: s ** (g - b) / (s ** g + lam), t,
                                      InversionConfig()),
            ref, 1e-6, 1.0, ("inverse",)))
    out.seconds = perf_counter() - t0
    return out


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------
#
# Why: the paper's space-time pipeline, which `shehu solve heat|telegraph
# --mode reconstruct` runs: triple inversion of transform-domain solutions
# back to a grid, with finite-difference oracles as independent checks.
#
# Requests per pass:
#   * the heat and the telegraph worked examples on 4^3 grids through
#     `shehu.cli.main(["solve", ..., "--mode", "reconstruct"])`, seeded
#     gamma, alpha, beta; one of the two at m = 24 contour nodes and the
#     other at m = 32.  Check: exit code 0 and no NaN node (A8);
#   * `fpde.reconstruct` of separable pairs prod 1/(s_i + a_i) on seeded
#     2x2x2 grids against exp(-a . x), within 1e-6 on max(|ref|, 1) (A6);
#   * `l1_heat_solve` (63^2 x 256) against E_g(-2 T^g) at the centre node,
#     within 2% (A11);
#   * `classical_telegraph_solve` (31^2 x 400) against the damped sin*sin
#     mode e^{-aT}(cos wT + (a/w) sin wT), w^2 = 2 pi^2 + b^2 - a^2, within
#     2% of max(|ref|, e^{-aT}) (the mode has zeros in time).
#
# Layers (self time per pass, traced baseline): fpde 54% (all of it in
# transform-domain evaluators, 48 ns per point), fd_oracle 24%, inverse
# 22%; cli and specfun (the L1 references) below 0.3%; forward, fracops
# and opcalc idle.

SEPARABLE_PER_PASS = 10


def _cli_reconstruct(argv: list[str], tmp: Path) -> str:
    path = tmp / "grid.csv"
    code = cli.main(argv + ["--mode", "reconstruct", "--grid-n", "4",
                            "--output", str(path)])
    text = path.read_text()
    values = [float(line.rsplit(",", 1)[1]) for line in text.splitlines()[1:]]
    if code != 0 or not all(math.isfinite(v) for v in values):
        raise RuntimeError(f"reconstruct exited with {code}, "
                           f"{sum(not math.isfinite(v) for v in values)} NaN nodes")
    return text


def _grid_request(rid: str, argv: list[str], tmp: Path) -> Result:
    t0 = perf_counter()
    try:
        text = _cli_reconstruct(argv, tmp)
    except Exception as exc:  # any raise is a failed request
        return Result(rid, perf_counter() - t0, type(exc).__name__, "failed",
                      f"{type(exc).__name__}: {exc}", tags=("fpde",))
    return Result(rid, perf_counter() - t0, text, tags=("fpde",))


def _separable_request(rng) -> Result:
    a = rng.uniform(0.2, 2.0, size=3)
    axes = [np.sort(rng.uniform(0.2, 1.5, size=2)) for _ in range(3)]
    sol = fpde.TransformSolution(
        evaluator=lambda p, q, s: 1.0 / ((p + a[0]) * (q + a[1]) * (s + a[2])),
        singular_loci=())
    t0 = perf_counter()
    try:
        grid = fpde.reconstruct(sol, *axes, InversionConfig(nodes=24))
    except Exception as exc:  # any raise is a failed request
        return Result("separable", perf_counter() - t0, type(exc).__name__,
                      "failed", f"{type(exc).__name__}: {exc}", tags=("inverse",))
    latency = perf_counter() - t0
    X, Y, T = np.meshgrid(*axes, indexing="ij")
    ref = np.exp(-(a[0] * X + a[1] * Y + a[2] * T))
    err = float(np.max(np.abs(grid.values - ref) / np.maximum(ref, 1.0)))
    ok = err <= 1e-6  # NaN fails too
    return Result("separable", latency, exact(grid.values), "ok" if ok else "failed",
                  "" if ok else f"error {err:.3e} > tolerance 1e-06", err,
                  ("inverse",))


def _sin_sin(x: float, y: float) -> float:
    return math.sin(math.pi * x) * math.sin(math.pi * y)


def _l1_request(g: float, T: float) -> Result:
    grid = fd_oracle.FDGrid(nx=63, ny=63, nt=256, dt=T / 256)
    centre = grid.xs.index(0.5)
    return checked(
        "l1-heat", lambda: fd_oracle.l1_heat_solve(g, _sin_sin, grid).at(
            centre, centre, grid.nt - 1),
        lambda: specfun.mittag_leffler(MLParams(g, 1.0), -2.0 * T ** g), 0.02,
        tags=("fd_oracle",))


def _telegraph_fd_request(a: float, b: float) -> Result:
    T = 1.0
    grid = fd_oracle.FDGrid(nx=31, ny=31, nt=400, dt=T / 400)
    centre = grid.xs.index(0.5)
    w = math.sqrt(2.0 * math.pi ** 2 + b * b - a * a)
    ref = math.exp(-a * T) * (math.cos(w * T) + a / w * math.sin(w * T))
    return checked(
        "telegraph-fd", lambda: fd_oracle.classical_telegraph_solve(
            a, b, _sin_sin, lambda x, y: 0.0, grid).at(centre, centre, grid.nt - 1),
        ref, 0.02, math.exp(-a * T), ("fd_oracle",))


def reconstruct_pass(seed: int, tmp: Path) -> Pass:
    rng = np.random.default_rng(seed)
    out = Pass()
    res = out.results
    t0 = perf_counter()
    m_heat, m_tele = (int(m) for m in rng.permutation([24, 32]))
    g = float(rng.uniform(0.3, 1.0))
    res.append(_grid_request(
        f"heat/m{m_heat}", ["solve", "heat", "--gamma", repr(g),
                            "--nodes", str(m_heat)], tmp))
    g, a, b = (float(v) for v in rng.uniform((0.3, 0.3, 0.5), (1.0, 1.5, 2.0)))
    res.append(_grid_request(
        f"telegraph/m{m_tele}",
        ["solve", "telegraph", "--gamma", repr(g), "--alpha", repr(a),
         "--beta", repr(b), "--nodes", str(m_tele)], tmp))
    for _ in range(SEPARABLE_PER_PASS):
        res.append(_separable_request(rng))
    for _ in range(2):
        res.append(_l1_request(float(rng.uniform(0.3, 1.0)),
                               float(rng.uniform(0.2, 0.5))))
    for _ in range(2):
        res.append(_telegraph_fd_request(float(rng.uniform(0.2, 1.5)),
                                         float(rng.uniform(0.5, 2.0))))
    out.seconds = perf_counter() - t0
    return out


def verify_transforms_pass(seed: int, tmp: Path) -> Pass:
    """The `verify` requests, then the `transforms` requests.

    The two run as one workload so that each benchmark run can last long
    enough to average out the machine's own speed swings (see README.md).
    """
    verify_seed, transforms_seed = np.random.SeedSequence(seed).generate_state(2)
    first = verify_pass(int(verify_seed), tmp)
    second = transforms_pass(int(transforms_seed), tmp)
    return Pass(first.results + second.results, first.artifacts + second.artifacts,
                first.seconds + second.seconds)


#: name -> pass builder taking (pass seed, directory for the CLI's files)
WORKLOADS: dict[str, Callable[[int, Path], Pass]] = {
    "verify-transforms": verify_transforms_pass,
    "reconstruct": reconstruct_pass,
}
