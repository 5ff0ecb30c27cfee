"""Transform-domain solutions of the worked fractional PDE examples.

Two problems on (x, y, t) in (0, inf)^3, with ratio variables (p, q, s),
are built here: a two-dimensional heat equation of fractional time order
g in (0, 1] with diffusivity 1/pi^2, and a telegraph equation of fractional
time order with damping 2*alpha and reaction beta^2.  Both solve one
printed relation in the transformed initial plane K(p, q) and derivative
faces Bx(q, s), By(p, s),

    (c s^g + b^2) F = c s^(g-1) K + (p^2 + q^2) F - p Bx - q By,

with c = pi^2, b = 0 for heat and c = 1 + 2*alpha, b = beta for the
telegraph; one builder and one residual serve both problems.

Each solution is validated against that relation (residual checks) and
reconstructed on space-time grids by nested inversion.  One pole-guarded
evaluator serves the printed series expansions of both problems, whose
literal coefficients contain gamma factors at poles (a documented defect
of the source expressions; the guard skips and counts such terms instead
of failing).
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ContourError,
    SingularDenominator,
)
from .fracops import FracOrder
from .inverse import DEFAULT_INVERSION, InversionConfig, invert_3d
from .specfun import GuardedSeriesResult, _gamma_ratio_term

__all__ = [
    "HeatSpec",
    "TelegraphSpec",
    "TransformSolution",
    "GuardedSeriesResult",
    "Grid3Field",
    "transform_solution",
    "transform_residual",
    "reconstruct",
    "series_solution",
]

_PI2 = math.pi * math.pi
_SINGULAR_TOL = 1e-12


class _PrintedProblem:
    """Transformed data written once for both specs.

    A spec supplies ``gamma`` and the derived values that the builder and
    the residual read: ``c``, ``b2``, ``k_num``, ``ck_num`` (c k_num as the
    printed first term writes it), ``k_den(p, q)``, ``by_flipped`` and
    ``locus`` (the name of the D = 0 locus).
    """

    def __post_init__(self) -> None:
        g = float(getattr(self.gamma, "value", self.gamma))
        if not (0.0 < g <= 1.0):
            raise ValueError(f"gamma must lie in (0, 1], got {g}")
        object.__setattr__(self, "gamma", FracOrder(g))

    def by_factor(self, pg):
        """By's denominator factor: 1 - p^g where ``by_flipped``, else p^g - 1."""
        return 1.0 - pg if self.by_flipped else pg - 1.0

    def data_bx(self, q, s):
        g = self.gamma.value
        return math.pi * q ** (g - 1.0) / (s * (1.0 + q ** g))

    def data_by(self, p, s):
        g = self.gamma.value
        return math.pi * p ** (g - 1.0) / (s * self.by_factor(p ** g))

    def data_initial(self, p, q):
        return self.k_num / self.k_den(p, q)


@dataclass(frozen=True)
class HeatSpec(_PrintedProblem):
    """Fractional heat problem: time order g in (0, 1], diffusivity 1/pi^2.

    In the shared relation c = pi^2 and b = 0.  Transformed data:
        Bx(q, s) = pi q^(g-1) / (s (1 + q^g))      x-derivative face
        By(p, s) = pi p^(g-1) / (s (1 - p^g))      y-derivative face
        K(p, q)  = pi^2 / ((p^2+pi^2)(q^2+pi^2))   initial plane
    """

    gamma: FracOrder | float = 1.0

    c = _PI2
    b2 = 0.0
    k_num = _PI2
    ck_num = math.pi ** 4  # as printed; not _PI2 * _PI2 in binary
    by_flipped = True
    locus = "pi^2 s^g = p^2 + q^2"

    @staticmethod
    def k_den(p, q):
        return (p * p + _PI2) * (q * q + _PI2)


@dataclass(frozen=True)
class TelegraphSpec(_PrintedProblem):
    """Fractional telegraph problem with damping alpha > 0, reaction beta > 0.

    In the shared relation c = 1 + 2*alpha and b = beta.  Transformed data:
        Bx(q, s) = pi q^(g-1) / (s (1 + q^g))
        By(p, s) = pi p^(g-1) / (s (p^g - 1))
        K(p, q)  = 1 / (p (q + 1))                 initial plane
    """

    gamma: FracOrder | float = 1.0
    alpha: float = 0.5
    beta: float = 1.0

    k_num = 1.0
    by_flipped = False
    locus = "(1+2a) s^g + b^2 = p^2 + q^2"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (self.alpha > 0.0 and self.beta > 0.0):
            raise ValueError(
                f"alpha and beta must be positive, got {self.alpha}, {self.beta}"
            )

    @property
    def c(self) -> float:
        return 1.0 + 2.0 * self.alpha

    @property
    def b2(self) -> float:
        return self.beta * self.beta

    ck_num = c  # k_num = 1

    @staticmethod
    def k_den(p, q):
        return p * (q + 1.0)


@dataclass(frozen=True)
class TransformSolution:
    """Closed-form transform-domain solution F(p, q, s).

    ``evaluator`` is numpy-broadcastable and raises SingularDenominator
    within tolerance of any locus named in ``singular_loci``.
    """

    evaluator: Callable[[complex, complex, complex], complex]
    singular_loci: tuple[str, ...]

    def __call__(self, p, q, s):
        return self.evaluator(p, q, s)


def _guard(name: str, den, scale) -> None:
    bad = np.abs(den) <= _SINGULAR_TOL * np.asarray(scale)
    if np.any(bad):
        raise SingularDenominator(f"evaluation on singular locus: {name}")


def transform_solution(spec: HeatSpec | TelegraphSpec) -> TransformSolution:
    """Three-term transform-domain solution of the heat or telegraph example.

    F = c K_num s^(g-1) / (k_den(p, q) D)
        - pi p q^(g-1) / (s (1+q^g) D)
        - pi q p^(g-1) / (s by_factor(p^g) D),
    D = c s^g + b^2 - p^2 - q^2, with the derived values of ``spec``; this is
    (c s^(g-1) K - p Bx - q By) / D evaluated as the three printed terms.
    """
    g = spec.gamma.value
    c, b2, ck_num, locus = spec.c, spec.b2, spec.ck_num, spec.locus

    def evaluator(p, q, s):
        p, q, s = np.asarray(p), np.asarray(q), np.asarray(s)
        pg, qg, sg = p ** g, q ** g, s ** g
        dd = c * sg + b2 - p * p - q * q
        _guard(locus, dd,
               c * np.abs(sg) + b2 + np.abs(p) ** 2 + np.abs(q) ** 2 + 1.0)
        by = spec.by_factor(pg)
        _guard("p^g = 1", by, 1.0 + np.abs(pg))
        _guard("s = 0", s, 1.0)
        term1 = ck_num * sg / s / (spec.k_den(p, q) * dd)
        term2 = math.pi * p * qg / q / (s * (1.0 + qg) * dd)
        term3 = math.pi * q * pg / p / (s * by * dd)
        out = term1 - term2 - term3
        return complex(out) if out.ndim == 0 else out

    return TransformSolution(
        evaluator=evaluator, singular_loci=(locus, "p^g = 1", "s = 0"),
    )


def transform_residual(
    spec: HeatSpec | TelegraphSpec,
    F: TransformSolution,
    point: tuple[float, float, float],
    mode: str = "printed",
) -> float:
    """|LHS - RHS| of the transformed relation of ``spec`` at (p, q, s).

    ``mode="printed"`` uses the relation exactly as the solution solves it,
    un-normalised: (c s^g + b^2) F = c s^(g-1) K + (p^2 + q^2) F - p Bx - q By.
    ``mode="strict"``, for a telegraph spec only, instead applies the
    standard operational form s^(2g) + 2*alpha*s^g (with the matching
    boundary powers and zero initial velocity); it is reported for
    comparison only and is not expected to vanish on the printed solution.
    """
    p, q, s = point
    g = spec.gamma.value
    Fv = F(p, q, s)
    K = spec.data_initial(p, q)
    space = (p * p + q * q) * Fv - p * spec.data_bx(q, s) - q * spec.data_by(p, s)
    if mode == "printed":
        lhs = spec.c * s ** g * Fv + spec.b2 * Fv
        rhs = spec.c * s ** (g - 1.0) * K + space
    elif mode == "strict" and isinstance(spec, TelegraphSpec):
        # zero initial velocity assumed: the s^(2g-2) boundary term vanishes
        a = spec.alpha
        lhs = (s ** (2.0 * g) + 2.0 * a * s ** g + spec.b2) * Fv
        rhs = s ** (2.0 * g - 1.0) * K + 2.0 * a * s ** (g - 1.0) * K + space
    else:
        raise ValueError(f"no residual mode {mode!r} for {type(spec).__name__}")
    return abs(lhs - rhs)


# -- reconstruction -----------------------------------------------------------


@dataclass
class Grid3Field:
    """Values on a rectilinear (x, y, t) grid, indexed [ix, iy, it].

    Each axis must be non-empty, with finite, strictly positive and strictly
    increasing nodes; ``ValueError`` names the first axis that is not.
    ``values`` may be a non-contiguous view (the heat oracle returns its
    time-major history transposed).

    ``nan_reasons`` maps the (ix, iy, it) index of each node that a
    reconstruction left NaN to "ExceptionType: message" of the failure.
    """

    xs: tuple[float, ...]
    ys: tuple[float, ...]
    ts: tuple[float, ...]
    values: np.ndarray
    nan_reasons: dict[tuple[int, int, int], str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.xs = tuple(float(v) for v in self.xs)
        self.ys = tuple(float(v) for v in self.ys)
        self.ts = tuple(float(v) for v in self.ts)
        for name, nodes in (("x", self.xs), ("y", self.ys), ("t", self.ts)):
            if not nodes:
                raise ValueError(f"grid axis {name} is empty")
            if not all(0.0 < v < math.inf for v in nodes):
                raise ValueError(
                    f"grid axis {name} must be finite and positive, got {list(nodes)}"
                )
            if any(b <= a for a, b in zip(nodes, nodes[1:])):
                raise ValueError(
                    f"grid axis {name} must be strictly increasing, got {list(nodes)}"
                )
        self.values = np.asarray(self.values, dtype=float)
        expected = (len(self.xs), len(self.ys), len(self.ts))
        if self.values.shape != expected:
            raise ValueError(
                f"value array shape {self.values.shape} != grid shape {expected}"
            )

    @property
    def nonfinite_count(self) -> int:
        return int(np.size(self.values) - np.count_nonzero(np.isfinite(self.values)))

    def at(self, ix: int, iy: int, it: int) -> float:
        return float(self.values[ix, iy, it])

    def to_table_lines(self) -> list[str]:
        lines = ["x,y,t,f"]
        for ix, x in enumerate(self.xs):
            for iy, y in enumerate(self.ys):
                for it, t in enumerate(self.ts):
                    v = self.values[ix, iy, it]
                    lines.append(f"{x:.17g},{y:.17g},{t:.17g},{v:.17g}")
        return lines


def reconstruct(
    F: TransformSolution,
    xs: Sequence[float],
    ys: Sequence[float],
    ts: Sequence[float],
    cfg: InversionConfig = DEFAULT_INVERSION,
) -> Grid3Field:
    """Invert ``F`` on the grid nodes; failed nodes become NaN.

    The returned ``Grid3Field`` is built, and its axes checked, before any
    inversion; its ``values`` and ``nan_reasons`` are then filled in place.
    Failures (contour breakdown or a singular-locus hit on the contour) are
    counted via ``Grid3Field.nonfinite_count`` and explained, node by node,
    in ``Grid3Field.nan_reasons``.  Any other exception, a cost-budget
    violation for one, stops the remaining nodes and is raised; when
    several nodes raise, the one with the lowest (ix, iy, it) index is.

    Each node's ``invert_3d`` calls ``F.evaluator`` on the first half of
    its x-contour nodes by the full (q, s) contours, plus one check slab,
    and sums each slab at once to one value per x-node, so no node keeps
    its value grid; the other half of those sums is filled by conjugation.
    The evaluator must therefore satisfy F(conj p, conj q, conj s) =
    conj F(p, q, s), as the transform of a real-valued solution does; one
    that does not leaves its nodes NaN with a ``ContourError`` reason.

    Nodes are independent ``invert_3d`` calls.  They run on the calling
    thread plus one helper thread per further CPU in
    ``os.sched_getaffinity(0)`` (at most one thread per node, and only the
    calling thread where the platform has no affinity call); every helper
    is joined before the call returns or raises, and each runs in a copy
    of the caller's ``contextvars`` context.  ``F.evaluator`` is therefore
    called concurrently and must not change shared state without a lock.
    The values and ``nan_reasons`` are identical, bit for bit and key for
    key, to a serial run.
    """
    fld = Grid3Field(xs, ys, ts, np.empty((len(xs), len(ys), len(ts))))
    values, reasons = fld.values, fld.nan_reasons
    errors: dict[tuple[int, int, int], BaseException] = {}
    pending = np.ndindex(values.shape)
    take = threading.Lock()
    stop = threading.Event()

    def work() -> None:
        # nodes are handed out in index order, so when one raises, every
        # node before it has been started and runs to its end
        while not stop.is_set():
            with take:
                node = next(pending, None)
            if node is None:
                return
            ix, iy, it = node
            try:
                values[node] = invert_3d(F.evaluator, (xs[ix], ys[iy], ts[it]), cfg)
            except (ContourError, SingularDenominator) as exc:
                values[node] = math.nan
                reasons[node] = f"{type(exc).__name__}: {exc}"
            except BaseException as exc:  # raised by the caller after the join
                errors[node] = exc
                stop.set()

    # platforms without CPU affinity (macOS, Windows) run the nodes serially
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    n_threads = min(cpus, values.size)
    helpers = [
        threading.Thread(target=contextvars.copy_context().run, args=(work,))
        for _ in range(n_threads - 1)
    ]
    try:
        for th in helpers:
            th.start()
        work()
    finally:
        stop.set()
        for th in helpers:
            if th.ident is not None:  # started
                th.join()
    if errors:
        raise errors[min(errors)]
    fld.nan_reasons = dict(sorted(reasons.items()))
    return fld


# -- printed series evaluators -------------------------------------------------


@dataclass(frozen=True)
class _TermSpec:
    """One printed multi-sum term: gamma factors, sign, and monomial powers."""

    num_gammas: tuple[float, ...]
    den_gammas: tuple[float, ...]
    factorial_index: int
    sign: float
    log_prefactor: float
    powers: tuple[float, float, float]  # exponents of (x, y, t)


def _eval_guarded(
    groups: Sequence[tuple[str, int, Callable]],
    truncation: int,
    point: tuple[float, float, float],
    override: Callable[[str, tuple[int, ...]], float | None] | None,
) -> GuardedSeriesResult:
    """Sum each group's terms over indices 0 .. truncation-1 in every sum.

    A group is (id, number of sums, term builder, gamma arguments that every
    term carries); without an override, one of the last on a pole guards
    all the group's terms without building them.
    """
    x, y, t = point
    if min(x, y, t) <= 0.0:
        raise ValueError("series evaluation point must be componentwise positive")
    if not (isinstance(truncation, int) and truncation >= 1):
        raise ValueError(f"truncation must be an integer >= 1, got {truncation!r}")
    lx, ly, lt = math.log(x), math.log(y), math.log(t)
    total = 0.0
    guarded = 0
    used = 0
    for group_id, n_sums, spec_fn, fixed_gammas in groups:
        if override is None and _gamma_ratio_term((), fixed_gammas) is None:
            guarded += truncation ** n_sums
            continue
        for idx in product(range(truncation), repeat=n_sums):
            spec: _TermSpec = spec_fn(idx)
            if override is not None:
                c = override(group_id, idx)
                if c is not None:
                    px, py, pt = spec.powers
                    total += c * math.exp(px * lx + py * ly + pt * lt)
                    used += 1
                    continue
            term = _gamma_ratio_term(
                spec.num_gammas, spec.den_gammas,
                spec.log_prefactor - math.lgamma(spec.factorial_index + 1.0))
            if term is None:
                guarded += 1
                continue
            sign, log_mag = term
            px, py, pt = spec.powers
            log_mag += px * lx + py * ly + pt * lt
            if log_mag > 700.0:
                guarded += 1  # overflow guard: treated like a defective term
                continue
            total += spec.sign * sign * math.exp(log_mag)
            used += 1
    return GuardedSeriesResult(value=total, guarded_count=guarded, terms_used=used)


def _series_groups(spec: HeatSpec | TelegraphSpec):
    """The three printed term groups of ``spec``'s series, as (id, sums, term, fixed).

    The telegraph's groups are the heat's with two leading sums over p and
    q; each of their terms gains G(p+q) in its numerator and
    p log(alpha) + q (log(alpha) + 2 log(beta)) in its log-prefactor.  Group
    1's x-power is the one other printed difference.
    """
    g = spec.gamma.value
    lpi = math.log(math.pi)
    if isinstance(spec, TelegraphSpec):
        name, lead = "telegraph", 2
        la, lb = math.log(spec.alpha), math.log(spec.beta)
    else:
        name, lead = "heat", 0

    def term(pq, num_gammas, den_gammas, factorial_index, sign, log_prefactor, powers):
        if pq:
            p_i, q_i = pq
            num_gammas += (float(p_i + q_i),)
            log_prefactor += p_i * la + q_i * (la + 2.0 * lb)
        return _TermSpec(num_gammas, den_gammas, factorial_index, sign, log_prefactor,
                         powers)

    # The printed G(-1) factors of each group's every term.
    fixed1, fixed2, fixed3 = (-1.0, -1.0, -1.0), (-1.0, -1.0), (-1.0,)

    def group1(idx):
        *pq, u, v, n, m = idx
        x_power = 2.0 * m - 2.0 * u - 2.0 * v - 1.0 if pq else 2.0 * m - 2.0 * u - 2.0
        return term(
            pq, num_gammas=(m - u,), factorial_index=m, sign=(-1.0) ** (v + n + m),
            den_gammas=fixed1 + (float(u),
                                 2.0 * m - 2.0 * u - 2.0 * v,
                                 -2.0 * m - 2.0 * n,
                                 g * u + 1.0),
            log_prefactor=-(2.0 * u + 2.0 * v + 2.0 * n + 2.0) * lpi,
            powers=(x_power, -2.0 * m - 2.0 * n - 1.0, g * u),
        )

    def group2(idx):
        *pq, u, m, r = idx
        return term(
            pq, num_gammas=(m - u,), factorial_index=m, sign=-((-1.0) ** (m + r)),
            den_gammas=fixed2 + (float(u),
                                 2.0 * m - 2.0 * u - 1.0,
                                 -2.0 * m - g * r - g + 1.0,
                                 g * u + g + 1.0),
            log_prefactor=-(1.0 + 2.0 * u) * lpi,
            powers=(2.0 * m - u - 2.0, -2.0 * m - g * r - g, g * u + g),
        )

    def group3(idx):
        *pq, u, m = idx
        return term(
            pq, num_gammas=(m - u,), factorial_index=m, sign=-((-1.0) ** m),
            den_gammas=fixed3 + (float(u),
                                 2.0 * m - 2.0 * u - g + 1.0,
                                 -2.0 * m - 1.0,
                                 g * u + g),
            log_prefactor=-(1.0 + 2.0 * u) * lpi,
            powers=(2.0 * m - 2.0 * u - g, -2.0 * m - 2.0, g * u + g - 1.0),
        )

    return [(f"{name}1", lead + 4, group1, fixed1), (f"{name}2", lead + 3, group2, fixed2),
            (f"{name}3", lead + 2, group3, fixed3)]


def series_solution(
    spec: HeatSpec | TelegraphSpec,
    point: tuple[float, float, float],
    truncation: int = 8,
    coefficient_override: Callable[[str, tuple[int, ...]], float | None] | None = None,
) -> GuardedSeriesResult:
    """Pole-guarded evaluation of the printed series expansion of ``spec``.

    Every term of the printed sums carries gamma factors at poles (the
    m! G(-1)^k G(u) pattern), so with the literal coefficients every term
    is guarded and the value is 0; the evaluator exists to document that
    defect and to support coefficient overrides, keyed by group id
    ("heat1".."heat3", "telegraph1".."telegraph3") and index tuple, the
    telegraph's leading (p, q) first.  Experimental.

    Raises:
        ValueError: for a point that is not componentwise positive or a
            truncation that is not an integer >= 1.
    """
    return _eval_guarded(_series_groups(spec), truncation, point, coefficient_override)
