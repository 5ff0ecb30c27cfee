"""Numerical inversion of ratio-domain transforms.

A transform value depends on its variable pair only through the ratio, so
each axis inversion is a Bromwich-type integral in the ratio variable:

    f(u) = (1/2 pi i) int_{B} exp(r u) F(r) dr.

The default method deforms the contour into the cotangent-parameterized
curve  r(theta) = (r0/u) * theta * (cot(theta) + i),  theta in (-pi, pi),
sampled by the midpoint-exact trapezoid rule.  The contour radius is kept
fixed relative to the evaluation point (independent of the node count),
so refining nodes reduces error monotonically down to the double-precision
floor instead of trading accuracy for contour growth.

A real-node weighted-sum fallback (exponential-sampling weights) serves
callables that can only be evaluated at real ratios.

Triple inversion takes the tensor product of the per-axis rules: ``F``
is evaluated on the broadcast node grid, which it must support, one slab
of x-nodes at a time, and the real part of the full complex tensor sum is
returned, so the original is assumed real-valued, as in the single-axis
case.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ContourError, CostBudgetError, DomainError
from .fracops import _BLOCK

__all__ = [
    "InversionConfig",
    "invert_1d",
    "invert_1d_complex",
    "invert_3d",
]

#: Contour radius times evaluation point (r0 = TALBOT_RT / u); fixed so that
#: the 1-D rounding floor exp(TALBOT_RT)*eps stays near 1e-12 at any node
#: count.  A triple inversion cubes the exp(TALBOT_RT) factor (see invert_3d).
TALBOT_RT = 9.0


@dataclass(frozen=True)
class InversionConfig:
    """Method and resolution of the per-axis inversion.

    ``method`` is "talbot" (deformed contour, default) or "stehfest"
    (real-node weighted sum).  ``nodes`` counts quadrature nodes per half
    contour; ``contour_scale`` multiplies the default contour radius.
    """

    method: str = "talbot"
    nodes: int = 32
    contour_scale: float = 1.0
    eval_budget: int = 10**6

    _METHOD_ALIASES = {
        "deformed-contour": "talbot",
        "real-node-weights": "stehfest",
    }

    def __post_init__(self) -> None:
        method = self._METHOD_ALIASES.get(self.method, self.method)
        object.__setattr__(self, "method", method)
        if method not in ("talbot", "stehfest"):
            raise ValueError(f"unknown inversion method {self.method!r}")
        if self.nodes < 8:
            raise ValueError("inversion needs at least 8 nodes per axis")
        if self.contour_scale <= 0.0:
            raise ValueError("contour_scale must be positive")


DEFAULT_INVERSION = InversionConfig()


@lru_cache(maxsize=64)
def _talbot_nodes(point: float, m: int, scale: float):
    """Contour nodes s_k and weights w_k with f(u) = sum w_k exp(s_k u) F(s_k).

    Midpoint sampling of theta in (-pi, pi) avoids both endpoints, where
    cot(theta) blows up; 2m nodes total.  Cached and read-only: a grid
    reuses each axis value's contour.
    """
    r0 = TALBOT_RT * scale / point
    nodes = []
    weights = []
    for k in range(2 * m):
        theta = -math.pi + (k + 0.5) * math.pi / m
        if abs(theta) < 1e-12:
            s = complex(r0, 0.0)
            ds = complex(0.0, r0)
        else:
            cot = math.cos(theta) / math.sin(theta)
            s = r0 * theta * complex(cot, 1.0)
            dcot = cot - theta * (1.0 + cot * cot)
            ds = r0 * complex(dcot, 1.0)
        nodes.append(s)
        # trapezoid step pi/m over theta, divided by 2*pi*i
        weights.append(ds * (math.pi / m) / (2.0j * math.pi))
    nodes, weights = np.asarray(nodes), np.asarray(weights)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@lru_cache(maxsize=32)
def _stehfest_weights(n: int) -> tuple[float, ...]:
    """Classic real-node summation weights of even order ``n``."""
    half = n // 2
    weights = []
    for k in range(1, n + 1):
        acc = 0.0
        for j in range((k + 1) // 2, min(k, half) + 1):
            num = j ** half * math.factorial(2 * j)
            den = (
                math.factorial(half - j)
                * math.factorial(j)
                * math.factorial(j - 1)
                * math.factorial(k - j)
                * math.factorial(2 * j - k)
            )
            acc += num / den
        weights.append((-1.0) ** (k + half) * acc)
    return tuple(weights)


def _stehfest_invert(F: Callable, point: float, cfg: InversionConfig) -> float:
    n = min(cfg.nodes, 18)
    n -= n % 2
    w = _stehfest_weights(n)
    ln2 = math.log(2.0)
    total = 0.0
    for k in range(1, n + 1):
        val = F(k * ln2 / point)
        val = complex(val).real
        if not math.isfinite(val):
            raise ContourError(f"non-finite transform value at real node {k}")
        total += w[k - 1] * val
    return ln2 / point * total


def invert_1d_complex(
    F: Callable[[complex], complex],
    point: float,
    cfg: InversionConfig = DEFAULT_INVERSION,
) -> complex:
    """Deformed-contour inversion returning the full complex sum.

    The imaginary part measures how far ``F`` departs from the conjugate
    symmetry of transforms of real-valued functions.
    """
    if point <= 0.0:
        raise ValueError("inversion point must be positive")
    nodes, weights = _talbot_nodes(point, cfg.nodes, cfg.contour_scale)
    total = 0.0 + 0.0j
    for s, w in zip(nodes, weights):
        val = complex(F(s))
        if not (math.isfinite(val.real) and math.isfinite(val.imag)):
            raise ContourError(f"non-finite transform value at contour node {s}")
        total += w * cmath.exp(s * point) * val
    return total


def invert_1d(
    F: Callable[[complex], complex],
    point: float,
    cfg: InversionConfig = DEFAULT_INVERSION,
) -> float:
    """Invert a single-axis transform at ``point`` > 0.

    Fractional powers inside ``F`` must use the principal branch; for
    transforms of real-valued originals the imaginary residue of the
    contour sum is at the rounding floor and is discarded here.

    Raises:
        ContourError: when contour evaluations produce non-finite values.
    """
    if cfg.method == "stehfest":
        return _stehfest_invert(F, point, cfg)
    return invert_1d_complex(F, point, cfg).real


def invert_3d(
    F: Callable[[complex, complex, complex], complex],
    point: tuple[float, float, float],
    cfg: InversionConfig = DEFAULT_INVERSION,
) -> float:
    """Tensor-product inversion of a triple transform at (x, y, t) > 0.

    Cost is (2*nodes)^3 evaluations of ``F`` per point with the default
    contour method; a budget guard fails fast instead of hanging.  ``F``
    must broadcast: it is called once per slab of consecutive x-nodes, with
    node arrays of shapes (k, 1, 1), (1, n, 1) and (1, 1, n), and must
    return the (k, n, n) values; each node is evaluated once, and a slab
    holds at most 2^16 values (at least one x-node).  Wrap a scalar-only callable (for example
    with ``np.frompyfunc``) to evaluate it node by node.  The original is
    assumed real-valued: the imaginary part of the contour sum is
    discarded, as in ``invert_1d``.

    The contour sum cancels far more than in 1-D: each axis factor
    exp(s u) reaches exp(TALBOT_RT), so the largest term is up to
    exp(3*TALBOT_RT) (about 5e11) times the original's scale, and the
    rounding floor is about eps times that term, not the 1-D 1e-12.  The
    sum is therefore taken in one fixed order; reordering it moves the
    result at that floor.

    Raises:
        CostBudgetError: when the node budget is exceeded.
        ContourError: on non-finite evaluations.
        DomainError: when ``F`` returns values of another shape.
    """
    x, y, t = point
    if min(x, y, t) <= 0.0:
        raise ValueError("inversion point must be componentwise positive")

    if cfg.method == "stehfest":
        # nested real-node weights multiply, so the 1-D cancellation budget
        # is cubed; beyond 8 nodes per axis the tensor weights exceed what
        # double precision can cancel
        n = min(cfg.nodes, 8)
        n -= n % 2
        if n ** 3 > cfg.eval_budget:
            raise CostBudgetError(f"{n ** 3} evaluations exceed budget {cfg.eval_budget}")
        w = _stehfest_weights(n)
        ln2 = math.log(2.0)
        ps = np.array([k * ln2 / x for k in range(1, n + 1)])
        qs = np.array([k * ln2 / y for k in range(1, n + 1)])
        ss = np.array([k * ln2 / t for k in range(1, n + 1)])
        wx = np.array(w) * ln2 / x
        wy = np.array(w) * ln2 / y
        wt = np.array(w) * ln2 / t
        vals = _eval_grid(F, ps, qs, ss, "real-node grid")
        return float(np.einsum("i,j,k,ijk->", wx, wy, wt, np.real(vals)))

    m = cfg.nodes
    if (2 * m) ** 3 > cfg.eval_budget:
        raise CostBudgetError(
            f"{(2 * m) ** 3} evaluations exceed budget {cfg.eval_budget}"
        )
    px, wx = _talbot_nodes(x, m, cfg.contour_scale)
    qy, wy = _talbot_nodes(y, m, cfg.contour_scale)
    st, wt = _talbot_nodes(t, m, cfg.contour_scale)
    cx = wx * np.exp(px * x)
    cy = wy * np.exp(qy * y)
    ct = wt * np.exp(st * t)
    vals = _eval_grid(F, px, qy, st, "contour grid")
    return float(np.real(np.einsum("i,j,k,ijk->", cx, cy, ct, vals)))


def _eval_grid(F, ps, qs, ss, grid: str) -> np.ndarray:
    """F on the product grid of its node arrays, one slab of x-nodes at a time.

    A slab holds at most _BLOCK values (at least one x-node), so the
    evaluator's temporaries stay cache-sized; an elementwise F gives the
    same grid, bit for bit, as one broadcast call.
    """
    shape = (len(ps), len(qs), len(ss))
    vals = np.empty(shape, dtype=complex)
    rows = max(1, _BLOCK // (shape[1] * shape[2]))
    q, s = qs[None, :, None], ss[None, None, :]
    for lo in range(0, shape[0], rows):
        slab = np.asarray(F(ps[lo:lo + rows, None, None], q, s), dtype=complex)
        want = (min(rows, shape[0] - lo),) + shape[1:]
        if slab.shape != want:
            raise DomainError(
                f"transform returned shape {slab.shape} on the {want} node grid; "
                "it must broadcast over its arguments"
            )
        if not np.all(np.isfinite(slab)):
            raise ContourError(f"non-finite transform value on {grid}")
        vals[lo:lo + rows] = slab
    return vals
