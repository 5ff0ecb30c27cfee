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

One engine serves one and three axes with either method: it takes the
tensor product of the per-axis rules, calls ``F`` on node arrays, which it
must broadcast over, one slab of first-axis nodes at a time, and contracts
the grid with the weights in one sum.  The originals are assumed
real-valued: ``invert_1d`` and ``invert_3d`` return the real part.
"""

from __future__ import annotations

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
    cot(theta) blows up, and theta = 0; 2m nodes total.  Cached and
    read-only: a grid reuses each axis value's contour.
    """
    r0 = TALBOT_RT * scale / point
    nodes = []
    weights = []
    for k in range(2 * m):
        theta = -math.pi + (k + 0.5) * math.pi / m
        cot = math.cos(theta) / math.sin(theta)
        nodes.append(r0 * theta * complex(cot, 1.0))
        ds = r0 * complex(cot - theta * (1.0 + cot * cot), 1.0)
        # trapezoid step pi/m over theta, divided by 2*pi*i
        weights.append(ds * (math.pi / m) / (2.0j * math.pi))
    nodes, weights = np.asarray(nodes), np.asarray(weights)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@lru_cache(maxsize=32)
def _stehfest_weights(n: int) -> np.ndarray:
    """Classic real-node summation weights of even order ``n``, cached and read-only."""
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
    weights = np.array(weights)
    weights.flags.writeable = False
    return weights


def _axis_rule(u: float, n: int, cfg: InversionConfig):
    """Nodes s_k and weights c_k of ``n`` nodes with f(u) ~ sum c_k F(s_k)."""
    if cfg.method == "stehfest":
        ln2 = math.log(2.0)
        return np.arange(1, n + 1) * ln2 / u, _stehfest_weights(n) * ln2 / u
    s, w = _talbot_nodes(u, n // 2, cfg.contour_scale)
    return s, w * np.exp(s * u)


def _invert(F: Callable, point: tuple[float, ...], cfg: InversionConfig) -> complex:
    """Tensor-product inversion sum at ``point``, one axis per coordinate.

    The real-node method sums the real part of ``F``, so its result is real.
    """
    if not all(0.0 < u < math.inf for u in point):
        raise ValueError(f"inversion point must be finite and positive, got {point}")
    d = len(point)
    if cfg.method == "stehfest":
        # nested real-node weights multiply, so the 1-D cancellation budget
        # is raised to the power d; beyond 8 nodes per axis the 3-D tensor
        # weights exceed what double precision can cancel
        n = min(cfg.nodes, 18 if d == 1 else 8)
        n -= n % 2
    else:
        n = 2 * cfg.nodes
    if n ** d > cfg.eval_budget:
        raise CostBudgetError(f"{n ** d} evaluations exceed budget {cfg.eval_budget}")
    nodes, weights = zip(*(_axis_rule(u, n, cfg) for u in point))
    vals = _eval_grid(F, nodes)
    if cfg.method == "stehfest":
        vals = vals.real
    axes = "ijk"[:d]
    return complex(np.einsum(f"{','.join(axes)},{axes}->", *weights, vals))


def invert_1d_complex(
    F: Callable[[np.ndarray], np.ndarray],
    point: float,
    cfg: InversionConfig = DEFAULT_INVERSION,
) -> complex:
    """``invert_1d`` returning the full complex sum.

    The imaginary part of the contour sum measures how far ``F`` departs
    from the conjugate symmetry of transforms of real-valued functions;
    the real-node sum is real.
    """
    return _invert(F, (point,), cfg)


def invert_1d(
    F: Callable[[np.ndarray], np.ndarray],
    point: float,
    cfg: InversionConfig = DEFAULT_INVERSION,
) -> float:
    """Invert a single-axis transform at ``point`` > 0.

    ``F`` is called once, on the array of all nodes of ``cfg``'s rule (the
    2*nodes contour nodes, or the real nodes), and must return values of
    that shape; wrap a scalar-only callable with ``np.frompyfunc(F, 1, 1)``.
    Fractional powers inside ``F`` must use the principal branch; for
    transforms of real-valued originals the imaginary residue of the
    contour sum is at the rounding floor and is discarded here.

    Raises:
        ValueError: when ``point`` is not finite and positive.
        ContourError: when ``F`` returns non-finite values.
        DomainError: when ``F`` returns values of another shape.
    """
    return _invert(F, (point,), cfg).real


def invert_3d(
    F: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
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
        ValueError: when a coordinate is not finite and positive.
        CostBudgetError: when the node budget is exceeded.
        ContourError: on non-finite evaluations.
        DomainError: when ``F`` returns values of another shape.
    """
    return _invert(F, point, cfg).real


def _eval_grid(F, axes) -> np.ndarray:
    """F on the product grid of its node arrays, one slab of first-axis
    nodes at a time.

    ``np.ix_`` puts axis k's nodes along dimension k.  A slab holds at most
    _BLOCK values (at least one first-axis node), so the evaluator's
    temporaries stay cache-sized; an elementwise F gives the same grid, bit
    for bit, as one broadcast call.  Finiteness is checked before shape, so
    a non-finite scalar is a ContourError.
    """
    shape = tuple(len(a) for a in axes)
    vals = np.empty(shape, dtype=complex)
    rows = max(1, _BLOCK // math.prod(shape[1:]))
    first, *rest = np.ix_(*axes)
    for lo in range(0, shape[0], rows):
        slab = np.asarray(F(first[lo:lo + rows], *rest), dtype=complex)
        want = (min(rows, shape[0] - lo),) + shape[1:]
        if not np.all(np.isfinite(slab)):
            raise ContourError(f"non-finite transform value on the {want} node grid")
        if slab.shape != want:
            raise DomainError(
                f"transform returned shape {slab.shape} on the {want} node grid; "
                "it must broadcast over its arguments"
            )
        vals[lo:lo + rows] = slab
    return vals
