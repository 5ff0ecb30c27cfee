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
must broadcast over, one slab of first-axis nodes at a time, and reduces
each slab at once to one sum per first-axis node.  The originals are
assumed real-valued: ``invert_1d`` and ``invert_3d`` return the real part.
A real original's transform has F(conj s) = conj F(s) and the contour
nodes come in exact conjugate pairs, so these two call ``F`` on the first
half of the first axis' nodes only, fill the other half of the sums by
conjugation, and check one more slab (``ContourError`` without symmetry).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ContourError, CostBudgetError, DomainError

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
    The least accepted ``nodes``, 8, is not a converged rule: the Talbot
    inversion of 1/(s+1) at t = 1 gives -10.58 for e^-1 there, and is off
    by 1.8e-6 at 12 nodes and by 2.1e-10 at 16.
    """

    method: str = "talbot"
    nodes: int = 32
    contour_scale: float = 1.0
    eval_budget: int = 10**6

    def __post_init__(self) -> None:
        if self.method not in ("talbot", "stehfest"):
            raise ValueError(f"unknown inversion method {self.method!r}")
        if not isinstance(self.nodes, (int, np.integer)):
            raise ValueError(f"nodes must be an integer, got {self.nodes!r}")
        if self.nodes < 8:
            raise ValueError(f"nodes must be at least 8 per axis, got {self.nodes}")
        if not 0.0 < self.contour_scale < math.inf:
            raise ValueError(
                f"contour_scale must be finite and positive, got {self.contour_scale!r}"
            )


DEFAULT_INVERSION = InversionConfig()


@lru_cache(maxsize=64)
def _talbot_nodes(point: float, m: int, scale: float):
    """Contour nodes s_k and weights w_k with f(u) = sum w_k exp(s_k u) F(s_k).

    Midpoint sampling of theta in (-pi, pi) avoids both endpoints, where
    cot(theta) blows up, and theta = 0; 2m nodes total.  Only the m nodes
    with theta < 0 are computed: node 2m-1-k, at -theta_k, is the exact
    conjugate of node k, and so is its weight, which ``_row_sums``'
    mirrored half relies on.  Cached and read-only: a grid reuses each
    axis value's contour.
    """
    r0 = TALBOT_RT * scale / point
    nodes = []
    weights = []
    for k in range(m):
        theta = -math.pi + (k + 0.5) * math.pi / m
        cot = math.cos(theta) / math.sin(theta)
        nodes.append(r0 * theta * complex(cot, 1.0))
        ds = r0 * complex(cot - theta * (1.0 + cot * cot), 1.0)
        # trapezoid step pi/m over theta, divided by 2*pi*i
        weights.append(ds * (math.pi / m) / (2.0j * math.pi))
    nodes, weights = (np.concatenate([a, np.conjugate(a[::-1])])
                      for a in (np.asarray(nodes), np.asarray(weights)))
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


def _invert(
    F: Callable, point: tuple[float, ...], cfg: InversionConfig, real: bool = False
) -> complex:
    """Tensor-product inversion sum_i c_i r_i at ``point`` (one axis per
    coordinate) of the first axis' weights and ``_row_sums``.

    The real-node method sums the real part of ``F``, so its result is real.
    With ``real`` the contour method calls ``F`` on the mirrored half of the
    first axis; the imaginary part is then that of a conjugate-symmetric F.
    """
    if not all(0.0 < u < math.inf for u in point):
        raise ValueError(f"inversion point must be finite and positive, got {point}")
    d = len(point)
    mirror = real and cfg.method == "talbot"
    if cfg.method == "stehfest":
        # nested real-node weights multiply, so the 1-D cancellation budget
        # is raised to the power d; beyond 8 nodes per axis the 3-D tensor
        # weights exceed what double precision can cancel
        n = min(cfg.nodes, 18 if d == 1 else 8)
        n -= n % 2
    else:
        n = 2 * cfg.nodes
    evals = (n // 2 + 1 if mirror else n) * n ** (d - 1)  # points F is called on
    if evals > cfg.eval_budget:
        raise CostBudgetError(f"{evals} transform evaluations exceed budget {cfg.eval_budget}")
    nodes, weights = zip(*(_axis_rule(u, n, cfg) for u in point))
    rows = _row_sums(F, nodes, weights[1:], mirror, cfg.method == "stehfest")
    total = 0j  # one term at a time in node order (sum() compensates floats from 3.12)
    for c, r in zip(weights[0].tolist(), rows.tolist()):
        total += c * r
    return total


def invert_1d_complex(
    F: Callable[[np.ndarray], np.ndarray],
    point: float,
    cfg: InversionConfig = DEFAULT_INVERSION,
) -> complex:
    """``invert_1d`` returning the full complex sum.

    The imaginary part of the contour sum measures how far ``F`` departs
    from the conjugate symmetry of transforms of real-valued functions, so
    ``F`` is evaluated on every contour node (no mirrored half grid) and
    need not have that symmetry; the real-node sum is real.
    """
    return _invert(F, (point,), cfg)


def invert_1d(
    F: Callable[[np.ndarray], np.ndarray],
    point: float,
    cfg: InversionConfig = DEFAULT_INVERSION,
) -> float:
    """Invert a single-axis transform at ``point`` > 0.

    ``F`` is called on node arrays and must return values of their shape;
    wrap a scalar-only callable with ``np.frompyfunc(F, 1, 1)``.  With the
    real-node method it is called once, on all the real nodes.  With the
    contour method it is called on the first ``nodes`` of the 2*nodes
    contour nodes, and once more on the last node, which checks the
    conjugate symmetry F(conj s) = conj F(s) of a transform of a
    real-valued original: the other half is filled by conjugation.  Use
    ``invert_1d_complex`` for an ``F`` without that symmetry.  Fractional
    powers inside ``F`` must use the principal branch; the imaginary
    residue of the contour sum is discarded here.

    Raises:
        ValueError: when ``point`` is not finite and positive.
        ContourError: when ``F`` returns non-finite values, or values that
            are not conjugate-symmetric.
        DomainError: when ``F`` returns values of another shape.
    """
    return _invert(F, (point,), cfg, real=True).real


def invert_3d(
    F: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    point: tuple[float, float, float],
    cfg: InversionConfig = DEFAULT_INVERSION,
) -> float:
    """Tensor-product inversion of a triple transform at (x, y, t) > 0.

    ``F`` must broadcast: it is called once per slab of consecutive
    x-nodes, with node arrays of shapes (k, 1, 1), (1, n, 1) and (1, 1, n),
    and must return the (k, n, n) values; a slab holds at most ``_SLAB``
    values (at least one x-node).  Wrap a scalar-only callable (for example
    with ``np.frompyfunc``) to evaluate it node by node.  The original is
    assumed real-valued, so F(conj p, conj q, conj s) = conj F(p, q, s):
    with the contour method ``F`` is called on the first half of the
    x-nodes and on the last one, which checks that symmetry, or
    (nodes+1)*(2*nodes)^2 points, and the other half's sums are filled by
    conjugation.  A budget guard on the points evaluated fails fast.  The
    imaginary part of the contour sum is discarded, as in ``invert_1d``.

    The contour sum cancels far more than in 1-D: each axis factor
    exp(s u) reaches exp(TALBOT_RT), so the largest term is up to
    exp(3*TALBOT_RT) (about 5e11) times the original's scale, and the
    rounding floor is about eps times that term, not the 1-D 1e-12.  The
    sum is therefore taken in one fixed order, pairwise over t and then y
    per x-node, then over x in node order; reordering it moves the result.

    Raises:
        ValueError: when a coordinate is not finite and positive.
        CostBudgetError: when the evaluation budget is exceeded.
        ContourError: on non-finite evaluations, or on values that are not
            conjugate-symmetric.
        DomainError: when ``F`` returns values of another shape.
    """
    return _invert(F, point, cfg, real=True).real


#: Most values in one slab of ``_row_sums``; it never changes a result.
#: ``fpde.reconstruct`` inverts nodes on several threads, whose malloc arenas
#: keep freed slabs resident: 2**16 values raised the ``reconstruct``
#: benchmark's peak RSS by 7-10%, while 2**13 made a pass slower than one
#: thread (2.48 against 1.90 s, 2 vCPU): per-slab Python work holds the GIL.
_SLAB = 2 ** 14


#: Largest departure from conjugate symmetry, relative to the largest value
#: of the checked slab, that the mirrored half accepts.  The package's
#: evaluators (rational terms, principal-branch powers) meet it exactly.  A
#: few hundred rounding units admit one that rounds s and conj(s) apart,
#: whose conjugate fill errs about as much as its rounding, while the
#: transform of a complex-valued original departs by far more.
_MIRROR_RTOL = 1e-13


def _row_sums(F, axes, inner, mirror: bool, real_part: bool) -> np.ndarray:
    """r_i = sum_j cy_j sum_k ct_k F(x_i, y_j, t_k) per first-axis node x_i,
    for the ``inner`` weights (cy, ct) of the other axes.

    ``np.ix_`` puts axis k's nodes along dimension k.  F is called on slabs
    of at most _SLAB values (at least one first-axis node), so its
    temporaries stay cache-sized; each slab (its real part with
    ``real_part``) is reduced at once, by a multiply and a pairwise ``sum``
    along the last axis per axis, and dropped.  Each r_i is reduced on its
    own, with no BLAS call: the same bits for any slab size or thread on
    one CPU (numpy's complex product is fused where its SIMD has FMA).

    With ``mirror`` each axis' nodes and weights are conjugate pairs, node
    n-1-j the conjugate of node j, and F(conj s) = conj F(s) must hold, so
    r_{n-1-i} = conj(r_i): F is called on the first half of the first axis
    only, and the rest of r is filled by conjugation.  One more slab, the
    last first-axis node, is checked against the first node's values,
    conjugated and point-reflected, to ``_MIRROR_RTOL``.
    """
    first, *rest = np.ix_(*axes)
    rows = max(1, _SLAB // math.prod(len(a) for a in axes[1:]))
    stop = len(first) // 2 if mirror else len(first)
    r = np.empty(len(first), dtype=float if real_part else complex)
    for lo in range(0, stop, rows):
        slab = _eval_slab(F, first[lo:min(lo + rows, stop)], rest)
        if mirror and lo == 0:
            filled = np.conjugate(slab[:1][(slice(None, None, -1),) * slab.ndim])
        slab = slab.real if real_part else slab
        for w in reversed(inner):
            slab = (slab * w).sum(axis=-1)
        r[lo:lo + len(slab)] = slab
    if mirror:
        np.conjugate(r[:stop][::-1], out=r[stop:])
        check = _eval_slab(F, first[-1:], rest)
        gap, scale = np.max(np.abs(check - filled)), np.max(np.abs(filled))
        if not gap <= _MIRROR_RTOL * scale:
            raise ContourError(
                f"transform is not conjugate-symmetric on the {check.shape} node "
                f"grid: F(conj s) departs from conj F(s) by {gap:.3g} against "
                f"values up to {scale:.3g}, so its original is not real-valued"
            )
    return r


def _eval_slab(F, first, rest) -> np.ndarray:
    """F on one slab: first-axis nodes ``first`` by the full other axes."""
    slab = np.asarray(F(first, *rest), dtype=complex)
    want = (len(first),) + tuple(a.size for a in rest)
    if not np.all(np.isfinite(slab)):
        raise ContourError(f"non-finite transform value on the {want} node grid")
    if slab.shape != want:
        raise DomainError(
            f"transform returned shape {slab.shape} on the {want} node grid; "
            "it must broadcast over its arguments"
        )
    return slab
