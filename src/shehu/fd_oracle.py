"""Finite-difference reference solvers for the worked PDE examples.

These schemes exist solely to validate transform-domain reconstructions:

  * heat: L1 discretization of the Caputo time derivative of order
    g in (0, 1] coupled with an implicit 5-point Laplacian scaled by
    1/pi^2 on the unit square (homogeneous Dirichlet); at g = 1 the
    history weights collapse and the scheme is backward Euler;

  * telegraph at time order 1: explicit second-order-in-time scheme for
    f_tt + 2 a f_t + b^2 f = laplacian(f), stable for dt <= dx / sqrt(2).

Both are solved exactly, mode by mode, in the discrete sine basis that
diagonalizes the Dirichlet 5-point Laplacian; no code is shared with the
transform path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import StabilityError
from .fpde import Grid3Field
from .fracops import FracOrder
cg = None  # nothing here calls it; perfbench's tracer patches this name

__all__ = ["FDGrid", "l1_heat_solve", "classical_telegraph_solve"]


@dataclass(frozen=True)
class FDGrid:
    """Interior node counts on the unit square plus time stepping."""

    nx: int
    ny: int
    nt: int
    dt: float

    def __post_init__(self) -> None:
        counts = (self.nx, self.ny, self.nt)
        if not all(isinstance(n, (int, np.integer)) for n in counts):
            raise ValueError(f"node counts must be integers, got {counts}")
        if min(counts) < 2:
            raise ValueError("grid needs at least 2 nodes per axis")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")

    @property
    def dx(self) -> float:
        return 1.0 / (self.nx + 1)

    @property
    def dy(self) -> float:
        return 1.0 / (self.ny + 1)

    @property
    def xs(self) -> tuple[float, ...]:
        return tuple((i + 1) * self.dx for i in range(self.nx))

    @property
    def ys(self) -> tuple[float, ...]:
        return tuple((j + 1) * self.dy for j in range(self.ny))

    @property
    def ts(self) -> tuple[float, ...]:
        return tuple((k + 1) * self.dt for k in range(self.nt))

    def telegraph_stable(self) -> bool:
        return self.dt <= min(self.dx, self.dy) / math.sqrt(2.0) + 1e-15


def _sine_modes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sine basis S of an axis with n interior nodes, and its eigenvalues.

    S_jk = sqrt(2/(n+1)) sin(pi j k/(n+1)) satisfies S @ S = I, and
    S diag(lam) S is the Dirichlet second difference with h = 1/(n+1):
    lam_k = -4/h^2 sin^2(pi k/(2(n+1))).
    """
    k = np.arange(1, n + 1)
    basis = math.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(k, k) / (n + 1))
    lam = -4.0 * (n + 1) ** 2 * np.sin(0.5 * np.pi * k / (n + 1)) ** 2
    return basis, lam


def _nodal(fn: Callable[[float, float], float], grid: FDGrid) -> np.ndarray:
    return np.array([[fn(x, y) for y in grid.ys] for x in grid.xs], dtype=float)


def l1_heat_solve(
    gamma: FracOrder | float,
    ic: Callable[[float, float], float],
    grid: FDGrid,
) -> Grid3Field:
    """March the fractional heat equation with the L1 history scheme.

    Weights b_j = (j+1)^(1-g) - j^(1-g); each step solves
    (I - c*A) u^k = sum_{j=1}^{k-1} (b_{j-1} - b_j) u^{k-j} + b_{k-1} u^0
    with c = Gamma(2-g) dt^g / pi^2 and A the 5-point Laplacian.  The
    system is diagonal in the sine basis, so each step divides the modal
    right-hand side by 1 - c*(lam_x + lam_y), exactly up to rounding.
    The result's ``values`` is a non-contiguous (x, y, t) view of the
    time-major history array.

    Raises:
        ValueError: for an order outside (0, 1].
    """
    order = gamma if isinstance(gamma, FracOrder) else FracOrder(float(gamma))
    g = order.value
    if not (0.0 < g <= 1.0):
        raise ValueError(f"heat oracle needs order in (0, 1], got {g}")

    sx, lx = _sine_modes(grid.nx)
    sy, ly = _sine_modes(grid.ny)
    c = math.gamma(2.0 - g) * grid.dt ** g / (math.pi ** 2)
    denom = 1.0 - c * (lx[:, None] + ly[None, :])

    # b_0 = 1 exactly (0^(1-g) -> 0 including the g = 1 limit)
    j = np.arange(1.0, grid.nt + 1)
    b = np.concatenate(([1.0], (j + 1.0) ** (1.0 - g) - j ** (1.0 - g)))
    d = b[:-1] - b[1:]  # d[i] weighs u^{k-1-i}
    # only the prefix of d up to its last nonzero entry weighs anything: all
    # of d at g < 1, d[:1] at g = 1, where only u^{k-1} enters
    nd = int(np.flatnonzero(d)[-1]) + 1
    # modal history u^0 .. u^nt; each step contracts it with d reversed
    hist = np.empty((grid.nt + 1, grid.nx, grid.ny))
    hist[0] = sx @ _nodal(ic, grid) @ sy
    for k in range(1, grid.nt + 1):
        lo = max(1, k - nd)
        rhs = b[k - 1] * hist[0] + np.tensordot(d[:k - lo][::-1], hist[lo:k], axes=1)
        hist[k] = rhs / denom
    # back to nodal values in place once the march no longer reads the
    # modes, so one history array is the only grid-sized allocation
    for k in range(1, grid.nt + 1):
        hist[k] = sx @ hist[k] @ sy
    return Grid3Field(grid.xs, grid.ys, grid.ts, hist[1:].transpose(1, 2, 0))


def classical_telegraph_solve(
    alpha: float,
    beta: float,
    ic: Callable[[float, float], float],
    ic_velocity: Callable[[float, float], float],
    grid: FDGrid,
) -> Grid3Field:
    """Explicit scheme for the order-one telegraph equation.

    Central second differences in time and space: the update solves
    (1/dt^2 + a/dt) u^{k+1} = (2/dt^2 - b^2) u^k + A u^k
                              - (1/dt^2 - a/dt) u^{k-1};
    the first step uses a Taylor start with the initial velocity.  The
    recurrence runs per sine mode, with A replaced by its eigenvalue.

    Raises:
        StabilityError: when dt exceeds the CFL bound dx/sqrt(2).
    """
    if alpha < 0.0 or beta < 0.0:
        raise ValueError("alpha and beta must be nonnegative")
    if not grid.telegraph_stable():
        raise StabilityError(
            f"dt={grid.dt} violates the bound min(dx,dy)/sqrt(2)="
            f"{min(grid.dx, grid.dy) / math.sqrt(2.0):.6g}"
        )
    sx, lx = _sine_modes(grid.nx)
    sy, ly = _sine_modes(grid.ny)
    lam = lx[:, None] + ly[None, :]
    dt = grid.dt
    u_prev = sx @ _nodal(ic, grid) @ sy
    v0 = sx @ _nodal(ic_velocity, grid) @ sy
    u_curr = (
        u_prev
        + dt * v0
        + 0.5 * dt * dt * (lam * u_prev - 2.0 * alpha * v0 - beta * beta * u_prev)
    )
    out = np.empty((grid.nx, grid.ny, grid.nt))
    out[:, :, 0] = sx @ u_curr @ sy
    lhs_coef = 1.0 / dt ** 2 + alpha / dt
    for k in range(2, grid.nt + 1):
        rhs = (
            (2.0 / dt ** 2 - beta * beta) * u_curr
            + lam * u_curr
            - (1.0 / dt ** 2 - alpha / dt) * u_prev
        )
        u_prev, u_curr = u_curr, rhs / lhs_coef
        out[:, :, k - 1] = sx @ u_curr @ sy
    return Grid3Field(grid.xs, grid.ys, grid.ts, out)
