import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from shehu.errors import StabilityError
from shehu.fd_oracle import (
    FDGrid,
    _sine_modes,
    classical_telegraph_solve,
    l1_heat_solve,
)
from shehu.specfun import MLParams, mittag_leffler


def sin_mode(x, y):
    return math.sin(math.pi * x) * math.sin(math.pi * y)


def zero(x, y):
    return 0.0


class TestFDGrid:
    def test_spacing(self):
        grid = FDGrid(nx=4, ny=4, nt=8, dt=0.125)
        assert grid.dx == 0.2
        assert grid.xs == pytest.approx((0.2, 0.4, 0.6, 0.8))
        assert grid.ts[-1] == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            FDGrid(nx=1, ny=4, nt=8, dt=0.1)
        with pytest.raises(ValueError):
            FDGrid(nx=4, ny=4, nt=8, dt=0.0)
        for dt in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="dt"):
                FDGrid(nx=4, ny=4, nt=3, dt=dt)
        for counts in ((4.5, 4, 3), (4, 4.0, 3), (4, 4, "3")):
            with pytest.raises(ValueError, match="integers"):
                FDGrid(*counts, dt=0.1)
        assert FDGrid(np.int64(4), 4, 3, dt=0.1).nx == 4


class TestHeatSolve:
    def test_classical_order_matches_separable_solution(self):
        """g=1: exact solution exp(-2t) sin(pi x) sin(pi y)."""
        grid = FDGrid(nx=31, ny=31, nt=64, dt=0.25 / 64)
        fld = l1_heat_solve(1.0, sin_mode, grid)
        c = grid.xs.index(0.5)
        got = fld.at(c, c, grid.nt - 1)
        assert_allclose(got, math.exp(-0.5), rtol=0.02)

    def test_half_order_matches_ml_solution(self):
        """g=1/2: separable solution E_{1/2}(-2 t^(1/2)) sin sin."""
        grid = FDGrid(nx=31, ny=31, nt=64, dt=0.25 / 64)
        fld = l1_heat_solve(0.5, sin_mode, grid)
        c = grid.xs.index(0.5)
        ref = mittag_leffler(MLParams(0.5, 1.0), -2.0 * math.sqrt(0.25))
        assert_allclose(fld.at(c, c, grid.nt - 1), ref, rtol=0.02)

    def test_zero_initial_condition(self):
        grid = FDGrid(nx=7, ny=7, nt=6, dt=0.01)
        fld = l1_heat_solve(0.7, zero, grid)
        assert np.max(np.abs(fld.values)) == 0.0

    @pytest.mark.parametrize("g", [0.4, 0.7, 1.0])
    def test_discrete_maximum_principle(self, g):
        """Values stay within the initial range [0, 1] at every step."""
        grid = FDGrid(nx=15, ny=15, nt=24, dt=1.0 / 48)
        fld = l1_heat_solve(g, sin_mode, grid)
        assert fld.values.min() >= -1e-10
        assert fld.values.max() <= 1.0 + 1e-10

    def test_time_refinement_order(self):
        """Halving dt shrinks the g=1 error by >= 1.8x.

        The reference is the space-semidiscrete solution exp(lam_h t) with
        the discrete Laplacian eigenvalue lam_h, so only the time error
        enters the ratio.
        """
        nx = 15
        dx = 1.0 / (nx + 1)
        # two spatial axes, each contributing (2/dx^2)(cos(pi dx) - 1)
        lam_h = 4.0 * (math.cos(math.pi * dx) - 1.0) / (dx * dx) / (math.pi ** 2)
        errs = []
        for nt in (16, 32):
            grid = FDGrid(nx=nx, ny=nx, nt=nt, dt=0.25 / nt)
            fld = l1_heat_solve(1.0, sin_mode, grid)
            c = grid.xs.index(0.5)
            ref = math.exp(lam_h * 0.25)
            errs.append(abs(fld.at(c, c, nt - 1) - ref))
        assert errs[0] / errs[1] >= 1.8

    def test_order_domain(self):
        grid = FDGrid(nx=4, ny=4, nt=4, dt=0.01)
        with pytest.raises(ValueError):
            l1_heat_solve(1.5, sin_mode, grid)

class TestTelegraphSolve:
    def test_zero_data(self):
        grid = FDGrid(nx=7, ny=7, nt=10, dt=0.01)
        fld = classical_telegraph_solve(0.5, 1.0, zero, zero, grid)
        assert np.max(np.abs(fld.values)) == 0.0

    def test_standing_wave_mode(self):
        """a=b=0 reduces to the wave equation: center follows cos(sqrt2 pi t)."""
        nx = 63
        grid = FDGrid(nx=nx, ny=nx, nt=90, dt=0.5 / 90)
        fld = classical_telegraph_solve(0.0, 0.0, sin_mode, zero, grid)
        c = grid.xs.index(0.5)
        for k in (29, 59, 89):
            t = grid.ts[k]
            ref = math.cos(math.sqrt(2.0) * math.pi * t)
            assert abs(fld.at(c, c, k) - ref) <= 0.02 * max(abs(ref), 1.0)

    def test_stability_guard(self):
        with pytest.raises(StabilityError):
            classical_telegraph_solve(
                0.0, 0.0, sin_mode, zero, FDGrid(nx=31, ny=31, nt=4, dt=0.25)
            )

    def test_damped_energy_decay(self):
        """a=1, b=0: discrete energy (kinetic + gradient) never increases."""
        grid = FDGrid(nx=31, ny=31, nt=60, dt=0.3 / 60)
        fld = classical_telegraph_solve(1.0, 0.0, sin_mode, zero, grid)
        vals = fld.values
        h = grid.dx
        energies = []
        for k in range(1, grid.nt):
            ft = (vals[:, :, k] - vals[:, :, k - 1]) / grid.dt
            gx, gy = np.gradient(vals[:, :, k], h, h)
            energies.append(0.5 * np.sum(ft ** 2 + gx ** 2 + gy ** 2) * h * h)
        assert all(b <= a + 1e-10 for a, b in zip(energies, energies[1:]))


def _dense_laplacian(grid):
    """5-point Dirichlet Laplacian on the x-major flattened interior."""

    def second_diff(n, h):
        return (np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1)
                + np.diag(np.ones(n - 1), -1)) / (h * h)

    return (np.kron(second_diff(grid.nx, grid.dx), np.eye(grid.ny))
            + np.kron(np.eye(grid.nx), second_diff(grid.ny, grid.dy)))


def _dense_nodal(fn, grid):
    return np.array([fn(x, y) for x in grid.xs for y in grid.ys])


def lopsided(x, y):
    """Non-separable, symmetric in neither axis nor under x <-> y."""
    return x * (1.0 - x) * y * (1.0 - y) * (1.0 + 2.0 * x + 0.3 * y * y
                                             + math.sin(3.0 * x * y))


def swirl(x, y):
    return math.sin(2.0 * math.pi * x) * y * (1.0 - y) * (1.0 + x)


class TestAgainstDenseReference:
    """Both schemes rebuilt with a dense Laplacian on a rectangular grid."""

    GRID = FDGrid(nx=9, ny=14, nt=30, dt=0.02)

    @pytest.mark.parametrize("g", [0.4, 1.0])
    def test_heat_matches_direct_solves(self, g):
        grid = self.GRID
        c = math.gamma(2.0 - g) * grid.dt ** g / math.pi ** 2
        system = np.eye(grid.nx * grid.ny) - c * _dense_laplacian(grid)
        b = [1.0] + [(j + 1) ** (1.0 - g) - j ** (1.0 - g)
                     for j in range(1, grid.nt + 1)]
        history = [_dense_nodal(lopsided, grid)]
        for k in range(1, grid.nt + 1):
            rhs = b[k - 1] * history[0]
            for j in range(1, k):
                rhs = rhs + (b[j - 1] - b[j]) * history[k - j]
            history.append(np.linalg.solve(system, rhs))
        ref = np.stack(history[1:], axis=-1).reshape(grid.nx, grid.ny, grid.nt)
        got = l1_heat_solve(g, lopsided, grid).values
        assert_allclose(got, ref, rtol=1e-11)

    def test_telegraph_matches_dense_stencil(self):
        grid = self.GRID
        alpha, beta, dt = 0.7, 1.3, grid.dt
        lap = _dense_laplacian(grid)
        u_prev = _dense_nodal(lopsided, grid)
        v0 = _dense_nodal(swirl, grid)
        u = u_prev + dt * v0 + 0.5 * dt * dt * (
            lap @ u_prev - 2.0 * alpha * v0 - beta * beta * u_prev)
        steps = [u]
        for _ in range(grid.nt - 1):
            nxt = ((2.0 / dt ** 2 - beta * beta) * u + lap @ u
                   - (1.0 / dt ** 2 - alpha / dt) * u_prev) / (1.0 / dt ** 2 + alpha / dt)
            u_prev, u = u, nxt
            steps.append(u)
        ref = np.stack(steps, axis=-1).reshape(grid.nx, grid.ny, grid.nt)
        got = classical_telegraph_solve(alpha, beta, lopsided, swirl, grid).values
        assert_allclose(got, ref, rtol=1e-11)


class TestHeatHistoryInPlace:
    @pytest.mark.parametrize("g, shape, ic", [
        (1.0, (19, 19, 64), lopsided), (1.0, (31, 31, 64), lopsided),
        (0.5, (31, 31, 64), lopsided), (0.6, (13, 21, 40), lopsided),
        (1.0, (63, 63, 256), sin_mode), (0.6, (63, 63, 256), sin_mode),
    ])
    def test_in_place_history_matches_two_array_loop(self, g, shape, ic):
        """Nodal values written over the modal history after the march are
        bit-identical to filling a separate nodal array at every step."""
        nx, ny, nt = shape
        grid = FDGrid(nx=nx, ny=ny, nt=nt, dt=0.3 / nt)
        sx, lx = _sine_modes(nx)
        sy, ly = _sine_modes(ny)
        c = math.gamma(2.0 - g) * grid.dt ** g / (math.pi ** 2)
        denom = 1.0 - c * (lx[:, None] + ly[None, :])
        j = np.arange(1.0, nt + 1)
        b = np.concatenate(([1.0], (j + 1.0) ** (1.0 - g) - j ** (1.0 - g)))
        d = b[:-1] - b[1:]
        nd = int(np.flatnonzero(d)[-1]) + 1
        hist = np.empty((nt + 1, nx, ny))
        hist[0] = sx @ np.array([[ic(x, y) for y in grid.ys]
                                 for x in grid.xs]) @ sy
        ref = np.empty((nx, ny, nt))
        for k in range(1, nt + 1):
            lo = max(1, k - nd)
            rhs = b[k - 1] * hist[0] + np.tensordot(d[:k - lo][::-1], hist[lo:k], axes=1)
            hist[k] = rhs / denom
            ref[:, :, k - 1] = sx @ hist[k] @ sy
        assert np.array_equal(l1_heat_solve(g, ic, grid).values, ref)
