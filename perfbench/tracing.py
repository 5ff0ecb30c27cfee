"""Per-layer tracing of the ``shehu`` package from outside its code.

``Tracer.install()`` replaces every binding of each layer's public
functions -- in the defining module and in every ``shehu`` or benchmark
module that imported it -- with a wrapper that records one span per call.
It also wraps each module's ``quad`` binding (calls, ``neval``, largest
``abserr``, warning outputs), ``fd_oracle``'s ``cg`` binding (calls and
iterations through a callback), and the transform-domain callables handed
to ``inverse`` and ``fpde.reconstruct`` (points evaluated, scalar calls,
singular-locus hits).  ``uninstall()`` restores the original objects.

Wrappers pass arguments and results through untouched, so a traced run
computes bit-identical numbers; the workloads check that on every traced
pass.

A layer's self time is the time spent inside its spans minus the time
spent in spans opened beneath them.  Integrand-level calls are not kept
one by one: every span is folded into per-function totals as it closes.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

import shehu.cli  # noqa: F401  (loads every layer)
from shehu import fpde
from shehu.errors import SingularDenominator

LAYERS = ("specfun", "fracops", "forward", "inverse", "opcalc", "fpde",
          "fd_oracle", "cli")
QUAD_LAYERS = ("fracops", "forward", "opcalc")
_ML_BANDS = ((5.0, "z_le5"), (30.0, "z_5_30"), (math.inf, "z_gt30"))


def _ml_band(z) -> str:
    az = abs(complex(z))
    return next(name for edge, name in _ML_BANDS if az <= edge)


class Tracer:
    """Span and counter store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.time: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _span(self, layer: str, key: str, fn, args, kwargs, on_exit=None):
        frame = [0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        result = exc = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as err:
            exc = err
            raise
        finally:
            dt = perf_counter() - t0
            self._stack.pop()
            self.self_s[layer] += dt - frame[0]
            if self._stack:
                self._stack[-1][0] += dt
            self.calls[key] += 1
            self.time[key] += dt
            if on_exit is not None:
                on_exit(args, kwargs, result, exc, dt)

    def _max(self, key: str, value: float) -> None:
        if key not in self.maxima or value > self.maxima[key]:
            self.maxima[key] = value

    def _function_wrapper(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        on_exit = {
            "specfun.mittag_leffler": self._on_mittag_leffler,
            "fpde.reconstruct": self._on_reconstruct,
        }.get(key)
        wrap_args = {
            "inverse.invert_1d": self._count_transform_arg,
            "inverse.invert_1d_complex": self._count_transform_arg,
            "inverse.invert_3d": self._count_transform_arg,
            "fpde.reconstruct": self._count_solution_arg,
        }.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if wrap_args is not None:
                args = wrap_args(key, args)
            return self._span(layer, key, fn, args, kwargs, on_exit)

        return wrapper

    def _on_mittag_leffler(self, args, kwargs, result, exc, dt) -> None:
        z = args[1] if len(args) > 1 else kwargs["z"]
        band = _ml_band(z)
        self.counts[f"specfun.mittag_leffler.{band}.calls"] += 1
        self.counts[f"specfun.mittag_leffler.{band}.time"] += dt
        if exc is not None:
            self.counts["specfun.mittag_leffler.failed"] += 1

    def _on_reconstruct(self, args, kwargs, result, exc, dt) -> None:
        if result is not None:
            self.counts["fpde.reconstruct.nan_nodes"] += result.nonfinite_count

    def _count_transform_arg(self, key: str, args):
        """Wrap the transform callable so inverse's evaluations are counted."""
        F = args[0]
        if getattr(F, "_bench_counted", False):
            return args
        in_3d = key == "inverse.invert_3d"

        def counted(*fargs):
            out = F(*fargs)
            size = np.size(out)
            self.counts["inverse.eval_points"] += size
            if in_3d and np.ndim(out) == 0:
                self.counts["inverse.scalar_evals"] += 1
            return out

        counted._bench_counted = True
        return (counted,) + tuple(args[1:])

    def _count_solution_arg(self, key: str, args):
        """Route the solution's evaluator through an ``fpde.evaluator`` span."""
        F = args[0]
        inner = F.evaluator

        def on_exit(eargs, ekwargs, result, exc, dt):
            if isinstance(exc, SingularDenominator):
                self.counts["fpde.evaluator.singular"] += 1
            if result is not None:
                self.counts["fpde.evaluator.points"] += np.size(result)

        def evaluator(*eargs):
            return self._span("fpde", "fpde.evaluator", inner, eargs, {}, on_exit)

        wrapped = fpde.TransformSolution(evaluator=evaluator,
                                         singular_loci=F.singular_loci)
        return (wrapped,) + tuple(args[1:])

    def _quad_wrapper(self, layer: str, quad):
        prefix = f"{layer}.quad"

        @functools.wraps(quad)
        def wrapper(*args, **kwargs):
            out = quad(*args, **kwargs)
            self.counts[f"{prefix}.calls"] += 1
            if isinstance(out, tuple) and len(out) >= 3:
                self.counts[f"{prefix}.neval"] += out[2].get("neval", 0)
                self._max(f"{prefix}.abserr_max", float(out[1]))
                if len(out) > 3:
                    self.counts[f"{prefix}.warnings"] += 1
            return out

        return wrapper

    def _cg_wrapper(self, cg):
        @functools.wraps(cg)
        def wrapper(*args, callback=None, **kwargs):
            def count(xk):
                self.counts["fd_oracle.cg.iters"] += 1
                if callback is not None:
                    callback(xk)

            self.counts["fd_oracle.cg.calls"] += 1
            return cg(*args, callback=count, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self, extra_modules=()) -> None:
        """Patch every binding; ``extra_modules`` are benchmark modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        layer_mods = {name: sys.modules[f"shehu.{name}"] for name in LAYERS}
        holders = [m for n, m in sys.modules.items()
                   if n == "shehu" or n.startswith("shehu.")]
        holders += list(extra_modules)
        replacements: dict[int, object] = {}
        for layer, mod in layer_mods.items():
            names = getattr(mod, "__all__", None) or ["main"]
            for name in names:
                obj = getattr(mod, name)
                if callable(obj) and not isinstance(obj, type):
                    replacements[id(obj)] = self._function_wrapper(layer, name, obj)
        for layer in QUAD_LAYERS:
            mod = layer_mods[layer]
            self._patch(mod, "quad", self._quad_wrapper(layer, mod.quad))
        fd = layer_mods["fd_oracle"]
        self._patch(fd, "cg", self._cg_wrapper(fd.cg))
        for holder in holders:
            for name, obj in list(vars(holder).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None and not name.startswith("__"):
                    self._patch(holder, name, wrapper)

    def _patch(self, holder, name: str, new) -> None:
        self._patches.append((holder, name, getattr(holder, name)))
        setattr(holder, name, new)

    def uninstall(self) -> None:
        for holder, name, old in reversed(self._patches):
            setattr(holder, name, old)
        self._patches.clear()

    # -- reporting -------------------------------------------------------------

    def per_call(self, key: str, scale: float) -> float:
        n = self.calls.get(key, 0)
        return self.time.get(key, 0.0) / n * scale if n else 0.0

    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; counts and self times are means per pass."""
        per = 1.0 / max(passes, 1)
        c, n = self.counts, self.calls
        out: dict[str, tuple[float, str]] = {}

        def count(name: str, value: float) -> None:
            out[name] = (value * per, "count")

        ml = "specfun.mittag_leffler"
        count(f"{ml}.calls", n.get(ml, 0))
        for _, band in _ML_BANDS:
            k = c.get(f"{ml}.{band}.calls", 0)
            t = c.get(f"{ml}.{band}.time", 0.0)
            out[f"{ml}.us_per_call.{band}"] = (t / k * 1e6 if k else 0.0, "us")
        count(f"{ml}.failed", c.get(f"{ml}.failed", 0))

        for fn in ("caputo_derivative", "rl_integral"):
            count(f"fracops.{fn}.calls", n.get(f"fracops.{fn}", 0))
            out[f"fracops.{fn}.us_per_call"] = (self.per_call(f"fracops.{fn}", 1e6), "us")
        count("fracops.quad.calls", c.get("fracops.quad.calls", 0))
        count("fracops.quad.neval", c.get("fracops.quad.neval", 0))
        count("fracops.quad.retried", c.get("fracops.quad.warnings", 0))

        for dim in (1, 2, 3):
            key = f"forward.shehu_{dim}d"
            count(f"{key}.calls", n.get(key, 0))
            out[f"{key}.ms_per_call"] = (self.per_call(key, 1e3), "ms")
        count("forward.quad.calls", c.get("forward.quad.calls", 0))
        count("forward.quad.neval", c.get("forward.quad.neval", 0))
        out["forward.quad.abserr_max"] = (self.maxima.get("forward.quad.abserr_max", 0.0), "abs")

        count("inverse.invert_1d.calls", n.get("inverse.invert_1d", 0))
        out["inverse.invert_1d.us_per_call"] = (self.per_call("inverse.invert_1d", 1e6), "us")
        count("inverse.invert_3d.calls", n.get("inverse.invert_3d", 0))
        out["inverse.invert_3d.ms_per_call"] = (self.per_call("inverse.invert_3d", 1e3), "ms")
        count("inverse.eval_points", c.get("inverse.eval_points", 0))
        count("inverse.scalar_evals", c.get("inverse.scalar_evals", 0))

        for fn, scale, unit in (("convolve_3d", 1e6, "us"),
                                ("boundary_from_quadrature", 1e3, "ms")):
            count(f"opcalc.{fn}.calls", n.get(f"opcalc.{fn}", 0))
            out[f"opcalc.{fn}.{unit}_per_call"] = (self.per_call(f"opcalc.{fn}", scale), unit)
        count("opcalc.quad.calls", c.get("opcalc.quad.calls", 0))
        count("opcalc.quad.neval", c.get("opcalc.quad.neval", 0))

        count("fpde.reconstruct.calls", n.get("fpde.reconstruct", 0))
        out["fpde.reconstruct.s_per_call"] = (self.per_call("fpde.reconstruct", 1.0), "s")
        count("fpde.reconstruct.nan_nodes", c.get("fpde.reconstruct.nan_nodes", 0))
        points = c.get("fpde.evaluator.points", 0)
        count("fpde.evaluator.points", points)
        out["fpde.evaluator.ns_per_point"] = (
            self.time.get("fpde.evaluator", 0.0) / points * 1e9 if points else 0.0, "ns")
        count("fpde.evaluator.singular", c.get("fpde.evaluator.singular", 0))

        for fn in ("l1_heat_solve", "classical_telegraph_solve"):
            count(f"fd_oracle.{fn}.calls", n.get(f"fd_oracle.{fn}", 0))
            out[f"fd_oracle.{fn}.ms_per_call"] = (self.per_call(f"fd_oracle.{fn}", 1e3), "ms")
        count("fd_oracle.cg.calls", c.get("fd_oracle.cg.calls", 0))
        count("fd_oracle.cg.iters", c.get("fd_oracle.cg.iters", 0))

        count("cli.main.calls", n.get("cli.main", 0))
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s.get(layer, 0.0) * per, "s")
        return out
