"""Command-line front-end.

Subcommands:

  transform   forward transforms of built-in test functions at ratio points
  invert      numerical inversion of built-in transform pairs
  solve       heat / telegraph example runs (residual, reconstruct, series)
  verify      numeric identity suites with line-per-row reports

Exit codes: 0 all checks passed, 1 numerical failure or failed assertion,
2 usage/parse/validation error.  A plain ``key = value`` config file can
seed any option; explicit flags override it.  All floating-point output
uses 17 significant digits so identical runs produce identical bytes.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

from .errors import ConfigError, ShehuError
from .forward import QuadratureConfig, RatioPoint, shehu_1d, shehu_2d, shehu_3d
from .fpde import (
    HeatSpec,
    TelegraphSpec,
    reconstruct,
    series_solution,
    transform_residual,
    transform_solution,
)
from .funclib import get_field, ml_kernel_field, power_field
from .inverse import InversionConfig, invert_1d
from .opcalc import SUITE_IDS, verify_suite
from .specfun import MLParams, mittag_leffler

_CONFIG_KEYS = {
    "rel_tol": float,
    "abs_tol": float,
    "tail_cut_tol": float,
    "method": str,
    "nodes": int,
    "contour_scale": float,
    "seed": int,
    "output": str,
    "grid_n": int,
    "grid_extent": float,
}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def load_config(path: str) -> dict:
    """Parse a ``key = value`` config file; unknown keys are rejected."""
    values: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _CONFIG_KEYS[key](val)
            except ValueError:
                raise ConfigError(
                    f"{path}:{lineno}: bad value {val!r} for {key!r}"
                ) from None
    return values


def _merged(args, key, default):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    return args.config_values.get(key, default)


def _given(args, *keys) -> dict:
    """The ``keys`` a flag or the config file sets; library defaults serve the rest."""
    return {key: v for key in keys if (v := _merged(args, key, None)) is not None}


def _quad_config(args) -> QuadratureConfig:
    return QuadratureConfig(**_given(args, "rel_tol", "abs_tol", "tail_cut_tol"))


def _inv_config(args) -> InversionConfig:
    return InversionConfig(**_given(args, "method", "nodes", "contour_scale"))


def _emit(lines: Sequence[str], output: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- transform ---------------------------------------------------------------

_FUNC_CHOICES = ("const", "exp-xyt", "product-exponential", "sine-product",
                 "power", "ml-kernel")


def cmd_transform(args) -> int:
    cfg = _quad_config(args)
    if args.func == "power":
        fld = power_field(args.nu, axis=args.axis)
    elif args.func == "ml-kernel":
        fld = ml_kernel_field(args.ml_gamma, args.ml_beta, args.ml_c,
                              axis=args.axis)
    else:
        fld = get_field(args.func)

    lines = []
    f = fld.exp_order()
    for spec in args.ratios:
        parts = [float(v) for v in spec.split(",")]
        if len(parts) != args.dims:
            raise ValueError(f"ratio point {spec!r} has {len(parts)} entries, "
                             f"need {args.dims}")
        if args.dims == 1:
            vars = RatioPoint(**{args.axis: (parts[0], 1.0)})
            val = shehu_1d(f, args.axis, vars, cfg)
        elif args.dims == 2:
            vars = RatioPoint.from_ratios(parts[0], parts[1])
            val = shehu_2d(f, ("x", "y"), vars, cfg)
        else:
            vars = RatioPoint.from_ratios(*parts)
            val = shehu_3d(f, vars, cfg)
        lines.append(",".join(_fmt(v) for v in parts) + "," + _fmt(val))
    _emit(lines, _merged(args, "output", None))
    return 0


# -- invert ------------------------------------------------------------------

_PAIRS = {
    "one-over-s": (lambda s: 1.0 / s, lambda t: 1.0),
    "one-over-s-squared": (lambda s: 1.0 / (s * s), lambda t: t),
    "one-over-s-plus-1": (lambda s: 1.0 / (s + 1.0), lambda t: math.exp(-t)),
    "sine": (lambda s: 1.0 / (s * s + 1.0), lambda t: math.sin(t)),
    "ml-gamma-0.5": (
        lambda s: s ** -0.5 / (s ** 0.5 + 1.0),
        lambda t: mittag_leffler(MLParams(0.5, 1.0), -math.sqrt(t)),
    ),
}


def cmd_invert(args) -> int:
    cfg = _inv_config(args)
    F, ref = _PAIRS[args.pair]
    lines = ["point,inverted,reference,abs_err"]
    worst = 0.0
    for spec in args.points:
        t = float(spec)
        got = invert_1d(F, t, cfg)
        expect = ref(t)
        err = abs(got - expect)
        worst = max(worst, err / max(abs(expect), 1.0))
        lines.append(",".join(_fmt(v) for v in (t, got, expect, err)))
    _emit(lines, _merged(args, "output", None))
    if worst > args.threshold:
        print(
            f"error: worst relative error {worst:.3e} exceeds threshold "
            f"{args.threshold:g}", file=sys.stderr,
        )
        return 1
    return 0


# -- solve ---------------------------------------------------------------------

def _residual_points(seed: int, count: int = 20):
    import numpy as np

    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < count:
        p, q, s = (float(v) for v in rng.uniform(1.2, 3.0, size=3))
        if abs(p - 1.0) < 0.1:
            continue
        pts.append((p, q, s))
    return pts


# flags that only one --mode reads; none of them is a config key
_MODE_FLAGS = (("relation", "residual"), ("residual_tol", "residual"),
               ("truncation", "series"))


def cmd_solve(args) -> int:
    for key, mode in _MODE_FLAGS:
        if getattr(args, key) is not None and args.mode != mode:
            raise ValueError(f"--{key.replace('_', '-')} applies only to --mode {mode}")
    relation = _merged(args, "relation", "printed")
    if relation == "strict" and args.residual_tol is not None:
        raise ValueError("--residual-tol does not apply to --relation strict, "
                         "which is reported for comparison only")
    if args.problem == "heat":
        spec = HeatSpec(gamma=args.gamma)
    else:
        spec = TelegraphSpec(gamma=args.gamma, alpha=args.alpha, beta=args.beta)
    F = transform_solution(spec)

    seed = int(_merged(args, "seed", 42))
    output = _merged(args, "output", None)

    if args.mode == "residual":
        lines = ["p,q,s,residual"]
        worst = 0.0
        for pt in _residual_points(seed):
            r = transform_residual(spec, F, pt, mode=relation)
            worst = max(worst, r)
            lines.append(",".join(_fmt(v) for v in (*pt, r)))
        lines.append(f"# worst={_fmt(worst)}")
        _emit(lines, output)
        if relation == "strict":  # reported for comparison only
            return 0
        return 0 if worst <= _merged(args, "residual_tol", 1e-10) else 1

    if args.mode == "series":
        res = series_solution(spec, (0.5, 0.5, 0.5), _merged(args, "truncation", 6))
        _emit(
            [
                f"value={_fmt(res.value)}",
                f"guarded_count={res.guarded_count}",
                f"terms_used={res.terms_used}",
            ],
            output,
        )
        return 0

    # reconstruct
    n = int(_merged(args, "grid_n", 4))
    extent = float(_merged(args, "grid_extent", 1.0))
    nodes = [extent * (i + 1) / n for i in range(n)]
    fld = reconstruct(F, nodes, nodes, nodes, _inv_config(args))
    _emit(fld.to_table_lines(), output)
    return 0 if fld.nonfinite_count == 0 else 1


# -- verify --------------------------------------------------------------------

def cmd_verify(args) -> int:
    report = verify_suite(args.suite, args.tol, int(_merged(args, "seed", 42)))
    lines = report.to_lines()
    lines.append(
        f"# suite={report.suite} passed={report.n_passed}/{len(report.rows)}"
    )
    _emit(lines, _merged(args, "report", None) or _merged(args, "output", None))
    return 0 if report.passed else 1


# -- parser --------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shehu",
        description="Transforms, fractional operational calculus, and the "
        "worked fractional PDE examples.",
    )
    parser.add_argument("--config", help="key = value configuration file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="forward transforms at ratio points")
    p.add_argument("--dims", type=int, choices=(1, 2, 3), default=1)
    p.add_argument("--axis", choices=("x", "y", "t"), default="t",
                   help="axis for 1-D transforms")
    p.add_argument("--func", required=True, choices=_FUNC_CHOICES)
    p.add_argument("--ratios", action="append", required=True,
                   help="comma-separated ratio point (repeatable)")
    p.add_argument("--nu", type=float, default=0.5, help="power exponent")
    p.add_argument("--ml-gamma", type=float, default=0.5)
    p.add_argument("--ml-beta", type=float, default=1.0)
    p.add_argument("--ml-c", type=float, default=-1.0)
    p.add_argument("--rel-tol", dest="rel_tol", type=float)
    p.add_argument("--abs-tol", dest="abs_tol", type=float)
    p.add_argument("--output")
    p.set_defaults(run=cmd_transform)

    p = sub.add_parser("invert", help="invert built-in transform pairs")
    p.add_argument("--pair", required=True, choices=sorted(_PAIRS))
    p.add_argument("--points", nargs="+", required=True)
    p.add_argument("--method", choices=("talbot", "stehfest"))
    p.add_argument("--nodes", type=int)
    p.add_argument("--threshold", type=float, default=1e-6,
                   help="flag runs whose worst relative error exceeds this")
    p.add_argument("--output")
    p.set_defaults(run=cmd_invert)

    p = sub.add_parser("solve", help="run a worked example")
    p.add_argument("problem", choices=("heat", "telegraph"))
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--mode", choices=("residual", "reconstruct", "series"),
                   default="residual")
    p.add_argument("--relation", choices=("printed", "strict"))
    p.add_argument("--residual-tol", dest="residual_tol", type=float)
    p.add_argument("--truncation", type=int)
    p.add_argument("--grid-n", dest="grid_n", type=int)
    p.add_argument("--grid-extent", dest="grid_extent", type=float)
    p.add_argument("--method", choices=("talbot", "stehfest"))
    p.add_argument("--nodes", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--output")
    p.set_defaults(run=cmd_solve)

    p = sub.add_parser("verify", help="run a numeric identity suite")
    p.add_argument("--suite", required=True, choices=SUITE_IDS)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--seed", type=int)
    p.add_argument("--report", help="report file path (default: stdout)")
    p.set_defaults(run=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        args.config_values = load_config(args.config) if args.config else {}
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.run(args)
    except ShehuError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
