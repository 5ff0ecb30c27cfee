"""Special functions used throughout the package.

Three building blocks live here: the gamma function (complex arguments,
pole detection), the two-parameter Mittag-Leffler function

    E_{g,b}(z) = sum_{r>=0} z^r / Gamma(g*r + b),      g > 0, b > 0,

and the generalized power-series form

    W(sigma) = sum_{s>=0} [prod_j Gamma(a_j + A_j*s)]
               / (s! * prod_j Gamma(b_j + B_j*s)) * sigma^s,

which is the series reduction of the Mellin-Barnes family used by the
transform-domain series evaluators.  Series terms whose gamma factors sit
on a pole are skipped and counted instead of aborting the evaluation.

The Mittag-Leffler function has two paths: its series in double precision
where that certifies itself, and otherwise contour inversion of its own
transform pair s^(g-b)/(s^g - z) with every pole taken as an exact
residue.  Extended precision (mpmath) serves only the power series.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DivergenceError, PoleError

__all__ = [
    "MLParams",
    "WrightSeriesSpec",
    "WrightSeriesResult",
    "gamma_fn",
    "log_abs_gamma",
    "gamma_sign",
    "is_gamma_pole",
    "mittag_leffler",
    "wright_series",
]

#: Distance below which an argument counts as sitting on a gamma pole.
POLE_TOL = 1e-12

# Lanczos approximation, g = 7 with 9 coefficients.  Standard table,
# accurate to ~15 significant digits over the right half-plane.
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def is_gamma_pole(z: complex | float, tol: float = POLE_TOL) -> bool:
    """True when ``z`` lies within ``tol`` of a nonpositive integer."""
    z = complex(z)
    if abs(z.imag) > tol:
        return False
    nearest = round(z.real)
    return nearest <= 0 and abs(z.real - nearest) <= tol


def _lanczos_gamma(z: complex) -> complex:
    if z.real < 0.5:
        # Reflection: Gamma(z) = pi / (sin(pi z) * Gamma(1 - z)).
        return math.pi / (cmath.sin(math.pi * z) * _lanczos_gamma(1.0 - z))
    z = z - 1.0
    acc = _LANCZOS_COEF[0]
    for i, c in enumerate(_LANCZOS_COEF[1:], start=1):
        acc += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * acc


def gamma_fn(z: complex | float) -> complex | float:
    """Gamma function for real or complex scalars.

    Real arguments use the C library implementation (relative error at
    machine level on [0.5, 50]); complex arguments use the Lanczos
    rational approximation with reflection for Re z < 0.5.

    Raises:
        PoleError: when ``z`` is within 1e-12 of a nonpositive integer.
    """
    zc = complex(z)
    if is_gamma_pole(zc):
        raise PoleError(f"gamma pole at z={z!r}")
    if zc.imag == 0.0 and not isinstance(z, complex):
        x = float(zc.real)
        try:
            return math.gamma(x)
        except OverflowError:
            return math.inf
    return _lanczos_gamma(zc)


def log_abs_gamma(x: float) -> float:
    """log |Gamma(x)| for real non-pole ``x``."""
    if is_gamma_pole(x):
        raise PoleError(f"gamma pole at x={x!r}")
    return math.lgamma(x)


def gamma_sign(x: float) -> float:
    """Sign of Gamma(x) for real non-pole ``x`` (alternates below zero)."""
    if x > 0.0:
        return 1.0
    if is_gamma_pole(x):
        raise PoleError(f"gamma pole at x={x!r}")
    return 1.0 if math.floor(x) % 2 == 0 else -1.0


@dataclass(frozen=True)
class MLParams:
    """Orders (gamma, beta) of the two-parameter Mittag-Leffler function."""

    gamma: float
    beta: float

    def __post_init__(self) -> None:
        if not (self.gamma > 0.0 and self.beta > 0.0):
            raise ValueError(
                f"Mittag-Leffler orders must be positive, got "
                f"gamma={self.gamma}, beta={self.beta}"
            )


def _ml_series_float(g: float, b: float, z: complex, max_terms: int = 600):
    """Direct series in double precision; returns (value, relative error estimate)."""
    log_abs_z = math.log(abs(z))
    phase = cmath.phase(z)
    total = 0.0 + 0.0j
    max_mag = 0.0
    arg_at_max = b
    term_mag = math.inf
    for r in range(max_terms):
        arg = g * r + b
        log_mag = r * log_abs_z - math.lgamma(arg)
        if log_mag > 700.0:  # exp would overflow; series hopeless in floats
            return total, math.inf
        term_mag = math.exp(log_mag)
        total += term_mag * cmath.exp(1j * r * phase)
        if term_mag > max_mag:
            max_mag, arg_at_max = term_mag, arg
        if r > 4 and term_mag < max_mag and term_mag <= 1e-18 * max(abs(total), 1e-300):
            break
    else:
        return total, math.inf
    scale = max(abs(total), 1e-300)
    # Term error includes double rounding of the gamma argument, amplified
    # by d(lgamma)/dx ~ log(x) at the dominant term.
    ulp_factor = 1.0 + arg_at_max * math.log(max(arg_at_max, 2.0))
    err = (max_mag * 1e-16 * ulp_factor + term_mag) / scale
    return total, err


# Garrappa's contour aims at absolute error 1e-14: that keeps 1e-11 relative
# down to |E| ~ 1e-3, and every region for 1/2 <= gamma <= 2 within 200 nodes.
_ML_LOG_TOL = math.log(1e-14)
_LOG_EPS = math.log(np.finfo(float).eps)
_ML_MU_MAX = _ML_LOG_TOL - _LOG_EPS  # keeps the sum's round-off exp(mu) * eps below it


def _ml_poles(g: float, z: complex) -> list[complex]:
    """Roots of s^g = z with |arg s| <= pi: -|z|^(1/g) on the cut, z for g = 1."""
    if g == 1.0:
        return [z]
    r, theta = cmath.polar(z)
    r **= 1.0 / g
    ks = range(-math.ceil(g), math.ceil(g) + 1)
    angles = ((theta + 2.0 * math.pi * k) / g for k in ks)
    poles = [complex(-r, 0.0) if abs(a) >= math.pi * (1.0 - 1e-13) else cmath.rect(r, a)
             for a in angles if abs(a) <= math.pi * (1.0 + 1e-13)]
    return list(dict.fromkeys(poles))


def _ml_bounded_parabola(lo: float, hi: float, p: float):
    """Garrappa's (mu, h, N) between levels lo < hi, a pole; None if no room."""
    f_max = math.exp(_ML_MU_MAX)
    sq_lo = math.sqrt(lo)
    sq_hi = min(math.sqrt(hi), 2.0 * math.sqrt(_ML_MU_MAX) - sq_lo)
    if p < 1e-14:  # only the branch point s = 0 has strength 0, so sq_lo = 0
        f_bar = 1.01 * (2.0 - 1.01 / f_max)
        sb_lo, sb_hi = 0.0, 2.0 * sq_hi / (2.0 + 1.0 / f_bar)
    else:
        f_min = 1.01 * (sq_lo + sq_hi) / (sq_hi - sq_lo) ** max(p, 1.0)
        if f_min >= f_max:
            return None
        f_bar = max(f_min, 1.5) * (2.0 - max(f_min, 1.5) / f_max)
        fp, fq, w = f_bar ** (-1.0 / p), 1.0 / f_bar, -hi / _ML_LOG_TOL
        den = 2.0 + w - (1.0 + w) * fp + fq
        sb_lo = ((2.0 + w + fq) * sq_lo + fp * sq_hi) / den
        sb_hi = (-(1.0 + w) * fq * sq_lo + (2.0 + w - (1.0 + w) * fp) * sq_hi) / den
    log_tol = _ML_LOG_TOL - math.log(f_bar)
    w = -sb_hi * sb_hi / log_tol
    mu = (((1.0 + w) * sb_lo + sb_hi) / (2.0 + w)) ** 2
    h = -2.0 * math.pi / log_tol * (sb_hi - sb_lo) / ((1.0 + w) * sb_lo + sb_hi)
    return mu, h, math.ceil(math.sqrt(1.0 - log_tol / mu) / h)


def _ml_unbounded_parabola(lo: float, p: float):
    """Garrappa's (mu, h, N) right of level ``lo``; None if no room."""
    sq_lo = math.sqrt(lo)
    sq_bar = math.sqrt(1.01 * lo if lo > 0.0 else 0.01)
    for _ in range(100):
        phi_bar = sq_bar * sq_bar
        ratio = _ML_LOG_TOL / phi_bar
        n = math.ceil(phi_bar / math.pi * (1.0 - 1.5 * ratio + math.sqrt(1.0 - 2.0 * ratio)))
        a = math.pi * n / phi_bar
        sq_mu = sq_bar * abs(4.0 - a) / abs(7.0 - math.sqrt(1.0 + 12.0 * a))
        if p < 1e-14 or 1.0 < ((sq_bar - sq_lo) / sq_mu) ** -p < 10.0:
            break
        sq_bar = 5.0 ** (-1.0 / p) * sq_mu + sq_lo
    else:
        return None
    if sq_mu * sq_mu <= _ML_MU_MAX:
        h = (2.0 * math.sqrt(1.0 + 12.0 * a) - 3.0 * a - 2.0) / (4.0 - a) / n
        return sq_mu * sq_mu, h, n
    # Pull the parabola back to mu = _ML_MU_MAX to bound the round-off.
    sq_bar = (0.0 if p < 1e-14 else 5.0 ** (-1.0 / p) * sq_mu) + sq_lo
    if sq_bar ** 2 >= _ML_MU_MAX:
        return None
    w = math.sqrt(-_LOG_EPS / _ML_MU_MAX)
    u = sq_bar / math.sqrt(-_LOG_EPS)
    n = math.ceil(w * _ML_LOG_TOL / (2.0 * math.pi * (u * w - 1.0)))
    return _ML_MU_MAX, w / n, n


def _ml_contour(g: float, b: float, z: complex) -> complex:
    """E_{g,b}(z) as the inverse transform of s^(g-b)/(s^g - z) at t = 1.

    Of the regions between consecutive levels of phi(s) = (Re s + |s|)/2
    over the poles (and the one above the last), the one whose parabola
    s(u) = mu (1 + iu)^2 needs the fewest trapezoid nodes wins.  Every
    pole is subtracted from the integrand and added back as its residue
    s^(1-b) e^s / g: a pole left to the sum would leave the sum's absolute
    error floor on small results.  Non-finite beyond the double range.
    """
    poles = _ml_poles(g, z)
    levels = [0.0] + sorted({v for s in poles if (v := (s.real + abs(s)) / 2.0) > 1e-15})
    found = []
    for j, lo in enumerate(levels):
        p = 1.0 if j else max(0.0, 2.0 * (b - g - 1.0))
        if lo < _ML_MU_MAX:
            found.append(_ml_bounded_parabola(lo, levels[j + 1], p)
                         if j + 1 < len(levels) else _ml_unbounded_parabola(lo, p))
    mu, h, n = min(filter(None, found), key=lambda c: c[2], default=(0.0, 0.0, math.inf))
    if n > 200:
        raise ConvergenceError(
            f"no Mittag-Leffler contour reaches 1e-14 within 200 nodes at "
            f"z={z!r} with gamma={g}, beta={b}"
        )
    u = h * np.arange(-n, n + 1)
    s = mu * (1.0 + 1j * u) ** 2
    sj = np.array(poles)
    res = sj ** (1.0 - b) / g
    f = s ** (g - b) / (s ** g - z) - (res / (s[:, None] - sj)).sum(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        tail = np.sum(res * np.exp(sj))
    return complex(h * mu / math.pi * np.sum(np.exp(s) * f * (1.0 + 1j * u)) + tail)


def mittag_leffler(p: MLParams, z: complex | float) -> complex | float:
    """Two-parameter Mittag-Leffler function E_{gamma,beta}(z).

    The double-precision series runs on |z| <= 5 and on the positive real
    axis, wherever its own error estimate meets 1e-12 relative (the estimate
    underestimates cancellation up to sixfold near z = -4).  Everywhere
    else the transform pair s^(gamma-beta)/(s^gamma - z) is inverted on a
    pole-aware parabolic contour (Garrappa, SIAM J. Numer. Anal. 53(3),
    2015; Weideman & Trefethen, Math. Comp. 76, 2007).  Accuracy: 1e-11
    relative, or 1e-14 absolute where |E| < 1e-3, for 1/2 <= gamma <= 2,
    0.2 <= beta <= 2 and |z| <= 100.  On the positive real axis a value
    beyond the double range is ``inf``.

    Raises:
        ConvergenceError: when no contour reaches its target within 200
            nodes (seen only for gamma > 2), or when the value overflows
            off the positive real axis.
    """
    g, b = p.gamma, p.beta
    want_complex = isinstance(z, complex) and z.imag != 0.0
    zc = complex(z)
    if zc == 0:
        return 1.0 / math.gamma(b)

    positive = not want_complex and zc.real > 0.0
    if abs(zc) <= 5.0 or positive:
        val, err = _ml_series_float(g, b, zc)
        if err <= 1e-12:
            return val if want_complex else val.real
    try:
        val = _ml_contour(g, b, zc)
    except OverflowError:  # a pole's modulus |z|^(1/gamma) is beyond the double range
        val = complex(math.nan)
    if not cmath.isfinite(val):
        if positive:
            return math.inf  # every series term is positive: a true overflow
        raise ConvergenceError(
            f"Mittag-Leffler contour leaves the double range at z={z!r} "
            f"with gamma={g}, beta={b}"
        )
    return val if want_complex else val.real


@dataclass(frozen=True)
class WrightSeriesSpec:
    """Parameter rows of the generalized power series.

    ``upper`` holds numerator pairs (a_j, A_j); ``lower`` holds denominator
    pairs (b_j, B_j).  All scale factors A_j, B_j must be nonnegative.
    """

    upper: tuple[tuple[float, float], ...]
    lower: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        upper = tuple((float(a), float(sa)) for a, sa in self.upper)
        lower = tuple((float(b), float(sb)) for b, sb in self.lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "lower", lower)
        for _, scale in self.upper + self.lower:
            if scale < 0.0:
                raise ValueError("series scale factors must be nonnegative")


@dataclass
class WrightSeriesResult:
    """Value of a guarded series plus evaluation diagnostics."""

    value: complex
    terms_used: int = 0
    guarded_count: int = 0
    last_term_magnitude: float = 0.0


def wright_series(
    spec: WrightSeriesSpec,
    sigma: complex | float,
    max_terms: int = 200,
) -> WrightSeriesResult:
    """Sum the generalized gamma-ratio power series at ``sigma``.

    Terms are accumulated until the running term magnitude drops below
    1e-16 of the partial sum or ``max_terms`` is reached.  Any term whose
    gamma factors (numerator or denominator) sit on a pole is skipped and
    counted in ``guarded_count``: a denominator pole makes the term an
    exact zero, a numerator pole leaves it undefined, and neither aborts
    the evaluation.  Alternating sums whose cancellation defeats double
    precision are re-summed in extended precision.

    Raises:
        DivergenceError: when term magnitudes grow for 10 consecutive
            evaluated indices and the scale factors permit divergence
            (sum A >= sum B + 1; below that the series is entire and a
            long growth phase is normal).
    """
    sc = complex(sigma)
    log_abs_sigma = math.log(abs(sc)) if sc != 0 else -math.inf
    phase = cmath.phase(sc)

    # Ratio test on the gamma scale factors: with sum(A) < sum(B) + 1 the
    # series is entire, so a long pre-peak growth phase (small scale
    # factors peak late) must not trip the divergence heuristic.
    delta = sum(sa for _, sa in spec.upper) - sum(sb for _, sb in spec.lower) - 1.0
    may_diverge = delta > -1e-12

    total = 0.0 + 0.0j
    guarded = 0
    used = 0
    used_indices: list[int] = []
    growth_run = 0
    prev_mag: float | None = None
    mag = 0.0
    max_mag = 0.0

    for s in range(max_terms):
        num_args = [a + sa * s for a, sa in spec.upper]
        den_args = [s + 1.0] + [b + sb * s for b, sb in spec.lower]
        if any(is_gamma_pole(a) for a in num_args + den_args):
            guarded += 1
            continue
        if sc == 0 and s > 0:
            break
        log_mag = (
            sum(math.lgamma(a) for a in num_args)
            - sum(math.lgamma(a) for a in den_args)
            + (s * log_abs_sigma if s > 0 else 0.0)
        )
        sign = 1.0
        for a in num_args:
            sign *= gamma_sign(a)
        for a in den_args:
            sign *= gamma_sign(a)
        if log_mag > 700.0:
            raise DivergenceError(
                f"series term overflow at index {s} for sigma={sigma!r}"
            )
        mag = math.exp(log_mag)
        total += sign * mag * cmath.exp(1j * phase * s)
        used += 1
        used_indices.append(s)
        max_mag = max(max_mag, mag)

        if may_diverge and prev_mag is not None:
            growth_run = growth_run + 1 if mag > prev_mag else 0
            if growth_run >= 10:
                raise DivergenceError(
                    f"term magnitudes grew for 10 consecutive indices "
                    f"(index {s}) for sigma={sigma!r}"
                )
        prev_mag = mag
        if s > 2 and mag <= 1e-16 * max(abs(total), 1e-300):
            break

    # Cancellation estimate: largest term over result with the gamma
    # argument rounding amplification; escalate to extended precision when
    # double precision cannot deliver ~1e-12 of the sum.
    scale = max(abs(total), 1e-300)
    if used and max_mag * 2e-15 * max(1.0, math.log(2.0 + max_mag)) > 1e-12 * scale:
        total = _wright_sum_mp(spec, sc, used_indices, max_mag, scale)

    return WrightSeriesResult(
        value=total,
        terms_used=used,
        guarded_count=guarded,
        last_term_magnitude=mag,
    )


def _wright_sum_mp(
    spec: WrightSeriesSpec,
    sigma: complex,
    indices: list[int],
    max_mag: float,
    scale: float,
) -> complex:
    """Re-sum the non-guarded terms in extended precision."""
    import mpmath  # its only user: importing the package does not load it
    dps = 30 + int(max(0.0, math.log10(max_mag / scale)))
    with mpmath.workdps(dps):
        ms = mpmath.mpmathify(sigma)
        upper = [(mpmath.mpf(a), mpmath.mpf(sa)) for a, sa in spec.upper]
        lower = [(mpmath.mpf(b), mpmath.mpf(sb)) for b, sb in spec.lower]
        total = mpmath.mpc(0)
        for s in indices:
            term = ms ** s * mpmath.rgamma(s + 1)
            for a, sa in upper:
                term *= mpmath.gamma(a + sa * s)
            for b, sb in lower:
                term *= mpmath.rgamma(b + sb * s)
            total += term
        return complex(total)
